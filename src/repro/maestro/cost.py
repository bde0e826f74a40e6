"""The cost model: per-layer latency and energy on a sub-accelerator.

Latency follows a roofline over three resources (Sec. IV-B): the PE array
(compute steps from the mapping), the sub-accelerator's share of the global
NoC (tile traffic from/to the global buffer), and the chip's DRAM interface
(off-chip traffic).  Energy is the access-count-weighted sum over the energy
table — MAC, register file, local-buffer fills, global-NoC tile movement,
global SRAM, and DRAM — exactly the MAESTRO activity-count methodology.

The :class:`CostModel` facade caches per-(layer shape, dataflow, hardware)
results, which is what makes Herald's hardware/schedule co-exploration
tractable: a design-space sweep re-evaluates the same layers thousands of
times.  The memo key is :attr:`~repro.models.layer.Layer.shape_key` — every
loop dimension plus ``stride``/``upscale``/operator type, but no identity
fields — so the repeated blocks inside one model, the batch copies of one
instance, and equal shapes across different models all share a single entry;
:meth:`CostModel.prewarm` exploits this by deduping a whole layer list before
estimating anything, and :meth:`CostModel.layer_costs` serves a list of
distinct shapes on one configuration with the hardware key computed once.

A cold entry is cheap because of three more choices.  Each model keeps one
*activity record* per (shape, dataflow, ``min(PEs, saturation)``, buffer,
reconfigurable): the compute steps, NoC/DRAM bytes, overhead cycles and
energy terms, none of which the bandwidth split or the clock touches, so
every split of one array shares it and costs two divisions.  Past its
saturation (:func:`~repro.dataflow.mapping.saturating_pes`) a layer cannot
use more PEs, so every larger array shares the record too and only the
utilisation, computed per entry, sees the idle PEs.  One batch estimator,
:meth:`CostModel._estimate`, builds every cost, reading the configuration's
constants once per batch.  And :class:`LayerCost` is a tuple record whose
roll-ups (latency, energy, seconds, EDP) are fields computed once when it
is built.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.exceptions import HardwareConfigError
from repro.units import cycles_to_seconds, picojoules_to_millijoules
from repro.dataflow.mapping import Mapping, build_mapping, saturating_pes
from repro.dataflow.styles import ALL_STYLES, DataflowStyle
from repro.maestro.energy import DEFAULT_ENERGY_TABLE, EnergyTable
from repro.maestro.hardware import SubAcceleratorConfig
from repro.maestro.reuse import ReuseAnalysis, analyse_reuse
from repro.models.layer import Layer

#: Fixed pipeline fill / drain and control overhead charged to every layer, in
#: cycles.  It keeps tiny layers from reporting zero latency and models the
#: per-layer control handshaking of the execution model in Sec. IV-A.
LAYER_OVERHEAD_CYCLES = 256

#: Extra cycles an RDA spends reconfiguring its distribution network before a
#: layer (Sec. I cites per-layer reconfiguration as one of the RDA costs).
RDA_RECONFIGURATION_CYCLES = 2048

#: Energy overhead factor applied to interconnect-related energy on RDAs,
#: modelling the switches and wires of the reconfigurable fabric.
RDA_INTERCONNECT_OVERHEAD = 1.6


class _LayerCostFields(NamedTuple):
    """Field layout of :class:`LayerCost`: its 16 inputs, then its roll-ups."""

    layer: Layer
    dataflow_name: str
    num_pes: int
    compute_cycles: float
    noc_cycles: float
    dram_cycles: float
    overhead_cycles: float
    energy_compute_pj: float
    energy_rf_pj: float
    energy_local_pj: float
    energy_noc_pj: float
    energy_sram_pj: float
    energy_dram_pj: float
    energy_overhead_pj: float
    utilisation: float
    clock_hz: float
    #: Roofline latency: the binding resource plus fixed overhead.
    latency_cycles: float
    #: Total energy in picojoules.
    energy_pj: float
    #: Latency in seconds.
    latency_s: float
    #: Energy-delay product in joule-seconds.
    edp: float


class LayerCost(_LayerCostFields):
    """Latency and energy of one layer on one sub-accelerator.

    All latencies are in cycles and seconds; energies are in picojoules with a
    millijoule convenience accessor matching the units the paper plots.

    An immutable tuple record built from its 16 input fields; the four
    roll-ups (``latency_cycles``, ``energy_pj``, ``latency_s``, ``edp``) are
    computed once here and stored as fields, because the scheduler reads
    them far more often than costs are built.  A cost equals only an equal
    ``LayerCost`` (never a plain tuple) and is not orderable.
    """

    __slots__ = ()

    def __new__(cls, layer: Layer, dataflow_name: str, num_pes: int,
                compute_cycles: float, noc_cycles: float, dram_cycles: float,
                overhead_cycles: float, energy_compute_pj: float,
                energy_rf_pj: float, energy_local_pj: float,
                energy_noc_pj: float, energy_sram_pj: float,
                energy_dram_pj: float, energy_overhead_pj: float,
                utilisation: float, clock_hz: float) -> "LayerCost":
        latency_cycles = (max(compute_cycles, noc_cycles, dram_cycles)
                          + overhead_cycles)
        energy_pj = (energy_compute_pj + energy_rf_pj + energy_local_pj
                     + energy_noc_pj + energy_sram_pj + energy_dram_pj
                     + energy_overhead_pj)
        latency_s = cycles_to_seconds(latency_cycles, clock_hz)
        return tuple.__new__(cls, (
            layer, dataflow_name, num_pes, compute_cycles, noc_cycles,
            dram_cycles, overhead_cycles, energy_compute_pj, energy_rf_pj,
            energy_local_pj, energy_noc_pj, energy_sram_pj, energy_dram_pj,
            energy_overhead_pj, utilisation, clock_hz, latency_cycles,
            energy_pj, latency_s, (energy_pj * 1e-12) * latency_s))

    def __getnewargs__(self) -> Tuple:
        return self[:16]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LayerCost) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def _unorderable(self, other: object) -> bool:
        raise TypeError("LayerCost instances are not orderable")

    __lt__ = __le__ = __gt__ = __ge__ = _unorderable

    @property
    def bound_by(self) -> str:
        """Which resource the layer is bound by: compute, NoC, or DRAM."""
        bounds = {
            "compute": self.compute_cycles,
            "noc": self.noc_cycles,
            "dram": self.dram_cycles,
        }
        return max(bounds, key=bounds.get)

    @property
    def energy_mj(self) -> float:
        """Total energy in millijoules (the unit used in the paper's figures)."""
        return picojoules_to_millijoules(self.energy_pj)

    def energy_breakdown(self) -> Dict[str, float]:
        """Per-component energy in picojoules."""
        return {
            "compute": self.energy_compute_pj,
            "rf": self.energy_rf_pj,
            "local": self.energy_local_pj,
            "noc": self.energy_noc_pj,
            "sram": self.energy_sram_pj,
            "dram": self.energy_dram_pj,
            "overhead": self.energy_overhead_pj,
        }

    def describe(self) -> str:
        """One-line description used by reports."""
        return (
            f"{self.layer.name} on {self.dataflow_name} ({self.num_pes} PEs): "
            f"{self.latency_s * 1e3:.3f} ms, {self.energy_mj:.3f} mJ, "
            f"util {self.utilisation:.1%}, bound by {self.bound_by}"
        )


def _activity(layer: Layer, style: DataflowStyle, num_pes: int,
              buffer_bytes: int, energy_table: EnergyTable,
              reconfigurable: bool) -> Tuple:
    """The activity record of one layer shape on one array: every part of
    its cost that the NoC/DRAM bandwidth split, the clock and the idle PEs
    past :func:`~repro.dataflow.mapping.saturating_pes` do not touch.

    ``(compute cycles, NoC bytes, DRAM bytes, overhead cycles, then the
    compute, rf, local, noc, sram, dram and overhead energies)`` — the
    fields :meth:`CostModel._estimate` turns into a :class:`LayerCost`.
    """
    mapping: Mapping = build_mapping(layer, style, num_pes)
    reuse: ReuseAnalysis = analyse_reuse(mapping, buffer_bytes)

    overhead_cycles = float(LAYER_OVERHEAD_CYCLES)
    table = energy_table
    energy_overhead = 0.0
    if reconfigurable:
        table = energy_table.with_interconnect_overhead(RDA_INTERCONNECT_OVERHEAD)
        overhead_cycles += RDA_RECONFIGURATION_CYCLES
        energy_overhead = (energy_table.reconfiguration
                           + layer.macs * energy_table.rda_distribution_per_mac)

    return (
        float(mapping.compute_steps),
        reuse.noc_tile_bytes,
        reuse.dram_bytes,
        overhead_cycles,
        layer.macs * table.mac,
        reuse.rf_accesses * table.rf_access,
        reuse.local_fills * table.local_buffer_access,
        reuse.noc_tile_elements * table.noc_hop,
        reuse.noc_tile_elements * table.sram_access,
        reuse.dram_accesses * table.dram_access,
        energy_overhead,
    )


class CostModel:
    """Facade over the analytical model with memoisation.

    Parameters
    ----------
    energy_table:
        Per-access energy table; defaults to :data:`DEFAULT_ENERGY_TABLE`.
    rda_styles:
        Dataflow styles a reconfigurable accelerator may choose from when a
        sub-accelerator is marked reconfigurable (``dataflow is None``).
    """

    def __init__(self, energy_table: EnergyTable = DEFAULT_ENERGY_TABLE,
                 rda_styles: Sequence[DataflowStyle] = ALL_STYLES) -> None:
        self.energy_table = energy_table
        self.rda_styles: Tuple[DataflowStyle, ...] = tuple(rda_styles)
        self._cache: Dict[Tuple, LayerCost] = {}
        #: Activity records (:func:`_activity`) per ``(shape_key, style,
        #: min(PEs, saturation), buffer, reconfigurable)``, shared by every
        #: bandwidth split and clock of one array and by every array larger
        #: than the saturation.  The one memo of a mapping: each record is
        #: built from one ``build_mapping`` call, which keeps no memo.
        self._activities: Dict[Tuple, Tuple] = {}
        #: :func:`saturating_pes` per ``(shape_key, style)``.
        self._saturations: Dict[Tuple, int] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def layer_cost(self, layer: Layer, sub_accelerator: SubAcceleratorConfig) -> LayerCost:
        """Latency/energy of ``layer`` on ``sub_accelerator``.

        For a reconfigurable sub-accelerator the best dataflow (lowest EDP) is
        chosen per layer and the RDA reconfiguration overheads are charged.

        Results are memoised per ``(shape_key, hardware)`` — identity fields
        (``name``, ``model_name``) do not participate, so identically-shaped
        layers across blocks, batches, and models share one entry.  The
        returned :class:`LayerCost` consequently embeds the *first* layer seen
        with that shape as its representative; every numeric field is a pure
        function of the shape.
        """
        return self.layer_costs((layer,), sub_accelerator)[0]

    def layer_cost_with_style(self, layer: Layer, style: DataflowStyle,
                              sub_accelerator: SubAcceleratorConfig) -> LayerCost:
        """Cost of ``layer`` on ``sub_accelerator`` forced to use ``style``."""
        if style is None:
            raise HardwareConfigError(
                f"sub-accelerator {sub_accelerator.name!r} has no dataflow and "
                "no style was supplied")
        return self._estimate((layer,), sub_accelerator, (style,),
                              sub_accelerator.is_reconfigurable)[0]

    def best_style(self, layer: Layer, sub_accelerator: SubAcceleratorConfig,
                   metric: str = "edp") -> Tuple[DataflowStyle, LayerCost]:
        """The preferred dataflow style for ``layer`` on the given array size."""
        scored = [(style, self._estimate((layer,), sub_accelerator, (style,),
                                         False)[0])
                  for style in self.rda_styles]
        return min(scored, key=lambda pair: metric_value(pair[1], metric))

    def layer_costs(self, layers: Iterable[Layer],
                    sub_accelerator: SubAcceleratorConfig) -> List[LayerCost]:
        """:meth:`layer_cost` of each of ``layers`` on one configuration.

        The hardware key is computed once and the missing shapes are
        estimated in one :meth:`_estimate` batch.  Counters equal those of
        per-layer calls.
        """
        hw_key = self.hardware_key(sub_accelerator)
        cache = self._cache
        keys = []
        missing: Dict[Tuple, Layer] = {}
        for layer in layers:
            key = (layer.shape_key,) + hw_key
            keys.append(key)
            if key not in cache and key not in missing:
                missing[key] = layer
        if missing:
            reconfigurable = sub_accelerator.is_reconfigurable
            styles = (self.rda_styles if reconfigurable
                      else (sub_accelerator.dataflow,))
            cache.update(zip(missing, self._estimate(
                missing.values(), sub_accelerator, styles, reconfigurable)))
        self.misses += len(missing)
        self.hits += len(keys) - len(missing)
        return [cache[key] for key in keys]

    def prewarm(self, layers: Sequence[Layer],
                sub_accelerators: Sequence[SubAcceleratorConfig]) -> int:
        """Populate the memo for ``layers`` x ``sub_accelerators`` up front.

        Layers are deduped by shape before anything is estimated, so a
        53-layer MobileNetV2 with repeated inverted-residual blocks pays for
        its ~20 unique shapes only.  Sub-accelerators are deduped by
        :meth:`hardware_key`, never by *name*: candidate configurations that
        reuse a name (partition candidates all call their RDA ``"hda-0"``)
        are each estimated, and the many candidates that re-create one array
        are estimated once.  Warm pairs count as hits, exactly as the
        per-pair :meth:`layer_cost` calls would.  Returns the number of
        entries actually computed (the cold-evaluation count callers credit
        to their backend totals).
        """
        unique: Dict[Tuple, Layer] = {}
        for layer in layers:
            unique.setdefault(layer.shape_key, layer)
        distinct: Dict[Tuple, SubAcceleratorConfig] = {}
        for acc in sub_accelerators:
            distinct.setdefault(self.hardware_key(acc), acc)
        misses = self.misses
        for acc in distinct.values():
            self.layer_costs(unique.values(), acc)
        return self.misses - misses

    def cache_size(self) -> int:
        """Number of memoised (layer, hardware) cost entries."""
        return len(self._cache)

    def cache_items(self) -> List[Tuple[Tuple, LayerCost]]:
        """All memoised entries as ``(key, cost)`` pairs (the snapshot a
        shared-table process pool ships to its workers)."""
        return list(self._cache.items())

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss counters and current entry count of the memo."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._cache)}

    def __getstate__(self) -> Dict[str, object]:
        # The activity records only speed up cold estimates; a worker
        # rebuilds any it needs instead of receiving them.
        state = dict(self.__dict__)
        state["_activities"] = {}
        state["_saturations"] = {}
        return state

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _estimate(self, layers: Iterable[Layer],
                  sub_accelerator: SubAcceleratorConfig,
                  styles: Sequence[DataflowStyle],
                  reconfigurable: bool) -> List[LayerCost]:
        """The cost estimator: each of ``layers`` on ``sub_accelerator``
        under the first of ``styles`` with the lowest EDP (one style for a
        fixed array, :attr:`rda_styles` for an RDA's per-layer choice).

        The configuration's constants are read once.  A (shape, style) pair
        reads the activity record mapped on ``min(PEs, saturation)`` PEs;
        its cost is then two roofline divisions, the utilisation of the
        real array, and the :class:`LayerCost` roll-ups.
        """
        num_pes = sub_accelerator.num_pes
        buffer_bytes = sub_accelerator.buffer_bytes
        noc_bytes_per_cycle = sub_accelerator.bandwidth_bytes_per_cycle
        dram_bytes_per_cycle = sub_accelerator.dram_bandwidth_bytes_per_cycle
        clock_hz = sub_accelerator.clock_hz
        activities = self._activities
        saturations = self._saturations
        costs = []
        for layer in layers:
            shape_key = layer.shape_key
            best = None
            for style in styles:
                saturation = saturations.get((shape_key, style))
                if saturation is None:
                    saturation = saturations[shape_key, style] = \
                        saturating_pes(layer, style)
                budget = min(num_pes, saturation)
                key = (shape_key, style, budget, buffer_bytes, reconfigurable)
                activity = activities.get(key)
                if activity is None:
                    activity = activities[key] = _activity(
                        layer, style, budget, buffer_bytes, self.energy_table,
                        reconfigurable)
                (compute_cycles, noc_bytes, dram_bytes, overhead_cycles,
                 energy_compute, energy_rf, energy_local, energy_noc,
                 energy_sram, energy_dram, energy_overhead) = activity
                # Mapping.utilisation on the real array: float(steps) and
                # the PE count are exact, so one rounding, as for the ints.
                cost = LayerCost(
                    layer, style.name, num_pes, compute_cycles,
                    noc_bytes / noc_bytes_per_cycle,
                    dram_bytes / dram_bytes_per_cycle,
                    overhead_cycles, energy_compute, energy_rf, energy_local,
                    energy_noc, energy_sram, energy_dram, energy_overhead,
                    layer.macs / (compute_cycles * num_pes), clock_hz)
                if best is None or cost.edp < best.edp:
                    best = cost
            costs.append(best)
        return costs

    def hardware_key(self, sub_accelerator: SubAcceleratorConfig) -> Tuple:
        """The cost-relevant identity of a sub-accelerator configuration.

        Two configurations with equal ``hardware_key`` produce identical costs
        for every layer; the sub-accelerator *name* deliberately does not
        participate, so partition candidates that re-create the same array
        under a different label share memo entries.  The effective DRAM
        bandwidth is part of the key (the historical full-``Layer`` key omitted
        it, silently aliasing configurations that differed only off-chip).
        """
        dataflow_name = sub_accelerator.dataflow.name if sub_accelerator.dataflow else None
        dram_bytes_per_s = sub_accelerator.dram_bandwidth_bytes_per_s
        if dram_bytes_per_s is None:
            dram_bytes_per_s = sub_accelerator.bandwidth_bytes_per_s
        return (
            dataflow_name,
            sub_accelerator.num_pes,
            round(sub_accelerator.bandwidth_bytes_per_s),
            round(dram_bytes_per_s),
            sub_accelerator.buffer_bytes,
            sub_accelerator.clock_hz,
        )


def metric_value(cost: LayerCost, metric: str) -> float:
    """Extract an optimisation metric from a :class:`LayerCost`.

    Supported metrics mirror the user-selectable objectives in Herald:
    ``"edp"``, ``"latency"``, ``"energy"``.
    """
    if metric == "edp":
        return cost.edp
    if metric == "latency":
        return cost.latency_s
    if metric == "energy":
        return cost.energy_pj
    raise ValueError(f"unknown metric {metric!r}; expected 'edp', 'latency', or 'energy'")
