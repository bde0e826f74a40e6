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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import HardwareConfigError
from repro.units import cycles_to_seconds, picojoules_to_millijoules
from repro.dataflow.mapping import Mapping, build_mapping
from repro.dataflow.styles import ALL_STYLES, DataflowStyle
from repro.maestro.energy import DEFAULT_ENERGY_TABLE, EnergyTable
from repro.maestro.hardware import SubAcceleratorConfig
from repro.maestro.reuse import ReuseAnalysis, analyse_layer_reuse
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


@dataclass(frozen=True)
class LayerCost:
    """Latency and energy of one layer on one sub-accelerator.

    All latencies are in cycles and seconds; energies are in picojoules with a
    millijoule convenience accessor matching the units the paper plots.
    """

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

    def __post_init__(self) -> None:
        # The scheduler reads latency/energy once per scheduling decision —
        # orders of magnitude more often than costs are built — so the two
        # roll-ups are precomputed (the dataclass is frozen, hence the
        # explicit object.__setattr__, mirroring the generated __init__).
        object.__setattr__(
            self, "_latency_cycles",
            max(self.compute_cycles, self.noc_cycles, self.dram_cycles)
            + self.overhead_cycles)
        object.__setattr__(
            self, "_energy_pj",
            self.energy_compute_pj + self.energy_rf_pj + self.energy_local_pj
            + self.energy_noc_pj + self.energy_sram_pj + self.energy_dram_pj
            + self.energy_overhead_pj)
        # Derived scalars read by every ranking/accounting pass; the
        # expressions are the ones the properties used to evaluate per access,
        # so the cached values are bitwise identical.
        object.__setattr__(
            self, "_latency_s",
            cycles_to_seconds(self._latency_cycles, self.clock_hz))
        object.__setattr__(
            self, "_edp", (self._energy_pj * 1e-12) * self._latency_s)

    # ------------------------------------------------------------------
    # Latency
    # ------------------------------------------------------------------
    @property
    def latency_cycles(self) -> float:
        """Roofline latency: the binding resource plus fixed overhead."""
        return self._latency_cycles

    @property
    def latency_s(self) -> float:
        """Latency in seconds."""
        return self._latency_s

    @property
    def bound_by(self) -> str:
        """Which resource the layer is bound by: compute, NoC, or DRAM."""
        bounds = {
            "compute": self.compute_cycles,
            "noc": self.noc_cycles,
            "dram": self.dram_cycles,
        }
        return max(bounds, key=bounds.get)

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------
    @property
    def energy_pj(self) -> float:
        """Total energy in picojoules."""
        return self._energy_pj

    @property
    def energy_mj(self) -> float:
        """Total energy in millijoules (the unit used in the paper's figures)."""
        return picojoules_to_millijoules(self.energy_pj)

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds."""
        return self._edp

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


def _estimate(layer: Layer, style: DataflowStyle, num_pes: int,
              bandwidth_bytes_per_cycle: float, dram_bytes_per_cycle: float,
              buffer_bytes: int, clock_hz: float, energy_table: EnergyTable,
              reconfigurable: bool) -> LayerCost:
    """Estimate one layer on one concrete array configuration."""
    mapping: Mapping = build_mapping(layer, style, num_pes)
    reuse: ReuseAnalysis = analyse_layer_reuse(layer, style, num_pes, buffer_bytes)

    compute_cycles = float(mapping.compute_steps)
    noc_cycles = reuse.noc_tile_bytes / bandwidth_bytes_per_cycle
    dram_cycles = reuse.dram_bytes / dram_bytes_per_cycle
    overhead_cycles = float(LAYER_OVERHEAD_CYCLES)

    table = energy_table
    energy_overhead = 0.0
    if reconfigurable:
        table = energy_table.with_interconnect_overhead(RDA_INTERCONNECT_OVERHEAD)
        overhead_cycles += RDA_RECONFIGURATION_CYCLES
        energy_overhead = (energy_table.reconfiguration
                           + layer.macs * energy_table.rda_distribution_per_mac)

    energy_compute = layer.macs * table.mac
    energy_rf = reuse.rf_accesses * table.rf_access
    energy_local = reuse.local_fills * table.local_buffer_access
    energy_noc = reuse.noc_tile_elements * table.noc_hop
    energy_sram = reuse.noc_tile_elements * table.sram_access
    energy_dram = reuse.dram_accesses * table.dram_access

    return LayerCost(
        layer=layer,
        dataflow_name=style.name,
        num_pes=num_pes,
        compute_cycles=compute_cycles,
        noc_cycles=noc_cycles,
        dram_cycles=dram_cycles,
        overhead_cycles=overhead_cycles,
        energy_compute_pj=energy_compute,
        energy_rf_pj=energy_rf,
        energy_local_pj=energy_local,
        energy_noc_pj=energy_noc,
        energy_sram_pj=energy_sram,
        energy_dram_pj=energy_dram,
        energy_overhead_pj=energy_overhead,
        utilisation=mapping.utilisation,
        clock_hz=clock_hz,
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
        self.hits = 0
        self.misses = 0
        #: Optional ``(key, cost)`` callback fired when a *computed* entry is
        #: memoised (not on :meth:`install_cached` warm starts).  The
        #: persistent cache uses it for its append-only journal.  Never
        #: pickled: a hook bound to a parent-process journal must not follow
        #: the model into pool workers (see :meth:`__getstate__`).
        self.new_entry_hook: Optional[Callable[[Tuple, LayerCost], None]] = None

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
        key = self._key(layer, sub_accelerator)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        return self._install_computed(key, layer, sub_accelerator)

    def _compute_cost(self, layer: Layer,
                      sub_accelerator: SubAcceleratorConfig) -> LayerCost:
        """Scalar estimation of one (layer, sub-accelerator) pair."""
        if sub_accelerator.is_reconfigurable:
            return min(
                (
                    self._estimate_on(layer, style, sub_accelerator, reconfigurable=True)
                    for style in self.rda_styles
                ),
                key=lambda c: c.edp,
            )
        return self._estimate_on(layer, sub_accelerator.dataflow, sub_accelerator,
                                 reconfigurable=False)

    def layer_cost_with_style(self, layer: Layer, style: DataflowStyle,
                              sub_accelerator: SubAcceleratorConfig) -> LayerCost:
        """Cost of ``layer`` on ``sub_accelerator`` forced to use ``style``."""
        return self._estimate_on(layer, style, sub_accelerator,
                                 reconfigurable=sub_accelerator.is_reconfigurable)

    def best_style(self, layer: Layer, sub_accelerator: SubAcceleratorConfig,
                   metric: str = "edp") -> Tuple[DataflowStyle, LayerCost]:
        """The preferred dataflow style for ``layer`` on the given array size."""
        scored = []
        for style in self.rda_styles:
            cost = self._estimate_on(layer, style, sub_accelerator, reconfigurable=False)
            scored.append((style, cost))
        return min(scored, key=lambda pair: metric_value(pair[1], metric))

    def layer_costs(self, layers: Iterable[Layer],
                    sub_accelerator: SubAcceleratorConfig) -> List[LayerCost]:
        """:meth:`layer_cost` of each of ``layers`` on one configuration.

        The batch form for per-configuration cost columns: the hardware key
        is computed once, not per layer.  Counters and ``new_entry_hook``
        firings are exactly those of the per-layer calls, in order.
        """
        hw_key = self.hardware_key(sub_accelerator)
        cache = self._cache
        costs = []
        for layer in layers:
            key = (layer.shape_key,) + hw_key
            cost = cache.get(key)
            if cost is None:
                cost = self._install_computed(key, layer, sub_accelerator)
            else:
                self.hits += 1
            costs.append(cost)
        return costs

    def prewarm(self, layers: Sequence[Layer],
                sub_accelerators: Sequence[SubAcceleratorConfig]) -> int:
        """Populate the memo for ``layers`` x ``sub_accelerators`` up front.

        Layers are deduped by shape before anything is estimated, so a
        53-layer MobileNetV2 with repeated inverted-residual blocks pays for
        its ~20 unique shapes only.  Nothing is keyed by sub-accelerator
        *name*: candidate configurations that reuse a name (partition
        candidates all call their RDA ``"hda-0"``) are each estimated, and two
        configurations sharing a :meth:`hardware_key` share entries.  Warm
        pairs count as hits, exactly as the historical per-pair
        :meth:`layer_cost` prewarm loop did.  Returns the number of entries
        actually computed (the cold-evaluation count callers credit to their
        backend totals).
        """
        unique: Dict[Tuple, Layer] = {}
        for layer in layers:
            unique.setdefault(layer.shape_key, layer)
        misses = self.misses
        for acc in sub_accelerators:
            self.layer_costs(unique.values(), acc)
        return self.misses - misses

    def _install_computed(self, key: Tuple, layer: Layer,
                          sub_accelerator: SubAcceleratorConfig) -> LayerCost:
        """Estimate, count and memoise the cost of one missing ``key``.

        The miss path of :meth:`layer_cost` and :meth:`layer_costs`: one
        counted miss and one ``new_entry_hook`` firing per computed cost.
        """
        self.misses += 1
        cost = self._compute_cost(layer, sub_accelerator)
        self._cache[key] = cost
        if self.new_entry_hook is not None:
            self.new_entry_hook(key, cost)
        return cost

    def cache_size(self) -> int:
        """Number of memoised (layer, hardware) cost entries."""
        return len(self._cache)

    def cache_items(self) -> List[Tuple[Tuple, LayerCost]]:
        """All memoised entries as ``(key, cost)`` pairs (for cache spilling)."""
        return list(self._cache.items())

    def install_cached(self, key: Tuple, cost: LayerCost) -> bool:
        """Pre-populate one memo entry (warm start from a persistent cache).

        Returns ``True`` when the key was not memoised yet.
        """
        new = key not in self._cache
        self._cache[key] = cost
        return new

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss counters and current entry count of the memo."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._cache)}

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (the memo itself is kept)."""
        self.hits = 0
        self.misses = 0

    def __getstate__(self) -> Dict[str, object]:
        # The new-entry hook is parent-process state (it appends to the
        # persistent cache's journal file); shipping it into pool workers
        # would journal every entry twice from processes that share the file.
        state = dict(self.__dict__)
        state["new_entry_hook"] = None
        return state

    def clear_cache(self) -> None:
        """Drop all memoised results."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _estimate_on(self, layer: Layer, style: Optional[DataflowStyle],
                     sub_accelerator: SubAcceleratorConfig,
                     reconfigurable: bool) -> LayerCost:
        if style is None:
            raise HardwareConfigError(
                f"sub-accelerator {sub_accelerator.name!r} has no dataflow and no "
                "style was supplied"
            )
        return _estimate(
            layer=layer,
            style=style,
            num_pes=sub_accelerator.num_pes,
            bandwidth_bytes_per_cycle=sub_accelerator.bandwidth_bytes_per_cycle,
            dram_bytes_per_cycle=sub_accelerator.dram_bandwidth_bytes_per_cycle,
            buffer_bytes=sub_accelerator.buffer_bytes,
            clock_hz=sub_accelerator.clock_hz,
            energy_table=self.energy_table,
            reconfigurable=reconfigurable,
        )

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

    def _key(self, layer: Layer, sub_accelerator: SubAcceleratorConfig) -> Tuple:
        return (layer.shape_key,) + self.hardware_key(sub_accelerator)


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
