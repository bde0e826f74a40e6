"""Layer-execution schedules: data structures and accounting.

A schedule is the output of Herald's scheduler (Fig. 7): for every layer of
every model instance in the workload, which sub-accelerator runs it and when.
The class provides the accounting the evaluation needs (makespan, energy,
per-sub-accelerator utilisation, idle energy).  The scheduler meets the two
hard constraints of Sec. III-A — layer dependence and no overlapping
execution on one sub-accelerator — by construction; the independent check
of them lives with the test suite, which runs it on every schedule the
suite builds.

A :class:`Schedule` is built once and is then immutable.  It stores one slot
per layer execution as parallel arrays (layer, instance, layer index,
sub-accelerator index, start, finish, cost) plus the order in which the slots
were committed, and it carries the totals every ranking reads — makespan,
dynamic energy and per-sub-accelerator busy cycles — accumulated in commit
order by whoever filled the arrays.  :attr:`Schedule.entries` is a read-only
view that builds :class:`ScheduledLayer` records only when it is iterated or
indexed, so a design-space sweep ranking thousands of candidates never
materialises one.
"""

from __future__ import annotations

import math
import pickle
from collections.abc import Sequence as SequenceABC
from typing import (Dict, FrozenSet, Iterator, Mapping, Optional, Sequence,
                    Tuple)

from repro.exceptions import SchedulingError
from repro.maestro.cost import LayerCost
from repro.models.layer import Layer
from repro.units import cycles_to_seconds, picojoules_to_millijoules

#: Finite stand-in for an infinite load imbalance (one sub-accelerator never
#: used) in :meth:`Schedule.summary`.  ``float("inf")`` is not representable in
#: strict JSON, so report/benchmark dumps serialize this sentinel instead; any
#: real imbalance is >= 1.0, so the sentinel is unambiguous.
LOAD_IMBALANCE_UNUSED_SENTINEL = -1.0


class ScheduledLayer:
    """One layer execution placed on one sub-accelerator.

    A ``__slots__`` value class: schedules store their executions as arrays
    and build these records on demand (see :attr:`Schedule.entries`).
    Instances compare by value and are immutable by convention.

    Attributes
    ----------
    layer:
        The layer being executed.
    instance_id:
        Model instance (batch) the layer belongs to, e.g. ``"unet#2"``.
    layer_index:
        Position of the layer within its instance's dependence order.
    sub_accelerator:
        Name of the sub-accelerator executing the layer.
    start_cycle / finish_cycle:
        Execution window in clock cycles.
    cost:
        The cost-model estimate used for this execution.
    """

    __slots__ = ("layer", "instance_id", "layer_index", "sub_accelerator",
                 "start_cycle", "finish_cycle", "cost")

    def __init__(self, layer: Layer, instance_id: str, layer_index: int,
                 sub_accelerator: str, start_cycle: float, finish_cycle: float,
                 cost: LayerCost) -> None:
        self.layer = layer
        self.instance_id = instance_id
        self.layer_index = layer_index
        self.sub_accelerator = sub_accelerator
        self.start_cycle = start_cycle
        self.finish_cycle = finish_cycle
        self.cost = cost

    def _astuple(self) -> Tuple:
        return (self.layer, self.instance_id, self.layer_index,
                self.sub_accelerator, self.start_cycle, self.finish_cycle,
                self.cost)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduledLayer):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (f"ScheduledLayer(layer={self.layer!r}, "
                f"instance_id={self.instance_id!r}, "
                f"layer_index={self.layer_index!r}, "
                f"sub_accelerator={self.sub_accelerator!r}, "
                f"start_cycle={self.start_cycle!r}, "
                f"finish_cycle={self.finish_cycle!r}, cost={self.cost!r})")

    @property
    def energy_pj(self) -> float:
        """Energy of this execution in picojoules."""
        return self.cost.energy_pj

    def describe(self) -> str:
        """One-line description used in schedule dumps."""
        return (
            f"[{self.start_cycle:>12.0f} .. {self.finish_cycle:>12.0f}] "
            f"{self.sub_accelerator:<28} {self.instance_id}/{self.layer.name}"
        )


class _EntriesView(SequenceABC):
    """Read-only view of a schedule's execution records, in commit order.

    ``len()`` is O(1); a :class:`ScheduledLayer` is built for each element
    only when the view is iterated or indexed.
    """

    __slots__ = ("_schedule",)

    def __init__(self, schedule: "Schedule") -> None:
        self._schedule = schedule

    def __len__(self) -> int:
        return len(self._schedule._commit)

    def __getitem__(self, index):
        schedule = self._schedule
        if isinstance(index, slice):
            return [schedule._entry(slot) for slot in schedule._commit[index]]
        return schedule._entry(schedule._commit[index])

    def __iter__(self) -> Iterator[ScheduledLayer]:
        return map(self._schedule._entry, self._schedule._commit)


class Schedule:
    """A complete layer-execution schedule for one workload on one design.

    Built once, then immutable: assigning to any attribute raises.  Herald's
    scheduler constructs it directly from its slot arrays.

    The arrays are tuples (or a ``range`` for an identity commit order).
    Slot ``i`` is one layer execution: ``layers[i]`` of ``instance_ids[i]``
    (position ``layer_indices[i]`` in that instance's dependence order) runs
    on ``sub_accelerator_names[slot_acc[i]]`` from ``starts[i]`` to
    ``finishes[i]`` at ``costs[i]``.  ``commit_order`` lists the slots in the
    order they were committed; :attr:`entries` follows it.  The constructor
    trusts the totals it is given: ``makespan_cycles`` is the largest finish,
    ``dynamic_energy_pj`` the sum of the slot energies and ``busy_cycles`` (one
    value per sub-accelerator) the sums of ``finish - start``, each summed in
    commit order.

    ``instance_predecessors`` optionally maps an instance id to its per-layer
    predecessor index sets (element ``i`` holds the layer indices layer ``i``
    consumes): the true dependence DAG the schedule honours.
    ``instance_release_cycles`` holds online-serving frame releases
    (instances absent from the map are released at cycle zero).
    ``instance_deadline_cycles`` holds optional absolute per-instance
    deadlines (release + SLA bound), consumed by :meth:`frame_summary`.
    """

    # The pickled state follows this order.  Costs and layers go first: they
    # carry the objects referenced most often, so their pickle memo indices
    # stay small (one-byte back-references).
    __slots__ = ("_costs", "_layers", "_instance_ids", "_layer_indices",
                 "_acc", "_starts", "_finishes", "_commit", "_busy",
                 "makespan_cycles", "dynamic_energy_pj",
                 "sub_accelerator_names", "clock_hz",
                 "idle_energy_pj_per_cycle_per_pe", "pes_per_sub_accelerator",
                 "instance_release_cycles", "instance_deadline_cycles",
                 "instance_predecessors")

    def __init__(self, sub_accelerator_names: Sequence[str],
                 layers: Tuple[Layer, ...], instance_ids: Tuple[str, ...],
                 layer_indices: Tuple[int, ...], slot_acc: Tuple[int, ...],
                 starts: Tuple[float, ...], finishes: Tuple[float, ...],
                 costs: Tuple[LayerCost, ...], commit_order: Sequence[int],
                 makespan_cycles: float, dynamic_energy_pj: float,
                 busy_cycles: Sequence[float], *,
                 clock_hz: float = 1.0e9,
                 idle_energy_pj_per_cycle_per_pe: float = 0.0,
                 pes_per_sub_accelerator: Optional[Mapping[str, int]] = None,
                 instance_predecessors: Optional[
                     Mapping[str, Tuple[FrozenSet[int], ...]]] = None,
                 instance_release_cycles: Optional[Mapping[str, float]] = None,
                 instance_deadline_cycles: Optional[Mapping[str, float]] = None
                 ) -> None:
        names = tuple(sub_accelerator_names)
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise SchedulingError(
                f"sub-accelerator names must be distinct; duplicated: "
                f"{duplicates!r}")
        self.__setstate__((
            costs, layers, instance_ids, layer_indices, slot_acc, starts,
            finishes, commit_order, tuple(busy_cycles), makespan_cycles,
            dynamic_energy_pj, names, clock_hz, idle_energy_pj_per_cycle_per_pe,
            dict(pes_per_sub_accelerator or {}),
            dict(instance_release_cycles or {}),
            dict(instance_deadline_cycles or {}),
            dict(instance_predecessors or {})))

    # ------------------------------------------------------------------
    # Immutability, pickling, equality
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Schedule is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Schedule is immutable; cannot delete {name!r}")

    def __getstate__(self) -> Tuple:
        return tuple(getattr(self, name) for name in Schedule.__slots__)

    def __setstate__(self, state: Tuple) -> None:
        if not isinstance(state, tuple) or len(state) != len(Schedule.__slots__):
            raise pickle.UnpicklingError(
                "incompatible Schedule pickle layout (written by another "
                "version)")
        for name, value in zip(Schedule.__slots__, state):
            object.__setattr__(self, name, value)

    def _metadata(self) -> Tuple:
        return (self.sub_accelerator_names, self.clock_hz,
                self.idle_energy_pj_per_cycle_per_pe,
                self.pes_per_sub_accelerator, self.instance_predecessors,
                self.instance_release_cycles, self.instance_deadline_cycles)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (self._metadata() == other._metadata()
                and list(self.entries) == list(other.entries))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"Schedule({len(self)} layer executions on "
                f"{self.sub_accelerator_names!r}, makespan "
                f"{self.makespan_cycles!r} cycles)")

    # ------------------------------------------------------------------
    # Execution records
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._commit)

    @property
    def entries(self) -> Sequence[ScheduledLayer]:
        """Read-only execution records in commit order, built on access."""
        return _EntriesView(self)

    def _entry(self, slot: int) -> ScheduledLayer:
        return ScheduledLayer(
            self._layers[slot], self._instance_ids[slot],
            self._layer_indices[slot],
            self.sub_accelerator_names[self._acc[slot]], self._starts[slot],
            self._finishes[slot], self._costs[slot])

    # ------------------------------------------------------------------
    # Accounting (O(sub-accelerators) off the cached totals)
    # ------------------------------------------------------------------
    @property
    def makespan_seconds(self) -> float:
        """Completion time of the last layer, in seconds (the paper's latency)."""
        return cycles_to_seconds(self.makespan_cycles, self.clock_hz)

    @property
    def idle_energy_pj(self) -> float:
        """Static energy of idle PEs across the whole makespan (dark silicon)."""
        leakage = self.idle_energy_pj_per_cycle_per_pe
        if leakage <= 0.0 or not self._commit:
            return 0.0
        total = 0.0
        makespan = self.makespan_cycles
        pes = self.pes_per_sub_accelerator
        for name, busy in zip(self.sub_accelerator_names, self._busy):
            idle = max(0.0, makespan - busy)
            total += idle * pes.get(name, 0) * leakage
        return total

    @property
    def total_energy_pj(self) -> float:
        """Dynamic plus idle energy in picojoules."""
        return self.dynamic_energy_pj + self.idle_energy_pj

    @property
    def total_energy_mj(self) -> float:
        """Total energy in millijoules (the unit used in the paper's figures)."""
        return picojoules_to_millijoules(self.total_energy_pj)

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds."""
        return (self.total_energy_pj * 1e-12) * self.makespan_seconds

    def busy_cycles(self, sub_accelerator: str) -> float:
        """Total cycles the sub-accelerator spends executing layers."""
        if sub_accelerator not in self.sub_accelerator_names:
            return 0.0
        return self._busy[self.sub_accelerator_names.index(sub_accelerator)]

    def utilisation(self, sub_accelerator: str) -> float:
        """Busy fraction of one sub-accelerator over the makespan."""
        makespan = self.makespan_cycles
        if makespan <= 0:
            return 0.0
        return self.busy_cycles(sub_accelerator) / makespan

    def load_imbalance(self) -> float:
        """Largest per-sub-accelerator busy time divided by the smallest.

        This is the load-unbalancing factor Herald's load-balancing feedback
        bounds (Sec. IV-D).  Delegates to
        :func:`repro.analysis.metrics.imbalance`, the shared definition the
        fleet report also aggregates per-chip busy times with.
        """
        # Imported lazily for the same reason as in :meth:`frame_summary`.
        from repro.analysis.metrics import imbalance

        return imbalance(self._busy)

    def load_imbalance_finite(self) -> float:
        """:meth:`load_imbalance`, with infinity mapped to the finite sentinel.

        Report/benchmark dumps use this so their dictionaries stay strict-JSON
        serializable (``json.dumps(..., allow_nan=False)``).
        """
        imbalance = self.load_imbalance() if self._commit else 1.0
        if math.isinf(imbalance):
            return LOAD_IMBALANCE_UNUSED_SENTINEL
        return imbalance

    def layer_counts(self) -> Dict[str, int]:
        """Number of layers executed per sub-accelerator."""
        counts = [0] * len(self.sub_accelerator_names)
        acc = self._acc
        for slot in self._commit:
            counts[acc[slot]] += 1
        return dict(zip(self.sub_accelerator_names, counts))

    # ------------------------------------------------------------------
    # Per-frame (serving) accounting
    # ------------------------------------------------------------------
    def frame_records(self) -> Dict[str, Dict[str, float]]:
        """Per-instance frame accounting: release, finish, and latency cycles.

        One record per scheduled instance, in order of first commit.  The
        release is the instance's :attr:`instance_release_cycles` entry (zero
        when absent — the batch case), the finish is its last layer's finish
        cycle, and the latency is their difference: the time a frame spends
        in the system, the quantity serving SLAs are written against.
        """
        finishes: Dict[str, float] = {}
        instance_ids = self._instance_ids
        finish_of = self._finishes
        for slot in self._commit:
            instance_id = instance_ids[slot]
            finish = finish_of[slot]
            previous = finishes.get(instance_id)
            if previous is None or finish > previous:
                finishes[instance_id] = finish
        releases = self.instance_release_cycles
        return {
            instance_id: {
                "release_cycle": releases.get(instance_id, 0.0),
                "finish_cycle": finish,
                "latency_cycles": finish - releases.get(instance_id, 0.0),
            }
            for instance_id, finish in finishes.items()
        }

    def frame_latencies_s(self) -> Dict[str, float]:
        """Per-instance frame latency in seconds, keyed by instance id."""
        return {
            instance_id: record["latency_cycles"] / self.clock_hz
            for instance_id, record in self.frame_records().items()
        }

    def frame_summary(self) -> Dict[str, float]:
        """Aggregate frame-latency statistics (p50/p95/p99, deadline misses).

        Percentiles cover every scheduled instance's frame latency; the
        deadline statistics count instances with an
        :attr:`instance_deadline_cycles` entry whose last layer finishes after
        it (instances without a deadline cannot miss).  An empty schedule
        reports zeros.  All values are finite and strict-JSON serializable.
        """
        # Imported lazily: repro.analysis pulls in the sweeps module, which
        # imports repro.core back — a cycle at module-import time only.
        from repro.analysis.metrics import deadline_miss_rate, percentile

        records = self.frame_records()
        if not records:
            return {
                "frames": 0.0,
                "p50_latency_s": 0.0,
                "p95_latency_s": 0.0,
                "p99_latency_s": 0.0,
                "max_latency_s": 0.0,
                "deadline_miss_rate": 0.0,
                "missed_frames": 0.0,
            }
        latencies = [record["latency_cycles"] / self.clock_hz
                     for record in records.values()]
        deadlines = self.instance_deadline_cycles
        with_deadline = [instance_id for instance_id in records
                         if instance_id in deadlines]
        # ``deadline_miss_rate`` is the single definition of a miss (strict
        # >); the count is derived from it so rate and count cannot drift.
        # rate * n is k/n * n for integer k, so round() is exact.
        miss_rate = deadline_miss_rate(
            [records[instance_id]["finish_cycle"] for instance_id in with_deadline],
            [deadlines[instance_id] for instance_id in with_deadline])
        return {
            "frames": float(len(records)),
            "p50_latency_s": percentile(latencies, 50.0),
            "p95_latency_s": percentile(latencies, 95.0),
            "p99_latency_s": percentile(latencies, 99.0),
            "max_latency_s": max(latencies),
            "deadline_miss_rate": miss_rate,
            "missed_frames": float(round(miss_rate * len(with_deadline))),
        }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Key metrics as a dictionary (used by reports and benchmarks).

        All values are finite: an infinite load imbalance (a sub-accelerator
        that never runs a layer) is reported as
        :data:`LOAD_IMBALANCE_UNUSED_SENTINEL` so the dictionary survives
        strict-JSON serialization (``json.dumps(..., allow_nan=False)``).
        """
        return {
            "latency_s": self.makespan_seconds,
            "energy_mj": self.total_energy_mj,
            "edp_js": self.edp,
            "num_layers": float(len(self._commit)),
            "load_imbalance": self.load_imbalance_finite(),
        }

    def describe(self, max_entries: int = 20) -> str:
        """Human-readable dump of the first ``max_entries`` execution records."""
        lines = [
            f"Schedule: {len(self)} layer executions on "
            f"{len(self.sub_accelerator_names)} sub-accelerator(s)",
            f"  latency {self.makespan_seconds * 1e3:.3f} ms, "
            f"energy {self.total_energy_mj:.2f} mJ, EDP {self.edp:.4g} J*s",
        ]
        counts = self.layer_counts()
        for name in self.sub_accelerator_names:
            lines.append(
                f"  {name}: {counts[name]} layers, "
                f"utilisation {self.utilisation(name):.1%}"
            )
        ordered = sorted(self._commit, key=self._starts.__getitem__)
        for slot in ordered[:max_entries]:
            lines.append("  " + self._entry(slot).describe())
        if len(ordered) > max_entries:
            lines.append(f"  ... {len(ordered) - max_entries} more entries")
        return "\n".join(lines)
