"""Layer-execution schedules: data structures, accounting, and validation.

A schedule is the output of Herald's scheduler (Fig. 7): for every layer of
every model instance in the workload, which sub-accelerator runs it and when.
The class provides the accounting the evaluation needs (makespan, energy,
per-sub-accelerator utilisation, idle time) as well as validation of the two
hard constraints from Sec. III-A — layer dependence and no overlapping
execution on one sub-accelerator.

Dependence validation is DAG-aware: when a schedule carries the true
per-instance predecessor index sets (:attr:`Schedule.instance_predecessors`,
attached by the scheduler), a layer only has to start after its *actual*
producers finish, so independent branches of one model may legally overlap on
different sub-accelerators.  Without that information the historical linear
chain (layer ``i`` waits on layer ``i-1``) is validated as the degenerate
case.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

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

    A ``__slots__`` value class rather than a dataclass: a DSE sweep builds
    one instance per layer execution per candidate design, making
    construction cost part of the scheduling hot path.  Instances compare by
    value and are immutable by convention.

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

    def __getstate__(self) -> Tuple:
        return self._astuple()

    def __setstate__(self, state: Tuple) -> None:
        (self.layer, self.instance_id, self.layer_index, self.sub_accelerator,
         self.start_cycle, self.finish_cycle, self.cost) = state

    @property
    def duration_cycles(self) -> float:
        """Execution duration in cycles."""
        return self.finish_cycle - self.start_cycle

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


@dataclass
class Schedule:
    """A complete layer-execution schedule for one workload on one design.

    ``instance_predecessors`` optionally maps an instance id to its per-layer
    predecessor index sets (element ``i`` holds the layer indices layer ``i``
    consumes).  Instances present in the map are validated against their true
    dependence DAG; instances absent from it fall back to the linear-chain
    check.
    """

    sub_accelerator_names: Tuple[str, ...]
    entries: List[ScheduledLayer] = field(default_factory=list)
    clock_hz: float = 1.0e9
    idle_energy_pj_per_cycle_per_pe: float = 0.0
    pes_per_sub_accelerator: Dict[str, int] = field(default_factory=dict)
    instance_predecessors: Dict[str, Tuple[FrozenSet[int], ...]] = \
        field(default_factory=dict)
    #: Online serving mode: per-instance frame release cycles (instances
    #: absent from the map released at cycle zero).  Attached by the scheduler
    #: when scheduling against an arrival trace; validation then additionally
    #: checks that no layer starts before its instance's release.
    instance_release_cycles: Dict[str, float] = field(default_factory=dict)
    #: Optional absolute per-instance deadline cycles (release + SLA bound),
    #: attached by the serving simulator; consumed by :meth:`frame_summary`.
    instance_deadline_cycles: Dict[str, float] = field(default_factory=dict)
    #: Per-sub-accelerator timeline/busy-time memo; rebuilt whenever the entry
    #: count changes (see :meth:`_sync_caches`).
    _timeline_cache: Dict[str, List[ScheduledLayer]] = \
        field(default_factory=dict, init=False, repr=False, compare=False)
    _busy_cache: Dict[str, float] = \
        field(default_factory=dict, init=False, repr=False, compare=False)
    _cache_entry_count: int = field(default=-1, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, entry: ScheduledLayer) -> None:
        """Append an execution record."""
        if entry.sub_accelerator not in self.sub_accelerator_names:
            raise SchedulingError(
                f"schedule entry references unknown sub-accelerator "
                f"{entry.sub_accelerator!r}"
            )
        if entry.finish_cycle < entry.start_cycle:
            raise SchedulingError(
                f"schedule entry for {entry.layer.name!r} finishes before it starts"
            )
        # Sync first: a direct ``entries`` mutation since the last access must
        # not be masked by the entry-count update below.
        self._sync_caches()
        self.entries.append(entry)
        self._timeline_cache.pop(entry.sub_accelerator, None)
        self._busy_cache.pop(entry.sub_accelerator, None)
        self._cache_entry_count = len(self.entries)

    def extend(self, entries: Iterable[ScheduledLayer]) -> None:
        """Append several execution records."""
        for entry in entries:
            self.add(entry)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    @property
    def makespan_cycles(self) -> float:
        """Completion time of the last layer, in cycles."""
        if not self.entries:
            return 0.0
        return max(entry.finish_cycle for entry in self.entries)

    @property
    def makespan_seconds(self) -> float:
        """Completion time of the last layer, in seconds (the paper's latency)."""
        return cycles_to_seconds(self.makespan_cycles, self.clock_hz)

    @property
    def dynamic_energy_pj(self) -> float:
        """Sum of per-layer energies."""
        return sum(entry.energy_pj for entry in self.entries)

    @property
    def idle_energy_pj(self) -> float:
        """Static energy of idle PEs across the whole makespan (dark silicon)."""
        if self.idle_energy_pj_per_cycle_per_pe <= 0.0 or not self.entries:
            return 0.0
        total = 0.0
        makespan = self.makespan_cycles
        for name in self.sub_accelerator_names:
            pes = self.pes_per_sub_accelerator.get(name, 0)
            busy = self.busy_cycles(name)
            idle = max(0.0, makespan - busy)
            total += idle * pes * self.idle_energy_pj_per_cycle_per_pe
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

    def _sync_caches(self) -> None:
        """Drop memoised timelines when ``entries`` changed behind our back.

        :meth:`add` invalidates precisely; this length check additionally
        catches append/remove-style direct ``entries`` mutation.  A same-length
        in-place replacement is not detectable this way — construct through
        :meth:`add`/:meth:`extend` (or rebuild the schedule) when editing
        records.
        """
        if self._cache_entry_count != len(self.entries):
            self._timeline_cache.clear()
            self._busy_cache.clear()
            self._cache_entry_count = len(self.entries)

    def entries_for(self, sub_accelerator: str) -> List[ScheduledLayer]:
        """Execution records of one sub-accelerator, ordered by start time."""
        self._sync_caches()
        timeline = self._timeline_cache.get(sub_accelerator)
        if timeline is None:
            timeline = sorted(
                (entry for entry in self.entries
                 if entry.sub_accelerator == sub_accelerator),
                key=lambda entry: (entry.start_cycle, entry.finish_cycle),
            )
            self._timeline_cache[sub_accelerator] = timeline
        return list(timeline)

    def entries_for_instance(self, instance_id: str) -> List[ScheduledLayer]:
        """Execution records of one model instance, ordered by layer index."""
        return sorted(
            (entry for entry in self.entries if entry.instance_id == instance_id),
            key=lambda entry: entry.layer_index,
        )

    def busy_cycles(self, sub_accelerator: str) -> float:
        """Total cycles the sub-accelerator spends executing layers."""
        self._sync_caches()
        busy = self._busy_cache.get(sub_accelerator)
        if busy is None:
            busy = sum(entry.duration_cycles for entry in self.entries
                       if entry.sub_accelerator == sub_accelerator)
            self._busy_cache[sub_accelerator] = busy
        return busy

    def idle_cycles(self, sub_accelerator: str) -> float:
        """Cycles the sub-accelerator is idle before the schedule completes."""
        return max(0.0, self.makespan_cycles - self.busy_cycles(sub_accelerator))

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

        return imbalance(self.busy_cycles(name)
                         for name in self.sub_accelerator_names)

    def load_imbalance_finite(self) -> float:
        """:meth:`load_imbalance`, with infinity mapped to the finite sentinel.

        Report/benchmark dumps use this so their dictionaries stay strict-JSON
        serializable (``json.dumps(..., allow_nan=False)``).
        """
        imbalance = self.load_imbalance() if self.entries else 1.0
        if math.isinf(imbalance):
            return LOAD_IMBALANCE_UNUSED_SENTINEL
        return imbalance

    # ------------------------------------------------------------------
    # Per-frame (serving) accounting
    # ------------------------------------------------------------------
    def frame_records(self) -> Dict[str, Dict[str, float]]:
        """Per-instance frame accounting: release, finish, and latency cycles.

        One record per scheduled instance.  The release is the instance's
        :attr:`instance_release_cycles` entry (zero when absent — the batch
        case), the finish is its last layer's finish cycle, and the latency is
        their difference: the time a frame spends in the system, the quantity
        serving SLAs are written against.
        """
        finishes: Dict[str, float] = {}
        for entry in self.entries:
            previous = finishes.get(entry.instance_id)
            if previous is None or entry.finish_cycle > previous:
                finishes[entry.instance_id] = entry.finish_cycle
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

    def layer_counts(self) -> Dict[str, int]:
        """Number of layers executed per sub-accelerator."""
        counts = {name: 0 for name in self.sub_accelerator_names}
        for entry in self.entries:
            counts[entry.sub_accelerator] += 1
        return counts

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, expected_layers: Optional[Dict[str, int]] = None) -> None:
        """Check the schedule against the hard constraints of Sec. III-A.

        * no two layers overlap on the same sub-accelerator;
        * a layer never starts before its producers finish — against the true
          dependence DAG for instances with an :attr:`instance_predecessors`
          entry, and against the linear chain (layer ``i`` waits on layer
          ``i-1``) as the degenerate case otherwise;
        * no layer starts before its instance's frame release, for instances
          with an :attr:`instance_release_cycles` entry (online serving mode);
        * if ``expected_layers`` (instance id -> layer count) is supplied, every
          instance is fully scheduled exactly once.

        Raises
        ------
        SchedulingError
            If any constraint is violated.
        """
        # One grouping pass over the entries feeds the overlap, dependence,
        # and completeness checks, instead of each check re-scanning the full
        # entry list.
        by_acc: Dict[str, List[ScheduledLayer]] = defaultdict(list)
        by_instance: Dict[str, List[ScheduledLayer]] = defaultdict(list)
        for entry in self.entries:
            by_acc[entry.sub_accelerator].append(entry)
            by_instance[entry.instance_id].append(entry)
        self._check_no_overlap(by_acc)
        self._check_dependences(by_instance)
        if self.instance_release_cycles:
            self._validate_release_times()
        if expected_layers is not None:
            self._check_completeness(expected_layers, by_instance)

    def _check_no_overlap(self, by_acc: Dict[str, List[ScheduledLayer]]
                          ) -> None:
        """No two layers overlap on one sub-accelerator (rows grouped per
        sub-accelerator)."""
        by_start = operator.attrgetter("start_cycle", "finish_cycle")
        for name in self.sub_accelerator_names:
            timeline = by_acc.get(name)
            if not timeline:
                continue
            timeline.sort(key=by_start)
            previous = timeline[0]
            for current in timeline[1:]:
                if current.start_cycle < previous.finish_cycle - 1e-6:
                    raise SchedulingError(
                        f"sub-accelerator {name!r}: {current.instance_id}/"
                        f"{current.layer.name} starts at {current.start_cycle:.0f} before "
                        f"{previous.instance_id}/{previous.layer.name} finishes at "
                        f"{previous.finish_cycle:.0f}"
                    )
                previous = current

    def _check_dependences(self, by_instance: Dict[str, List[ScheduledLayer]]
                           ) -> None:
        """Each layer runs once and after its producers (rows grouped per
        instance)."""
        by_layer_index = operator.attrgetter("layer_index")
        for instance_id, chain in by_instance.items():
            chain.sort(key=by_layer_index)
            indices = [entry.layer_index for entry in chain]
            if len(set(indices)) != len(indices):
                raise SchedulingError(
                    f"instance {instance_id!r}: a layer index is scheduled more than once"
                )
            predecessors = self.instance_predecessors.get(instance_id)
            if predecessors is not None:
                self._validate_dag_dependences(instance_id, chain, predecessors)
            else:
                self._validate_chain_dependences(instance_id, chain)

    def _validate_dag_dependences(self, instance_id: str,
                                  chain: Sequence[ScheduledLayer],
                                  predecessors: Sequence[FrozenSet[int]]) -> None:
        """Every layer starts only after each of its true producers finishes."""
        # ``chain`` arrives sorted by layer index with duplicates rejected, so
        # when it is exactly the full 0..n-1 range (the fully-scheduled common
        # case) position == layer index and producers resolve by list
        # indexing, skipping the by-index dict entirely.
        if (len(chain) == len(predecessors) and chain
                and chain[0].layer_index == 0
                and chain[-1].layer_index == len(chain) - 1):
            for entry in chain:
                start_cycle = entry.start_cycle
                for producer_index in predecessors[entry.layer_index]:
                    producer = chain[producer_index]
                    if start_cycle < producer.finish_cycle - 1e-6:
                        raise SchedulingError(
                            f"instance {instance_id!r}: layer "
                            f"{entry.layer.name!r} starts at "
                            f"{entry.start_cycle:.0f} before its producer "
                            f"{producer.layer.name!r} finishes at "
                            f"{producer.finish_cycle:.0f}"
                        )
            return
        by_index = {entry.layer_index: entry for entry in chain}
        for entry in chain:
            if not 0 <= entry.layer_index < len(predecessors):
                raise SchedulingError(
                    f"instance {instance_id!r}: layer index {entry.layer_index} is "
                    f"outside the instance's {len(predecessors)} layers"
                )
            for producer_index in predecessors[entry.layer_index]:
                producer = by_index.get(producer_index)
                if producer is None:
                    raise SchedulingError(
                        f"instance {instance_id!r}: layer {entry.layer.name!r} is "
                        f"scheduled but its producer (layer index {producer_index}) "
                        f"is not"
                    )
                if entry.start_cycle < producer.finish_cycle - 1e-6:
                    raise SchedulingError(
                        f"instance {instance_id!r}: layer {entry.layer.name!r} starts "
                        f"at {entry.start_cycle:.0f} before its producer "
                        f"{producer.layer.name!r} finishes at "
                        f"{producer.finish_cycle:.0f}"
                    )

    def _validate_chain_dependences(self, instance_id: str,
                                    chain: Sequence[ScheduledLayer]) -> None:
        """Degenerate case: no dependence info, require the linear chain."""
        for previous, current in zip(chain, chain[1:]):
            if current.layer_index != previous.layer_index + 1:
                raise SchedulingError(
                    f"instance {instance_id!r}: layer indices are not contiguous "
                    f"({previous.layer_index} followed by {current.layer_index})"
                )
            if current.start_cycle < previous.finish_cycle - 1e-6:
                raise SchedulingError(
                    f"instance {instance_id!r}: layer {current.layer.name!r} starts "
                    f"before its predecessor {previous.layer.name!r} finishes"
                )

    def _validate_release_times(self) -> None:
        """Online mode: no layer runs before its instance's frame has arrived."""
        releases = self.instance_release_cycles
        for entry in self.entries:
            release = releases.get(entry.instance_id)
            if release is not None and entry.start_cycle < release - 1e-6:
                raise SchedulingError(
                    f"instance {entry.instance_id!r}: layer {entry.layer.name!r} "
                    f"starts at {entry.start_cycle:.0f} before the frame's release "
                    f"at {release:.0f}"
                )

    def _check_completeness(self, expected_layers: Dict[str, int],
                            by_instance: Dict[str, List[ScheduledLayer]]
                            ) -> None:
        """Every expected instance is fully scheduled, and nothing else."""
        for instance_id, expected in expected_layers.items():
            chain = by_instance.get(instance_id)
            actual = len(chain) if chain is not None else 0
            if actual != expected:
                raise SchedulingError(
                    f"instance {instance_id!r}: expected {expected} scheduled layers, "
                    f"found {actual}"
                )
        unexpected = set(by_instance) - set(expected_layers)
        if unexpected:
            raise SchedulingError(
                f"schedule contains unknown instances: {sorted(unexpected)!r}"
            )

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
            "num_layers": float(len(self.entries)),
            "load_imbalance": self.load_imbalance_finite(),
        }

    def describe(self, max_entries: int = 20) -> str:
        """Human-readable dump of the first ``max_entries`` execution records."""
        lines = [
            f"Schedule: {len(self.entries)} layer executions on "
            f"{len(self.sub_accelerator_names)} sub-accelerator(s)",
            f"  latency {self.makespan_seconds * 1e3:.3f} ms, "
            f"energy {self.total_energy_mj:.2f} mJ, EDP {self.edp:.4g} J*s",
        ]
        for name in self.sub_accelerator_names:
            lines.append(
                f"  {name}: {self.layer_counts()[name]} layers, "
                f"utilisation {self.utilisation(name):.1%}"
            )
        ordered = sorted(self.entries, key=lambda entry: entry.start_cycle)
        for entry in ordered[:max_entries]:
            lines.append("  " + entry.describe())
        if len(ordered) > max_entries:
            lines.append(f"  ... {len(ordered) - max_entries} more entries")
        return "\n".join(lines)
