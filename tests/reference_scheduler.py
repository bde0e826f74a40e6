"""Executable specification of Herald's scheduler (Fig. 8 and Fig. 9).

A deliberately direct re-statement of the two scheduling steps, written for
readability rather than speed:

* **Fig. 8, initial assignment.**  Instances are visited in breadth-first or
  depth-first order.  Before a head layer is placed, the global-buffer check
  runs: an instance whose head does not fit is deferred and the scan moves to
  the next instance; when no instance fits, the first deferred head is placed
  anyway (DRAM-spill fallback) and a violation is counted.  The placed layer
  goes to the first sub-accelerator, in the shape's preference order, whose
  projected finish stays within ``load_balance_factor`` of the best one.
* **Fig. 9, post-processing.**  A quadratic full rescan: whenever any layer
  can start, the ready layer with the smallest ``(start, order_index)`` runs
  next, where ``start = max(sub-accelerator free, producers done, release)``.
* **Post-processing off.**  The initial order is replayed as is.

:class:`repro.core.scheduler.HeraldScheduler` must reproduce this reference
decision for decision and float for float; the tests compare the two through
the scheduler's public :meth:`~repro.core.scheduler.HeraldScheduler.schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.core.schedule import Schedule, ScheduledLayer
from repro.maestro.cost import CostModel, LayerCost, metric_value
from repro.maestro.hardware import SubAcceleratorConfig
from repro.models.layer import Layer
from repro.units import BYTES_PER_ELEMENT
from repro.workloads.spec import WorkloadSpec
from schedule_oracle import schedule_from_entries


@dataclass
class Assignment:
    """One layer placed on a sub-accelerator by the initial step."""

    order_index: int
    instance_id: str
    layer_index: int
    layer: Layer
    sub_accelerator: str
    cost: LayerCost
    predecessors: FrozenSet[int]
    unmet_producers: int = 0
    data_ready_cycle: float = 0.0


@dataclass
class InstanceState:
    """Placement progress and live tensors of one model instance."""

    instance_id: str
    layers: List[Layer]
    predecessors: Tuple[FrozenSet[int], ...]
    successors: Tuple[FrozenSet[int], ...]
    next_index: int = 0
    #: Produced tensors still awaiting a consumer: layer index -> bytes.
    live_outputs: Dict[int, int] = field(default_factory=dict)

    @property
    def exhausted(self) -> bool:
        return self.next_index >= len(self.layers)

    @property
    def head(self) -> Layer:
        return self.layers[self.next_index]

    def advance(self) -> None:
        """Place the head layer; a tensor stays live until its last consumer
        has been placed."""
        placed = self.next_index
        self.next_index += 1
        for index in list(self.live_outputs):
            if all(consumer < self.next_index
                   for consumer in self.successors[index]):
                del self.live_outputs[index]
        if any(consumer >= self.next_index
               for consumer in self.successors[placed]):
            self.live_outputs[placed] = (
                self.layers[placed].output_elements * BYTES_PER_ELEMENT)

    def live_bytes(self, exclude_consumers_of: Optional[int] = None) -> int:
        return sum(size for index, size in self.live_outputs.items()
                   if exclude_consumers_of not in self.successors[index])


def preference_rows(cost_model: CostModel, metric: str, layer: Layer,
                    sub_accelerators: Sequence[SubAcceleratorConfig]
                    ) -> List[Tuple[float, str, LayerCost]]:
    """``(metric value, name, cost)`` per sub-accelerator, best first."""
    rows = []
    for acc in sub_accelerators:
        cost = cost_model.layer_cost(layer, acc)
        rows.append((metric_value(cost, metric), acc.name, cost))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def choose_sub_accelerator(rows: Sequence[Tuple[float, str, LayerCost]],
                           busy_cycles: Mapping[str, float],
                           load_balance_factor: Optional[float]
                           ) -> Tuple[str, LayerCost]:
    """Preference order plus the load-balancing redirect of Fig. 8."""
    if load_balance_factor is None or len(rows) == 1:
        _, name, cost = rows[0]
        return name, cost
    finishes = [busy_cycles[name] + cost.latency_cycles
                for _, name, cost in rows]
    bound = load_balance_factor * min(finishes)
    for finish, (_, name, cost) in zip(finishes, rows):
        if finish <= bound:
            return name, cost
    _, name, cost = rows[0]
    return name, cost


def memory_allows(states: Sequence[InstanceState], current: InstanceState,
                  memory_limit_bytes: Optional[int]) -> bool:
    """The global-buffer occupancy condition of Fig. 8."""
    if memory_limit_bytes is None:
        return True
    live = sum(state.live_bytes() for state in states if state is not current)
    live += current.live_bytes(exclude_consumers_of=current.next_index)
    layer = current.head
    required = (layer.input_elements + layer.output_elements) * BYTES_PER_ELEMENT
    return live + required <= memory_limit_bytes


def initial_assignment(workload: WorkloadSpec,
                       sub_accelerators: Sequence[SubAcceleratorConfig],
                       cost_model: CostModel, metric: str, ordering: str,
                       load_balance_factor: Optional[float],
                       memory_limit_bytes: Optional[int]
                       ) -> Tuple[List[Assignment], int]:
    """Fig. 8: the assignments in visiting order, plus the violation count."""
    states = [InstanceState(instance.instance_id,
                            instance.layers_in_dependence_order(),
                            instance.predecessor_indices(),
                            instance.successor_indices())
              for instance in workload.instances()]
    busy_cycles = {acc.name: 0.0 for acc in sub_accelerators}
    assignments: List[Assignment] = []
    violations = 0
    visit_queue = [state for state in states if not state.exhausted]
    while visit_queue:
        chosen = None
        for state in visit_queue:
            if memory_allows(states, state, memory_limit_bytes):
                chosen = state
                break
        if chosen is None:
            # No ready instance fits: DRAM-spill fallback on the first
            # deferred head.
            violations += 1
            chosen = visit_queue[0]
        layer = chosen.head
        name, cost = choose_sub_accelerator(
            preference_rows(cost_model, metric, layer, sub_accelerators),
            busy_cycles, load_balance_factor)
        assignments.append(Assignment(
            len(assignments), chosen.instance_id, chosen.next_index, layer,
            name, cost, chosen.predecessors[chosen.next_index]))
        busy_cycles[name] += cost.latency_cycles
        chosen.advance()
        if chosen.exhausted:
            visit_queue.remove(chosen)
        elif ordering == "breadth":
            visit_queue.remove(chosen)
            visit_queue.append(chosen)
    return assignments, violations


def _build_schedule(sub_accelerators: Sequence[SubAcceleratorConfig],
                    cost_model: CostModel, entries: Sequence[ScheduledLayer]
                    ) -> Schedule:
    return schedule_from_entries(
        [acc.name for acc in sub_accelerators], entries,
        clock_hz=sub_accelerators[0].clock_hz,
        idle_energy_pj_per_cycle_per_pe=(
            cost_model.energy_table.leakage_per_cycle_per_pe),
        pes_per_sub_accelerator={acc.name: acc.num_pes
                                 for acc in sub_accelerators},
    )


def _entry(assignment: Assignment, start: float, finish: float
           ) -> ScheduledLayer:
    return ScheduledLayer(
        layer=assignment.layer, instance_id=assignment.instance_id,
        layer_index=assignment.layer_index,
        sub_accelerator=assignment.sub_accelerator,
        start_cycle=start, finish_cycle=finish, cost=assignment.cost)


def list_schedule_reference(assignments: Sequence[Assignment],
                            names: Sequence[str],
                            release_cycles: Optional[Mapping[str, float]] = None
                            ) -> List[ScheduledLayer]:
    """Fig. 9 as an O(n^2) full rescan: the global argmin of
    ``(start, order_index)`` over all ready layers runs next."""
    release = release_cycles or {}
    entries: List[ScheduledLayer] = []
    pending = {name: [] for name in names}
    consumers: Dict[Tuple[str, int], List[Assignment]] = {}
    for assignment in assignments:
        pending[assignment.sub_accelerator].append(assignment)
        assignment.unmet_producers = len(assignment.predecessors)
        assignment.data_ready_cycle = release.get(assignment.instance_id, 0.0)
        for producer in assignment.predecessors:
            consumers.setdefault((assignment.instance_id, producer),
                                 []).append(assignment)
    acc_avail = {name: 0.0 for name in names}
    for _ in range(len(assignments)):
        best_key: Optional[Tuple[float, int]] = None
        best: Optional[Assignment] = None
        for name, queue in pending.items():
            for assignment in queue:
                if assignment.unmet_producers:
                    continue
                start = max(acc_avail[name], assignment.data_ready_cycle)
                key = (start, assignment.order_index)
                if best_key is None or key < best_key:
                    best_key, best = key, assignment
        assert best is not None, "reference dead-lock: no ready layer"
        start = best_key[0]
        finish = start + best.cost.latency_cycles
        entries.append(_entry(best, start, finish))
        acc_avail[best.sub_accelerator] = finish
        for consumer in consumers.get((best.instance_id, best.layer_index), ()):
            consumer.unmet_producers -= 1
            consumer.data_ready_cycle = max(consumer.data_ready_cycle, finish)
        pending[best.sub_accelerator].remove(best)
    return entries


def replay_initial_order(assignments: Sequence[Assignment],
                         names: Sequence[str],
                         release_cycles: Optional[Mapping[str, float]] = None
                         ) -> List[ScheduledLayer]:
    """Post-processing off: the initial order, honouring only the DAG, the
    sub-accelerator's availability, and the frame release."""
    release = release_cycles or {}
    entries: List[ScheduledLayer] = []
    acc_avail = {name: 0.0 for name in names}
    finish_times: Dict[Tuple[str, int], float] = {}
    for assignment in assignments:
        start = max([acc_avail[assignment.sub_accelerator],
                     release.get(assignment.instance_id, 0.0)]
                    + [finish_times[(assignment.instance_id, producer)]
                       for producer in assignment.predecessors])
        finish = start + assignment.cost.latency_cycles
        entries.append(_entry(assignment, start, finish))
        acc_avail[assignment.sub_accelerator] = finish
        finish_times[(assignment.instance_id, assignment.layer_index)] = finish
    return entries


def reference_schedule(workload: WorkloadSpec,
                       sub_accelerators: Sequence[SubAcceleratorConfig],
                       cost_model: CostModel, metric: str = "edp",
                       ordering: str = "breadth",
                       load_balance_factor: Optional[float] = 1.25,
                       memory_limit_bytes: Optional[int] = None,
                       enable_post_processing: bool = True,
                       release_cycles: Optional[Mapping[str, float]] = None
                       ) -> Tuple[Schedule, int]:
    """The reference schedule and its DRAM-spill violation count."""
    assignments, violations = initial_assignment(
        workload, sub_accelerators, cost_model, metric, ordering,
        load_balance_factor, memory_limit_bytes)
    names = [acc.name for acc in sub_accelerators]
    timeline_of = (list_schedule_reference if enable_post_processing
                   else replay_initial_order)
    entries = timeline_of(assignments, names, release_cycles)
    return _build_schedule(sub_accelerators, cost_model, entries), violations


def timeline(schedule: Schedule) -> List[Tuple]:
    """Comparable, bit-exact rows of a schedule, in commit order."""
    return [(entry.instance_id, entry.layer_index, entry.sub_accelerator,
             repr(entry.start_cycle), repr(entry.finish_cycle),
             repr(entry.energy_pj))
            for entry in schedule.entries]
