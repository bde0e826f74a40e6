"""Herald's layer-execution scheduler (Sec. IV-D, Fig. 7-9).

The scheduler works in two steps, mirroring the paper:

1. **Initial scheduling** (Fig. 8).  Model instances are visited in
   breadth-first (interleave models) or depth-first (finish a model first)
   order.  Each head layer is assigned to the sub-accelerator its dataflow
   prefers (lowest EDP / latency / energy, user selectable) subject to a
   load-balancing condition: if assigning to the preferred sub-accelerator
   would leave it more than ``load_balance_factor`` behind the most-loaded
   sub-accelerator, the next-best sub-accelerator is tried instead.  Layer
   dependence and (optionally) global-buffer occupancy are checked before an
   assignment is committed.

2. **Post-processing** (Fig. 9).  The initial order can leave sub-accelerators
   idle while a dependent layer waits on another sub-accelerator.  The
   post-processor keeps the layer-to-sub-accelerator assignment but re-derives
   the execution order with a look-ahead list schedule: whenever a
   sub-accelerator becomes free, it starts the earliest *ready* layer assigned
   to it, skipping over layers whose dependences are still outstanding.

Both phases are DAG-aware: readiness and start times derive from the true
per-layer predecessor sets the model graphs expose (Sec. III-A's hard
constraint is that a layer waits only for its *actual* producers), so
independent branches of one model — UNet-style skip paths, parallel detection
heads — may overlap across sub-accelerators.  On linear-chain models every
predecessor set is ``{i-1}`` and the behaviour is bit-for-bit the historical
chain scheduling.

Both phases use the MAESTRO-based cost model for per-layer latency/energy, so
the same scheduler serves monolithic designs (FDA / RDA, one sub-accelerator)
and multi-sub-accelerator designs (SM-FDA / HDA).

**Online (streaming) mode.**  :meth:`HeraldScheduler.schedule` optionally
takes per-instance *release times* (``release_cycles``): an instance's layers
only become schedulable once its frame has arrived.  The release constraint
rides the existing event machinery — a released-at-``r`` instance simply
starts its root layers with ``data_ready_cycle = r`` instead of ``0`` — so an
all-releases-at-zero trace is bit-for-bit identical to the batch path, and the
heap complexity argument is unchanged (data readiness still only grows).
"""

from __future__ import annotations

import heapq
import math
import operator
from typing import (Dict, FrozenSet, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.exceptions import SchedulingError
from repro.maestro.cost import CostModel, LayerCost, metric_value
from repro.maestro.hardware import SubAcceleratorConfig
from repro.models.layer import Layer
from repro.core.schedule import Schedule
from repro.units import BYTES_PER_ELEMENT
from repro.workloads.spec import ModelInstance, WorkloadSpec

#: Layer orderings supported by the initial scheduling step.
ORDERINGS = ("breadth", "depth")

#: Metrics a user may optimise layer assignment for.
METRICS = ("edp", "latency", "energy")

#: Preference-row sort key: (metric value, sub-accelerator name).
_RANK_ORDER = operator.itemgetter(0, 1)

#: Timeline candidate of a sub-accelerator with no ready layer; it sorts
#: after every real ``(start, slot)`` candidate.
_NO_CANDIDATE = (math.inf, math.inf)


def checked_release_cycles(release_cycles: Optional[Mapping[str, float]],
                           instances: Sequence[ModelInstance]
                           ) -> Optional[Dict[str, float]]:
    """Validate and normalise a release-time map (``None`` when absent/empty).

    Shared by every scheduler that supports the online serving mode, so an
    unknown instance id or a negative release is rejected identically
    everywhere instead of one scheduler silently treating a typo'd id as
    released-at-zero.
    """
    if not release_cycles:
        return None
    known = {instance.instance_id for instance in instances}
    unknown = sorted(set(release_cycles) - known)
    if unknown:
        raise SchedulingError(
            f"release_cycles references unknown instances: {unknown!r}")
    releases = dict(release_cycles)
    negative = sorted(instance_id for instance_id, release in releases.items()
                      if release < 0.0)
    if negative:
        raise SchedulingError(
            f"release_cycles must be >= 0; negative for: {negative!r}")
    return releases


class _VisitOrder(NamedTuple):
    """Design-independent per-slot arrays of one scheduling run.

    Slot ``i`` is the ``i``-th layer placed in the Fig. 8 visiting order.
    """

    layers: Tuple[Layer, ...]
    instance_ids: Tuple[str, ...]
    #: Position of each slot's layer in its instance's dependence order.
    layer_indices: Tuple[int, ...]
    #: Distinct layer shapes, in first-visit order.
    shapes: List[Tuple]
    #: Index into ``shapes`` per slot.
    slot_shapes: List[int]
    #: Number of producers per slot.
    unmet0: List[int]
    #: Slots consuming each slot's output, ascending.
    consumer_slots: List[List[int]]
    #: DRAM-spill fallbacks taken by the memory check.
    violations: int


class _InstanceState:
    """Global-buffer liveness of one model instance under a memory limit.

    Serves the memory check of Fig. 8 while the visiting order is built:
    layers are placed in dependence order, so indices below ``next_index``
    are exactly the already-placed layers.  ``last_consumer`` (position of
    each layer's final consumer, -1 when none) and ``retiring`` (the inverse
    map: which tensors retire at each placement) come from the model graph's
    memos.
    """

    __slots__ = ("layers", "successors", "last_consumer", "retiring",
                 "next_index", "live_outputs")

    def __init__(self, instance: ModelInstance) -> None:
        self.layers: List[Layer] = instance.layers_in_dependence_order()
        self.successors: Tuple[FrozenSet[int], ...] = instance.successor_indices()
        self.last_consumer = instance.model.last_consumer_indices()
        self.retiring = instance.model.retirement_indices()
        self.next_index = 0
        #: Produced tensors still awaiting a consumer: layer index -> bytes.
        #: Maintained incrementally by :meth:`advance` so the memory check
        #: stays proportional to the (small) live set, not the placed prefix.
        self.live_outputs: Dict[int, int] = {}

    def advance(self) -> None:
        """Place the head layer: step ``next_index`` and update liveness.

        A tensor stays live until its *last* consumer has been placed — on a
        chain that is only the most recent output, but a skip-connection
        tensor remains live across the whole branch it skips.
        """
        committed = self.next_index
        self.next_index += 1
        # Tensors whose final consumer was the placed layer retire now.
        for index in self.retiring[committed]:
            self.live_outputs.pop(index, None)
        # The placed layer's own output goes live while consumers remain (its
        # last consumer, if any, is always at a later position).
        if self.last_consumer[committed] >= self.next_index:
            self.live_outputs[committed] = (
                self.layers[committed].output_elements * BYTES_PER_ELEMENT)

    def live_bytes(self, exclude_consumers_of: Optional[int] = None) -> int:
        """Global-buffer bytes of produced tensors still awaiting a consumer.

        ``exclude_consumers_of`` drops tensors consumed by that (about-to-run)
        layer index, whose bytes the caller already accounts for as the
        layer's input.
        """
        if exclude_consumers_of is None:
            return sum(self.live_outputs.values())
        return sum(size for index, size in self.live_outputs.items()
                   if exclude_consumers_of not in self.successors[index])


class HeraldScheduler:
    """Herald's load-balanced, dependence-aware layer scheduler.

    Parameters
    ----------
    cost_model:
        Cost model used to query per-layer latency and energy.
    metric:
        Assignment objective: ``"edp"`` (default), ``"latency"`` or ``"energy"``.
    ordering:
        Initial layer ordering: ``"breadth"`` (interleave model instances,
        default) or ``"depth"`` (schedule a whole instance before the next).
    load_balance_factor:
        Maximum allowed ratio between the most- and least-loaded
        sub-accelerators before the scheduler redirects a layer to a
        less-preferred sub-accelerator.  ``None`` disables the feedback.
    memory_limit_bytes:
        Optional global-buffer occupancy bound checked before each assignment;
        when even deferring cannot satisfy it the violation is counted (and
        exposed through :attr:`last_memory_violations`) but the layer is still
        scheduled, matching Herald's DRAM-spill fallback.
    enable_post_processing:
        Whether to run the idle-time-elimination pass (Fig. 9).
    """

    def __init__(self, cost_model: CostModel, metric: str = "edp",
                 ordering: str = "breadth",
                 load_balance_factor: Optional[float] = 1.25,
                 memory_limit_bytes: Optional[int] = None,
                 enable_post_processing: bool = True) -> None:
        if metric not in METRICS:
            raise SchedulingError(f"unknown metric {metric!r}; expected one of {METRICS}")
        if ordering not in ORDERINGS:
            raise SchedulingError(f"unknown ordering {ordering!r}; expected one of {ORDERINGS}")
        if load_balance_factor is not None and load_balance_factor < 1.0:
            raise SchedulingError("load_balance_factor must be >= 1.0 (or None to disable)")
        self.cost_model = cost_model
        self.metric = metric
        self.ordering = ordering
        self.load_balance_factor = load_balance_factor
        self.memory_limit_bytes = memory_limit_bytes
        self.enable_post_processing = enable_post_processing
        self.last_memory_violations = 0
        #: Cost columns: ``(metric,) + hardware key`` -> {shape: (metric
        #: value, cost, latency cycles)}.  Designs sharing a sub-accelerator
        #: configuration share its column, whatever they name it.
        self._columns: Dict[Tuple, Dict[Tuple, Tuple[float, LayerCost,
                                                     float]]] = {}
        #: The last Fig. 8 assignment: ``(visit order, key, (slot_acc,
        #: slot_cost, slot_latency))``, see :meth:`_assignment`.
        self._last_assignment: Optional[Tuple[_VisitOrder, Tuple, Tuple]] = None

    def __getstate__(self) -> Dict[str, object]:
        # Schedulers ship to pool workers alongside their cost model; the
        # cost columns and the last assignment are cheap to rebuild there and
        # would bloat the pickle.
        state = dict(self.__dict__)
        state["_columns"] = {}
        state["_last_assignment"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def schedule(self, workload: WorkloadSpec,
                 sub_accelerators: Sequence[SubAcceleratorConfig],
                 release_cycles: Optional[Mapping[str, float]] = None,
                 deadline_cycles: Optional[Mapping[str, float]] = None
                 ) -> Schedule:
        """Schedule ``workload`` on ``sub_accelerators``.

        ``release_cycles`` optionally maps instance ids to the cycle at which
        the instance (frame) arrives; its layers become schedulable only from
        that point on (online serving mode).  Instances absent from the map
        are released at cycle zero, so an empty / all-zero map reproduces the
        batch schedule bit-for-bit.  The layer-to-sub-accelerator assignment
        is release-agnostic (it fixes *where* layers run, matching the batch
        decisions); releases constrain *when* they run.  ``deadline_cycles``
        (instance id -> absolute deadline cycle) only rides along on the
        schedule for its frame accounting.
        """
        if not sub_accelerators:
            raise SchedulingError("cannot schedule onto an empty sub-accelerator list")
        releases = checked_release_cycles(release_cycles, workload.instances())
        order = self._static_visit_order(workload)
        self.last_memory_violations = order.violations
        slot_acc, slot_cost, slot_latency = self._assignment(
            workload, order, sub_accelerators)
        return self._timeline(order, slot_acc, slot_cost, slot_latency,
                              sub_accelerators, releases,
                              workload.instance_dependences(), deadline_cycles)

    # ------------------------------------------------------------------
    # Visiting order (Fig. 8's instance walk and memory check)
    # ------------------------------------------------------------------
    def _static_visit_order(self, workload: WorkloadSpec) -> _VisitOrder:
        """The design-independent structure of one workload's scheduling run.

        The visiting order (which instance's which layer receives which
        ``order_index``) never depends on the design: the ordering policy
        rotates over live instances, and Fig. 8's memory check reads only the
        liveness of already-placed tensors and each layer's size — never the
        chosen sub-accelerator or the load fronts.  So the order, including
        memory deferrals and the DRAM-spill violation count, is a pure
        function of (workload, ordering, memory limit).  The consumer lists
        and unmet-producer counts only encode the instance DAGs.  All of it
        is computed once per key and memoised on the spec alongside its
        instance expansion, instead of being rebuilt for each of the
        thousands of candidate designs of a sweep.

        Slot == ``order_index`` throughout the returned :class:`_VisitOrder`.
        """
        key = (self.ordering, self.memory_limit_bytes)
        cached = workload._visit_orders.get(key)
        if cached is not None:
            return cached

        instances = workload.instances()
        per_instance = [(instance.instance_id,
                         instance.layers_in_dependence_order(),
                         instance.predecessor_indices())
                        for instance in instances]
        limited = self.memory_limit_bytes is not None
        states = [_InstanceState(instance) for instance in instances] \
            if limited else None
        breadth = self.ordering == "breadth"
        # The visit queue holds live (non-exhausted) instances only; under
        # breadth-first ordering a visited instance rotates to the back, under
        # depth-first it stays in place until fully placed.
        visit_queue = [index for index, (_, layers, _) in enumerate(per_instance)
                       if layers]
        next_index = [0] * len(per_instance)
        order: List[Tuple[int, int]] = []
        slot_of: Dict[Tuple[int, int], int] = {}
        violations = 0
        while visit_queue:
            position = 0
            if limited:
                # Visit the first instance whose head layer fits the global
                # buffer; deferred instances keep their queue position.  When
                # none fits, DRAM-spill fallback: place the queue head anyway
                # and count the violation.
                for position, inst in enumerate(visit_queue):
                    if self._memory_allows(states, inst):
                        break
                else:
                    position = 0
                    violations += 1
                states[visit_queue[position]].advance()
            inst = visit_queue[position]
            layer_position = next_index[inst]
            slot_of[(inst, layer_position)] = len(order)
            order.append((inst, layer_position))
            next_index[inst] = layer_position + 1
            if layer_position + 1 >= len(per_instance[inst][1]):
                visit_queue.pop(position)
            elif breadth:
                visit_queue.append(visit_queue.pop(position))

        n = len(order)
        # Tuples: schedules share these three arrays.
        slot_layers = tuple(per_instance[inst][1][position]
                            for inst, position in order)
        instance_ids = tuple(per_instance[inst][0] for inst, _ in order)
        layer_indices = tuple(position for _, position in order)
        shape_index: Dict[Tuple, int] = {}
        slot_shapes = [shape_index.setdefault(layer.shape_key, len(shape_index))
                       for layer in slot_layers]
        unmet0 = [len(per_instance[inst][2][position])
                  for inst, position in order]
        consumer_slots: List[List[int]] = [[] for _ in range(n)]
        for slot, (inst, position) in enumerate(order):
            for producer in per_instance[inst][2][position]:
                consumer_slots[slot_of[(inst, producer)]].append(slot)

        payload = _VisitOrder(slot_layers, instance_ids, layer_indices,
                              list(shape_index), slot_shapes, unmet0,
                              consumer_slots, violations)
        workload._visit_orders[key] = payload
        return payload

    def _memory_allows(self, states: Sequence[_InstanceState],
                       current_index: int) -> bool:
        """Check the global-buffer occupancy condition of Fig. 8.

        Live bytes follow last-consumer semantics: a produced tensor occupies
        the buffer until every layer consuming it has been placed, so skip
        tensors are charged across the whole branch they bypass.  The current
        instance's tensors that its head layer consumes are excluded from the
        live set — their bytes are already counted in ``required`` as the
        layer's input.
        """
        current = states[current_index]
        live = sum(state.live_bytes() for state in states if state is not current)
        live += current.live_bytes(exclude_consumers_of=current.next_index)
        layer = current.layers[current.next_index]
        required = (layer.input_elements + layer.output_elements) * BYTES_PER_ELEMENT
        return live + required <= self.memory_limit_bytes

    # ------------------------------------------------------------------
    # Step 1: load-balanced sub-accelerator choice (Fig. 8)
    # ------------------------------------------------------------------
    def _assignment(self, workload: WorkloadSpec, order: _VisitOrder,
                    sub_accelerators: Sequence[SubAcceleratorConfig]
                    ) -> Tuple[Tuple[int, ...], Tuple[LayerCost, ...],
                               List[float]]:
        """The Fig. 8 assignment of ``order``, reused while its inputs repeat.

        The assignment never reads release times: it is a pure function of
        the visit order (the workload's layers and shapes, the ordering and
        the memory limit), the metric, the load-balance factor, and each
        sub-accelerator's name (names break preference ties) and hardware
        key (which fixes its costs).  The last assignment is kept under
        exactly that content — the memoised visit order compared by
        identity, the rest by value — so the probes of a sustained-FPS
        search, which change only the releases, assign once.  One entry,
        not a table: a design-space sweep never repeats an assignment.
        """
        hardware = tuple((acc.name, self.cost_model.hardware_key(acc))
                         for acc in sub_accelerators)
        key = (self.metric, self.load_balance_factor, hardware)
        last = self._last_assignment
        if last is not None and last[0] is order and last[1] == key:
            return last[2]
        slot_acc, slot_cost, slot_latency = self._assign(
            order, self._preference_rows(workload, order.shapes,
                                         sub_accelerators, hardware),
            len(sub_accelerators))
        assignment = (tuple(slot_acc), tuple(slot_cost), slot_latency)
        self._last_assignment = (order, key, assignment)
        return assignment

    def _assign(self, order: _VisitOrder,
                rows: List[List[Tuple[float, str, LayerCost, float, int]]],
                n_accs: int) -> Tuple[List[int], List[LayerCost], List[float]]:
        """Pick each slot's sub-accelerator: preference plus load balance.

        Walks the sub-accelerators in the layer shape's preference order and
        accepts the first whose projected completion time (its accumulated
        load plus this layer's latency there) stays within
        ``load_balance_factor`` of the best achievable completion time.  When
        the preferred sub-accelerator is far ahead of the others this
        redirects the layer to the next-preferred one, trading a locally
        optimal assignment for global load balance — the "try the second,
        third, ... best-fit accelerator" step of the paper.  Returns the
        per-slot dense sub-accelerator index, cost, and latency.  ``rows``
        holds the preference rows of ``order.shapes``.
        """
        n = len(order.slot_shapes)
        slot_acc = [0] * n
        slot_cost: List[LayerCost] = [None] * n  # type: ignore[list-item]
        slot_latency = [0.0] * n
        lb = self.load_balance_factor
        busy = [0.0] * n_accs
        inf = math.inf
        for slot, ranked in enumerate(map(rows.__getitem__,
                                          order.slot_shapes)):
            # Without the balancing condition every layer goes to its
            # preferred sub-accelerator.
            bound = inf
            if lb is not None:
                best = inf
                for row in ranked:
                    finish = busy[row[4]] + row[3]
                    if finish < best:
                        best = finish
                bound = lb * best
            # The argmin always meets the bound (lb >= 1), so the walk stops.
            for row in ranked:
                finish = busy[row[4]] + row[3]
                if finish <= bound:
                    break
            _, _, slot_cost[slot], slot_latency[slot], aidx = row
            slot_acc[slot] = aidx
            busy[aidx] = finish
        return slot_acc, slot_cost, slot_latency

    # ------------------------------------------------------------------
    # Step 2: timeline construction (Fig. 9)
    # ------------------------------------------------------------------
    def _timeline(self, order: _VisitOrder, slot_acc: Tuple[int, ...],
                  slot_cost: Tuple[LayerCost, ...],
                  slot_latency: Sequence[float],
                  sub_accelerators: Sequence[SubAcceleratorConfig],
                  release_cycles: Optional[Mapping[str, float]],
                  predecessors: Mapping[str, Tuple[FrozenSet[int], ...]],
                  deadline_cycles: Optional[Mapping[str, float]]) -> Schedule:
        """Build the timeline of the assigned slots as an immutable schedule.

        With post-processing (Fig. 9) the layer-to-sub-accelerator assignment
        is kept, but whenever a sub-accelerator becomes free it starts the
        earliest *ready* layer assigned to it, which removes the idle gaps a
        strict initial order would create.  A layer is ready once every one
        of its true producers has been scheduled, and it starts no earlier
        than the latest producer finish and its instance's release — so
        independent branches of one instance may run concurrently on
        different sub-accelerators.  Without post-processing the visiting
        order is replayed as is.

        The event-driven implementation is O(n·A + n log n) for n layer
        executions on A sub-accelerators.  Every committed layer is the
        global argmin of ``(start, slot)`` over all ready layers, where
        ``start = max(sub-accelerator available, data ready)``.  Per
        sub-accelerator, a **future heap** keyed ``(data_ready, slot)`` holds
        ready layers whose data arrives after the sub-accelerator frees up,
        and a **now heap** keyed ``slot`` holds those already waiting on the
        array; entries migrate future -> now as the availability front passes
        them, at most once each.  The heads of the two heaps give each
        sub-accelerator's candidate, and each commit takes the minimum over
        the A cached candidates, re-evaluating only the sub-accelerators the
        commit touched (the committing array, plus any array that received a
        newly-ready consumer).  Release times only seed data readiness, which
        producers can only raise, so the keys never decrease and a ``None`` /
        all-zero map is bit-for-bit the batch behaviour.

        Each commit records its slot's start and finish and adds its energy
        and busy time to the running totals, in commit order, so the
        schedule's accounting never re-walks the slots.  Commits on one
        sub-accelerator never go back in time, so the makespan is the latest
        availability front.
        """
        consumer_slots = order.consumer_slots
        n_accs = len(sub_accelerators)
        n = len(slot_acc)
        if release_cycles:
            released_at = release_cycles.get
            data_ready = [released_at(instance_id, 0.0)
                          for instance_id in order.instance_ids]
        else:
            data_ready = [0.0] * n
        avail = [0.0] * n_accs
        busy = [0.0] * n_accs
        energy = 0.0
        starts = [0.0] * n
        finishes = [0.0] * n

        if not self.enable_post_processing:
            # Every producer precedes its consumers in the visiting order, so
            # by the time a slot is replayed its data readiness is final.
            for slot in range(n):
                aidx = slot_acc[slot]
                start = avail[aidx]
                if data_ready[slot] > start:
                    start = data_ready[slot]
                finish = start + slot_latency[slot]
                starts[slot] = start
                finishes[slot] = finish
                busy[aidx] += finish - start
                energy += slot_cost[slot].energy_pj
                avail[aidx] = finish
                for consumer in consumer_slots[slot]:
                    if finish > data_ready[consumer]:
                        data_ready[consumer] = finish
            commit: Sequence[int] = range(n)
        else:
            commit = []
            commit_append = commit.append
            unmet = order.unmet0[:]
            future: List[List[Tuple[float, int]]] = [[] for _ in range(n_accs)]
            now: List[List[int]] = [[] for _ in range(n_accs)]
            heappush = heapq.heappush
            heappop = heapq.heappop
            for slot, blockers in enumerate(unmet):
                if blockers == 0:
                    if data_ready[slot] <= 0.0:
                        heappush(now[slot_acc[slot]], slot)
                    else:
                        heappush(future[slot_acc[slot]], (data_ready[slot], slot))
            # Each sub-accelerator's best ``(start, slot)`` candidate; slots
            # are unique, so keys never tie across sub-accelerators and the
            # owner of the global minimum is read back from ``slot_acc``.
            candidates = [(0.0, acc_now[0]) if acc_now
                          else acc_future[0] if acc_future else _NO_CANDIDATE
                          for acc_now, acc_future in zip(now, future)]

            for _ in range(n):
                best = _NO_CANDIDATE
                for key in candidates:
                    if key < best:
                        best = key
                if best is _NO_CANDIDATE:
                    raise SchedulingError(
                        "post-processing dead-lock: no ready layer found; "
                        "this indicates a bug"
                    )
                start, slot = best
                best_idx = slot_acc[slot]
                # The winner sits at the top of whichever heap carries its
                # start time: ``now`` when it waits on the array, ``future``
                # when it waits on data.
                if start <= avail[best_idx]:
                    heappop(now[best_idx])
                else:
                    heappop(future[best_idx])
                finish = start + slot_latency[slot]
                starts[slot] = start
                finishes[slot] = finish
                commit_append(slot)
                busy[best_idx] += finish - start
                energy += slot_cost[slot].energy_pj
                avail[best_idx] = finish
                touched = [best_idx]
                for consumer in consumer_slots[slot]:
                    unmet[consumer] -= 1
                    if finish > data_ready[consumer]:
                        data_ready[consumer] = finish
                    if unmet[consumer] == 0:
                        cidx = slot_acc[consumer]
                        ready = data_ready[consumer]
                        if ready <= avail[cidx]:
                            heappush(now[cidx], consumer)
                        else:
                            heappush(future[cidx], (ready, consumer))
                        if cidx not in touched:
                            touched.append(cidx)
                for idx in touched:
                    # Migrate newly-startable layers future -> now; every
                    # layer left in ``future`` then starts strictly after
                    # ``avail``.
                    avail_idx = avail[idx]
                    acc_future = future[idx]
                    acc_now = now[idx]
                    while acc_future and acc_future[0][0] <= avail_idx:
                        heappush(acc_now, heappop(acc_future)[1])
                    if acc_now:
                        candidates[idx] = (avail_idx, acc_now[0])
                    elif acc_future:
                        candidates[idx] = acc_future[0]
                    else:
                        candidates[idx] = _NO_CANDIDATE
            commit = tuple(commit)

        return Schedule(
            [acc.name for acc in sub_accelerators], order.layers,
            order.instance_ids, order.layer_indices, slot_acc,
            tuple(starts), tuple(finishes), slot_cost, commit,
            max(avail), energy, busy,
            clock_hz=sub_accelerators[0].clock_hz,
            idle_energy_pj_per_cycle_per_pe=(
                self.cost_model.energy_table.leakage_per_cycle_per_pe),
            pes_per_sub_accelerator={acc.name: acc.num_pes
                                     for acc in sub_accelerators},
            instance_predecessors=predecessors,
            instance_release_cycles=release_cycles,
            instance_deadline_cycles=deadline_cycles)

    def _preference_rows(self, workload: WorkloadSpec, shapes: List[Tuple],
                         sub_accelerators: Sequence[SubAcceleratorConfig],
                         hardware: Sequence[Tuple[str, Tuple]]
                         ) -> List[List[Tuple[float, str, LayerCost, float,
                                              int]]]:
        """Sub-accelerator preference row of each of ``shapes`` (Fig. 8).

        A row is ``(metric value, name, cost, latency, sub-accelerator
        index)`` per sub-accelerator in preference order (ties broken by
        name); the trailing dense index addresses the slot arrays of
        :meth:`_assign` and :meth:`_timeline`.  Rows are zipped from one cost
        column per sub-accelerator: a column depends only on the metric and
        the configuration's hardware key, so the partition candidates of a
        sweep, which re-create the same arrays under different splits and
        names, share columns and query the cost model once per (shape,
        configuration).  Metric values and latencies are the cost's roll-up
        fields, computed once when the ``LayerCost`` was built.
        ``hardware`` holds each sub-accelerator's ``(name, hardware key)``.
        """
        columns = [self._column(workload, shapes, acc, hardware_key)
                   for acc, (_, hardware_key) in zip(sub_accelerators,
                                                     hardware)]
        names = [name for name, _ in hardware]
        indices = range(len(names))
        rows = []
        for cells in zip(*columns):
            row = [(metric, name, cost, latency, idx)
                   for (metric, cost, latency), name, idx
                   in zip(cells, names, indices)]
            row.sort(key=_RANK_ORDER)
            rows.append(row)
        return rows

    def _column(self, workload: WorkloadSpec, shapes: List[Tuple],
                sub_accelerator: SubAcceleratorConfig, hardware_key: Tuple
                ) -> List[Tuple[float, LayerCost, float]]:
        """``(metric value, cost, latency)`` of each of ``shapes`` on one
        configuration (of ``hardware_key``), filled from the workload's shape
        representatives the first time the column meets them."""
        column = self._columns.setdefault((self.metric,) + hardware_key, {})
        try:
            return list(map(column.__getitem__, shapes))
        except KeyError:
            pass
        metric = self.metric
        missing = [layer for layer in workload.unique_shape_layers()
                   if layer.shape_key not in column]
        for layer, cost in zip(missing, self.cost_model.layer_costs(
                missing, sub_accelerator)):
            column[layer.shape_key] = (metric_value(cost, metric), cost,
                                       cost.latency_cycles)
        return list(map(column.__getitem__, shapes))
