"""Fleet-level frame dispatch: pluggable routing policies over many chips.

A datacenter serving deployment puts a *router* in front of N accelerator
chips: every arriving frame is dispatched to exactly one chip, and each chip
then schedules its assigned frames with its own online scheduler (the
Clockwork / INFaaS framing of datacenter inference, applied to Herald's
multi-DNN AR/VR streams).  This module owns the dispatch decision only —
:mod:`repro.serve.fleet` owns running the per-chip simulations and
aggregating their reports.

Every policy is written as an *incremental* decision procedure — a
:meth:`~DispatchPolicy.begin` over the full trace followed by one
:meth:`~DispatchPolicy.choose` call per frame against a *fleet view* — so
the same policy object drives both dispatch regimes:

* **a-priori** (this module): :meth:`~DispatchPolicy.assign` feeds the
  policy an :class:`EstimateView` whose per-chip state is the estimated
  drain instant of everything dispatched so far, from the shape-keyed
  :class:`~repro.maestro.cost.CostModel` — never the simulated outcome,
  exactly like a real front-end routing on load predictions;
* **closed-loop** (:mod:`repro.serve.online`): the event loop feeds the
  policy an observed view backed by simulated chip queues, completions and
  faults — same policy code, measured state.

Four policies ship, plus the degenerate passthrough:

* ``passthrough``    — everything to chip 0 (the single-chip identity: a
  one-chip fleet must be bit-for-bit today's single-chip simulator);
* ``round-robin``    — frames cycle over the chips in arrival order;
* ``least-outstanding`` — each frame goes to the chip with the least
  estimated outstanding work at the frame's release instant;
* ``earliest-completion`` — SLA-aware: each frame goes to the chip whose
  estimated completion time (backlog drain + this frame's estimated service
  time on *that* chip) is earliest — on heterogeneous fleets this prefers a
  busier-but-faster chip when it still finishes first;
* ``sticky``         — per-stream affinity: every frame of one stream lands
  on one chip (no cross-chip reordering within a stream), streams placed by
  longest-processing-time-first onto the least-loaded chip.

All policies break ties on the lowest chip index, so a dispatch plan is a
pure function of ``(workload, fleet, policy)``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.accel.design import AcceleratorDesign
from repro.choices import ROUTER_POLICY_NAMES
from repro.exceptions import SearchError, WorkloadError
from repro.maestro.cost import CostModel
from repro.serve.trace import FrameTrace
from repro.serve.workload import StreamingWorkload


class FrameRef(NamedTuple):
    """One frame as the router sees it: which stream, which frame, when."""

    stream_index: int
    model_name: str
    frame_index: int
    release_s: float


class FrameCostEstimator:
    """Estimated per-frame service time of each model on each chip.

    The estimate is the sum over the model's layers of the best
    per-sub-accelerator latency (each layer on its cheapest array, ignoring
    queueing and dependence stalls) — an optimistic but *consistently ranked*
    proxy: a chip with more PEs or a better-matching dataflow gets a smaller
    number.  Estimates ride the shape-keyed cost-model memo, so they are
    nearly free once the model has warmed, and the memo entries double as
    warm-up for the per-chip simulations that follow.
    """

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost_model = cost_model or CostModel()

    def chip_key(self, chip: AcceleratorDesign) -> Tuple:
        """Cost-relevant identity of a chip (clones share estimates)."""
        return tuple(self.cost_model.hardware_key(acc)
                     for acc in chip.sub_accelerators)

    def frame_service_s(self, streaming: StreamingWorkload, model_name: str,
                        chip: AcceleratorDesign) -> float:
        """Estimated seconds one frame of ``model_name`` occupies ``chip``."""
        graph = streaming.to_workload_spec().model_graph(model_name)
        total = 0.0
        for layer in graph.dependence_order():
            total += min(
                self.cost_model.layer_cost(layer, acc).latency_cycles
                / acc.clock_hz
                for acc in chip.sub_accelerators)
        return total

    def service_table(self, streaming: StreamingWorkload,
                      chips: Sequence[AcceleratorDesign]
                      ) -> List[Dict[str, float]]:
        """Per-chip ``{model_name: estimated seconds}`` tables.

        Identically-configured chips (equal :meth:`chip_key`) share one
        computation, so a 64-way homogeneous fleet estimates each model once.
        """
        by_key: Dict[Tuple, Dict[str, float]] = {}
        tables: List[Dict[str, float]] = []
        for chip in chips:
            key = self.chip_key(chip)
            table = by_key.get(key)
            if table is None:
                table = {stream.model_name:
                         self.frame_service_s(streaming, stream.model_name, chip)
                         for stream in streaming.streams}
                by_key[key] = table
            tables.append(table)
        return tables


# ---------------------------------------------------------------------------
# Fleet views
# ---------------------------------------------------------------------------
class EstimateView:
    """The a-priori router's fleet state: estimated drain instants per chip.

    Policies never touch router state directly; they query a *view* — this
    one for offline planning, for the closed loop an
    :class:`repro.serve.online.ObservedView` of the engine's bound methods —
    through a fixed protocol:

    * :meth:`alive_chips` — dispatchable chip indices, ascending (``min``
      keeps the first of equal keys, so policies break ties to the lowest);
    * :meth:`outstanding_s` — seconds of unfinished work a frame arriving
      now would queue behind on a chip;
    * :meth:`completion_s` — the instant that chip would finish one frame of
      a model dispatched now (backlog drain plus the frame's own service).

    :meth:`commit` records a dispatch into the estimates; only the a-priori
    driver calls it.

    Here every chip is permanently alive and ``available_at[c]`` is the
    estimated instant chip ``c``'s dispatched-but-unfinished work drains,
    advanced by the *estimated* service time on every commit.
    """

    def __init__(self, service_tables: Sequence[Dict[str, float]]) -> None:
        self.service_tables = list(service_tables)
        self.available_at = [0.0] * len(self.service_tables)

    def alive_chips(self) -> List[int]:
        """Chips a frame may be dispatched to (all of them, a-priori)."""
        return list(range(len(self.service_tables)))

    def outstanding_s(self, chip_index: int, now_s: float) -> float:
        """Unfinished work (seconds) queued on a chip as seen at ``now_s``."""
        return max(0.0, self.available_at[chip_index] - now_s)

    def completion_s(self, chip_index: int, model_name: str,
                     now_s: float) -> float:
        """Estimated finish instant of one ``model_name`` frame sent now."""
        return (max(self.available_at[chip_index], now_s)
                + self.service_tables[chip_index][model_name])

    def commit(self, frame: FrameRef, chip_index: int) -> None:
        """Record that ``frame`` was dispatched to ``chip_index``."""
        self.available_at[chip_index] = self.completion_s(
            chip_index, frame.model_name, frame.release_s)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------
class DispatchPolicy:
    """Base class of routing policies: one incremental choice per frame.

    Subclasses implement :meth:`choose` (pick a chip for one frame given a
    fleet view) and optionally :meth:`begin` (reset per-run state and
    observe the full trace — ``sticky`` plans its stream placement here).
    :meth:`assign` is the a-priori driver: it walks the frames in global
    arrival order (release time, then stream position, then frame index — a
    deterministic total order even under jitter ties) against an
    :class:`EstimateView` and returns one chip index per frame, aligned with
    ``frames``.  The closed-loop engine calls :meth:`begin`/:meth:`choose`
    itself, against an observed view, at simulated dispatch instants.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def begin(self, frames: Sequence[FrameRef],
              service_tables: Sequence[Dict[str, float]]) -> None:
        """Reset per-run state before the first :meth:`choose` of a run."""

    def choose(self, frame: FrameRef, now_s: float,
               view: EstimateView) -> int:
        """Pick a chip for ``frame`` dispatched at ``now_s``.

        ``view.alive_chips()`` is guaranteed non-empty; the chosen index
        must come from it.  Policies must not mutate the view — the driver
        commits the decision.
        """
        raise NotImplementedError

    def assign(self, frames: Sequence[FrameRef],
               service_tables: Sequence[Dict[str, float]]) -> List[int]:
        view = EstimateView(service_tables)
        self.begin(frames, service_tables)
        choices: List[int] = []
        for frame in frames:
            chip = self.choose(frame, frame.release_s, view)
            view.commit(frame, chip)
            choices.append(chip)
        return choices


class PassthroughPolicy(DispatchPolicy):
    """Everything to the first live chip — the single-chip identity routing."""

    name = "passthrough"

    def choose(self, frame, now_s, view):
        return view.alive_chips()[0]


class RoundRobinPolicy(DispatchPolicy):
    """Frames cycle over the live chips in dispatch order, blind to load."""

    name = "round-robin"

    def __init__(self) -> None:
        self._position = 0

    def begin(self, frames, service_tables):
        self._position = 0

    def choose(self, frame, now_s, view):
        alive = view.alive_chips()
        chip = alive[self._position % len(alive)]
        self._position += 1
        return chip


class LeastOutstandingPolicy(DispatchPolicy):
    """Each frame to the live chip with the least outstanding work.

    A frame dispatched at ``t`` sees ``view.outstanding_s(chip, t)`` queued
    seconds on each chip and picks the minimum — the classic
    least-outstanding-requests balancer, measured in work rather than
    request counts so heavy and light models mix fairly.  A-priori the
    outstanding work is the estimate ledger; in the closed loop it is the
    observed queue depth.
    """

    name = "least-outstanding"

    def choose(self, frame, now_s, view):
        return min(view.alive_chips(),
                   key=lambda index: view.outstanding_s(index, now_s))


class EarliestCompletionPolicy(DispatchPolicy):
    """SLA-aware: each frame to the live chip expected to *finish* it first.

    Completion on chip ``c`` is backlog drain plus this frame's service time
    on that chip's arrays.  Unlike ``least-outstanding`` the frame's own
    cost participates, so on a heterogeneous fleet a busier-but-faster chip
    wins when it still completes the frame earlier; minimising per-frame
    completion is exactly minimising the term the deadline is written
    against.
    """

    name = "earliest-completion"

    def choose(self, frame, now_s, view):
        return min(
            view.alive_chips(),
            key=lambda index: view.completion_s(index, frame.model_name,
                                                now_s))


class StickyPolicy(DispatchPolicy):
    """Per-stream affinity: all frames of one stream go to one chip.

    Streams are placed in :meth:`begin`, before any frame flows, longest-
    processing-time first: streams in descending total estimated load, each
    onto the chip whose load-after-placement (existing load plus the
    stream's cost *on that chip*) is smallest.  Affinity preserves
    per-stream frame order on a single chip — the property stateful
    per-stream pipelines (trackers, temporal models) need — at the price of
    no intra-stream spreading.  If a stream's home chip dies mid-run the
    stream re-homes to the live chip with the least observed outstanding
    work, and stays there.
    """

    name = "sticky"

    def __init__(self) -> None:
        self._placement: Dict[int, int] = {}

    def begin(self, frames, service_tables):
        per_stream_frames: Dict[int, int] = {}
        stream_model: Dict[int, str] = {}
        for frame in frames:
            per_stream_frames[frame.stream_index] = (
                per_stream_frames.get(frame.stream_index, 0) + 1)
            stream_model[frame.stream_index] = frame.model_name

        def stream_load(stream_index: int, chip_index: int) -> float:
            return (per_stream_frames[stream_index]
                    * service_tables[chip_index][stream_model[stream_index]])

        # LPT order: heaviest stream (by its mean load across chips) first;
        # ties resolve on stream position for determinism.
        order = sorted(
            per_stream_frames,
            key=lambda stream_index: (
                -sum(stream_load(stream_index, chip)
                     for chip in range(len(service_tables)))
                / len(service_tables),
                stream_index))
        load = [0.0] * len(service_tables)
        placement: Dict[int, int] = {}
        for stream_index in order:
            chip = min(
                range(len(service_tables)),
                key=lambda index: (load[index] + stream_load(stream_index, index),
                                   index))
            placement[stream_index] = chip
            load[chip] += stream_load(stream_index, chip)
        self._placement = placement

    def choose(self, frame, now_s, view):
        chip = self._placement[frame.stream_index]
        alive = view.alive_chips()
        if chip not in alive:
            chip = min(alive,
                       key=lambda index: view.outstanding_s(index, now_s))
            self._placement[frame.stream_index] = chip
        return chip


#: Registry of the shipped policies, keyed by CLI-facing name (the
#: :data:`~repro.choices.ROUTER_POLICY_NAMES`).
ROUTER_POLICIES: Dict[str, type] = {
    policy.name: policy
    for policy in (PassthroughPolicy, RoundRobinPolicy, LeastOutstandingPolicy,
                   EarliestCompletionPolicy, StickyPolicy)
}


def policy_by_name(name: str) -> DispatchPolicy:
    """Instantiate a registered dispatch policy."""
    try:
        return ROUTER_POLICIES[name]()
    except KeyError:
        raise WorkloadError(
            f"unknown dispatch policy {name!r}; "
            f"available: {sorted(ROUTER_POLICY_NAMES)}") from None


# ---------------------------------------------------------------------------
# The router
# ---------------------------------------------------------------------------
class DispatchPlan:
    """Outcome of routing one workload over one fleet.

    ``assignments`` maps every global frame ``(model_name, frame_index)`` to
    its chip index — the partition invariant (each frame on exactly one chip)
    is checkable directly against it.  Each chip's assigned frames become a
    per-chip :class:`StreamingWorkload` whose frames are *renumbered locally*
    (chip instance ids are always ``model#0..k-1``); ``frame_maps`` records,
    per chip, the local instance id back to the global frame, so per-chip
    schedules can be re-keyed into fleet-wide accounting.  Chips assigned no
    frames carry ``None`` workloads.
    """

    def __init__(self, policy: str, assignments: Dict[Tuple[str, int], int],
                 chip_workloads: List[Optional[StreamingWorkload]],
                 frame_maps: List[Dict[str, Tuple[str, int]]]) -> None:
        self.policy = policy
        self.assignments = assignments
        self.chip_workloads = chip_workloads
        self.frame_maps = frame_maps



class Router:
    """Dispatches every frame of a streaming workload to one fleet chip.

    Parameters
    ----------
    policy:
        A policy name from :data:`ROUTER_POLICIES` or a
        :class:`DispatchPolicy` instance.
    estimator:
        Service-time estimator the load-aware policies consult; defaults to a
        fresh cost model (pass the simulation's estimator/cost model so
        routing warms the same memo the chips schedule with).
    """

    def __init__(self, policy: Union[str, DispatchPolicy] = "round-robin",
                 estimator: Optional[FrameCostEstimator] = None) -> None:
        self.policy = (policy_by_name(policy) if isinstance(policy, str)
                       else policy)
        self.estimator = estimator or FrameCostEstimator()

    def dispatch(self, streaming: StreamingWorkload,
                 chips: Sequence[AcceleratorDesign]) -> DispatchPlan:
        """Assign every frame to a chip and build the per-chip workloads."""
        if not chips:
            raise SearchError(
                "cannot dispatch onto an empty fleet: no chips to route to "
                "(the fleet has zero chips, or every chip is dead)")
        frames = arrival_order(streaming)
        service_tables = self.estimator.service_table(streaming, chips)
        choices = self.policy.assign(frames, service_tables)
        if len(choices) != len(frames):
            raise WorkloadError(
                f"policy {self.policy.name!r} returned {len(choices)} choices "
                f"for {len(frames)} frames")
        if any(not 0 <= choice < len(chips) for choice in choices):
            raise WorkloadError(
                f"policy {self.policy.name!r} routed a frame outside the "
                f"{len(chips)}-chip fleet")

        assignments = {
            (frame.model_name, frame.frame_index): choice
            for frame, choice in zip(frames, choices)
        }
        workloads, frame_maps = _build_chip_workloads(streaming, assignments,
                                                      len(chips))
        return DispatchPlan(policy=self.policy.name, assignments=assignments,
                            chip_workloads=workloads, frame_maps=frame_maps)


def arrival_order(streaming: StreamingWorkload) -> List[FrameRef]:
    """Every frame of the workload in global arrival order.

    Sorted by (release time, stream position, frame index): the order a
    front-end would observe, with deterministic tie-breaking so dispatch
    plans are reproducible across platforms.
    """
    keys = [(release, stream_index, frame_index)
            for stream_index, stream in enumerate(streaming.streams)
            for frame_index, release in enumerate(stream.release_times_s())]
    keys.sort()
    names = [stream.model_name for stream in streaming.streams]
    return [FrameRef(stream_index, names[stream_index], frame_index, release)
            for release, stream_index, frame_index in keys]


def _build_chip_workloads(streaming: StreamingWorkload,
                          assignments: Dict[Tuple[str, int], int],
                          num_chips: int
                          ) -> Tuple[List[Optional[StreamingWorkload]],
                                     List[Dict[str, Tuple[str, int]]]]:
    """Per-chip workloads (local frame renumbering) plus the id back-maps.

    A chip that receives *every* frame of a stream keeps the original stream
    spec object (so a passthrough plan hands chip 0 a workload equivalent to
    the input, jitter description included); a partial subset becomes a
    :class:`FrameTrace` carrying the subset's release instants verbatim.
    Local frame indices preserve global frame order, so a complete subset's
    instance ids coincide with the global ones.
    """
    workloads: List[Optional[StreamingWorkload]] = []
    frame_maps: List[Dict[str, Tuple[str, int]]] = []
    for chip_index in range(num_chips):
        streams = []
        frame_map: Dict[str, Tuple[str, int]] = {}
        for stream in streaming.streams:
            releases = stream.release_times_s()
            mine = [frame_index for frame_index in range(stream.frames)
                    if assignments[(stream.model_name, frame_index)] == chip_index]
            if not mine:
                continue
            for local_index, global_index in enumerate(mine):
                frame_map[f"{stream.model_name}#{local_index}"] = (
                    stream.model_name, global_index)
            if len(mine) == stream.frames:
                streams.append(stream)
            else:
                streams.append(FrameTrace(
                    model_name=stream.model_name,
                    releases_s=tuple(releases[frame_index]
                                     for frame_index in mine),
                    deadline_s=stream.effective_deadline_s,
                    fps=stream.fps,
                ))
        if streams:
            # Only the graphs this chip's streams reference: per-chip
            # workloads travel to pool workers as task pickles, and an
            # unreferenced model graph is dead weight there (zoo models
            # resolve by name in the worker anyway).
            served = {stream.model_name for stream in streams}
            workloads.append(StreamingWorkload(
                name=f"{streaming.name}@chip{chip_index}",
                streams=streams,
                models={name: graph for name, graph in streaming.models.items()
                        if name in served},
            ))
        else:
            workloads.append(None)
        frame_maps.append(frame_map)
    return workloads, frame_maps
