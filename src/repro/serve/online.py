"""The closed loop: event-driven fleet serving on observed feedback.

The a-priori router (:mod:`repro.serve.router`) plans the entire dispatch up
front from cost estimates; a production front-end reacts to what it *sees* —
queue depths, completions, stragglers, dead chips — under time-varying load.
This module is that reactive half: a deterministic discrete-event engine
that advances per-chip clocks, dispatches each frame at its arrival instant
on **observed** outstanding work, re-dispatches frames orphaned by chip
death, steals work from backlogged chips, and drives an autoscaling
controller against the live backlog.

The engine deliberately reuses the router's policy objects unchanged: every
:class:`~repro.serve.router.DispatchPolicy` is an incremental
``begin``/``choose`` procedure over an abstract fleet view, so the *same
policy code* runs a-priori (against the
:class:`~repro.serve.router.EstimateView` estimate ledger) and closed-loop
(against the :class:`ObservedView` backed by simulated chip queues).
Every generated frame is either completed on exactly one chip or explicitly
recorded in ``lost_frame_ids`` (possible only when *no* chip is alive at a
dispatch instant); the hypothesis harness pins this conservation and
liveness across random fleets, traffic processes and faults.

Each chip is modelled as a frame-serial queue server whose per-frame service
time is **measured**, not estimated: the makespan of scheduling one frame
alone on that chip with the real
:class:`~repro.core.scheduler.HeraldScheduler` (deduplicated across
identically-configured chips, computed through the execution backend so a
process pool probes chips in parallel).  Slowdown windows scale the server's
progress rate; chip death orphans its queue.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from functools import cached_property
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.metrics import percentile
from repro.exceptions import SearchError, SpecError, WorkloadError
from repro.exec.tasks import EvaluationTask
from repro.serve.faults import FaultSpec
from repro.serve.fleet import ChipStats, Fleet, FleetReport
from repro.serve.router import DispatchPolicy, FrameCostEstimator, FrameRef
from repro.serve.trace import FrameTrace
from repro.serve.workload import StreamingWorkload
from repro.validation import (
    check_keys,
    expect_mapping,
    expect_number,
    expect_pos_int,
    spec_path,
)

# Event priorities: at one simulated instant, completions land before
# deaths (a frame finishing exactly when its chip dies did finish), deaths
# before slowdown transitions, transitions before arrivals (an arriving
# frame sees the chip's new speed), and autoscaling observes last.
_COMPLETION, _DEATH, _SLOWDOWN, _ARRIVAL, _AUTOSCALE = range(5)

# The controller re-arms every interval until the backlog drains, so a tiny
# interval (say 1e-300 s) would tick for longer than any run can wait.
# 1,000,000 keeps every run that finishes today unchanged -- the largest
# golden records 159 intervals -- and turns the rest into a typed error.
_MAX_AUTOSCALE_INTERVALS = 1_000_000


# ---------------------------------------------------------------------------
# Autoscaling
# ---------------------------------------------------------------------------
class _AutoscalePolicyFields(NamedTuple):
    interval_s: float
    min_chips: int = 1
    max_chips: Optional[int] = None
    target_queue_per_chip: float = 2.0


class AutoscalePolicy(_AutoscalePolicyFields):
    """A periodic backlog-tracking autoscaler over a homogeneous chip pool.

    Every ``interval_s`` the controller observes the fleet-wide pending
    frame count (queued plus in flight) and resizes the *active prefix* of
    the fleet to ``ceil(pending / target_queue_per_chip)``, clamped to
    ``[min_chips, max_chips]``.  Deactivated chips drain their queues but
    receive no new dispatches; this turns the static
    :func:`~repro.serve.fleet.min_chips_for_sla` bisection into a policy
    evaluated against time-varying load, reported per interval.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "AutoscalePolicy":
        self = super().__new__(cls, *args, **kwargs)
        if self.interval_s <= 0.0 or not math.isfinite(self.interval_s):
            raise WorkloadError(
                f"autoscale interval_s must be finite and positive "
                f"(got {self.interval_s})")
        if self.min_chips < 1:
            raise WorkloadError(
                f"autoscale min_chips must be >= 1 (got {self.min_chips})")
        if self.max_chips is not None and self.max_chips < self.min_chips:
            raise WorkloadError(
                f"autoscale max_chips must be >= min_chips "
                f"(got {self.max_chips} < {self.min_chips})")
        if self.target_queue_per_chip <= 0.0:
            raise WorkloadError(
                f"autoscale target_queue_per_chip must be positive "
                f"(got {self.target_queue_per_chip})")
        return self

    def _replace(self, **changes) -> "AutoscalePolicy":
        return AutoscalePolicy(**{**self._asdict(), **changes})

    def desired_chips(self, pending_frames: int, fleet_size: int) -> int:
        """Active-prefix size for the observed backlog."""
        ceiling = min(self.max_chips or fleet_size, fleet_size)
        wanted = math.ceil(pending_frames / self.target_queue_per_chip)
        return max(min(self.min_chips, fleet_size),
                   min(wanted, ceiling))


_AUTOSCALE_KEYS = ("interval_s", "interval_ms", "min_chips", "max_chips",
                   "target_queue_per_chip")


def autoscale_from_spec(spec: object,
                        path: str = "autoscale") -> AutoscalePolicy:
    """Build an autoscaling policy from its declarative spec."""
    mapping = expect_mapping(spec, path)
    check_keys(mapping, _AUTOSCALE_KEYS, path)
    if ("interval_s" in mapping) == ("interval_ms" in mapping):
        raise SpecError(f"{path}: give exactly one of interval_s or "
                        f"interval_ms")
    if "interval_s" in mapping:
        interval = expect_number(mapping["interval_s"],
                                 spec_path(path, "interval_s"),
                                 minimum=0.0, exclusive=True)
    else:
        interval = expect_number(mapping["interval_ms"],
                                 spec_path(path, "interval_ms"),
                                 minimum=0.0, exclusive=True) / 1e3
    max_chips = mapping.get("max_chips")
    if max_chips is not None:
        max_chips = expect_pos_int(max_chips, spec_path(path, "max_chips"))
    try:
        return AutoscalePolicy(
            interval_s=interval,
            min_chips=expect_pos_int(mapping.get("min_chips", 1),
                                     spec_path(path, "min_chips")),
            max_chips=max_chips,
            target_queue_per_chip=expect_number(
                mapping.get("target_queue_per_chip", 2.0),
                spec_path(path, "target_queue_per_chip"),
                minimum=0.0, exclusive=True),
        )
    except WorkloadError as error:
        raise SpecError(f"{path}: {error}") from None


class AutoscaleInterval(NamedTuple):
    """One controller observation: backlog seen, sizing decision taken."""

    index: int
    start_s: float
    end_s: float
    pending_frames: int
    active_before: int
    active_after: int

    def summary(self) -> Dict[str, float]:
        """The interval as a strict-JSON-serializable dictionary."""
        return {
            "index": float(self.index),
            "start_s": self.start_s,
            "end_s": self.end_s,
            "pending_frames": float(self.pending_frames),
            "active_before": float(self.active_before),
            "active_after": float(self.active_after),
        }


# ---------------------------------------------------------------------------
# Outcome records
# ---------------------------------------------------------------------------
class OnlineFrameRecord(NamedTuple):
    """One frame's closed-loop life: every chip it touched, when it ran.

    ``chip_history`` lists each chip the frame was dispatched to in order
    (length > 1 means re-dispatch after chip death or a work steal);
    ``finish_s is None`` marks a lost frame (dropped because no chip was
    alive at a dispatch instant).
    """

    frame_id: str
    model_name: str
    release_s: float
    chip_history: Tuple[int, ...]
    start_s: Optional[float]
    finish_s: Optional[float]

    @property
    def lost(self) -> bool:
        """True when the frame was never completed."""
        return self.finish_s is None

    @property
    def latency_s(self) -> Optional[float]:
        """Release-to-finish latency; ``None`` for lost frames."""
        if self.finish_s is None:
            return None
        return self.finish_s - self.release_s


class OnlineStats(NamedTuple):
    """Closed-loop bookkeeping attached to a :class:`FleetReport`.

    Present (non-``None``) on a report only when the online engine produced
    it; the a-priori report summary is unchanged.
    """

    work_stealing: bool
    redispatched_frames: int
    stolen_frames: int
    lost_frame_ids: Tuple[str, ...] = ()
    intervals: Tuple[AutoscaleInterval, ...] = ()

    def summary(self) -> Dict[str, object]:
        """The stats as a strict-JSON-serializable dictionary."""
        return {
            # Always 1.0 since the loop has one regime; kept so the versioned
            # report format and every golden stay byte-identical.
            "feedback": 1.0,
            "work_stealing": float(self.work_stealing),
            "redispatched_frames": float(self.redispatched_frames),
            "stolen_frames": float(self.stolen_frames),
            "lost_frames": float(len(self.lost_frame_ids)),
            "lost_frame_ids": list(self.lost_frame_ids),
            "autoscale_intervals": [interval.summary()
                                    for interval in self.intervals],
        }


class _OnlineFleetResultFields(NamedTuple):
    report: FleetReport
    stats: OnlineStats
    outcome: OnlineOutcome


class OnlineFleetResult(_OnlineFleetResultFields):
    """Outcome of one closed-loop fleet simulation.

    ``outcome`` is the engine's bookkeeping, indexed by arrival position;
    the per-frame ``frames`` records and the ``assignments`` map (each
    dispatched frame's last chip) are built from it on first read.
    """

    # No ``__slots__``: the per-frame views are cached in the instance dict.

    @cached_property
    def frames(self) -> Tuple[OnlineFrameRecord, ...]:
        outcome = self.outcome
        return tuple(OnlineFrameRecord(
            frame_id=_frame_id(frame), model_name=frame.model_name,
            release_s=frame.release_s,
            chip_history=tuple(outcome.chip_history[position] or ()),
            start_s=outcome.start_s[position],
            finish_s=outcome.finish_s[position])
            for position, frame in enumerate(outcome.frames))

    @cached_property
    def assignments(self) -> Dict[Tuple[str, int], int]:
        return {(frame.model_name, frame.frame_index): history[-1]
                for frame, history in zip(self.outcome.frames,
                                          self.outcome.chip_history)
                if history}


# ---------------------------------------------------------------------------
# Measured service times
# ---------------------------------------------------------------------------
def measured_service_tables(streaming: StreamingWorkload,
                            chips: Sequence, backend,
                            estimator: Optional[FrameCostEstimator] = None
                            ) -> List[Dict[str, float]]:
    """Per-chip ``{model: measured seconds}`` — one frame alone, really run.

    The closed loop's queue-model service time: the makespan of scheduling a
    single frame of the model on the chip with the real scheduler (so
    dependence stalls and array contention are in the number, unlike the
    estimator's optimistic per-layer minima).  Identically-configured chips
    share one probe; probes run as ordinary backend tasks, so a process
    pool measures chips in parallel.
    """
    estimator = estimator or FrameCostEstimator(backend.cost_model)
    probes: List[Tuple[Tuple, str]] = []
    seen = set()
    for chip in chips:
        key = estimator.chip_key(chip)
        for stream in streaming.streams:
            if (key, stream.model_name) not in seen:
                seen.add((key, stream.model_name))
                probes.append((key, stream.model_name))
    probe_chip = {estimator.chip_key(chip): chip for chip in chips}
    deadline = {stream.model_name: stream.effective_deadline_s
                for stream in streaming.streams}
    fps = {stream.model_name: stream.fps for stream in streaming.streams}
    tasks = [
        EvaluationTask(
            task_id=index,
            design=probe_chip[key],
            workload=StreamingWorkload(
                name=f"{streaming.name}::probe::{model}",
                streams=[FrameTrace(model_name=model, releases_s=(0.0,),
                                    deadline_s=deadline[model],
                                    fps=fps[model])],
                # Custom graphs travel with the probe; zoo models resolve
                # by name inside the evaluator exactly as fleet chips do.
                models={name: graph for name, graph in streaming.models.items()
                        if name == model},
            ),
            category="fleet-probe")
        for index, (key, model) in enumerate(probes)
    ]
    measured: Dict[Tuple[Tuple, str], float] = {}
    for (key, model), result in zip(probes, backend.run(tasks)):
        clock = probe_chip[key].sub_accelerators[0].clock_hz
        measured[(key, model)] = result.schedule.makespan_cycles / clock
    return [{stream.model_name:
             measured[(estimator.chip_key(chip), stream.model_name)]
             for stream in streaming.streams}
            for chip in chips]


# ---------------------------------------------------------------------------
# The event engine
# ---------------------------------------------------------------------------
class _InFlight:
    """The frame a chip is currently serving, with lazy progress tracking."""

    __slots__ = ("frame", "remaining_s", "last_update_s", "serving_since_s")

    def __init__(self, frame: int, remaining_s: float,
                 now_s: float) -> None:
        self.frame = frame  # arrival position
        self.remaining_s = remaining_s  # unit-speed seconds of work left
        self.last_update_s = now_s
        self.serving_since_s = now_s


class _ChipState:
    """One chip as a frame-serial queue server."""

    __slots__ = ("alive", "factor", "queue", "current", "busy_s", "generation")

    def __init__(self) -> None:
        self.alive = True
        self.factor = 1.0  # wall seconds per unit-speed second (>= 1)
        self.queue: Deque[int] = deque()  # arrival positions
        self.current: Optional[_InFlight] = None
        self.busy_s = 0.0
        self.generation = 0  # bumped to invalidate scheduled completions

    def pending_frames(self) -> int:
        return len(self.queue) + (1 if self.current is not None else 0)


class ObservedView:
    """The closed-loop fleet view: live queue state, not estimates.

    Implements the same protocol as
    :class:`~repro.serve.router.EstimateView`, so dispatch policies run
    unmodified; ``commit`` is a no-op because the engine's enqueue *is* the
    state change the estimate ledger only approximates.
    """

    def __init__(self, engine: "OnlineEngine") -> None:
        self._engine = engine

    @property
    def num_chips(self) -> int:
        return len(self._engine.chips)

    def alive_chips(self) -> List[int]:
        """Dispatchable chips: the live members of the active prefix."""
        return self._engine.dispatchable_chips()

    def outstanding_s(self, chip_index: int, now_s: float) -> float:
        """Observed wall-seconds of unfinished work queued on the chip."""
        return self._engine.chip_outstanding_s(chip_index, now_s)

    def completion_s(self, chip_index: int, model_name: str,
                     now_s: float) -> float:
        state = self._engine.chips[chip_index]
        return (now_s + self._engine.chip_outstanding_s(chip_index, now_s)
                + self._engine.service_tables[chip_index][model_name]
                * state.factor)

    def commit(self, frame: FrameRef, chip_index: int) -> None:
        """No-op: the engine's enqueue is the observable state change."""


class OnlineOutcome:
    """Raw engine bookkeeping, turned into a report by the caller.

    Per-frame lists are indexed by arrival position; ``None`` means unset.
    """

    def __init__(self, frames: List[FrameRef],
                 start_s: List[Optional[float]],
                 finish_s: List[Optional[float]],
                 chip_history: List[Optional[List[int]]]) -> None:
        self.frames = frames
        self.start_s = start_s
        self.finish_s = finish_s
        self.chip_history = chip_history
        self.lost_frame_ids: List[str] = []
        self.busy_s: List[float] = []
        self.redispatched_frames = 0
        self.stolen_frames = 0
        self.intervals: List[AutoscaleInterval] = []


def _frame_id(frame: FrameRef) -> str:
    return f"{frame.model_name}#{frame.frame_index}"


class OnlineEngine:
    """Deterministic discrete-event loop over frame-serial chip servers.

    Event ordering is a total order: ``(time, priority, sequence)`` with a
    monotone sequence counter, so simultaneous events resolve identically
    on every platform (and simultaneous arrivals resolve in global arrival
    order, matching the a-priori driver).
    """

    def __init__(self, policy: DispatchPolicy, frames: Sequence[FrameRef],
                 service_tables: Sequence[Dict[str, float]],
                 faults: Optional[FaultSpec] = None,
                 autoscale: Optional[AutoscalePolicy] = None,
                 work_stealing: bool = True) -> None:
        if not service_tables:
            raise SearchError(
                "cannot dispatch onto an empty fleet: no chips to route to "
                "(the fleet has zero chips, or every chip is dead)")
        self.policy = policy
        self.frames = list(frames)
        self.service_tables = list(service_tables)
        self.faults = faults or FaultSpec()
        self.autoscale = autoscale
        self.work_stealing = work_stealing
        self.chips = [_ChipState() for _ in self.service_tables]
        self.view = ObservedView(self)
        self.faults.validate_for_fleet(len(self.chips))
        if autoscale is not None and autoscale.min_chips > len(self.chips):
            raise WorkloadError(
                f"autoscale min_chips ({autoscale.min_chips}) exceeds the "
                f"fleet size ({len(self.chips)})")
        if all(self.faults.death_s(chip) == 0.0
               for chip in range(len(self.chips))):
            raise SearchError(
                "cannot dispatch onto an empty fleet: no chips to route to "
                "(the fleet has zero chips, or every chip is dead)")
        # The controller ticks at least until the last arrival, and k
        # accumulated ticks reach at most k * interval_s (times 1 + k * 2**-53
        # for rounding), so a late enough arrival is over the cap up front.
        if autoscale is not None and self.frames and (
                max(frame.release_s for frame in self.frames)
                > _MAX_AUTOSCALE_INTERVALS * autoscale.interval_s * 1.000001):
            raise self._too_many_intervals()
        self.active_count = (len(self.chips) if autoscale is None
                             else min(autoscale.min_chips, len(self.chips)))
        self._heap: List[Tuple[float, int, int, object]] = []
        self._sequence = 0
        self._arrivals_pending = len(self.frames)
        unset = [None] * len(self.frames)  # start_s, finish_s, chip_history
        self.outcome = OnlineOutcome(self.frames, unset, unset[:], unset[:])

    # -- event plumbing -------------------------------------------------
    def _push(self, time_s: float, priority: int, payload: object) -> None:
        heapq.heappush(self._heap, (time_s, priority, self._sequence, payload))
        self._sequence += 1

    # -- fleet state queries (the view delegates here) ------------------
    def dispatchable_chips(self) -> List[int]:
        """Live chips in the active prefix; any live chip as a fallback.

        The fallback preserves liveness under autoscaling: if every chip
        the controller kept active has died, frames go to whatever is
        still alive rather than being lost.
        """
        candidates = [chip for chip in range(self.active_count)
                      if self.chips[chip].alive]
        if candidates:
            return candidates
        return [chip for chip in range(len(self.chips))
                if self.chips[chip].alive]

    def chip_outstanding_s(self, chip_index: int, now_s: float) -> float:
        # Left to right, remaining*f + s1*f + s2*f + ...: the goldens pin this
        # order, which sum() (compensated since 3.12) would not keep.
        state = self.chips[chip_index]
        total = 0.0
        if state.current is not None:
            elapsed = now_s - state.current.last_update_s
            remaining = max(0.0,
                            state.current.remaining_s - elapsed / state.factor)
            total += remaining * state.factor
        table, frames = self.service_tables[chip_index], self.frames
        for position in state.queue:
            total += table[frames[position].model_name] * state.factor
        return total

    def _pending_frames(self) -> int:
        return sum(state.pending_frames() for state in self.chips)

    # -- serving --------------------------------------------------------
    def _dispatch(self, position: int, now_s: float) -> None:
        candidates = self.dispatchable_chips()
        frame = self.frames[position]
        if not candidates:
            self.outcome.lost_frame_ids.append(_frame_id(frame))
            return
        chip = self.policy.choose(frame, now_s, self.view)
        if chip not in candidates:
            raise WorkloadError(
                f"policy {self.policy.name!r} routed frame {_frame_id(frame)} "
                f"to chip {chip}, which is not dispatchable")
        history = self.outcome.chip_history
        history[position] = (history[position] or []) + [chip]
        self.chips[chip].queue.append(position)
        self._maybe_start(chip, now_s)

    def _maybe_start(self, chip_index: int, now_s: float) -> None:
        state = self.chips[chip_index]
        if state.current is not None or not state.queue:
            return
        position = state.queue.popleft()
        state.factor = self.faults.speed_factor(chip_index, now_s)
        work = self.service_tables[chip_index][
            self.frames[position].model_name]
        state.current = _InFlight(position, remaining_s=work, now_s=now_s)
        state.generation += 1
        self.outcome.start_s[position] = now_s
        self._push(now_s + work * state.factor, _COMPLETION,
                   (chip_index, state.generation))

    def _steal(self, thief_index: int, now_s: float) -> None:
        candidates = [chip for chip in self.dispatchable_chips()
                      if chip != thief_index and self.chips[chip].queue]
        if not candidates:
            return
        # Most-backlogged victim, lowest index on ties; take its newest
        # (tail) frame so the victim's FIFO head keeps its position.
        victim_index = min(candidates,
                           key=lambda chip: (-len(self.chips[chip].queue),
                                             chip))
        position = self.chips[victim_index].queue.pop()
        self.outcome.stolen_frames += 1
        self.outcome.chip_history[position].append(thief_index)
        self.chips[thief_index].queue.append(position)
        self._maybe_start(thief_index, now_s)

    # -- event handlers -------------------------------------------------
    def _on_completion(self, now_s: float, chip_index: int,
                       generation: int) -> None:
        state = self.chips[chip_index]
        if (not state.alive or state.current is None
                or generation != state.generation):
            return  # superseded by a death or a slowdown reschedule
        state.busy_s += now_s - state.current.serving_since_s
        self.outcome.finish_s[state.current.frame] = now_s
        state.current = None
        self._maybe_start(chip_index, now_s)
        if state.current is None and self.work_stealing:
            self._steal(chip_index, now_s)

    def _on_death(self, now_s: float, chip_index: int) -> None:
        state = self.chips[chip_index]
        if not state.alive:
            return
        state.alive = False
        state.generation += 1  # invalidate any scheduled completion
        orphans: List[int] = []
        if state.current is not None:
            state.busy_s += now_s - state.current.serving_since_s  # wasted
            orphans.append(state.current.frame)
            state.current = None
        orphans.extend(state.queue)
        state.queue.clear()
        orphans.sort(key=lambda position: (
            self.frames[position].release_s,
            self.frames[position].stream_index,
            self.frames[position].frame_index))
        for position in orphans:
            self.outcome.redispatched_frames += 1
            self._dispatch(position, now_s)

    def _on_slowdown(self, now_s: float, chip_index: int) -> None:
        state = self.chips[chip_index]
        if not state.alive:
            return
        new_factor = self.faults.speed_factor(chip_index, now_s)
        if state.current is not None:
            elapsed = now_s - state.current.last_update_s
            state.current.remaining_s = max(
                0.0, state.current.remaining_s - elapsed / state.factor)
            state.current.last_update_s = now_s
            state.factor = new_factor
            state.generation += 1
            self._push(now_s + state.current.remaining_s * new_factor,
                       _COMPLETION, (chip_index, state.generation))
        else:
            state.factor = new_factor

    def _too_many_intervals(self) -> WorkloadError:
        return WorkloadError(
            f"autoscale interval_s {self.autoscale.interval_s:g} is too "
            f"small: the controller would record more than "
            f"{_MAX_AUTOSCALE_INTERVALS:,} intervals; use a longer interval")

    def _on_autoscale(self, now_s: float, index: int) -> None:
        assert self.autoscale is not None
        if index > _MAX_AUTOSCALE_INTERVALS:
            raise self._too_many_intervals()
        pending = self._pending_frames()
        before = self.active_count
        self.active_count = self.autoscale.desired_chips(
            pending, len(self.chips))
        self.outcome.intervals.append(AutoscaleInterval(
            index=index,
            start_s=now_s - self.autoscale.interval_s,
            end_s=now_s,
            pending_frames=pending,
            active_before=before,
            active_after=self.active_count,
        ))
        if self._arrivals_pending > 0 or pending > 0:
            self._push(now_s + self.autoscale.interval_s, _AUTOSCALE,
                       index + 1)

    # -- the loop -------------------------------------------------------
    def run(self) -> OnlineOutcome:
        """Play the whole event script to quiescence."""
        self.policy.begin(self.frames, self.service_tables)
        for position, frame in enumerate(self.frames):
            self._push(frame.release_s, _ARRIVAL, position)
        for failure in self.faults.failures:
            self._push(failure.at_s, _DEATH, failure.chip_index)
        for chip_index in range(len(self.chips)):
            for transition_s in self.faults.transition_times(chip_index):
                self._push(transition_s, _SLOWDOWN, chip_index)
        if self.autoscale is not None:
            self._push(self.autoscale.interval_s, _AUTOSCALE, 1)

        while self._heap:
            now_s, priority, _, payload = heapq.heappop(self._heap)
            if priority == _COMPLETION:
                chip_index, generation = payload
                self._on_completion(now_s, chip_index, generation)
            elif priority == _DEATH:
                self._on_death(now_s, payload)
            elif priority == _SLOWDOWN:
                self._on_slowdown(now_s, payload)
            elif priority == _ARRIVAL:
                self._arrivals_pending -= 1
                self._dispatch(payload, now_s)
            else:
                self._on_autoscale(now_s, payload)

        self.outcome.busy_s = [state.busy_s for state in self.chips]
        return self.outcome


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------
def build_online_result(streaming: StreamingWorkload, fleet: Fleet,
                        policy_name: str, outcome: OnlineOutcome,
                        stats: OnlineStats,
                        drop_deadline_factor: float) -> OnlineFleetResult:
    """Fold raw engine bookkeeping into a :class:`FleetReport`.

    The accounting mirrors the a-priori aggregation: a miss is the same
    strict ``latency > deadline``, a drop the same
    ``latency > drop_deadline_factor * deadline``, percentiles pool the
    completed frames' latencies.  Closed-loop chips are single queue
    servers, so utilisation is ``busy_s / horizon_s`` per chip (not divided
    across sub-accelerator arrays).  Lost frames appear only in
    ``stats.lost_frame_ids`` — they have no latency.
    """
    deadline_by_stream = {index: stream.effective_deadline_s
                          for index, stream in enumerate(streaming.streams)}
    horizon_s = max((finish for finish in outcome.finish_s
                     if finish is not None), default=0.0)

    latencies: Dict[str, float] = {}
    missed: List[str] = []
    per_chip_latencies: List[List[float]] = [[] for _ in fleet.chips]
    per_chip = [dict(frames=0, missed=0, backlogged=0, dropped=0)
                for _ in fleet.chips]
    for position, frame in enumerate(outcome.frames):
        finish = outcome.finish_s[position]
        if finish is None:
            continue
        frame_id = _frame_id(frame)
        latency = finish - frame.release_s
        latencies[frame_id] = latency
        chip_index = outcome.chip_history[position][-1]
        bound = deadline_by_stream[frame.stream_index]
        counters = per_chip[chip_index]
        counters["frames"] += 1
        per_chip_latencies[chip_index].append(latency)
        if latency > bound:
            missed.append(frame_id)
            counters["missed"] += 1
        if latency > drop_deadline_factor * bound:
            counters["dropped"] += 1
        if outcome.start_s[position] > frame.release_s:
            counters["backlogged"] += 1

    chip_stats = []
    for chip_index, chip in enumerate(fleet.chips):
        counters = per_chip[chip_index]
        samples = per_chip_latencies[chip_index]
        chip_stats.append(ChipStats(
            chip_name=chip.name,
            frames=counters["frames"],
            busy_s=outcome.busy_s[chip_index],
            utilisation=(outcome.busy_s[chip_index] / horizon_s
                         if horizon_s > 0.0 else 0.0),
            missed_frames=counters["missed"],
            backlogged_frames=counters["backlogged"],
            dropped_frames=counters["dropped"],
            p99_latency_s=percentile(samples, 99.0) if samples else 0.0,
        ))

    report = FleetReport(
        fleet_name=fleet.name,
        workload_name=streaming.name,
        policy=policy_name,
        chips=chip_stats,
        frame_latencies_s=latencies,
        missed_frame_ids=tuple(sorted(missed)),
        horizon_s=horizon_s,
        online=stats,
    )
    return OnlineFleetResult(report=report, stats=stats, outcome=outcome)
