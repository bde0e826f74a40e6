"""Executable specification of the closed-loop event engine.

A direct re-statement of :class:`repro.serve.online.OnlineEngine`, written
for readability rather than speed:

* every event, arrivals included, goes through one heap ordered by
  ``(time, priority, sequence)``;
* the dispatchable chips are recomputed on every query: the live chips of
  the active prefix, or any live chip when the whole prefix is dead;
* a chip's in-flight frame is its own :class:`_InFlight` object;
* the policies' view forwards every query to the engine;
* :data:`POLICIES` break ties on an explicit ``index`` key, and
  :func:`arrival_order` sorts frame records by a key function.

The production engine must reproduce this reference event for event and
float for float; ``tests/test_closed_loop_properties.py`` compares the two
:class:`~repro.serve.online.OnlineOutcome` records field by field.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.serve.faults import FaultSpec
from repro.serve.online import AutoscaleInterval, AutoscalePolicy, OnlineOutcome
from repro.serve.router import (
    ROUTER_POLICIES,
    EarliestCompletionPolicy,
    FrameRef,
    LeastOutstandingPolicy,
    StickyPolicy,
)
from repro.serve.workload import StreamingWorkload

_COMPLETION, _DEATH, _SLOWDOWN, _ARRIVAL, _AUTOSCALE = range(5)


def arrival_order(streaming: StreamingWorkload) -> List[FrameRef]:
    """Every frame, sorted by (release time, stream position, frame index)."""
    frames: List[FrameRef] = []
    for stream_index, stream in enumerate(streaming.streams):
        for frame_index, release in enumerate(stream.release_times_s()):
            frames.append(FrameRef(stream_index=stream_index,
                                   model_name=stream.model_name,
                                   frame_index=frame_index,
                                   release_s=release))
    frames.sort(key=lambda frame: (frame.release_s, frame.stream_index,
                                   frame.frame_index))
    return frames


class _LeastOutstanding(LeastOutstandingPolicy):
    def choose(self, frame, now_s, view):
        return min(view.alive_chips(),
                   key=lambda index: (view.outstanding_s(index, now_s), index))


class _EarliestCompletion(EarliestCompletionPolicy):
    def choose(self, frame, now_s, view):
        return min(
            view.alive_chips(),
            key=lambda index: (
                view.completion_s(index, frame.model_name, now_s), index))


class _Sticky(StickyPolicy):
    def choose(self, frame, now_s, view):
        chip = self._placement[frame.stream_index]
        alive = view.alive_chips()
        if chip not in alive:
            chip = min(alive,
                       key=lambda index: (view.outstanding_s(index, now_s),
                                          index))
            self._placement[frame.stream_index] = chip
        return chip


#: The shipped policies, with the explicit tie-break where one is implicit.
POLICIES = {**ROUTER_POLICIES,
            **{policy.name: policy for policy in (
                _LeastOutstanding, _EarliestCompletion, _Sticky)}}


def _frame_id(frame: FrameRef) -> str:
    return f"{frame.model_name}#{frame.frame_index}"


class _InFlight:
    """The frame a chip is serving, with lazily tracked progress."""

    def __init__(self, frame: int, remaining_s: float, now_s: float) -> None:
        self.frame = frame
        self.remaining_s = remaining_s
        self.last_update_s = now_s
        self.serving_since_s = now_s


class _ChipState:
    def __init__(self) -> None:
        self.alive = True
        self.factor = 1.0
        self.queue: Deque[int] = deque()
        self.current: Optional[_InFlight] = None
        self.busy_s = 0.0
        self.generation = 0

    def pending_frames(self) -> int:
        return len(self.queue) + (1 if self.current is not None else 0)


class _View:
    def __init__(self, engine: "ReferenceEngine") -> None:
        self._engine = engine

    def alive_chips(self) -> List[int]:
        return self._engine.dispatchable_chips()

    def outstanding_s(self, chip_index: int, now_s: float) -> float:
        return self._engine.chip_outstanding_s(chip_index, now_s)

    def completion_s(self, chip_index: int, model_name: str,
                     now_s: float) -> float:
        state = self._engine.chips[chip_index]
        return (now_s + self._engine.chip_outstanding_s(chip_index, now_s)
                + self._engine.service_tables[chip_index][model_name]
                * state.factor)


class ReferenceEngine:
    """The closed loop on the same inputs as the production engine.

    Takes valid inputs only: the production engine's input checks are not
    restated here.
    """

    def __init__(self, policy, frames: Sequence[FrameRef],
                 service_tables: Sequence[Dict[str, float]],
                 faults: Optional[FaultSpec] = None,
                 autoscale: Optional[AutoscalePolicy] = None,
                 work_stealing: bool = True) -> None:
        self.policy = policy
        self.frames = list(frames)
        self.service_tables = list(service_tables)
        self.faults = faults or FaultSpec()
        self.autoscale = autoscale
        self.work_stealing = work_stealing
        self.chips = [_ChipState() for _ in self.service_tables]
        self.view = _View(self)
        self.active_count = (len(self.chips) if autoscale is None
                             else min(autoscale.min_chips, len(self.chips)))
        self._heap: list = []
        self._sequence = 0
        self._arrivals_pending = len(self.frames)
        self.outcome = OnlineOutcome(self.frames)

    def _push(self, time_s: float, priority: int, payload: object) -> None:
        heapq.heappush(self._heap, (time_s, priority, self._sequence, payload))
        self._sequence += 1

    def dispatchable_chips(self) -> List[int]:
        candidates = [chip for chip in range(self.active_count)
                      if self.chips[chip].alive]
        if candidates:
            return candidates
        return [chip for chip in range(len(self.chips))
                if self.chips[chip].alive]

    def chip_outstanding_s(self, chip_index: int, now_s: float) -> float:
        state = self.chips[chip_index]
        total = 0.0
        if state.current is not None:
            elapsed = now_s - state.current.last_update_s
            remaining = max(0.0,
                            state.current.remaining_s - elapsed / state.factor)
            total += remaining * state.factor
        for position in state.queue:
            total += (self.service_tables[chip_index]
                      [self.frames[position].model_name] * state.factor)
        return total

    def _dispatch(self, position: int, now_s: float) -> None:
        candidates = self.dispatchable_chips()
        frame = self.frames[position]
        if not candidates:
            self.outcome.lost_frame_ids.append(_frame_id(frame))
            return
        chip = self.policy.choose(frame, now_s, self.view)
        assert chip in candidates
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
        victim_index = min(candidates,
                           key=lambda chip: (-len(self.chips[chip].queue),
                                             chip))
        position = self.chips[victim_index].queue.pop()
        self.outcome.stolen_frames += 1
        self.outcome.chip_history[position].append(thief_index)
        self.chips[thief_index].queue.append(position)
        self._maybe_start(thief_index, now_s)

    def _on_completion(self, now_s: float, chip_index: int,
                       generation: int) -> None:
        state = self.chips[chip_index]
        if (not state.alive or state.current is None
                or generation != state.generation):
            return
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
        state.generation += 1
        orphans: List[int] = []
        if state.current is not None:
            state.busy_s += now_s - state.current.serving_since_s
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

    def _on_autoscale(self, now_s: float, index: int) -> None:
        pending = sum(state.pending_frames() for state in self.chips)
        before = self.active_count
        self.active_count = self.autoscale.desired_chips(
            pending, len(self.chips))
        self.outcome.intervals.append(AutoscaleInterval(
            index=index, start_s=now_s - self.autoscale.interval_s,
            end_s=now_s, pending_frames=pending, active_before=before,
            active_after=self.active_count))
        if self._arrivals_pending > 0 or pending > 0:
            self._push(now_s + self.autoscale.interval_s, _AUTOSCALE,
                       index + 1)

    def run(self) -> OnlineOutcome:
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
                self._on_completion(now_s, *payload)
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
