"""The streaming serving simulator: frame arrivals -> SLA report.

:class:`ServingSimulator` runs a :class:`~repro.serve.workload.StreamingWorkload`
through the release-time-aware online mode of
:class:`~repro.core.scheduler.HeraldScheduler` (frames become schedulable only
at their release time, riding the same event heap as the batch path) and turns
the resulting schedule into per-stream SLA statistics:

* **latency percentiles** (p50 / p95 / p99, mean, max) of per-frame latency
  (last layer finish minus frame release);
* **deadline-miss rate** against each stream's per-frame deadline;
* **backlogged frames** — frames that finish after the next frame of the same
  stream has already been released, i.e. the stream is falling behind;
* **dropped frames** — late-drop accounting: frames later than
  :data:`DROP_DEADLINE_FACTOR` deadlines would have been discarded by a real
  serving pipeline, so they are reported separately from ordinary misses.

:func:`sustained_fps` binary-searches the largest uniform rate multiplier the
design sustains with zero deadline misses — the serving analogue of the
paper's throughput question.  Its probes need only a yes/no answer, so each
one stops scheduling at the first layer that finishes past its frame's
deadline (a certain miss); a probe that runs to the end is judged by the
same accounting as :meth:`ServingSimulator.simulate`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.analysis.metrics import deadline_miss_rate, percentile
from repro.core.schedule import Schedule
from repro.core.scheduler import HeraldScheduler
from repro.maestro.hardware import SubAcceleratorConfig
from repro.serve.trace import report_number
from repro.serve.workload import StreamingWorkload

#: A frame later than this many deadlines is accounted as dropped (a real
#: serving pipeline would have discarded it instead of displaying it late).
DROP_DEADLINE_FACTOR = 4.0

#: A sustained-FPS probe stops at the first layer that finishes past this
#: multiple of its frame's deadline cycle.  The accounting compares
#: ``finish / clock - release`` with the deadline in seconds, whose
#: rounding is some 1e-16 of the deadline; a 1e-9 margin is far above it,
#: so a stopped probe is a miss the accounting would also count.
_STOP_MARGIN = 1.0 + 1e-9


class StreamStats(NamedTuple):
    """SLA statistics of one stream over the simulated window."""

    model_name: str
    fps: float
    frames: int
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    mean_latency_s: float
    max_latency_s: float
    deadline_miss_rate: float
    missed_frames: int
    backlogged_frames: int
    dropped_frames: int

    def summary(self) -> Dict[str, float]:
        """The stats as a strict-JSON-serializable dictionary."""
        return {
            "model": self.model_name,
            "fps": self.fps,
            "frames": float(self.frames),
            "p50_latency_s": self.p50_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "mean_latency_s": self.mean_latency_s,
            "max_latency_s": self.max_latency_s,
            "deadline_miss_rate": self.deadline_miss_rate,
            "missed_frames": float(self.missed_frames),
            "backlogged_frames": float(self.backlogged_frames),
            "dropped_frames": float(self.dropped_frames),
        }

    def describe(self) -> str:
        """One report line (the CLI's per-model row)."""
        return (
            f"{self.model_name:<18} {report_number(self.fps, 7, 1)} FPS x "
            f"{self.frames:>3}  "
            f"p50 {self.p50_latency_s * 1e3:8.3f} ms  "
            f"p95 {self.p95_latency_s * 1e3:8.3f} ms  "
            f"p99 {self.p99_latency_s * 1e3:8.3f} ms  "
            f"miss {self.deadline_miss_rate:6.1%}  "
            f"backlog {self.backlogged_frames:>3}  drop {self.dropped_frames:>3}"
        )


class ServingReport:
    """Per-stream and aggregate SLA statistics of one serving simulation."""

    def __init__(self, workload_name: str, clock_hz: float) -> None:
        self.workload_name = workload_name
        self.clock_hz = clock_hz
        self.streams: List[StreamStats] = []

    def __eq__(self, other: object) -> bool:
        if type(other) is not ServingReport:
            return NotImplemented
        return ((self.workload_name, self.clock_hz, self.streams)
                == (other.workload_name, other.clock_hz, other.streams))

    @property
    def total_frames(self) -> int:
        """Frames across all streams."""
        return sum(stats.frames for stats in self.streams)

    @property
    def missed_frames(self) -> int:
        """Deadline misses across all streams."""
        return sum(stats.missed_frames for stats in self.streams)

    @property
    def dropped_frames(self) -> int:
        """Late-drops across all streams."""
        return sum(stats.dropped_frames for stats in self.streams)

    @property
    def backlogged_frames(self) -> int:
        """Backlogged frames across all streams."""
        return sum(stats.backlogged_frames for stats in self.streams)

    @property
    def deadline_miss_rate(self) -> float:
        """Aggregate miss rate over every simulated frame."""
        frames = self.total_frames
        return self.missed_frames / frames if frames else 0.0

    @property
    def p99_latency_s(self) -> float:
        """Worst per-stream p99 — the report's headline tail.

        Note this is *not* the quantity ``metric="sla"`` minimises: the SLA
        search ranks by the pooled all-frames p99 of
        :meth:`~repro.core.schedule.Schedule.frame_summary` (via
        :func:`~repro.core.evaluator.sla_rank_key`), which weights streams by
        their frame counts instead of taking the worst stream.
        """
        return max((stats.p99_latency_s for stats in self.streams), default=0.0)

    @property
    def meets_sla(self) -> bool:
        """True when no frame missed its deadline."""
        return self.missed_frames == 0

    def summary(self) -> Dict[str, object]:
        """Report as a strict-JSON-serializable dictionary."""
        return {
            "workload": self.workload_name,
            "frames": float(self.total_frames),
            "deadline_miss_rate": self.deadline_miss_rate,
            "missed_frames": float(self.missed_frames),
            "backlogged_frames": float(self.backlogged_frames),
            "dropped_frames": float(self.dropped_frames),
            "p99_latency_s": self.p99_latency_s,
            "streams": [stats.summary() for stats in self.streams],
        }

    def describe(self) -> str:
        """Multi-line report (the CLI output body)."""
        lines = [
            f"Serving report for {self.workload_name}: {self.total_frames} frames, "
            f"miss rate {self.deadline_miss_rate:.1%} "
            f"({self.missed_frames} missed, {self.backlogged_frames} backlogged, "
            f"{self.dropped_frames} dropped)",
        ]
        for stats in self.streams:
            lines.append("  " + stats.describe())
        return "\n".join(lines)


class ServingResult(NamedTuple):
    """A serving simulation outcome: the SLA report plus the raw schedule."""

    report: ServingReport
    schedule: Schedule


class ServingSimulator:
    """Simulates a streaming workload on a design via the online scheduler.

    Parameters
    ----------
    scheduler:
        The (configured) Herald scheduler to run in online mode.
    """

    def __init__(self, scheduler: HeraldScheduler) -> None:
        self.scheduler = scheduler

    def simulate(self, streaming: StreamingWorkload,
                 sub_accelerators: Sequence[SubAcceleratorConfig]) -> ServingResult:
        """Run the scenario and return its SLA report plus the schedule."""
        spec = streaming.to_workload_spec()
        clock = sub_accelerators[0].clock_hz
        schedule = self.scheduler.schedule(
            spec, sub_accelerators,
            release_cycles=streaming.release_cycles(clock),
            deadline_cycles=streaming.deadline_cycles(clock))
        report = build_serving_report(streaming, schedule, clock)
        return ServingResult(report=report, schedule=schedule)

    def _probe(self, streaming: StreamingWorkload,
               sub_accelerators: Sequence[SubAcceleratorConfig]
               ) -> Optional[Schedule]:
        """:meth:`simulate`'s schedule, or ``None`` once a frame is certain
        to miss its deadline.

        Every layer of a frame stops the run when it finishes past the
        frame's deadline cycle times :data:`_STOP_MARGIN`.  A frame finishes
        with its last layer and a committed finish never changes, so a stop
        is a miss.  A frame within rounding of its deadline, which the
        accounting may still judge on time, sits inside the margin: it never
        stops the run, and the completed schedule is judged as
        :meth:`simulate`'s would be.
        """
        clock = sub_accelerators[0].clock_hz
        return self.scheduler._schedule(
            streaming.to_workload_spec(), sub_accelerators,
            streaming.release_cycles(clock), streaming.deadline_cycles(clock),
            _STOP_MARGIN)


def build_serving_report(streaming: StreamingWorkload, schedule: Schedule,
                         clock_hz: float,
                         records: Optional[Dict[str, Dict[str, float]]] = None
                         ) -> ServingReport:
    """SLA accounting of one (streaming workload, schedule) pair.

    The single definition of the per-stream serving statistics:
    :meth:`ServingSimulator.simulate` applies it to the schedule it just
    produced, and the fleet layer applies it per chip to schedules computed
    through an execution backend — both paths therefore account misses,
    backlog, and drops identically.  ``schedule`` must cover exactly the
    frames of ``streaming`` (instance ids ``"model#index"``); ``records``
    optionally supplies a precomputed ``schedule.frame_records()`` so callers
    running several accounting passes over one schedule walk it only once.
    """
    if records is None:
        records = schedule.frame_records()
    return _build_report_from_records(streaming, records, clock_hz)


def stream_frame_latencies(stream, records: Dict[str, Dict[str, float]],
                           clock_hz: float) -> List[float]:
    """Per-frame latency seconds of one stream, indexed by frame number.

    The *single* place the frame-latency arithmetic lives
    (``finish_cycle / clock_hz - release_s``): the per-stream report rows and
    the fleet layer's globally-pooled accounting both call this, so a
    boundary frame can never be rounded to a miss on one path and a hit on
    the other.
    """
    releases = stream.release_times_s()
    return [
        records[f"{stream.model_name}#{index}"]["finish_cycle"] / clock_hz
        - releases[index]
        for index in range(stream.frames)
    ]


def _build_report_from_records(streaming: StreamingWorkload,
                               records: Dict[str, Dict[str, float]],
                               clock_hz: float) -> ServingReport:
    report = ServingReport(workload_name=streaming.name, clock_hz=clock_hz)
    for stream in streaming.streams:
        releases = stream.release_times_s()
        # A frame is *backlogged* when it is still in flight as the
        # stream's next arrival lands.  Jitter can reorder arrivals, so
        # "next" means next in *time* order, not frame order — comparing
        # against releases[index + 1] would brand a frame backlogged
        # whenever its successor arrived early, however fast it ran.
        time_order = sorted(range(stream.frames),
                            key=lambda index: (releases[index], index))
        next_arrival_s: Dict[int, float] = {
            time_order[position]: releases[time_order[position + 1]]
            for position in range(len(time_order) - 1)
        }
        latencies = stream_frame_latencies(stream, records, clock_hz)
        backlogged = 0
        bound = stream.effective_deadline_s
        for index in range(stream.frames):
            record = records[f"{stream.model_name}#{index}"]
            finish_s = record["finish_cycle"] / clock_hz
            successor = next_arrival_s.get(index)
            if successor is not None and finish_s > successor:
                backlogged += 1
        # ``deadline_miss_rate`` is the single definition of a miss
        # (strict >); the counts are derived from it rather than
        # re-implementing the comparison, so rate and count cannot drift
        # apart.  rate * n is k/n * n for integer k, so round() is exact.
        miss_rate = deadline_miss_rate(latencies, bound)
        drop_rate = deadline_miss_rate(
            latencies, bound * DROP_DEADLINE_FACTOR)
        report.streams.append(StreamStats(
            model_name=stream.model_name,
            fps=stream.fps,
            frames=stream.frames,
            p50_latency_s=percentile(latencies, 50.0),
            p95_latency_s=percentile(latencies, 95.0),
            p99_latency_s=percentile(latencies, 99.0),
            mean_latency_s=sum(latencies) / len(latencies),
            max_latency_s=max(latencies),
            deadline_miss_rate=miss_rate,
            missed_frames=round(miss_rate * len(latencies)),
            backlogged_frames=backlogged,
            dropped_frames=round(drop_rate * len(latencies)),
        ))
    return report


class SustainedFpsResult(NamedTuple):
    """Outcome of the sustained-FPS binary search.

    ``factor`` is the largest explored uniform rate multiplier with zero
    deadline misses (``0.0`` when even the lower bracket misses);
    ``fps_per_stream`` maps each model to its rate at that factor.
    """

    factor: float
    fps_per_stream: Dict[str, float]
    evaluations: int

    def describe(self) -> str:
        """One-line summary used by the CLI."""
        if self.factor <= 0.0:
            return "sustained FPS: none (misses deadlines even at the lower bracket)"
        rates = ", ".join(f"{model} {fps:.1f}"
                          for model, fps in self.fps_per_stream.items())
        return (f"sustained FPS ({self.factor:.3g}x the target rates, "
                f"{self.evaluations} probes): {rates}")


def sustained_fps(simulator: ServingSimulator, streaming: StreamingWorkload,
                  sub_accelerators: Sequence[SubAcceleratorConfig],
                  lo: float = 1.0 / 256.0, hi: float = 8.0,
                  iterations: int = 10,
                  tolerance: float = 0.0) -> SustainedFpsResult:
    """Largest uniform FPS multiplier served with zero deadline misses.

    Rate scaling is a uniform time dilation (see :meth:`StreamSpec.scaled`):
    periods, phases, jitter, and deadlines all shrink together, so the
    predicate is "does the design keep up at this rate against proportionally
    tightened SLAs".  Bisects ``[lo, hi]`` on the zero-miss predicate, which
    is monotone for all practical purposes (raising every rate only tightens
    release spacing and deadlines).  The probe budget is ``iterations``
    bisection steps plus the two bracket probes; a positive ``tolerance``
    additionally stops the bisection once the bracket width
    ``infeasible - feasible`` falls to or below it, so callers can trade
    probes for precision explicitly instead of inheriting a fixed count.
    The search is deterministic.  A probe needs only a yes/no answer, so it
    stops at the first layer that finishes past its frame's deadline
    (a certain miss, see :meth:`ServingSimulator._probe`); a probe that
    runs to the end is judged by :func:`build_serving_report`, exactly as
    :meth:`ServingSimulator.simulate` reports it.  Warm cost-model memos
    and the scheduler's reused Fig. 8 assignment make each probe cheap
    after the first.
    """
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi (got lo={lo}, hi={hi})")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1 (got {iterations})")
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be >= 0 (got {tolerance})")

    clock = sub_accelerators[0].clock_hz
    evaluations = 0

    def meets(factor: float) -> bool:
        nonlocal evaluations
        evaluations += 1
        scaled = streaming.scaled(factor)
        schedule = simulator._probe(scaled, sub_accelerators)
        return schedule is not None and build_serving_report(
            scaled, schedule, clock).meets_sla

    def finish(factor: float) -> SustainedFpsResult:
        fps = {stream.model_name: stream.fps * factor
               for stream in streaming.streams}
        if factor <= 0.0:
            fps = {stream.model_name: 0.0 for stream in streaming.streams}
        return SustainedFpsResult(factor=factor, fps_per_stream=fps,
                                  evaluations=evaluations)

    if not meets(lo):
        return finish(0.0)
    if meets(hi):
        return finish(hi)
    feasible, infeasible = lo, hi
    for _ in range(iterations):
        if tolerance > 0.0 and infeasible - feasible <= tolerance:
            break
        midpoint = (feasible + infeasible) / 2.0
        if meets(midpoint):
            feasible = midpoint
        else:
            infeasible = midpoint
    return finish(feasible)
