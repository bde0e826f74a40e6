"""Fleet-scale serving: N chips behind a router, aggregated SLA reporting.

The paper optimises one HDA chip; a deployment serving millions of users runs
*many* chips behind a dispatcher.  A :class:`Fleet` is an ordered set of
(possibly heterogeneous) :class:`~repro.accel.design.AcceleratorDesign`
chips; :class:`FleetSimulator` routes a streaming workload over them with a
:class:`~repro.serve.router.Router` policy, simulates every chip with the
same online scheduler the single-chip
:class:`~repro.serve.simulator.ServingSimulator` uses, and folds the per-chip
:class:`~repro.serve.simulator.ServingReport`\\ s into one
:class:`FleetReport` — fleet-wide latency percentiles over the pooled
per-frame latencies, aggregate miss rate, and per-chip utilisation /
imbalance.

Two structural guarantees keep the fleet layer honest:

* **Single-chip identity** — a one-chip fleet under the ``passthrough``
  policy produces bit-for-bit the schedule and report of the bare
  single-chip simulator (pinned against the streaming golden corpus);
* **Backend parity** — per-chip simulations run as ordinary
  :class:`~repro.exec.tasks.EvaluationTask`\\ s through an execution
  backend, so a 4-worker process pool reproduces the serial results exactly
  (evaluations are pure functions of ``(design, workload)``).

:func:`min_chips_for_sla` is the fleet analogue of
:func:`~repro.serve.simulator.sustained_fps`: instead of asking how fast one
chip can go, it bisects how many chips the SLA needs.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.accel.design import AcceleratorDesign
from repro.analysis.metrics import imbalance, percentile
from repro.core.schedule import LOAD_IMBALANCE_UNUSED_SENTINEL, Schedule
from repro.exceptions import SpecError, WorkloadError
from repro.exec.backends import ExecutionBackend, SerialBackend
from repro.exec.tasks import EvaluationTask
from repro.serve.router import (
    DispatchPlan,
    DispatchPolicy,
    FrameCostEstimator,
    Router,
)
from repro.serve.simulator import (
    ServingReport,
    build_serving_report,
    stream_frame_latencies,
)
from repro.serve.workload import StreamingWorkload
from repro.validation import (
    check_keys,
    expect_list,
    expect_count,
    expect_mapping,
    expect_str,
    spec_path,
    take,
)


class _FleetFields(NamedTuple):
    name: str
    chips: Tuple[AcceleratorDesign, ...]


class Fleet(_FleetFields):
    """An ordered set of accelerator chips served by one router.

    Chips may be heterogeneous (different PE counts, partitions, or dataflow
    mixes); chip names must be unique because reports key on them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "Fleet":
        self = super().__new__(cls, *args, **kwargs)
        if not self.chips:
            raise WorkloadError(f"fleet {self.name!r} has no chips")
        names = [chip.name for chip in self.chips]
        if len(set(names)) != len(names):
            raise WorkloadError(
                f"fleet {self.name!r} has duplicate chip names; rename the "
                f"replicas (Fleet.homogeneous does this automatically)")
        return self

    def _replace(self, **changes) -> "Fleet":
        return Fleet(**{**self._asdict(), **changes})

    @classmethod
    def homogeneous(cls, design: AcceleratorDesign, count: int,
                    name: Optional[str] = None) -> "Fleet":
        """``count`` identical replicas of one design, names suffixed ``[k]``."""
        if count < 1:
            raise WorkloadError(f"fleet size must be >= 1 (got {count})")
        chips = tuple(
            design._replace(name=f"{design.name}[{index}]")
            for index in range(count))
        return cls(name=name or f"{design.name}-x{count}", chips=chips)

    @property
    def num_chips(self) -> int:
        """Number of chips in the fleet."""
        return len(self.chips)

    def describe(self) -> str:
        """Multi-line human-readable summary used by reports and the CLI."""
        lines = [f"Fleet {self.name}: {self.num_chips} chip(s)"]
        for chip in self.chips:
            lines.append("  " + chip.describe().replace("\n", "\n  "))
        return "\n".join(lines)


class ChipStats(NamedTuple):
    """Fleet-level statistics of one chip over the simulated window."""

    chip_name: str
    frames: int
    busy_s: float
    utilisation: float
    missed_frames: int
    backlogged_frames: int
    dropped_frames: int
    p99_latency_s: float

    def summary(self) -> Dict[str, float]:
        """The stats as a strict-JSON-serializable dictionary."""
        return {
            "chip": self.chip_name,
            "frames": float(self.frames),
            "busy_s": self.busy_s,
            "utilisation": self.utilisation,
            "missed_frames": float(self.missed_frames),
            "backlogged_frames": float(self.backlogged_frames),
            "dropped_frames": float(self.dropped_frames),
            "p99_latency_s": self.p99_latency_s,
        }

    def describe(self) -> str:
        """One report line (the CLI's per-chip row)."""
        return (f"{self.chip_name:<28} {self.frames:>4} frames  "
                f"util {self.utilisation:6.1%}  "
                f"p99 {self.p99_latency_s * 1e3:8.3f} ms  "
                f"miss {self.missed_frames:>3}  "
                f"backlog {self.backlogged_frames:>3}  "
                f"drop {self.dropped_frames:>3}")


class FleetReport:
    """Aggregate SLA statistics of one fleet simulation.

    Fleet percentiles are computed over the *pooled* per-frame latencies of
    every chip (``frame_latencies_s``, keyed by global ``"model#index"``
    frame id) — by construction they equal recomputing the percentile over
    the concatenated per-chip latency lists, which the invariant harness
    checks.  Backlog stays a per-chip notion (a frame is backlogged when the
    stream's next arrival *on the same chip* lands while it is in flight).
    """

    def __init__(self, fleet_name: str, workload_name: str, policy: str,
                 chips: List[ChipStats], frame_latencies_s: Dict[str, float],
                 missed_frame_ids: Tuple[str, ...], horizon_s: float,
                 online: Optional["OnlineStats"] = None) -> None:  # noqa: F821
        self.fleet_name = fleet_name
        self.workload_name = workload_name
        self.policy = policy
        self.chips = chips
        self.frame_latencies_s = frame_latencies_s
        self.missed_frame_ids = missed_frame_ids
        self.horizon_s = horizon_s
        #: Closed-loop bookkeeping (:class:`repro.serve.online.OnlineStats`);
        #: ``None`` on a-priori reports, whose summaries are unchanged.
        self.online = online
        #: Chips whose simulation failed in the execution backend in a
        #: ``partial_ok`` run.  Their frames are absent from the pooled
        #: statistics; a fleet with casualties never :attr:`meets_sla`.
        self.failed_chips: Tuple[str, ...] = ()

    @property
    def total_frames(self) -> int:
        """Frames across the whole fleet."""
        return len(self.frame_latencies_s)

    @property
    def missed_frames(self) -> int:
        """Deadline misses across the whole fleet."""
        return len(self.missed_frame_ids)

    @property
    def backlogged_frames(self) -> int:
        """Backlogged frames across the whole fleet."""
        return sum(stats.backlogged_frames for stats in self.chips)

    @property
    def dropped_frames(self) -> int:
        """Late-drops across the whole fleet."""
        return sum(stats.dropped_frames for stats in self.chips)

    @property
    def deadline_miss_rate(self) -> float:
        """Aggregate miss rate over every simulated frame."""
        frames = self.total_frames
        return self.missed_frames / frames if frames else 0.0

    @property
    def meets_sla(self) -> bool:
        """True when no frame missed its deadline and no chip was lost.

        A ``partial_ok`` casualty hides its frames from the pooled latency
        statistics, so a report with failed chips must never pass for a
        healthy one — :func:`min_chips_for_sla` relies on this to count a
        failed probe as not meeting the SLA.
        """
        return self.missed_frames == 0 and not self.failed_chips

    def _pooled(self, q: float) -> float:
        if not self.frame_latencies_s:
            return 0.0
        return percentile(self.frame_latencies_s.values(), q)

    @property
    def p50_latency_s(self) -> float:
        """Fleet-wide median frame latency (pooled over all chips)."""
        return self._pooled(50.0)

    @property
    def p95_latency_s(self) -> float:
        """Fleet-wide p95 frame latency (pooled over all chips)."""
        return self._pooled(95.0)

    @property
    def p99_latency_s(self) -> float:
        """Fleet-wide p99 frame latency (pooled over all chips)."""
        return self._pooled(99.0)

    @property
    def max_latency_s(self) -> float:
        """Worst frame latency anywhere in the fleet."""
        if not self.frame_latencies_s:
            return 0.0
        return max(self.frame_latencies_s.values())

    def load_imbalance(self) -> float:
        """Largest per-chip busy time divided by the smallest.

        The fleet analogue of :meth:`Schedule.load_imbalance`: ``inf`` when
        some chip did work while another sat idle, ``1.0`` for a perfectly
        even (or entirely idle) fleet.
        """
        return imbalance([stats.busy_s for stats in self.chips])

    def load_imbalance_finite(self) -> float:
        """:meth:`load_imbalance` with infinity mapped to the finite sentinel."""
        value = self.load_imbalance()
        if value == float("inf"):
            return LOAD_IMBALANCE_UNUSED_SENTINEL
        return value

    def summary(self) -> Dict[str, object]:
        """Report as a strict-JSON-serializable dictionary.

        The ``online`` key appears only on closed-loop reports, so a-priori
        summaries (and the golden corpus pinning them) are unchanged.
        """
        summary: Dict[str, object] = {
            "fleet": self.fleet_name,
            "workload": self.workload_name,
            "policy": self.policy,
            "num_chips": float(len(self.chips)),
            "frames": float(self.total_frames),
            "p50_latency_s": self.p50_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "max_latency_s": self.max_latency_s,
            "deadline_miss_rate": self.deadline_miss_rate,
            "missed_frames": float(self.missed_frames),
            "backlogged_frames": float(self.backlogged_frames),
            "dropped_frames": float(self.dropped_frames),
            "load_imbalance": self.load_imbalance_finite(),
            "horizon_s": self.horizon_s,
            "chips": [stats.summary() for stats in self.chips],
        }
        if self.online is not None:
            summary["online"] = self.online.summary()
        # Only on degraded reports, so healthy summaries (and the golden
        # corpus pinning them) are unchanged.
        if self.failed_chips:
            summary["failed_chips"] = list(self.failed_chips)
        return summary

    def describe(self) -> str:
        """Multi-line report (the CLI output body)."""
        lines = [
            f"Fleet report for {self.workload_name} on {self.fleet_name} "
            f"[{self.policy}]: {self.total_frames} frames, "
            f"p99 {self.p99_latency_s * 1e3:.3f} ms, "
            f"miss rate {self.deadline_miss_rate:.1%} "
            f"({self.missed_frames} missed, {self.backlogged_frames} "
            f"backlogged, {self.dropped_frames} dropped), "
            f"imbalance {self.load_imbalance_finite():.2f}",
        ]
        for stats in self.chips:
            lines.append("  " + stats.describe())
        if self.failed_chips:
            lines.append(
                f"  WARNING: {len(self.failed_chips)} chip simulation(s) "
                f"failed: {', '.join(self.failed_chips)}")
        return "\n".join(lines)


class ChipServingResult(NamedTuple):
    """One chip's slice of a fleet simulation: report, schedule, frame map."""

    chip: AcceleratorDesign
    report: ServingReport
    schedule: Optional[Schedule]
    #: Global frame id ("model#index" over the *input* workload's numbering)
    #: -> latency seconds, for the frames this chip served.  Computed with
    #: exactly the arithmetic of :func:`build_serving_report`
    #: (``finish_cycle / clock - release_s``), so pooled fleet statistics and
    #: the per-chip stream statistics can never disagree about a frame.
    frame_latencies_s: Dict[str, float]
    #: Global frame ids of this chip's deadline misses — the same strict
    #: ``latency > deadline`` comparison the per-chip report counts, so the
    #: fleet-level miss total always equals the sum of the per-chip rows.
    missed_frame_ids: Tuple[str, ...] = ()


class FleetResult(NamedTuple):
    """A fleet simulation outcome: aggregate report plus per-chip details."""

    report: FleetReport
    plan: DispatchPlan
    chip_results: Tuple[ChipServingResult, ...]


def _frame_accounting(workload: StreamingWorkload,
                      records: Dict[str, Dict[str, float]],
                      clock_hz: float,
                      frame_map: Dict[str, Tuple[str, int]]
                      ) -> Tuple[Dict[str, float], Tuple[str, ...]]:
    """Globally-keyed per-frame latencies and deadline misses of one chip.

    The latency floats come from
    :func:`~repro.serve.simulator.stream_frame_latencies` — the same call the
    per-chip report rows are built from — and a miss is the same strict
    ``latency > deadline`` the report's miss rate counts, so a boundary frame
    can never be a miss in the per-chip stream rows and a hit in the fleet
    aggregate (or vice versa).  ``records`` is the chip schedule's
    ``frame_records()``, computed once by the caller and shared with the
    report builder.
    """
    latencies: Dict[str, float] = {}
    missed: List[str] = []
    for stream in workload.streams:
        bound = stream.effective_deadline_s
        per_frame = stream_frame_latencies(stream, records, clock_hz)
        for index, latency in enumerate(per_frame):
            local_id = f"{stream.model_name}#{index}"
            global_id = "{}#{}".format(*frame_map[local_id])
            latencies[global_id] = latency
            if latency > bound:
                missed.append(global_id)
    return latencies, tuple(missed)


class FleetSimulator:
    """Simulates a streaming workload on a fleet of chips.

    Per-chip simulations are executed as
    :class:`~repro.exec.tasks.EvaluationTask`\\ s through an execution
    backend (serial by default; pass a
    :class:`~repro.exec.backends.ProcessPoolBackend` to simulate the chips in
    parallel worker processes — results are identical, only wall-clock
    differs).  The router's load estimates and the chips' schedules share one
    cost model, so estimation warms exactly the memo scheduling consumes.
    Frames later than ``DROP_DEADLINE_FACTOR`` deadlines count as late
    drops, as in the single-chip simulator.

    Parameters
    ----------
    backend:
        Execution backend the per-chip evaluations run on; it owns the cost
        model and the (configured) online scheduler.  Defaults to a
        :class:`~repro.exec.backends.SerialBackend` with a fresh cost model
        and Herald's scheduler.
    """

    def __init__(self, backend: Optional[ExecutionBackend] = None) -> None:
        self.backend = backend or SerialBackend()
        self.estimator = FrameCostEstimator(self.backend.cost_model)

    def simulate(self, streaming: StreamingWorkload, fleet: Fleet,
                 policy: Union[str, DispatchPolicy] = "round-robin",
                 partial_ok: bool = False,
                 checkpoint: Optional["SweepCheckpoint"] = None,
                 scope: str = "fleet") -> FleetResult:
        """Route the workload over the fleet and aggregate the SLA report.

        With ``partial_ok``, a chip whose simulation fails in the backend
        becomes a casualty (reported through
        :attr:`FleetReport.failed_chips`) instead of aborting the fleet.
        ``checkpoint`` records completed per-chip simulations under ``scope``
        so an interrupted fleet sweep resumes only the missing chips.
        """
        router = Router(policy, estimator=self.estimator)
        plan = router.dispatch(streaming, fleet.chips)
        tasks = [
            EvaluationTask(task_id=index, design=chip, workload=workload,
                           category="fleet-chip")
            for index, (chip, workload)
            in enumerate(zip(fleet.chips, plan.chip_workloads))
            if workload is not None
        ]
        outcome = self.backend.run_resilient(
            tasks, partial_ok=partial_ok, checkpoint=checkpoint, scope=scope)
        evaluations = dict(outcome.results)
        failed_ids = frozenset(outcome.failed_task_ids)

        chip_results: List[ChipServingResult] = []
        failed_chips: List[str] = []
        for index, chip in enumerate(fleet.chips):
            workload = plan.chip_workloads[index]
            clock = chip.sub_accelerators[0].clock_hz
            if workload is None or index in failed_ids:
                if index in failed_ids:
                    failed_chips.append(chip.name)
                chip_results.append(ChipServingResult(
                    chip=chip,
                    report=ServingReport(
                        workload_name=f"{streaming.name}@chip{index}",
                        clock_hz=clock),
                    schedule=None,
                    frame_latencies_s={},
                ))
                continue
            schedule = evaluations[index].schedule
            records = schedule.frame_records()
            report = build_serving_report(workload, schedule, clock,
                                          records=records)
            latencies, missed = _frame_accounting(
                workload, records, clock, plan.frame_maps[index])
            chip_results.append(ChipServingResult(
                chip=chip, report=report, schedule=schedule,
                frame_latencies_s=latencies, missed_frame_ids=missed))

        report = self._aggregate(streaming, fleet, plan, chip_results)
        report.failed_chips = tuple(failed_chips)
        return FleetResult(report=report, plan=plan,
                           chip_results=tuple(chip_results))

    def simulate_online(self, streaming: StreamingWorkload, fleet: Fleet,
                        policy: Union[str, DispatchPolicy] = "round-robin",
                        *, faults: Optional["FaultSpec"] = None,  # noqa: F821
                        autoscale: Optional["AutoscalePolicy"] = None,  # noqa: F821
                        work_stealing: bool = True) -> "OnlineFleetResult":  # noqa: F821
        """Serve the workload through the closed-loop event engine.

        Chips are simulated as frame-serial queue servers with *measured*
        service times, dispatch reacts to observed queues and completions,
        dead chips' frames are re-dispatched, idle chips steal from
        backlogged ones (``work_stealing``), and an optional
        :class:`~repro.serve.online.AutoscalePolicy` resizes the active
        fleet per interval.
        """
        from repro.serve.online import (
            OnlineEngine,
            OnlineStats,
            build_online_result,
            measured_service_tables,
        )
        from repro.serve.router import arrival_order, policy_by_name

        policy_obj = (policy_by_name(policy) if isinstance(policy, str)
                      else policy)
        tables = measured_service_tables(streaming, fleet.chips,
                                         self.backend, self.estimator)
        engine = OnlineEngine(policy=policy_obj,
                              frames=arrival_order(streaming),
                              service_tables=tables, faults=faults,
                              autoscale=autoscale,
                              work_stealing=work_stealing)
        outcome = engine.run()
        stats = OnlineStats(
            work_stealing=work_stealing,
            redispatched_frames=outcome.redispatched_frames,
            stolen_frames=outcome.stolen_frames,
            lost_frame_ids=tuple(sorted(outcome.lost_frame_ids)),
            intervals=tuple(outcome.intervals),
        )
        return build_online_result(streaming, fleet, policy_obj.name,
                                   outcome, stats)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _aggregate(self, streaming: StreamingWorkload, fleet: Fleet,
                   plan: DispatchPlan,
                   chip_results: Sequence[ChipServingResult]) -> FleetReport:
        horizon_cycles_s = [
            result.schedule.makespan_cycles
            / result.chip.sub_accelerators[0].clock_hz
            for result in chip_results if result.schedule is not None
        ]
        horizon_s = max(horizon_cycles_s, default=0.0)

        pooled: Dict[str, float] = {}
        missed: List[str] = []
        chips: List[ChipStats] = []
        for result in chip_results:
            pooled.update(result.frame_latencies_s)
            missed.extend(result.missed_frame_ids)
            chips.append(self._chip_stats(result, horizon_s))
        return FleetReport(
            fleet_name=fleet.name,
            workload_name=streaming.name,
            policy=plan.policy,
            chips=chips,
            frame_latencies_s=pooled,
            missed_frame_ids=tuple(sorted(missed)),
            horizon_s=horizon_s,
        )

    def _chip_stats(self, result: ChipServingResult,
                    horizon_s: float) -> ChipStats:
        chip = result.chip
        busy_s = 0.0
        if result.schedule is not None:
            clock = chip.sub_accelerators[0].clock_hz
            busy_s = sum(result.schedule.busy_cycles(acc.name)
                         for acc in chip.sub_accelerators) / clock
        capacity_s = horizon_s * len(chip.sub_accelerators)
        report = result.report
        return ChipStats(
            chip_name=chip.name,
            frames=report.total_frames,
            busy_s=busy_s,
            utilisation=busy_s / capacity_s if capacity_s > 0.0 else 0.0,
            missed_frames=report.missed_frames,
            backlogged_frames=report.backlogged_frames,
            dropped_frames=report.dropped_frames,
            p99_latency_s=report.p99_latency_s,
        )


class MinChipsResult(NamedTuple):
    """Outcome of the minimum-fleet-size bisection.

    ``chips`` is the smallest explored fleet size meeting the SLA (``0`` when
    even ``max_chips`` misses deadlines); ``report`` is the fleet report at
    that size (``None`` when infeasible).
    """

    chips: int
    evaluations: int
    report: Optional[FleetReport]

    def describe(self) -> str:
        """One-line summary used by the CLI."""
        if self.chips < 1:
            return ("min chips for SLA: none (misses deadlines even at the "
                    "explored maximum)")
        return (f"min chips for SLA: {self.chips} "
                f"({self.evaluations} fleet simulations, p99 "
                f"{self.report.p99_latency_s * 1e3:.3f} ms at that size)")


def min_chips_for_sla(simulator: FleetSimulator,
                      streaming: StreamingWorkload,
                      design: AcceleratorDesign,
                      policy: Union[str, DispatchPolicy] = "earliest-completion",
                      max_chips: int = 8,
                      partial_ok: bool = False,
                      checkpoint: Optional["SweepCheckpoint"] = None
                      ) -> MinChipsResult:
    """Smallest homogeneous fleet of ``design`` serving with zero misses.

    The fleet analogue of :func:`~repro.serve.simulator.sustained_fps`:
    bisects fleet size on the zero-miss predicate, which is monotone for all
    practical purposes (adding a replica only removes load from the others
    under every shipped policy).  At most ``2 + ceil(log2(max_chips))``
    simulations run: the two bracket probes plus the bisection.

    ``checkpoint`` records each probe's per-chip simulations under a
    ``chips<count>`` scope, so an interrupted bisection resumes without
    re-simulating completed probes.  With ``partial_ok``, a probe that loses
    a chip to a failed simulation counts as not meeting the SLA (see
    :attr:`FleetReport.meets_sla`) instead of aborting the search.
    """
    if max_chips < 1:
        raise ValueError(f"max_chips must be >= 1 (got {max_chips})")

    evaluations = 0
    reports: Dict[int, FleetReport] = {}

    def meets(count: int) -> bool:
        nonlocal evaluations
        evaluations += 1
        fleet = Fleet.homogeneous(design, count)
        result = simulator.simulate(streaming, fleet, policy=policy,
                                    partial_ok=partial_ok,
                                    checkpoint=checkpoint,
                                    scope=f"chips{count}")
        reports[count] = result.report
        return result.report.meets_sla

    if meets(1):
        return MinChipsResult(chips=1, evaluations=evaluations,
                              report=reports[1])
    if max_chips == 1 or not meets(max_chips):
        return MinChipsResult(chips=0, evaluations=evaluations, report=None)
    failing, meeting = 1, max_chips
    while meeting - failing > 1:
        midpoint = (failing + meeting) // 2
        if meets(midpoint):
            meeting = midpoint
        else:
            failing = midpoint
    return MinChipsResult(chips=meeting, evaluations=evaluations,
                          report=reports[meeting])


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------
_FLEET_KEYS = ("name", "chips", "design")

#: Most chips a spec may ask a fleet for: every replica is built up front,
#: so a count like 10**400 would never finish building.
MAX_FLEET_CHIPS = 10_000


def expect_fleet_size(value: object, path: str) -> int:
    """``value`` must be a chip count from 1 to :data:`MAX_FLEET_CHIPS`."""
    return expect_count(value, path, MAX_FLEET_CHIPS, "chips",
                        "a fleet simulates")


def fleet_from_spec(spec: object, build_design, path: str = "fleet") -> Fleet:
    """Build a fleet from its declarative spec.

    Two forms for ``chips``: a positive int (``count`` homogeneous replicas
    of the base design, built by calling ``build_design`` with the fleet's
    optional ``design`` sub-spec — or ``None`` for the experiment default)
    or an explicit list of design specs.  ``build_design(sub_spec, sub_path)``
    is injected by the caller so design knob errors surface with exact
    ``fleet.chips[i].knob`` paths without this module importing the builder
    layer.  List entries without an explicit ``name`` get a ``[index]``
    suffix (mirroring :meth:`Fleet.homogeneous`) so replicas stay unique.
    """
    mapping = expect_mapping(spec, path)
    check_keys(mapping, _FLEET_KEYS, path)
    name = mapping.get("name")
    if name is not None:
        name = expect_str(name, spec_path(path, "name"))
    chips_value = take(mapping, "chips", path)
    chips_path = spec_path(path, "chips")
    if isinstance(chips_value, int) and not isinstance(chips_value, bool):
        count = expect_fleet_size(chips_value, chips_path)
        base = build_design(mapping.get("design"), spec_path(path, "design"))
        return Fleet.homogeneous(base, count, name=name)
    if "design" in mapping:
        raise SpecError(f"{spec_path(path, 'design')}: only a homogeneous "
                        f"fleet (integer 'chips') takes a base design")
    entries = expect_list(chips_value, chips_path)
    if not entries:
        raise SpecError(f"{chips_path}: needs at least one chip entry")
    designs: List[AcceleratorDesign] = []
    for index, entry in enumerate(entries):
        entry_path = spec_path(chips_path, index)
        # Fleet chip names follow Fleet.homogeneous semantics: the design is
        # built namelessly, then renamed at the top level only (explicit
        # 'name', or a [index] suffix for uniqueness) — sub-accelerator
        # names keep the design's natural stem either way.
        explicit_name = None
        if isinstance(entry, dict) and "name" in entry:
            explicit_name = expect_str(entry["name"],
                                       spec_path(entry_path, "name"))
            entry = {key: value for key, value in entry.items()
                     if key != "name"}
        design = build_design(entry, entry_path)
        designs.append(design._replace(
            name=(explicit_name if explicit_name is not None
                  else f"{design.name}[{index}]")))
    try:
        return Fleet(name=name or f"{designs[0].name}-fleet",
                     chips=tuple(designs))
    except WorkloadError as error:
        raise SpecError(f"{path}: {error}") from None
