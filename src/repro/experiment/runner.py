"""One shared execution path for every experiment kind.

:func:`run_experiment` takes a validated
:class:`~repro.experiment.spec.ExperimentSpec` and runs it through the same
cost model / scheduler / execution-backend stack the CLI always used,
printing the exact human-readable output the corresponding ``herald``
sub-command prints (the CLI tests pin this equivalence byte for byte) and
returning an :class:`ExperimentOutcome` with the process exit code and the
schema-versioned report of :mod:`repro.experiment.report`.

The CLI sub-commands are thin compilers now: flags become a spec mapping,
the mapping becomes an :class:`ExperimentSpec`, and this module runs it —
so a flag invocation and the equivalent ``herald run experiment.yaml`` are
the same program by construction.
"""

from __future__ import annotations

import sys
from typing import Dict, NamedTuple, Optional, Union

from repro.accel.builders import design_from_spec, make_fda, make_rda
from repro.accel.design import AcceleratorDesign
from repro.core import HeraldDSE, HeraldScheduler, evaluate_design
from repro.core.partitioner import PartitionSearch, search_from_spec
from repro.dataflow import NVDLA, SHIDIANNAO, style_by_name
from repro.exceptions import (
    SearchError,
    SpecError,
    TaskExecutionError,
    WorkloadError,
)
from repro.exec import backends
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.experiment.report import build_report
from repro.experiment.spec import ExperimentSpec
from repro.maestro import CostModel


class ExperimentOutcome(NamedTuple):
    """What one experiment run produced: an exit code and (on success) the
    report document."""

    exit_code: int
    report: Optional[Dict[str, object]] = None


def _resolve_design(reference: Union[str, AcceleratorDesign], workload, chip,
                    cost_model, scheduler) -> AcceleratorDesign:
    """Materialise a design reference (named designs resolve here because
    ``maelstrom`` runs the paper's partition search for the workload)."""
    if isinstance(reference, AcceleratorDesign):
        return reference
    if reference == "maelstrom":
        dse = HeraldDSE(cost_model=cost_model, scheduler=scheduler)
        return dse.maelstrom_design(workload, chip)
    if reference == "rda":
        return make_rda(chip)
    return make_fda(chip, style_by_name(reference.split("-", 1)[1]))


def _streaming_workload(spec: ExperimentSpec) -> "StreamingWorkload":
    """The arrival trace: explicit streams, stochastic traffic, or the
    periodic suite trace at the spec's knobs."""
    if spec.streams is not None:
        return spec.streams
    knobs = spec.streaming
    if spec.traffic is not None:
        from repro.serve.traffic import traffic_suite

        # The spec fixes each knob's domain; what is left depends on the
        # frame count (a bursty dwell too short for it).
        try:
            return traffic_suite(spec.workload.name, spec.traffic.kind,
                                 frames=knobs.frames,
                                 fps_scale=knobs.fps_scale, seed=knobs.seed,
                                 **spec.traffic.shape)
        except WorkloadError as error:
            raise SpecError(f"traffic: {error}") from None
    from repro.serve.workload import streaming_suite

    return streaming_suite(spec.workload.name, frames=knobs.frames,
                           fps_scale=knobs.fps_scale,
                           jitter_s=knobs.jitter_ms / 1e3, seed=knobs.seed)


def run_experiment(spec: ExperimentSpec,
                   checkpoint_path: Optional[str] = None,
                   resume: bool = False) -> ExperimentOutcome:
    """Run one experiment, print its CLI output, and build its report.

    ``checkpoint_path`` / ``resume`` are run-site parameters, not spec
    keys: *where* a sweep persists its progress does not change *what* the
    experiment is, so the report's spec echo (and hence ``report-diff``)
    is identical between a clean run and a resumed one.  The checkpoint is
    keyed by a hash of the spec mapping *minus its exec section* — the key
    covers what the sweep computes, not how it executes, so a crashy run
    may legitimately be resumed with more workers, while
    resuming against a different experiment fails fast instead of splicing
    results.
    """
    checkpoint = None
    if resume and checkpoint_path is None:
        raise SpecError("resume: requires a checkpoint file")
    if checkpoint_path is not None:
        if spec.kind not in ("dse", "fleet"):
            raise SpecError(f"checkpoint: a {spec.kind!r} experiment has no "
                            f"task sweep to checkpoint")
        from repro.exec.checkpoint import SweepCheckpoint, sweep_key_from

        keyed = {key: value for key, value in spec.raw.items()
                 if key != "exec"}
        checkpoint = SweepCheckpoint(checkpoint_path, sweep_key_from(keyed),
                                     resume=resume)
    if spec.kind == "schedule":
        return _run_schedule(spec)
    if spec.kind == "dse":
        return _run_dse(spec, checkpoint)
    if spec.kind == "serve":
        return _run_serve(spec)
    if spec.kind in ("fleet", "closed-loop"):
        return _run_fleet(spec, checkpoint)
    raise SpecError(f"kind: unhandled experiment kind {spec.kind!r}")


def _finish(spec: ExperimentSpec, metrics: Dict[str, float],
            details: Dict[str, object],
            timing: Dict[str, float]) -> ExperimentOutcome:
    return ExperimentOutcome(
        exit_code=0,
        report=build_report(spec.kind, spec.name, dict(spec.raw),
                            metrics, details, timing))


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------
def _run_schedule(spec: ExperimentSpec) -> ExperimentOutcome:
    cost_model = CostModel()
    scheduler = HeraldScheduler(cost_model, metric=spec.metric)
    design = _resolve_design(spec.design, spec.workload, spec.chip,
                             cost_model, scheduler)
    result = evaluate_design(design, spec.workload, cost_model=cost_model,
                             scheduler=scheduler)
    print(design.describe())
    print(result.describe())
    print(f"scheduling time: {result.scheduling_time_s:.2f} s")
    summary = result.summary()
    timing = {"scheduling_time_s": summary.pop("scheduling_time_s")}
    return _finish(spec, summary, {"design": design.name}, timing)


# ---------------------------------------------------------------------------
# dse
# ---------------------------------------------------------------------------
def _run_dse(spec: ExperimentSpec,
             checkpoint: Optional["SweepCheckpoint"] = None) -> ExperimentOutcome:
    cost_model = CostModel()
    scheduler = HeraldScheduler(cost_model)
    search = search_from_spec(spec.search, cost_model=cost_model,
                              scheduler=scheduler)
    dse = HeraldDSE(cost_model=cost_model, scheduler=scheduler,
                    partition_search=search)
    jobs = workers = spec.exec_settings.jobs
    declined = ""
    if jobs > 1:
        # A pool pays only for a sweep big enough to amortise its start-up.
        placements = spec.workload.total_layers * sum(
            1 for _ in dse.enumerate_tasks(spec.workload, spec.chip))
        workers = backends.pool_workers(jobs, placements)
        if workers < jobs:
            verdict = "declined" if workers == 1 else f"capped at {workers}"
            declined = (f" (--jobs {jobs} {verdict}: {placements} layer "
                        f"placements, a pool worker needs "
                        f"{backends.POOL_PLACEMENTS_PER_WORKER})")
    if workers > 1:
        backend = ProcessPoolBackend(jobs=workers, cost_model=cost_model,
                                     scheduler=scheduler)
    else:
        backend = SerialBackend(cost_model=cost_model, scheduler=scheduler)
    dse.backend = backend
    try:
        space = dse.explore(spec.workload, spec.chip,
                            partial_ok=spec.exec_settings.partial_ok,
                            checkpoint=checkpoint)
    except TaskExecutionError as error:
        print(f"error: {error}", file=sys.stderr)
        return ExperimentOutcome(exit_code=3)
    print(space.describe())
    print(f"execution backend: {backend.describe()}{declined}")
    print(f"cost model: {backend.total_cold_evaluations} cold evaluations, "
          f"{backend.total_cache_hits} cache hits")
    if checkpoint is not None:
        print(checkpoint.describe())

    metrics: Dict[str, float] = {}
    best_designs: Dict[str, str] = {}
    for row in space.summary_rows():
        category = str(row["category"])
        best_designs[category] = str(row["design"])
        metrics[f"{category}_latency_s"] = float(row["latency_s"])
        metrics[f"{category}_energy_mj"] = float(row["energy_mj"])
        metrics[f"{category}_edp_js"] = float(row["edp_js"])
    details: Dict[str, object] = {
        "best_designs": best_designs,
        "points": len(space.points),
    }
    if space.failures:
        details["failures"] = space.failure_rows()
    # Evaluation/cache counters are run-site facts, not experiment results:
    # a resumed sweep re-runs fewer tasks, so they live in the timing
    # section, outside the metrics a report diff compares — resumed and
    # clean runs diff clean against each other.
    timing: Dict[str, float] = {
        "cold_evaluations": float(backend.total_cold_evaluations),
        "cache_hits": float(backend.total_cache_hits),
        "executed_tasks": float(space.executed_tasks),
        "resumed_tasks": float(space.resumed_tasks),
        "workers": float(workers),
    }
    return _finish(spec, metrics, details, timing)


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
def _serving_metrics(summary: Dict[str, object],
                     prefix: str = "") -> Dict[str, float]:
    """The flat, comparable slice of a serving/fleet report summary."""
    metrics: Dict[str, float] = {}
    for key, value in summary.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        metrics[prefix + key] = float(value)
    return metrics


def _run_serve(spec: ExperimentSpec) -> ExperimentOutcome:
    from repro.serve.simulator import ServingSimulator, sustained_fps

    cost_model = CostModel()
    scheduler = HeraldScheduler(cost_model, metric=spec.metric)
    design = _resolve_design(spec.design, spec.workload, spec.chip,
                             cost_model, scheduler)
    streaming = _streaming_workload(spec)
    simulator = ServingSimulator(scheduler)
    result = simulator.simulate(streaming, design.sub_accelerators)

    print(design.describe())
    print(streaming.describe())
    print(result.report.describe())

    summary = result.report.summary()
    metrics = _serving_metrics(summary)
    details: Dict[str, object] = {"design": design.name,
                                  "streams": summary["streams"]}

    if spec.sustained.enabled:
        sustained = sustained_fps(simulator, streaming,
                                  design.sub_accelerators,
                                  lo=spec.sustained.lo, hi=spec.sustained.hi,
                                  iterations=spec.sustained.probes,
                                  tolerance=spec.sustained.tolerance)
        print(sustained.describe())
        metrics["sustained_fps_factor"] = sustained.factor
        details["sustained_fps_per_stream"] = dict(sustained.fps_per_stream)
        details["sustained_evaluations"] = sustained.evaluations

    if spec.optimize_sla:
        search = PartitionSearch(cost_model=cost_model, scheduler=scheduler,
                                 metric="sla")
        best = search.search_best(spec.chip, [NVDLA, SHIDIANNAO], streaming)
        frames = best.result.frame_summary()
        if frames["missed_frames"]:
            print("SLA search: no partition serves this scenario without "
                  "deadline misses; best-tail partition:")
        else:
            print("SLA-optimal maelstrom partition (zero misses, min p99):")
        print("  " + best.describe())
        print(f"  p99 frame latency {frames['p99_latency_s'] * 1e3:.3f} ms, "
              f"miss rate {frames['deadline_miss_rate']:.1%}")
        metrics["sla_p99_latency_s"] = frames["p99_latency_s"]
        metrics["sla_deadline_miss_rate"] = frames["deadline_miss_rate"]
        details["sla_partition"] = {
            "pe_partition": list(best.pe_partition),
            "bw_partition_gbps": list(best.bw_partition_gbps),
        }
    return _finish(spec, metrics, details, {})


# ---------------------------------------------------------------------------
# fleet / closed-loop
# ---------------------------------------------------------------------------
def _run_fleet(spec: ExperimentSpec,
               checkpoint: Optional["SweepCheckpoint"] = None
               ) -> ExperimentOutcome:
    from repro.serve.fleet import (
        FleetSimulator,
        fleet_from_spec,
        min_chips_for_sla,
    )

    cost_model = CostModel()
    scheduler = HeraldScheduler(cost_model, metric=spec.metric)
    design = _resolve_design(spec.design, spec.workload, spec.chip,
                             cost_model, scheduler)

    def build_design(sub: object, sub_path: str) -> AcceleratorDesign:
        if sub is None:
            return design
        if isinstance(sub, str):
            return _resolve_design(sub, spec.workload, spec.chip,
                                   cost_model, scheduler)
        return design_from_spec(sub, path=sub_path, chip=spec.chip)

    fleet = fleet_from_spec(spec.fleet, build_design)
    streaming = _streaming_workload(spec)
    # No simulation of this run has more chips than the larger of the
    # fleet and the min-chips search's ceiling, so no more workers pay.
    chips = len(fleet.chips)
    if spec.min_chips.enabled:
        chips = max(chips, spec.min_chips.max_chips)
    jobs = min(spec.exec_settings.jobs, chips)
    if jobs > 1:
        backend = ProcessPoolBackend(jobs=jobs, cost_model=cost_model,
                                     scheduler=scheduler)
    else:
        backend = SerialBackend(cost_model=cost_model, scheduler=scheduler)
    simulator = FleetSimulator(backend=backend)

    print(fleet.describe())
    print(streaming.describe())
    online = None
    try:
        if spec.online:
            online = simulator.simulate_online(streaming, fleet,
                                               policy=spec.policy,
                                               faults=spec.faults,
                                               autoscale=spec.autoscale)
            result_report = online.report
        else:
            result_report = simulator.simulate(
                streaming, fleet, policy=spec.policy,
                partial_ok=spec.exec_settings.partial_ok,
                checkpoint=checkpoint).report
    except (SearchError, WorkloadError) as error:
        print(f"error: {error}", file=sys.stderr)
        return ExperimentOutcome(exit_code=2)
    except TaskExecutionError as error:
        print(f"error: {error}", file=sys.stderr)
        return ExperimentOutcome(exit_code=3)
    print(result_report.describe())
    if spec.online:
        stats = online.stats
        print(f"closed loop: {stats.redispatched_frames} re-dispatched, "
              f"{stats.stolen_frames} stolen, "
              f"{len(stats.lost_frame_ids)} lost")
        for interval in stats.intervals:
            print(f"  autoscale [{interval.start_s * 1e3:8.3f}, "
                  f"{interval.end_s * 1e3:8.3f}) ms: "
                  f"{interval.pending_frames} pending, active "
                  f"{interval.active_before} -> {interval.active_after}")
    print(f"execution backend: {backend.describe()}")

    summary = result_report.summary()
    metrics = _serving_metrics(summary)
    details: Dict[str, object] = {
        "fleet": summary["fleet"],
        "policy": summary["policy"],
        "chips": summary["chips"],
    }
    if spec.online:
        stats = online.stats
        metrics["redispatched_frames"] = float(stats.redispatched_frames)
        metrics["stolen_frames"] = float(stats.stolen_frames)
        metrics["lost_frames"] = float(len(stats.lost_frame_ids))
        details["online"] = stats.summary()

    if spec.min_chips.enabled:
        try:
            search = min_chips_for_sla(
                simulator, streaming, design, policy=spec.policy,
                max_chips=spec.min_chips.max_chips,
                partial_ok=spec.exec_settings.partial_ok,
                checkpoint=checkpoint)
        except TaskExecutionError as error:
            print(f"error: {error}", file=sys.stderr)
            return ExperimentOutcome(exit_code=3)
        print(search.describe())
        metrics["min_chips_for_sla"] = float(search.chips)
        details["min_chips_evaluations"] = search.evaluations
    if checkpoint is not None:
        print(checkpoint.describe())
    failed = getattr(result_report, "failed_chips", ())
    if failed:
        details["failed_chips"] = list(failed)
    return _finish(spec, metrics, details, {})
