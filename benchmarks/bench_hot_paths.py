"""Hot-path performance-regression harness (standalone, stdlib-only).

Measures the scheduling and serving hot paths and writes a machine-readable
``BENCH_hotpaths.json`` at the repository root so the performance trajectory
is comparable across changes:

* **Cost-model throughput** — cold and warm query rates on the AR/VR-A suite,
  plus the cold-pass hit rate (the fraction of queries a single sweep over
  the workload serves from the memo).  The hit rate is a pure function of
  the shape-key scheme, so it doubles as the CI regression gate: if someone
  re-introduces identity fields into the key it drops immediately.
* **Warm repeated scheduling** and one **end-to-end ``explore()``** (the
  Fig. 11 sweep), timed in process.  Fresh-process, end-to-end timings of
  the ``herald`` CLI live in ``perfbench/``.
* **Serving and fleet overhead** — online-mode scheduling cost over the batch
  path, router dispatch cost, multi-chip fleet simulation at 1 / 2 / 4
  chips, and the closed loop; these sections carry the correctness gates
  ``--check`` enforces (all-zero release trace ≡ batch timeline, single-chip
  passthrough fleet ≡ bare serving simulator, feedback-disabled online loop
  ≡ a-priori dispatcher).

Usage::

    PYTHONPATH=src python benchmarks/bench_hot_paths.py [--quick] [--check]
                                                        [--output PATH]

``--quick`` shrinks the sizes for CI; ``--check`` compares the cold-pass hit
rate against the checked-in baseline, checks the equivalence gates, and exits
non-zero on regression.  All benchmarks are macro-level single-process
measurements.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.accel.classes import ACCELERATOR_CLASSES
from repro.core.dse import HeraldDSE
from repro.core.partitioner import PartitionSearch
from repro.core.scheduler import HeraldScheduler
from repro.dataflow.styles import NVDLA, SHIDIANNAO
from repro.exec.backends import SerialBackend
from repro.maestro.cost import CostModel, clear_all_memos
from repro.maestro.hardware import SubAcceleratorConfig
from repro.accel.design import AcceleratorDesign, AcceleratorKind
from repro.serve import (
    ChipFailure,
    FaultSpec,
    Fleet,
    FleetSimulator,
    FrameCostEstimator,
    Router,
    ServingSimulator,
    streaming_suite,
    traffic_suite,
)
from repro.workloads.suites import arvr_a, arvr_b, mlperf

DEFAULT_OUTPUT = os.path.join(_ROOT, "BENCH_hotpaths.json")

#: Tolerated absolute drop in the cold-pass hit rate before --check fails.
HIT_RATE_TOLERANCE = 0.005


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _two_way_split(chip) -> Tuple[SubAcceleratorConfig, ...]:
    half_bw = chip.noc_bandwidth_bytes_per_s / 2
    return (
        SubAcceleratorConfig(name="acc0-nvdla", dataflow=NVDLA,
                             num_pes=chip.num_pes // 2,
                             bandwidth_bytes_per_s=half_bw,
                             buffer_bytes=chip.global_buffer_bytes,
                             clock_hz=chip.clock_hz),
        SubAcceleratorConfig(name="acc1-shidiannao", dataflow=SHIDIANNAO,
                             num_pes=chip.num_pes // 2,
                             bandwidth_bytes_per_s=half_bw,
                             buffer_bytes=chip.global_buffer_bytes,
                             clock_hz=chip.clock_hz),
    )


def _timed(func):
    gc.collect()
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def _query_pass(model: CostModel, layers, accs) -> None:
    for layer in layers:
        for acc in accs:
            model.layer_cost(layer, acc)


# ---------------------------------------------------------------------------
# Section 1: cost-model throughput
# ---------------------------------------------------------------------------

def bench_cost_model(quick: bool) -> Dict[str, object]:
    workload = arvr_a()
    chip = ACCELERATOR_CLASSES["edge"]
    accs = _two_way_split(chip)
    layers = workload.all_layers()
    queries = len(layers) * len(accs)

    clear_all_memos()
    model = CostModel()
    shape_cold_s, _ = _timed(lambda: _query_pass(model, layers, accs))
    cold_pass_hit_rate = model.hits / (model.hits + model.misses)

    warm_repeats = 3 if quick else 10
    warm_s, _ = _timed(lambda: [_query_pass(model, layers, accs)
                                for _ in range(warm_repeats)])

    return {
        "workload": workload.name,
        "sub_accelerators": len(accs),
        "total_layer_executions": workload.total_layers,
        "unique_named_layers": workload.unique_layers,
        "unique_shapes": workload.unique_shapes,
        "queries_per_pass": queries,
        "shape_cold_s": shape_cold_s,
        "shape_cold_entries": model.cache_size(),
        "cold_pass_hit_rate": cold_pass_hit_rate,
        "warm_queries_per_s": warm_repeats * queries / warm_s,
    }


# ---------------------------------------------------------------------------
# Section 2: warm repeated scheduling
# ---------------------------------------------------------------------------

def bench_warm_scheduling(quick: bool) -> Dict[str, object]:
    # The Table VI batch-8 variant of the AR/VR-A suite: the list scheduler is
    # the binding resource at this instance count, which is exactly the
    # regime repeated scheduling (partition refinement, workload studies)
    # operates in.
    workload = arvr_a().with_batches(2 if quick else 8)
    chip = ACCELERATOR_CLASSES["edge"]
    accs = _two_way_split(chip)
    repeats = 5 if quick else 20

    scheduler = HeraldScheduler(CostModel())
    scheduler.schedule(workload, accs)  # warm the memo
    elapsed, _ = _timed(lambda: [scheduler.schedule(workload, accs)
                                 for _ in range(repeats)])
    return {
        "workload": workload.name,
        "layer_executions": workload.total_layers,
        "repeats": repeats,
        "schedule_s": elapsed / repeats,
    }


# ---------------------------------------------------------------------------
# Section 3: end-to-end explore() (the Fig. 11 sweep)
# ---------------------------------------------------------------------------

def bench_explore(quick: bool) -> Dict[str, object]:
    """The Fig. 11 sweep: every workload suite on every accelerator class.

    Quick mode shrinks the sweep to AR/VR-A on the edge class with a coarser
    partition grid so CI stays fast; the full sweep matches
    ``bench_fig11_design_space.py`` (pe_steps=8, bw_steps=4, three-way HDAs,
    one shared cost model across the nine sub-plots).
    """
    if quick:
        workloads = [arvr_a()]
        classes = ["edge"]
        pe_steps, bw_steps, include_three_way = 4, 2, False
    else:
        workloads = [arvr_a(), arvr_b(), mlperf()]
        classes = ["edge", "mobile", "cloud"]
        pe_steps, bw_steps, include_three_way = 8, 4, True

    clear_all_memos()
    model = CostModel()
    scheduler = HeraldScheduler(model)
    search = PartitionSearch(cost_model=model, scheduler=scheduler,
                             pe_steps=pe_steps, bw_steps=bw_steps)
    backend = SerialBackend(cost_model=model, scheduler=scheduler)
    dse = HeraldDSE(cost_model=model, scheduler=scheduler,
                    partition_search=search, backend=backend)

    # Only the explore() calls are timed; each space is dropped before the
    # next cell so the sweep does not accumulate schedule objects.
    elapsed = 0.0
    design_points = 0
    gc.collect()
    for workload in workloads:
        for class_name in classes:
            start = time.perf_counter()
            space = dse.explore(workload, ACCELERATOR_CLASSES[class_name],
                                include_three_way=include_three_way)
            elapsed += time.perf_counter() - start
            design_points += len(space.points)
            del space

    return {
        "workloads": [workload.name for workload in workloads],
        "classes": classes,
        "pe_steps": pe_steps,
        "bw_steps": bw_steps,
        "include_three_way": include_three_way,
        "design_points": design_points,
        "explore_s": elapsed,
    }


# ---------------------------------------------------------------------------
# Section 4: streaming (online serving) overhead
# ---------------------------------------------------------------------------

def bench_serving(quick: bool) -> Dict[str, object]:
    """Online-mode overhead over the batch path, plus its correctness gate.

    The release-aware list schedule rides the same event heap as the batch
    path, so online scheduling of the streaming AR/VR-A scenario should cost
    within a few percent of batch scheduling the identical frame set; the
    section measures that ratio and — as the gate ``--check`` enforces —
    asserts that an all-zero release trace reproduces the batch timeline
    bit-for-bit.
    """
    streaming = streaming_suite("arvr-a", frames=1 if quick else 4)
    spec = streaming.to_workload_spec()
    chip = ACCELERATOR_CLASSES["edge"]
    accs = _two_way_split(chip)
    clock = accs[0].clock_hz
    releases = streaming.release_cycles(clock)
    repeats = 5 if quick else 20

    model = CostModel()
    scheduler = HeraldScheduler(model)
    scheduler.schedule(spec, accs)  # warm the memos once

    batch_s, _ = _timed(lambda: [scheduler.schedule(spec, accs)
                                 for _ in range(repeats)])
    online_s, _ = _timed(lambda: [scheduler.schedule(spec, accs,
                                                     release_cycles=releases)
                                  for _ in range(repeats)])

    zero = {instance_id: 0.0 for instance_id in releases}
    timeline = lambda s: [(e.instance_id, e.layer_index, e.sub_accelerator,
                           e.start_cycle, e.finish_cycle) for e in s.entries]
    zero_identical = (timeline(scheduler.schedule(spec, accs,
                                                  release_cycles=zero)) ==
                      timeline(scheduler.schedule(spec, accs)))

    simulate_s, result = _timed(
        lambda: ServingSimulator(scheduler).simulate(streaming, accs))
    return {
        "workload": streaming.name,
        "frames": streaming.total_frames,
        "layer_executions": spec.total_layers,
        "repeats": repeats,
        "batch_s": batch_s / repeats,
        "online_s": online_s / repeats,
        "online_overhead": (online_s / batch_s) if batch_s > 0 else 1.0,
        "simulate_s": simulate_s,
        "deadline_miss_rate": result.report.deadline_miss_rate,
        "zero_release_identical": zero_identical,
    }


# ---------------------------------------------------------------------------
# Section 5: fleet routing and multi-chip serving
# ---------------------------------------------------------------------------

def bench_fleet(quick: bool) -> Dict[str, object]:
    """Fleet-layer overhead and scaling, plus its correctness gate.

    The fleet layer adds two things on top of per-chip serving: the router's
    dispatch pass (policy decisions off cost-model estimates) and the report
    aggregation.  This section times the dispatch pass in isolation, measures
    end-to-end fleet simulation at 1 / 2 / 4 chips under the SLA-aware
    policy, and — as the gate ``--check`` enforces — asserts that a one-chip
    passthrough fleet reproduces the single-chip ``ServingSimulator``
    timeline bit-for-bit.
    """
    streaming = streaming_suite("arvr-a", frames=1 if quick else 2)
    chip = ACCELERATOR_CLASSES["edge"]
    design = AcceleratorDesign(name="edge-duo", kind=AcceleratorKind.HDA,
                               chip=chip,
                               sub_accelerators=_two_way_split(chip))
    model = CostModel()
    scheduler = HeraldScheduler(model)
    repeats = 3 if quick else 10

    timeline = lambda s: [(e.instance_id, e.layer_index, e.sub_accelerator,
                           e.start_cycle, e.finish_cycle) for e in s.entries]
    bare = ServingSimulator(scheduler).simulate(streaming,
                                                design.sub_accelerators)
    simulator = FleetSimulator(cost_model=model, scheduler=scheduler)
    solo = simulator.simulate(streaming, Fleet.homogeneous(design, 1),
                              policy="passthrough")
    single_chip_identical = (timeline(solo.chip_results[0].schedule)
                             == timeline(bare.schedule))

    router = Router("earliest-completion",
                    estimator=FrameCostEstimator(model))
    chips4 = Fleet.homogeneous(design, 4).chips
    dispatch_s, _ = _timed(lambda: [router.dispatch(streaming, chips4)
                                    for _ in range(repeats)])

    sizes = [1, 2, 4]
    simulate_s: List[float] = []
    p99_ms: List[float] = []
    miss_rates: List[float] = []
    for size in sizes:
        fleet = Fleet.homogeneous(design, size)
        simulator.simulate(streaming, fleet, policy="earliest-completion")
        elapsed, result = _timed(lambda: [
            simulator.simulate(streaming, fleet,
                               policy="earliest-completion")
            for _ in range(repeats)])
        report = result[-1].report
        simulate_s.append(elapsed / repeats)
        p99_ms.append(report.p99_latency_s * 1e3)
        miss_rates.append(report.deadline_miss_rate)

    return {
        "workload": streaming.name,
        "frames": streaming.total_frames,
        "repeats": repeats,
        "sizes": sizes,
        "dispatch_s": dispatch_s / repeats,
        "simulate_s": simulate_s,
        "p99_latency_ms": p99_ms,
        "deadline_miss_rates": miss_rates,
        "single_chip_identical": single_chip_identical,
    }


# ---------------------------------------------------------------------------
# Section 6: closed-loop (feedback) serving
# ---------------------------------------------------------------------------

def bench_closed_loop(quick: bool) -> Dict[str, object]:
    """Closed-loop engine cost over the a-priori planner, plus its gate.

    The feedback loop pays for what the planner skips: per-chip service
    probes (one scheduler run per distinct (chip, model)) and the global
    event heap.  This section measures end-to-end ``simulate_online`` under
    Poisson traffic at 2 / 4 chips against the a-priori ``simulate`` of the
    same workload, times a chip-death recovery run, and — as the gate
    ``--check`` enforces — asserts the feedback-disabled loop reproduces the
    a-priori dispatcher exactly (assignments and report summary), the
    same equivalence the golden corpus pins per scenario.
    """
    streaming = streaming_suite("arvr-a", frames=1 if quick else 2)
    traffic = traffic_suite("arvr-a", "poisson", frames=1 if quick else 2)
    chip = ACCELERATOR_CLASSES["edge"]
    design = AcceleratorDesign(name="edge-duo", kind=AcceleratorKind.HDA,
                               chip=chip,
                               sub_accelerators=_two_way_split(chip))
    model = CostModel()
    scheduler = HeraldScheduler(model)
    simulator = FleetSimulator(cost_model=model, scheduler=scheduler)
    repeats = 3 if quick else 10

    fleet2 = Fleet.homogeneous(design, 2)
    apriori = simulator.simulate(streaming, fleet2,
                                 policy="earliest-completion")
    reduced = simulator.simulate_online(streaming, fleet2,
                                        policy="earliest-completion",
                                        feedback=False)
    online_matches_apriori = (
        reduced.plan_result is not None
        and reduced.plan_result.plan.assignments == apriori.plan.assignments
        and reduced.plan_result.report.summary() == apriori.report.summary())

    sizes = [2, 4]
    apriori_s: List[float] = []
    online_s: List[float] = []
    for size in sizes:
        fleet = Fleet.homogeneous(design, size)
        simulator.simulate(streaming, fleet, policy="earliest-completion")
        simulator.simulate_online(traffic, fleet,
                                  policy="earliest-completion")
        elapsed, _ = _timed(lambda: [
            simulator.simulate(traffic, fleet, policy="earliest-completion")
            for _ in range(repeats)])
        apriori_s.append(elapsed / repeats)
        elapsed, _ = _timed(lambda: [
            simulator.simulate_online(traffic, fleet,
                                      policy="earliest-completion")
            for _ in range(repeats)])
        online_s.append(elapsed / repeats)

    # Fault recovery: chip 0 dies a quarter of the way into the trace.
    horizon = max(release for stream in traffic.streams
                  for release in stream.release_times_s())
    fault_s, recovery = _timed(lambda: simulator.simulate_online(
        traffic, fleet2, policy="earliest-completion",
        faults=FaultSpec(failures=(ChipFailure(0, 0.25 * horizon),))))

    return {
        "workload": traffic.name,
        "frames": traffic.total_frames,
        "repeats": repeats,
        "sizes": sizes,
        "apriori_s": apriori_s,
        "online_s": online_s,
        "online_overhead": [o / a for o, a in zip(online_s, apriori_s)],
        "fault_recovery_s": fault_s,
        "fault_redispatched": recovery.stats.redispatched_frames,
        "fault_lost": len(recovery.stats.lost_frame_ids),
        "online_matches_apriori": online_matches_apriori,
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_all(quick: bool) -> Dict[str, object]:
    results: Dict[str, object] = {
        "version": 3,
        "mode": "quick" if quick else "full",
        "python": sys.version.split()[0],
    }
    print(f"[bench_hot_paths] mode={results['mode']}")
    for name, section in (("cost_model", bench_cost_model),
                          ("warm_scheduling", bench_warm_scheduling),
                          ("explore", bench_explore),
                          ("serving", bench_serving),
                          ("fleet", bench_fleet),
                          ("closed_loop", bench_closed_loop)):
        print(f"[bench_hot_paths] running {name} ...", flush=True)
        results[name] = section(quick)
        print(f"[bench_hot_paths]   {json.dumps(results[name])}")
    return results


def check_against_baseline(results: Dict[str, object],
                           baseline_path: str) -> List[str]:
    """Regression gate: compare against the checked-in baseline JSON."""
    failures: List[str] = []
    try:
        with open(baseline_path, "r") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as error:
        return [f"cannot read baseline {baseline_path}: {error}"]

    recorded = baseline["cost_model"]["cold_pass_hit_rate"]
    measured = results["cost_model"]["cold_pass_hit_rate"]
    if measured < recorded - HIT_RATE_TOLERANCE:
        failures.append(
            f"cold-pass hit rate regressed: {measured:.4f} < recorded "
            f"baseline {recorded:.4f} (the memo key likely re-acquired "
            "identity fields)")
    if not results["serving"]["zero_release_identical"]:
        failures.append("online scheduling with an all-zero release trace "
                        "diverged from the batch schedule")
    if not results["fleet"]["single_chip_identical"]:
        failures.append("the single-chip passthrough fleet diverged from the "
                        "bare serving simulator")
    if not results["closed_loop"]["online_matches_apriori"]:
        failures.append("the feedback-disabled online loop diverged from the "
                        "a-priori dispatcher")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes for CI")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression against the checked-in "
                             "baseline (read before --output is written)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON results")
    parser.add_argument("--baseline", default=DEFAULT_OUTPUT,
                        help="baseline JSON for --check")
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick)

    failures: List[str] = []
    if args.check:
        failures = check_against_baseline(results, args.baseline)

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=1, allow_nan=False)
        handle.write("\n")
    print(f"[bench_hot_paths] wrote {args.output}")

    for failure in failures:
        print(f"[bench_hot_paths] REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
