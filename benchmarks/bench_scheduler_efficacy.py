"""Sec. V-B "Efficacy of Scheduling Algorithm": Herald's scheduler vs greedy.

The paper reports that Herald's scheduler (load balancing + dependence-aware
ordering + idle-time post-processing) finds schedules with 24.1 % lower EDP
than a per-layer greedy scheduler on Maelstrom designs, on average.
"""

from repro.accel.builders import make_hda
from repro.accel.classes import ACCELERATOR_CLASSES
from repro.analysis.metrics import percent_improvement
from repro.core.evaluator import evaluate_design
from repro.core.scheduler import GreedyScheduler, HeraldScheduler
from repro.dataflow.styles import NVDLA, SHIDIANNAO
from repro.workloads.suites import arvr_a, arvr_b, mlperf

from common import SHARED_COST_MODEL, emit, run_once

WORKLOADS = {"AR/VR-A": arvr_a, "AR/VR-B": arvr_b, "MLPerf": mlperf}
CLASSES = ("edge", "mobile", "cloud")


def _efficacy():
    herald = HeraldScheduler(SHARED_COST_MODEL)
    greedy = GreedyScheduler(SHARED_COST_MODEL)
    rows = ["workload    class    Herald EDP     greedy EDP     improvement"]
    improvements = []
    for workload_name, factory in WORKLOADS.items():
        workload = factory()
        for class_name in CLASSES:
            chip = ACCELERATOR_CLASSES[class_name]
            design = make_hda(chip, [NVDLA, SHIDIANNAO])
            herald_result = evaluate_design(design, workload,
                                            cost_model=SHARED_COST_MODEL,
                                            scheduler=herald)
            greedy_result = evaluate_design(design, workload,
                                            cost_model=SHARED_COST_MODEL,
                                            scheduler=greedy)
            gain = percent_improvement(greedy_result.edp, herald_result.edp)
            improvements.append(gain)
            rows.append(f"{workload_name:10s} {class_name:8s} {herald_result.edp:12.4g}  "
                        f"{greedy_result.edp:12.4g}  {gain:+7.1f} %")
    average = sum(improvements) / len(improvements)
    rows.append(f"average EDP improvement of Herald over greedy: {average:+.1f} % "
                "(paper: 24.1 %)")
    return rows, improvements


def test_scheduler_efficacy(benchmark):
    rows, improvements = run_once(benchmark, _efficacy)
    emit("scheduler_efficacy", rows)
    average = sum(improvements) / len(improvements)
    # Herald's scheduler should never lose to greedy and should win on average.
    assert all(gain > -1.0 for gain in improvements)
    assert average > 5.0
