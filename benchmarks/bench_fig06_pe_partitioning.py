"""Fig. 6: impact of PE partitioning on a two-way HDA with naive bandwidth split.

The paper sweeps the PE split of a 16K-PE cloud HDA (ACC1 Shi-diannao, ACC2
NVDLA) running AR/VR-A with evenly-split bandwidth and shows that the even
split is ~17 % worse than the best split and that extreme splits are far worse.
This benchmark regenerates the sweep (on the cloud class, with a coarser grid
so it completes quickly) and reports the even-vs-best gap.
"""

from repro.accel.classes import CLOUD
from repro.analysis.sweeps import pe_partition_sweep
from repro.dataflow.styles import NVDLA, SHIDIANNAO
from repro.exec.backends import SerialBackend
from repro.workloads.suites import arvr_a

from common import SHARED_COST_MODEL, emit, run_once


def _figure6():
    points = pe_partition_sweep(arvr_a(), CLOUD, styles=(SHIDIANNAO, NVDLA), steps=8,
                                backend=SerialBackend(cost_model=SHARED_COST_MODEL))
    rows = []
    for point in points:
        rows.append(
            f"ACC1(shi) {point.pe_partition[0]:6d} / ACC2(nvdla) {point.pe_partition[1]:6d}  "
            f"EDP {point.edp:8.4f} J*s  latency {point.latency_s * 1e3:8.2f} ms  "
            f"energy {point.energy_mj:8.1f} mJ"
        )
    best = min(points, key=lambda p: p.edp)
    even = min(points, key=lambda p: abs(p.pe_partition[0] - p.pe_partition[1]))
    gap = (even.edp - best.edp) / best.edp * 100.0
    rows.append(f"best split : {best.pe_partition} (EDP {best.edp:.4f})")
    rows.append(f"even split : {even.pe_partition} (EDP {even.edp:.4f})")
    rows.append(f"even-vs-best EDP gap: {gap:+.1f} % (paper reports ~17 %)")
    return rows, points, best, even


def test_fig06_pe_partition_sweep(benchmark):
    rows, points, best, even = run_once(benchmark, _figure6)
    emit("fig06_pe_partitioning", rows)
    # Shape check: the sweep is not flat and extreme partitions are the worst.
    worst = max(points, key=lambda p: p.edp)
    assert worst.edp > 1.10 * best.edp
    assert worst.pe_partition[0] in (points[0].pe_partition[0], points[-1].pe_partition[0])
