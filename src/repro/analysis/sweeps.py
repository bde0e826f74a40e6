"""Parameter sweeps behind the paper's secondary studies.

Three studies from Sec. V-B are packaged here so that benchmarks, examples,
and the CLI share one implementation:

* :func:`pe_partition_sweep` — the Fig. 6 sweep: EDP as a function of the PE
  split of a two-way HDA with naive (even) bandwidth partitioning.
* :func:`batch_size_study` — Table VI: latency / energy gain of the HDA over
  the best FDA and the RDA as the MLPerf batch size grows.
* :func:`workload_change_study` — Fig. 13: evaluate HDAs optimised for one
  workload on the other workloads (only the schedule is re-run, the hardware
  partition stays fixed), quantifying robustness to workload change.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.accel.builders import make_hda
from repro.accel.design import AcceleratorDesign
from repro.dataflow.styles import NVDLA, SHIDIANNAO, DataflowStyle
from repro.maestro.hardware import ChipConfig
from repro.core.dse import HeraldDSE
from repro.core.evaluator import EvaluationResult
from repro.exec.backends import ExecutionBackend, SerialBackend
from repro.exec.tasks import EvaluationTask
from repro.analysis.metrics import percent_improvement
from repro.workloads.spec import WorkloadSpec


# ---------------------------------------------------------------------------
# Fig. 6: PE partitioning sweep
# ---------------------------------------------------------------------------

class PartitionSweepPoint(NamedTuple):
    """One point of the Fig. 6 sweep: a PE split and its EDP."""

    pe_partition: Tuple[int, int]
    edp: float
    latency_s: float
    energy_mj: float


def pe_partition_sweep(workload: WorkloadSpec, chip: ChipConfig,
                       styles: Sequence[DataflowStyle] = (SHIDIANNAO, NVDLA),
                       steps: int = 8,
                       backend: Optional[ExecutionBackend] = None
                       ) -> List[PartitionSweepPoint]:
    """Sweep the PE split of a two-way HDA with even bandwidth partitioning.

    Returns one point per split, ordered from "(almost) everything on the first
    sub-accelerator" to the opposite extreme, which is exactly the x-axis of
    Fig. 6.  The splits are independent evaluations, so they are submitted as
    tasks to the execution ``backend`` (in-process serial by default), which
    owns the cost model they share.
    """
    backend = backend or SerialBackend()
    total_bw_gbps = chip.noc_bandwidth_bytes_per_s / 1e9
    even_bw = (total_bw_gbps / 2, total_bw_gbps / 2)
    step = chip.num_pes // steps
    tasks: List[EvaluationTask] = []
    for task_id, first in enumerate(range(step, chip.num_pes, step)):
        partition = (first, chip.num_pes - first)
        design = make_hda(chip, list(styles), pe_partition=partition,
                          bw_partition_gbps=even_bw)
        tasks.append(EvaluationTask(task_id, design, workload, category="pe-sweep",
                                    pe_partition=partition, bw_partition_gbps=even_bw))
    return [
        PartitionSweepPoint(
            pe_partition=task.pe_partition,
            edp=result.edp,
            latency_s=result.latency_s,
            energy_mj=result.energy_mj,
        )
        for task, result in zip(tasks, backend.run(tasks))
    ]


# ---------------------------------------------------------------------------
# Table VI: batch-size study
# ---------------------------------------------------------------------------

class BatchSizeRow(NamedTuple):
    """One row of Table VI: gains of the HDA at a given batch size."""

    chip_name: str
    batch_size: int
    latency_gain_vs_fda: float
    latency_gain_vs_rda: float
    energy_gain_vs_fda: float
    energy_gain_vs_rda: float


def batch_size_study(base_workload: WorkloadSpec, chip: ChipConfig,
                     batch_sizes: Sequence[int] = (1, 8),
                     dse: Optional[HeraldDSE] = None) -> List[BatchSizeRow]:
    """Latency/energy gain of the best HDA vs. the best FDA and the RDA (Table VI)."""
    driver = dse or HeraldDSE()
    rows: List[BatchSizeRow] = []
    for batch_size in batch_sizes:
        workload = base_workload.with_batches(batch_size)
        comparison = driver.compare_with_baselines(workload, chip)
        hda = comparison["maelstrom"]
        fda = comparison["best_fda"]
        rda = comparison["rda"]
        rows.append(BatchSizeRow(
            chip_name=chip.name,
            batch_size=batch_size,
            latency_gain_vs_fda=percent_improvement(fda.latency_s, hda.latency_s),
            latency_gain_vs_rda=percent_improvement(rda.latency_s, hda.latency_s),
            energy_gain_vs_fda=percent_improvement(fda.energy_mj, hda.energy_mj),
            energy_gain_vs_rda=percent_improvement(rda.energy_mj, hda.energy_mj),
        ))
    return rows


# ---------------------------------------------------------------------------
# Fig. 13: workload-change robustness
# ---------------------------------------------------------------------------

class WorkloadChangeStudy:
    """Result of running HDAs optimised for one workload on every workload."""

    def __init__(self) -> None:
        #: results[optimised_for][run_on] -> evaluation of that combination.
        self.results: Dict[str, Dict[str, EvaluationResult]] = {}

    def penalty(self, optimised_for: str, run_on: str, metric: str = "latency_s") -> float:
        """Percentage cost of running ``run_on`` on an HDA tuned for ``optimised_for``.

        Positive values mean the mismatched HDA is worse than the HDA tuned for
        ``run_on`` itself.
        """
        matched = self.results[run_on][run_on].summary()[metric]
        mismatched = self.results[optimised_for][run_on].summary()[metric]
        return (mismatched - matched) / matched * 100.0

    def average_penalty(self, metric: str = "latency_s") -> float:
        """Average penalty over all mismatched (optimised_for, run_on) pairs."""
        penalties: List[float] = []
        for optimised_for in self.results:
            for run_on in self.results[optimised_for]:
                if optimised_for != run_on:
                    penalties.append(self.penalty(optimised_for, run_on, metric))
        if not penalties:
            return 0.0
        return sum(penalties) / len(penalties)


def workload_change_study(workloads: Sequence[WorkloadSpec], chip: ChipConfig,
                          dse: Optional[HeraldDSE] = None) -> WorkloadChangeStudy:
    """Fix each workload's Maelstrom design and re-schedule every other workload on it."""
    driver = dse or HeraldDSE()
    designs: Dict[str, AcceleratorDesign] = {
        workload.name: driver.maelstrom_design(workload, chip) for workload in workloads
    }
    # The (design, workload) cross product is a flat batch of independent
    # evaluations, so it goes through the driver's execution backend.
    tasks: List[EvaluationTask] = []
    for optimised_name, design in designs.items():
        for workload in workloads:
            tasks.append(EvaluationTask(len(tasks), design, workload,
                                        category="workload-change", group=optimised_name))
    study = WorkloadChangeStudy()
    for task, result in zip(tasks, driver.backend.run(tasks)):
        study.results.setdefault(task.group, {})[task.workload.name] = result
    return study
