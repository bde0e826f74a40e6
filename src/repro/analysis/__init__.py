"""Analysis utilities: EDP metrics, Pareto fronts, and experiment sweeps."""

from repro.analysis.metrics import (
    deadline_miss_rate,
    edp,
    imbalance,
    percent_improvement,
    percentile,
)
from repro.analysis.pareto import pareto_front, is_pareto_optimal
from repro.analysis.sweeps import (
    batch_size_study,
    workload_change_study,
    pe_partition_sweep,
)

__all__ = [
    "deadline_miss_rate",
    "edp",
    "imbalance",
    "percent_improvement",
    "percentile",
    "pareto_front",
    "is_pareto_optimal",
    "batch_size_study",
    "workload_change_study",
    "pe_partition_sweep",
]
