"""Analysis utilities: EDP metrics, Pareto fronts, and experiment sweeps."""

from repro.exports import reexport

# ``repro.analysis.metrics`` is light and shared by the scheduler and the
# serving stack; the sweeps load the DSE driver, so they load on first use.
__all__, __getattr__, __dir__ = reexport(__name__, {
    "repro.analysis.metrics": ("deadline_miss_rate", "edp", "imbalance",
                               "percent_improvement", "percentile"),
    "repro.analysis.pareto": ("pareto_front", "is_pareto_optimal"),
    "repro.analysis.sweeps": ("batch_size_study", "workload_change_study",
                              "pe_partition_sweep"),
})
