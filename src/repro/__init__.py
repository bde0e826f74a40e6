"""Reproduction of *Heterogeneous Dataflow Accelerators for Multi-DNN Workloads*.

The library implements the paper's full stack:

* a DNN model substrate and model zoo (:mod:`repro.models`);
* dataflow / mapping representations (:mod:`repro.dataflow`);
* a MAESTRO-style analytical cost model (:mod:`repro.maestro`);
* FDA / SM-FDA / RDA / HDA accelerator designs (:mod:`repro.accel`);
* the Table II multi-DNN workloads (:mod:`repro.workloads`);
* **Herald**: the scheduler, hardware partitioner, and co-DSE driver
  (:mod:`repro.core`);
* a pluggable execution engine — serial / process-pool backends with
  typed failure records and resumable checkpoints — for large sweeps
  (:mod:`repro.exec`);
* a streaming serving simulator — frame-arrival traces, online scheduling,
  SLA metrics, sustained FPS (:mod:`repro.serve`);
* a declarative experiment layer — validated config specs, one runner for
  every experiment kind, versioned JSON reports with baseline deltas
  (:mod:`repro.experiment`); and
* analysis helpers (:mod:`repro.analysis`).

Quickstart
----------
>>> from repro import HeraldDSE, workload_by_name, accelerator_class
>>> dse = HeraldDSE()
>>> maelstrom = dse.maelstrom(workload_by_name("arvr-a"), accelerator_class("edge"))
>>> print(maelstrom.describe())  # doctest: +SKIP
"""

# Defined before the re-export table: submodules (e.g. the report writer)
# import it back from the package.
__version__ = "1.30.0"

from repro.exports import reexport

# Each name loads its subpackage on first use, so ``import repro.cli`` (or
# any one submodule) does not load the serving stack with the rest.
__all__, __getattr__, __dir__ = reexport(__name__, {
    "repro.models": ("Layer", "LayerType", "ModelGraph"),
    "repro.models.zoo": ("available_models", "build_model"),
    "repro.dataflow": ("DataflowStyle", "NVDLA", "SHIDIANNAO", "EYERISS",
                       "ALL_STYLES", "style_by_name", "Mapping",
                       "build_mapping"),
    "repro.maestro": ("CostModel", "LayerCost", "EnergyTable", "ChipConfig",
                      "SubAcceleratorConfig"),
    "repro.accel": ("AcceleratorDesign", "AcceleratorKind",
                    "ACCELERATOR_CLASSES", "EDGE", "MOBILE", "CLOUD",
                    "accelerator_class", "make_fda", "make_rda", "make_smfda",
                    "make_hda"),
    "repro.workloads": ("WorkloadSpec", "ModelInstance", "arvr_a", "arvr_b",
                        "mlperf", "single_model", "workload_by_name"),
    "repro.core": ("HeraldScheduler", "GreedyScheduler", "Schedule",
                   "ScheduledLayer", "EvaluationResult", "evaluate_design",
                   "PartitionSearch", "PartitionPoint", "HeraldDSE",
                   "DSEResult", "DesignSpacePoint"),
    "repro.exec": ("EvaluationTask", "ExecutionBackend", "SerialBackend",
                   "ProcessPoolBackend"),
    "repro.serve": ("StreamSpec", "StreamingWorkload", "streaming_suite",
                    "ServingSimulator", "ServingReport", "sustained_fps"),
    "repro.experiment": ("ExperimentSpec", "experiment_from_spec",
                         "load_experiment", "run_experiment",
                         "compare_reports"),
    "repro.analysis": ("pareto_front", "percent_improvement"),
})
__all__.insert(0, "__version__")
