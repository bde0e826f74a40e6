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

# Defined before the submodule imports below: submodules (e.g. the report
# writer) import it back from the partially initialised package.
__version__ = "1.26.0"

from repro.models import Layer, LayerType, ModelGraph
from repro.models.zoo import available_models, build_model
from repro.dataflow import (
    ALL_STYLES,
    EYERISS,
    NVDLA,
    SHIDIANNAO,
    DataflowStyle,
    Mapping,
    build_mapping,
    style_by_name,
)
from repro.maestro import (
    ChipConfig,
    CostModel,
    EnergyTable,
    LayerCost,
    SubAcceleratorConfig,
)
from repro.accel import (
    ACCELERATOR_CLASSES,
    CLOUD,
    EDGE,
    MOBILE,
    AcceleratorDesign,
    AcceleratorKind,
    accelerator_class,
    make_fda,
    make_hda,
    make_rda,
    make_smfda,
)
from repro.workloads import (
    ModelInstance,
    WorkloadSpec,
    arvr_a,
    arvr_b,
    mlperf,
    single_model,
    workload_by_name,
)
from repro.core import (
    DSEResult,
    DesignSpacePoint,
    EvaluationResult,
    GreedyScheduler,
    HeraldDSE,
    HeraldScheduler,
    PartitionPoint,
    PartitionSearch,
    Schedule,
    ScheduledLayer,
    evaluate_design,
)
from repro.exec import (
    EvaluationTask,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.serve import (
    ServingReport,
    ServingSimulator,
    StreamSpec,
    StreamingWorkload,
    streaming_suite,
    sustained_fps,
)
from repro.experiment import (
    ExperimentSpec,
    compare_reports,
    experiment_from_spec,
    load_experiment,
    run_experiment,
)
from repro.analysis import pareto_front, percent_improvement

__all__ = [
    "__version__",
    # models
    "Layer",
    "LayerType",
    "ModelGraph",
    "available_models",
    "build_model",
    # dataflow
    "DataflowStyle",
    "NVDLA",
    "SHIDIANNAO",
    "EYERISS",
    "ALL_STYLES",
    "style_by_name",
    "Mapping",
    "build_mapping",
    # cost model
    "CostModel",
    "LayerCost",
    "EnergyTable",
    "ChipConfig",
    "SubAcceleratorConfig",
    # accelerators
    "AcceleratorDesign",
    "AcceleratorKind",
    "ACCELERATOR_CLASSES",
    "EDGE",
    "MOBILE",
    "CLOUD",
    "accelerator_class",
    "make_fda",
    "make_rda",
    "make_smfda",
    "make_hda",
    # workloads
    "WorkloadSpec",
    "ModelInstance",
    "arvr_a",
    "arvr_b",
    "mlperf",
    "single_model",
    "workload_by_name",
    # Herald
    "HeraldScheduler",
    "GreedyScheduler",
    "Schedule",
    "ScheduledLayer",
    "EvaluationResult",
    "evaluate_design",
    "PartitionSearch",
    "PartitionPoint",
    "HeraldDSE",
    "DSEResult",
    "DesignSpacePoint",
    # execution engine
    "EvaluationTask",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    # serving
    "StreamSpec",
    "StreamingWorkload",
    "streaming_suite",
    "ServingSimulator",
    "ServingReport",
    "sustained_fps",
    # experiments
    "ExperimentSpec",
    "experiment_from_spec",
    "load_experiment",
    "run_experiment",
    "compare_reports",
    # analysis
    "pareto_front",
    "percent_improvement",
]
