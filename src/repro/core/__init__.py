"""Herald: hardware/schedule co-design-space exploration for HDAs.

This package is the paper's primary contribution (Sec. IV):

* :mod:`repro.core.schedule` — layer-execution schedule data structures,
  accounting, and the independent validator (dependence, overlap).
* :mod:`repro.core.scheduler` — Herald's layer scheduler (Fig. 7-9), valid by
  construction: dataflow-preference assignment, depth/breadth-first ordering,
  load-balancing feedback, and idle-time post-processing.
* :mod:`repro.core.greedy` — the per-layer greedy baseline scheduler the paper
  compares against.
* :mod:`repro.core.evaluator` — evaluates a complete accelerator design on a
  workload, producing latency / energy / EDP.
* :mod:`repro.core.partitioner` — PE and NoC-bandwidth partition search
  (exhaustive, binary-sampling, random strategies).
* :mod:`repro.core.dse` — the co-DSE driver that combines everything and
  reproduces the paper's design-space studies.
"""

from repro.exports import reexport

__all__, __getattr__, __dir__ = reexport(__name__, {
    "repro.core.schedule": ("LOAD_IMBALANCE_UNUSED_SENTINEL", "Schedule",
                            "ScheduledLayer"),
    "repro.core.scheduler": ("HeraldScheduler",),
    "repro.core.greedy": ("GreedyScheduler",),
    "repro.core.evaluator": ("EvaluationResult", "evaluate_design"),
    "repro.core.partitioner": ("PartitionPoint", "PartitionSearch"),
    "repro.core.dse": ("DesignSpacePoint", "HeraldDSE", "DSEResult"),
})
