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

from repro.core.schedule import (
    LOAD_IMBALANCE_UNUSED_SENTINEL,
    Schedule,
    ScheduledLayer,
)
from repro.core.scheduler import HeraldScheduler
from repro.core.greedy import GreedyScheduler
from repro.core.evaluator import EvaluationResult, evaluate_design
from repro.core.partitioner import PartitionPoint, PartitionSearch
from repro.core.dse import DesignSpacePoint, HeraldDSE, DSEResult

__all__ = [
    "LOAD_IMBALANCE_UNUSED_SENTINEL",
    "Schedule",
    "ScheduledLayer",
    "HeraldScheduler",
    "GreedyScheduler",
    "EvaluationResult",
    "evaluate_design",
    "PartitionPoint",
    "PartitionSearch",
    "DesignSpacePoint",
    "HeraldDSE",
    "DSEResult",
]
