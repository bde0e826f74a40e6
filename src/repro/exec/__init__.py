"""Pluggable execution engine for design-space exploration.

Herald's DSE is an embarrassingly parallel bag of independent design
evaluations.  This package turns each evaluation into a declarative, picklable
:class:`EvaluationTask` and executes batches of them through an
:class:`ExecutionBackend`:

* :class:`SerialBackend` — in-process, one shared cost model (the default);
* :class:`ProcessPoolBackend` — chunked process-pool fan-out sharing the
  parent's prewarmed cost table with the workers.

Each backend has one dispatch loop, ``run_resilient``, which prewarms the
cost model with every cost the tasks read before dispatching them; ``run``
is that loop with every task required to complete.

The resilience layer makes long sweeps survive their environment:
:class:`RetryPolicy` gives both backends bounded retries, per-task timeout
classification, and dead-worker recovery (terminal losses surface as
structured :class:`TaskFailure` records); a :class:`ChaosSpec`, passed to a
backend as ``chaos=``, injects deterministic seeded faults to test those
paths bit-for-bit; :class:`SweepCheckpoint` persists completed results atomically
so a killed sweep resumes exactly where it died.
"""

from repro.exec.tasks import EvaluationTask, run_evaluation_task
from repro.exec.chaos import ChaosSpec
from repro.exec.checkpoint import (
    DEFAULT_SCOPE,
    SweepCheckpoint,
    sweep_key_from,
)
from repro.exec.resilience import (
    ExecutionOutcome,
    RetryPolicy,
    TaskFailure,
    classify_failure,
)
from repro.exec.backends import ExecutionBackend, ProcessPoolBackend, SerialBackend

__all__ = [
    "EvaluationTask",
    "run_evaluation_task",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "ChaosSpec",
    "SweepCheckpoint",
    "sweep_key_from",
    "DEFAULT_SCOPE",
    "ExecutionOutcome",
    "RetryPolicy",
    "TaskFailure",
    "classify_failure",
]
