"""Pluggable execution engine for design-space exploration.

Herald's DSE is an embarrassingly parallel bag of independent design
evaluations.  This package turns each evaluation into a declarative, picklable
:class:`EvaluationTask` and executes batches of them through an
:class:`ExecutionBackend`:

* :class:`SerialBackend` — in-process, one shared cost model (the default);
* :class:`ProcessPoolBackend` — chunked process-pool fan-out sharing the
  parent's prewarmed cost table with the workers.

Each backend has one dispatch loop, ``run_resilient``, which prewarms the
cost model with every cost the tasks read, then runs each task exactly once;
``run`` is that loop with every task required to complete.  Evaluations are
pure, so nothing is retried: a failed task leaves a structured
:class:`TaskFailure` record (exit 3, or a failure row under ``partial_ok``),
and :class:`SweepCheckpoint` persists completed results atomically so a
killed or failed sweep resumes exactly where it stopped.
"""

from repro.exports import reexport

# The checkpoint (and the stdlib it writes with) loads only for a run that
# records or resumes one.
__all__, __getattr__, __dir__ = reexport(__name__, {
    "repro.exec.tasks": ("EvaluationTask",),
    "repro.exec.backends": ("ExecutionBackend", "SerialBackend",
                            "ProcessPoolBackend", "DEFAULT_SCOPE"),
    "repro.exec.checkpoint": ("SweepCheckpoint", "sweep_key_from"),
    "repro.exec.resilience": ("ExecutionOutcome", "TaskFailure"),
})
