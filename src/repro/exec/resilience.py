"""Fault-tolerance primitives of the execution engine.

The design-space sweeps this library runs are long (thousands of independent
evaluations) and increasingly parallel, which makes the failure model of the
execution path a first-class concern: a crashed worker process, a hung
evaluation, or a transient exception must cost *one task attempt*, never the
whole run.  This module defines the vocabulary every backend shares:

* :class:`RetryPolicy` — how many times a failed task is retried, the
  per-task execution-time budget, and a *deterministic* backoff schedule
  (``backoff_base_s * 2**attempt`` — no randomisation, so recovery behaviour
  is bit-for-bit reproducible under the chaos harness);
* :class:`TaskFailure` — the structured record a task leaves behind when it
  exhausts its retries (kind, attempts, message), surfaced through
  ``run_partial`` results, :class:`~repro.exceptions.TaskExecutionError`,
  DSE results, and JSON reports instead of a stack trace;
* :class:`ExecutionOutcome` — what a resilient backend run produced: the
  completed results keyed by task id, the failures, and the
  resume/retry bookkeeping;
* :func:`classify_failure` — the single exception-to-failure-kind mapping
  (``crash`` / ``timeout`` / ``error``) every backend uses, so a simulated
  chaos fault and a real process death classify identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.evaluator import EvaluationResult
from repro.exceptions import SearchError, WorkerCrash, WorkerHang

#: The three failure kinds a task attempt can end with.
FAILURE_KINDS = ("crash", "timeout", "error")


def classify_failure(error: BaseException) -> str:
    """Map an exception to its :data:`FAILURE_KINDS` entry.

    :class:`~repro.exceptions.WorkerCrash` (real or simulated process death)
    is a ``"crash"``; :class:`~repro.exceptions.WorkerHang` (budget exceeded)
    is a ``"timeout"``; everything else — transient evaluation errors
    included — is an ``"error"``.
    """
    if isinstance(error, WorkerCrash):
        return "crash"
    if isinstance(error, WorkerHang):
        return "timeout"
    return "error"


@dataclass(frozen=True)
class RetryPolicy:
    """How a backend retries failed tasks.

    Parameters
    ----------
    max_retries:
        Extra attempts after the first (``0`` = fail on the first fault; the
        total attempt budget is ``max_retries + 1``).
    task_timeout_s:
        Execution-time budget per attempt.  In the process pool this drives
        the stall watchdog: tasks travel in chunks, and when no in-flight
        chunk completes within ``task_timeout_s`` times the length of the
        longest in-flight chunk, every in-flight task is charged a
        ``"timeout"`` attempt and the hung workers are killed and replaced.
        ``None`` disables the watchdog.
    backoff_base_s:
        Deterministic exponential backoff: attempt ``k`` (1-based retry)
        waits ``backoff_base_s * 2**(k - 1)`` seconds before re-dispatch.
        The default ``0.0`` retries immediately — the right choice for the
        in-process simulators and tests; long remote sweeps set it to spread
        retry pressure.
    """

    max_retries: int = 2
    task_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise SearchError(
                f"max_retries must be >= 0 (got {self.max_retries})")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0.0:
            raise SearchError(
                f"task_timeout_s must be positive (got {self.task_timeout_s})")
        if self.backoff_base_s < 0.0:
            raise SearchError(
                f"backoff_base_s must be >= 0 (got {self.backoff_base_s})")

    @property
    def max_attempts(self) -> int:
        """Total attempt budget per task (first try plus retries)."""
        return self.max_retries + 1

    def backoff_s(self, attempt: int) -> float:
        """Deterministic pre-retry delay before attempt ``attempt`` (>= 1)."""
        if attempt < 1:
            return 0.0
        return self.backoff_base_s * (2.0 ** (attempt - 1))

    def describe(self) -> str:
        """One-line summary used by backend descriptions."""
        timeout = (f"{self.task_timeout_s:g}s timeout"
                   if self.task_timeout_s is not None else "no timeout")
        return (f"retries={self.max_retries}, {timeout}, "
                f"backoff {self.backoff_base_s:g}s")


@dataclass(frozen=True)
class TaskFailure:
    """One task's terminal failure after its retry budget was exhausted.

    Attributes
    ----------
    task_id:
        Id of the failed task within its submission.
    kind:
        ``"crash"`` / ``"timeout"`` / ``"error"`` (see
        :func:`classify_failure`).
    attempts:
        Attempts actually performed (``max_retries + 1`` for an exhausted
        retry budget).
    message:
        Human-readable cause (the last attempt's error).
    category:
        The task's design-space category tag, carried through so reports can
        say *what* was lost, not just which id.
    """

    task_id: int
    kind: str
    attempts: int
    message: str
    category: str = ""

    def summary(self) -> Dict[str, object]:
        """The failure as a strict-JSON-serializable dictionary."""
        return {
            "task_id": self.task_id,
            "kind": self.kind,
            "attempts": self.attempts,
            "message": self.message,
            "category": self.category,
        }

    def describe(self) -> str:
        """One report line."""
        tag = f" [{self.category}]" if self.category else ""
        return (f"task {self.task_id}{tag}: {self.kind} after "
                f"{self.attempts} attempt(s) ({self.message})")


@dataclass
class ExecutionOutcome:
    """What one resilient backend run produced.

    ``results`` holds the completed evaluations keyed by task id (including
    tasks satisfied from an attached checkpoint); ``failures`` the tasks that
    exhausted their retries.  ``resumed_tasks`` / ``executed_tasks`` /
    ``retried_attempts`` are the bookkeeping counters reports surface in
    their (non-canonical) timing section.
    """

    results: Dict[int, EvaluationResult] = field(default_factory=dict)
    failures: Tuple[TaskFailure, ...] = ()
    resumed_tasks: int = 0
    executed_tasks: int = 0
    retried_attempts: int = 0

    @property
    def failed_task_ids(self) -> Tuple[int, ...]:
        """Ids of the permanently failed tasks."""
        return tuple(failure.task_id for failure in self.failures)

    def ordered_results(self, tasks: Sequence["EvaluationTask"]  # noqa: F821
                        ) -> List[EvaluationResult]:
        """Results in submission order (every task must have completed)."""
        return [self.results[task.task_id] for task in tasks]

    def completed(self, tasks: Sequence["EvaluationTask"]  # noqa: F821
                  ) -> List[Tuple["EvaluationTask", EvaluationResult]]:  # noqa: F821
        """The surviving ``(task, result)`` pairs in submission order."""
        return [(task, self.results[task.task_id]) for task in tasks
                if task.task_id in self.results]
