"""Failure records of the execution engine.

Every evaluation is a pure function of ``(design, workload)``, so a task
that fails once fails the same way again: each task runs exactly once, and
a failure is recorded, not retried.  A sweep that loses work recovers
through its :class:`~repro.exec.checkpoint.SweepCheckpoint` (``--resume``).
This module defines the vocabulary both backends share:

* :class:`TaskFailure` — the structured record a failed task leaves behind
  (kind, message, category), surfaced through ``partial_ok`` results,
  :class:`~repro.exceptions.TaskExecutionError`, DSE results, and JSON
  reports instead of a stack trace;
* :class:`ExecutionOutcome` — what a backend run produced: the completed
  results keyed by task id, the failures, and the resume bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.evaluator import EvaluationResult


@dataclass(frozen=True)
class TaskFailure:
    """One task's failure.

    Attributes
    ----------
    task_id:
        Id of the failed task within its submission.
    kind:
        ``"error"`` for a library error raised by the evaluation, ``"crash"``
        for a task lost with a process pool that broke under it.
    message:
        Human-readable cause.
    category:
        The task's design-space category tag, carried through so reports can
        say *what* was lost, not just which id.
    """

    task_id: int
    kind: str
    message: str
    category: str = ""

    def summary(self) -> Dict[str, object]:
        """The failure as a strict-JSON-serializable dictionary."""
        return {
            "task_id": self.task_id,
            "kind": self.kind,
            "message": self.message,
            "category": self.category,
        }

    def describe(self) -> str:
        """One report line."""
        tag = f" [{self.category}]" if self.category else ""
        return f"task {self.task_id}{tag}: {self.kind} ({self.message})"


@dataclass
class ExecutionOutcome:
    """What one backend run produced.

    ``results`` holds the completed evaluations keyed by task id (including
    tasks satisfied from an attached checkpoint); ``failures`` the tasks that
    failed.  ``resumed_tasks`` / ``executed_tasks`` are the bookkeeping
    counters reports surface in their (non-canonical) timing section.
    """

    results: Dict[int, EvaluationResult] = field(default_factory=dict)
    failures: Tuple[TaskFailure, ...] = ()
    resumed_tasks: int = 0
    executed_tasks: int = 0

    @property
    def failed_task_ids(self) -> Tuple[int, ...]:
        """Ids of the failed tasks."""
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
