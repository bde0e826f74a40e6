"""Execution backends: where and how evaluation tasks run.

The engine is deliberately small: a backend takes a list of
:class:`~repro.exec.tasks.EvaluationTask` and returns one
:class:`~repro.core.evaluator.EvaluationResult` per task, in submission order.
Two implementations ship with the library:

* :class:`SerialBackend` — evaluate in-process against one shared cost model.
  This is the default everywhere and is bit-for-bit the historical behaviour.
* :class:`ProcessPoolBackend` — fan the tasks out across worker processes.
  Each worker starts from a copy of the parent's memo, which already covers
  every cost the tasks read, so nothing is computed in — or shipped back
  from — the workers.

Before dispatch, :meth:`run_resilient` prewarms the shared cost model with
every (shape, hardware) cost the remaining tasks read: each workload's
deduped shapes times the sub-accelerators of that workload's designs.  The
cold evaluations this computes, and the hits of the dispatch itself, are
counted once, by the base class both backends share.

Because every evaluation is a pure function of ``(design, workload)``, the two
backends produce identical design metrics; only wall-clock-derived fields
(``scheduling_time_s``) differ.

Failures
--------

Each backend has one dispatch loop, :meth:`run_resilient`, in which every
task runs exactly once, and :meth:`run` is that loop with every task
required to complete.  Evaluations are pure, so a task that fails would
fail the same way again: nothing is retried.  A library error raised by an
evaluation becomes an ``"error"``
:class:`~repro.exec.resilience.TaskFailure` for that task alone; a process
pool that breaks under its workers turns every unfinished task into a
``"crash"`` failure.  Programming errors (anything that is not a
:class:`~repro.exceptions.ReproError`) propagate as they are.  :meth:`run`
raises :class:`~repro.exceptions.TaskExecutionError` carrying the failure
records; :meth:`run_resilient` with ``partial_ok=True`` returns them
alongside the surviving results so a sweep can rank what completed.
:meth:`run_resilient` also threads an optional
:class:`~repro.exec.checkpoint.SweepCheckpoint`: completed results are
recorded as they arrive (resumable after a SIGKILL) and previously recorded
tasks are served from the checkpoint without re-execution, so resuming is
how a sweep recovers the work a failure or a kill cost it.
"""

from __future__ import annotations

import io
import pickle
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ReproError, SearchError, TaskExecutionError
from repro.core.evaluator import EvaluationResult, evaluate_design
from repro.core.scheduler import HeraldScheduler
from repro.maestro.cost import CostModel, LayerCost
from repro.exec.resilience import ExecutionOutcome, TaskFailure
from repro.exec.tasks import EvaluationTask

#: Checkpoint scope of the tasks of a caller that does not namespace them.
DEFAULT_SCOPE = "sweep"

#: What one run of a task leaves: its result, or its failure record.
_Done = Union[EvaluationResult, TaskFailure]


def _ensure_unique_task_ids(tasks: Sequence[EvaluationTask]) -> None:
    """Reject submissions where two tasks share a ``task_id``.

    Backends re-order results through a task_id -> result map, so duplicate
    ids would silently collapse two tasks into one result.  Both backends
    validate so they stay interchangeable on the same input.
    """
    seen_ids = set()
    for task in tasks:
        if task.task_id in seen_ids:
            raise SearchError(
                f"duplicate task_id {task.task_id} in submission; task ids "
                f"must be unique within one run"
            )
        seen_ids.add(task.task_id)


def _attempt(task: EvaluationTask, cost_model: CostModel,
             scheduler: HeraldScheduler) -> _Done:
    """Run ``task`` once; a library error becomes its ``"error"`` record.

    Only library errors (:class:`~repro.exceptions.ReproError`) are task
    failures — anything else is a programming error that should surface as
    a traceback.
    """
    try:
        return evaluate_design(task.design, task.workload,
                               cost_model=cost_model, scheduler=scheduler)
    except ReproError as error:
        return TaskFailure(task_id=task.task_id, kind="error",
                           message=str(error), category=task.category)


class ExecutionBackend:
    """The base class of every execution backend: the state, counters and
    dispatch loop both backends share.

    ``cost_model`` is part of the contract because consumers co-locate
    derived estimation with execution: the fleet router warms its dispatch
    estimates on the same memo the backend's workers are shipped.

    Subclasses provide ``_execute_remaining(tasks, book)`` — the backend's
    one dispatch loop, which hands each task and what its one run left to
    ``book`` and adds its cost-model hits and misses to ``last_cache_hits``
    / ``last_cold_evaluations`` — and the ``_label`` :meth:`describe`
    returns.

    Parameters
    ----------
    cost_model:
        Shared cost model; its memo carries across all tasks of all runs.
    scheduler:
        Scheduler used for every task; defaults to Herald's scheduler on the
        shared cost model.
    """

    def __init__(self, cost_model: Optional[CostModel] = None,
                 scheduler: Optional[HeraldScheduler] = None) -> None:
        self.cost_model = cost_model or CostModel()
        self.scheduler = scheduler or HeraldScheduler(self.cost_model)
        self.last_cold_evaluations = 0
        self.last_cache_hits = 0
        self.total_cold_evaluations = 0
        self.total_cache_hits = 0

    def run(self, tasks: Sequence[EvaluationTask]) -> List[EvaluationResult]:
        """Execute ``tasks`` and return results in submission order.

        Raises :class:`~repro.exceptions.TaskExecutionError` if any task
        fails.
        """
        return self.run_resilient(tasks).ordered_results(tasks)

    def _label(self) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        """One-line description of where tasks run."""
        return self._label()

    def _prewarm(self, tasks: Sequence[EvaluationTask]) -> None:
        """Estimate every cost ``tasks`` read, one workload at a time.

        A task reads each shape of its workload on each sub-accelerator of
        its design, so the memo gets the deduped shapes times those
        sub-accelerators up front (:meth:`CostModel.prewarm` dedupes by
        hardware key) and every scheduling pass after it is pure lookups.
        A workload whose prewarm raises a library error is skipped: the
        error surfaces again in its tasks' own runs, where it is booked
        against those tasks alone.
        """
        by_workload: Dict[int, Tuple[object, List]] = {}
        for task in tasks:
            _, sub_accelerators = by_workload.setdefault(
                id(task.workload), (task.workload, []))
            sub_accelerators.extend(task.design.sub_accelerators)
        for workload, sub_accelerators in by_workload.values():
            try:
                self.last_cold_evaluations += self.cost_model.prewarm(
                    workload.unique_shape_layers(), sub_accelerators)
            except ReproError:
                pass

    def run_resilient(self, tasks: Sequence[EvaluationTask],
                      partial_ok: bool = False,
                      checkpoint: Optional["SweepCheckpoint"] = None,
                      scope: str = DEFAULT_SCOPE) -> ExecutionOutcome:
        """Execute each task once; return the full outcome.

        Tasks already recorded in ``checkpoint`` (under ``scope``) are served
        from it without re-execution; the rest are prewarmed, then
        dispatched, and every newly completed task is recorded back.
        Failures raise :class:`~repro.exceptions.TaskExecutionError` unless
        ``partial_ok``, in which case they are returned as structured
        records alongside the surviving results.  Completed results are
        flushed to the checkpoint even when the run fails or is interrupted.
        """
        _ensure_unique_task_ids(tasks)
        outcome = ExecutionOutcome()
        remaining: List[EvaluationTask] = []
        for task in tasks:
            prior = (checkpoint.get(scope, task.task_id)
                     if checkpoint is not None else None)
            if prior is not None:
                outcome.results[task.task_id] = prior
                outcome.resumed_tasks += 1
            else:
                remaining.append(task)
        failures: List[TaskFailure] = []

        def book(task: EvaluationTask, done: _Done) -> None:
            if isinstance(done, TaskFailure):
                failures.append(done)
                return
            outcome.results[task.task_id] = done
            outcome.executed_tasks += 1
            if checkpoint is not None:
                checkpoint.record(scope, task.task_id, done)

        self.last_cold_evaluations = 0
        self.last_cache_hits = 0
        try:
            self._prewarm(remaining)
            self._execute_remaining(remaining, book)
        finally:
            self.total_cold_evaluations += self.last_cold_evaluations
            self.total_cache_hits += self.last_cache_hits
            # Preserve completed work even on KeyboardInterrupt / errors:
            # the results go to the checkpoint, so an interrupted sweep
            # resumes where it died.
            if checkpoint is not None:
                checkpoint.flush()
        outcome.failures = tuple(failures)
        if failures and not partial_ok:
            raise TaskExecutionError(failures)
        return outcome

    def _execute_remaining(self, tasks: Sequence[EvaluationTask],
                           book: Callable[[EvaluationTask, _Done], None]
                           ) -> None:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """Evaluate every task in-process, sharing one cost model and scheduler.

    Takes the :class:`ExecutionBackend` parameters.
    """

    #: Named on each backend class, not only inherited, so a per-class
    #: wrapper (``perfbench/tracer.py``) times each backend's runs.
    run = ExecutionBackend.run

    def _label(self) -> str:
        return "serial (in-process)"

    def _execute_remaining(self, tasks: Sequence[EvaluationTask],
                           book: Callable[[EvaluationTask, _Done], None]
                           ) -> None:
        misses_before = self.cost_model.misses
        hits_before = self.cost_model.hits
        try:
            for task in tasks:
                book(task, _attempt(task, self.cost_model, self.scheduler))
        finally:
            self.last_cold_evaluations += self.cost_model.misses - misses_before
            self.last_cache_hits += self.cost_model.hits - hits_before


# ---------------------------------------------------------------------------
# Process-pool backend
# ---------------------------------------------------------------------------

#: Per-worker state installed by the pool initializer.
_WORKER_STATE: Dict[str, object] = {}

#: Layer placements (first-round tasks x layer executions) a pool worker
#: must get before ``--jobs`` pays for it: the 2-core break-even curve of
#: ``benchmarks/bench_parallel_dse.py``, recorded in docs/ARCHITECTURE.md.
POOL_PLACEMENTS_PER_WORKER = 100_000


def pool_workers(jobs: int, placements: int) -> int:
    """Workers (at most ``jobs``, at least 1) a sweep of ``placements``
    layer placements pays for; 1 means it runs in-process."""
    return max(1, min(jobs, placements // max(POOL_PLACEMENTS_PER_WORKER, 1)))


def _snapshot_entry(index: int) -> LayerCost:
    """Stand-in a worker pickles a snapshot entry as; the parent's
    :class:`_SnapshotUnpickler` resolves it to the entry."""
    raise pickle.UnpicklingError(f"snapshot entry {index} needs the snapshot")


class _SnapshotPickler(pickle.Pickler):
    """Worker side: pickles the worker's snapshot entries as
    :func:`_snapshot_entry` calls.  ``reducer_override`` only sees objects
    of non-builtin types, where a ``persistent_id`` would see every float."""

    def reducer_override(self, obj: object) -> object:
        index: Dict[int, int] = _WORKER_STATE["entry_index"]  # type: ignore
        position = index.get(id(obj))
        return (NotImplemented if position is None
                else (_snapshot_entry, (position,)))


class _SnapshotUnpickler(pickle.Unpickler):
    """Resolves :func:`_snapshot_entry` calls to entries of ``snapshot``."""

    def __init__(self, payload: bytes,
                 snapshot: Tuple[LayerCost, ...]) -> None:
        super().__init__(io.BytesIO(payload))
        self._snapshot = snapshot

    def find_class(self, module: str, name: str) -> object:
        if (module, name) == (__name__, _snapshot_entry.__name__):
            return self._snapshot.__getitem__
        return super().find_class(module, name)


def _snapshot(cost_model: CostModel) -> Tuple[LayerCost, ...]:
    """The memo entries of ``cost_model`` in memo order.

    Parent and workers each take it from their own copy of one model, so
    position ``i`` names the same entry on both sides of the pool.
    """
    return tuple(cost for _, cost in cost_model.cache_items())


def _init_worker(cost_model: CostModel, scheduler: HeraldScheduler) -> None:
    """Pool initializer: adopt the shipped (prewarmed) cost model and
    scheduler.

    The arguments arrive together (inherited under fork, pickled as one
    under spawn), so the scheduler's cost-model reference survives the trip.
    The memo already covers every cost the tasks read, so results go back
    referencing its entries (:class:`_SnapshotPickler`) and no entry is ever
    shipped back.
    """
    _WORKER_STATE["model"] = cost_model
    _WORKER_STATE["scheduler"] = scheduler
    # Ids are safe keys: the model's memo keeps every entry alive.
    _WORKER_STATE["entry_index"] = {
        id(cost): index for index, cost in enumerate(_snapshot(cost_model))}


def _run_chunk(chunk: Sequence[EvaluationTask]) -> bytes:
    """Worker body: run every task in ``chunk`` once.

    Returns, pickled by :class:`_SnapshotPickler`, what each task's run left
    (see :func:`_attempt`; a library error costs only its own task) in chunk
    order and the chunk's cost-model hit/miss counts.
    """
    model: CostModel = _WORKER_STATE["model"]  # type: ignore[assignment]
    scheduler: HeraldScheduler = _WORKER_STATE["scheduler"]  # type: ignore[assignment]
    hits_before = model.hits
    misses_before = model.misses
    done = [_attempt(task, model, scheduler) for task in chunk]
    buffer = io.BytesIO()
    _SnapshotPickler(buffer, pickle.HIGHEST_PROTOCOL).dump((
        done, model.hits - hits_before, model.misses - misses_before))
    return buffer.getvalue()


class ProcessPoolBackend(ExecutionBackend):
    """Evaluate tasks on a pool of worker processes.

    Tasks are split into ``2 * jobs`` contiguous chunks (``ceil(len(tasks)
    / (2 * jobs))`` tasks each), all submitted at once to a
    ``concurrent.futures`` process pool of at most one worker per chunk;
    each is booked as it completes.
    Each worker runs its chunk task by task and reports what each task's
    run left, so a library error costs only its own task.  The parent's
    cost model, prewarmed by :meth:`run_resilient` with every cost the tasks
    read, ships once with the pool initializer and stays read-mostly:
    workers compute nothing new, and their results come back referencing
    the parent's memo entries, not copies.

    A worker that dies breaks the pool: every task of every chunk not yet
    booked becomes a ``"crash"``
    :class:`~repro.exec.resilience.TaskFailure`.  The results booked before
    the break are already in the checkpoint, so ``--resume`` re-runs only
    the lost tasks.

    A fresh pool is created per :meth:`run` call and the parent's memo is
    shipped to every worker, so per-call overhead grows with the memo size;
    this keeps worker lifetime trivially bounded, but for very large memos
    a long-lived pool with delta shipping would amortise better (future
    work).

    Parameters
    ----------
    jobs:
        Number of worker processes (>= 1).

    The other parameters are :class:`ExecutionBackend`'s; the scheduler is
    shipped to the workers so custom metrics/orderings are honoured.
    """

    def __init__(self, jobs: int = 2, cost_model: Optional[CostModel] = None,
                 scheduler: Optional[HeraldScheduler] = None) -> None:
        if jobs < 1:
            raise SearchError(f"jobs must be >= 1 (got {jobs})")
        super().__init__(cost_model, scheduler)
        self.jobs = jobs
        #: The most workers one dispatch has started (0 before the first).
        self.most_workers = 0

    run = ExecutionBackend.run  # see SerialBackend.run

    def _label(self) -> str:
        # The workers started (the jobs asked for until a dispatch starts any).
        return f"process pool ({self.most_workers or self.jobs} jobs)"

    def _execute_remaining(self, tasks: Sequence[EvaluationTask],
                           book: Callable[[EvaluationTask, _Done], None]
                           ) -> None:
        if not tasks:
            return
        # The pool machinery loads multiprocessing; a serial run never does.
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        snapshot = _snapshot(self.cost_model)
        size = -(-len(tasks) // (2 * self.jobs))
        starts = range(0, len(tasks), size)
        # A worker without a chunk would only be forked and killed; under
        # fork every worker starts at once, so the pool is capped here.
        workers = min(self.jobs, len(starts))
        self.most_workers = max(self.most_workers, workers)
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(self.cost_model, self.scheduler))
        try:
            chunks = {}
            for start in starts:
                chunk = tasks[start:start + size]
                chunks[executor.submit(_run_chunk, chunk)] = chunk
            for future in concurrent.futures.as_completed(chunks):
                chunk = chunks[future]
                try:
                    payload = future.result()
                except BrokenProcessPool as error:
                    for task in chunk:
                        book(task, TaskFailure(
                            task_id=task.task_id, kind="crash",
                            message=f"worker pool broke: {error}",
                            category=task.category))
                    continue
                done, hits, misses = _SnapshotUnpickler(
                    payload, snapshot).load()
                self.last_cache_hits += hits
                self.last_cold_evaluations += misses
                for task, task_done in zip(chunk, done):
                    book(task, task_done)
        finally:
            # Hung or still-running workers included: kill, then release.
            processes = getattr(executor, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.kill()
                except (OSError, AttributeError):
                    pass
            executor.shutdown(wait=False)
