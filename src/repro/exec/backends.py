"""Execution backends: where and how evaluation tasks run.

The engine is deliberately small: a backend takes a list of
:class:`~repro.exec.tasks.EvaluationTask` and returns one
:class:`~repro.core.evaluator.EvaluationResult` per task, in submission order.
Two implementations ship with the library:

* :class:`SerialBackend` — evaluate in-process against one shared cost model.
  This is the default everywhere and is bit-for-bit the historical behaviour.
* :class:`ProcessPoolBackend` — fan the tasks out across worker processes.
  Each worker holds its own cost model, warm-started from the parent's
  memo; newly computed memo entries flow back with the results and are merged
  into the parent (and the persistent cache, when one is attached), so warmth
  is never lost to process boundaries.

Because every evaluation is a pure function of ``(design, workload)``, the two
backends produce identical design metrics; only wall-clock-derived fields
(``scheduling_time_s``) differ.

Fault tolerance
---------------

Each backend has one dispatch loop, :meth:`run_resilient`, and :meth:`run`
is that loop with every task required to complete.  The loop runs under a
:class:`~repro.exec.resilience.RetryPolicy`; without one, the budget is
``RetryPolicy(max_retries=0)``.  A faulting task — a crashed worker, a
hung attempt caught by the stall watchdog, a library error raised by the
evaluation — costs one *attempt*, is retried up to ``max_retries`` times
with deterministic backoff, and only then becomes a structured
:class:`~repro.exec.resilience.TaskFailure`.  Programming errors (anything
that is not a :class:`~repro.exceptions.ReproError`) are never retried and
propagate as they are.  :meth:`run` raises
:class:`~repro.exceptions.TaskExecutionError` carrying the failure records;
:meth:`run_resilient` with ``partial_ok=True`` returns them alongside the
surviving results so a sweep can rank what completed.  :meth:`run_resilient`
also threads an optional :class:`~repro.exec.checkpoint.SweepCheckpoint`:
completed results are recorded as they arrive (resumable after a SIGKILL)
and previously recorded tasks are served from the checkpoint without
re-execution.

A :class:`~repro.exec.chaos.ChaosSpec` (installed by
:class:`~repro.exec.chaos.ChaosBackend`) injects deterministic faults into
these paths.  Simulated faults are decided at dispatch and raised in the
parent — identical machinery for both backends, which is what makes
chaos + retries reproduce the undisturbed serial results bit-for-bit.  With
``real_faults=True`` the pool's workers misbehave for real (``os._exit``,
over-budget sleeps), exercising the broken-pool rebuild and stall-watchdog
recovery instead; the parent replays the same fault schedule to attribute
the wreckage, charging attempts only to the tasks chaos actually targeted.
"""

from __future__ import annotations

import collections
import concurrent.futures
import io
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Deque, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.exceptions import ReproError, SearchError, TaskExecutionError
from repro.core.evaluator import EvaluationResult
from repro.core.scheduler import HeraldScheduler
from repro.maestro.cost import CostModel, LayerCost
from repro.exec.cache import PersistentCostCache
from repro.exec.chaos import ChaosSpec
from repro.exec.checkpoint import DEFAULT_SCOPE, SweepCheckpoint
from repro.exec.resilience import (
    ExecutionOutcome,
    RetryPolicy,
    TaskFailure,
    classify_failure,
)
from repro.exec.tasks import EvaluationTask, run_evaluation_task


class ExecutionBackend(Protocol):
    """Protocol every execution backend implements."""

    #: The backend's shared cost model.  Part of the contract because
    #: consumers co-locate derived estimation with execution — e.g. the fleet
    #: router warms its dispatch estimates on the same memo the backend's
    #: workers are shipped — so a backend must expose which model that is.
    cost_model: CostModel

    def run(self, tasks: Sequence[EvaluationTask]) -> List[EvaluationResult]:
        """Execute ``tasks`` and return results in submission order.

        Raises :class:`~repro.exceptions.TaskExecutionError` if any task
        fails after its retries.
        """
        ...

    def run_resilient(self, tasks: Sequence[EvaluationTask],
                      partial_ok: bool = False,
                      checkpoint: Optional[SweepCheckpoint] = None,
                      scope: str = DEFAULT_SCOPE) -> ExecutionOutcome:
        """Execute ``tasks``; return results, failures and bookkeeping."""
        ...

    def describe(self) -> str:
        """One-line human-readable description."""
        ...


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


def _chaos_message(kind: str, task_id: int, attempt: int) -> str:
    """Canonical chaos fault message.

    Both backends (and the pool's parent-side attribution of real worker
    faults) use this one formatter, so the ``TaskFailure`` records of a
    chaos run are identical no matter where the fault physically happened.
    """
    noun = {"crash": "worker crash", "hang": "hang",
            "error": "transient error"}[kind]
    return f"chaos-injected {noun} (task {task_id}, attempt {attempt})"


def _failure_kind(chaos_kind: str) -> str:
    """Chaos fault kind -> :data:`~repro.exec.resilience.FAILURE_KINDS` entry.

    A chaos ``"hang"`` surfaces the way a real hang does — as the stall
    watchdog's ``"timeout"`` — so failure records classify identically
    whether the hang was simulated or real.
    """
    return "timeout" if chaos_kind == "hang" else chaos_kind


def _attempt(task: EvaluationTask, attempt: int, cost_model: CostModel,
             scheduler: HeraldScheduler, chaos: Optional[ChaosSpec]
             ) -> Tuple[Optional[EvaluationResult], Optional[str], str]:
    """Run one attempt; returns ``(result, None, "")`` on success or
    ``(None, kind, message)`` on a fault.

    A chaos fault scheduled for this attempt is reported without running
    the task.  Only library errors (:class:`~repro.exceptions.ReproError`)
    are faults — anything else is a programming error that should surface
    as a traceback, not burn the retry budget.
    """
    fault = (chaos.fault_for(task.task_id, attempt)
             if chaos is not None else None)
    if fault is not None:
        return (None, _failure_kind(fault),
                _chaos_message(fault, task.task_id, attempt))
    try:
        return run_evaluation_task(task, cost_model, scheduler), None, ""
    except ReproError as error:
        return None, classify_failure(error), str(error)


def _book_success(outcome: ExecutionOutcome,
                  checkpoint: Optional[SweepCheckpoint], scope: str,
                  task: EvaluationTask, result: EvaluationResult) -> None:
    """Record a completed task in the outcome and the checkpoint."""
    outcome.results[task.task_id] = result
    outcome.executed_tasks += 1
    if checkpoint is not None:
        checkpoint.record(scope, task.task_id, result)


def _book_fault(policy: RetryPolicy, outcome: ExecutionOutcome,
                failures: List[TaskFailure], task: EvaluationTask,
                attempts: int, kind: str, message: str) -> bool:
    """Charge a faulted attempt (``attempts`` spent so far, this one
    included); returns whether the task gets another attempt.

    An exhausted budget becomes a :class:`TaskFailure`; otherwise the
    deterministic backoff is slept here, before the re-dispatch.
    """
    if attempts >= policy.max_attempts:
        failures.append(TaskFailure(
            task_id=task.task_id, kind=kind, attempts=attempts,
            message=message, category=task.category))
        return False
    outcome.retried_attempts += 1
    delay = policy.backoff_s(attempts)
    if delay > 0.0:
        time.sleep(delay)
    return True


class _CacheMixin:
    """Shared persistent-cache plumbing for backends."""

    cache: Optional[PersistentCostCache]
    cost_model: CostModel
    _cache_warmed: bool

    #: Last cache-save failure, if any.  Results must never be lost to a
    #: cache-persistence problem, so save errors are recorded, not raised.
    cache_save_error: Optional[OSError] = None

    def _warm_from_cache(self) -> None:
        if self.cache is not None and not self._cache_warmed:
            self.cache.warm(self.cost_model)
            # Journal (when enabled) every entry computed from here on.
            self.cache.attach(self.cost_model)
            self._cache_warmed = True

    def _spill_to_cache(self) -> None:
        if self.cache is not None:
            self.cache.capture(self.cost_model)
            try:
                self.cache.save_if_dirty()
                self.cache_save_error = None
            except OSError as error:
                self.cache_save_error = error


class _ResilientMixin(_CacheMixin):
    """The retry/chaos/checkpoint state machine shared by both backends.

    Subclasses provide ``_execute_remaining(tasks, policy, outcome,
    failures, checkpoint, scope)`` — the backend's one dispatch loop — and
    inherit the resume filtering, failure raising, and cleanup contract.
    """

    retry_policy: Optional[RetryPolicy]
    chaos: Optional[ChaosSpec]

    def _effective_policy(self) -> RetryPolicy:
        if self.retry_policy is not None:
            return self.retry_policy
        if self.chaos is not None:
            # Chaos without an explicit policy gets the default budget, which
            # covers the default ``max_faults_per_task`` so runs converge.
            return RetryPolicy()
        return RetryPolicy(max_retries=0)

    def run_resilient(self, tasks: Sequence[EvaluationTask],
                      partial_ok: bool = False,
                      checkpoint: Optional[SweepCheckpoint] = None,
                      scope: str = DEFAULT_SCOPE) -> ExecutionOutcome:
        """Execute ``tasks`` under the retry policy; return the full outcome.

        Tasks already recorded in ``checkpoint`` (under ``scope``) are served
        from it without re-execution; every newly completed task is recorded
        back.  Terminal failures raise
        :class:`~repro.exceptions.TaskExecutionError` unless ``partial_ok``,
        in which case they are returned as structured records alongside the
        surviving results.  Completed results are spilled to the persistent
        cache and flushed to the checkpoint even when the run fails or is
        interrupted.
        """
        _ensure_unique_task_ids(tasks)
        self._warm_from_cache()
        policy = self._effective_policy()
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
        try:
            self._execute_remaining(remaining, policy, outcome, failures,
                                    checkpoint, scope)
        finally:
            # Preserve completed work even on KeyboardInterrupt / errors: the
            # memo entries go to the persistent cache, the results to the
            # checkpoint, so an interrupted sweep resumes where it died.
            self._spill_to_cache()
            if checkpoint is not None:
                checkpoint.flush()
        outcome.failures = tuple(failures)
        if failures and not partial_ok:
            raise TaskExecutionError(failures)
        return outcome

    def _execute_remaining(self, tasks: Sequence[EvaluationTask],
                           policy: RetryPolicy, outcome: ExecutionOutcome,
                           failures: List[TaskFailure],
                           checkpoint: Optional[SweepCheckpoint],
                           scope: str) -> None:
        raise NotImplementedError


class SerialBackend(_ResilientMixin):
    """Evaluate every task in-process, sharing one cost model and scheduler.

    Parameters
    ----------
    cost_model:
        Shared cost model; its memo carries across all tasks of all runs.
    scheduler:
        Scheduler used for every task; defaults to Herald's scheduler on the
        shared cost model.
    cache:
        Optional persistent cost cache.  It is loaded into the cost model
        before the first run and re-saved (with any new entries) after every
        run.
    retry_policy:
        Optional fault-tolerance budget (``None``: no retries, so a failing
        task ends the run in :class:`~repro.exceptions.TaskExecutionError`).
        Serially there is no process to kill, so ``task_timeout_s`` only
        classifies chaos-injected hangs; crashes and library errors are
        retried exactly like the pool retries them.
    """

    def __init__(self, cost_model: Optional[CostModel] = None,
                 scheduler: Optional[HeraldScheduler] = None,
                 cache: Optional[PersistentCostCache] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        self.cost_model = cost_model or CostModel()
        self.scheduler = scheduler or HeraldScheduler(self.cost_model)
        self.cache = cache
        self.retry_policy = retry_policy
        self.chaos: Optional[ChaosSpec] = None
        self._cache_warmed = False
        self.last_cold_evaluations = 0
        self.last_cache_hits = 0
        self.total_cold_evaluations = 0
        self.total_cache_hits = 0

    def run(self, tasks: Sequence[EvaluationTask]) -> List[EvaluationResult]:
        """Execute ``tasks`` one after another on the shared cost model."""
        return self.run_resilient(tasks).ordered_results(tasks)

    def _execute_remaining(self, tasks: Sequence[EvaluationTask],
                           policy: RetryPolicy, outcome: ExecutionOutcome,
                           failures: List[TaskFailure],
                           checkpoint: Optional[SweepCheckpoint],
                           scope: str) -> None:
        misses_before = self.cost_model.misses
        hits_before = self.cost_model.hits
        try:
            for task in tasks:
                attempt = 0
                while True:
                    result, kind, message = _attempt(
                        task, attempt, self.cost_model, self.scheduler,
                        self.chaos)
                    if kind is None:
                        _book_success(outcome, checkpoint, scope, task, result)
                        break
                    attempt += 1
                    if not _book_fault(policy, outcome, failures, task,
                                       attempt, kind, message):
                        break
        finally:
            self.last_cold_evaluations = self.cost_model.misses - misses_before
            self.last_cache_hits = self.cost_model.hits - hits_before
            self.total_cold_evaluations += self.last_cold_evaluations
            self.total_cache_hits += self.last_cache_hits

    def describe(self) -> str:
        parts = ["serial (in-process)"]
        if self.retry_policy is not None:
            parts.append(self.retry_policy.describe())
        if self.chaos is not None:
            parts.append(self.chaos.describe())
        return ", ".join(parts)


# ---------------------------------------------------------------------------
# Process-pool backend
# ---------------------------------------------------------------------------

#: Per-worker state installed by the pool initializer.
_WORKER_STATE: Dict[str, object] = {}

#: One unit of pool work: the ``(task, attempt number)`` pairs of a chunk.
_Chunk = List[Tuple[EvaluationTask, int]]

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


def _init_worker(cost_model: CostModel, scheduler: HeraldScheduler,
                 chaos: Optional[ChaosSpec],
                 snapshot: Optional[Tuple[LayerCost, ...]]) -> None:
    """Pool initializer: adopt the shipped (warm) cost model and scheduler.

    The arguments arrive together (inherited under fork, pickled as one
    under spawn), so the scheduler's cost-model reference survives the trip
    and the ``snapshot`` entries are this model's memo entries.  ``chaos``
    is installed only for real-fault chaos.  A ``snapshot`` means the parent
    memo already covers every pair the tasks will read: the worker neither
    tracks what was sent nor ships entries back (:class:`_SnapshotPickler`).
    """
    _WORKER_STATE["model"] = cost_model
    _WORKER_STATE["scheduler"] = scheduler
    _WORKER_STATE["chaos"] = chaos
    _WORKER_STATE["sent_keys"] = (
        None if snapshot is not None
        else {key for key, _ in cost_model.cache_items()})
    # Ids are safe keys: the snapshot keeps every entry alive.
    _WORKER_STATE["entry_index"] = {
        id(cost): index for index, cost in enumerate(snapshot or ())}


def _run_chunk(chunk: _Chunk) -> bytes:
    """Worker body: run one attempt of every task in ``chunk``.

    Returns, pickled by :class:`_SnapshotPickler`, one ``(result, kind,
    message)`` outcome per task in chunk order (see :func:`_attempt`; a
    library error costs only its own task), the memo entries computed here
    that the parent has not seen yet, and the chunk's cost-model hit/miss
    counts.

    With a real-fault chaos spec installed, the worker misbehaves for real:
    ``os._exit`` leaves the parent a broken pool to rebuild, and an
    over-budget sleep trips the parent's stall watchdog.  The parent replays
    the same deterministic schedule to attribute both, since a dead or
    killed process cannot carry its own outcome back.
    """
    model: CostModel = _WORKER_STATE["model"]  # type: ignore[assignment]
    scheduler: HeraldScheduler = _WORKER_STATE["scheduler"]  # type: ignore[assignment]
    chaos: Optional[ChaosSpec] = _WORKER_STATE["chaos"]  # type: ignore[assignment]
    hits_before = model.hits
    misses_before = model.misses
    outcomes = []
    for task, attempt in chunk:
        fault = (chaos.fault_for(task.task_id, attempt)
                 if chaos is not None else None)
        if fault == "crash":
            os._exit(3)
        elif fault == "hang":
            time.sleep(chaos.hang_sleep_s)
        outcomes.append(_attempt(task, attempt, model, scheduler, chaos))
    sent_keys = _WORKER_STATE["sent_keys"]
    if sent_keys is None:
        new_entries: List[Tuple[Tuple, LayerCost]] = []
    else:
        new_entries = [(key, cost) for key, cost in model.cache_items()
                       if key not in sent_keys]
        sent_keys.update(key for key, _ in new_entries)
    buffer = io.BytesIO()
    _SnapshotPickler(buffer, pickle.HIGHEST_PROTOCOL).dump((
        outcomes, new_entries, model.hits - hits_before,
        model.misses - misses_before))
    return buffer.getvalue()


class ProcessPoolBackend(_ResilientMixin):
    """Evaluate tasks on a pool of worker processes.

    Tasks are split into contiguous chunks (``ceil(len(queue) / (2 *
    jobs))`` tasks each) and submitted to a ``concurrent.futures`` process
    pool with at most ``2 * jobs`` chunks in flight.  Each worker runs its
    chunk task by task and reports one outcome per task, so a library error
    costs only its own task.  Every worker starts from a copy of the
    parent's (possibly cache-warmed) cost model; new memo entries computed
    in the workers are shipped back with each chunk and merged into the
    parent model, so a subsequent run — serial or parallel — starts warm.
    When the parent memo already covers everything a run reads (a prewarmed
    sweep), the table is instead treated as shared and read-mostly: it ships
    once with the pool initializer, the merge-back is skipped entirely, and
    the results come back referencing the parent's memo entries, not copies.

    A dead worker breaks the pool; the backend rebuilds it and charges a
    ``crash`` attempt to the tasks of every in-flight chunk (under
    real-fault chaos, only to the tasks the deterministic schedule actually
    targeted — the innocent bystanders are re-dispatched for free).  A stall
    — no chunk completing within the policy's stall budget — kills the
    worker processes, rebuilds, and charges a ``timeout`` attempt the same
    way.  Tasks whose budget is exhausted become
    :class:`~repro.exec.resilience.TaskFailure` records.

    A fresh pool is created per :meth:`run` call and the parent's memo is
    shipped to every worker, so per-call overhead grows with the memo size;
    this keeps worker lifetime trivially bounded, but for very large
    persistent caches a long-lived pool with delta shipping would amortise
    better (future work).

    Parameters
    ----------
    jobs:
        Number of worker processes (>= 1).
    cost_model / scheduler:
        Parent-side cost model and scheduler configuration.  The scheduler is
        shipped to the workers so custom metrics/orderings are honoured.
    cache:
        Optional persistent cost cache, loaded before the first run and
        re-saved after every run (including worker-computed entries).
    retry_policy:
        Optional fault-tolerance budget (``None``: no retries, so a failing
        task ends the run in :class:`~repro.exceptions.TaskExecutionError`).
    """

    def __init__(self, jobs: int = 2, cost_model: Optional[CostModel] = None,
                 scheduler: Optional[HeraldScheduler] = None,
                 cache: Optional[PersistentCostCache] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        if jobs < 1:
            raise SearchError(f"jobs must be >= 1 (got {jobs})")
        self.jobs = jobs
        self.cost_model = cost_model or CostModel()
        self.scheduler = scheduler or HeraldScheduler(self.cost_model)
        self.cache = cache
        self.retry_policy = retry_policy
        self.chaos: Optional[ChaosSpec] = None
        self._cache_warmed = False
        self.last_cold_evaluations = 0
        self.last_cache_hits = 0
        self.last_new_cache_entries = 0
        self.total_cold_evaluations = 0
        self.total_cache_hits = 0
        #: Executor rebuilds forced by dead or hung workers (diagnostics).
        self.pool_rebuilds = 0

    def run(self, tasks: Sequence[EvaluationTask]) -> List[EvaluationResult]:
        """Execute ``tasks`` across the worker pool, preserving order."""
        return self.run_resilient(tasks).ordered_results(tasks)

    def _table_is_shared(self, tasks: Sequence[EvaluationTask]) -> bool:
        """Whether this run's memo travels to the workers read-mostly.

        The table is shared exactly when the parent memo already covers
        every (shape, hardware) pair the submitted tasks can read — the
        state a prewarmed sweep is in.  The check is conservative: a
        workload that cannot enumerate its unique shapes keeps the
        merge-back path.
        """
        model = self.cost_model
        cache_has = model._cache.__contains__
        seen_configs = set()
        for task in tasks:
            unique_shapes = getattr(task.workload, "unique_shape_layers", None)
            if unique_shapes is None:
                return False
            for acc in task.design.sub_accelerators:
                hw_key = model.hardware_key(acc)
                probe = (id(task.workload),) + hw_key
                if probe in seen_configs:
                    continue
                seen_configs.add(probe)
                for layer in unique_shapes():
                    if not cache_has((layer.shape_key,) + hw_key):
                        return False
        return True

    @staticmethod
    def _kill_executor(executor: concurrent.futures.ProcessPoolExecutor
                       ) -> None:
        """Forcibly tear an executor down, hung workers included."""
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, AttributeError):
                pass
        executor.shutdown(wait=False)

    def _execute_remaining(self, tasks: Sequence[EvaluationTask],
                           policy: RetryPolicy, outcome: ExecutionOutcome,
                           failures: List[TaskFailure],
                           checkpoint: Optional[SweepCheckpoint],
                           scope: str) -> None:
        self.last_cold_evaluations = 0
        self.last_cache_hits = 0
        self.last_new_cache_entries = 0
        if not tasks:
            return
        attempts: Dict[int, int] = {task.task_id: 0 for task in tasks}
        queue: Deque[EvaluationTask] = collections.deque(tasks)
        in_flight: Dict[concurrent.futures.Future, _Chunk] = {}
        window = 2 * self.jobs
        chaos = self.chaos
        simulated = chaos is not None and not chaos.real_faults
        real = chaos is not None and chaos.real_faults
        snapshot = (tuple(cost for _, cost in self.cost_model.cache_items())
                    if self._table_is_shared(tasks) else None)
        initargs = (self.cost_model, self.scheduler, chaos if real else None,
                    snapshot)

        def make_executor() -> concurrent.futures.ProcessPoolExecutor:
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_init_worker,
                initargs=initargs)

        def charge(task: EvaluationTask, kind: str, message: str) -> None:
            attempts[task.task_id] += 1
            if _book_fault(policy, outcome, failures, task,
                           attempts[task.task_id], kind, message):
                queue.append(task)

        def submit(executor: concurrent.futures.ProcessPoolExecutor) -> None:
            """Fill the in-flight window with contiguous chunks of the queue.

            Simulated chaos is decided here, in the parent, so a simulated
            fault never reaches a worker.
            """
            size = -(-len(queue) // window)
            while queue and len(in_flight) < window:
                chunk: _Chunk = []
                while queue and len(chunk) < size:
                    task = queue.popleft()
                    attempt = attempts[task.task_id]
                    fault = (chaos.fault_for(task.task_id, attempt)
                             if simulated else None)
                    if fault is not None:
                        charge(task, _failure_kind(fault),
                               _chaos_message(fault, task.task_id, attempt))
                    else:
                        chunk.append((task, attempt))
                if chunk:
                    in_flight[executor.submit(_run_chunk, chunk)] = chunk

        def record(chunk: _Chunk, payload: bytes) -> None:
            outcomes, new_entries, hits, misses = _SnapshotUnpickler(
                payload, snapshot or ()).load()
            for key, cost in new_entries:
                if self.cost_model.install_cached(key, cost):
                    self.last_new_cache_entries += 1
            if (new_entries and self.cache is not None
                    and self.cache.journal_every):
                self.cache.absorb(new_entries)
            self.last_cache_hits += hits
            self.last_cold_evaluations += misses
            for (task, _), (result, kind, message) in zip(chunk, outcomes):
                if kind is None:
                    _book_success(outcome, checkpoint, scope, task, result)
                else:
                    charge(task, kind, message)

        def settle_wreckage(kind: str) -> None:
            """Charge or re-dispatch every in-flight task after a pool loss.

            The pool dies as a unit, so innocent tasks are caught in the
            blast.  Under real-fault chaos the parent replays the schedule
            and only charges the targeted tasks; otherwise the fault is
            genuine and every in-flight task is (conservatively) charged.
            """
            for future, chunk in list(in_flight.items()):
                future.cancel()
                for task, attempt in chunk:
                    if real and chaos.fault_for(task.task_id, attempt) == kind:
                        charge(task, _failure_kind(kind),
                               _chaos_message(kind, task.task_id, attempt))
                    elif real:
                        queue.append(task)  # bystander: free re-dispatch
                    else:
                        charge(task, kind,
                               f"worker pool lost task {task.task_id} "
                               f"(attempt {attempt}): {kind}")
            in_flight.clear()

        executor = make_executor()
        try:
            while queue or in_flight:
                submit(executor)
                if not in_flight:
                    continue
                stall_budget = (
                    policy.task_timeout_s
                    * max(len(chunk) for chunk in in_flight.values())
                    if policy.task_timeout_s is not None else None)
                done, _ = concurrent.futures.wait(
                    in_flight, timeout=stall_budget,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                if not done:
                    # Stall watchdog: nothing completed within the budget, so
                    # the workers are presumed hung.  Kill and rebuild.
                    self._kill_executor(executor)
                    self.pool_rebuilds += 1
                    settle_wreckage("hang" if real else "timeout")
                    executor = make_executor()
                    continue
                broken = False
                for future in done:
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        broken = True  # stays in flight as wreckage
                    else:
                        record(in_flight.pop(future), payload)
                if broken:
                    # The whole pool died with the crashed worker; every
                    # unfinished chunk is wreckage of the same event.
                    self._kill_executor(executor)
                    self.pool_rebuilds += 1
                    settle_wreckage("crash")
                    executor = make_executor()
        finally:
            self._kill_executor(executor)
            self.total_cold_evaluations += self.last_cold_evaluations
            self.total_cache_hits += self.last_cache_hits

    def describe(self) -> str:
        parts = [f"process pool ({self.jobs} jobs)"]
        if self.retry_policy is not None:
            parts.append(self.retry_policy.describe())
        if self.chaos is not None:
            parts.append(self.chaos.describe())
        return ", ".join(parts)
