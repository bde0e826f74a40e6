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

A :class:`~repro.exec.chaos.ChaosSpec` (a backend's ``chaos=`` argument)
injects deterministic faults into these paths.  Simulated faults are decided
at dispatch and raised in the parent — identical machinery for both
backends, which is what makes chaos + retries reproduce the undisturbed
serial results bit-for-bit.  With ``real_faults=True`` the pool's workers
misbehave for real (``os._exit``, over-budget sleeps), exercising the
broken-pool rebuild and stall-watchdog recovery instead; the parent replays
the same fault schedule to attribute the wreckage, charging attempts only to
the tasks chaos actually targeted.
"""

from __future__ import annotations

import collections
import io
import os
import pickle
import time
from typing import Deque, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.exceptions import ReproError, SearchError, TaskExecutionError
from repro.core.evaluator import EvaluationResult
from repro.core.scheduler import HeraldScheduler
from repro.maestro.cost import CostModel, LayerCost
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


class _Backend:
    """The state, counters and resilient dispatch loop both backends share.

    Subclasses provide ``_execute_remaining(tasks, policy, outcome,
    failures, checkpoint, scope)`` — the backend's one dispatch loop, which
    adds its cost-model hits and misses to ``last_cache_hits`` /
    ``last_cold_evaluations`` — and the ``_label`` :meth:`describe` opens
    with.

    Parameters
    ----------
    cost_model:
        Shared cost model; its memo carries across all tasks of all runs.
    scheduler:
        Scheduler used for every task; defaults to Herald's scheduler on the
        shared cost model.
    retry_policy:
        Optional fault-tolerance budget (``None``: no retries, so a failing
        task ends the run in :class:`~repro.exceptions.TaskExecutionError`).
    chaos:
        Optional :class:`~repro.exec.chaos.ChaosSpec` fault schedule every
        attempt consults (``None``: an undisturbed run).
    """

    def __init__(self, cost_model: Optional[CostModel] = None,
                 scheduler: Optional[HeraldScheduler] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 chaos: Optional[ChaosSpec] = None) -> None:
        self.cost_model = cost_model or CostModel()
        self.scheduler = scheduler or HeraldScheduler(self.cost_model)
        self.retry_policy = retry_policy
        self.chaos = chaos
        self.last_cold_evaluations = 0
        self.last_cache_hits = 0
        self.total_cold_evaluations = 0
        self.total_cache_hits = 0

    def run(self, tasks: Sequence[EvaluationTask]) -> List[EvaluationResult]:
        """Execute ``tasks`` and return results in submission order.

        Raises :class:`~repro.exceptions.TaskExecutionError` if any task
        fails after its retries.
        """
        return self.run_resilient(tasks).ordered_results(tasks)

    def _label(self) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        """One-line description: where tasks run, retries, chaos."""
        parts = [self._label()]
        if self.retry_policy is not None:
            parts.append(self.retry_policy.describe())
        if self.chaos is not None:
            parts.append(self.chaos.describe())
        return ", ".join(parts)

    def _prewarm(self, tasks: Sequence[EvaluationTask]) -> None:
        """Estimate every cost ``tasks`` read, one workload at a time.

        A task reads each shape of its workload on each sub-accelerator of
        its design, so the memo gets the deduped shapes times those
        sub-accelerators up front (:meth:`CostModel.prewarm` dedupes by
        hardware key) and every scheduling pass after it is pure lookups.
        A workload whose prewarm raises a library error is skipped: the
        error surfaces again in its tasks' own attempts, where it is booked
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
        from it without re-execution; the rest are prewarmed, then
        dispatched, and every newly completed task is recorded back.
        Terminal failures raise
        :class:`~repro.exceptions.TaskExecutionError` unless ``partial_ok``,
        in which case they are returned as structured records alongside the
        surviving results.  Completed results are flushed to the checkpoint
        even when the run fails or is interrupted.
        """
        _ensure_unique_task_ids(tasks)
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
        self.last_cold_evaluations = 0
        self.last_cache_hits = 0
        try:
            self._prewarm(remaining)
            self._execute_remaining(remaining, policy, outcome, failures,
                                    checkpoint, scope)
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
                           policy: RetryPolicy, outcome: ExecutionOutcome,
                           failures: List[TaskFailure],
                           checkpoint: Optional[SweepCheckpoint],
                           scope: str) -> None:
        raise NotImplementedError


class SerialBackend(_Backend):
    """Evaluate every task in-process, sharing one cost model and scheduler.

    Takes the :class:`_Backend` parameters.  Serially there is no process to
    kill, so a retry policy's ``task_timeout_s`` only classifies
    chaos-injected hangs; crashes and library errors are retried exactly
    like the pool retries them.
    """

    #: Named on each backend class, not only inherited, so a per-class
    #: wrapper (``perfbench/tracer.py``) times each backend's runs.
    run = _Backend.run

    def _label(self) -> str:
        return "serial (in-process)"

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
            self.last_cold_evaluations += self.cost_model.misses - misses_before
            self.last_cache_hits += self.cost_model.hits - hits_before


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


def _snapshot(cost_model: CostModel) -> Tuple[LayerCost, ...]:
    """The memo entries of ``cost_model`` in memo order.

    Parent and workers each take it from their own copy of one model, so
    position ``i`` names the same entry on both sides of the pool.
    """
    return tuple(cost for _, cost in cost_model.cache_items())


def _init_worker(cost_model: CostModel, scheduler: HeraldScheduler,
                 chaos: Optional[ChaosSpec]) -> None:
    """Pool initializer: adopt the shipped (prewarmed) cost model and
    scheduler.

    The arguments arrive together (inherited under fork, pickled as one
    under spawn), so the scheduler's cost-model reference survives the trip.
    ``chaos`` is installed only for real-fault chaos.  The memo already
    covers every cost the tasks read, so results go back referencing its
    entries (:class:`_SnapshotPickler`) and no entry is ever shipped back.
    """
    _WORKER_STATE["model"] = cost_model
    _WORKER_STATE["scheduler"] = scheduler
    _WORKER_STATE["chaos"] = chaos
    # Ids are safe keys: the model's memo keeps every entry alive.
    _WORKER_STATE["entry_index"] = {
        id(cost): index for index, cost in enumerate(_snapshot(cost_model))}


def _run_chunk(chunk: _Chunk) -> bytes:
    """Worker body: run one attempt of every task in ``chunk``.

    Returns, pickled by :class:`_SnapshotPickler`, one ``(result, kind,
    message)`` outcome per task in chunk order (see :func:`_attempt`; a
    library error costs only its own task) and the chunk's cost-model
    hit/miss counts.

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
    buffer = io.BytesIO()
    _SnapshotPickler(buffer, pickle.HIGHEST_PROTOCOL).dump((
        outcomes, model.hits - hits_before, model.misses - misses_before))
    return buffer.getvalue()


class ProcessPoolBackend(_Backend):
    """Evaluate tasks on a pool of worker processes.

    Tasks are split into contiguous chunks (``ceil(len(queue) / (2 *
    jobs))`` tasks each) and submitted to a ``concurrent.futures`` process
    pool with at most ``2 * jobs`` chunks in flight.  Each worker runs its
    chunk task by task and reports one outcome per task, so a library error
    costs only its own task.  The parent's cost model, prewarmed by
    :meth:`run_resilient` with every cost the tasks read, ships once with
    the pool initializer and stays read-mostly: workers compute nothing new,
    and their results come back referencing the parent's memo entries, not
    copies.

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
    this keeps worker lifetime trivially bounded, but for very large memos
    a long-lived pool with delta shipping would amortise better (future
    work).

    Parameters
    ----------
    jobs:
        Number of worker processes (>= 1).

    The other parameters are :class:`_Backend`'s; the scheduler is shipped
    to the workers so custom metrics/orderings are honoured.
    """

    def __init__(self, jobs: int = 2, cost_model: Optional[CostModel] = None,
                 scheduler: Optional[HeraldScheduler] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 chaos: Optional[ChaosSpec] = None) -> None:
        if jobs < 1:
            raise SearchError(f"jobs must be >= 1 (got {jobs})")
        super().__init__(cost_model, scheduler, retry_policy, chaos)
        self.jobs = jobs
        #: Executor rebuilds forced by dead or hung workers (diagnostics).
        self.pool_rebuilds = 0

    run = _Backend.run  # see SerialBackend.run

    def _label(self) -> str:
        return f"process pool ({self.jobs} jobs)"

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
        if not tasks:
            return
        # The pool machinery loads multiprocessing; a serial run never does.
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        attempts: Dict[int, int] = {task.task_id: 0 for task in tasks}
        queue: Deque[EvaluationTask] = collections.deque(tasks)
        in_flight: Dict[concurrent.futures.Future, _Chunk] = {}
        window = 2 * self.jobs
        chaos = self.chaos
        simulated = chaos is not None and not chaos.real_faults
        real = chaos is not None and chaos.real_faults
        snapshot = _snapshot(self.cost_model)
        initargs = (self.cost_model, self.scheduler, chaos if real else None)

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
            outcomes, hits, misses = _SnapshotUnpickler(
                payload, snapshot).load()
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
