"""Property-based and exact tests of the resilient execution engine.

Three pinned invariants (the acceptance criteria of the fault-tolerance
layer), each checked over randomized inputs:

* **chaos transparency** — a seeded chaos run (crashes, hangs, transient
  errors) with a retry budget covering ``max_faults_per_task`` produces
  *bit-identical* design metrics to an undisturbed :class:`SerialBackend`
  run, because evaluations are pure functions of ``(design, workload)`` and
  the fault schedule is a pure function of ``(seed, task_id, attempt)``;
* **resume transparency** — a sweep interrupted at an arbitrary point and
  resumed from its :class:`SweepCheckpoint` produces results bit-identical
  to an uninterrupted run, and only re-executes the missing tasks;
* **degraded-mode honesty** — a ``partial_ok`` run with permanently doomed
  tasks ranks exactly the surviving subset: every survivor's metrics match
  the full run and their relative order is preserved.

Plus exact units for retry exhaustion, failure-kind classification,
checkpoint key/version safety, and the real process-pool recovery paths
(broken pool rebuild, stall watchdog).
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.accel.builders import enumerate_fdas, make_hda, make_rda
from repro.core.dse import HeraldDSE
from repro.core.partitioner import PartitionSearch
from repro.core.scheduler import HeraldScheduler
from repro.dataflow.styles import NVDLA, SHIDIANNAO
from repro.exceptions import (
    CheckpointError,
    TaskExecutionError,
    WorkerCrash,
    WorkerHang,
    WorkloadError,
)
from repro.exec import (
    ChaosSpec,
    EvaluationTask,
    ProcessPoolBackend,
    RetryPolicy,
    SerialBackend,
    SweepCheckpoint,
    classify_failure,
    sweep_key_from,
)
from repro.maestro.cost import CostModel

#: One shared cost model: the same layer shapes repeat across examples, so
#: the memo keeps the property sweeps fast without affecting decisions
#: (layer costs are pure).
_COST_MODEL = CostModel()


def _metrics(results):
    """The deterministic slice of evaluation results (no wall clock)."""
    return [(r.design.name, r.latency_s, r.energy_mj, r.edp) for r in results]


@pytest.fixture(scope="module")
def task_bag(tiny_chip, small_workload):
    """A small, category-diverse bag of evaluation tasks."""
    designs = list(enumerate_fdas(tiny_chip))
    designs.append(make_rda(tiny_chip))
    designs.append(make_hda(tiny_chip, [NVDLA, SHIDIANNAO]))
    return [EvaluationTask(i, design, small_workload, category=design.kind.value)
            for i, design in enumerate(designs)]


@pytest.fixture(scope="module")
def baseline(task_bag):
    """Undisturbed serial results for the bag (the bit-identity reference)."""
    backend = SerialBackend(cost_model=_COST_MODEL)
    return _metrics(backend.run(task_bag))


# ---------------------------------------------------------------------------
# Property: chaos + retries == undisturbed serial, bit for bit
# ---------------------------------------------------------------------------
class TestChaosTransparency:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000),
           crash=st.floats(0.0, 0.4),
           hang=st.floats(0.0, 0.3),
           error=st.floats(0.0, 0.3),
           max_faults=st.integers(0, 2))
    def test_serial_chaos_matches_baseline(self, task_bag, baseline, seed,
                                           crash, hang, error, max_faults):
        spec = ChaosSpec(seed=seed, crash_rate=crash, hang_rate=hang,
                         error_rate=error, max_faults_per_task=max_faults)
        chaotic = SerialBackend(cost_model=_COST_MODEL,
                                retry_policy=RetryPolicy(max_retries=max_faults),
                                chaos=spec)
        assert _metrics(chaotic.run(task_bag)) == baseline

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fault_schedule_is_order_independent(self, seed):
        spec = ChaosSpec(seed=seed, crash_rate=0.3, hang_rate=0.2,
                         error_rate=0.2)
        # Each (task, attempt) decision is hashed independently, so querying
        # in any order (or twice) yields the same schedule.
        forward = [spec.fault_for(t, a) for t in range(8) for a in range(3)]
        backward = [spec.fault_for(t, a)
                    for t in reversed(range(8)) for a in reversed(range(3))]
        assert forward == list(reversed(backward))

    def test_pool_simulated_chaos_matches_baseline(self, task_bag, baseline):
        spec = ChaosSpec(seed=7, crash_rate=0.35, hang_rate=0.2,
                         error_rate=0.2, max_faults_per_task=2)
        chaotic = ProcessPoolBackend(jobs=2, cost_model=CostModel(),
                                     retry_policy=RetryPolicy(max_retries=2),
                                     chaos=spec)
        assert _metrics(chaotic.run(task_bag)) == baseline

    def test_zero_rate_chaos_changes_nothing(self, task_bag, baseline):
        chaotic = SerialBackend(cost_model=_COST_MODEL, chaos=ChaosSpec(seed=3))
        outcome = chaotic.run_resilient(task_bag)
        assert _metrics(outcome.ordered_results(task_bag)) == baseline
        assert outcome.retried_attempts == 0
        assert outcome.failures == ()


# ---------------------------------------------------------------------------
# Property: interrupt + resume == uninterrupted, re-running only the rest
# ---------------------------------------------------------------------------
class TestResumeTransparency:
    @settings(max_examples=20, deadline=None)
    @given(cut=st.integers(0, 5), flush_every=st.integers(1, 8))
    def test_resumed_sweep_is_bit_identical(self, tmp_path_factory, task_bag,
                                            baseline, cut, flush_every):
        path = str(tmp_path_factory.mktemp("ck") / "sweep.ckpt")
        cut = min(cut, len(task_bag))
        key = sweep_key_from({"bag": "task_bag"})

        # Phase 1: run a prefix, then "die" (drop the backend; run_resilient
        # flushed the checkpoint in its finally block).
        first = SweepCheckpoint(path, key, flush_every=flush_every)
        SerialBackend(cost_model=_COST_MODEL).run_resilient(
            task_bag[:cut], checkpoint=first)

        # Phase 2: a fresh process would reload and run the full bag.
        second = SweepCheckpoint(path, key, resume=True,
                                 flush_every=flush_every)
        assert second.loaded_records == cut
        outcome = SerialBackend(cost_model=_COST_MODEL).run_resilient(
            task_bag, checkpoint=second)
        assert outcome.resumed_tasks == cut
        assert outcome.executed_tasks == len(task_bag) - cut
        assert _metrics(outcome.ordered_results(task_bag)) == baseline

    def test_resumed_results_are_the_stored_objects(self, tmp_path, task_bag):
        # Stronger than metric equality: the resumed result is the object
        # the interrupted run computed — schedule, wall clock and all — so
        # even the non-deterministic fields survive the round trip.
        path = str(tmp_path / "sweep.ckpt")
        key = sweep_key_from("bag")
        first = SweepCheckpoint(path, key)
        ran = SerialBackend(cost_model=_COST_MODEL).run_resilient(
            task_bag[:2], checkpoint=first)
        second = SweepCheckpoint(path, key, resume=True)
        resumed = SerialBackend(cost_model=_COST_MODEL).run_resilient(
            task_bag[:2], checkpoint=second)
        assert resumed.executed_tasks == 0
        for task in task_bag[:2]:
            ours, theirs = resumed.results[task.task_id], ran.results[task.task_id]
            assert ours.scheduling_time_s == theirs.scheduling_time_s
            assert ours.latency_s == theirs.latency_s
            assert ours.energy_mj == theirs.energy_mj
            assert [e.cost for e in ours.schedule.entries] == \
                [e.cost for e in theirs.schedule.entries]

    def test_wrong_sweep_key_refuses_to_resume(self, tmp_path, task_bag):
        path = str(tmp_path / "sweep.ckpt")
        first = SweepCheckpoint(path, sweep_key_from({"pe_steps": 4}))
        SerialBackend(cost_model=_COST_MODEL).run_resilient(
            task_bag[:1], checkpoint=first)
        with pytest.raises(CheckpointError, match="different sweep"):
            SweepCheckpoint(path, sweep_key_from({"pe_steps": 8}), resume=True)

    def test_wrong_version_refuses_to_resume(self, tmp_path):
        # Version 1 pickled schedules as ScheduledLayer entry lists.
        path = tmp_path / "sweep.ckpt"
        for version in (1, 999):
            path.write_bytes(pickle.dumps(
                {"version": version, "sweep_key": "k", "completed": {}}))
            with pytest.raises(CheckpointError, match="version"):
                SweepCheckpoint(str(path), "k", resume=True)

    def test_version_1_records_are_never_unpickled(self, tmp_path):
        """A v1 journal is refused on its header, before any record frame
        (whose old Schedule layout no longer loads) is read."""
        path = tmp_path / "sweep.ckpt"
        unloadable = b"\x80\x04crepro.core.schedule\nNoSuchClass\n."
        path.write_bytes(pickle.dumps({"version": 1, "sweep_key": "k"})
                         + unloadable)
        with pytest.raises(CheckpointError, match="unsupported version 1"):
            SweepCheckpoint(str(path), "k", resume=True)

    def test_corrupted_checkpoint_is_an_error_not_a_wrong_report(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        path.write_bytes(b"\x80\x04 definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="unreadable"):
            SweepCheckpoint(str(path), "k", resume=True)

    def test_missing_file_resumes_as_fresh_run(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path / "absent.ckpt"), "k",
                                     resume=True)
        assert checkpoint.loaded_records == 0
        assert len(checkpoint) == 0

    def test_without_resume_a_stale_file_is_overwritten(self, tmp_path,
                                                        task_bag):
        path = str(tmp_path / "sweep.ckpt")
        stale = SweepCheckpoint(path, "old-key")
        SerialBackend(cost_model=_COST_MODEL).run_resilient(
            task_bag[:2], checkpoint=stale)
        fresh = SweepCheckpoint(path, "new-key")
        SerialBackend(cost_model=_COST_MODEL).run_resilient(
            task_bag[:1], checkpoint=fresh)
        reread = SweepCheckpoint(path, "new-key", resume=True)
        assert reread.loaded_records == 1

    def test_flush_leaves_no_temp_files(self, tmp_path, task_bag):
        path = str(tmp_path / "sweep.ckpt")
        checkpoint = SweepCheckpoint(path, "k", flush_every=1)
        SerialBackend(cost_model=_COST_MODEL).run_resilient(
            task_bag[:3], checkpoint=checkpoint)
        assert checkpoint.flush_count >= 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.ckpt"]


# ---------------------------------------------------------------------------
# Property: partial_ok ranks exactly the surviving subset
# ---------------------------------------------------------------------------
class TestPartialRankings:
    @settings(max_examples=20, deadline=None)
    @given(doomed=st.sets(st.integers(0, 5), max_size=4))
    def test_survivors_are_a_rank_consistent_subset(self, task_bag, baseline,
                                                    doomed):
        doomed = {i for i in doomed if i < len(task_bag)}
        spec = ChaosSpec(seed=1, doomed_task_ids=frozenset(doomed))
        backend = SerialBackend(cost_model=_COST_MODEL,
                                retry_policy=RetryPolicy(max_retries=1),
                                chaos=spec)
        outcome = backend.run_resilient(task_bag, partial_ok=True)

        assert set(outcome.failed_task_ids) == doomed
        survivors = outcome.completed(task_bag)
        expected = [row for task, row in zip(task_bag, baseline)
                    if task.task_id not in doomed]
        assert _metrics([r for _, r in survivors]) == expected
        # Ranking consistency: ordering survivors by EDP gives the full
        # run's EDP order restricted to the survivors.
        by_edp = sorted((r.edp, t.task_id) for t, r in survivors)
        full_by_edp = [(edp, tid) for edp, tid in
                       sorted((row[3], task.task_id)
                              for task, row in zip(task_bag, baseline))
                       if tid not in doomed]
        assert by_edp == full_by_edp

    def test_all_tasks_doomed_yields_empty_results(self, task_bag):
        spec = ChaosSpec(seed=5, doomed_task_ids=frozenset(
            task.task_id for task in task_bag))
        backend = SerialBackend(cost_model=_COST_MODEL, chaos=spec)
        outcome = backend.run_resilient(task_bag, partial_ok=True)
        assert outcome.results == {}
        assert len(outcome.failures) == len(task_bag)


# ---------------------------------------------------------------------------
# Exact units: retry exhaustion and failure classification
# ---------------------------------------------------------------------------
class TestRetryExhaustion:
    def test_doomed_task_exhausts_exact_attempt_budget(self, task_bag):
        spec = ChaosSpec(seed=2, doomed_task_ids=frozenset({1}))
        backend = SerialBackend(cost_model=_COST_MODEL,
                                retry_policy=RetryPolicy(max_retries=2),
                                chaos=spec)
        with pytest.raises(TaskExecutionError) as excinfo:
            backend.run(task_bag)
        failures = excinfo.value.failures
        assert len(failures) == 1
        failure = failures[0]
        assert failure.task_id == 1
        assert failure.attempts == 3  # max_retries + 1, exactly
        assert failure.kind == "error"  # doomed with all-zero rates
        assert "chaos-injected transient error" in failure.message
        assert failure.category == task_bag[1].category

    def test_partial_ok_returns_instead_of_raising(self, task_bag):
        spec = ChaosSpec(seed=2, doomed_task_ids=frozenset({1}))
        backend = SerialBackend(cost_model=_COST_MODEL,
                                retry_policy=RetryPolicy(max_retries=0),
                                chaos=spec)
        outcome = backend.run_resilient(task_bag, partial_ok=True)
        assert outcome.failed_task_ids == (1,)
        assert outcome.failures[0].attempts == 1

    def test_failure_summary_is_json_serializable(self, task_bag):
        spec = ChaosSpec(seed=2, doomed_task_ids=frozenset({0}))
        backend = SerialBackend(cost_model=_COST_MODEL, chaos=spec)
        outcome = backend.run_resilient(task_bag[:1], partial_ok=True)
        row = outcome.failures[0].summary()
        assert json.loads(json.dumps(row)) == row

    def test_retry_policy_validation(self):
        from repro.exceptions import SearchError
        with pytest.raises(SearchError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(SearchError):
            RetryPolicy(task_timeout_s=0.0)
        with pytest.raises(SearchError):
            RetryPolicy(backoff_base_s=-0.1)

    def test_backoff_schedule_is_deterministic_exponential(self):
        policy = RetryPolicy(max_retries=3, backoff_base_s=0.5)
        assert [policy.backoff_s(k) for k in range(1, 4)] == [0.5, 1.0, 2.0]
        assert policy.backoff_s(0) == 0.0


class TestFailureClassification:
    def test_exception_to_kind_mapping(self):
        assert classify_failure(WorkerCrash("x")) == "crash"
        assert classify_failure(WorkerHang("x")) == "timeout"
        assert classify_failure(ValueError("x")) == "error"

    def test_chaos_hang_is_recorded_as_timeout(self, task_bag):
        # The simulated hang must classify like the real stall watchdog.
        spec = ChaosSpec(seed=0, hang_rate=1.0, doomed_task_ids=frozenset({0}))
        backend = SerialBackend(cost_model=_COST_MODEL, chaos=spec)
        outcome = backend.run_resilient(task_bag[:1], partial_ok=True)
        assert outcome.failures[0].kind == "timeout"
        assert "chaos-injected hang" in outcome.failures[0].message

    def test_chaos_crash_is_recorded_as_crash(self, task_bag):
        spec = ChaosSpec(seed=0, crash_rate=1.0,
                         doomed_task_ids=frozenset({0}))
        backend = SerialBackend(cost_model=_COST_MODEL, chaos=spec)
        outcome = backend.run_resilient(task_bag[:1], partial_ok=True)
        assert outcome.failures[0].kind == "crash"

    def test_programming_errors_are_not_retried(self, small_workload):
        # A TypeError from a broken design must surface as a traceback, not
        # burn the retry budget.
        backend = SerialBackend(cost_model=_COST_MODEL,
                                retry_policy=RetryPolicy(max_retries=2))
        bad = EvaluationTask(0, object(), small_workload)  # type: ignore[arg-type]
        with pytest.raises(Exception) as excinfo:
            backend.run([bad])
        assert not isinstance(excinfo.value, TaskExecutionError)


# ---------------------------------------------------------------------------
# Exact units: genuine library errors (not chaos) inside pool chunks
# ---------------------------------------------------------------------------
class _UnknownReleaseWorkload:
    """A streaming-shaped workload whose trace names an instance its spec
    lacks, so the scheduler rejects it with a ``SchedulingError``."""

    def __init__(self, spec):
        self.spec = spec
        self.name = spec.name

    def to_workload_spec(self):
        return self.spec

    def unique_shape_layers(self):
        return self.spec.unique_shape_layers()

    def release_cycles(self, clock_hz):
        return {"no-such-instance#0": 0.0}

    def deadline_cycles(self, clock_hz):
        return {}


class _BrokenWorkload(_UnknownReleaseWorkload):
    """A workload whose expansion raises a programming error."""

    def to_workload_spec(self):
        raise TypeError("broken workload")


class _UnexpandableWorkload(_UnknownReleaseWorkload):
    """A workload whose expansion raises a library error, which the
    backend's prewarm meets before the task's own attempt does."""

    def to_workload_spec(self):
        raise WorkloadError("unexpandable workload")

    unique_shape_layers = to_workload_spec


def _with_rejected_task(task_bag, workload_cls=_UnknownReleaseWorkload):
    """The bag with a failing task inserted at index 2 (id ``len(bag)``).

    Six tasks on two jobs are cut into chunks of two, so the failing task
    shares its chunk with ``task_bag[2]``.
    """
    template = task_bag[2]
    rejected = EvaluationTask(len(task_bag), template.design,
                              workload_cls(template.workload),
                              category=template.category)
    return list(task_bag[:2]) + [rejected] + list(task_bag[2:])


def _backend(name, retry_policy=None):
    if name == "serial":
        return SerialBackend(cost_model=CostModel(), retry_policy=retry_policy)
    return ProcessPoolBackend(jobs=2, cost_model=CostModel(),
                              retry_policy=retry_policy)


class TestLibraryErrors:
    def test_library_error_costs_only_its_own_task_in_a_chunk(
            self, task_bag, baseline):
        tasks = _with_rejected_task(task_bag)
        serial = _backend("serial").run_resilient(tasks, partial_ok=True)
        pool = _backend("pool").run_resilient(tasks, partial_ok=True)
        assert _metrics(pool.ordered_results(task_bag)) == baseline
        assert _metrics(serial.ordered_results(task_bag)) == baseline
        assert pool.failed_task_ids == (len(task_bag),)
        assert [f.summary() for f in pool.failures] == \
            [f.summary() for f in serial.failures]
        failure = pool.failures[0]
        assert failure.kind == "error"
        assert failure.attempts == 1
        assert "no-such-instance#0" in failure.message

    @pytest.mark.parametrize("name", ["serial", "pool"])
    def test_library_error_without_policy_raises_task_execution_error(
            self, task_bag, name):
        with pytest.raises(TaskExecutionError) as excinfo:
            _backend(name).run(_with_rejected_task(task_bag))
        assert [f.task_id for f in excinfo.value.failures] == [len(task_bag)]

    @pytest.mark.parametrize("name", ["serial", "pool"])
    def test_prewarm_library_error_costs_only_its_own_task(
            self, task_bag, baseline, name):
        tasks = _with_rejected_task(task_bag, _UnexpandableWorkload)
        outcome = _backend(name).run_resilient(tasks, partial_ok=True)
        assert _metrics(outcome.ordered_results(task_bag)) == baseline
        assert [(f.task_id, f.kind, f.attempts) for f in outcome.failures] \
            == [(len(task_bag), "error", 1)]
        assert "unexpandable workload" in outcome.failures[0].message

    @pytest.mark.parametrize("name", ["serial", "pool"])
    def test_programming_error_in_a_task_propagates_raw(self, task_bag, name):
        backend = _backend(name, RetryPolicy(max_retries=2))
        with pytest.raises(TypeError, match="broken workload"):
            backend.run(_with_rejected_task(task_bag, _BrokenWorkload))


# ---------------------------------------------------------------------------
# Real process-pool recovery (integration: crashes, hangs, broken pools)
# ---------------------------------------------------------------------------
class TestRealPoolRecovery:
    def test_real_crashes_are_survived_bit_identically(self, task_bag,
                                                       baseline):
        spec = ChaosSpec(seed=11, crash_rate=0.5, max_faults_per_task=1,
                         real_faults=True)
        # The schedule must actually contain a crash for the test to bite.
        assert any(spec.fault_for(task.task_id, 0) == "crash"
                   for task in task_bag)
        pool = ProcessPoolBackend(jobs=2, cost_model=CostModel(),
                                  retry_policy=RetryPolicy(max_retries=1),
                                  chaos=spec)
        assert _metrics(pool.run(task_bag)) == baseline
        assert pool.pool_rebuilds >= 1

    def test_stall_watchdog_recovers_real_hang(self, task_bag, baseline):
        spec = ChaosSpec(seed=4, hang_rate=0.45, max_faults_per_task=1,
                         real_faults=True, hang_sleep_s=20.0)
        assert any(spec.fault_for(task.task_id, 0) == "hang"
                   for task in task_bag)
        pool = ProcessPoolBackend(
            jobs=2, cost_model=CostModel(),
            retry_policy=RetryPolicy(max_retries=1, task_timeout_s=1.0),
            chaos=spec)
        assert _metrics(pool.run(task_bag)) == baseline
        assert pool.pool_rebuilds >= 1

    def test_pool_failure_records_match_serial_records(self, task_bag):
        # Terminal failures must be identical no matter which backend lost
        # the task (same kind, same attempts, same message).
        spec = ChaosSpec(seed=2, doomed_task_ids=frozenset({0, 3}))
        serial = SerialBackend(cost_model=_COST_MODEL, chaos=spec)
        serial_out = serial.run_resilient(task_bag, partial_ok=True)
        pool = ProcessPoolBackend(jobs=2, cost_model=CostModel(), chaos=spec)
        pool_out = pool.run_resilient(task_bag, partial_ok=True)
        assert sorted(f.summary().items() for f in pool_out.failures) == \
            sorted(f.summary().items() for f in serial_out.failures)


# ---------------------------------------------------------------------------
# Upper layers: DSE and fleet degraded modes
# ---------------------------------------------------------------------------
class TestUpperLayers:
    def _dse(self, backend):
        model = backend.cost_model
        scheduler = HeraldScheduler(model)
        search = PartitionSearch(cost_model=model, scheduler=scheduler,
                                 pe_steps=2, bw_steps=1)
        return HeraldDSE(cost_model=model, scheduler=scheduler,
                         partition_search=search, backend=backend)

    def test_partial_dse_reports_failures(self, small_workload, tiny_chip):
        spec = ChaosSpec(seed=6, doomed_task_ids=frozenset({0}))
        backend = SerialBackend(cost_model=CostModel(), chaos=spec)
        space = self._dse(backend).explore(small_workload, tiny_chip,
                                           include_three_way=False,
                                           partial_ok=True)
        assert len(space.failures) == 1
        assert space.failure_rows()[0]["task_id"] == 0
        assert "WARNING" in space.describe()

    def test_checkpointed_dse_resumes_bit_identically(self, small_workload,
                                                      tiny_chip, tmp_path):
        path = str(tmp_path / "dse.ckpt")
        key = sweep_key_from({"sweep": "dse"})
        clean = self._dse(SerialBackend(cost_model=CostModel())).explore(
            small_workload, tiny_chip, include_three_way=False)

        first = self._dse(SerialBackend(cost_model=CostModel())).explore(
            small_workload, tiny_chip, include_three_way=False,
            checkpoint=SweepCheckpoint(path, key))
        assert first.executed_tasks == len(first.points)

        resumed = self._dse(SerialBackend(cost_model=CostModel())).explore(
            small_workload, tiny_chip, include_three_way=False,
            checkpoint=SweepCheckpoint(path, key, resume=True))
        assert resumed.executed_tasks == 0
        assert resumed.resumed_tasks == len(clean.points)
        assert ([(p.design.name, p.latency_s, p.energy_mj)
                 for p in resumed.points]
                == [(p.design.name, p.latency_s, p.energy_mj)
                    for p in clean.points])

    def test_fleet_partial_reports_failed_chips(self, tiny_chip,
                                                small_workload):
        from repro.accel.builders import make_fda
        from repro.serve import Fleet, FleetSimulator, StreamSpec
        from repro.serve.workload import StreamingWorkload

        design = make_fda(tiny_chip, NVDLA)
        fleet = Fleet.homogeneous(design, 2)
        model_name = small_workload.entries[0][0]
        streaming = StreamingWorkload(
            "mini", streams=[StreamSpec(model_name, fps=100.0, frames=2)],
            models={model_name: small_workload.model_graph(model_name)})
        spec = ChaosSpec(seed=0, doomed_task_ids=frozenset({1}))
        backend = SerialBackend(cost_model=CostModel(), chaos=spec)
        simulator = FleetSimulator(backend=backend)
        result = simulator.simulate(streaming, fleet, partial_ok=True)
        assert len(result.report.failed_chips) == 1
        assert not result.report.meets_sla
        assert "failed_chips" in result.report.summary()
        assert "WARNING" in result.report.describe()


# ---------------------------------------------------------------------------
# CLI: checkpoint/resume and retry flags end to end
# ---------------------------------------------------------------------------
class TestResilienceCLI:
    def test_resume_requires_checkpoint(self, capsys):
        from repro.cli import main
        assert main(["dse", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_online_rejects_checkpoint(self, capsys):
        from repro.cli import main
        assert main(["fleet", "--online", "--checkpoint", "x.ckpt"]) == 2
        assert "no task bag" in capsys.readouterr().err

    def test_schedule_spec_rejects_retry_knobs(self):
        from repro.exceptions import SpecError
        from repro.experiment.spec import experiment_from_spec
        with pytest.raises(SpecError, match="exec.max_retries"):
            experiment_from_spec({"kind": "schedule",
                                  "exec": {"max_retries": 1}})
        with pytest.raises(SpecError, match="exec.partial_ok"):
            experiment_from_spec({"kind": "serve",
                                  "exec": {"partial_ok": True}})

    def test_exec_settings_compile_to_retry_policy(self):
        from repro.experiment.spec import experiment_from_spec
        spec = experiment_from_spec(
            {"kind": "dse",
             "exec": {"max_retries": 1, "task_timeout_s": 2.0,
                      "partial_ok": True}})
        policy = spec.exec_settings.retry_policy()
        assert policy == RetryPolicy(max_retries=1, task_timeout_s=2.0)
        assert spec.exec_settings.partial_ok
        assert experiment_from_spec(
            {"kind": "dse"}).exec_settings.retry_policy() is None

    def test_dse_checkpoint_resume_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.experiment.report import compare_reports, load_report

        ckpt = str(tmp_path / "dse.ckpt")
        argv = ["dse", "--workload", "arvr-a", "--chip", "edge",
                "--pe-steps", "4", "--bw-steps", "2", "--checkpoint", ckpt]
        assert main(argv + ["--max-retries", "1",
                            "--report", str(tmp_path / "a.json")]) == 0
        assert main(argv + ["--resume",
                            "--report", str(tmp_path / "b.json")]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        comparison = compare_reports(load_report(str(tmp_path / "b.json")),
                                     load_report(str(tmp_path / "a.json")))
        assert comparison.ok
        assert all(delta.delta == 0.0 for delta in comparison.deltas)
        assert not comparison.missing and not comparison.added
