"""Property-based and exact tests of the execution engine's failure paths.

Every task runs exactly once: evaluations are pure functions of ``(design,
workload)``, so a task that fails would fail the same way again.  Pinned
here, with genuine library errors and a genuine worker death:

* **resume transparency** — a sweep interrupted at an arbitrary point and
  resumed from its :class:`SweepCheckpoint` produces results bit-identical
  to an uninterrupted run, and only re-executes the missing tasks; a damaged
  checkpoint frame re-runs its task instead of loading a different result;
* **degraded-mode honesty** — a ``partial_ok`` run whose failing tasks the
  scheduler rejects ranks exactly the surviving subset: every survivor's
  metrics match the full run and their relative order is preserved;
* **failure records** — a library error becomes one ``"error"`` record for
  its own task on both backends, a broken pool becomes ``"crash"`` records
  for every unfinished task, and a programming error propagates raw.
"""

from __future__ import annotations

import json
import os
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.accel.builders import enumerate_fdas, make_hda, make_rda
from repro.core.dse import HeraldDSE
from repro.core.partitioner import PartitionSearch
from repro.core.scheduler import HeraldScheduler
from repro.dataflow.styles import NVDLA, SHIDIANNAO
from repro.exceptions import CheckpointError, TaskExecutionError, WorkloadError
from repro.exec import (
    EvaluationTask,
    ProcessPoolBackend,
    SerialBackend,
    SweepCheckpoint,
    run_evaluation_task,
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

    def test_format_3_checkpoint_gets_the_version_error(self, tmp_path,
                                                          task_bag):
        """Format 3 began with a pickled header; it is refused by version,
        before any of its record frames is read."""
        path = tmp_path / "sweep.ckpt"
        SerialBackend(cost_model=_COST_MODEL).run_resilient(
            task_bag[:1], checkpoint=SweepCheckpoint(str(path), "k"))
        data = path.read_bytes()
        frames = data[data.index(b"sweep:") - 12:]
        path.write_bytes(pickle.dumps({"version": 3, "sweep_key": "k"})
                         + frames)
        with pytest.raises(CheckpointError,
                           match="unsupported version 3 .this build writes 4"):
            SweepCheckpoint(str(path), "k", resume=True)

    def test_every_flipped_header_bit_is_a_checkpoint_error(self, tmp_path,
                                                            capfd):
        """The header is length-prefixed and CRC-checked like the record
        frames, never unpickled: each single-bit flip anywhere in it ends in
        a ``CheckpointError`` and prints nothing (an unpickled header once
        printed CPython's "exported buffers" ``SystemError``)."""
        path = tmp_path / "sweep.ckpt"
        key = sweep_key_from("bag")
        SweepCheckpoint(str(path), key).close()
        header = path.read_bytes()
        assert len(header) == 8 + 12 + len(key)
        for at in range(len(header)):
            for bit in range(8):
                damaged = bytearray(header)
                damaged[at] ^= 1 << bit
                path.write_bytes(bytes(damaged))
                with pytest.raises(CheckpointError):
                    SweepCheckpoint(str(path), key, resume=True)
        assert capfd.readouterr() == ("", "")

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

    def _damaged_resume(self, path, task_bag, damage):
        """Checkpoint every task, ``damage(file bytes, outcome)`` the file,
        resume the full bag; returns ``(clean outcome, resumed outcome)``."""
        clean = SerialBackend(cost_model=_COST_MODEL).run_resilient(
            task_bag, checkpoint=SweepCheckpoint(str(path), "k"))
        path.write_bytes(bytes(damage(bytearray(path.read_bytes()), clean)))
        resumed = SerialBackend(cost_model=_COST_MODEL).run_resilient(
            task_bag, checkpoint=SweepCheckpoint(str(path), "k", resume=True))
        return clean, resumed

    def test_flipped_float_bit_reruns_its_task(self, tmp_path, task_bag,
                                               baseline):
        def flip(data, clean):
            # The low mantissa byte of task 1's pickled makespan.
            makespan = clean.results[1].schedule.makespan_cycles
            at = data.index(b"G" + struct.pack(">d", makespan)) + 8
            data[at] ^= 1
            return data

        _, resumed = self._damaged_resume(tmp_path / "sweep.ckpt", task_bag,
                                          flip)
        assert resumed.executed_tasks >= 1
        assert _metrics(resumed.ordered_results(task_bag)) == baseline

    @pytest.mark.parametrize("frame", [
        ({"sweep": 0}, 0, b""),          # a key that is not a string
        ({"sweep": 0}, "result"),        # the version-2 shape, mangled
        ("sweep:0", 0, b"\x80\x05N."),  # a CRC that does not match
        "sweep:0",                       # not a frame at all
    ])
    def test_mangled_frame_reruns_the_rest(self, tmp_path, task_bag,
                                           baseline, frame):
        def splice(data, clean):
            at = data.index(b"sweep:") - 12  # the first record frame's head
            return data[:at] + pickle.dumps(frame) + data[at:]

        _, resumed = self._damaged_resume(tmp_path / "sweep.ckpt", task_bag,
                                          splice)
        assert resumed.resumed_tasks == 0
        assert _metrics(resumed.ordered_results(task_bag)) == baseline
        # The re-run frames follow the last good one, so they load again.
        again = SweepCheckpoint(str(tmp_path / "sweep.ckpt"), "k", resume=True)
        assert again.loaded_records == len(task_bag)

    def test_flipped_key_bit_never_loads_another_task(self, tmp_path,
                                                      task_bag, baseline):
        def flip(data, clean):
            # "sweep:1" -> "sweep:0": task 1's result under task 0's key.
            data[data.index(b"sweep:1") + 6] ^= 1
            return data

        _, resumed = self._damaged_resume(tmp_path / "sweep.ckpt", task_bag,
                                          flip)
        assert _metrics(resumed.ordered_results(task_bag)) == baseline

    def test_flush_leaves_no_temp_files(self, tmp_path, task_bag):
        path = str(tmp_path / "sweep.ckpt")
        checkpoint = SweepCheckpoint(path, "k", flush_every=1)
        SerialBackend(cost_model=_COST_MODEL).run_resilient(
            task_bag[:3], checkpoint=checkpoint)
        assert checkpoint.flush_count >= 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.ckpt"]


# ---------------------------------------------------------------------------
# Genuinely failing workloads (the scheduler, or the process, rejects them)
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
    backend's prewarm meets before the task's own run does."""

    def to_workload_spec(self):
        raise WorkloadError("unexpandable workload")

    unique_shape_layers = to_workload_spec


class _WorkerKillingWorkload(_UnknownReleaseWorkload):
    """A workload whose expansion kills any process but the one that built
    it: a pool worker running its task dies, breaking the pool."""

    def __init__(self, spec):
        super().__init__(spec)
        self.parent_pid = os.getpid()

    def to_workload_spec(self):
        if os.getpid() != self.parent_pid:
            os._exit(3)
        return self.spec


def _rejected(task, workload_cls=_UnknownReleaseWorkload):
    """``task`` on a copy of its workload that ``workload_cls`` spoils."""
    spec = getattr(task.workload, "to_workload_spec", lambda: task.workload)()
    return task._replace(workload=workload_cls(spec))


def _with_rejected_task(task_bag, workload_cls=_UnknownReleaseWorkload):
    """The bag with a failing task inserted at index 2 (id ``len(bag)``).

    Six tasks on two jobs are cut into chunks of two, so the failing task
    shares its chunk with ``task_bag[2]``.
    """
    rejected = _rejected(task_bag[2], workload_cls)._replace(
        task_id=len(task_bag))
    return list(task_bag[:2]) + [rejected] + list(task_bag[2:])


def _with_failing(task_bag, failing):
    """The bag with the tasks whose ids are in ``failing`` rejected."""
    return [_rejected(task) if task.task_id in failing else task
            for task in task_bag]


def _backend(name):
    if name == "serial":
        return SerialBackend(cost_model=CostModel())
    return ProcessPoolBackend(jobs=2, cost_model=CostModel())


class _RejectingBackend(SerialBackend):
    """A serial backend that runs the tasks whose ids are in ``failing`` on
    a workload the scheduler rejects, wherever the tasks come from."""

    def __init__(self, failing, **kwargs):
        super().__init__(**kwargs)
        self.failing = frozenset(failing)

    def run_resilient(self, tasks, *args, **kwargs):
        return super().run_resilient(_with_failing(tasks, self.failing),
                                     *args, **kwargs)


# ---------------------------------------------------------------------------
# Property: partial_ok ranks exactly the surviving subset
# ---------------------------------------------------------------------------
class TestPartialRankings:
    @settings(max_examples=20, deadline=None)
    @given(doomed=st.sets(st.integers(0, 5), max_size=4))
    def test_survivors_are_a_rank_consistent_subset(self, task_bag, baseline,
                                                    doomed):
        doomed = {i for i in doomed if i < len(task_bag)}
        backend = SerialBackend(cost_model=_COST_MODEL)
        outcome = backend.run_resilient(_with_failing(task_bag, doomed),
                                        partial_ok=True)

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
        tasks = _with_failing(task_bag, {task.task_id for task in task_bag})
        backend = SerialBackend(cost_model=_COST_MODEL)
        outcome = backend.run_resilient(tasks, partial_ok=True)
        assert outcome.results == {}
        assert len(outcome.failures) == len(task_bag)


# ---------------------------------------------------------------------------
# Exact units: a failed task's record
# ---------------------------------------------------------------------------
class TestRetryExhaustion:
    """A failing task exhausts its one run: nothing is retried."""

    def test_partial_ok_returns_instead_of_raising(self, task_bag):
        backend = SerialBackend(cost_model=_COST_MODEL)
        outcome = backend.run_resilient(_with_failing(task_bag, {1}),
                                        partial_ok=True)
        assert outcome.failed_task_ids == (1,)
        assert outcome.failures[0].category == task_bag[1].category

    def test_failure_summary_is_json_serializable(self, task_bag):
        backend = SerialBackend(cost_model=_COST_MODEL)
        outcome = backend.run_resilient(_with_failing(task_bag[:1], {0}),
                                        partial_ok=True)
        row = outcome.failures[0].summary()
        assert json.loads(json.dumps(row)) == row
        assert sorted(row) == ["category", "kind", "message", "task_id"]


class TestFailureClassification:
    def test_programming_errors_are_not_retried(self, small_workload):
        # A TypeError from a broken design must surface as a traceback, not
        # as a failure record.
        backend = SerialBackend(cost_model=_COST_MODEL)
        bad = EvaluationTask(0, object(), small_workload)  # type: ignore[arg-type]
        with pytest.raises(Exception) as excinfo:
            backend.run([bad])
        assert not isinstance(excinfo.value, TaskExecutionError)


# ---------------------------------------------------------------------------
# Exact units: genuine library errors inside pool chunks
# ---------------------------------------------------------------------------
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
        assert "no-such-instance#0" in failure.message

    @pytest.mark.parametrize("name", ["serial", "pool"])
    def test_library_error_without_policy_raises_task_execution_error(
            self, task_bag, name):
        with pytest.raises(TaskExecutionError) as excinfo:
            _backend(name).run(_with_rejected_task(task_bag))
        assert [f.task_id for f in excinfo.value.failures] == [len(task_bag)]
        assert "after retries" not in str(excinfo.value)

    @pytest.mark.parametrize("name", ["serial", "pool"])
    def test_prewarm_library_error_costs_only_its_own_task(
            self, task_bag, baseline, name):
        tasks = _with_rejected_task(task_bag, _UnexpandableWorkload)
        outcome = _backend(name).run_resilient(tasks, partial_ok=True)
        assert _metrics(outcome.ordered_results(task_bag)) == baseline
        assert [(f.task_id, f.kind) for f in outcome.failures] \
            == [(len(task_bag), "error")]
        assert "unexpandable workload" in outcome.failures[0].message

    @pytest.mark.parametrize("name", ["serial", "pool"])
    def test_failing_task_runs_once_and_leaves_one_error(
            self, task_bag, name, monkeypatch):
        import repro.exec.backends as backends

        runs = []

        def counting(task, cost_model, scheduler):
            runs.append(task.task_id)
            return run_evaluation_task(task, cost_model, scheduler)

        # Counted in this process; pool workers count in their own copies.
        monkeypatch.setattr(backends, "run_evaluation_task", counting)
        tasks = _with_rejected_task(task_bag)
        outcome = _backend(name).run_resilient(tasks, partial_ok=True)
        if name == "serial":
            assert runs == [task.task_id for task in tasks]
        (failure,) = outcome.failures
        assert (failure.task_id, failure.kind) == (len(task_bag), "error")
        serial = _backend("serial").run_resilient(tasks, partial_ok=True)
        assert failure.summary() == serial.failures[0].summary()

    @pytest.mark.parametrize("name", ["serial", "pool"])
    def test_programming_error_in_a_task_propagates_raw(self, task_bag, name):
        with pytest.raises(TypeError, match="broken workload"):
            _backend(name).run(_with_rejected_task(task_bag, _BrokenWorkload))


# ---------------------------------------------------------------------------
# Real process-pool failures (a worker that dies for real)
# ---------------------------------------------------------------------------
class TestRealPoolRecovery:
    def test_worker_death_without_partial_ok_raises(self, task_bag):
        tasks = _with_rejected_task(task_bag, _WorkerKillingWorkload)
        with pytest.raises(TaskExecutionError) as excinfo:
            _backend("pool").run(tasks)
        failures = excinfo.value.failures
        assert len(task_bag) in {failure.task_id for failure in failures}
        assert {failure.kind for failure in failures} == {"crash"}

    def test_real_crashes_are_survived_bit_identically(self, task_bag,
                                                       baseline, tmp_path):
        # A dead worker costs the unfinished tasks "crash" rows; what
        # completed is in the checkpoint, and resuming re-runs only the rest.
        tasks = _with_rejected_task(task_bag, _WorkerKillingWorkload)
        path, key = str(tmp_path / "sweep.ckpt"), sweep_key_from("bag")
        crashed = _backend("pool").run_resilient(
            tasks, partial_ok=True, checkpoint=SweepCheckpoint(path, key))
        assert {failure.kind for failure in crashed.failures} == {"crash"}
        assert len(task_bag) in crashed.failed_task_ids
        assert not set(crashed.results) & set(crashed.failed_task_ids)
        assert set(crashed.results) | set(crashed.failed_task_ids) == \
            {task.task_id for task in tasks}
        resumed = _backend("serial").run_resilient(
            task_bag, checkpoint=SweepCheckpoint(path, key, resume=True))
        assert resumed.resumed_tasks == len(crashed.results)
        assert _metrics(resumed.ordered_results(task_bag)) == baseline

    def test_pool_failure_records_match_serial_records(self, task_bag):
        # Failures must be identical no matter which backend lost the task
        # (same kind, same message).
        tasks = _with_failing(task_bag, {0, 3})
        serial_out = _backend("serial").run_resilient(tasks, partial_ok=True)
        pool_out = _backend("pool").run_resilient(tasks, partial_ok=True)
        def rows(outcome):
            return sorted((f.summary() for f in outcome.failures),
                          key=lambda row: row["task_id"])

        assert rows(pool_out) == rows(serial_out)
        assert [row["task_id"] for row in rows(pool_out)] == [0, 3]


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
        backend = _RejectingBackend({0}, cost_model=CostModel())
        space = self._dse(backend).explore(small_workload, tiny_chip,
                                           include_three_way=False,
                                           partial_ok=True)
        assert len(space.failures) == 1
        assert space.failure_rows()[0]["task_id"] == 0
        assert space.failure_rows()[0]["kind"] == "error"
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
        backend = _RejectingBackend({1}, cost_model=CostModel())
        simulator = FleetSimulator(backend=backend)
        result = simulator.simulate(streaming, fleet, partial_ok=True)
        assert len(result.report.failed_chips) == 1
        assert not result.report.meets_sla
        assert "failed_chips" in result.report.summary()
        assert "WARNING" in result.report.describe()


# ---------------------------------------------------------------------------
# CLI: checkpoint/resume end to end; the retired retry flags are refused
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

    def test_retired_exec_knobs_are_unknown_keys(self, tmp_path, capsys):
        from repro.cli import main
        from repro.experiment.spec import experiment_from_spec

        assert experiment_from_spec(
            {"kind": "dse",
             "exec": {"partial_ok": True}}).exec_settings.partial_ok
        for flag in ("--max-retries", "--task-timeout"):
            with pytest.raises(SystemExit) as excinfo:
                main(["dse", flag, "1"])
            assert excinfo.value.code == 2
        capsys.readouterr()
        spec = tmp_path / "dse.yaml"
        for knob in ("max_retries", "task_timeout_s"):
            spec.write_text(f"kind: dse\nexec:\n  {knob}: 1\n")
            assert main(["run", str(spec)]) == 2
            assert capsys.readouterr().err.splitlines() == [
                f"error: exec.{knob}: unknown key (allowed: ['jobs', "
                f"'partial_ok'])"]

    def test_dse_checkpoint_resume_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.experiment.report import compare_reports, load_report

        ckpt = str(tmp_path / "dse.ckpt")
        argv = ["dse", "--workload", "arvr-a", "--chip", "edge",
                "--pe-steps", "4", "--bw-steps", "2", "--checkpoint", ckpt]
        assert main(argv + ["--report", str(tmp_path / "a.json")]) == 0
        assert main(argv + ["--resume",
                            "--report", str(tmp_path / "b.json")]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        comparison = compare_reports(load_report(str(tmp_path / "b.json")),
                                     load_report(str(tmp_path / "a.json")))
        assert comparison.ok
        assert all(delta.delta == 0.0 for delta in comparison.deltas)
        assert not comparison.missing and not comparison.added
