"""Tests for the execution engine: tasks and backends."""

from __future__ import annotations

import pickle

import pytest

from repro.accel.builders import enumerate_fdas, make_fda, make_rda
from repro.core.dse import HeraldDSE
from repro.core.evaluator import evaluate_design
from repro.core.partitioner import PartitionSearch
from repro.core.scheduler import HeraldScheduler
from repro.dataflow.styles import NVDLA, SHIDIANNAO
from repro.exceptions import SearchError
from repro.exec import (
    EvaluationTask,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.maestro.cost import CostModel
from repro.serve.fleet import Fleet, FleetSimulator
from repro.serve.workload import StreamingWorkload, StreamSpec


def _make_dse(backend=None):
    return HeraldDSE(backend=backend,
                     partition_search=PartitionSearch(pe_steps=2, bw_steps=1))


def _dse_bag_schedules(backend, workload, chip):
    tasks = list(_make_dse().enumerate_tasks(workload, chip,
                                             include_three_way=False))
    return [result.schedule for result in backend.run(tasks)]


def _fleet_schedules(backend, workload, chip):
    result = FleetSimulator(backend=backend).simulate(
        _streaming(workload), Fleet.homogeneous(make_fda(chip, NVDLA), 3),
        policy="least-outstanding")
    return [chip_result.schedule for chip_result in result.chip_results]


def _online_fleet_report(backend, workload, chip):
    result = FleetSimulator(backend=backend).simulate_online(
        _streaming(workload), Fleet.homogeneous(make_fda(chip, NVDLA), 3),
        policy="least-outstanding")
    return result.report.summary()


def _streaming(workload):
    return StreamingWorkload("mix", streams=[
        StreamSpec(name, fps=200.0, frames=2) for name, _ in workload.entries
    ], models={name: workload.model_graph(name)
               for name, _ in workload.entries})


#: Task bags a pool must run without computing a cost in its workers.
_POOL_SCENARIOS = {"dse": _dse_bag_schedules, "fleet": _fleet_schedules,
                   "online-fleet": _online_fleet_report}


class TestEvaluationTask:
    def test_tasks_are_picklable(self, tiny_chip, small_workload):
        task = EvaluationTask(0, make_fda(tiny_chip, NVDLA), small_workload,
                              category="fda")
        clone = pickle.loads(pickle.dumps(task))
        assert clone.design.name == task.design.name
        assert clone.workload.name == task.workload.name
        assert clone.category == "fda"

    def test_task_run_matches_direct_evaluation(self, tiny_chip,
                                                small_workload):
        model = CostModel()
        scheduler = HeraldScheduler(model)
        design = make_fda(tiny_chip, SHIDIANNAO)
        task = EvaluationTask(7, design, small_workload)
        (via_task,) = SerialBackend(cost_model=model,
                                    scheduler=scheduler).run([task])
        direct = evaluate_design(design, small_workload, cost_model=model,
                                 scheduler=scheduler)
        assert via_task.latency_s == direct.latency_s
        assert via_task.energy_mj == direct.energy_mj

    def test_rda_task_round_trips_through_pickle(self, tiny_chip, small_workload):
        # RDA designs embed a ``dataflow=None`` sub-accelerator and the styles
        # live in the cost model, so this exercises the style pickle path too.
        task = EvaluationTask(1, make_rda(tiny_chip), small_workload, category="rda")
        clone = pickle.loads(pickle.dumps(task))
        assert clone.design.sub_accelerators[0].is_reconfigurable


class TestSerialBackend:
    def test_preserves_task_order(self, tiny_chip, small_workload):
        backend = SerialBackend()
        tasks = [EvaluationTask(i, design, small_workload, category="fda")
                 for i, design in enumerate(enumerate_fdas(tiny_chip))]
        results = backend.run(tasks)
        assert [r.design.name for r in results] == [t.design.name for t in tasks]
        assert backend.last_cold_evaluations > 0

    def test_second_run_is_fully_cached(self, tiny_chip, small_workload):
        backend = SerialBackend()
        tasks = [EvaluationTask(0, make_fda(tiny_chip, NVDLA), small_workload)]
        first = backend.run(tasks)[0]
        entries_after_first = backend.cost_model.cache_stats()["entries"]
        second = backend.run(tasks)[0]
        # Shape dedupe queries each (shape, hardware) pair exactly once and
        # the scheduler's per-design ranking memo can satisfy the whole second
        # run without touching the cost model, so the warm proof is: zero cold
        # evaluations, no new memo entries, identical metrics.
        assert backend.last_cold_evaluations == 0
        assert backend.cost_model.cache_stats()["entries"] == entries_after_first
        assert (second.latency_s, second.energy_mj, second.edp) == \
            (first.latency_s, first.energy_mj, first.edp)

    def test_duplicate_task_ids_rejected_like_pool_backend(self, tiny_chip,
                                                           small_workload):
        # Both backends must stay interchangeable on the same input.
        tasks = [EvaluationTask(3, make_fda(tiny_chip, NVDLA), small_workload),
                 EvaluationTask(3, make_fda(tiny_chip, SHIDIANNAO), small_workload)]
        with pytest.raises(SearchError, match="duplicate task_id"):
            SerialBackend().run(tasks)


class TestProcessPoolBackend:
    def test_rejects_bad_parameters(self):
        with pytest.raises(SearchError):
            ProcessPoolBackend(jobs=0)

    @pytest.mark.parametrize("knob", ["chunk_size", "start_method",
                                      "shared_table", "cache",
                                      "retry_policy", "chaos"])
    def test_removed_knobs_are_unknown_arguments(self, knob):
        with pytest.raises(TypeError, match=knob):
            ProcessPoolBackend(jobs=2, **{knob: None})

    def test_matches_serial_backend_on_small_dse(self, small_workload, tiny_chip):
        serial_space = _make_dse(SerialBackend()).explore(
            small_workload, tiny_chip, include_three_way=False)
        pool_backend = ProcessPoolBackend(jobs=2)
        pool_space = _make_dse(pool_backend).explore(
            small_workload, tiny_chip, include_three_way=False)

        assert len(pool_space.points) == len(serial_space.points)
        for ours, theirs in zip(pool_space.points, serial_space.points):
            assert ours.design.name == theirs.design.name
            assert ours.category == theirs.category
            assert ours.latency_s == pytest.approx(theirs.latency_s, rel=1e-12)
            assert ours.energy_mj == pytest.approx(theirs.energy_mj, rel=1e-12)
        for category in serial_space.categories():
            assert (pool_space.best(category).design.name
                    == serial_space.best(category).design.name)

    @pytest.mark.parametrize("scenario", ["dse", "fleet", "online-fleet"])
    def test_pool_run_keeps_every_computed_entry_in_the_parent(
            self, scenario, small_workload, tiny_chip):
        """The backend prewarms what it runs, so a pool run from an empty
        cost model computes nothing in its workers: its cold count and memo
        equal the serial run's, as do its results."""
        runs = {}
        for cls, kwargs in ((SerialBackend, {}),
                            (ProcessPoolBackend, {"jobs": 2})):
            model = CostModel()
            backend = cls(cost_model=model, **kwargs)
            outputs = _POOL_SCENARIOS[scenario](backend, small_workload,
                                                tiny_chip)
            runs[cls] = (outputs, backend, model)
        serial_outputs, serial, serial_model = runs[SerialBackend]
        pool_outputs, pool, model = runs[ProcessPoolBackend]
        assert pool_outputs == serial_outputs
        assert pool.total_cold_evaluations == serial.total_cold_evaluations
        assert model.cache_stats()["entries"] == serial_model.cache_stats()["entries"] > 0
        if scenario == "fleet":
            # The a-priori router estimates every chip on the shared model
            # before dispatch, which leaves the backend nothing to compute.
            assert pool.last_cold_evaluations == 0
        else:
            assert pool.last_cold_evaluations == model.cache_stats()["entries"]

    def test_empty_task_list(self):
        assert ProcessPoolBackend(jobs=2).run([]) == []

    def test_pool_gets_at_most_one_worker_per_chunk(
            self, monkeypatch, tiny_chip, small_workload):
        """``herald fleet --jobs N`` has no break-even cap, and under fork
        a pool starts all its workers at once: a huge ``jobs`` once asked
        for that many.  The label names the workers, not the ``jobs`` asked
        for.  The executor is patched, so no process starts."""
        import concurrent.futures

        class Recorded(Exception):
            pass

        def record(max_workers, **_):
            raise Recorded(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record)
        tasks = [EvaluationTask(index, make_fda(tiny_chip, style),
                                small_workload)
                 for index, style in enumerate((NVDLA, SHIDIANNAO))]
        for jobs, workers in ((100_000, 2), (2, 2), (1, 1)):
            backend = ProcessPoolBackend(jobs=jobs)
            with pytest.raises(Recorded) as excinfo:
                backend.run(tasks)
            assert excinfo.value.args == (workers,)
            assert backend.describe() == f"process pool ({workers} jobs)"

    def test_duplicate_task_ids_rejected_before_dispatch(self, tiny_chip,
                                                         small_workload):
        # Results are restored through a task_id -> result map, so duplicate
        # ids would silently drop a result; they must fail fast instead.
        tasks = [EvaluationTask(0, make_fda(tiny_chip, NVDLA), small_workload),
                 EvaluationTask(0, make_fda(tiny_chip, SHIDIANNAO), small_workload)]
        backend = ProcessPoolBackend(jobs=2)
        with pytest.raises(SearchError, match="duplicate task_id"):
            backend.run(tasks)


class TestDSETaskEnumeration:
    def test_enumeration_covers_all_categories(self, small_workload, tiny_chip):
        dse = _make_dse()
        tasks = list(dse.enumerate_tasks(small_workload, tiny_chip,
                                         include_three_way=False))
        categories = {task.category for task in tasks}
        assert categories == {"fda", "sm-fda", "rda", "hda"}
        assert [task.task_id for task in tasks] == list(range(len(tasks)))

    def test_hda_tasks_carry_partitions_and_groups(self, small_workload, tiny_chip):
        dse = _make_dse()
        hda_tasks = [task
                     for task in dse.enumerate_tasks(small_workload, tiny_chip,
                                                     include_three_way=False)
                     if task.category == "hda"]
        assert hda_tasks
        for task in hda_tasks:
            assert task.group.startswith("hda:")
            assert sum(task.pe_partition) == tiny_chip.num_pes

    def test_binary_strategy_adds_refinement_round(self, small_workload, tiny_chip):
        backend = SerialBackend()
        coarse = PartitionSearch(pe_steps=4, bw_steps=1)
        binary = PartitionSearch(pe_steps=4, bw_steps=1, strategy="binary")
        combo = [(NVDLA, SHIDIANNAO)]
        space_coarse = HeraldDSE(backend=backend,
                                 partition_search=coarse).explore(
            small_workload, tiny_chip, hda_combinations=combo)
        space_binary = HeraldDSE(backend=backend,
                                 partition_search=binary).explore(
            small_workload, tiny_chip, hda_combinations=combo)
        assert len(space_binary.by_category("hda")) > len(space_coarse.by_category("hda"))
        assert space_binary.best("hda").edp <= space_coarse.best("hda").edp
