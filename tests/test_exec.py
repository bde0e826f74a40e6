"""Tests for the execution engine: tasks, backends, and the persistent cache."""

from __future__ import annotations

import json
import pickle

import pytest

import repro.core.evaluator
from repro.accel.builders import enumerate_fdas, make_fda, make_rda
from repro.core.dse import HeraldDSE
from repro.core.evaluator import evaluate_design, evaluate_designs
from repro.core.partitioner import PartitionSearch
from repro.core.scheduler import HeraldScheduler
from repro.dataflow.styles import EYERISS, NVDLA, SHIDIANNAO
from repro.exceptions import SearchError
from repro.exec import (
    EvaluationTask,
    PersistentCostCache,
    ProcessPoolBackend,
    SerialBackend,
    run_evaluation_task,
)
from repro.maestro.cost import CostModel


def _make_dse(backend=None, cost_model=None):
    model = cost_model or CostModel()
    scheduler = HeraldScheduler(model)
    search = PartitionSearch(cost_model=model, scheduler=scheduler,
                             pe_steps=2, bw_steps=1)
    return HeraldDSE(cost_model=model, scheduler=scheduler,
                     partition_search=search, backend=backend)


class TestEvaluationTask:
    def test_tasks_are_picklable(self, tiny_chip, small_workload):
        task = EvaluationTask(0, make_fda(tiny_chip, NVDLA), small_workload,
                              category="fda")
        clone = pickle.loads(pickle.dumps(task))
        assert clone.design.name == task.design.name
        assert clone.workload.name == task.workload.name
        assert clone.category == "fda"

    def test_run_evaluation_task_matches_direct_evaluation(self, tiny_chip,
                                                           small_workload):
        model = CostModel()
        scheduler = HeraldScheduler(model)
        design = make_fda(tiny_chip, SHIDIANNAO)
        task = EvaluationTask(7, design, small_workload)
        via_task = run_evaluation_task(task, model, scheduler)
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
        entries_after_first = backend.cost_model.cache_size()
        second = backend.run(tasks)[0]
        # Shape dedupe queries each (shape, hardware) pair exactly once and
        # the scheduler's per-design ranking memo can satisfy the whole second
        # run without touching the cost model, so the warm proof is: zero cold
        # evaluations, no new memo entries, identical metrics.
        assert backend.last_cold_evaluations == 0
        assert backend.cost_model.cache_size() == entries_after_first
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
                                      "shared_table"])
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

    def test_worker_cache_entries_flow_back_to_parent(self, small_workload,
                                                      tiny_chip):
        model = CostModel()
        backend = ProcessPoolBackend(jobs=2, cost_model=model)
        tasks = [EvaluationTask(i, design, small_workload)
                 for i, design in enumerate(enumerate_fdas(tiny_chip))]
        assert model.cache_size() == 0
        results = backend.run(tasks)
        assert model.cache_size() > 0
        assert backend.last_new_cache_entries == model.cache_size()
        assert ([result.schedule for result in results]
                == [result.schedule for result in SerialBackend().run(tasks)])

    def test_empty_task_list(self):
        assert ProcessPoolBackend(jobs=2).run([]) == []

    def test_duplicate_task_ids_rejected_before_dispatch(self, tiny_chip,
                                                         small_workload):
        # Results are restored through a task_id -> result map, so duplicate
        # ids would silently drop a result; they must fail fast instead.
        tasks = [EvaluationTask(0, make_fda(tiny_chip, NVDLA), small_workload),
                 EvaluationTask(0, make_fda(tiny_chip, SHIDIANNAO), small_workload)]
        backend = ProcessPoolBackend(jobs=2)
        with pytest.raises(SearchError, match="duplicate task_id"):
            backend.run(tasks)


class TestPersistentCostCache:
    def test_cold_write_then_warm_read_identical_costs(self, tmp_path, tiny_chip,
                                                       small_workload):
        path = str(tmp_path / "cache.json")
        design = make_fda(tiny_chip, EYERISS)

        cold_model = CostModel()
        cold = evaluate_design(design, small_workload, cost_model=cold_model,
                               scheduler=HeraldScheduler(cold_model))
        cache = PersistentCostCache(path)
        assert cache.capture(cold_model) == cold_model.cache_size()
        cache.save()

        warm_model = CostModel()
        reloaded = PersistentCostCache(path)
        assert len(reloaded) == cold_model.cache_size()
        reloaded.warm(warm_model)
        warm = evaluate_design(design, small_workload, cost_model=warm_model,
                               scheduler=HeraldScheduler(warm_model))
        assert warm_model.misses == 0, "warm run must perform zero cold evaluations"
        assert warm.latency_s == cold.latency_s
        assert warm.energy_mj == cold.energy_mj
        for ours, theirs in zip(warm.schedule.entries, cold.schedule.entries):
            assert ours.cost == theirs.cost

    def test_missing_file_is_empty(self, tmp_path):
        cache = PersistentCostCache(str(tmp_path / "does-not-exist.json"))
        assert len(cache) == 0
        assert not cache.corrupted

    def test_corrupted_file_falls_back_to_cold_start(self, tmp_path, tiny_chip,
                                                     small_workload):
        path = tmp_path / "cache.json"
        path.write_text("{this is not json")
        cache = PersistentCostCache(str(path))
        assert cache.corrupted
        assert len(cache) == 0
        # The corrupted cache must not break an exploration, and saving
        # afterwards repairs the file.
        backend = SerialBackend(cache=cache)
        backend.run([EvaluationTask(0, make_fda(tiny_chip, NVDLA), small_workload)])
        assert len(cache) > 0
        from repro.exec.cache import CACHE_FORMAT_VERSION
        assert json.loads(path.read_text())["version"] == CACHE_FORMAT_VERSION

    def test_unwritable_cache_path_does_not_lose_results(self, tiny_chip,
                                                         small_workload):
        backend = SerialBackend(
            cache=PersistentCostCache("/proc/does-not-exist/cache.json"))
        results = backend.run(
            [EvaluationTask(0, make_fda(tiny_chip, NVDLA), small_workload)])
        assert len(results) == 1
        assert isinstance(backend.cache_save_error, OSError)

    def test_wrong_version_is_treated_as_corrupted(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 999, "entries": []}))
        cache = PersistentCostCache(str(path))
        assert cache.corrupted

    def test_semantically_invalid_entry_is_treated_as_corrupted(
            self, tmp_path, tiny_chip, small_workload):
        # Valid JSON whose layer violates Layer.__post_init__ (k=0) must
        # degrade to a cold start, not crash the exploration.
        path = str(tmp_path / "cache.json")
        backend = SerialBackend(cache=PersistentCostCache(path))
        backend.run([EvaluationTask(0, make_fda(tiny_chip, NVDLA), small_workload)])
        payload = json.loads(open(path).read())
        payload["entries"][0]["cost"]["layer"]["k"] = 0
        with open(path, "w") as handle:
            json.dump(payload, handle)
        cache = PersistentCostCache(path)
        assert cache.corrupted
        assert len(cache) == 0

    def test_different_cost_model_config_is_not_served_stale(
            self, tmp_path, tiny_chip, small_workload):
        from dataclasses import replace
        from repro.maestro.energy import DEFAULT_ENERGY_TABLE

        path = str(tmp_path / "cache.json")
        first = SerialBackend(cache=PersistentCostCache(path))
        first.run([EvaluationTask(0, make_fda(tiny_chip, NVDLA), small_workload)])

        other_model = CostModel(
            energy_table=replace(DEFAULT_ENERGY_TABLE, mac=123.0))
        cache = PersistentCostCache(path)
        assert cache.warm(other_model) == 0, \
            "entries from a differently-configured model must not be installed"
        assert other_model.cache_size() == 0

        same_model = CostModel()
        assert PersistentCostCache(path).warm(same_model) > 0

    def test_warm_run_does_not_rewrite_the_cache_file(self, tmp_path, tiny_chip,
                                                      small_workload):
        import os
        path = str(tmp_path / "cache.json")
        tasks = [EvaluationTask(0, make_fda(tiny_chip, NVDLA), small_workload)]
        SerialBackend(cache=PersistentCostCache(path)).run(tasks)
        mtime = os.stat(path).st_mtime_ns
        SerialBackend(cache=PersistentCostCache(path)).run(tasks)
        assert os.stat(path).st_mtime_ns == mtime

    def test_backend_round_trip_via_cache_file(self, tmp_path, tiny_chip,
                                               small_workload):
        path = str(tmp_path / "cache.json")
        tasks = [EvaluationTask(i, design, small_workload)
                 for i, design in enumerate(enumerate_fdas(tiny_chip))]

        first = SerialBackend(cache=PersistentCostCache(path))
        first.run(tasks)
        assert first.last_cold_evaluations > 0

        second = SerialBackend(cache=PersistentCostCache(path))
        second.run(tasks)
        assert second.last_cold_evaluations == 0


class TestEvaluateDesignsSchedulerReuse:
    def test_builds_exactly_one_scheduler_when_none_supplied(
            self, tiny_chip, small_workload, monkeypatch):
        created = []

        class CountingScheduler(HeraldScheduler):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(repro.core.evaluator, "HeraldScheduler", CountingScheduler)
        designs = enumerate_fdas(tiny_chip)
        results = evaluate_designs(designs, small_workload)
        assert len(results) == len(designs)
        assert len(created) == 1, "evaluate_designs must reuse one scheduler"

    def test_routes_through_backend_when_given(self, tiny_chip, small_workload):
        backend = SerialBackend()
        designs = enumerate_fdas(tiny_chip)
        via_backend = evaluate_designs(designs, small_workload, backend=backend)
        direct = evaluate_designs(designs, small_workload)
        assert set(via_backend) == set(direct)
        for name in direct:
            assert via_backend[name].latency_s == direct[name].latency_s

    def test_rejects_cost_model_alongside_backend(self, tiny_chip, small_workload):
        with pytest.raises(ValueError):
            evaluate_designs(enumerate_fdas(tiny_chip), small_workload,
                             cost_model=CostModel(), backend=SerialBackend())


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
        model = CostModel()
        scheduler = HeraldScheduler(model)
        coarse = PartitionSearch(cost_model=model, scheduler=scheduler,
                                 pe_steps=4, bw_steps=1)
        binary = PartitionSearch(cost_model=model, scheduler=scheduler,
                                 pe_steps=4, bw_steps=1, strategy="binary")
        combo = [(NVDLA, SHIDIANNAO)]
        space_coarse = HeraldDSE(cost_model=model, scheduler=scheduler,
                                 partition_search=coarse).explore(
            small_workload, tiny_chip, hda_combinations=combo)
        space_binary = HeraldDSE(cost_model=model, scheduler=scheduler,
                                 partition_search=binary).explore(
            small_workload, tiny_chip, hda_combinations=combo)
        assert len(space_binary.by_category("hda")) > len(space_coarse.by_category("hda"))
        assert space_binary.best("hda").edp <= space_coarse.best("hda").edp
