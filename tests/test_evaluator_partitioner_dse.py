"""Tests for design evaluation, partition search, and the Herald DSE driver."""

import pytest

from repro.accel.builders import make_fda, make_hda, make_rda, make_smfda
from repro.accel.classes import accelerator_class
from repro.analysis.sweeps import pe_partition_sweep
from repro.core.dse import HeraldDSE
from repro.core.evaluator import evaluate_design
from repro.core.partitioner import (
    STRATEGIES,
    PartitionSearch,
    compositions,
    search_from_spec,
)
from repro.core.schedule import Schedule
from repro.core.scheduler import GreedyScheduler, HeraldScheduler
from repro.dataflow.styles import EYERISS, NVDLA, SHIDIANNAO
from repro.exceptions import SchedulingError, SearchError, TaskExecutionError
from repro.exec import backends
from repro.exec.backends import SerialBackend
from repro.maestro.cost import CostModel
from repro.serve.fleet import FleetSimulator
from repro.serve.workload import streaming_suite
from repro.workloads.suites import workload_by_name
from support import inline_partition_search, partition_driver


@pytest.fixture(scope="module")
def dse(cost_model):
    scheduler = HeraldScheduler(cost_model)
    search = PartitionSearch(pe_steps=4, bw_steps=2)
    return HeraldDSE(backend=SerialBackend(cost_model=cost_model,
                                           scheduler=scheduler),
                     partition_search=search)


class TestEvaluator:
    def test_result_metrics_positive(self, cost_model, small_workload, tiny_chip):
        result = evaluate_design(make_fda(tiny_chip, NVDLA), small_workload,
                                 cost_model=cost_model)
        assert result.latency_s > 0
        assert result.energy_mj > 0
        assert result.edp == pytest.approx(result.schedule.edp)

    def test_summary_and_describe(self, cost_model, small_workload, tiny_chip):
        result = evaluate_design(make_fda(tiny_chip, NVDLA), small_workload,
                                 cost_model=cost_model)
        assert set(result.summary()) == {"latency_s", "energy_mj", "edp_js",
                                         "scheduling_time_s", "load_imbalance"}
        assert "fda-nvdla" in result.describe()

    def test_custom_scheduler_is_used(self, cost_model, small_workload, tiny_chip):
        design = make_hda(tiny_chip, [NVDLA, SHIDIANNAO])
        greedy = evaluate_design(design, small_workload, cost_model=cost_model,
                                 scheduler=GreedyScheduler(cost_model))
        herald = evaluate_design(design, small_workload, cost_model=cost_model)
        assert herald.edp <= greedy.edp * 1.05

    def test_scheduling_time_recorded(self, cost_model, small_workload, tiny_chip):
        result = evaluate_design(make_fda(tiny_chip, NVDLA), small_workload,
                                 cost_model=cost_model)
        assert result.scheduling_time_s >= 0.0


class TestCompositions:
    def test_two_way_compositions(self):
        assert compositions(8, 2, 2) == [(2, 6), (4, 4), (6, 2)]

    def test_three_way_compositions_sum(self):
        for parts in compositions(16, 3, 4):
            assert sum(parts) == 16
            assert all(p > 0 for p in parts)

    def test_invalid_step_rejected(self):
        with pytest.raises(SearchError):
            compositions(10, 2, 3)

    def test_too_many_parts_rejected(self):
        with pytest.raises(SearchError):
            compositions(4, 5, 1)

    def test_search_keeps_raising_search_error_on_uneven_pe_steps(self):
        # Spec validation turns this into a SpecError; library callers of
        # the partition search still get the typed SearchError.
        search = PartitionSearch(pe_steps=3)
        with pytest.raises(SearchError, match="multiple of step 341"):
            search.candidate_partitions(accelerator_class("edge"), 2)


class TestPartitionSearch:
    def test_invalid_strategy_rejected(self, cost_model):
        with pytest.raises(SearchError):
            PartitionSearch(strategy="genetic")

    def test_requires_two_styles(self, cost_model, small_workload, tiny_chip):
        search = PartitionSearch(pe_steps=4, bw_steps=2)
        with pytest.raises(SearchError):
            partition_driver(search, cost_model).search_partitions(
                small_workload, tiny_chip, [NVDLA])

    def test_exhaustive_point_count(self, cost_model, small_workload, tiny_chip):
        search = PartitionSearch(pe_steps=4, bw_steps=2)
        points = partition_driver(search, cost_model).search_partitions(
            small_workload, tiny_chip, [NVDLA, SHIDIANNAO])
        # 3 PE splits x 1 bandwidth split (bw_steps=2 -> one interior split).
        assert len(points) == 3

    def test_partitions_cover_chip_resources(self, cost_model, small_workload, tiny_chip):
        search = PartitionSearch(pe_steps=4, bw_steps=2)
        for point in partition_driver(search, cost_model).search_partitions(
                small_workload, tiny_chip, [NVDLA, SHIDIANNAO]):
            assert sum(point.pe_partition) == tiny_chip.num_pes
            assert sum(point.bw_partition_gbps) == pytest.approx(
                tiny_chip.noc_bandwidth_bytes_per_s / 1e9)

    def test_best_point_minimises_metric(self, cost_model, small_workload, tiny_chip):
        search = PartitionSearch(pe_steps=4, bw_steps=2)
        points = partition_driver(search, cost_model).search_partitions(
            small_workload, tiny_chip, [NVDLA, SHIDIANNAO])
        best = search.best_point(points)
        assert best.edp == min(point.edp for point in points)

    def test_best_point_of_empty_list_raises(self, cost_model):
        with pytest.raises(SearchError):
            PartitionSearch().best_point([])

    def test_random_strategy_samples_subset(self, cost_model, small_workload, tiny_chip):
        search = PartitionSearch(strategy="random", pe_steps=8,
                                 bw_steps=2, samples=3, seed=1)
        points = partition_driver(search, cost_model).search_partitions(
            small_workload, tiny_chip, [NVDLA, SHIDIANNAO])
        assert len(points) == 3

    def test_binary_strategy_refines_around_best(self, cost_model, small_workload,
                                                 tiny_chip):
        exhaustive = PartitionSearch(strategy="exhaustive",
                                     pe_steps=4, bw_steps=2)
        binary = PartitionSearch(strategy="binary",
                                 pe_steps=4, bw_steps=2)
        coarse = partition_driver(exhaustive, cost_model).search_partitions(
            small_workload, tiny_chip, [NVDLA, SHIDIANNAO])
        refined = partition_driver(binary, cost_model).search_partitions(
            small_workload, tiny_chip, [NVDLA, SHIDIANNAO])
        assert len(refined) >= len(coarse)
        assert binary.best_point(refined).edp <= exhaustive.best_point(coarse).edp + 1e-12

    def test_three_way_search(self, cost_model, small_workload, tiny_chip):
        search = PartitionSearch(pe_steps=4, bw_steps=3)
        points = partition_driver(search, cost_model).search_partitions(
            small_workload, tiny_chip, [NVDLA, SHIDIANNAO, EYERISS])
        assert points
        for point in points:
            assert len(point.pe_partition) == 3

    def test_describe_mentions_partition(self, cost_model, small_workload, tiny_chip):
        search = PartitionSearch(pe_steps=4, bw_steps=2)
        point = search.best_point(partition_driver(search, cost_model)
                                  .search_partitions(small_workload, tiny_chip,
                                                     [NVDLA, SHIDIANNAO]))
        assert "PE [" in point.describe()


class TestHeraldDSE:
    def test_explore_covers_all_categories(self, dse, small_workload, tiny_chip):
        space = dse.explore(small_workload, tiny_chip)
        assert set(space.categories()) == {"fda", "sm-fda", "rda", "hda"}

    def test_explore_point_counts(self, dse, small_workload, tiny_chip):
        space = dse.explore(small_workload, tiny_chip)
        assert len(space.by_category("fda")) == 3
        assert len(space.by_category("sm-fda")) == 3
        assert len(space.by_category("rda")) == 1
        assert len(space.by_category("hda")) > 3

    def test_best_per_category_and_overall(self, dse, small_workload, tiny_chip):
        space = dse.explore(small_workload, tiny_chip)
        overall = space.best()
        assert overall.edp <= space.best("fda").edp
        assert overall.edp == min(point.edp for point in space.points)

    def test_best_unknown_category_raises(self, dse, small_workload, tiny_chip):
        space = dse.explore(small_workload, tiny_chip)
        with pytest.raises(SearchError):
            space.best("tpu")

    def test_summary_rows_and_describe(self, dse, small_workload, tiny_chip):
        space = dse.explore(small_workload, tiny_chip)
        rows = space.summary_rows()
        assert {row["category"] for row in rows} == set(space.categories())
        assert "Design space" in space.describe()

    def test_maelstrom_partition_sums_to_chip(self, dse, small_workload, tiny_chip):
        point = dse.maelstrom(small_workload, tiny_chip)
        assert sum(point.pe_partition) == tiny_chip.num_pes

    def test_maelstrom_design_is_hda(self, dse, small_workload, tiny_chip):
        design = dse.maelstrom_design(small_workload, tiny_chip)
        assert design.kind.value == "hda"
        assert {sub.dataflow.name for sub in design.sub_accelerators} \
            == {"nvdla", "shidiannao"}

    def test_compare_with_baselines_keys(self, dse, small_workload, tiny_chip):
        comparison = dse.compare_with_baselines(small_workload, tiny_chip)
        assert set(comparison) == {"best_fda", "best_smfda", "rda", "maelstrom"}


# ---------------------------------------------------------------------------
# The execution backend owns the cost model, the scheduler and every round
# ---------------------------------------------------------------------------

_SEARCH_STYLES = {"two-way": (NVDLA, SHIDIANNAO),
                  "three-way": (NVDLA, SHIDIANNAO, EYERISS)}
_SEARCH_CASES = (
    [(suite, chip, strategy, styles, "edp")
     for suite in ("arvr-a", "arvr-b", "mlperf")
     for chip in ("edge", "mobile", "cloud")
     for strategy in STRATEGIES for styles in _SEARCH_STYLES]
    + [("arvr-a/streaming", chip, strategy, styles, "sla")
       for chip in ("edge", "mobile", "cloud")
       for strategy in STRATEGIES for styles in _SEARCH_STYLES])


def _search_workload(name):
    if name.endswith("/streaming"):
        return streaming_suite(name.split("/")[0], frames=1)
    return workload_by_name(name)


class TestSearchPartitionsMatchesTheInlineRounds:
    @pytest.mark.parametrize("suite, chip_name, strategy, styles, metric",
                             _SEARCH_CASES)
    def test_points_schedules_and_cold_counts_are_identical(
            self, suite, chip_name, strategy, styles, metric):
        """The backend's rounds are the inline ones: same points in the
        same order, the same schedules slot for slot, the same EDP bits and
        the same cold evaluations on a fresh cost model."""
        workload = _search_workload(suite)
        chip = accelerator_class(chip_name)
        search = PartitionSearch(strategy=strategy, metric=metric)
        model = CostModel()
        expected = inline_partition_search(
            search, model, HeraldScheduler(model), chip,
            _SEARCH_STYLES[styles], workload)
        driver = partition_driver(search)
        points = driver.search_partitions(workload, chip,
                                          _SEARCH_STYLES[styles])
        assert len(points) == len(expected)
        for point, reference in zip(points, expected):
            assert point.pe_partition == reference.pe_partition
            assert point.bw_partition_gbps == reference.bw_partition_gbps
            assert repr(point.edp) == repr(reference.edp)
            assert point.result.design.name == reference.result.design.name
            fields = dict(zip(Schedule.__slots__,
                              point.result.schedule.__getstate__()))
            reference_fields = dict(zip(
                Schedule.__slots__, reference.result.schedule.__getstate__()))
            for name in Schedule.__slots__:
                assert fields[name] == reference_fields[name], name
        assert driver.backend.cost_model.misses == model.misses
        assert search.best_point(points).pe_partition \
            == search.best_point(expected).pe_partition

    def test_library_error_in_a_round_is_a_task_execution_error(
            self, monkeypatch, small_workload, tiny_chip):
        def fail(design, workload, **_):
            raise SchedulingError(f"cannot place {design.name}")

        monkeypatch.setattr(backends, "evaluate_design", fail)
        driver = partition_driver(PartitionSearch(pe_steps=4, bw_steps=2))
        with pytest.raises(TaskExecutionError, match="cannot place hda"):
            driver.search_partitions(small_workload, tiny_chip,
                                     [NVDLA, SHIDIANNAO])

    @pytest.mark.parametrize("build", [
        lambda **knob: PartitionSearch(**knob),
        lambda **knob: HeraldDSE(**knob),
        lambda **knob: FleetSimulator(**knob),
        lambda **knob: search_from_spec({}, **knob),
        lambda **knob: pe_partition_sweep(None, None, **knob),
    ], ids=["PartitionSearch", "HeraldDSE", "FleetSimulator",
            "search_from_spec", "pe_partition_sweep"])
    @pytest.mark.parametrize("knob", ["cost_model", "scheduler"])
    def test_removed_model_arguments_are_unknown(self, build, knob):
        """A driver reads its cost model and scheduler from its backend."""
        with pytest.raises(TypeError, match=knob):
            build(**{knob: None})
