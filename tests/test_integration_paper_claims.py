"""Integration tests: the paper's qualitative claims, end to end.

These tests run the real Table II workloads on the Table IV accelerator
classes (edge scale, to keep runtime modest) and check the *shape* of the
paper's headline results rather than absolute numbers:

* the best HDA has lower EDP than the best FDA, the SM-FDAs, and the RDA;
* the RDA pays an energy premium over the best HDA (reconfigurable fabric);
* Herald's scheduler beats the per-layer greedy scheduler;
* HDA and RDA designs sit on the latency-energy Pareto front;
* workload change on a fixed Maelstrom design costs only a modest penalty.
"""

import pytest

from repro.accel.builders import make_fda, make_hda, make_rda, make_smfda
from repro.accel.classes import ACCELERATOR_CLASSES, EDGE, MOBILE
from repro.analysis.pareto import pareto_front
from repro.core.dse import HeraldDSE
from repro.core.evaluator import evaluate_design
from repro.core.partitioner import PartitionSearch
from repro.core.scheduler import GreedyScheduler, HeraldScheduler
from repro.dataflow.styles import ALL_STYLES, NVDLA, SHIDIANNAO
from repro.exec.backends import SerialBackend
from repro.maestro.cost import CostModel
from repro.workloads.suites import arvr_a, mlperf, workload_by_name
from support import partition_driver


@pytest.fixture(scope="module")
def cost_model_shared():
    return CostModel()


@pytest.fixture(scope="module")
def dse(cost_model_shared):
    search = PartitionSearch(pe_steps=8, bw_steps=4)
    return HeraldDSE(backend=SerialBackend(cost_model=cost_model_shared),
                     partition_search=search)


@pytest.fixture(scope="module")
def arvr_a_space(dse):
    return dse.explore(arvr_a(), EDGE)


@pytest.fixture(scope="module")
def mlperf_space(dse):
    return dse.explore(mlperf(), EDGE)


class TestDesignSpaceShape:
    @pytest.mark.parametrize("space_fixture", ["arvr_a_space", "mlperf_space"])
    def test_best_hda_beats_best_fda_on_edp(self, space_fixture, request):
        space = request.getfixturevalue(space_fixture)
        assert space.best("hda").edp < space.best("fda").edp

    def test_best_hda_beats_smfda_on_edp_for_mlperf(self, mlperf_space):
        assert mlperf_space.best("hda").edp < mlperf_space.best("sm-fda").edp

    def test_best_hda_close_to_or_better_than_smfda_for_arvr_a(self, arvr_a_space):
        # Deviation from the paper (docs/PAPER_MAPPING.md, "Deviations from
        # the paper"): at edge scale our cost model makes the NVDLA dataflow
        # a good fit for almost every AR/VR-A layer, so a homogeneous NVDLA
        # scale-out captures most of the layer-parallelism benefit; the
        # heterogeneous design stays within a small margin rather than
        # strictly winning.
        assert arvr_a_space.best("hda").edp < 1.15 * arvr_a_space.best("sm-fda").edp

    @pytest.mark.parametrize("space_fixture", ["arvr_a_space", "mlperf_space"])
    def test_best_hda_beats_rda_on_edp(self, space_fixture, request):
        space = request.getfixturevalue(space_fixture)
        assert space.best("hda").edp < space.best("rda").edp

    @pytest.mark.parametrize("space_fixture", ["arvr_a_space", "mlperf_space"])
    def test_rda_pays_energy_premium_over_best_hda(self, space_fixture, request):
        space = request.getfixturevalue(space_fixture)
        assert space.best("rda").energy_mj > space.best("hda", metric="energy").energy_mj

    @pytest.mark.parametrize("space_fixture", ["arvr_a_space", "mlperf_space"])
    def test_an_hda_sits_on_the_pareto_front(self, space_fixture, request):
        space = request.getfixturevalue(space_fixture)
        front = pareto_front(space.points)
        assert any(point.category == "hda" for point in front)

    @pytest.mark.parametrize("space_fixture", ["arvr_a_space", "mlperf_space"])
    def test_not_every_fda_is_pareto_optimal(self, space_fixture, request):
        space = request.getfixturevalue(space_fixture)
        front = pareto_front(space.points)
        fda_points = space.by_category("fda")
        assert any(point not in front for point in fda_points)


class TestSchedulerEfficacy:
    def test_herald_beats_greedy_on_maelstrom(self, cost_model_shared):
        # Sec. V-B reports ~24 % EDP advantage of Herald's scheduler over the
        # per-layer greedy baseline on Maelstrom designs.
        workload = arvr_a()
        design = make_hda(MOBILE, [NVDLA, SHIDIANNAO],
                          pe_partition=(2048, 2048), bw_partition_gbps=(32, 32))
        herald = evaluate_design(design, workload, cost_model=cost_model_shared,
                                 scheduler=HeraldScheduler(cost_model_shared))
        greedy = evaluate_design(design, workload, cost_model=cost_model_shared,
                                 scheduler=GreedyScheduler(cost_model_shared))
        assert herald.edp < greedy.edp
        improvement = (greedy.edp - herald.edp) / greedy.edp * 100.0
        assert improvement > 5.0

    #: The greedy column of ``benchmarks/bench_scheduler_efficacy.py``: the
    #: Sec. V-B baseline's EDP (J*s) on the NVDLA + Shi-diannao HDA of each
    #: suite and class, pinned bit for bit.
    GREEDY_EDP = {
        ("arvr-a", "edge"): 6.120572800481187,
        ("arvr-a", "mobile"): 1.1487768346654734,
        ("arvr-a", "cloud"): 0.3069370574758037,
        ("arvr-b", "edge"): 1.945276634906094,
        ("arvr-b", "mobile"): 0.3765531653883971,
        ("arvr-b", "cloud"): 0.09907315966282752,
        ("mlperf", "edge"): 0.02443476791463358,
        ("mlperf", "mobile"): 0.005629480603128771,
        ("mlperf", "cloud"): 0.0013425843345374131,
    }

    def test_greedy_baseline_edps_are_pinned(self, cost_model_shared):
        greedy = GreedyScheduler(cost_model_shared)
        edps = {}
        for workload_name in ("arvr-a", "arvr-b", "mlperf"):
            workload = workload_by_name(workload_name)
            for class_name in ("edge", "mobile", "cloud"):
                design = make_hda(ACCELERATOR_CLASSES[class_name],
                                  [NVDLA, SHIDIANNAO])
                edps[(workload_name, class_name)] = evaluate_design(
                    design, workload, cost_model=cost_model_shared,
                    scheduler=greedy).edp
        assert edps == self.GREEDY_EDP

    def test_scheduling_time_is_lightweight(self, cost_model_shared):
        # Table VII: a few seconds per workload on a laptop; our reimplementation
        # should stay well under that for the 400-layer AR/VR-A workload.
        workload = arvr_a()
        design = make_hda(EDGE, [NVDLA, SHIDIANNAO])
        result = evaluate_design(design, workload, cost_model=cost_model_shared,
                                 scheduler=HeraldScheduler(cost_model_shared))
        assert result.scheduling_time_s < 10.0


class TestHardwarePartitioning:
    def test_partitioning_matters(self, cost_model_shared):
        # Fig. 6: the PE-partition sweep is not flat -- bad partitions cost
        # noticeably more EDP than the best one.
        from repro.analysis.sweeps import pe_partition_sweep

        points = pe_partition_sweep(
            arvr_a(), EDGE, steps=8,
            backend=SerialBackend(cost_model=cost_model_shared))
        edps = [point.edp for point in points]
        assert max(edps) > 1.10 * min(edps)

    def test_optimised_partition_never_worse_than_even(self, cost_model_shared):
        workload = mlperf()
        scheduler = HeraldScheduler(cost_model_shared)
        search = PartitionSearch(pe_steps=8, bw_steps=4)
        best = search.best_point(
            partition_driver(search, cost_model_shared, scheduler)
            .search_partitions(workload, EDGE, [NVDLA, SHIDIANNAO]))
        even = evaluate_design(make_hda(EDGE, [NVDLA, SHIDIANNAO]), workload,
                               cost_model=cost_model_shared, scheduler=scheduler)
        assert best.edp <= even.edp + 1e-12


class TestWorkloadChange:
    def test_workload_change_penalty_is_modest(self, dse):
        # Fig. 13: running a different workload on a fixed Maelstrom design
        # costs only a few percent latency on average.
        from repro.analysis.sweeps import workload_change_study

        study = workload_change_study([arvr_a(), mlperf()], EDGE, dse=dse)
        assert study.average_penalty("latency_s") < 50.0
        for optimised_for in study.results:
            for run_on in study.results[optimised_for]:
                assert study.results[optimised_for][run_on].latency_s > 0


class TestBatchSizeStudy:
    def test_hda_gain_grows_with_batch_size(self, dse):
        # Table VI: HDA latency gains vs. the RDA improve when the batch size
        # grows from one to eight (more independent instances to overlap).
        from repro.analysis.sweeps import batch_size_study

        rows = batch_size_study(mlperf(), EDGE, batch_sizes=(1, 4), dse=dse)
        by_batch = {row.batch_size: row for row in rows}
        assert by_batch[4].latency_gain_vs_rda >= by_batch[1].latency_gain_vs_rda
