"""Tests for workload specifications and the Table II suites."""

import pytest

from repro.core.scheduler import HeraldScheduler
from repro.exceptions import WorkloadError
from repro.models.graph import ModelGraph
from repro.models.layer import fc
from repro.workloads.spec import ModelInstance, WorkloadSpec
from repro.workloads.suites import (
    WORKLOAD_SUITES,
    arvr_a,
    arvr_b,
    mlperf,
    single_model,
    workload_by_name,
)


class TestStableEquality:
    """A workload is a value: expanding it changes nothing it compares on."""

    def test_equal_workloads_stay_equal_after_expansion(self, cost_model,
                                                        tiny_sub_accelerators):
        first = WorkloadSpec("w", [("mobilenet_v1", 1)])
        second = WorkloadSpec("w", [("mobilenet_v1", 1)])
        assert first == second
        first.instances()
        assert first == second and second == first
        assert second.total_layers == first.total_layers
        assert first == second
        HeraldScheduler(cost_model).schedule(first, tiny_sub_accelerators)
        assert first == second
        assert first.models == second.models == {}

    def test_expansion_never_writes_models(self):
        graph = ModelGraph.from_layers("custom", [fc("a", k=8, c=8)])
        models = {"custom": graph}
        spec = WorkloadSpec("w", [("custom", 2), ("mobilenet_v1", 1)],
                            models=models)
        spec.instances()
        spec.unique_shape_layers()
        spec.describe()
        assert models == {"custom": graph}
        assert spec.models == {"custom": graph}
        assert spec.with_batches(3).models == {"custom": graph}

    def test_with_batches_shares_the_built_graphs(self):
        spec = WorkloadSpec("w", [("mobilenet_v1", 1)])
        graph = spec.model_graph("mobilenet_v1")
        scaled = spec.with_batches(2)
        assert scaled.model_graph("mobilenet_v1") is graph
        assert scaled == WorkloadSpec("w-b2", [("mobilenet_v1", 2)])


class TestWorkloadSpec:
    def test_requires_entries(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="empty", entries=[])

    def test_rejects_zero_batches(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="bad", entries=[("resnet50", 0)])

    def test_instances_one_per_batch(self):
        spec = WorkloadSpec(name="w", entries=[("mobilenet_v1", 3)])
        instances = spec.instances()
        assert len(instances) == 3
        assert {i.instance_id for i in instances} == {
            "mobilenet_v1#0", "mobilenet_v1#1", "mobilenet_v1#2"}

    def test_instances_share_model_graph(self):
        spec = WorkloadSpec(name="w", entries=[("mobilenet_v1", 2)])
        a, b = spec.instances()
        assert a.model is b.model

    def test_total_layers_counts_batches(self):
        spec = WorkloadSpec(name="w", entries=[("mobilenet_v1", 2)])
        assert spec.total_layers == 2 * len(spec.model_graph("mobilenet_v1"))

    def test_unique_layers_ignores_batches(self):
        single = WorkloadSpec(name="w", entries=[("mobilenet_v1", 1)])
        spec = WorkloadSpec(name="w", entries=[("mobilenet_v1", 4)])
        assert spec.unique_shape_layers() == single.unique_shape_layers()

    def test_total_macs_positive(self):
        assert WorkloadSpec(name="w", entries=[("mobilenet_v1", 1)]).total_macs > 0

    def test_with_batches_scales_every_model(self):
        spec = mlperf(1).with_batches(8)
        assert all(batches == 8 for _, batches in spec.entries)

    def test_all_layers_matches_total(self):
        spec = WorkloadSpec(name="w", entries=[("mobilenet_v1", 2)])
        assert sum(len(instance.layers_in_dependence_order())
                   for instance in spec.instances()) == spec.total_layers

    def test_heterogeneity_statistics(self):
        stats = WorkloadSpec(name="w", entries=[("mobilenet_v1", 1)]).heterogeneity()
        assert stats["min"] <= stats["max"]

    def test_describe_mentions_models(self):
        assert "mobilenet_v1" in WorkloadSpec(
            name="w", entries=[("mobilenet_v1", 1)]).describe()

    def test_from_models_with_custom_graphs(self):
        graph = ModelGraph.from_layers("custom", [fc("a", k=8, c=8), fc("b", k=8, c=8)])
        spec = WorkloadSpec("custom-wl", [("custom", 2)],
                            models={"custom": graph})
        assert spec.total_layers == 4
        assert spec.model_graph("custom") is graph

    def test_model_instance_properties(self):
        graph = ModelGraph.from_layers("custom", [fc("a", k=8, c=8), fc("b", k=8, c=8)])
        instance = ModelInstance("custom#0", graph)
        assert instance.model_name == "custom"
        assert instance.num_layers == 2
        assert [l.name for l in instance.layers_in_dependence_order()] == ["a", "b"]


class TestSuites:
    def test_arvr_a_composition(self):
        spec = arvr_a()
        assert dict(spec.entries) == {"resnet50": 2, "unet": 4, "mobilenet_v2": 4}

    def test_arvr_b_composition(self):
        spec = arvr_b()
        assert dict(spec.entries) == {
            "resnet50": 2, "unet": 2, "mobilenet_v2": 4,
            "brq_handpose": 2, "focal_depthnet": 2,
        }

    def test_mlperf_composition(self):
        spec = mlperf()
        assert {name for name, _ in spec.entries} == {
            "resnet50", "mobilenet_v1", "ssd_resnet34", "ssd_mobilenet_v1", "gnmt"}
        assert all(batches == 1 for _, batches in spec.entries)

    def test_mlperf_batch_eight(self):
        spec = mlperf(batch_size=8)
        assert all(batches == 8 for _, batches in spec.entries)
        assert spec.name == "mlperf-b8"

    def test_single_model_workload(self):
        spec = single_model("unet", batches=4)
        assert spec.entries == (("unet", 4),)

    def test_workload_by_name(self):
        assert workload_by_name("arvr-a").name == "arvr-a"
        with pytest.raises(KeyError):
            workload_by_name("unknown")

    def test_available_workloads(self):
        for name in WORKLOAD_SUITES:
            assert workload_by_name(name).total_instances > 0

    def test_arvr_b_has_more_heterogeneity_than_arvr_a(self):
        # AR/VR-B adds hand-pose and depth models with extreme channel ratios.
        assert arvr_b().heterogeneity()["max"] > arvr_a().heterogeneity()["max"]

    def test_layer_execution_counts_roughly_match_table_vii(self):
        # Table VII reports 448 / 618 / 181 layer executions; the synthetic
        # reconstruction should land in the same ballpark.
        assert 350 <= arvr_a().total_layers <= 550
        assert 380 <= arvr_b().total_layers <= 750
        assert 150 <= mlperf().total_layers <= 260
