"""Tests for the evaluation hot-path overhaul.

Four contracts are pinned here:

1. **Bit-for-bit equivalence.**  The shape-keyed cost memo, the heap-based
   event-driven list scheduler, and the incremental partition search must not
   change a single scheduling decision or metric.  Golden files generated from
   the pre-overhaul seed implementation (``tests/golden/``, regenerable with
   ``python tests/golden_scheduler.py --write``) cover every (metric x
   ordering x load-balance x memory-limit x post-processing) configuration on
   chain / diamond / UNet-skip / 4-instance mixed workloads, plus a full DSE
   ranking; a hypothesis-driven random-DAG sweep checks the public scheduler
   against the executable specification in ``tests/reference_scheduler.py``.

2. **No memo aliasing.**  ``Layer.shape_key`` equality must imply identical
   ``LayerCost`` on every dataflow style, and layers that differ only in
   ``stride`` / ``upscale`` / operator semantics must produce distinct keys.

3. **Accounting from the model.**  A schedule's cached totals equal the sums
   over its entries bit for bit, total energy is per-layer energy plus idle
   energy, and the makespan respects the critical-path and work lower bounds.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

import golden_scheduler
import reference_scheduler
from repro.accel.builders import enumerate_fdas
from repro.accel.classes import ACCELERATOR_CLASSES
from repro.core.dse import HeraldDSE
from repro.core.evaluator import evaluate_design
from repro.core.partitioner import PartitionSearch, search_from_spec
from repro.core.scheduler import HeraldScheduler
from repro.dataflow.mapping import build_mapping
from repro.dataflow.styles import ALL_STYLES, EYERISS, NVDLA, SHIDIANNAO
from repro.exec import (EvaluationTask, ProcessPoolBackend, SerialBackend,
                        backends)
from repro.exec.backends import pool_workers
from repro.exceptions import HardwareConfigError, SchedulingError
from repro.maestro.cost import CostModel
from repro.maestro.hardware import SubAcceleratorConfig
from repro.models.graph import ModelGraph
from repro.models.layer import Layer, LayerType, conv2d, fc, pwconv, upconv
from repro.units import gbps, mib
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suites import arvr_a
from support import cost_with_style, partition_driver, workload_from_models


def _count_mappings(monkeypatch):
    """Count the cost model's ``build_mapping`` calls, by layer shape."""
    from repro.maestro import cost as cost_module
    built = []

    def counting(layer, style, num_pes):
        built.append(layer.shape_key)
        return build_mapping(layer, style, num_pes)

    monkeypatch.setattr(cost_module, "build_mapping", counting)
    return built


def _sub(style=NVDLA, pes=128, name="sub0"):
    return SubAcceleratorConfig(name=name, dataflow=style, num_pes=pes,
                                bandwidth_bytes_per_s=gbps(4),
                                buffer_bytes=mib(1))


def _cost_fields(cost):
    """Every numeric field of a LayerCost (identity fields excluded)."""
    return (cost.compute_cycles, cost.noc_cycles, cost.dram_cycles,
            cost.overhead_cycles, cost.energy_compute_pj, cost.energy_rf_pj,
            cost.energy_local_pj, cost.energy_noc_pj, cost.energy_sram_pj,
            cost.energy_dram_pj, cost.energy_overhead_pj, cost.utilisation,
            cost.num_pes, cost.clock_hz)


# ---------------------------------------------------------------------------
# Shape keys
# ---------------------------------------------------------------------------

#: Small dimension domains so hypothesis actually produces shape collisions.
_small_layers = st.builds(
    lambda kind, k, c, y, r, stride, upscale, name: {
        "conv": lambda: Layer(name, LayerType.CONV2D, k=k, c=c,
                              y=max(y, r + stride), x=max(y, r + stride),
                              r=r, s=r, stride=stride),
        "dw": lambda: Layer(name, LayerType.DWCONV, k=c, c=c,
                            y=max(y, r + 1), x=max(y, r + 1), r=r, s=r),
        "pw": lambda: Layer(name, LayerType.PWCONV, k=k, c=c, y=y, x=y),
        "up": lambda: Layer(name, LayerType.UPCONV, k=k, c=c,
                            y=max(y, r), x=max(y, r), r=r, s=r,
                            upscale=upscale),
        "fc": lambda: Layer(name, LayerType.FC, k=k, c=c, y=1, x=1),
    }[kind](),
    kind=st.sampled_from(["conv", "dw", "pw", "up", "fc"]),
    k=st.sampled_from([4, 8, 16]),
    c=st.sampled_from([4, 8, 16]),
    y=st.sampled_from([8, 16]),
    r=st.sampled_from([1, 3]),
    stride=st.sampled_from([1, 2]),
    upscale=st.sampled_from([2, 3]),
    name=st.sampled_from(["alpha", "beta"]),
)


class TestShapeKey:
    def test_identity_fields_do_not_participate(self):
        a = conv2d("left", k=8, c=4, y=16, x=16, r=3, s=3, model_name="resnet")
        b = conv2d("right", k=8, c=4, y=16, x=16, r=3, s=3, model_name="unet")
        assert a != b
        assert a.shape_key == b.shape_key

    def test_stride_produces_distinct_keys(self):
        a = conv2d("a", k=8, c=4, y=16, x=16, r=3, s=3, stride=1)
        b = conv2d("a", k=8, c=4, y=16, x=16, r=3, s=3, stride=2)
        assert a.shape_key != b.shape_key

    def test_upscale_produces_distinct_keys(self):
        a = upconv("a", k=8, c=4, y=16, x=16, r=3, s=3, upscale=2)
        b = upconv("a", k=8, c=4, y=16, x=16, r=3, s=3, upscale=4)
        assert a.shape_key != b.shape_key

    def test_layer_type_produces_distinct_keys(self):
        # A 1x1 CONV2D and a PWCONV have equal raw dimensions (and costs) but
        # must not alias: operator semantics are part of the shape.
        a = conv2d("a", k=8, c=8, y=16, x=16, r=1, s=1)
        b = pwconv("a", k=8, c=8, y=16, x=16)
        assert a.shape_key != b.shape_key
        dw = Layer("a", LayerType.DWCONV, k=8, c=8, y=16, x=16, r=1, s=1)
        assert dw.shape_key != a.shape_key

    @given(a=_small_layers, b=_small_layers)
    @settings(max_examples=150, deadline=None)
    def test_equal_shape_key_means_identical_cost_on_every_style(self, a, b):
        """shape_key equality <=> cost identity, sampled over collisions.

        Forward direction on colliding draws: equal keys must yield identical
        LayerCost numerics on every style.  Contrapositive on non-colliding
        draws with equal raw dimension tuples (stride/upscale/type aliasing
        candidates): the keys must differ whenever the estimator is allowed to
        produce different numbers.
        """
        model = CostModel()
        sub = _sub()
        if a.shape_key == b.shape_key:
            for style in ALL_STYLES:
                cost_a = cost_with_style(model, a, style, sub)
                cost_b = cost_with_style(model, b, style, sub)
                assert _cost_fields(cost_a) == _cost_fields(cost_b)
        else:
            # Distinct keys: memo entries must be distinct too.
            model.layer_cost(a, sub)
            model.layer_cost(b, sub)
            assert model.cache_stats()["entries"] == 2

    def test_same_shape_layers_share_one_memo_entry(self):
        model = CostModel()
        sub = _sub()
        first = model.layer_cost(
            conv2d("block1", k=8, c=4, y=16, x=16, r=3, s=3, model_name="m1"), sub)
        second = model.layer_cost(
            conv2d("block7", k=8, c=4, y=16, x=16, r=3, s=3, model_name="m2"), sub)
        assert second is first
        assert model.cache_stats()["entries"] == 1
        assert (model.hits, model.misses) == (1, 1)

    def test_precomputed_derivations_survive_pickle_and_replace(self):
        layer = upconv("up", k=8, c=4, y=16, x=16, r=3, s=3, upscale=2)
        clone = pickle.loads(pickle.dumps(layer))
        assert clone.shape_key == layer.shape_key
        assert clone.macs == layer.macs
        wider = layer._replace(k=16)
        assert wider.output_elements == 2 * layer.output_elements
        assert wider.shape_key != layer.shape_key


class TestShapeDedupedCosts:
    def test_dedupes_by_shape_before_estimating(self):
        model = CostModel()
        accs = [_sub(NVDLA, name="a0"), _sub(SHIDIANNAO, name="a1")]
        layers = [conv2d(f"l{i}", k=8, c=4, y=16, x=16, r=3, s=3)
                  for i in range(10)]
        layers.append(fc("head", k=10, c=64))
        assert model.prewarm(layers, accs) == 2 * 2
        assert model.misses == 2 * 2  # 2 unique shapes x 2 sub-accelerators
        assert model.hits == 0
        graph = ModelGraph.from_layers("rep", layers)
        workload = workload_from_models("w", [graph], batches=3)
        schedule = HeraldScheduler(model).schedule(workload, accs)
        # One column query per (shape, sub-accelerator), all warm.
        assert (model.hits, model.misses) == (2 * 2, 2 * 2)
        by_name = {acc.name: acc for acc in accs}
        for entry in schedule.entries:
            assert entry.cost is model.layer_cost(
                entry.layer, by_name[entry.sub_accelerator])

    def test_prewarm_dedupes_sub_accelerators_by_hardware_key(self):
        model = CostModel()
        twins = [_sub(NVDLA, name="a0"), _sub(NVDLA, name="a1")]
        layers = [conv2d("c", k=8, c=4, y=16, x=16, r=3, s=3)]
        assert model.prewarm(layers, twins + [_sub(SHIDIANNAO)]) == 2
        assert (model.hits, model.misses) == (0, 2)

    def test_prewarmed_partition_search_evaluates_without_cold_queries(
            self, tiny_chip, small_workload):
        model = CostModel()
        scheduler = HeraldScheduler(model)
        search = PartitionSearch(pe_steps=4, bw_steps=2)
        styles = [NVDLA, SHIDIANNAO]
        designs = [search.build_design(tiny_chip, styles, pes, bws)
                   for pes, bws in search.candidate_partitions(
                       tiny_chip, len(styles))]
        warmed = model.prewarm(
            small_workload.unique_shape_layers(),
            [acc for design in designs for acc in design.sub_accelerators])
        assert warmed > 0
        misses_before = model.misses
        for design in designs:
            evaluate_design(design, small_workload, cost_model=model,
                            scheduler=scheduler)
        assert model.misses == misses_before, \
            "candidate evaluation after prewarm must be pure memo lookups"

    def test_search_misses_only_in_its_prewarm(self, tiny_chip,
                                               small_workload):
        """Each round prewarms the deduped shapes x distinct arrays, so a
        binary search computes each (shape, array) pair once, up front, and
        the scheduler's cost-column fill then finds it warm."""
        model = CostModel()
        search = PartitionSearch(pe_steps=4, bw_steps=2, strategy="binary")
        points = partition_driver(search, model).search_partitions(
            small_workload, tiny_chip, [NVDLA, SHIDIANNAO])
        hardware_keys = {
            model.hardware_key(acc)
            for point in points
            for acc in search.build_design(
                tiny_chip, [NVDLA, SHIDIANNAO], point.pe_partition,
                point.bw_partition_gbps).sub_accelerators}
        pairs = len(hardware_keys) * len(small_workload.unique_shape_layers())
        assert (model.misses, model.hits, model.cache_stats()["entries"]) \
            == (pairs, pairs, pairs)


class TestCostColumns:
    """Fig. 8 preference rows are zipped from one cost column per
    (metric, hardware key), shared by every design using that array."""

    def test_columns_are_shared_across_partition_candidates(
            self, tiny_chip, small_workload):
        model = CostModel()
        scheduler = HeraldScheduler(model)
        search = PartitionSearch(pe_steps=4, bw_steps=2)
        # A two-way split fixes the whole design by its first array, so the
        # sharing comes from a common NVDLA across style combinations and
        # from three-way splits that keep one array while moving the others.
        designs = []
        for styles in ([NVDLA, SHIDIANNAO], [NVDLA, EYERISS],
                       [NVDLA, SHIDIANNAO, EYERISS]):
            designs.extend(search.build_design(tiny_chip, styles, pes, bws)
                           for pes, bws in search.candidate_partitions(
                               tiny_chip, len(styles)))
        model.prewarm(small_workload.unique_shape_layers(),
                      [acc for design in designs
                       for acc in design.sub_accelerators])
        hits, misses = model.hits, model.misses
        hardware_keys = set()
        placements = 0
        for design in designs:
            hardware_keys.update(model.hardware_key(acc)
                                 for acc in design.sub_accelerators)
            placements += len(design.sub_accelerators)
            evaluate_design(design, small_workload, cost_model=model,
                            scheduler=scheduler)
        assert len(hardware_keys) < placements, \
            "the candidates must share hardware for this test to bite"
        assert model.misses == misses
        assert model.hits - hits \
            == len(hardware_keys) * len(small_workload.unique_shape_layers())
        assert len(scheduler._columns) == len(hardware_keys)

    def test_pickled_scheduler_carries_no_columns(self, cost_model):
        workloads = golden_scheduler.build_workloads()
        accs = golden_scheduler.build_sub_accelerators()
        scheduler = HeraldScheduler(cost_model)
        before = scheduler.schedule(workloads["chain"], accs)
        assert scheduler._columns
        clone = pickle.loads(pickle.dumps(scheduler))
        assert clone._columns == {}
        assert scheduler._columns, "pickling must not clear the original"
        assert _timeline_tuples(clone.schedule(workloads["chain"], accs)) \
            == _timeline_tuples(before)

    def test_duplicate_names_end_in_a_typed_error(self, cost_model):
        """Equal (metric, name) sort keys must never fall through to
        comparing LayerCost objects."""
        workloads = golden_scheduler.build_workloads()
        twin = _sub(NVDLA, name="twin")
        for accs in ([twin, twin], [twin, _sub(SHIDIANNAO, name="twin")]):
            with pytest.raises((HardwareConfigError, SchedulingError)):
                HeraldScheduler(cost_model).schedule(workloads["chain"], accs)


class TestWorkloadShapeDedup:
    def test_unique_shape_layers_collapse_batches_and_blocks(self):
        graph = ModelGraph.from_layers("rep", [
            conv2d("c1", k=8, c=4, y=16, x=16, r=3, s=3),
            conv2d("c2", k=8, c=4, y=14, x=14, r=3, s=3),
            conv2d("c3", k=8, c=4, y=16, x=16, r=3, s=3),  # same shape as c1
        ])
        workload = workload_from_models("w", [graph], batches=4)
        assert workload.total_layers == 12
        assert len(workload.unique_shape_layers()) == 2
        names = [layer.name for layer in workload.unique_shape_layers()]
        assert names == ["c1", "c2"]

    def test_entries_cannot_be_mutated(self):
        """The expansions are built once per workload, so nothing may change
        the entries they were built from: the caller's list is copied into
        a tuple and the attributes cannot be rebound."""
        graph = ModelGraph.from_layers("rep", [fc("a", k=4, c=4)])
        entries = [("rep", 1)]
        workload = WorkloadSpec("w", entries, models={"rep": graph})
        assert len(workload.instances()) == 1
        entries.append(("rep", 2))
        assert workload.entries == (("rep", 1),)
        with pytest.raises(AttributeError):
            workload.entries.append(("rep", 2))
        with pytest.raises(TypeError):
            workload.entries[0] = ("rep", 3)
        for name in ("entries", "models", "name"):
            with pytest.raises(AttributeError):
                setattr(workload, name, None)
            with pytest.raises(AttributeError):
                delattr(workload, name)
        assert len(workload.instances()) == 1

    def test_expansions_are_built_once(self, monkeypatch):
        """Instances, shapes, dependences and the visit order are each built
        at most once per workload, however often a sweep asks for them."""
        workload = WorkloadSpec("w", [("mobilenet_v1", 2)])
        built = []
        real = ModelGraph.predecessor_indices

        def counting(graph):
            built.append(graph.name)
            return real(graph)

        monkeypatch.setattr(ModelGraph, "predecessor_indices", counting)
        scheduler = HeraldScheduler(CostModel())
        accs = [_sub(NVDLA, name="a0"), _sub(SHIDIANNAO, name="a1")]
        for _ in range(3):
            scheduler.schedule(workload, accs)
            workload.unique_shape_layers()
        assert workload.instances() is not workload.instances()
        assert workload.instances() == list(workload._instances)
        assert workload.instance_dependences() is \
            workload.instance_dependences()
        assert list(workload._visit_orders) \
            == [(scheduler.ordering, scheduler.memory_limit_bytes)]
        # One call per instance for the dependences, one per instance for
        # the visit order: never once per schedule.
        assert len(built) == 2 * workload.total_instances

    def test_pickle_strips_derived_memos(self, small_workload):
        """Pickles carry the resolved graphs (a pool worker needs no zoo
        build) but none of the expansions, which are rebuilt there."""
        workload = WorkloadSpec("w", [("mobilenet_v1", 1)])
        for spec in (small_workload, workload):
            spec.instances()
            spec.unique_shape_layers()
            clone = pickle.loads(pickle.dumps(spec))
            assert "_instances" not in clone.__dict__
            assert "_shape_layers" not in clone.__dict__
            assert clone._graphs.keys() == spec._graphs.keys()
            assert (clone.name, clone.entries) == (spec.name, spec.entries)
            assert [i.instance_id for i in clone.instances()] == \
                [i.instance_id for i in spec.instances()]
        assert workload.models == {}
        assert list(workload._graphs) == ["mobilenet_v1"]


# ---------------------------------------------------------------------------
# Scheduler equivalence (golden files generated from the seed implementation)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden_timelines():
    return golden_scheduler.load_golden(golden_scheduler.TIMELINES_FILE)


@pytest.fixture(scope="module")
def current_timelines():
    return golden_scheduler.generate_timelines()


class TestGoldenEquivalence:
    def test_matrix_is_complete(self, golden_timelines):
        expected = [key
                    for workload in golden_scheduler.build_workloads()
                    for key in golden_scheduler.scenario_keys(workload)]
        assert sorted(golden_timelines) == sorted(expected)
        assert len(expected) == 192

    def test_every_scenario_matches_seed_bit_for_bit(self, golden_timelines,
                                                     current_timelines):
        mismatched = [key for key in golden_timelines
                      if golden_timelines[key] != current_timelines[key]]
        assert mismatched == []

    def test_memory_violation_scenarios_participate(self, golden_timelines):
        assert any(record["memory_violations"] > 0
                   for record in golden_timelines.values())

    def test_dse_ranking_matches_seed_bit_for_bit(self):
        golden = golden_scheduler.load_golden(golden_scheduler.DSE_FILE)
        assert golden_scheduler.run_dse() == golden

    def test_pool_backend_matches_seed_rankings(self):
        golden = golden_scheduler.load_golden(golden_scheduler.DSE_FILE)
        backend = ProcessPoolBackend(jobs=4)
        assert golden_scheduler.run_dse(backend=backend) == golden


def _timeline_tuples(schedule):
    return [(e.instance_id, e.layer_index, e.sub_accelerator, e.start_cycle,
             e.finish_cycle) for e in schedule.entries]


#: Up to four sub-accelerators of distinct dataflows and sizes; examples take
#: a prefix, so every design arity from a monolithic array to a 4-way HDA runs.
_REFERENCE_ACCS = (_sub(NVDLA, name="a0"), _sub(SHIDIANNAO, pes=64, name="a1"),
                   _sub(EYERISS, name="a2"), _sub(NVDLA, pes=64, name="a3"))

#: One shared cost model: costs are pure, so sharing only saves time.
_REFERENCE_MODEL = CostModel()


def _assert_matches_reference(workload, accs, cost_model, release_cycles=None,
                              **config):
    scheduler = HeraldScheduler(cost_model, **config)
    schedule = scheduler.schedule(workload, accs, release_cycles=release_cycles)
    reference, violations = reference_scheduler.reference_schedule(
        workload, accs, cost_model, release_cycles=release_cycles, **config)
    assert reference_scheduler.timeline(schedule) == \
        reference_scheduler.timeline(reference)
    assert scheduler.last_memory_violations == violations


@st.composite
def _dag_scenarios(draw):
    """A random DAG workload, release trace, scheduler configuration and
    design of 1-4 sub-accelerators: ``(workload, accs, releases, config)``."""
    import random as random_module

    n = draw(st.integers(min_value=3, max_value=12))
    rng = random_module.Random(draw(st.integers(min_value=0, max_value=2**31)))
    dims = draw(st.lists(st.sampled_from([4, 8, 16, 64, 256]),
                         min_size=12, max_size=12))
    batches = draw(st.integers(min_value=1, max_value=3))
    releases = draw(st.lists(st.sampled_from([0.0, 1e3, 1e5]),
                             min_size=3, max_size=3) | st.none())
    config = {
        "metric": draw(st.sampled_from(["edp", "latency", "energy"])),
        "ordering": draw(st.sampled_from(["breadth", "depth"])),
        "load_balance_factor": draw(st.sampled_from([None, 1.25, 2.0])),
        "memory_limit_bytes": draw(st.sampled_from([None, 0, 512, 2048])),
        "enable_post_processing": draw(st.booleans()),
    }
    n_accs = draw(st.integers(min_value=1, max_value=4))
    layers = [fc(f"l{i}", k=dims[i], c=dims[(i * 7 + 3) % 12])
              for i in range(n)]
    graph = ModelGraph.from_layers("dag", layers)
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < 0.3:
                graph.add_edge(f"l{i}", f"l{j}")
    workload = workload_from_models("dag-wl", [graph], batches=batches)
    release_cycles = None
    if releases is not None:
        release_cycles = {instance.instance_id: release
                          for instance, release
                          in zip(workload.instances(), releases)}
    return workload, _REFERENCE_ACCS[:n_accs], release_cycles, config


class TestHeapSchedulerMatchesReference:
    @given(case=_dag_scenarios())
    @settings(max_examples=120, deadline=None)
    def test_random_dags(self, case):
        """The scheduler equals the reference on random DAGs x release traces
        x memory limits x post-processing x 1-4 sub-accelerators."""
        workload, accs, release_cycles, config = case
        _assert_matches_reference(workload, accs, _REFERENCE_MODEL,
                                  release_cycles=release_cycles, **config)

    def test_cost_columns_respect_metric_mutation(self, cost_model):
        """Reassigning scheduler.metric must not serve stale columns."""
        workloads = golden_scheduler.build_workloads()
        accs = golden_scheduler.build_sub_accelerators()
        mutated = HeraldScheduler(cost_model, metric="edp")
        mutated.schedule(workloads["chain"], accs)
        mutated.metric = "latency"
        remetered = mutated.schedule(workloads["chain"], accs)
        fresh = HeraldScheduler(cost_model, metric="latency").schedule(
            workloads["chain"], accs)
        assert _timeline_tuples(remetered) == _timeline_tuples(fresh)

    def test_golden_workloads(self, cost_model):
        """Scheduler vs reference on the golden topologies, every ordering,
        memory limit, and post-processing setting."""
        workloads = golden_scheduler.build_workloads()
        accs = golden_scheduler.build_sub_accelerators()
        for name, workload in workloads.items():
            for ordering in ("breadth", "depth"):
                for memory_limit in golden_scheduler.MEMORY_LIMITS[name]:
                    for post in (True, False):
                        _assert_matches_reference(
                            workload, accs, cost_model, ordering=ordering,
                            memory_limit_bytes=memory_limit,
                            enable_post_processing=post)


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _exact_fields(schedule):
    """Every field of a schedule, each float as ``float.hex``."""
    entries = [(entry.layer, entry.instance_id, entry.layer_index,
                entry.sub_accelerator, _hex(entry.start_cycle),
                _hex(entry.finish_cycle), tuple(map(_hex, entry.cost)))
               for entry in schedule.entries]
    busy = [_hex(schedule.busy_cycles(name))
            for name in schedule.sub_accelerator_names]
    frames = [{key: _hex(value) for key, value in mapping.items()}
              for mapping in (schedule.instance_release_cycles,
                              schedule.instance_deadline_cycles)]
    return (entries, _hex(schedule.makespan_cycles),
            _hex(schedule.dynamic_energy_pj), busy,
            schedule.sub_accelerator_names, schedule.pes_per_sub_accelerator,
            _hex(schedule.clock_hz), schedule.instance_predecessors, frames)


def _renamed(acc, name):
    return acc._replace(name=name)


#: Two identical arrays: only their names order the preference rows.
_TWINS = (_renamed(golden_scheduler.build_sub_accelerators()[0], "x"),
          _renamed(golden_scheduler.build_sub_accelerators()[0], "y"))


def _mutated(name):
    """``(scheduler settings, design)`` before and after one change of a
    Fig. 8 input; each change moves the mixed4 golden schedule."""
    accs = golden_scheduler.build_sub_accelerators()
    slower = accs[1]._replace(bandwidth_bytes_per_s=gbps(1))
    return {
        "load_balance_factor": ({}, accs, {"load_balance_factor": None},
                                accs),
        "metric": ({}, accs, {"metric": "latency"}, accs),
        "name": ({}, _TWINS, {}, (_renamed(_TWINS[0], "z"), _TWINS[1])),
        "bandwidth": ({}, accs, {}, (accs[0], slower)),
        "ordering": ({}, accs, {"ordering": "depth"}, accs),
        "memory_limit": ({}, accs,
                         {"memory_limit_bytes":
                          golden_scheduler.MEMORY_LIMITS["mixed4"][1]}, accs),
    }[name]


class TestLastAssignment:
    """The scheduler keeps its last Fig. 8 assignment under its exact
    inputs, so a release-only change reuses it and any other change
    recomputes."""

    @pytest.mark.parametrize("change", ["load_balance_factor", "metric",
                                        "name", "bandwidth", "ordering",
                                        "memory_limit"])
    def test_a_changed_input_recomputes(self, cost_model, change):
        workload = golden_scheduler.build_workloads()["mixed4"]
        settings_before, before, settings_after, after = _mutated(change)
        scheduler = HeraldScheduler(cost_model, **settings_before)
        first = scheduler.schedule(workload, before)
        for attribute, value in settings_after.items():
            setattr(scheduler, attribute, value)
        again = scheduler.schedule(workload, after)
        fresh = HeraldScheduler(cost_model, **settings_after).schedule(
            workload, after)
        assert _exact_fields(again) == _exact_fields(fresh)
        assert _timeline_tuples(fresh) != _timeline_tuples(first), \
            "the change must move the schedule for this test to bite"

    def test_a_release_only_change_reuses_the_assignment(self, cost_model):
        workload = golden_scheduler.build_workloads()["mixed4"]
        accs = golden_scheduler.build_sub_accelerators()
        scheduler = HeraldScheduler(cost_model)
        batch = scheduler.schedule(workload, accs)
        entry = scheduler._last_assignment
        releases = {instance.instance_id: 1e5 * index for index, instance
                    in enumerate(workload.instances())}
        online = scheduler.schedule(workload, accs, release_cycles=releases)
        assert scheduler._last_assignment is entry
        assert _exact_fields(online) == _exact_fields(
            HeraldScheduler(cost_model).schedule(workload, accs,
                                                 release_cycles=releases))
        assert _timeline_tuples(online) != _timeline_tuples(batch)

    def test_pickled_scheduler_carries_no_entry(self, cost_model):
        workload = golden_scheduler.build_workloads()["chain"]
        accs = golden_scheduler.build_sub_accelerators()
        scheduler = HeraldScheduler(cost_model)
        before = scheduler.schedule(workload, accs)
        assert scheduler._last_assignment is not None
        clone = pickle.loads(pickle.dumps(scheduler))
        assert clone._last_assignment is None
        assert scheduler._last_assignment is not None, \
            "pickling must not clear the original"
        assert _exact_fields(clone.schedule(workload, accs)) \
            == _exact_fields(before)

    @given(cases=st.lists(_dag_scenarios(), min_size=1, max_size=2),
           steps=st.lists(st.tuples(
               st.integers(min_value=0, max_value=1),
               st.sampled_from(["prefix", "reversed", "twins",
                                "twins-renamed"]),
               st.sampled_from([None, 1e3, 1e5]),
               st.sampled_from(["edp", "latency"]),
               st.sampled_from([None, 1.25])), min_size=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_one_scheduler_equals_fresh_ones(self, cases, steps):
        """One scheduler driven through a random sequence of (workload,
        design, release map, metric, load balance) equals a fresh
        scheduler at every step, field by field."""
        config = cases[0][3]
        scheduler = HeraldScheduler(
            _REFERENCE_MODEL, ordering=config["ordering"],
            memory_limit_bytes=config["memory_limit_bytes"],
            enable_post_processing=config["enable_post_processing"])
        for case, variant, release, metric, lb in steps:
            workload, accs, _, _ = cases[case % len(cases)]
            if variant == "reversed":
                accs = tuple(reversed(accs))
            elif variant.startswith("twins"):
                # Equal hardware: only the names order the preferences.
                names = ("t1", "t0") if variant == "twins" else ("t1", "t2")
                accs = tuple(_renamed(accs[0], name) for name in names)
            releases = None if release is None else {
                instance.instance_id: release * index
                for index, instance in enumerate(workload.instances())}
            scheduler.metric = metric
            scheduler.load_balance_factor = lb
            schedule = scheduler.schedule(workload, accs,
                                          release_cycles=releases)
            fresh = HeraldScheduler(
                _REFERENCE_MODEL, metric=metric, ordering=config["ordering"],
                load_balance_factor=lb,
                memory_limit_bytes=config["memory_limit_bytes"],
                enable_post_processing=config["enable_post_processing"],
            ).schedule(workload, accs, release_cycles=releases)
            assert _exact_fields(schedule) == _exact_fields(fresh)


class TestScheduleAccountingProperties:
    """Accounting properties the paper's model implies, over the same random
    DAG x release x memory-limit x post-processing x 1-4 sub-accelerator
    scenarios as the reference comparison."""

    @given(case=_dag_scenarios())
    @settings(max_examples=120, deadline=None)
    def test_accounting_identities_and_lower_bound(self, case):
        workload, accs, release_cycles, config = case
        model = _REFERENCE_MODEL
        schedule = HeraldScheduler(model, **config).schedule(
            workload, accs, release_cycles=release_cycles)
        by_name = {acc.name: acc for acc in accs}
        entries = list(schedule.entries)
        assert len(entries) == len(schedule) == workload.total_layers

        # The cached totals are bitwise the sums over the materialised
        # entries, in commit order.
        makespan = max((entry.finish_cycle for entry in entries), default=0.0)
        dynamic = 0.0
        busy = dict.fromkeys(schedule.sub_accelerator_names, 0.0)
        for entry in entries:
            assert entry.cost == model.layer_cost(
                entry.layer, by_name[entry.sub_accelerator])
            dynamic += entry.cost.energy_pj
            busy[entry.sub_accelerator] += entry.finish_cycle - entry.start_cycle
        assert schedule.makespan_cycles.hex() == makespan.hex()
        assert schedule.dynamic_energy_pj.hex() == dynamic.hex()
        for name, cycles in busy.items():
            assert schedule.busy_cycles(name).hex() == cycles.hex()

        # Total energy = sum of per-layer LayerCost energy + idle energy.
        leakage = model.energy_table.leakage_per_cycle_per_pe
        idle = 0.0
        for name, cycles in busy.items():
            idle += max(0.0, makespan - cycles) * by_name[name].num_pes * leakage
        assert schedule.total_energy_pj == dynamic + idle

        # Makespan >= max(release-aware critical path with every layer on
        # its fastest sub-accelerator, best-case work / sub-accelerators).
        releases = release_cycles or {}
        critical_path = 0.0
        work = 0.0
        for instance in workload.instances():
            predecessors = instance.predecessor_indices()
            earliest_finish = []
            for index, layer in enumerate(instance.layers_in_dependence_order()):
                fastest = min(model.layer_cost(layer, acc).latency_cycles
                              for acc in accs)
                work += fastest
                ready = max([releases.get(instance.instance_id, 0.0)]
                            + [earliest_finish[p] for p in predecessors[index]])
                earliest_finish.append(ready + fastest)
            critical_path = max(critical_path, max(earliest_finish))
        assert schedule.makespan_cycles >= critical_path
        assert schedule.makespan_cycles >= (work / len(accs)) * (1 - 1e-12)


# ---------------------------------------------------------------------------
# Memo keying regressions (the shape-key bugfixes this PR pins)
# ---------------------------------------------------------------------------

class TestShapeKeyedMemoBugfix:
    """The activity record, the one memo of a mapping and its reuse
    analysis, keys on shape, not layer identity.

    The mapping and reuse memos were historically keyed on the full frozen
    ``Layer`` — whose ``__eq__``/``__hash__`` include ``name`` and
    ``model_name`` — so renamed same-shape layers (batches, repeated blocks,
    per-model clones) each paid a fresh mapper search and reuse analysis and
    each occupied a memo slot.  ``build_mapping`` calls are counted by
    monkeypatch: one per activity record.
    """

    _SHAPE = dict(k=8, c=4, y=16, x=16, r=3, s=3)

    def test_renamed_layer_hits_same_mapping_entry(self, monkeypatch):
        built = _count_mappings(monkeypatch)
        model = CostModel()
        layer = conv2d("block1", model_name="net-a", **self._SHAPE)
        first = model.layer_cost(layer, _sub())
        second = model.layer_cost(
            layer.renamed("block9", model_name="net-b"), _sub())
        assert second is first
        assert (model.hits, model.misses) == (1, 1)
        assert len(built) == len(model._activities) == 1

    def test_mapping_cache_size_is_per_shape_not_per_name(self, monkeypatch):
        """Renamed clones on arrays that differ only in bandwidth miss the
        cost memo but share one activity record: one mapping is built."""
        built = _count_mappings(monkeypatch)
        model = CostModel()
        layer = conv2d("base", **self._SHAPE)
        for index in range(6):
            acc = SubAcceleratorConfig(
                name=f"acc{index}", dataflow=NVDLA, num_pes=128,
                bandwidth_bytes_per_s=gbps(index + 1), buffer_bytes=mib(1))
            model.layer_cost(layer.renamed(f"clone{index}",
                                           model_name=f"model{index}"), acc)
        assert model.misses == 6
        assert len(built) == len(model._activities) == 1

    def test_bandwidth_splits_share_one_activity_record_per_shape(
            self, monkeypatch):
        """K bandwidth splits of one (style, PEs, buffer) array run one reuse
        analysis per shape — renamed clones included — and still compute
        K x shapes cost entries."""
        from repro.maestro import cost as cost_module
        analyse = cost_module.analyse_reuse
        analysed = []

        def counting(mapping, buffer_bytes):
            analysed.append(mapping.layer.shape_key)
            return analyse(mapping, buffer_bytes)

        monkeypatch.setattr(cost_module, "analyse_reuse", counting)
        shapes = [conv2d("a", **self._SHAPE), fc("b", k=64, c=32),
                  conv2d("c", k=16, c=8, y=8, x=8, r=1, s=1)]
        layers = shapes + [layer.renamed(f"{layer.name}-copy", model_name="m")
                           for layer in shapes]
        splits = [SubAcceleratorConfig(
            name=f"split{index}", dataflow=NVDLA, num_pes=128,
            bandwidth_bytes_per_s=gbps(bandwidth),
            dram_bandwidth_bytes_per_s=gbps(bandwidth / 2),
            buffer_bytes=mib(1)) for index, bandwidth in enumerate((1, 2, 4, 8))]
        model = CostModel()
        assert model.prewarm(layers, splits) == len(splits) * len(shapes)
        assert sorted(analysed) == sorted(layer.shape_key for layer in shapes)
        assert model.misses == len(splits) * len(shapes)

    def test_arvr_a_cold_pass_hit_counts_on_the_edge_split(self):
        """One cold pass of AR/VR-A over a two-way edge split (NVDLA +
        Shi-diannao, half the PEs and NoC bandwidth each, full buffer)
        computes each (shape, array) pair once: 156 of 824 queries miss.
        The counts depend only on the memo key, so an identity field that
        leaks back into it shows up here as extra misses."""
        chip = ACCELERATOR_CLASSES["edge"]
        accs = tuple(
            SubAcceleratorConfig(
                name=f"acc{index}", dataflow=style,
                num_pes=chip.num_pes // 2,
                bandwidth_bytes_per_s=chip.noc_bandwidth_bytes_per_s / 2,
                buffer_bytes=chip.global_buffer_bytes,
                clock_hz=chip.clock_hz)
            for index, style in enumerate((NVDLA, SHIDIANNAO)))
        model = CostModel()
        for instance in arvr_a().instances():
            for layer in instance.layers_in_dependence_order():
                for acc in accs:
                    model.layer_cost(layer, acc)
        assert (model.hits, model.misses, model.cache_stats()["entries"]) \
            == (668, 156, 156)

    def test_fig11_cell_activity_records_stop_at_the_saturation(
            self, monkeypatch):
        """A cold ``herald dse`` cell (AR/VR-A on cloud, the stock search)
        keys activity records on ``min(PEs, saturation)``: 1,111 records,
        one mapping built for each, for its 5,226 cost entries, where a
        record per PE count took 2,106."""
        built = _count_mappings(monkeypatch)
        model = CostModel()
        search = search_from_spec({})
        HeraldDSE(backend=SerialBackend(cost_model=model),
                  partition_search=search).explore(
                      arvr_a(), ACCELERATOR_CLASSES["cloud"])
        assert (len(model._activities), len(built),
                model.misses) == (1111, 1111, 5226)


# ---------------------------------------------------------------------------
# Shared read-mostly pool cost table
# ---------------------------------------------------------------------------

class TestSharedPoolTable:
    def test_pool_results_reference_the_parent_table(self, tiny_chip,
                                                     small_workload):
        """The pool prewarms its parent table and returns the parent's own
        memo entries, not copies: every ``LayerCost`` (a tuple record, so
        this pins the snapshot pickler for a tuple subclass) *is* a parent
        entry.  The schedules equal their serial twins."""
        tasks = [EvaluationTask(i, design, small_workload)
                 for i, design in enumerate(enumerate_fdas(tiny_chip))]
        model = CostModel()
        results = ProcessPoolBackend(jobs=2, cost_model=model).run(tasks)
        memo = {id(cost): cost for _, cost in model.cache_items()}
        serial = SerialBackend().run(tasks)
        for ours, theirs in zip(results, serial):
            costs = [entry.cost for entry in ours.schedule.entries]
            assert costs
            assert all(memo.get(id(cost)) is cost for cost in costs)
            assert ours.schedule == theirs.schedule


class TestPoolWorkers:
    """``--jobs N`` gets one worker per POOL_PLACEMENTS_PER_WORKER layer
    placements, at most N; a sweep that gets one runs in-process."""

    def test_worker_count(self):
        per_worker = backends.POOL_PLACEMENTS_PER_WORKER
        assert pool_workers(1, 100 * per_worker) == 1
        assert pool_workers(2, 0) == 1
        assert pool_workers(2, per_worker - 1) == 1
        assert pool_workers(2, per_worker) == 1
        assert pool_workers(2, 2 * per_worker - 1) == 1
        assert pool_workers(2, 2 * per_worker) == 2
        assert pool_workers(4, 3 * per_worker) == 3
        assert pool_workers(4, 100 * per_worker) == 4

    def test_zero_break_even_pools_any_real_sweep(self, monkeypatch):
        monkeypatch.setattr(backends, "POOL_PLACEMENTS_PER_WORKER", 0)
        assert pool_workers(2, 1) == 1
        assert pool_workers(2, 7828) == 2
