"""Tests for DAG-aware dependence tracking in the scheduling stack.

Covers the Sec. III-A hard constraint done right: a layer waits only for its
*actual* producers, so independent branches of one model may overlap across
sub-accelerators, validation accepts DAG-ordered schedules while still
rejecting true producer/consumer overlaps, skip tensors stay live until their
last consumer, and the memory check defers to another ready instance before
falling back to the DRAM spill.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_scheduler
from repro.accel.builders import make_hda
from repro.accel.classes import EDGE
from repro.core.schedule import ScheduledLayer
from repro.core.scheduler import GreedyScheduler, HeraldScheduler
from repro.dataflow.styles import EYERISS, NVDLA, SHIDIANNAO
from repro.exceptions import SchedulingError
from repro.maestro.cost import CostModel
from repro.maestro.hardware import SubAcceleratorConfig
from repro.models.graph import ModelGraph
from repro.models.layer import conv2d, fc, pwconv
from repro.models.zoo import build_model
from repro.units import BYTES_PER_ELEMENT, gbps, mib
from repro.workloads.spec import WorkloadSpec
from schedule_oracle import (greedy_reference_schedule, schedule_from_entries,
                             validate_schedule)
from support import workload_from_models


def _diamond_model() -> ModelGraph:
    """stem -> {branch_channel, branch_act} -> merge.

    The two branch layers are independent and prefer opposite dataflows
    (deep channels vs large activations), so a two-way NVDLA + Shi-diannao
    HDA wants to run them concurrently.
    """
    graph = ModelGraph(name="diamond")
    graph.add_layer(conv2d("stem", k=3, c=3, y=130, x=130, r=3, s=3))
    graph.add_layer(pwconv("branch_channel", k=512, c=256, y=8, x=8))
    graph.add_layer(conv2d("branch_act", k=8, c=3, y=128, x=128, r=3, s=3))
    graph.add_layer(fc("merge", k=32, c=128))
    graph.add_edge("stem", "branch_channel")
    graph.add_edge("stem", "branch_act")
    graph.add_edge("branch_channel", "merge")
    graph.add_edge("branch_act", "merge")
    return graph


@pytest.fixture(scope="module")
def diamond_workload() -> WorkloadSpec:
    return workload_from_models("diamond-wl", [_diamond_model()], 1)


class TestGraphIndexSets:
    def test_chain_predecessor_indices_are_degenerate(self):
        graph = ModelGraph.from_layers(
            "chain", [fc("a", k=4, c=4), fc("b", k=4, c=4), fc("c", k=4, c=4)])
        assert graph.predecessor_indices() == (
            frozenset(), frozenset({0}), frozenset({1}))
        assert graph.successor_indices() == (
            frozenset({1}), frozenset({2}), frozenset())

    def test_diamond_predecessor_indices(self):
        preds = _diamond_model().predecessor_indices()
        assert preds[0] == frozenset()
        assert preds[1] == preds[2] == frozenset({0})
        assert preds[3] == frozenset({1, 2})

    def test_index_sets_track_graph_mutation(self):
        graph = ModelGraph.from_layers(
            "mut", [fc("a", k=4, c=4), fc("b", k=4, c=4), fc("c", k=4, c=4)])
        before = graph.predecessor_indices()
        graph.add_edge("a", "c")
        after = graph.predecessor_indices()
        assert before[2] == frozenset({1})
        assert after[2] == frozenset({0, 1})

    def test_instance_dependences_are_picklable(self, diamond_workload):
        import pickle
        dependences = diamond_workload.instance_dependences()
        assert pickle.loads(pickle.dumps(dependences)) == dependences


class TestBranchOverlap:
    def test_diamond_branches_overlap_on_two_way_hda(self, cost_model,
                                                     tiny_sub_accelerators,
                                                     diamond_workload):
        scheduler = HeraldScheduler(cost_model, load_balance_factor=None)
        schedule = scheduler.schedule(diamond_workload, tiny_sub_accelerators)
        by_name = {entry.layer.name: entry for entry in schedule.entries}
        channel = by_name["branch_channel"]
        act = by_name["branch_act"]
        assert channel.sub_accelerator != act.sub_accelerator
        # True overlap in time: each branch starts before the other finishes.
        assert channel.start_cycle < act.finish_cycle
        assert act.start_cycle < channel.finish_cycle
        # Both wait for the stem, the merge waits for both.
        stem = by_name["stem"]
        merge = by_name["merge"]
        assert min(channel.start_cycle, act.start_cycle) >= stem.finish_cycle
        assert merge.start_cycle >= max(channel.finish_cycle, act.finish_cycle)

    def test_diamond_beats_chain_serialization(self, cost_model,
                                               tiny_sub_accelerators,
                                               diamond_workload):
        # The DAG makespan must beat executing the same assignment as a chain.
        schedule = HeraldScheduler(cost_model, load_balance_factor=None).schedule(
            diamond_workload, tiny_sub_accelerators)
        serialized = sum(entry.finish_cycle - entry.start_cycle
                         for entry in schedule.entries)
        assert schedule.makespan_cycles < serialized

    def test_replay_without_post_processing_is_dag_aware(self, cost_model,
                                                         tiny_sub_accelerators,
                                                         diamond_workload):
        scheduler = HeraldScheduler(cost_model, load_balance_factor=None,
                                    enable_post_processing=False)
        schedule = scheduler.schedule(diamond_workload, tiny_sub_accelerators)
        by_name = {entry.layer.name: entry for entry in schedule.entries}
        assert (by_name["merge"].start_cycle
                >= max(by_name["branch_channel"].finish_cycle,
                       by_name["branch_act"].finish_cycle))

    def test_unet_skip_connections_schedule_validly(self, cost_model,
                                                    tiny_sub_accelerators):
        unet = build_model("unet")
        for level in range(1, 5):
            producers = [p.name for p in unet.predecessors(f"dec{level}_conv1")]
            assert f"enc{level}_conv2" in producers
        workload = workload_from_models("unet-wl", [unet], 1)
        schedule = HeraldScheduler(cost_model).schedule(workload,
                                                        tiny_sub_accelerators)
        # The conftest hook validated it; it must also pass explicitly with
        # the DAG dependence info attached.
        assert schedule.instance_predecessors["unet#0"]
        validate_schedule(schedule, {"unet#0": len(unet)})


def _make_cost(layer):
    sub = SubAcceleratorConfig("acc", NVDLA, num_pes=64,
                               bandwidth_bytes_per_s=gbps(4), buffer_bytes=mib(1))
    return CostModel().layer_cost(layer, sub)


def _entry(name, index, acc, start, finish, instance="d#0"):
    layer = fc(name, k=8, c=8)
    return ScheduledLayer(layer=layer, instance_id=instance, layer_index=index,
                          sub_accelerator=acc, start_cycle=start,
                          finish_cycle=finish, cost=_make_cost(layer))


def _diamond_predecessors():
    return {"d#0": (frozenset(), frozenset({0}), frozenset({0}),
                    frozenset({1, 2}))}


class TestDagValidation:
    def _dag_schedule(self, merge_start=300.0,
                      predecessors=_diamond_predecessors()):
        return schedule_from_entries(
            ("a0", "a1"),
            [_entry("stem", 0, "a0", 0, 100),
             _entry("b1", 1, "a0", 100, 300),
             _entry("b2", 2, "a1", 100, 250),
             _entry("merge", 3, "a1", merge_start, merge_start + 50)],
            clock_hz=1e9, instance_predecessors=predecessors)

    def test_branch_parallel_schedule_accepted(self):
        # Layer index 2 starts before index 1 finishes — illegal for a chain,
        # legal for the diamond DAG.
        validate_schedule(self._dag_schedule(), expected_layers={"d#0": 4})

    def test_same_schedule_rejected_under_chain_semantics(self):
        schedule = self._dag_schedule(predecessors=None)
        with pytest.raises(SchedulingError):
            validate_schedule(schedule)

    def test_true_producer_consumer_overlap_rejected(self):
        # merge starts at 260, before branch b1 (a true producer) ends at 300.
        with pytest.raises(SchedulingError):
            validate_schedule(self._dag_schedule(merge_start=260.0))

    def test_missing_producer_rejected(self):
        schedule = schedule_from_entries(
            ("a0", "a1"),
            [_entry("stem", 0, "a0", 0, 100), _entry("merge", 3, "a1", 500, 550)],
            clock_hz=1e9, instance_predecessors=_diamond_predecessors())
        with pytest.raises(SchedulingError):
            validate_schedule(schedule)

    def test_duplicate_layer_index_still_rejected(self):
        schedule = schedule_from_entries(
            ("a0", "a1"),
            [_entry("stem", 0, "a0", 0, 100), _entry("stem2", 0, "a1", 0, 100)],
            clock_hz=1e9, instance_predecessors=_diamond_predecessors())
        with pytest.raises(SchedulingError):
            validate_schedule(schedule)

    def test_out_of_range_layer_index_rejected(self):
        schedule = schedule_from_entries(
            ("a0", "a1"), [_entry("ghost", 7, "a0", 0, 100)],
            clock_hz=1e9, instance_predecessors=_diamond_predecessors())
        with pytest.raises(SchedulingError):
            validate_schedule(schedule)


class TestSkipTensorLiveness:
    """Buffer liveness seen through the memory check's violation count.

    Two instances of a three-layer model under breadth ordering place
    ``a0 a1 b0 b1 c0 c1``; the budgets below are set in element units so that
    exactly one accounting of live tensors fits them.
    """

    def _schedule(self, graph, budget_elements, cost_model, accs):
        workload = workload_from_models(f"{graph.name}-wl", [graph], 2)
        scheduler = HeraldScheduler(
            cost_model, memory_limit_bytes=budget_elements * BYTES_PER_ELEMENT)
        schedule = scheduler.schedule(workload, accs)
        assert len(schedule) == workload.total_layers
        return scheduler.last_memory_violations

    def test_skip_tensor_live_until_last_consumer(self, cost_model,
                                                  tiny_sub_accelerators):
        graph = ModelGraph(name="skip")
        graph.add_layer(fc("a", k=32, c=8))
        graph.add_layer(fc("b", k=16, c=32))
        graph.add_layer(fc("c", k=8, c=48))
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("a", "c")  # skip connection
        # Placing c0 needs 48 + 8 elements plus instance 1's live a1 (32,
        # the skip tensor) and b1 (16): 104 > 100, and c1 symmetrically, so
        # one DRAM spill.  Counting only the most recent output (b1) would
        # need 72 and spill nothing.  A spilled c0 retires a0 and b0 (c0
        # consumed them), so c1 then fits.
        assert self._schedule(graph, 100, cost_model,
                              tiny_sub_accelerators) == 1

    def test_liveness_matches_chain_behaviour_without_skips(
            self, cost_model, tiny_sub_accelerators):
        graph = ModelGraph.from_layers(
            "plain", [fc("a", k=32, c=8), fc("b", k=16, c=32), fc("c", k=8, c=16)])
        # The peak is b0: a1 (32) live plus b0's own 32 + 16.  a0 retires
        # when b0 is placed, so b1 needs only b0's 16 plus its 48: keeping
        # a0 live there would need 96 and spill.
        assert self._schedule(graph, 80, cost_model,
                              tiny_sub_accelerators) == 0


class TestMemoryDeferral:
    def _two_speed_workload(self):
        big = ModelGraph.from_layers("bignet", [
            conv2d(f"big{i}", k=32, c=32, y=34, x=34, r=3, s=3) for i in range(3)
        ])
        tiny = ModelGraph.from_layers("tinynet", [
            fc(f"tiny{i}", k=16, c=16) for i in range(3)
        ])
        return workload_from_models("two-speed", [big, tiny], 1)

    def test_deferral_runs_fitting_instance_first(self, cost_model,
                                                  tiny_sub_accelerators):
        workload = self._two_speed_workload()
        scheduler = HeraldScheduler(cost_model, memory_limit_bytes=64 * 1024,
                                    enable_post_processing=False)
        schedule = scheduler.schedule(workload, tiny_sub_accelerators)
        ordered = sorted(schedule.entries,
                         key=lambda e: (e.start_cycle, e.finish_cycle))
        first_big = next(i for i, e in enumerate(ordered)
                         if e.instance_id == "bignet#0")
        last_tiny = max(i for i, e in enumerate(ordered)
                        if e.instance_id == "tinynet#0")
        # Every tiny layer fits the buffer budget, so deferral schedules the
        # whole tiny instance before spilling the first big layer.
        assert last_tiny < first_big
        # The big layers never fit: each one is a counted DRAM-spill fallback.
        assert scheduler.last_memory_violations == 3

    def test_no_deferral_without_memory_pressure(self, cost_model,
                                                 tiny_sub_accelerators):
        workload = self._two_speed_workload()
        scheduler = HeraldScheduler(cost_model, memory_limit_bytes=mib(512),
                                    enable_post_processing=False)
        schedule = scheduler.schedule(workload, tiny_sub_accelerators)
        assert scheduler.last_memory_violations == 0
        ordered = sorted(schedule.entries,
                         key=lambda e: (e.start_cycle, e.finish_cycle))
        # Breadth ordering interleaves the two instances when nothing defers.
        assert ordered[0].instance_id != ordered[1].instance_id


class TestSerialPoolParityOnDag:
    def test_backends_agree_on_dag_workload(self, tiny_chip):
        from repro.exec import EvaluationTask, ProcessPoolBackend, SerialBackend

        workload = workload_from_models(
            "dag-parity", [_diamond_model(), build_model("unet")], [2, 1])
        designs = [make_hda(tiny_chip, [NVDLA, SHIDIANNAO]),
                   make_hda(tiny_chip, [SHIDIANNAO, NVDLA])]
        tasks = [EvaluationTask(i, design, workload)
                 for i, design in enumerate(designs)]
        serial = SerialBackend().run(tasks)
        pooled = ProcessPoolBackend(jobs=2).run(tasks)
        assert len(serial) == len(pooled) == len(tasks)
        for ours, theirs in zip(pooled, serial):
            assert ours.latency_s == theirs.latency_s
            assert ours.energy_mj == theirs.energy_mj
            assert ours.edp == theirs.edp
            for mine, other in zip(ours.schedule.entries, theirs.schedule.entries):
                assert mine.layer.name == other.layer.name
                assert mine.sub_accelerator == other.sub_accelerator
                assert mine.start_cycle == other.start_cycle


# ---------------------------------------------------------------------------
# The greedy baseline waits only on true producers (Sec. III-A)
# ---------------------------------------------------------------------------
_GREEDY_COST_MODEL = CostModel()

_GREEDY_ARRAYS = (
    SubAcceleratorConfig("g0-nvdla", NVDLA, num_pes=128,
                         bandwidth_bytes_per_s=gbps(4), buffer_bytes=mib(1)),
    SubAcceleratorConfig("g1-shidiannao", SHIDIANNAO, num_pes=64,
                         bandwidth_bytes_per_s=gbps(4), buffer_bytes=mib(1)),
    SubAcceleratorConfig("g2-eyeriss", EYERISS, num_pes=96,
                         bandwidth_bytes_per_s=gbps(2), buffer_bytes=mib(1)),
)

#: Small layers of both kinds, so each array is somebody's preference.
_small_layers = st.one_of(
    st.builds(lambda k, c: ("fc", k, c),
              st.sampled_from([4, 16, 64, 256]),
              st.sampled_from([4, 16, 64, 256])),
    st.builds(lambda k, c, y: ("conv", k, c, y),
              st.sampled_from([4, 8, 32]), st.sampled_from([3, 8, 32]),
              st.sampled_from([6, 10, 18])),
)


@st.composite
def _dag_models(draw, name):
    """A model of 1-12 small layers whose layer ``j`` consumes a random
    subset of the earlier layers: a root, a chain link, a skip or a join.
    Every edge points forward, so the dependence order is insertion order."""
    graph = ModelGraph(name=name)
    for index, spec in enumerate(draw(st.lists(_small_layers, min_size=1,
                                               max_size=12))):
        if spec[0] == "fc":
            graph.add_layer(fc(f"l{index}", k=spec[1], c=spec[2]))
        else:
            _, k, c, y = spec
            graph.add_layer(conv2d(f"l{index}", k=k, c=c, y=y, x=y, r=3, s=3))
        for producer in draw(st.sets(st.integers(0, index - 1))
                             if index else st.just(set())):
            graph.add_edge(f"l{producer}", f"l{index}")
    return graph


def _finishes(schedule):
    return {(entry.instance_id, entry.layer_index):
            (entry.sub_accelerator, entry.finish_cycle)
            for entry in schedule.entries}


class TestGreedyBaselineOnDags:
    def test_greedy_runs_independent_branches_concurrently(self):
        workload = workload_from_models("diamond-wl", [_diamond_model()], 2)
        accs = make_hda(EDGE, [NVDLA, SHIDIANNAO]).sub_accelerators
        schedule = GreedyScheduler(_GREEDY_COST_MODEL).schedule(workload, accs)
        for instance in ("diamond#0", "diamond#1"):
            by_name = {entry.layer.name: entry for entry in schedule.entries
                       if entry.instance_id == instance}
            channel = by_name["branch_channel"]
            act = by_name["branch_act"]
            assert channel.sub_accelerator != act.sub_accelerator
            assert act.start_cycle < channel.finish_cycle
        # Waiting on the previous layer in dependence order instead of the
        # true producers serialises the branches.
        chained = greedy_reference_schedule(workload, accs, _GREEDY_COST_MODEL)
        assert (schedule.makespan_cycles, chained.makespan_cycles) \
            == (141460.5, 231122.5)

    @given(models=st.lists(st.integers(1, 2), min_size=1, max_size=2).filter(
               lambda batches: sum(batches) <= 3).flatmap(
               lambda batches: st.tuples(
                   st.tuples(*(_dag_models(f"m{index}")
                               for index in range(len(batches)))),
                   st.just(batches))),
           arrays=st.sampled_from([_GREEDY_ARRAYS[:2], _GREEDY_ARRAYS[1:],
                                   _GREEDY_ARRAYS]),
           metric=st.sampled_from(["edp", "latency", "energy"]),
           release_seed=st.one_of(st.none(), st.integers(0, 2**31)))
    @settings(max_examples=60, deadline=None)
    def test_configuration_matches_chain_waiting_reference(
            self, models, arrays, metric, release_seed):
        """Same assignment and replay order as the chain-waiting reference.
        A layer's producers never finish after the layer before it there,
        so no layer finishes later; on chain-like models (every layer
        consumes the one before it) the timelines are identical."""
        graphs, batches = models
        workload = workload_from_models("dag-wl", graphs, list(batches))
        releases = None
        if release_seed is not None:
            rng = random.Random(release_seed)
            releases = {instance.instance_id: rng.uniform(0.0, 1e5)
                        for instance in workload.instances()}
        schedule = GreedyScheduler(_GREEDY_COST_MODEL, metric=metric).schedule(
            workload, arrays, release_cycles=releases)
        reference = greedy_reference_schedule(workload, arrays,
                                              _GREEDY_COST_MODEL, metric,
                                              releases)
        validate_schedule(reference)
        chain_like = all(
            index - 1 in producers
            for graph in graphs
            for index, producers in enumerate(graph.predecessor_indices())
            if index)
        if chain_like:
            assert reference_scheduler.timeline(schedule) \
                == reference_scheduler.timeline(reference)
        else:
            ours = _finishes(schedule)
            theirs = _finishes(reference)
            assert ours.keys() == theirs.keys()
            for key, (acc, finish) in ours.items():
                assert acc == theirs[key][0]
                assert finish <= theirs[key][1]
