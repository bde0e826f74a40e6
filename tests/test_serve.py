"""Tests for the streaming serving subsystem (traces, simulator, SLA, golden).

Four contracts are pinned here:

1. **Trace determinism and shape.**  Arrival traces are pure functions of
   their spec (seeded jitter included), time-dilate correctly under rate
   scaling, and expand into release/deadline maps aligned with the workload's
   instance ids.

2. **Batch equivalence.**  The online scheduling path fed an all-zero release
   trace reproduces the *batch* golden corpus (192 scenarios generated from
   the seed implementation) bit-for-bit — streaming support must not perturb
   a single batch scheduling decision.

3. **Streaming goldens.**  The chain/diamond/UNet x {uniform, jittered} x
   metric x load-balance matrix (``tests/golden/streaming_timelines.json``)
   pins the online path's timelines and SLA summaries exactly, and a
   4-worker process pool reproduces the serial results.

4. **SLA objective.**  ``metric="sla"`` ranks zero-miss partitions ahead of
   deadline-missing ones and breaks ties on p99 tail latency, in both
   :class:`PartitionSearch` and :meth:`DSEResult.best`.
"""

from __future__ import annotations

import pickle

import pytest

import golden_scheduler
from repro.core import GreedyScheduler, HeraldScheduler, PartitionSearch
from repro.core.dse import DesignSpacePoint, DSEResult
from repro.core.evaluator import evaluate_design, streaming_parts
from repro.dataflow.styles import NVDLA, SHIDIANNAO
from repro.exceptions import SchedulingError, WorkloadError
from repro.exec import EvaluationTask, ProcessPoolBackend, SerialBackend
from repro.maestro.cost import CostModel
from repro.models.graph import ModelGraph
from repro.models.layer import conv2d, fc, pwconv
from repro.serve import (
    DROP_DEADLINE_FACTOR,
    MODEL_TARGET_FPS,
    ServingSimulator,
    StreamSpec,
    StreamingWorkload,
    SustainedFpsResult,
    build_serving_report,
    streaming_suite,
    sustained_fps,
)
from repro.units import seconds_to_cycles
from repro.workloads.spec import WorkloadSpec
from schedule_oracle import schedule_from_entries, validate_schedule
from support import partition_driver


def _timeline(schedule):
    return [(e.instance_id, e.layer_index, e.sub_accelerator, e.start_cycle,
             e.finish_cycle) for e in schedule.entries]


def _mini_models():
    neta = ModelGraph.from_layers("neta", [
        conv2d("c1", k=16, c=3, y=34, x=34, r=3, s=3),
        pwconv("p1", k=32, c=16, y=32, x=32),
        fc("f", k=10, c=32),
    ])
    netb = ModelGraph.from_layers("netb", [
        pwconv("p1", k=64, c=32, y=16, x=16),
        fc("f", k=10, c=64),
    ])
    return neta, netb


def _mini_streaming(jitter_s: float = 0.0, fps_a: float = 2000.0,
                    fps_b: float = 4000.0) -> StreamingWorkload:
    neta, netb = _mini_models()
    return StreamingWorkload("mini-stream", streams=[
        StreamSpec("neta", fps=fps_a, frames=3, jitter_s=jitter_s, seed=7),
        StreamSpec("netb", fps=fps_b, frames=4, phase_s=1e-4),
    ], models={"neta": neta, "netb": netb})


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

class TestStreamSpec:
    def test_periodic_release_times(self):
        spec = StreamSpec("m", fps=100.0, frames=3)
        assert spec.release_times_s() == (0.0, 0.01, 0.02)

    def test_phase_offsets_every_frame(self):
        spec = StreamSpec("m", fps=100.0, frames=2, phase_s=0.004)
        assert spec.release_times_s() == (0.004, 0.014)

    def test_jitter_is_deterministic_and_bounded(self):
        spec = StreamSpec("m", fps=100.0, frames=50, jitter_s=0.002, seed=5)
        first = spec.release_times_s()
        assert first == spec.release_times_s()
        for index, release in enumerate(first):
            nominal = index * 0.01
            assert abs(release - nominal) <= 0.002 + 1e-12
            assert release >= 0.0

    def test_different_seeds_or_models_draw_different_jitter(self):
        base = StreamSpec("m", fps=100.0, frames=10, jitter_s=0.002, seed=5)
        other_seed = StreamSpec("m", fps=100.0, frames=10, jitter_s=0.002, seed=6)
        other_model = StreamSpec("n", fps=100.0, frames=10, jitter_s=0.002, seed=5)
        assert base.release_times_s() != other_seed.release_times_s()
        assert base.release_times_s() != other_model.release_times_s()

    def test_default_deadline_is_one_period(self):
        assert StreamSpec("m", fps=50.0, frames=1).effective_deadline_s == \
            pytest.approx(0.02)
        assert StreamSpec("m", fps=50.0, frames=1,
                          deadline_s=0.005).effective_deadline_s == 0.005

    def test_scaled_is_a_uniform_time_dilation(self):
        spec = StreamSpec("m", fps=100.0, frames=3, phase_s=0.004,
                          jitter_s=0.001, deadline_s=0.02)
        fast = spec.scaled(2.0)
        assert fast.fps == pytest.approx(200.0)
        assert fast.phase_s == pytest.approx(0.002)
        assert fast.jitter_s == pytest.approx(0.0005)
        assert fast.deadline_s == pytest.approx(0.01)
        # Jitter-free releases scale exactly.
        jitterless = StreamSpec("m", fps=100.0, frames=3, phase_s=0.004)
        scaled = jitterless.scaled(2.0)
        for slow, quick in zip(jitterless.release_times_s(),
                               scaled.release_times_s()):
            assert quick == pytest.approx(slow / 2.0)

    @pytest.mark.parametrize("kwargs", [
        {"fps": 0.0}, {"fps": -1.0}, {"frames": 0}, {"phase_s": -0.1},
        {"jitter_s": -0.1}, {"deadline_s": 0.0},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        base = {"model_name": "m", "fps": 30.0, "frames": 2}
        base.update(kwargs)
        with pytest.raises(WorkloadError):
            StreamSpec(**base)


class TestStreamingWorkload:
    def test_expansion_ids_align_with_release_map(self):
        streaming = _mini_streaming()
        spec = streaming.to_workload_spec()
        instance_ids = {instance.instance_id for instance in spec.instances()}
        releases = streaming.release_times_s()
        deadlines = streaming.deadlines_s()
        assert set(releases) == instance_ids
        assert set(deadlines) == instance_ids
        for instance_id, release in releases.items():
            assert deadlines[instance_id] > release

    def test_duplicate_model_streams_rejected(self):
        neta, _ = _mini_models()
        with pytest.raises(WorkloadError):
            StreamingWorkload("dup", streams=[
                StreamSpec("neta", fps=10.0, frames=1),
                StreamSpec("neta", fps=20.0, frames=1),
            ], models={"neta": neta})

    def test_empty_workload_rejected(self):
        with pytest.raises(WorkloadError):
            StreamingWorkload("empty", streams=[])

    def test_pickle_round_trip_preserves_traces(self):
        streaming = _mini_streaming(jitter_s=0.0005)
        clone = pickle.loads(pickle.dumps(streaming))
        assert clone.release_times_s() == streaming.release_times_s()
        assert clone.deadlines_s() == streaming.deadlines_s()
        assert "_spec" not in clone.__dict__

    def test_streaming_parts_duck_typing(self):
        streaming = _mini_streaming()
        spec, detected = streaming_parts(streaming)
        assert isinstance(spec, WorkloadSpec)
        assert detected is streaming
        plain = WorkloadSpec(name="w", entries=[("neta", 1)],
                             models={"neta": _mini_models()[0]})
        assert streaming_parts(plain) == (plain, None)

    def test_cycle_conversion_lives_on_the_workload(self):
        streaming = _mini_streaming()
        clock = 2.0e9
        releases = streaming.release_cycles(clock)
        deadlines = streaming.deadline_cycles(clock)
        for instance_id, release_s in streaming.release_times_s().items():
            assert releases[instance_id] == pytest.approx(release_s * clock)
        for instance_id, deadline_s in streaming.deadlines_s().items():
            assert deadlines[instance_id] == pytest.approx(deadline_s * clock)

    def test_streams_cannot_be_mutated(self):
        """The expansion is built once per workload, so its streams are a
        tuple fixed at construction and no attribute can be rebound."""
        streaming = streaming_suite("arvr-a", frames=2)
        spec = streaming.to_workload_spec()
        replacement = StreamSpec("resnet50", fps=streaming.streams[0].fps,
                                 frames=3)
        with pytest.raises(TypeError):
            streaming.streams[0] = replacement
        with pytest.raises(AttributeError):
            streaming.streams.append(replacement)
        for name in ("streams", "models", "name"):
            with pytest.raises(AttributeError):
                setattr(streaming, name, None)
            with pytest.raises(AttributeError):
                delattr(streaming, name)
        assert streaming.to_workload_spec() is spec
        assert streaming.total_frames == len(spec.instances()) == 20

    def test_caller_lists_do_not_reach_the_workload(self, cost_model):
        """Changing the list or the graph mapping a workload was built from
        changes neither the workload nor what it schedules."""
        neta, netb = _mini_models()
        streams = [StreamSpec("neta", fps=100.0, frames=2)]
        models = {"neta": neta}
        streaming = StreamingWorkload("w", streams=streams, models=models)
        streams.append(StreamSpec("netb", fps=100.0, frames=2))
        models["netb"] = netb
        assert [s.model_name for s in streaming.streams] == ["neta"]
        assert streaming.models == {"neta": neta}
        result = ServingSimulator(HeraldScheduler(cost_model)).simulate(
            streaming, golden_scheduler.build_sub_accelerators())
        assert sorted(result.schedule.frame_records()) == ["neta#0", "neta#1"]
        assert result.report.total_frames == 2

    def test_streaming_suite_uses_fps_targets_and_folds_batches(self):
        streaming = streaming_suite("arvr-a", frames=2)
        by_model = {stream.model_name: stream for stream in streaming.streams}
        # arvr-a: resnet50 x2, unet x4, mobilenet_v2 x4 (Table II).
        resnet = by_model["resnet50"]
        assert resnet.fps == pytest.approx(2 * MODEL_TARGET_FPS["resnet50"])
        assert resnet.frames == 4
        # Folding batches must keep the single-source deadline.
        assert resnet.effective_deadline_s == \
            pytest.approx(1.0 / MODEL_TARGET_FPS["resnet50"])


# ---------------------------------------------------------------------------
# Online scheduler semantics
# ---------------------------------------------------------------------------

class TestOnlineScheduling:
    @pytest.fixture()
    def accs(self):
        return golden_scheduler.build_sub_accelerators()

    def test_releases_delay_starts(self, cost_model, accs):
        streaming = _mini_streaming()
        spec = streaming.to_workload_spec()
        clock = accs[0].clock_hz
        releases = {instance_id: seconds_to_cycles(release, clock)
                    for instance_id, release in
                    streaming.release_times_s().items()}
        scheduler = HeraldScheduler(cost_model)
        schedule = scheduler.schedule(spec, accs, release_cycles=releases)
        for entry in schedule.entries:
            assert entry.start_cycle >= releases[entry.instance_id] - 1e-6

    def test_unknown_instance_in_release_map_rejected(self, cost_model, accs):
        streaming = _mini_streaming()
        spec = streaming.to_workload_spec()
        with pytest.raises(SchedulingError):
            HeraldScheduler(cost_model).schedule(
                spec, accs, release_cycles={"ghost#0": 0.0})

    def test_negative_release_rejected(self, cost_model, accs):
        streaming = _mini_streaming()
        spec = streaming.to_workload_spec()
        with pytest.raises(SchedulingError):
            HeraldScheduler(cost_model).schedule(
                spec, accs, release_cycles={"neta#0": -1.0})

    def test_zero_release_trace_matches_batch_bit_for_bit(self, cost_model, accs):
        """All-releases-at-zero is the batch path, on every golden topology."""
        for workload in golden_scheduler.build_workloads().values():
            zero = {instance.instance_id: 0.0
                    for instance in workload.instances()}
            for post in (True, False):
                scheduler = HeraldScheduler(cost_model,
                                            enable_post_processing=post)
                assert _timeline(scheduler.schedule(workload, accs,
                                                    release_cycles=zero)) == \
                    _timeline(scheduler.schedule(workload, accs))

    def test_validation_catches_release_violation(self, accs):
        layer = fc("f", k=4, c=4)
        cost = CostModel().layer_cost(layer, accs[0])
        from repro.core.schedule import ScheduledLayer
        schedule = schedule_from_entries(
            (accs[0].name,),
            [ScheduledLayer(
                layer=layer, instance_id="m#0", layer_index=0,
                sub_accelerator=accs[0].name, start_cycle=100.0,
                finish_cycle=100.0 + cost.latency_cycles, cost=cost)],
            instance_predecessors={"m#0": (frozenset(),)},
            instance_release_cycles={"m#0": 500.0})
        with pytest.raises(SchedulingError, match="release"):
            validate_schedule(schedule)

    def test_greedy_scheduler_validates_release_map_like_herald(
            self, cost_model, accs):
        """Both schedulers reject the same invalid maps — a typo'd id must
        not be silently treated as released-at-zero."""
        spec = _mini_streaming().to_workload_spec()
        for scheduler in (HeraldScheduler(cost_model),
                          GreedyScheduler(cost_model)):
            with pytest.raises(SchedulingError):
                scheduler.schedule(spec, accs,
                                   release_cycles={"resnet50#00": 0.0})
            with pytest.raises(SchedulingError):
                scheduler.schedule(spec, accs,
                                   release_cycles={"neta#0": -5.0})

    def test_greedy_scheduler_honours_releases(self, cost_model, accs):
        streaming = _mini_streaming()
        spec = streaming.to_workload_spec()
        clock = accs[0].clock_hz
        releases = {instance_id: seconds_to_cycles(release, clock)
                    for instance_id, release in
                    streaming.release_times_s().items()}
        schedule = GreedyScheduler(cost_model).schedule(
            spec, accs, release_cycles=releases)
        for entry in schedule.entries:
            assert entry.start_cycle >= releases[entry.instance_id] - 1e-6

    def test_frame_summary_of_empty_schedule_is_zeroed(self):
        schedule = schedule_from_entries(("a",))
        summary = schedule.frame_summary()
        assert summary["frames"] == 0.0
        assert summary["deadline_miss_rate"] == 0.0


# ---------------------------------------------------------------------------
# Simulator and sustained FPS
# ---------------------------------------------------------------------------

class TestServingSimulator:
    @pytest.fixture()
    def accs(self):
        return golden_scheduler.build_sub_accelerators()

    def test_report_covers_every_stream_and_frame(self, cost_model, accs):
        streaming = _mini_streaming()
        simulator = ServingSimulator(HeraldScheduler(cost_model))
        result = simulator.simulate(streaming, accs)
        report = result.report
        assert [stats.model_name for stats in report.streams] == ["neta", "netb"]
        assert report.total_frames == streaming.total_frames == 7
        for stats in report.streams:
            assert stats.p50_latency_s <= stats.p95_latency_s <= stats.p99_latency_s
            assert stats.p99_latency_s <= stats.max_latency_s
            assert 0.0 <= stats.deadline_miss_rate <= 1.0
            assert stats.dropped_frames <= stats.missed_frames

    def test_widely_spaced_frames_have_isolated_latency(self, cost_model, accs):
        """At a very low rate each frame runs alone: latency == isolated
        inference latency for every frame of the stream."""
        neta, _ = _mini_models()
        streaming = StreamingWorkload("iso", streams=[
            StreamSpec("neta", fps=1.0, frames=3)], models={"neta": neta})
        simulator = ServingSimulator(HeraldScheduler(cost_model))
        result = simulator.simulate(streaming, accs)
        latencies = sorted(result.schedule.frame_latencies_s().values())
        assert latencies[-1] - latencies[0] < 1e-9
        stats = result.report.streams[0]
        assert stats.missed_frames == 0
        assert stats.backlogged_frames == 0

    def test_simulation_is_deterministic(self, cost_model, accs):
        streaming = _mini_streaming(jitter_s=0.0003)
        simulator = ServingSimulator(HeraldScheduler(cost_model))
        first = simulator.simulate(streaming, accs)
        second = simulator.simulate(streaming, accs)
        assert _timeline(first.schedule) == _timeline(second.schedule)
        assert first.report.summary() == second.report.summary()

    def test_overloaded_stream_backlogs_and_drops(self, cost_model, accs):
        """200-cycle periods: frames finish far past DROP_DEADLINE_FACTOR
        deadlines, so they drop as well as miss."""
        streaming = _mini_streaming(fps_a=5e6, fps_b=5e6)
        simulator = ServingSimulator(HeraldScheduler(cost_model))
        result = simulator.simulate(streaming, accs)
        report = result.report
        assert report.missed_frames > 0
        assert report.backlogged_frames > 0
        assert 0 < report.dropped_frames <= report.missed_frames
        assert not report.meets_sla
        latencies = result.schedule.frame_latencies_s()
        assert report.dropped_frames == sum(
            latencies[f"{stream.model_name}#{index}"]
            > DROP_DEADLINE_FACTOR * stream.effective_deadline_s
            for stream in streaming.streams for index in range(stream.frames))

    def test_reordered_arrivals_do_not_fabricate_backlog(self, cost_model,
                                                         accs):
        """When jitter reorders two arrivals, a frame that runs instantly
        relative to the stream's next *in-time* arrival is not backlogged —
        comparing against the next frame *index* would brand every reordered
        pair as backlog regardless of scheduler speed."""
        neta, _ = _mini_models()
        # Seed 0 releases frame 2 (t=1.50) before frame 1 (t=1.82), with all
        # in-time gaps >= 0.32 s — orders of magnitude above the ~ms inference
        # time, so every frame finishes well before the next in-time arrival.
        streaming = StreamingWorkload("reorder", streams=[
            StreamSpec("neta", fps=1.0, frames=3, jitter_s=0.9, seed=0)],
            models={"neta": neta})
        releases = streaming.streams[0].release_times_s()
        assert sorted(range(3), key=lambda i: releases[i]) != [0, 1, 2], \
            "seed no longer reorders; pick another"
        simulator = ServingSimulator(HeraldScheduler(cost_model))
        report = simulator.simulate(streaming, accs).report
        assert report.backlogged_frames == 0

    def test_report_summary_is_strict_json(self, cost_model, accs):
        import json
        report = ServingSimulator(HeraldScheduler(cost_model)).simulate(
            _mini_streaming(), accs).report
        json.dumps(report.summary(), allow_nan=False)


class TestSustainedFps:
    @pytest.fixture()
    def accs(self):
        return golden_scheduler.build_sub_accelerators()

    def test_feasible_at_upper_bracket_returns_hi(self, cost_model, accs):
        neta, _ = _mini_models()
        streaming = StreamingWorkload("easy", streams=[
            StreamSpec("neta", fps=0.5, frames=2)], models={"neta": neta})
        simulator = ServingSimulator(HeraldScheduler(cost_model))
        result = sustained_fps(simulator, streaming, accs, lo=0.5, hi=2.0,
                               iterations=2)
        assert result.factor == pytest.approx(2.0)
        assert result.fps_per_stream["neta"] == pytest.approx(1.0)

    def test_infeasible_at_lower_bracket_returns_zero(self, cost_model, accs):
        neta, _ = _mini_models()
        streaming = StreamingWorkload("hard", streams=[
            StreamSpec("neta", fps=1e7, frames=4)], models={"neta": neta})
        simulator = ServingSimulator(HeraldScheduler(cost_model))
        result = sustained_fps(simulator, streaming, accs, lo=0.9, hi=2.0,
                               iterations=2)
        assert result.factor == 0.0
        assert all(fps == 0.0 for fps in result.fps_per_stream.values())

    def test_bisection_lands_between_brackets(self, cost_model, accs):
        streaming = _mini_streaming()
        simulator = ServingSimulator(HeraldScheduler(cost_model))
        result = sustained_fps(simulator, streaming, accs, lo=1e-4, hi=64.0,
                               iterations=8)
        if 0.0 < result.factor < 64.0:
            # The found factor must itself meet the SLA.
            report = simulator.simulate(streaming.scaled(result.factor),
                                        accs).report
            assert report.meets_sla

    def test_probe_budget_is_exposed_not_hard_coded(self, cost_model, accs):
        """The probe count is a caller decision: ``iterations`` bounds the
        bisection exactly (bracket probes + at most ``iterations`` more)."""
        streaming = _mini_streaming()
        simulator = ServingSimulator(HeraldScheduler(cost_model))
        for iterations in (1, 3):
            result = sustained_fps(simulator, streaming, accs, lo=1e-4,
                                   hi=64.0, iterations=iterations)
            assert result.evaluations <= 2 + iterations

    def test_tolerance_stops_the_bisection_early(self, cost_model, accs):
        streaming = _mini_streaming()
        simulator = ServingSimulator(HeraldScheduler(cost_model))
        exhaustive = sustained_fps(simulator, streaming, accs, lo=1e-4,
                                   hi=64.0, iterations=10)
        coarse = sustained_fps(simulator, streaming, accs, lo=1e-4, hi=64.0,
                               iterations=10, tolerance=32.0)
        if 0.0 < exhaustive.factor < 64.0:
            # A bracket as wide as the tolerance stops immediately after the
            # bracket probes plus at most the probes needed to shrink to it.
            assert coarse.evaluations < exhaustive.evaluations
            # The early stop still returns a feasible operating point.
            report = simulator.simulate(streaming.scaled(coarse.factor),
                                        accs).report
            assert report.meets_sla

    def test_every_probe_equals_a_run_on_a_fresh_workload(self, cost_model,
                                                          accs):
        """Probes share the root workload's expansion and may stop at a
        frame's first certain miss; each probe's verdict must equal a full
        simulation of an independently built workload (fresh graphs,
        expansion, visit order and cost model), and a probe that ran to the
        end must have built that simulation's timeline."""
        probes = []

        class Recording(ServingSimulator):
            def _probe(self, streaming, sub_accelerators):
                schedule = super()._probe(streaming, sub_accelerators)
                meets = schedule is not None and build_serving_report(
                    streaming, schedule,
                    sub_accelerators[0].clock_hz).meets_sla
                probes.append((streaming, schedule, meets))
                return schedule

        result = sustained_fps(Recording(HeraldScheduler(cost_model)),
                               _mini_streaming(jitter_s=0.0002), accs)
        assert result == SustainedFpsResult(
            factor=5.00146484375,
            fps_per_stream={"neta": 10002.9296875, "netb": 20005.859375},
            evaluations=12)
        assert len(probes) == 12
        reference = ServingSimulator(HeraldScheduler(CostModel()))
        for probe, schedule, meets in probes:
            neta, netb = _mini_models()
            fresh = StreamingWorkload(probe.name, streams=list(probe.streams),
                                      models={"neta": neta, "netb": netb})
            expected = reference.simulate(fresh, accs)
            assert meets == expected.report.meets_sla
            if schedule is not None:
                assert _timeline(schedule) == _timeline(expected.schedule)
        assert {meets for _, _, meets in probes} == {True, False}
        assert any(schedule is None for _, schedule, _ in probes)

    def test_bisection_builds_one_visit_order(self, cost_model, accs,
                                              monkeypatch):
        """Rate scaling keeps the frame set, so all 12 probes share one
        expansion and hit the scheduler's memoised Fig. 8 visit order; the
        result is the one each probe building its own order gave."""
        from repro.core import scheduler as scheduler_module

        built = []
        original = scheduler_module._VisitOrder

        def counting(*fields):
            built.append(fields)
            return original(*fields)

        monkeypatch.setattr(scheduler_module, "_VisitOrder", counting)
        result = sustained_fps(ServingSimulator(HeraldScheduler(cost_model)),
                               _mini_streaming(jitter_s=0.0002), accs)
        assert result == SustainedFpsResult(
            factor=5.00146484375,
            fps_per_stream={"neta": 10002.9296875, "netb": 20005.859375},
            evaluations=12)
        assert len(built) == 1

    def test_bisection_assigns_once(self, cost_model, accs, monkeypatch):
        """The probes change only release times, which the Fig. 8
        assignment never reads, so the search assigns layers once and every
        probe reuses it; the result is the one each probe assigning anew
        gave."""
        assigned = []
        original = HeraldScheduler._assign

        def counting(self, *args):
            assigned.append(args)
            return original(self, *args)

        monkeypatch.setattr(HeraldScheduler, "_assign", counting)
        result = sustained_fps(ServingSimulator(HeraldScheduler(cost_model)),
                               _mini_streaming(jitter_s=0.0002), accs)
        assert result == SustainedFpsResult(
            factor=5.00146484375,
            fps_per_stream={"neta": 10002.9296875, "netb": 20005.859375},
            evaluations=12)
        assert len(assigned) == 1

    def test_already_sustained_skips_the_bisection(self, cost_model, accs):
        """Edge: feasible at the upper bracket — exactly two probes run."""
        neta, _ = _mini_models()
        streaming = StreamingWorkload("easy2", streams=[
            StreamSpec("neta", fps=0.25, frames=2)], models={"neta": neta})
        simulator = ServingSimulator(HeraldScheduler(cost_model))
        result = sustained_fps(simulator, streaming, accs, lo=0.5, hi=2.0,
                               iterations=8)
        assert result.factor == pytest.approx(2.0)
        assert result.evaluations == 2

    def test_all_missed_stops_after_one_probe(self, cost_model, accs):
        """Edge: infeasible at the lower bracket — one probe, zero rates."""
        neta, _ = _mini_models()
        streaming = StreamingWorkload("hard2", streams=[
            StreamSpec("neta", fps=1e7, frames=3)], models={"neta": neta})
        simulator = ServingSimulator(HeraldScheduler(cost_model))
        result = sustained_fps(simulator, streaming, accs, lo=1.0, hi=2.0,
                               iterations=8)
        assert result.factor == 0.0
        assert result.evaluations == 1
        assert "none" in result.describe()

    @pytest.mark.parametrize("kwargs", [
        dict(lo=0.0, hi=1.0),
        dict(lo=2.0, hi=1.0),
        dict(lo=-1.0, hi=1.0),
        dict(iterations=0),
        dict(tolerance=-0.1),
    ])
    def test_invalid_search_parameters_rejected(self, cost_model, accs,
                                                kwargs):
        streaming = _mini_streaming()
        simulator = ServingSimulator(HeraldScheduler(cost_model))
        with pytest.raises(ValueError):
            sustained_fps(simulator, streaming, accs, **kwargs)

    def test_zero_frame_report_meets_sla(self):
        """Edge: a report over zero frames (no streams simulated) misses
        nothing — the degenerate fixed point the searches bottom out on."""
        from repro.serve import ServingReport

        report = ServingReport(workload_name="empty", clock_hz=1e9)
        assert report.total_frames == 0
        assert report.deadline_miss_rate == 0.0
        assert report.meets_sla
        assert report.p99_latency_s == 0.0


# ---------------------------------------------------------------------------
# SLA objective in the search stack
# ---------------------------------------------------------------------------

class TestSlaObjective:
    def _point(self, missed: float, p99: float, edp: float):
        class _Result:
            def __init__(self):
                self.edp = edp

            def frame_summary(self):
                return {"missed_frames": missed, "p99_latency_s": p99,
                        "deadline_miss_rate": 1.0 if missed else 0.0}

        class _Point:
            def __init__(self):
                self.result = _Result()
                self.edp = edp

        return _Point()

    def test_partition_objective_prefers_zero_miss_over_lower_p99(self,
                                                                  cost_model):
        search = PartitionSearch(metric="sla")
        meets = search._objective(self._point(missed=0.0, p99=0.9, edp=5.0))
        misses = search._objective(self._point(missed=3.0, p99=0.1, edp=1.0))
        assert meets < misses

    def test_partition_objective_breaks_ties_on_p99_then_edp(self, cost_model):
        search = PartitionSearch(metric="sla")
        fast = search._objective(self._point(missed=0.0, p99=0.1, edp=9.0))
        slow = search._objective(self._point(missed=0.0, p99=0.2, edp=1.0))
        assert fast < slow
        cheap = search._objective(self._point(missed=0.0, p99=0.1, edp=1.0))
        assert cheap < fast

    def test_unknown_metric_still_rejected(self, cost_model):
        from repro.exceptions import SearchError
        with pytest.raises(SearchError):
            PartitionSearch(metric="bogus")

    def test_sla_search_on_streaming_workload(self, tiny_chip, cost_model):
        scheduler = HeraldScheduler(cost_model)
        search = PartitionSearch(pe_steps=4, bw_steps=1, metric="sla")
        best = search.best_point(
            partition_driver(search, cost_model, scheduler).search_partitions(
                _mini_streaming(), tiny_chip, [NVDLA, SHIDIANNAO]))
        frames = best.result.frame_summary()
        assert frames["frames"] == 7.0
        # The mini workload is easily served: the best point must meet SLA.
        assert frames["missed_frames"] == 0.0

    def test_evaluation_result_exposes_sla_properties(self, tiny_chip,
                                                      cost_model):
        scheduler = HeraldScheduler(cost_model)
        design = PartitionSearch(pe_steps=4, bw_steps=1).build_design(
            tiny_chip, [NVDLA, SHIDIANNAO], (128, 128), (4.0, 4.0))
        result = evaluate_design(design, _mini_streaming(),
                                 cost_model=cost_model, scheduler=scheduler)
        summary = result.frame_summary()
        assert result.p99_latency_s == summary["p99_latency_s"] > 0.0
        assert result.deadline_miss_rate == summary["deadline_miss_rate"]

    def test_dse_best_supports_sla(self, tiny_chip, cost_model):
        scheduler = HeraldScheduler(cost_model)
        streaming = _mini_streaming()
        design = PartitionSearch(pe_steps=4, bw_steps=1).build_design(
            tiny_chip, [NVDLA, SHIDIANNAO], (128, 128), (4.0, 4.0))
        meets = evaluate_design(design, streaming, cost_model=cost_model,
                                scheduler=scheduler)
        result = DSEResult(workload_name=streaming.name, chip_name="tiny")
        result.points.append(DesignSpacePoint(category="hda",
                                              design=meets.design,
                                              result=meets))
        best = result.best(metric="sla")
        assert best.result is meets


# ---------------------------------------------------------------------------
# Golden pinning
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden_streaming():
    return golden_scheduler.load_golden(golden_scheduler.STREAMING_FILE)


class TestStreamingGolden:
    def test_matrix_is_complete(self, golden_streaming):
        expected = golden_scheduler.streaming_scenario_keys()
        assert sorted(golden_streaming) == sorted(expected)
        assert len(expected) == 36

    def test_every_streaming_scenario_matches_bit_for_bit(self,
                                                          golden_streaming):
        current = golden_scheduler.generate_streaming_timelines()
        mismatched = [key for key in golden_streaming
                      if golden_streaming[key] != current[key]]
        assert mismatched == []

    def test_traces_actually_perturb_timelines(self, golden_streaming):
        """The jittered trace must not silently collapse onto the uniform one."""
        for key in golden_streaming:
            if "|uniform|" not in key:
                continue
            sibling = key.replace("|uniform|", "|jittered|")
            assert golden_streaming[key]["digest"] != \
                golden_streaming[sibling]["digest"]

    def test_deadline_misses_participate(self, golden_streaming):
        rates = {float(record["frame_summary"]["deadline_miss_rate"])
                 for record in golden_streaming.values()}
        assert any(rate > 0.0 for rate in rates)


class TestBatchCorpusEquivalence:
    def test_zero_release_pass_reproduces_the_batch_corpus(self):
        """The online path with an all-zero trace equals the 192-scenario
        batch golden corpus generated from the seed implementation."""
        golden = golden_scheduler.load_golden(golden_scheduler.TIMELINES_FILE)
        online = golden_scheduler.generate_timelines(zero_release=True)
        mismatched = [key for key in golden if golden[key] != online[key]]
        assert mismatched == []


class TestPoolParity:
    def test_jobs4_reproduces_serial_streaming_results(self, tiny_chip):
        streaming = _mini_streaming(jitter_s=0.0002)
        search = PartitionSearch(pe_steps=4, bw_steps=1)
        candidates = search.candidate_partitions(tiny_chip, 2)
        designs = [search.build_design(tiny_chip, [NVDLA, SHIDIANNAO], pes, bws)
                   for pes, bws in candidates]
        tasks = [EvaluationTask(index, design, streaming, category="hda")
                 for index, design in enumerate(designs)]
        serial = SerialBackend().run(tasks)
        pooled = ProcessPoolBackend(jobs=4).run(tasks)
        for left, right in zip(serial, pooled):
            assert _timeline(left.schedule) == _timeline(right.schedule)
            assert left.frame_summary() == right.frame_summary()
