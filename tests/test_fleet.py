"""Tests for the fleet serving layer (router, fleet simulator, golden gate).

Four contracts are pinned here:

1. **Single-chip identity.**  A one-chip fleet under the passthrough policy
   is bit-for-bit the bare :class:`ServingSimulator` — checked structurally
   on every scenario of the 36-scenario *streaming* golden corpus (the
   fleet's per-chip schedule digest must equal the corpus record written for
   the single-chip path).

2. **Fleet goldens.**  The chain/diamond/unet/duo x fleet-composition x
   policy matrix (``tests/golden/fleet_timelines.json``, 40 scenarios) pins
   dispatch assignments, per-chip timelines, and the aggregated report
   exactly.

3. **Backend parity.**  Chips simulated through a 4-worker process pool
   reproduce the serial fleet results bit-for-bit.

4. **Routing semantics.**  Policy-specific unit behaviour: round-robin
   cycling, sticky per-stream affinity, earliest-completion preferring a
   faster chip on heterogeneous fleets, passthrough pinning chip 0, and the
   dispatch-plan partition invariant.
"""

from __future__ import annotations

import json
import math

import pytest

import golden_scheduler
from repro.core.scheduler import HeraldScheduler
from repro.exceptions import SearchError, WorkloadError
from repro.exec import ProcessPoolBackend, SerialBackend
from repro.maestro.cost import CostModel
from repro.serve import (
    DISPATCH_POLICY_NAMES,
    AutoscalePolicy,
    ChipFailure,
    FaultSpec,
    Fleet,
    FleetSimulator,
    FrameCostEstimator,
    FrameTrace,
    Router,
    ServingSimulator,
    StreamSpec,
    StreamingWorkload,
    min_chips_for_sla,
    policy_by_name,
)
from repro.serve import online
from repro.serve.online import OnlineEngine
from repro.serve.router import FrameRef, arrival_order


def _timeline(schedule):
    return [(e.instance_id, e.layer_index, e.sub_accelerator, e.start_cycle,
             e.finish_cycle) for e in schedule.entries]


@pytest.fixture(scope="module")
def golden_fleet():
    return golden_scheduler.load_golden(golden_scheduler.FLEET_FILE)


@pytest.fixture(scope="module")
def fleet_cost_model():
    """Module-scoped model so the golden sweep and unit tests stay warm."""
    return CostModel()


def _simulator(cost_model):
    return FleetSimulator(backend=SerialBackend(
        cost_model=cost_model, scheduler=HeraldScheduler(cost_model)))


# ---------------------------------------------------------------------------
# Golden gate
# ---------------------------------------------------------------------------
class TestFleetGolden:
    def test_matrix_is_complete(self, golden_fleet):
        keys = golden_scheduler.fleet_scenario_keys()
        assert len(keys) == 40
        assert sorted(golden_fleet) == sorted(keys)

    def test_every_fleet_scenario_matches_bit_for_bit(self, golden_fleet,
                                                      fleet_cost_model):
        for key in golden_scheduler.fleet_scenario_keys():
            fresh = golden_scheduler.run_fleet_scenario(key, fleet_cost_model)
            assert fresh == golden_fleet[key], f"fleet golden mismatch: {key}"

    def test_policies_actually_diverge(self, golden_fleet):
        """The matrix must exercise genuinely different dispatch decisions:
        on every multi-chip fleet at least two policies disagree."""
        for workload in golden_scheduler.FLEET_WORKLOADS:
            assignments = {
                policy: json.dumps(
                    golden_fleet[f"fleet|{workload}|2homo|{policy}"]
                    ["assignments"], sort_keys=True)
                for policy in ("round-robin", "least-outstanding",
                               "earliest-completion", "sticky")
            }
            assert len(set(assignments.values())) >= 2, (
                f"all policies produced one dispatch plan for {workload}")

    def test_heterogeneous_routing_prefers_the_faster_chip(self, golden_fleet):
        """On the 2-chip heterogeneous fleet the completion-aware policy must
        send a strict majority of frames to the full-resource chip."""
        for workload in golden_scheduler.FLEET_WORKLOADS:
            record = golden_fleet[
                f"fleet|{workload}|2hetero|earliest-completion"]
            full, quarter = record["frames_per_chip"]
            assert full > quarter


# ---------------------------------------------------------------------------
# Single-chip identity against the streaming corpus
# ---------------------------------------------------------------------------
class TestSingleChipIdentity:
    def test_passthrough_fleet_reproduces_streaming_corpus(self,
                                                           fleet_cost_model):
        """For all 36 streaming golden scenarios, the single-chip passthrough
        fleet's chip schedule must digest-match the corpus record (which pins
        the bare single-chip ``ServingSimulator`` path)."""
        golden = golden_scheduler.load_golden(golden_scheduler.STREAMING_FILE)
        chip = golden_scheduler.build_fleet_chip()
        for key in golden_scheduler.streaming_scenario_keys():
            config = golden_scheduler.parse_streaming_key(key)
            streaming = golden_scheduler.build_streaming_workload(
                config["workload"], config["trace"])
            scheduler = HeraldScheduler(
                fleet_cost_model, metric=config["metric"],
                load_balance_factor=config["load_balance_factor"])
            simulator = FleetSimulator(backend=SerialBackend(
                cost_model=fleet_cost_model, scheduler=scheduler))
            result = simulator.simulate(streaming, Fleet.homogeneous(chip, 1),
                                        policy="passthrough")
            schedule = result.chip_results[0].schedule
            entries = [
                [entry.instance_id, entry.layer_index, entry.layer.name,
                 entry.sub_accelerator, repr(entry.start_cycle),
                 repr(entry.finish_cycle), repr(entry.cost.latency_cycles),
                 repr(entry.cost.energy_pj)]
                for entry in schedule.entries
            ]
            digest = golden_scheduler.timeline_digest(entries)
            assert digest == golden[key]["digest"], (
                f"single-chip fleet diverged from the streaming corpus: {key}")

    def test_single_chip_fleet_report_equals_bare_simulator(self,
                                                            fleet_cost_model):
        streaming = golden_scheduler.build_fleet_streaming_workload("duo")
        chip = golden_scheduler.build_fleet_chip()
        for policy in ("passthrough",) + DISPATCH_POLICY_NAMES:
            scheduler = HeraldScheduler(fleet_cost_model)
            bare = ServingSimulator(scheduler).simulate(
                streaming, chip.sub_accelerators)
            fleet_result = _simulator(fleet_cost_model).simulate(
                streaming, Fleet.homogeneous(chip, 1), policy=policy)
            chip_result = fleet_result.chip_results[0]
            assert _timeline(chip_result.schedule) == _timeline(bare.schedule)
            assert ([stats.summary() for stats in chip_result.report.streams]
                    == [stats.summary() for stats in bare.report.streams])
            # Pooled fleet percentiles equal the bare schedule's pooled
            # frame statistics (one chip => pooling is the identity).
            frames = bare.schedule.frame_summary()
            report = fleet_result.report
            assert report.p99_latency_s == frames["p99_latency_s"]
            assert report.missed_frames == frames["missed_frames"]


# ---------------------------------------------------------------------------
# Backend parity
# ---------------------------------------------------------------------------
class TestBackendParity:
    @pytest.mark.parametrize("key", [
        "fleet|duo|2homo|earliest-completion",
        "fleet|chain|4homo|round-robin",
    ])
    def test_jobs4_reproduces_serial_fleet_results(self, key):
        config = golden_scheduler.parse_fleet_key(key)
        streaming = golden_scheduler.build_fleet_streaming_workload(
            config["workload"])
        fleet = golden_scheduler.build_fleet(config["fleet"])

        def run(backend_cls, **kwargs):
            model = CostModel()
            backend = backend_cls(cost_model=model,
                                  scheduler=HeraldScheduler(model), **kwargs)
            simulator = FleetSimulator(backend=backend)
            return simulator.simulate(streaming, fleet,
                                      policy=config["policy"])

        serial = run(SerialBackend)
        pooled = run(ProcessPoolBackend, jobs=4)
        assert serial.plan.assignments == pooled.plan.assignments
        for left, right in zip(serial.chip_results, pooled.chip_results):
            if left.schedule is None:
                assert right.schedule is None
                continue
            assert _timeline(left.schedule) == _timeline(right.schedule)
        assert serial.report.summary() == pooled.report.summary()


# ---------------------------------------------------------------------------
# Fleet / router construction and semantics
# ---------------------------------------------------------------------------
def _mini_streaming():
    workloads = golden_scheduler.build_workloads()
    models = {"chainnet": workloads["chain"].model_graph("chainnet"),
              "diamond": workloads["diamond"].model_graph("diamond")}
    return StreamingWorkload("mini-fleet", streams=[
        StreamSpec("chainnet", fps=5000.0, frames=4),
        StreamSpec("diamond", fps=8000.0, frames=5, phase_s=2e-5),
    ], models=models)


class TestFleetConstruction:
    def test_empty_fleet_rejected(self):
        with pytest.raises(WorkloadError, match="no chips"):
            Fleet(name="empty", chips=())

    def test_duplicate_chip_names_rejected(self):
        chip = golden_scheduler.build_fleet_chip()
        with pytest.raises(WorkloadError, match="duplicate chip names"):
            Fleet(name="dup", chips=(chip, chip))

    def test_homogeneous_builder_renames_replicas(self):
        chip = golden_scheduler.build_fleet_chip()
        fleet = Fleet.homogeneous(chip, 3)
        assert fleet.num_chips == 3
        assert [c.name for c in fleet.chips] == [
            "golden-duo[0]", "golden-duo[1]", "golden-duo[2]"]
        with pytest.raises(WorkloadError, match=">= 1"):
            Fleet.homogeneous(chip, 0)

    def test_describe_lists_every_chip(self):
        fleet = Fleet.homogeneous(golden_scheduler.build_fleet_chip(), 2)
        text = fleet.describe()
        assert "2 chip(s)" in text
        assert "golden-duo[0]" in text and "golden-duo[1]" in text


class TestFrameTrace:
    def test_duck_types_the_stream_surface(self):
        trace = FrameTrace(model_name="m", releases_s=(0.0, 3e-4, 1e-4),
                           deadline_s=2e-4, fps=5000.0)
        assert trace.frames == 3
        assert trace.release_times_s() == (0.0, 3e-4, 1e-4)
        assert trace.effective_deadline_s == 2e-4
        scaled = trace.scaled(2.0)
        assert scaled.release_times_s() == (0.0, 1.5e-4, 5e-5)
        assert scaled.deadline_s == 1e-4 and scaled.fps == 10000.0
        assert "traced frames" in trace.describe()

    @pytest.mark.parametrize("kwargs", [
        dict(releases_s=(), deadline_s=1e-3, fps=1.0),
        dict(releases_s=(0.0, -1e-6), deadline_s=1e-3, fps=1.0),
        dict(releases_s=(0.0,), deadline_s=0.0, fps=1.0),
        dict(releases_s=(0.0,), deadline_s=1e-3, fps=0.0),
    ])
    def test_invalid_traces_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            FrameTrace(model_name="m", **kwargs)

    def test_scaled_rejects_non_positive_factor(self):
        trace = FrameTrace(model_name="m", releases_s=(0.0,), deadline_s=1e-3,
                           fps=1.0)
        with pytest.raises(WorkloadError):
            trace.scaled(0.0)


class TestRouter:
    def test_unknown_policy_rejected(self):
        with pytest.raises(WorkloadError, match="unknown dispatch policy"):
            policy_by_name("random")

    def test_arrival_order_is_by_release_then_stream(self):
        streaming = _mini_streaming()
        frames = arrival_order(streaming)
        releases = [frame.release_s for frame in frames]
        assert releases == sorted(releases)
        assert len(frames) == streaming.total_frames

    def test_round_robin_cycles_in_arrival_order(self, fleet_cost_model):
        streaming = _mini_streaming()
        chips = Fleet.homogeneous(golden_scheduler.build_fleet_chip(), 3).chips
        router = Router("round-robin",
                        estimator=FrameCostEstimator(fleet_cost_model))
        plan = router.dispatch(streaming, chips)
        frames = arrival_order(streaming)
        for position, frame in enumerate(frames):
            assert plan.assignments[(frame.model_name, frame.frame_index)] \
                == position % 3

    def test_passthrough_routes_everything_to_chip_zero(self, fleet_cost_model):
        streaming = _mini_streaming()
        chips = Fleet.homogeneous(golden_scheduler.build_fleet_chip(), 3).chips
        router = Router("passthrough",
                        estimator=FrameCostEstimator(fleet_cost_model))
        plan = router.dispatch(streaming, chips)
        assert set(plan.assignments.values()) == {0}
        assert plan.chip_workloads[1] is None
        assert plan.chip_workloads[2] is None
        # Complete subsets keep the original stream specs.
        assert plan.chip_workloads[0].streams == streaming.streams

    def test_sticky_keeps_streams_whole(self, fleet_cost_model):
        streaming = _mini_streaming()
        chips = Fleet.homogeneous(golden_scheduler.build_fleet_chip(), 2).chips
        router = Router("sticky",
                        estimator=FrameCostEstimator(fleet_cost_model))
        plan = router.dispatch(streaming, chips)
        for stream in streaming.streams:
            destinations = {
                plan.assignments[(stream.model_name, frame_index)]
                for frame_index in range(stream.frames)}
            assert len(destinations) == 1

    def test_partition_invariant_and_local_renumbering(self, fleet_cost_model):
        streaming = _mini_streaming()
        chips = Fleet.homogeneous(golden_scheduler.build_fleet_chip(), 2).chips
        router = Router("round-robin",
                        estimator=FrameCostEstimator(fleet_cost_model))
        plan = router.dispatch(streaming, chips)
        # Every global frame appears exactly once across the chip maps ...
        seen = [global_frame for frame_map in plan.frame_maps
                for global_frame in frame_map.values()]
        expected = [(stream.model_name, frame_index)
                    for stream in streaming.streams
                    for frame_index in range(stream.frames)]
        assert sorted(seen) == sorted(expected)
        # ... and local ids are contiguous model#0..k-1 per chip, in global
        # frame order.
        for chip_index, workload in enumerate(plan.chip_workloads):
            if workload is None:
                continue
            frame_map = plan.frame_maps[chip_index]
            for stream in workload.streams:
                globals_in_local_order = [
                    frame_map[f"{stream.model_name}#{local}"][1]
                    for local in range(stream.frames)]
                assert globals_in_local_order == sorted(globals_in_local_order)

    def test_estimator_ranks_the_faster_chip_cheaper(self, fleet_cost_model):
        streaming = _mini_streaming()
        estimator = FrameCostEstimator(fleet_cost_model)
        full = golden_scheduler.build_fleet_chip()
        quarter = golden_scheduler.build_fleet_chip(scale=4, label="quarter")
        assert estimator.frame_service_s(streaming, "chainnet", full) < \
            estimator.frame_service_s(streaming, "chainnet", quarter)

    def test_service_table_shares_entries_between_clones(self, fleet_cost_model):
        streaming = _mini_streaming()
        estimator = FrameCostEstimator(fleet_cost_model)
        fleet = Fleet.homogeneous(golden_scheduler.build_fleet_chip(), 3)
        tables = estimator.service_table(streaming, fleet.chips)
        assert tables[0] is tables[1] is tables[2]


class TestFleetSimulator:
    def test_empty_chips_get_empty_reports(self, fleet_cost_model):
        streaming = _mini_streaming()
        fleet = Fleet.homogeneous(golden_scheduler.build_fleet_chip(), 4)
        result = _simulator(fleet_cost_model).simulate(streaming, fleet,
                                                       policy="sticky")
        used = [index for index, workload
                in enumerate(result.plan.chip_workloads)
                if workload is not None]
        assert len(used) <= 2  # two streams -> at most two sticky chips
        for index, chip_result in enumerate(result.chip_results):
            if index not in used:
                assert chip_result.schedule is None
                assert chip_result.report.total_frames == 0
                assert result.report.chips[index].frames == 0
                assert result.report.chips[index].utilisation == 0.0

    def test_report_summary_is_strict_json(self, fleet_cost_model):
        streaming = _mini_streaming()
        fleet = Fleet.homogeneous(golden_scheduler.build_fleet_chip(), 3)
        result = _simulator(fleet_cost_model).simulate(streaming, fleet,
                                                       policy="sticky")
        text = json.dumps(result.report.summary(), allow_nan=False)
        assert "mini-fleet" in text
        assert "online" not in result.report.summary()

    def test_pooled_latency_keys_cover_every_frame(self, fleet_cost_model):
        streaming = _mini_streaming()
        fleet = Fleet.homogeneous(golden_scheduler.build_fleet_chip(), 2)
        result = _simulator(fleet_cost_model).simulate(streaming, fleet,
                                                       policy="round-robin")
        expected = {f"{stream.model_name}#{index}"
                    for stream in streaming.streams
                    for index in range(stream.frames)}
        assert set(result.report.frame_latencies_s) == expected


class TestMinChipsForSla:
    def test_already_sustained_returns_one(self, fleet_cost_model):
        # Generous deadline: one chip suffices.
        workloads = golden_scheduler.build_workloads()
        streaming = StreamingWorkload("easy", streams=[
            StreamSpec("chainnet", fps=100.0, frames=3, deadline_s=0.5)],
            models={"chainnet": workloads["chain"].model_graph("chainnet")})
        result = min_chips_for_sla(_simulator(fleet_cost_model), streaming,
                                   golden_scheduler.build_fleet_chip(),
                                   max_chips=4)
        assert result.chips == 1
        assert result.evaluations == 1
        assert result.report.meets_sla

    def test_infeasible_returns_zero(self, fleet_cost_model):
        # A deadline below the service time misses on any fleet size.
        workloads = golden_scheduler.build_workloads()
        streaming = StreamingWorkload("hopeless", streams=[
            StreamSpec("chainnet", fps=100.0, frames=3, deadline_s=1e-6)],
            models={"chainnet": workloads["chain"].model_graph("chainnet")})
        result = min_chips_for_sla(_simulator(fleet_cost_model), streaming,
                                   golden_scheduler.build_fleet_chip(),
                                   max_chips=2)
        assert result.chips == 0
        assert result.report is None
        assert "none" in result.describe()

    def test_bisection_result_is_minimal(self, fleet_cost_model):
        streaming = golden_scheduler.build_fleet_streaming_workload("duo")
        simulator = _simulator(fleet_cost_model)
        chip = golden_scheduler.build_fleet_chip()
        result = min_chips_for_sla(simulator, streaming, chip,
                                   policy="earliest-completion", max_chips=8)
        assert result.chips >= 1, "duo should be servable within 8 chips"
        meets_at = simulator.simulate(
            streaming, Fleet.homogeneous(chip, result.chips),
            policy="earliest-completion").report.meets_sla
        assert meets_at
        if result.chips > 1:
            below = simulator.simulate(
                streaming, Fleet.homogeneous(chip, result.chips - 1),
                policy="earliest-completion").report.meets_sla
            assert not below

    def test_max_chips_validated(self, fleet_cost_model):
        streaming = _mini_streaming()
        with pytest.raises(ValueError, match="max_chips"):
            min_chips_for_sla(_simulator(fleet_cost_model), streaming,
                              golden_scheduler.build_fleet_chip(),
                              max_chips=0)


# ---------------------------------------------------------------------------
# Closed loop: arrival order, online goldens, fault semantics
# ---------------------------------------------------------------------------
def _in_phase_streaming():
    workloads = golden_scheduler.build_workloads()
    return StreamingWorkload("in-phase", streams=[
        StreamSpec("chainnet", fps=5000.0, frames=3),
        StreamSpec("diamond", fps=5000.0, frames=3),
    ], models={"chainnet": workloads["chain"].model_graph("chainnet"),
               "diamond": workloads["diamond"].model_graph("diamond")})


@pytest.mark.parametrize("workload, tag, policy", [
    (config["workload"], config["fleet"], config["policy"])
    for config in map(golden_scheduler.parse_fleet_key,
                      golden_scheduler.fleet_scenario_keys())
    if config["policy"] in ("round-robin", "passthrough")
] + [("in-phase", tag, "round-robin") for tag in ("2homo", "4homo")])
def test_engine_dispatches_in_arrival_order(workload, tag, policy,
                                            fleet_cost_model):
    """The engine dispatches frames in global arrival order.

    Round-robin and passthrough ignore the fleet view, so without faults or
    stealing the closed loop must route every frame exactly as the a-priori
    plan does.  The jittered golden streams never release two frames at one
    instant; the in-phase streams release theirs pairwise together, so they
    pin the heap's tie-break (stream position, then frame index).
    """
    streaming = (_in_phase_streaming() if workload == "in-phase" else
                 golden_scheduler.build_fleet_streaming_workload(workload))
    fleet = golden_scheduler.build_fleet(tag)
    simulator = _simulator(fleet_cost_model)
    online = simulator.simulate_online(streaming, fleet, policy=policy,
                                       work_stealing=False)
    planned = simulator.simulate(streaming, fleet, policy=policy)
    assert online.assignments == planned.plan.assignments


class TestOnlineGolden:
    """The 10-scenario closed-loop corpus is pinned bit for bit."""

    def test_matrix_is_complete(self):
        keys = golden_scheduler.online_scenario_keys()
        assert len(keys) == 10
        golden = golden_scheduler.load_golden(golden_scheduler.ONLINE_FILE)
        assert sorted(golden) == sorted(keys)

    def test_scenarios_match_golden(self, fleet_cost_model):
        golden = golden_scheduler.load_golden(golden_scheduler.ONLINE_FILE)
        for key in golden_scheduler.online_scenario_keys():
            record = golden_scheduler.run_online_scenario(key,
                                                          fleet_cost_model)
            assert record == golden[key], key


class TestOnlineSemantics:
    """Closed-loop behaviour that goldens alone cannot explain."""

    def _online(self, cost_model, **kwargs):
        streaming = golden_scheduler.build_fleet_streaming_workload("duo")
        fleet = golden_scheduler.build_fleet("2homo")
        return _simulator(cost_model).simulate_online(
            streaming, fleet, policy="least-outstanding", **kwargs)

    def test_death_redispatches_without_loss(self, fleet_cost_model):
        result = self._online(
            fleet_cost_model,
            faults=FaultSpec(failures=(ChipFailure(0, 0.0008),)))
        assert result.stats.redispatched_frames >= 1
        assert result.stats.lost_frame_ids == ()
        # Every frame that ever visited chip 0 after its death must have
        # been re-homed: nothing completes on a dead chip.
        for record in result.frames:
            assert record.finish_s is not None
            assert record.chip_history[-1] == 1 or record.finish_s <= 0.0008

    def test_conservation_when_every_chip_dies(self, fleet_cost_model):
        result = self._online(
            fleet_cost_model,
            faults=FaultSpec(failures=(ChipFailure(0, 0.0005),
                                       ChipFailure(1, 0.0005))))
        completed = {r.frame_id for r in result.frames if not r.lost}
        lost = set(result.stats.lost_frame_ids)
        everything = {r.frame_id for r in result.frames}
        assert completed | lost == everything
        assert completed & lost == set()
        assert lost, "frames arriving after the last death must be lost"

    def test_all_chips_dead_at_start_raises(self, fleet_cost_model):
        with pytest.raises(SearchError, match="dead"):
            self._online(
                fleet_cost_model,
                faults=FaultSpec(failures=(ChipFailure(0, 0.0),
                                           ChipFailure(1, 0.0))))

    def test_liveness_with_a_surviving_chip(self, fleet_cost_model):
        # One chip never dies => every frame completes, none are lost.
        result = self._online(
            fleet_cost_model,
            faults=FaultSpec(failures=(ChipFailure(1, 0.0002),)))
        assert result.stats.lost_frame_ids == ()
        assert all(r.finish_s is not None for r in result.frames)

    def test_autoscale_intervals_partition_the_run(self, fleet_cost_model):
        streaming = golden_scheduler.build_fleet_streaming_workload("chain")
        fleet = golden_scheduler.build_fleet("4homo")
        result = _simulator(fleet_cost_model).simulate_online(
            streaming, fleet, policy="least-outstanding",
            autoscale=AutoscalePolicy(interval_s=0.0004, min_chips=1,
                                      max_chips=4))
        intervals = result.stats.intervals
        assert intervals, "a run longer than one interval must record some"
        for earlier, later in zip(intervals, intervals[1:]):
            # Boundaries are accumulated event times, so adjacency is exact
            # only up to float addition order.
            assert later.start_s == pytest.approx(earlier.end_s, rel=1e-9)
            assert later.index == earlier.index + 1
        for interval in intervals:
            assert 1 <= interval.active_after <= 4

    def test_tiny_autoscale_interval_raises_before_running(self,
                                                           fleet_cost_model):
        # The last arrival alone needs far more ticks than the cap.
        with pytest.raises(WorkloadError, match="1,000,000 intervals"):
            self._online(fleet_cost_model,
                         autoscale=AutoscalePolicy(interval_s=1e-300))

    def test_autoscale_tick_cap_ends_a_backlog_drain(self, monkeypatch):
        # Every frame arrives at t=0, so only the in-loop cap can stop the
        # controller from ticking 1e-300 s at a time through the backlog.
        monkeypatch.setattr(online, "_MAX_AUTOSCALE_INTERVALS", 1000)
        frames = [FrameRef(0, "m", index, 0.0) for index in range(4)]
        engine = OnlineEngine(policy_by_name("round-robin"), frames,
                              [{"m": 1e-3}, {"m": 1e-3}],
                              autoscale=AutoscalePolicy(interval_s=1e-300))
        with pytest.raises(WorkloadError, match="1,000 intervals"):
            engine.run()
        assert len(engine.outcome.intervals) == 1000

    def test_autoscale_tick_cap_keeps_runs_under_it(self, fleet_cost_model,
                                                    monkeypatch):
        policy = AutoscalePolicy(interval_s=0.0004, min_chips=1, max_chips=2)
        intervals = self._online(fleet_cost_model,
                                 autoscale=policy).stats.intervals
        monkeypatch.setattr(online, "_MAX_AUTOSCALE_INTERVALS",
                            len(intervals))
        assert self._online(fleet_cost_model,
                            autoscale=policy).stats.intervals == intervals
        monkeypatch.setattr(online, "_MAX_AUTOSCALE_INTERVALS",
                            len(intervals) - 1)
        with pytest.raises(WorkloadError, match="intervals"):
            self._online(fleet_cost_model, autoscale=policy)

    def test_router_dispatch_on_empty_fleet_raises(self, fleet_cost_model):
        streaming = _mini_streaming()
        router = Router("round-robin",
                        estimator=FrameCostEstimator(fleet_cost_model))
        with pytest.raises(SearchError, match="empty fleet"):
            router.dispatch(streaming, ())


class TestOnlineBookkeeping:
    """Outcomes are kept by arrival position; per-frame records on demand."""

    @pytest.mark.parametrize("factor", [1.0, 2.0])
    def test_outstanding_work_adds_left_to_right(self, factor):
        # remaining*f + s*f + s*f rounds each step back to remaining*f; a
        # compensated sum() (Python 3.12+) or a queue total kept apart and
        # added last would both land one ulp higher.
        tiny = 2.0 ** -53
        frames = [FrameRef(0, "m", index, 0.0) for index in range(3)]
        engine = OnlineEngine(policy_by_name("round-robin"), frames,
                              [{"m": tiny}])
        state = engine.chips[0]
        state.factor = factor
        state.current, state.remaining_s, state.last_update_s = 0, 1.0, 0.0
        state.queue.extend([1, 2])
        expected = 1.0 * factor
        expected += tiny * factor
        expected += tiny * factor
        assert expected != math.fsum([1.0 * factor, tiny * factor,
                                      tiny * factor])
        assert engine.chip_outstanding_s(0, 0.0).hex() == expected.hex()

    def test_frame_records_are_built_on_first_read(self, fleet_cost_model,
                                                   monkeypatch):
        built = []
        record = online.OnlineFrameRecord

        def counting_record(**fields):
            built.append(fields["frame_id"])
            return record(**fields)

        monkeypatch.setattr(online, "OnlineFrameRecord", counting_record)
        streaming = golden_scheduler.build_fleet_streaming_workload("duo")
        result = _simulator(fleet_cost_model).simulate_online(
            streaming, golden_scheduler.build_fleet("2homo"),
            policy="round-robin",
            faults=FaultSpec(failures=(ChipFailure(0, 0.0008),)))
        result.report.summary()
        assert built == []
        frames = result.frames
        assert len(built) == len(frames) == len(arrival_order(streaming))
        assert result.frames is frames
        assert result.assignments is result.assignments
        assert len(built) == len(frames)

    def test_death_orphans_reach_the_survivor_in_arrival_order(self):
        # Chip 0 dies first and chip 1 takes a0 behind its own a2; when
        # chip 1 dies its orphans must still reach chip 2 as a0, b0, a2.
        frames = sorted((FrameRef(stream, model, index, 0.1 * index)
                         for stream, model in enumerate("ab")
                         for index in range(3)),
                        key=lambda frame: (frame.release_s,
                                           frame.stream_index,
                                           frame.frame_index))
        engine = OnlineEngine(
            policy_by_name("round-robin"), frames,
            [{"a": 1.0, "b": 1.0}] * 3,
            faults=FaultSpec(failures=(ChipFailure(0, 0.5),
                                       ChipFailure(1, 0.6))))
        outcome = engine.run()
        orphans = [position for position, history
                   in enumerate(outcome.chip_history)
                   if history[-2:] == [1, 2]]
        names = [f"{frames[position].model_name}{frames[position].frame_index}"
                 for position in sorted(orphans,
                                        key=outcome.start_s.__getitem__)]
        assert names == ["a0", "b0", "a2"]
        assert outcome.chip_history[0] == [0, 1, 2]


class TestDispatchableChips:
    """The engine caches the dispatchable chips; a death or an autoscale
    tick must rebuild the cache before the next dispatch reads it."""

    @staticmethod
    def _engine(releases, faults=None, interval_s=10.0):
        frames = [FrameRef(0, "m", index, release)
                  for index, release in enumerate(releases)]
        return OnlineEngine(
            policy_by_name("least-outstanding"), frames, [{"m": 1.0}] * 3,
            faults=faults, work_stealing=False,
            autoscale=AutoscalePolicy(interval_s=interval_s, min_chips=1,
                                      target_queue_per_chip=1.0))

    def test_a_dead_active_prefix_falls_back_to_live_chips(self):
        # The active prefix is chip 0 alone.  It dies at 0.5 serving f0;
        # the orphan, f1 (released exactly at the death) and f2 must all
        # land on chips outside the prefix and finish.
        engine = self._engine([0.0, 0.5, 2.0],
                              faults=FaultSpec(failures=(ChipFailure(0, 0.5),)))
        outcome = engine.run()
        assert outcome.chip_history == [[0, 1], [2], [1]]
        assert None not in outcome.finish_s
        assert outcome.lost_frame_ids == []
        assert outcome.redispatched_frames == 1

    def test_a_frame_after_an_autoscale_grow_sees_the_grown_prefix(self):
        # Three frames pending at the 0.5 s tick grow the prefix to 3
        # chips, so f3 finds chip 1 idle instead of queueing on chip 0.
        engine = self._engine([0.0, 0.1, 0.2, 0.6], interval_s=0.5)
        outcome = engine.run()
        assert outcome.intervals[0].active_after == 3
        assert outcome.chip_history == [[0], [0], [0], [1]]
