"""Property-based tests of the closed-loop fleet engine.

The a-priori dispatcher is pinned bit-for-bit by the golden corpus and the
reduced-regime equivalence test; this module covers the behaviours only the
*feedback* loop exhibits, over random DAG workloads x traffic processes x
1-4-chip fleets, with and without injected faults:

* **frame conservation** — every generated frame is either completed on
  exactly one chip or explicitly recorded as lost; nothing is duplicated or
  silently dropped, across re-dispatch, work stealing, and chip death;
* **liveness** — while at least one chip never dies, no frame starves:
  everything completes and the lost set is empty;
* **monotone degradation** — killing a chip at ``t = 0`` never improves the
  fleet p99.  Pinned through the stronger structural fact that makes it
  true: under a greedy observed-state policy on a homogeneous fleet, a
  chip dead from the start is *exactly* a smaller fleet (per-frame finish
  times match the (N-1)-chip run), and shrinking a fleet is never an
  improvement.  Scoped to the greedy policies — round-robin is modular
  arithmetic over the live set, for which the claim is simply false;
* **traffic determinism** — the same :class:`TrafficSpec` always compiles
  to the identical release tuple (seeded SHA-256 RNG, no platform or
  process dependence), sorted, with exactly the requested frame count;
* **the reference engine** — on random scenarios the engine's outcome
  equals, float for float, that of the direct restatement in
  ``tests/reference_online.py``.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.core.scheduler import HeraldScheduler
from repro.exec.backends import SerialBackend
from repro.maestro.cost import CostModel
from repro.serve import (
    TRAFFIC_KINDS,
    ChipFailure,
    FaultSpec,
    Fleet,
    FleetSimulator,
    SlowdownWindow,
    StreamingWorkload,
    TrafficSpec,
)
from repro.serve.online import AutoscalePolicy, OnlineEngine
from repro.serve.router import ROUTER_POLICIES, arrival_order
import reference_online
from test_fleet_properties import _chip, _fleet, _random_graph

#: Shared, memoising cost model (costs are pure; decisions are unaffected).
_COST_MODEL = CostModel()

#: Policies that dispatch greedily on observed state; round-robin ignores
#: queue depth, so the degradation property does not apply to it.
_GREEDY_POLICIES = ("least-outstanding", "earliest-completion")

_ONLINE_POLICIES = ("round-robin",) + _GREEDY_POLICIES + ("sticky",)


def _simulator():
    return FleetSimulator(backend=SerialBackend(
        cost_model=_COST_MODEL, scheduler=HeraldScheduler(_COST_MODEL)))


def _traffic_streaming(n, edge_seed, dims, num_streams, frames, kind,
                       rate_fps) -> StreamingWorkload:
    """Random DAG models, each fed by one generated traffic stream."""
    streams, models = [], {}
    for index in range(num_streams):
        name = f"m{index}"
        models[name] = _random_graph(name, max(3, n - index),
                                     edge_seed + index, dims)
        spec = TrafficSpec(kind=kind, model_name=name, rate_fps=rate_fps,
                           frames=frames, seed=edge_seed,
                           phase_s=index / (rate_fps * (index + 1.0)))
        streams.append(spec.to_trace())
    return StreamingWorkload("prop-closed-loop", streams=streams,
                             models=models)


def _total_frames(streaming: StreamingWorkload) -> int:
    return sum(stream.frames for stream in streaming.streams)


def _build_faults(num_chips, death_fraction, slow_chip, horizon_s):
    """A fault plan scaled to the run's rough time horizon.

    ``death_fraction is None`` injects nothing; otherwise chip 0 dies at
    that fraction of the horizon (strictly past zero, so a 1-chip fleet
    still boots) and, independently, ``slow_chip`` may get a 2.5x
    straggler window over the middle of the run.
    """
    failures = ()
    slowdowns = ()
    if death_fraction is not None:
        failures = (ChipFailure(0, max(1e-9, death_fraction * horizon_s)),)
    if slow_chip is not None and slow_chip < num_chips:
        slowdowns = (SlowdownWindow(slow_chip, 0.25 * horizon_s,
                                    0.75 * horizon_s, 2.5),)
    if not failures and not slowdowns:
        return None
    return FaultSpec(failures=failures, slowdowns=slowdowns)


_closed_loop_params = dict(
    n=st.integers(min_value=3, max_value=6),
    edge_seed=st.integers(min_value=0, max_value=2**31),
    dims=st.lists(st.sampled_from([4, 8, 16, 64, 256]),
                  min_size=12, max_size=12),
    num_streams=st.integers(min_value=1, max_value=2),
    frames=st.integers(min_value=1, max_value=6),
    kind=st.sampled_from(TRAFFIC_KINDS),
    rate_fps=st.sampled_from([1e2, 1e4, 1e6]),
    num_chips=st.integers(min_value=1, max_value=4),
    heterogeneous=st.booleans(),
    policy=st.sampled_from(_ONLINE_POLICIES),
    work_stealing=st.booleans(),
    death_fraction=st.sampled_from([None, 0.1, 0.5, 2.0]),
    slow_chip=st.sampled_from([None, 0, 1]),
)


class TestFrameConservation:
    @given(**_closed_loop_params)
    @settings(max_examples=30, deadline=None)
    def test_completed_and_lost_partition_the_frames(
            self, n, edge_seed, dims, num_streams, frames, kind, rate_fps,
            num_chips, heterogeneous, policy, work_stealing, death_fraction,
            slow_chip):
        streaming = _traffic_streaming(n, edge_seed, dims, num_streams,
                                       frames, kind, rate_fps)
        fleet = _fleet(num_chips, heterogeneous)
        faults = _build_faults(num_chips, death_fraction, slow_chip,
                               horizon_s=frames / rate_fps)
        result = _simulator().simulate_online(
            streaming, fleet, policy=policy, faults=faults,
            work_stealing=work_stealing)

        # One record per generated frame, each either completed or lost.
        assert len(result.frames) == _total_frames(streaming)
        assert len({record.frame_id for record in result.frames}) \
            == len(result.frames)
        completed = {record.frame_id for record in result.frames
                     if not record.lost}
        lost = set(result.stats.lost_frame_ids)
        everything = {record.frame_id for record in result.frames}
        assert completed | lost == everything
        assert completed & lost == set()

        for record in result.frames:
            if record.lost:
                assert record.finish_s is None
                # A lost frame may still have *begun* service — on a chip
                # that died mid-frame — but then it must have a history.
                if record.start_s is not None:
                    assert record.chip_history
            else:
                # Completed frames ran somewhere, causally.
                assert record.chip_history, record.frame_id
                assert all(0 <= chip < fleet.num_chips
                           for chip in record.chip_history)
                assert record.start_s >= record.release_s - 1e-12
                assert record.finish_s >= record.start_s
                frame_index = int(record.frame_id.rsplit("#", 1)[1])
                assert result.assignments[(record.model_name, frame_index)] \
                    == record.chip_history[-1]

        # Without faults nothing can die, so nothing is re-dispatched or
        # lost — stealing is the only reason for multi-chip histories.
        if faults is None:
            assert result.stats.redispatched_frames == 0
            assert lost == set()
            if not work_stealing:
                assert result.stats.stolen_frames == 0
                assert all(len(record.chip_history) == 1
                           for record in result.frames)

    @given(**_closed_loop_params)
    @settings(max_examples=15, deadline=None)
    def test_report_counts_the_completed_frames(
            self, n, edge_seed, dims, num_streams, frames, kind, rate_fps,
            num_chips, heterogeneous, policy, work_stealing, death_fraction,
            slow_chip):
        streaming = _traffic_streaming(n, edge_seed, dims, num_streams,
                                       frames, kind, rate_fps)
        fleet = _fleet(num_chips, heterogeneous)
        faults = _build_faults(num_chips, death_fraction, slow_chip,
                               horizon_s=frames / rate_fps)
        result = _simulator().simulate_online(
            streaming, fleet, policy=policy, faults=faults,
            work_stealing=work_stealing)
        completed = [record for record in result.frames if not record.lost]
        assert result.report.total_frames == len(completed)
        assert sum(stats.frames for stats in result.report.chips) \
            == len(completed)
        summary = result.report.summary()
        assert summary["online"]["lost_frames"] \
            == len(result.stats.lost_frame_ids)


class TestLiveness:
    @given(**_closed_loop_params)
    @settings(max_examples=20, deadline=None)
    def test_no_frame_starves_while_a_chip_survives(
            self, n, edge_seed, dims, num_streams, frames, kind, rate_fps,
            num_chips, heterogeneous, policy, work_stealing, death_fraction,
            slow_chip):
        streaming = _traffic_streaming(n, edge_seed, dims, num_streams,
                                       frames, kind, rate_fps)
        fleet = _fleet(num_chips, heterogeneous)
        # Kill every chip except the last; the survivor guarantees progress.
        horizon_s = frames / rate_fps
        failures = tuple(ChipFailure(chip, (chip + 1) * 0.2 * horizon_s)
                         for chip in range(num_chips - 1))
        faults = FaultSpec(failures=failures) if failures else None
        result = _simulator().simulate_online(
            streaming, fleet, policy=policy, faults=faults,
            work_stealing=work_stealing)
        assert result.stats.lost_frame_ids == ()
        assert all(record.finish_s is not None for record in result.frames)


class TestMonotoneDegradation:
    @given(
        n=st.integers(min_value=3, max_value=6),
        edge_seed=st.integers(min_value=0, max_value=2**31),
        dims=st.lists(st.sampled_from([4, 8, 16, 64, 256]),
                      min_size=12, max_size=12),
        frames=st.integers(min_value=2, max_value=6),
        kind=st.sampled_from(TRAFFIC_KINDS),
        rate_fps=st.sampled_from([1e2, 1e4, 1e6]),
        num_chips=st.integers(min_value=2, max_value=4),
        policy=st.sampled_from(_GREEDY_POLICIES),
    )
    @settings(max_examples=20, deadline=None)
    def test_killing_a_chip_never_improves_p99(
            self, n, edge_seed, dims, frames, kind, rate_fps, num_chips,
            policy):
        streaming = _traffic_streaming(n, edge_seed, dims, 1, frames, kind,
                                       rate_fps)
        simulator = _simulator()
        fleet = _fleet(num_chips, heterogeneous=False)
        baseline = simulator.simulate_online(
            streaming, fleet, policy=policy, work_stealing=False)
        degraded = simulator.simulate_online(
            streaming, fleet, policy=policy, work_stealing=False,
            faults=FaultSpec(failures=(ChipFailure(0, 0.0),)))
        # The structural fact behind the inequality: a chip dead from t=0
        # under a greedy observed-state policy IS the (N-1)-chip fleet —
        # identical per-frame finish times, chip indices shifted by one.
        shrunk = simulator.simulate_online(
            streaming, _fleet(num_chips - 1, heterogeneous=False),
            policy=policy, work_stealing=False)
        assert [(record.frame_id, record.start_s, record.finish_s)
                for record in degraded.frames] \
            == [(record.frame_id, record.start_s, record.finish_s)
                for record in shrunk.frames]
        assert [tuple(chip - 1 for chip in record.chip_history)
                for record in degraded.frames] \
            == [record.chip_history for record in shrunk.frames]
        assert degraded.report.p99_latency_s \
            >= baseline.report.p99_latency_s - 1e-12


class TestTrafficDeterminism:
    @given(
        kind=st.sampled_from(TRAFFIC_KINDS),
        rate_fps=st.sampled_from([0.5, 30.0, 1e4]),
        frames=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
        phase_ms=st.sampled_from([0.0, 1.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_spec_same_trace(self, kind, rate_fps, frames, seed,
                                  phase_ms):
        spec = TrafficSpec(kind=kind, model_name="det", rate_fps=rate_fps,
                           frames=frames, seed=seed, phase_s=phase_ms * 1e-3)
        first = spec.release_times_s()
        again = TrafficSpec(kind=kind, model_name="det", rate_fps=rate_fps,
                            frames=frames, seed=seed,
                            phase_s=phase_ms * 1e-3).release_times_s()
        assert first == again
        assert len(first) == frames
        assert list(first) == sorted(first)
        assert all(release >= phase_ms * 1e-3 for release in first)
        trace = spec.to_trace()
        assert trace.release_times_s() == first
        assert trace.model_name == "det" and trace.frames == frames

    @given(
        kind=st.sampled_from(TRAFFIC_KINDS),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_seed_and_model_name_separate_streams(self, kind, seed):
        base = dict(kind=kind, rate_fps=100.0, frames=32)
        one = TrafficSpec(model_name="a", seed=seed, **base)
        # A different model name re-keys the RNG even under the same seed,
        # so co-scheduled streams never share an arrival sequence.
        other = TrafficSpec(model_name="b", seed=seed, **base)
        assert one.release_times_s() != other.release_times_s()


@st.composite
def _engine_scenarios(draw):
    """Engine inputs: traffic, service tables, faults, autoscaling.

    Service times come from a short list so chips tie often; deaths, slowdown
    edges and autoscale ticks fall on release instants or between them, and
    deaths may take the whole active prefix.
    """
    streams = [
        TrafficSpec(kind=draw(st.sampled_from(TRAFFIC_KINDS)),
                    model_name=f"m{index}",
                    rate_fps=draw(st.sampled_from([50.0, 200.0, 1000.0])),
                    frames=draw(st.integers(min_value=1, max_value=40)),
                    seed=draw(st.integers(min_value=0, max_value=2**16)),
                    ).to_trace()
        for index in range(draw(st.integers(min_value=1, max_value=3)))]
    streaming = StreamingWorkload("differential", streams=streams)
    num_chips = draw(st.integers(min_value=1, max_value=4))
    service = st.sampled_from([1e-3, 2e-3, 4e-3, 8e-3])
    tables = [{stream.model_name: draw(service) for stream in streams}
              for _ in range(num_chips)]
    releases = sorted(release for stream in streams
                      for release in stream.release_times_s())
    horizon_s = releases[-1] + 1e-2
    instant = st.one_of(
        st.sampled_from(releases),
        st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9]).map(
            lambda fraction: fraction * horizon_s))
    failures = tuple(ChipFailure(chip, draw(instant))
                     for chip in range(num_chips) if draw(st.booleans()))
    assume(len(failures) < num_chips
           or any(failure.at_s > 0.0 for failure in failures))
    slowdowns = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        start_s = draw(instant)
        slowdowns.append(SlowdownWindow(
            draw(st.integers(min_value=0, max_value=num_chips - 1)),
            start_s, start_s + draw(st.sampled_from([0.1, 0.4])) * horizon_s,
            draw(st.sampled_from([1.5, 2.0, 4.0]))))
    autoscale = None
    if draw(st.booleans()):
        autoscale = AutoscalePolicy(
            interval_s=draw(st.sampled_from(
                [0.05 * horizon_s, 0.2 * horizon_s]
                + [release for release in releases if release > 0.0])),
            min_chips=draw(st.integers(min_value=1, max_value=num_chips)),
            max_chips=draw(st.sampled_from([None, num_chips])),
            target_queue_per_chip=draw(st.sampled_from([0.5, 1.0, 2.0])))
    return dict(streaming=streaming, tables=tables,
                faults=FaultSpec(failures=failures, slowdowns=slowdowns),
                autoscale=autoscale, work_stealing=draw(st.booleans()),
                policy=draw(st.sampled_from(sorted(ROUTER_POLICIES))))


def _outcome_fields(outcome):
    def hexed(values):
        return [None if value is None else value.hex() for value in values]

    return {
        "start_s": hexed(outcome.start_s),
        "finish_s": hexed(outcome.finish_s),
        "chip_history": outcome.chip_history,
        "busy_s": hexed(outcome.busy_s),
        "intervals": [interval._replace(start_s=interval.start_s.hex(),
                                        end_s=interval.end_s.hex())
                      for interval in outcome.intervals],
        "lost_frame_ids": outcome.lost_frame_ids,
        "redispatched_frames": outcome.redispatched_frames,
        "stolen_frames": outcome.stolen_frames,
    }


class TestAgainstTheReferenceEngine:
    @given(scenario=_engine_scenarios())
    @settings(max_examples=300, deadline=None)
    def test_outcome_equals_the_reference(self, scenario):
        streaming = scenario["streaming"]
        frames = arrival_order(streaming)
        assert frames == reference_online.arrival_order(streaming)
        options = dict(faults=scenario["faults"],
                       autoscale=scenario["autoscale"],
                       work_stealing=scenario["work_stealing"])
        outcome = OnlineEngine(ROUTER_POLICIES[scenario["policy"]](), frames,
                               scenario["tables"], **options).run()
        expected = reference_online.ReferenceEngine(
            reference_online.POLICIES[scenario["policy"]](), frames,
            scenario["tables"], **options).run()
        assert _outcome_fields(outcome) == _outcome_fields(expected)
