"""The sustained-FPS probe: an early stop that never changes a verdict.

A probe (:meth:`ServingSimulator._probe`) runs the scheduler with a stop
threshold on every layer — its frame's deadline cycle times a small margin —
and gives up at the first layer that finishes past it.  Three contracts are
pinned here:

* **the verdict is the full report's** — over mini streaming scenarios
  (chain and DAG models, jitter, one to three sub-accelerators, both
  orderings, post-processing on and off, rates on both sides of
  feasibility) a probe misses exactly when
  ``ServingSimulator.simulate(...).report.meets_sla`` is false, and a probe
  that runs to the end returns ``simulate``'s schedule field by field;
* **the margin keeps rounding-boundary frames** — a frame whose deadline is
  its own measured latency finishes a hair past its deadline cycle, yet
  meets the SLA; its probe must run to completion;
* **a failing probe stops early** — it commits fewer layers than a full
  schedule.
"""

from __future__ import annotations

import random as random_module

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduler import HeraldScheduler
from repro.dataflow.styles import EYERISS, NVDLA, SHIDIANNAO
from repro.maestro.cost import CostModel
from repro.maestro.hardware import SubAcceleratorConfig
from repro.models.graph import ModelGraph
from repro.models.layer import fc
from repro.serve import (ServingSimulator, StreamSpec, StreamingWorkload,
                         build_serving_report, sustained_fps)
from repro.units import gbps, mib

#: Layer shapes repeat across examples; costs are pure, so one memo serves.
_COST_MODEL = CostModel()

_STYLES = (NVDLA, SHIDIANNAO, EYERISS)

#: Rate multipliers every example probes: from far below to far above the
#: feasibility boundary of a mini scenario at 1 kHz.
_LADDER = tuple(2.0 ** exponent for exponent in range(-4, 25, 4))


def _subs(count: int):
    return tuple(
        SubAcceleratorConfig(name=f"a{index}", dataflow=style, num_pes=64,
                             bandwidth_bytes_per_s=gbps(4),
                             buffer_bytes=mib(1))
        for index, style in enumerate(_STYLES[:count]))


def _model(name: str, n: int, dims, edge_seed: int, dag: bool) -> ModelGraph:
    graph = ModelGraph.from_layers(name, [
        fc(f"l{i}", k=dims[i % len(dims)], c=dims[(i * 7 + 3) % len(dims)])
        for i in range(n)])
    if dag:
        rng = random_module.Random(edge_seed)
        for i in range(n):
            for j in range(i + 2, n):
                if rng.random() < 0.3:
                    graph.add_edge(f"l{i}", f"l{j}")
    return graph


def _streaming(n, dims, edge_seed, dag, frames, jitter):
    neta = _model("neta", n, dims, edge_seed, dag)
    netb = _model("netb", max(2, n // 2), dims[::-1], edge_seed + 1, dag)
    return StreamingWorkload("probe-mini", streams=[
        StreamSpec("neta", fps=1000.0, frames=frames,
                   jitter_s=jitter * 1e-3, seed=edge_seed),
        StreamSpec("netb", fps=2000.0, frames=frames, phase_s=1e-4,
                   jitter_s=jitter * 5e-4, seed=edge_seed + 2),
    ], models={"neta": neta, "netb": netb})


def _verdict(simulator, streaming, accs):
    """The probe's verdict as ``sustained_fps`` reaches it, and the schedule."""
    schedule = simulator._probe(streaming, accs)
    meets = schedule is not None and build_serving_report(
        streaming, schedule, accs[0].clock_hz).meets_sla
    return meets, schedule


def _assert_probe_matches_simulate(simulator, streaming, accs):
    """The probe's verdict is the full report's, and a probe that ran to the
    end built the full run's schedule; returns the full run and verdict."""
    full = simulator.simulate(streaming, accs)
    meets, schedule = _verdict(simulator, streaming, accs)
    assert meets == full.report.meets_sla, streaming.name
    if schedule is not None:
        assert schedule.__getstate__() == full.schedule.__getstate__()
    return full, meets


def _at_slowest_frame(streaming, report):
    """``streaming`` with each stream's deadline set to its slowest frame's
    latency in ``report``: that frame meets its deadline exactly, and its
    finish lands within rounding of its deadline cycle (deadlines never
    change a schedule)."""
    return StreamingWorkload(streaming.name + "-tight", streams=[
        stream._replace(deadline_s=stats.max_latency_s)
        for stream, stats in zip(streaming.streams, report.streams)],
        models=streaming.models)


class TestProbeVerdict:
    @given(n=st.integers(min_value=2, max_value=8),
           dims=st.lists(st.sampled_from([4, 16, 64, 256]), min_size=8,
                         max_size=8),
           edge_seed=st.integers(min_value=0, max_value=2**31),
           dag=st.booleans(),
           frames=st.integers(min_value=1, max_value=4),
           jitter=st.sampled_from([0.0, 0.1, 0.4]),
           n_accs=st.integers(min_value=1, max_value=3),
           ordering=st.sampled_from(["breadth", "depth"]),
           post_processing=st.booleans(),
           factor=st.floats(min_value=2.0 ** -4, max_value=2.0 ** 24))
    @settings(max_examples=100, deadline=None)
    def test_probe_verdict_is_the_full_report(
            self, n, dims, edge_seed, dag, frames, jitter, n_accs, ordering,
            post_processing, factor):
        streaming = _streaming(n, dims, edge_seed, dag, frames, jitter)
        accs = _subs(n_accs)
        simulator = ServingSimulator(HeraldScheduler(
            _COST_MODEL, ordering=ordering,
            enable_post_processing=post_processing))
        verdicts = set()
        for rate in _LADDER + (factor,):
            scaled = streaming.scaled(rate)
            full, meets = _assert_probe_matches_simulate(simulator, scaled,
                                                         accs)
            verdicts.add(meets)
            _, tight_meets = _assert_probe_matches_simulate(
                simulator, _at_slowest_frame(scaled, full.report), accs)
            assert tight_meets
        # The ladder ends far past feasibility.  With post-processing its low
        # end is feasible too; a replayed visiting order may keep a late
        # frame ahead of an early one at every rate, so it may miss at all.
        assert False in verdicts
        if post_processing:
            assert True in verdicts


class TestRoundingBoundary:
    @staticmethod
    def _boundary_case():
        """A one-frame stream whose deadline is the frame's measured
        latency, chosen so that the frame finishes past its deadline
        cycle in floating point, yet does not miss (the miss test is a
        strict ``latency > deadline``)."""
        graph = _model("neta", 4, [16, 64, 256, 4], 0, dag=False)
        accs = _subs(2)
        simulator = ServingSimulator(HeraldScheduler(_COST_MODEL))
        clock = accs[0].clock_hz
        for phase in range(1, 2000):
            stream = StreamSpec("neta", fps=10.0, frames=1,
                                phase_s=phase * 1.37e-7)
            streaming = StreamingWorkload("edge", streams=[stream],
                                          models={"neta": graph})
            finish = simulator.simulate(streaming, accs).schedule \
                .frame_records()["neta#0"]["finish_cycle"]
            latency = finish / clock - stream.release_times_s()[0]
            tight = StreamingWorkload("edge", streams=[
                stream._replace(deadline_s=latency)], models={"neta": graph})
            if finish > tight.deadline_cycles(clock)["neta#0"]:
                return simulator, tight, accs
        raise AssertionError("no phase puts the finish past the deadline cycle")

    def test_a_frame_at_its_deadline_runs_to_completion(self):
        simulator, streaming, accs = self._boundary_case()
        full = simulator.simulate(streaming, accs)
        assert full.report.meets_sla
        meets, schedule = _verdict(simulator, streaming, accs)
        assert schedule is not None
        assert meets
        assert schedule.__getstate__() == full.schedule.__getstate__()


class _CommitCountingScheduler(HeraldScheduler):
    """Herald, recording the slots each timeline commits: a commit reads
    its slot's latency exactly once, in either timeline branch."""

    def _assignment(self, *args):
        slot_acc, slot_cost, slot_latency = super()._assignment(*args)
        self.committed = committed = []

        class Recording(list):
            def __getitem__(self, slot):
                committed.append(slot)
                return list.__getitem__(self, slot)

        return slot_acc, slot_cost, Recording(slot_latency)


class TestFailingProbeStopsEarly:
    @pytest.mark.parametrize("post_processing", [True, False])
    def test_a_failing_probe_commits_fewer_layers(self, post_processing):
        streaming = _streaming(6, [16, 64, 256, 4], 3, True, 4, 0.1)
        accs = _subs(2)
        scheduler = _CommitCountingScheduler(
            _COST_MODEL, enable_post_processing=post_processing)
        simulator = ServingSimulator(scheduler)
        layers = streaming.to_workload_spec().total_layers
        scaled = streaming.scaled(2.0 ** 20)

        assert not simulator.simulate(scaled, accs).report.meets_sla
        assert len(scheduler.committed) == layers
        assert simulator._probe(scaled, accs) is None
        assert 0 < len(scheduler.committed) < layers

    def test_the_search_result_is_unchanged(self):
        """Early stops change no bisection step: the result equals the one
        a search judging every probe by a full simulation reaches."""
        streaming = _streaming(6, [16, 64, 256, 4], 3, True, 4, 0.1)
        accs = _subs(2)
        simulator = ServingSimulator(HeraldScheduler(_COST_MODEL))
        result = sustained_fps(simulator, streaming, accs, lo=2.0 ** -6,
                               hi=2.0 ** 16, iterations=16)

        class FullRuns(ServingSimulator):
            def _probe(self, streaming, sub_accelerators):
                return self.simulate(streaming, sub_accelerators).schedule

        expected = sustained_fps(FullRuns(HeraldScheduler(_COST_MODEL)),
                                 streaming, accs, lo=2.0 ** -6, hi=2.0 ** 16,
                                 iterations=16)
        assert result == expected
        assert 2.0 ** -6 < result.factor < 2.0 ** 16
