"""Property-based tests of fleet dispatch: invariants across every policy.

For random DAG workloads crossed with random arrival traces and random fleet
compositions, every dispatch policy must satisfy the fleet invariants:

* **partition** — each frame is dispatched to exactly one chip (the
  assignment map covers every frame, per-chip frame maps tile the global
  frame set without overlap);
* **per-chip validity** — every chip's schedule passes
  :func:`schedule_oracle.validate_schedule` (producer edges, non-overlap, completeness) and
  no frame starts before its release;
* **aggregation honesty** — fleet-level percentiles equal recomputing the
  percentile over the pooled per-frame latencies, and the fleet miss count
  equals recounting strict-deadline violations frame by frame;
* **single-chip degeneracy** — a one-chip fleet produces the bare
  :class:`ServingSimulator` schedule and report, whatever the policy.
"""

from __future__ import annotations

import random as random_module

from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import percentile
from repro.core.scheduler import HeraldScheduler
from repro.dataflow.styles import NVDLA, SHIDIANNAO
from repro.maestro.cost import CostModel
from repro.maestro.hardware import ChipConfig, SubAcceleratorConfig
from repro.models.graph import ModelGraph
from repro.models.layer import fc
from repro.serve import (
    Fleet,
    FleetSimulator,
    ServingSimulator,
    StreamSpec,
    StreamingWorkload,
)
from repro.accel.design import AcceleratorDesign, AcceleratorKind
from repro.units import gbps, mib
from schedule_oracle import validate_schedule

#: One shared cost model: layer shapes repeat across examples, so the memo
#: keeps the sweep fast without affecting decisions (costs are pure).
_COST_MODEL = CostModel()

_ALL_POLICIES = ("passthrough", "round-robin", "least-outstanding",
                 "earliest-completion", "sticky")


def _chip(pes: int, label: str) -> AcceleratorDesign:
    subs = (
        SubAcceleratorConfig(name="a0", dataflow=NVDLA, num_pes=pes,
                             bandwidth_bytes_per_s=gbps(4),
                             buffer_bytes=mib(1)),
        SubAcceleratorConfig(name="a1", dataflow=SHIDIANNAO, num_pes=pes // 2,
                             bandwidth_bytes_per_s=gbps(4),
                             buffer_bytes=mib(1)),
    )
    chip = ChipConfig(name=f"{label}-chip", num_pes=pes + pes // 2,
                      noc_bandwidth_bytes_per_s=gbps(8),
                      global_buffer_bytes=mib(1))
    return AcceleratorDesign(name=label, kind=AcceleratorKind.HDA, chip=chip,
                             sub_accelerators=subs)


def _fleet(num_chips: int, heterogeneous: bool) -> Fleet:
    if heterogeneous and num_chips > 1:
        chips = tuple(_chip(128 if index % 2 == 0 else 32, f"c{index}")
                      for index in range(num_chips))
        return Fleet(name="hetero", chips=chips)
    return Fleet.homogeneous(_chip(128, "homo"), num_chips)


def _random_graph(name: str, n: int, edge_seed: int, dims) -> ModelGraph:
    rng = random_module.Random(edge_seed)
    layers = [fc(f"l{i}", k=dims[i], c=dims[(i * 7 + 3) % len(dims)])
              for i in range(n)]
    graph = ModelGraph.from_layers(name, layers)
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < 0.3:
                graph.add_edge(f"l{i}", f"l{j}")
    return graph


def _random_streaming(n, edge_seed, dims, num_streams, frames, fps, jitter_scale
                      ) -> StreamingWorkload:
    streams, models = [], {}
    for index in range(num_streams):
        name = f"m{index}"
        models[name] = _random_graph(name, max(3, n - index), edge_seed + index,
                                     dims)
        period = 1.0 / fps
        streams.append(StreamSpec(
            model_name=name, fps=fps, frames=frames,
            phase_s=(index / (index + 1)) * period,
            jitter_s=jitter_scale * period, seed=edge_seed,
        ))
    return StreamingWorkload("prop-fleet", streams=streams, models=models)


_fleet_params = dict(
    n=st.integers(min_value=3, max_value=7),
    edge_seed=st.integers(min_value=0, max_value=2**31),
    dims=st.lists(st.sampled_from([4, 8, 16, 64, 256]),
                  min_size=12, max_size=12),
    num_streams=st.integers(min_value=1, max_value=3),
    frames=st.integers(min_value=1, max_value=5),
    fps=st.sampled_from([1e2, 1e4, 1e6]),
    jitter_scale=st.sampled_from([0.0, 0.4]),
    num_chips=st.integers(min_value=1, max_value=4),
    heterogeneous=st.booleans(),
    policy=st.sampled_from(_ALL_POLICIES),
)


class TestFleetInvariants:
    @given(**_fleet_params)
    @settings(max_examples=40, deadline=None)
    def test_partition_validity_and_aggregation(
            self, n, edge_seed, dims, num_streams, frames, fps, jitter_scale,
            num_chips, heterogeneous, policy):
        streaming = _random_streaming(n, edge_seed, dims, num_streams, frames,
                                      fps, jitter_scale)
        fleet = _fleet(num_chips, heterogeneous)
        simulator = FleetSimulator(cost_model=_COST_MODEL,
                                   scheduler=HeraldScheduler(_COST_MODEL))
        result = simulator.simulate(streaming, fleet, policy=policy)
        plan, report = result.plan, result.report

        # --- partition: every frame on exactly one chip --------------------
        expected_frames = {(stream.model_name, index)
                           for stream in streaming.streams
                           for index in range(stream.frames)}
        assert set(plan.assignments) == expected_frames
        assert all(0 <= chip < fleet.num_chips
                   for chip in plan.assignments.values())
        tiled = [global_frame for frame_map in plan.frame_maps
                 for global_frame in frame_map.values()]
        assert len(tiled) == len(expected_frames)
        assert set(tiled) == expected_frames

        # --- per-chip schedules validate, releases respected ---------------
        for chip_index, chip_result in enumerate(result.chip_results):
            workload = plan.chip_workloads[chip_index]
            if workload is None:
                assert chip_result.schedule is None
                continue
            schedule = chip_result.schedule
            spec = workload.to_workload_spec()
            validate_schedule(schedule, expected_layers={
                instance.instance_id: instance.num_layers
                for instance in spec.instances()})
            clock = chip_result.chip.sub_accelerators[0].clock_hz
            releases = workload.release_cycles(clock)
            for entry in schedule.entries:
                assert entry.start_cycle >= releases[entry.instance_id] - 1e-6

        # --- aggregation: pooled percentiles and recounted misses ----------
        pooled = [latency for chip_result in result.chip_results
                  for latency in chip_result.frame_latencies_s.values()]
        assert len(pooled) == len(expected_frames)
        for q, value in ((50.0, report.p50_latency_s),
                         (95.0, report.p95_latency_s),
                         (99.0, report.p99_latency_s)):
            assert value == percentile(pooled, q)

        # Recount misses independently, with the single seconds-domain
        # definition the per-stream accounting uses (strict latency > bound).
        recounted = 0
        for chip_index, chip_result in enumerate(result.chip_results):
            workload = plan.chip_workloads[chip_index]
            if workload is None:
                continue
            clock = chip_result.chip.sub_accelerators[0].clock_hz
            records = chip_result.schedule.frame_records()
            for stream in workload.streams:
                releases = stream.release_times_s()
                bound = stream.effective_deadline_s
                for index in range(stream.frames):
                    finish_s = (records[f"{stream.model_name}#{index}"]
                                ["finish_cycle"] / clock)
                    if finish_s - releases[index] > bound:
                        recounted += 1
        assert report.missed_frames == recounted
        # ... and the fleet total must equal the sum of the per-chip report
        # rows — one miss definition everywhere.
        assert report.missed_frames == sum(
            chip_result.report.missed_frames
            for chip_result in result.chip_results)
        assert report.total_frames == len(expected_frames)

    @given(**_fleet_params)
    @settings(max_examples=20, deadline=None)
    def test_single_chip_fleet_is_the_bare_simulator(
            self, n, edge_seed, dims, num_streams, frames, fps, jitter_scale,
            num_chips, heterogeneous, policy):
        streaming = _random_streaming(n, edge_seed, dims, num_streams, frames,
                                      fps, jitter_scale)
        chip = _chip(128, "solo")
        scheduler = HeraldScheduler(_COST_MODEL)
        bare = ServingSimulator(scheduler).simulate(streaming,
                                                    chip.sub_accelerators)
        simulator = FleetSimulator(cost_model=_COST_MODEL,
                                   scheduler=HeraldScheduler(_COST_MODEL))
        result = simulator.simulate(streaming, Fleet.homogeneous(chip, 1),
                                    policy=policy)
        chip_result = result.chip_results[0]
        bare_timeline = [(e.instance_id, e.layer_index, e.sub_accelerator,
                          e.start_cycle, e.finish_cycle)
                         for e in bare.schedule.entries]
        fleet_timeline = [(e.instance_id, e.layer_index, e.sub_accelerator,
                           e.start_cycle, e.finish_cycle)
                          for e in chip_result.schedule.entries]
        assert fleet_timeline == bare_timeline
        assert ([stats.summary() for stats in chip_result.report.streams]
                == [stats.summary() for stats in bare.report.streams])
