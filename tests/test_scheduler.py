"""Tests for Herald's scheduler and the greedy baseline."""

import pytest

import reference_scheduler
from repro.core.schedule import Schedule, ScheduledLayer
from repro.core.scheduler import GreedyScheduler, HeraldScheduler
from repro.dataflow.styles import EYERISS, NVDLA, SHIDIANNAO
from repro.exceptions import SchedulingError
from repro.maestro.hardware import SubAcceleratorConfig
from repro.units import gbps, mib
from repro.workloads.suites import arvr_a
from schedule_oracle import schedule_from_entries, validate_schedule
from support import workload_from_models


class TestHeraldSchedulerConfiguration:
    def test_invalid_metric_rejected(self, cost_model):
        with pytest.raises(SchedulingError):
            HeraldScheduler(cost_model, metric="throughput")

    def test_invalid_ordering_rejected(self, cost_model):
        with pytest.raises(SchedulingError):
            HeraldScheduler(cost_model, ordering="random")

    def test_invalid_load_balance_factor_rejected(self, cost_model):
        with pytest.raises(SchedulingError):
            HeraldScheduler(cost_model, load_balance_factor=0.5)

    def test_empty_sub_accelerator_list_rejected(self, cost_model, small_workload):
        scheduler = HeraldScheduler(cost_model)
        with pytest.raises(SchedulingError):
            scheduler.schedule(small_workload, [])


class TestHeraldSchedulerBehaviour:
    def test_schedule_is_complete_and_valid(self, cost_model, small_workload,
                                             tiny_sub_accelerators):
        scheduler = HeraldScheduler(cost_model)
        schedule = scheduler.schedule(small_workload, tiny_sub_accelerators)
        assert len(schedule) == small_workload.total_layers
        # The conftest hook already validated it; run it again explicitly.
        validate_schedule(schedule, {i.instance_id: i.num_layers
                                     for i in small_workload.instances()})

    def test_every_sub_accelerator_is_used_on_heterogeneous_mix(
            self, cost_model, small_workload, tiny_sub_accelerators):
        schedule = HeraldScheduler(cost_model).schedule(small_workload,
                                                        tiny_sub_accelerators)
        counts = schedule.layer_counts()
        assert all(count > 0 for count in counts.values())

    def test_single_sub_accelerator_is_sequential(self, cost_model, small_workload,
                                                  tiny_sub_accelerators):
        schedule = HeraldScheduler(cost_model).schedule(small_workload,
                                                        (tiny_sub_accelerators[0],))
        assert schedule.makespan_cycles == pytest.approx(
            sum(entry.finish_cycle - entry.start_cycle
                for entry in schedule.entries))

    def test_post_processing_never_hurts_makespan(self, cost_model, small_workload,
                                                  tiny_sub_accelerators):
        with_pp = HeraldScheduler(cost_model, enable_post_processing=True)
        without_pp = HeraldScheduler(cost_model, enable_post_processing=False)
        makespan_pp = with_pp.schedule(small_workload, tiny_sub_accelerators).makespan_cycles
        makespan_raw = without_pp.schedule(small_workload,
                                           tiny_sub_accelerators).makespan_cycles
        assert makespan_pp <= makespan_raw + 1e-6

    def test_load_balancing_reduces_imbalance(self, cost_model, small_workload,
                                              tiny_sub_accelerators):
        balanced = HeraldScheduler(cost_model, load_balance_factor=1.1).schedule(
            small_workload, tiny_sub_accelerators)
        unbalanced = HeraldScheduler(cost_model, load_balance_factor=None).schedule(
            small_workload, tiny_sub_accelerators)
        assert balanced.load_imbalance() <= unbalanced.load_imbalance() + 1e-6

    def test_depth_and_breadth_orderings_both_valid(self, cost_model, small_workload,
                                                    tiny_sub_accelerators):
        for ordering in ("breadth", "depth"):
            scheduler = HeraldScheduler(cost_model, ordering=ordering)
            schedule = scheduler.schedule(small_workload, tiny_sub_accelerators)
            assert len(schedule) == small_workload.total_layers

    def test_latency_metric_schedule_is_no_slower_than_energy_metric(
            self, cost_model, small_workload, tiny_sub_accelerators):
        latency_first = HeraldScheduler(cost_model, metric="latency").schedule(
            small_workload, tiny_sub_accelerators)
        energy_first = HeraldScheduler(cost_model, metric="energy").schedule(
            small_workload, tiny_sub_accelerators)
        assert latency_first.makespan_cycles <= energy_first.makespan_cycles * 1.2

    def test_memory_limit_violations_are_counted(self, cost_model, small_workload,
                                                 tiny_sub_accelerators):
        scheduler = HeraldScheduler(cost_model, memory_limit_bytes=1024)
        scheduler.schedule(small_workload, tiny_sub_accelerators)
        assert scheduler.last_memory_violations > 0

    def test_generous_memory_limit_has_no_violations(self, cost_model, small_workload,
                                                     tiny_sub_accelerators):
        scheduler = HeraldScheduler(cost_model, memory_limit_bytes=mib(1024))
        scheduler.schedule(small_workload, tiny_sub_accelerators)
        assert scheduler.last_memory_violations == 0

    def test_deterministic_output(self, cost_model, small_workload, tiny_sub_accelerators):
        first = HeraldScheduler(cost_model).schedule(small_workload, tiny_sub_accelerators)
        second = HeraldScheduler(cost_model).schedule(small_workload, tiny_sub_accelerators)
        assert [(e.instance_id, e.layer.name, e.sub_accelerator, e.start_cycle)
                for e in first.entries] == \
               [(e.instance_id, e.layer.name, e.sub_accelerator, e.start_cycle)
                for e in second.entries]

    def test_layers_follow_dataflow_preference_without_load_pressure(
            self, cost_model, tiny_sub_accelerators, channel_heavy_model):
        # A purely channel-heavy model should land (almost) entirely on the
        # NVDLA-style sub-accelerator when load balancing is disabled.
        workload = workload_from_models("channel-only", [channel_heavy_model], 1)
        schedule = HeraldScheduler(cost_model, load_balance_factor=None).schedule(
            workload, tiny_sub_accelerators)
        counts = schedule.layer_counts()
        assert counts["acc0-nvdla"] == len(channel_heavy_model)


class TestFourWayDesign:
    """A 4-sub-accelerator HDA with a memory limit, without post-processing,
    and with both: the preference walk must handle any design arity."""

    @pytest.fixture(scope="class")
    def four_way(self):
        return tuple(
            SubAcceleratorConfig(name=f"acc{index}-{style.name}",
                                 dataflow=style, num_pes=256,
                                 bandwidth_bytes_per_s=gbps(4),
                                 buffer_bytes=mib(1))
            for index, style in enumerate((NVDLA, SHIDIANNAO, EYERISS, NVDLA)))

    @pytest.mark.parametrize("memory_limit, post", [
        (mib(8), True), (None, False), (mib(8), False)])
    def test_schedule_equals_reference(self, cost_model, four_way,
                                       memory_limit, post):
        workload = arvr_a()
        scheduler = HeraldScheduler(cost_model, memory_limit_bytes=memory_limit,
                                    enable_post_processing=post)
        schedule = scheduler.schedule(workload, four_way)
        reference, violations = reference_scheduler.reference_schedule(
            workload, four_way, cost_model, memory_limit_bytes=memory_limit,
            enable_post_processing=post)
        assert len(schedule) == workload.total_layers
        assert reference_scheduler.timeline(schedule) == \
            reference_scheduler.timeline(reference)
        assert scheduler.last_memory_violations == violations
        assert all(count > 0 for count in schedule.layer_counts().values())


class TestDuplicateSubAcceleratorNames:
    """Two arrays sharing a name would share one row of the per-name cost
    table; both schedulers reject them when building the schedule, with a
    typed error instead of a misleading overlap failure."""

    @pytest.mark.parametrize("scheduler_class", [HeraldScheduler,
                                                 GreedyScheduler])
    def test_rejected_by_both_schedulers(self, cost_model, scheduler_class):
        from repro.accel.builders import chip_from_spec, make_hda
        first, second = make_hda(chip_from_spec("edge"),
                                 [NVDLA, SHIDIANNAO]).sub_accelerators
        twin = second._replace(name=first.name)
        with pytest.raises(SchedulingError, match="distinct"):
            scheduler_class(cost_model).schedule(arvr_a(), [first, twin])


class TestGreedyScheduler:
    def test_invalid_metric_rejected(self, cost_model):
        with pytest.raises(SchedulingError):
            GreedyScheduler(cost_model, metric="bogus")

    def test_empty_sub_accelerators_rejected(self, cost_model, small_workload):
        with pytest.raises(SchedulingError):
            GreedyScheduler(cost_model).schedule(small_workload, [])

    def test_schedule_is_complete_and_valid(self, cost_model, small_workload,
                                            tiny_sub_accelerators):
        schedule = GreedyScheduler(cost_model).schedule(small_workload,
                                                        tiny_sub_accelerators)
        assert len(schedule) == small_workload.total_layers

    def test_herald_never_worse_than_greedy_on_edp(self, cost_model, small_workload,
                                                   tiny_sub_accelerators):
        herald = HeraldScheduler(cost_model).schedule(small_workload,
                                                      tiny_sub_accelerators)
        greedy = GreedyScheduler(cost_model).schedule(small_workload,
                                                      tiny_sub_accelerators)
        assert herald.edp <= greedy.edp * 1.05

    def test_herald_reduces_makespan_vs_greedy(self, cost_model, small_workload,
                                               tiny_sub_accelerators):
        herald = HeraldScheduler(cost_model).schedule(small_workload,
                                                      tiny_sub_accelerators)
        greedy = GreedyScheduler(cost_model).schedule(small_workload,
                                                      tiny_sub_accelerators)
        assert herald.makespan_cycles <= greedy.makespan_cycles * 1.05


class _DependenceBreakingScheduler(HeraldScheduler):
    """Herald with one planted fault: the first layer that waits on a
    producer running on another sub-accelerator starts as soon as its own
    sub-accelerator is free, before that producer finishes."""

    def _timeline(self, *args):
        schedule = super()._timeline(*args)
        entries = list(schedule.entries)
        by_index = {(e.instance_id, e.layer_index): e for e in entries}
        for position, entry in enumerate(entries):
            idle_from = max((other.finish_cycle for other in entries
                             if other.sub_accelerator == entry.sub_accelerator
                             and other.finish_cycle <= entry.start_cycle),
                            default=0.0)
            producers = schedule.instance_predecessors[
                entry.instance_id][entry.layer_index]
            if any(by_index[entry.instance_id, producer].finish_cycle
                   > idle_from + 1.0 for producer in producers):
                entries[position] = ScheduledLayer(
                    entry.layer, entry.instance_id, entry.layer_index,
                    entry.sub_accelerator, idle_from, entry.finish_cycle,
                    entry.cost)
                return schedule_from_entries(
                    schedule.sub_accelerator_names, entries,
                    clock_hz=schedule.clock_hz,
                    instance_predecessors=schedule.instance_predecessors)
        raise AssertionError("no layer waits on another sub-accelerator")


class _DependenceBreakingGreedyScheduler(_DependenceBreakingScheduler,
                                         GreedyScheduler):
    """The greedy baseline with the same planted fault."""


class TestValidationLivesInTheSuite:
    """Herald's scheduler does not check its own output; the
    ``pytest_configure`` hook in ``conftest.py`` checks every schedule it
    returns, the greedy baseline's included."""

    @staticmethod
    def _assert_hook_catches(scheduler):
        from repro.accel.builders import chip_from_spec, make_hda
        workload = arvr_a()
        accs = make_hda(chip_from_spec("edge"),
                        [NVDLA, SHIDIANNAO]).sub_accelerators
        unchecked = HeraldScheduler.schedule.__wrapped__(scheduler, workload,
                                                         accs)
        assert len(unchecked) == workload.total_layers
        with pytest.raises(SchedulingError, match="before its producer"):
            scheduler.schedule(workload, accs)

    def test_suite_hook_fails_a_schedule_that_breaks_a_dependence(
            self, cost_model):
        self._assert_hook_catches(_DependenceBreakingScheduler(cost_model))

    def test_suite_hook_fails_a_greedy_schedule_that_breaks_a_dependence(
            self, cost_model):
        self._assert_hook_catches(
            _DependenceBreakingGreedyScheduler(cost_model))

    def test_suite_hook_fails_a_probe_schedule_that_breaks_a_dependence(
            self, cost_model):
        # Sustained-FPS probes schedule through ``ServingSimulator._probe``,
        # not ``HeraldScheduler.schedule``; the hook checks what they
        # complete as well.
        from repro.accel.builders import chip_from_spec, make_hda
        from repro.serve import ServingSimulator, streaming_suite

        streaming = streaming_suite("arvr-a", frames=1, fps_scale=1e-3)
        accs = make_hda(chip_from_spec("edge"),
                        [NVDLA, SHIDIANNAO]).sub_accelerators
        simulator = ServingSimulator(_DependenceBreakingScheduler(cost_model))
        unchecked = ServingSimulator._probe.__wrapped__(simulator, streaming,
                                                        accs)
        assert len(unchecked) == streaming.to_workload_spec().total_layers
        with pytest.raises(SchedulingError, match="before its producer"):
            simulator._probe(streaming, accs)

    def test_herald_schedule_makes_no_validate_call(
            self, cost_model, small_workload, tiny_sub_accelerators):
        # The checks live in tests/schedule_oracle.py: production code has
        # nothing to call.
        assert not hasattr(Schedule, "validate")
        assert not hasattr(Schedule, "from_entries")
        schedule = HeraldScheduler.schedule.__wrapped__(
            HeraldScheduler(cost_model), small_workload, tiny_sub_accelerators)
        assert len(schedule) == small_workload.total_layers
