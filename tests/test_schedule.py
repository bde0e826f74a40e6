"""Tests for the schedule data structures and accounting, and for the
test suite's schedule validator."""

import json
import pickle

import pytest

from repro.core.schedule import (
    LOAD_IMBALANCE_UNUSED_SENTINEL,
    Schedule,
    ScheduledLayer,
)
from repro.exceptions import SchedulingError
from repro.maestro.cost import CostModel
from repro.maestro.hardware import SubAcceleratorConfig
from repro.dataflow.styles import NVDLA
from repro.models.layer import fc
from repro.units import gbps, mib
from schedule_oracle import entries_for, schedule_from_entries, validate_schedule


def _make_cost(layer):
    sub = SubAcceleratorConfig("acc", NVDLA, num_pes=64,
                               bandwidth_bytes_per_s=gbps(4), buffer_bytes=mib(1))
    return CostModel().layer_cost(layer, sub)


def _entry(name, instance, index, acc, start, finish):
    layer = fc(name, k=64, c=64)
    return ScheduledLayer(layer=layer, instance_id=instance, layer_index=index,
                          sub_accelerator=acc, start_cycle=start, finish_cycle=finish,
                          cost=_make_cost(layer))


def _schedule(*entries, **metadata):
    return schedule_from_entries(("a0", "a1"), entries, clock_hz=1e9,
                                 pes_per_sub_accelerator={"a0": 64, "a1": 64},
                                 **metadata)


class TestConstruction:
    def test_add_and_length(self):
        schedule = _schedule(_entry("l0", "m#0", 0, "a0", 0, 100))
        assert len(schedule) == 1
        assert len(schedule.entries) == 1

    def test_unknown_sub_accelerator_rejected(self):
        with pytest.raises(SchedulingError):
            _schedule(_entry("l0", "m#0", 0, "zzz", 0, 100))

    def test_negative_duration_rejected(self):
        with pytest.raises(SchedulingError):
            _schedule(_entry("l0", "m#0", 0, "a0", 100, 50))

    def test_extend(self):
        entries = [_entry("l0", "m#0", 0, "a0", 0, 100),
                   _entry("l1", "m#0", 1, "a1", 100, 150)]
        schedule = _schedule(*entries)
        assert len(schedule) == 2
        assert list(schedule.entries) == entries

    def test_duplicate_sub_accelerator_names_rejected(self):
        with pytest.raises(SchedulingError, match="distinct"):
            schedule_from_entries(("a0", "a0"),
                                  [_entry("l0", "m#0", 0, "a0", 0, 100)])

    def test_entries_view_is_read_only_and_indexable(self):
        entries = [_entry("l0", "m#0", 0, "a0", 0, 100),
                   _entry("l1", "m#0", 1, "a1", 100, 150),
                   _entry("l2", "m#0", 2, "a0", 150, 170)]
        view = _schedule(*entries).entries
        assert view[1] == entries[1]
        assert view[-1] == entries[-1]
        assert view[1:] == entries[1:]
        assert not hasattr(view, "append")
        with pytest.raises(TypeError):
            view[0] = entries[0]


class TestImmutability:
    def test_assigning_any_attribute_raises(self):
        schedule = _schedule(_entry("l0", "m#0", 0, "a0", 0, 100))
        for name in ("sub_accelerator_names", "clock_hz",
                     "idle_energy_pj_per_cycle_per_pe",
                     "pes_per_sub_accelerator", "instance_predecessors",
                     "instance_release_cycles", "instance_deadline_cycles",
                     "makespan_cycles", "dynamic_energy_pj", "entries",
                     "brand_new_attribute"):
            with pytest.raises(AttributeError):
                setattr(schedule, name, None)
        with pytest.raises(AttributeError):
            del schedule.clock_hz

    def test_no_mutation_api(self):
        assert not hasattr(Schedule, "add")
        assert not hasattr(Schedule, "extend")

    def test_pickle_round_trip_is_equal(self):
        schedule = _schedule(_entry("l0", "m#0", 0, "a0", 0, 100),
                             _entry("l1", "m#0", 1, "a1", 100, 250),
                             instance_release_cycles={"m#0": 0.0})
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone == schedule
        assert clone.makespan_cycles == schedule.makespan_cycles
        assert clone.busy_cycles("a1") == schedule.busy_cycles("a1")

    def test_foreign_pickle_state_is_refused(self):
        schedule = _schedule(_entry("l0", "m#0", 0, "a0", 0, 100))
        clone = Schedule.__new__(Schedule)
        with pytest.raises(pickle.UnpicklingError):
            clone.__setstate__({"entries": list(schedule.entries)})


class TestAccounting:
    def _populated(self, **metadata):
        return _schedule(_entry("l0", "m#0", 0, "a0", 0, 100),
                         _entry("l1", "m#0", 1, "a1", 100, 250),
                         _entry("l0", "n#0", 0, "a1", 250, 300), **metadata)

    def test_makespan(self):
        assert self._populated().makespan_cycles == 300
        assert self._populated().makespan_seconds == pytest.approx(300e-9)

    def test_empty_makespan_zero(self):
        assert _schedule().makespan_cycles == 0.0

    def test_busy_and_idle_cycles(self):
        schedule = self._populated()
        assert schedule.busy_cycles("a0") == 100
        assert schedule.busy_cycles("a1") == 200
        assert schedule.makespan_cycles - schedule.busy_cycles("a0") == 200

    def test_utilisation(self):
        schedule = self._populated()
        assert schedule.utilisation("a0") == pytest.approx(100 / 300)
        assert schedule.utilisation("a1") == pytest.approx(200 / 300)

    def test_load_imbalance(self):
        assert self._populated().load_imbalance() == pytest.approx(2.0)

    def test_layer_counts(self):
        assert self._populated().layer_counts() == {"a0": 1, "a1": 2}

    def test_dynamic_energy_is_sum_of_layers(self):
        schedule = self._populated()
        assert schedule.dynamic_energy_pj == pytest.approx(
            sum(entry.energy_pj for entry in schedule.entries))

    def test_idle_energy_zero_without_leakage(self):
        assert self._populated().idle_energy_pj == 0.0

    def test_idle_energy_with_leakage(self):
        schedule = self._populated(idle_energy_pj_per_cycle_per_pe=0.01)
        assert schedule.idle_energy_pj > 0.0

    def test_edp_product(self):
        schedule = self._populated()
        assert schedule.edp == pytest.approx(
            schedule.total_energy_pj * 1e-12 * schedule.makespan_seconds)

    def test_entries_for_orders_by_start_then_finish(self):
        schedule = _schedule(_entry("late", "m#0", 0, "a0", 50, 80),
                             _entry("long", "n#0", 0, "a0", 10, 40),
                             _entry("short", "o#0", 0, "a0", 10, 10))
        assert [e.layer.name for e in entries_for(schedule, "a0")] == \
            ["short", "long", "late"]
        assert entries_for(schedule, "a1") == []

    def test_summary_keys(self):
        assert set(self._populated().summary()) == {
            "latency_s", "energy_mj", "edp_js", "num_layers", "load_imbalance"}

    def test_describe_contains_counts(self):
        assert "3 layer executions" in self._populated().describe()

    def test_unused_sub_accelerator_summary_is_strict_json(self):
        # One sub-accelerator never runs a layer: load_imbalance() is inf, but
        # summary() must stay finite so strict-JSON dumps don't blow up.
        schedule = _schedule(_entry("l0", "m#0", 0, "a0", 0, 100))
        assert schedule.load_imbalance() == float("inf")
        summary = schedule.summary()
        assert summary["load_imbalance"] == LOAD_IMBALANCE_UNUSED_SENTINEL
        parsed = json.loads(json.dumps(summary, allow_nan=False))
        assert parsed["load_imbalance"] == LOAD_IMBALANCE_UNUSED_SENTINEL

    def test_entries_for_returns_independent_list(self):
        schedule = self._populated()
        timeline = entries_for(schedule, "a1")
        timeline.clear()
        assert len(entries_for(schedule, "a1")) == 2


class TestValidation:
    def test_valid_schedule_passes(self):
        validate_schedule(_schedule(_entry("l0", "m#0", 0, "a0", 0, 100),
                                    _entry("l1", "m#0", 1, "a0", 100, 200)),
                          expected_layers={"m#0": 2})

    def test_overlap_on_same_sub_accelerator_rejected(self):
        schedule = _schedule(_entry("l0", "m#0", 0, "a0", 0, 100),
                             _entry("l0", "n#0", 0, "a0", 50, 150))
        with pytest.raises(SchedulingError):
            validate_schedule(schedule)

    def test_dependence_violation_rejected(self):
        schedule = _schedule(_entry("l0", "m#0", 0, "a0", 0, 100),
                             _entry("l1", "m#0", 1, "a1", 50, 150))
        with pytest.raises(SchedulingError):
            validate_schedule(schedule)

    def test_duplicate_layer_index_rejected(self):
        schedule = _schedule(_entry("l0", "m#0", 0, "a0", 0, 100),
                             _entry("l0b", "m#0", 0, "a1", 100, 200))
        with pytest.raises(SchedulingError):
            validate_schedule(schedule)

    def test_non_contiguous_indices_rejected(self):
        schedule = _schedule(_entry("l0", "m#0", 0, "a0", 0, 100),
                             _entry("l2", "m#0", 2, "a0", 100, 200))
        with pytest.raises(SchedulingError):
            validate_schedule(schedule)

    def test_missing_layers_detected(self):
        schedule = _schedule(_entry("l0", "m#0", 0, "a0", 0, 100))
        with pytest.raises(SchedulingError):
            validate_schedule(schedule, expected_layers={"m#0": 2})

    def test_unknown_instance_detected(self):
        schedule = _schedule(_entry("l0", "ghost#0", 0, "a0", 0, 100))
        with pytest.raises(SchedulingError):
            validate_schedule(schedule, expected_layers={"m#0": 1})

    def test_parallel_execution_on_different_sub_accelerators_allowed(self):
        validate_schedule(_schedule(_entry("l0", "m#0", 0, "a0", 0, 100),
                                    _entry("l0", "n#0", 0, "a1", 0, 80)),
                          expected_layers={"m#0": 1, "n#0": 1})

    def test_overlap_checked_in_start_order_not_commit_order(self):
        # Committed late-first; sorted by start the two windows just touch.
        validate_schedule(_schedule(_entry("l1", "n#0", 0, "a0", 100, 200),
                                    _entry("l0", "m#0", 0, "a0", 0, 100)))
        with pytest.raises(SchedulingError, match="before m#0/l0 finishes"):
            validate_schedule(_schedule(_entry("l1", "n#0", 0, "a0", 99, 200),
                                        _entry("l0", "m#0", 0, "a0", 0, 100)))

    def test_zero_length_layer_sharing_a_start_is_not_an_overlap(self):
        # Ordered by (start, finish) the empty window comes first and the
        # two touch; compared in commit order they would seem to overlap.
        validate_schedule(_schedule(
            _entry("long", "m#0", 0, "a0", 100, 200),
            _entry("empty", "n#0", 0, "a0", 100, 100)))


class TestCompactPickle:
    def test_scheduled_result_pickles_arrays_not_entries(self, cost_model,
                                                         small_workload,
                                                         tiny_chip):
        from repro.accel.builders import make_hda
        from repro.core.evaluator import evaluate_design
        from repro.dataflow.styles import SHIDIANNAO

        result = evaluate_design(make_hda(tiny_chip, [NVDLA, SHIDIANNAO]),
                                 small_workload, cost_model=cost_model)
        payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        assert b"ScheduledLayer" not in payload
        clone = pickle.loads(payload)
        assert clone == result
        assert clone.edp == result.edp
        validate_schedule(clone.schedule, expected_layers={
            instance.instance_id: instance.num_layers
            for instance in small_workload.instances()})
