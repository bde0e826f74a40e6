"""Tests for the analysis helpers: metrics, Pareto fronts, and sweeps."""

import pytest

from repro.accel.classes import accelerator_class
from repro.analysis.metrics import (
    deadline_miss_rate,
    edp,
    imbalance,
    percent_improvement,
    percentile,
)
from repro.analysis.pareto import dominates, is_pareto_optimal, pareto_front
from repro.analysis.sweeps import pe_partition_sweep
from repro.maestro.hardware import ChipConfig
from repro.units import gbps, mib


class TestMetrics:
    def test_edp(self):
        assert edp(2.0, 3.0) == pytest.approx(6.0)

    def test_edp_rejects_negative(self):
        with pytest.raises(ValueError):
            edp(-1.0, 1.0)

    def test_percent_improvement_positive_when_lower(self):
        assert percent_improvement(10.0, 5.0) == pytest.approx(50.0)

    def test_percent_improvement_negative_when_higher(self):
        assert percent_improvement(10.0, 12.0) == pytest.approx(-20.0)

    def test_percent_improvement_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            percent_improvement(0.0, 1.0)


class TestPercentile:
    def test_median_of_odd_sequence(self):
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == pytest.approx(3.0)

    def test_interpolates_between_order_statistics(self):
        # rank = (4 - 1) * 0.5 = 1.5 -> halfway between 2.0 and 3.0.
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)

    def test_unsorted_input_is_sorted_internally(self):
        shuffled = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(shuffled, 50.0) == pytest.approx(3.0)
        assert percentile(shuffled, 0.0) == pytest.approx(1.0)
        assert percentile(shuffled, 100.0) == pytest.approx(5.0)

    def test_single_sample_returned_for_every_q(self):
        for q in (0.0, 37.5, 50.0, 99.0, 100.0):
            assert percentile([42.0], q) == pytest.approx(42.0)

    def test_single_sample_is_returned_exactly(self):
        """Pin the single-element contract precisely: the sample itself comes
        back (bitwise — no interpolation arithmetic touches it), for every
        ``q`` including both boundaries.  Fleet and stream reports rely on
        this for one-frame streams, where any rounding would perturb golden
        comparisons."""
        sample = 0.1 + 0.2  # an unrepresentable-looking float, kept verbatim
        for q in (0.0, 1e-9, 50.0, 100.0):
            assert percentile([sample], q) == sample
        assert percentile(iter([sample]), 99.0) == sample

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)
        with pytest.raises(ValueError):
            percentile([1.0], 100.5)

    def test_p99_tracks_the_tail(self):
        values = [1.0] * 99 + [100.0]
        assert percentile(values, 50.0) == pytest.approx(1.0)
        assert percentile(values, 99.0) > 1.0


class TestDeadlineMissRate:
    def test_scalar_deadline(self):
        assert deadline_miss_rate([1.0, 2.0, 3.0, 4.0], 2.5) == pytest.approx(0.5)

    def test_per_sample_deadlines(self):
        rate = deadline_miss_rate([1.0, 2.0, 3.0], [2.0, 1.5, 10.0])
        assert rate == pytest.approx(1.0 / 3.0)

    def test_exactly_on_deadline_is_not_a_miss(self):
        assert deadline_miss_rate([2.0], 2.0) == 0.0

    def test_empty_input_has_no_misses(self):
        assert deadline_miss_rate([], 1.0) == 0.0
        assert deadline_miss_rate([], []) == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            deadline_miss_rate([1.0, 2.0], [1.0])

    def test_empty_deadline_map_with_latencies_rejected(self):
        """Pin the empty-deadline-sequence contract: silently treating it as
        "no deadlines" would hide a caller bug (frames exist but none were
        given a bound), so it must be the length-mismatch error — with the
        counts in the message."""
        with pytest.raises(ValueError, match="2 latencies but 0 deadlines"):
            deadline_miss_rate([1.0, 2.0], [])

    def test_empty_latencies_ignore_deadline_shape(self):
        """The dual edge: zero frames miss nothing, whatever the deadline
        argument looks like (scalar, empty, even a generator)."""
        assert deadline_miss_rate([], 0.0) == 0.0
        assert deadline_miss_rate([], iter([])) == 0.0


class TestImbalance:
    def test_ratio_of_extremes(self):
        assert imbalance([2.0, 4.0, 8.0]) == pytest.approx(4.0)

    def test_balanced_input_is_one(self):
        assert imbalance([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_idle_member_is_infinite(self):
        assert imbalance([0.0, 5.0]) == float("inf")

    def test_all_idle_is_balanced(self):
        assert imbalance([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            imbalance([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            imbalance([1.0, -0.5])

    def test_accepts_generators(self):
        assert imbalance(x for x in (1.0, 2.0)) == pytest.approx(2.0)


class TestPareto:
    POINTS = [(1.0, 10.0), (2.0, 5.0), (3.0, 4.0), (2.5, 6.0), (4.0, 4.5)]

    def test_dominates(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (1.0, 1.0))
        assert not dominates((1.0, 2.0), (2.0, 1.0))

    def test_equal_points_do_not_dominate(self):
        assert not dominates((1.0, 1.0), (1.0, 1.0))

    def test_pareto_front_contents(self):
        front = pareto_front(self.POINTS)
        assert (1.0, 10.0) in front
        assert (2.0, 5.0) in front
        assert (3.0, 4.0) in front
        assert (2.5, 6.0) not in front
        assert (4.0, 4.5) not in front

    def test_pareto_front_sorted_by_latency(self):
        front = pareto_front(self.POINTS)
        latencies = [p[0] for p in front]
        assert latencies == sorted(latencies)

    def test_is_pareto_optimal(self):
        assert is_pareto_optimal((1.0, 10.0), self.POINTS)
        assert not is_pareto_optimal((2.5, 6.0), self.POINTS)

    def test_works_with_attribute_objects(self):
        class Point:
            def __init__(self, latency_s, energy_mj):
                self.latency_s = latency_s
                self.energy_mj = energy_mj

        points = [Point(1, 3), Point(2, 1), Point(3, 3)]
        front = pareto_front(points)
        assert points[0] in front and points[1] in front and points[2] not in front


class TestPartitionSweep:
    def test_sweep_points_cover_the_chip(self, cost_model, small_workload, tiny_chip):
        points = pe_partition_sweep(small_workload, tiny_chip, steps=4,
                                    cost_model=cost_model)
        assert len(points) == 3
        for point in points:
            assert sum(point.pe_partition) == tiny_chip.num_pes
            assert point.edp > 0

    def test_sweep_is_monotone_in_neither_direction(self, cost_model, small_workload,
                                                    tiny_chip):
        # The Fig. 6 curve is U-shaped: extreme partitions should not be the best.
        points = pe_partition_sweep(small_workload, tiny_chip, steps=8,
                                    cost_model=cost_model)
        best = min(points, key=lambda p: p.edp)
        assert best.pe_partition[0] not in (0, tiny_chip.num_pes)
