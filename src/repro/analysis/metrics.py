"""Metric helpers used by the evaluation: EDP, improvements, tail latency.

The paper reports results as percentage improvements ("65.3 % lower latency",
"5.0 % lower energy") of one design over another; the helpers here compute
those numbers consistently so every benchmark and example reports them the
same way.  The latency-distribution helpers (:func:`percentile`,
:func:`deadline_miss_rate`) serve the streaming serving simulator, whose SLA
reports are tail-latency percentiles against per-frame deadlines rather than
makespan aggregates.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Union


def edp(energy_j: float, latency_s: float) -> float:
    """Energy-delay product in joule-seconds."""
    if energy_j < 0 or latency_s < 0:
        raise ValueError("energy and latency must be non-negative")
    return energy_j * latency_s


def percent_improvement(baseline: float, candidate: float) -> float:
    """Percentage by which ``candidate`` improves (reduces) over ``baseline``.

    Positive values mean the candidate is better (lower); negative values mean
    it is worse, e.g. ``percent_improvement(10, 12) == -20.0``.
    """
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return (baseline - candidate) / baseline * 100.0


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of ``values`` (``0 <= q <= 100``).

    The input need not be sorted; it is copied and sorted internally.  A
    single-sample input returns that sample for every ``q``.  Uses the
    standard "linear" (NumPy default / Excel inclusive) method: the rank is
    ``(n - 1) * q / 100`` and fractional ranks interpolate between the two
    neighbouring order statistics.

    Raises
    ------
    ValueError
        If ``values`` is empty or ``q`` is outside ``[0, 100]``.
    """
    data = sorted(values)
    if not data:
        raise ValueError("cannot take a percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be within [0, 100] (got {q})")
    if len(data) == 1:
        return data[0]
    rank = (len(data) - 1) * (q / 100.0)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return data[low]
    fraction = rank - low
    return data[low] * (1.0 - fraction) + data[high] * fraction


def deadline_miss_rate(latencies: Iterable[float],
                       deadlines: Union[float, Iterable[float]]) -> float:
    """Fraction of ``latencies`` strictly exceeding their deadline.

    ``deadlines`` is either one scalar deadline shared by every sample or a
    per-sample sequence of the same length.  An empty ``latencies`` sequence
    has no missed frames, so the rate is ``0.0``.

    Raises
    ------
    ValueError
        If a per-sample deadline sequence has a different length than
        ``latencies``.
    """
    observed = list(latencies)
    if not observed:
        return 0.0
    if isinstance(deadlines, (int, float)):
        bounds: List[float] = [float(deadlines)] * len(observed)
    else:
        bounds = [float(deadline) for deadline in deadlines]
        if len(bounds) != len(observed):
            raise ValueError(
                f"got {len(observed)} latencies but {len(bounds)} deadlines"
            )
    missed = sum(1 for latency, bound in zip(observed, bounds) if latency > bound)
    return missed / len(observed)


def imbalance(values: Iterable[float]) -> float:
    """Largest value divided by the smallest (a load-unbalancing factor).

    The single definition of the max/min imbalance used by both
    :meth:`~repro.core.schedule.Schedule.load_imbalance` (per-sub-accelerator
    busy cycles within one chip) and the fleet report (per-chip busy seconds
    across a fleet).  Values must be non-negative; a zero minimum with a
    positive maximum is infinitely imbalanced (``float("inf")``), and an
    all-zero input is perfectly balanced (``1.0``).

    Raises
    ------
    ValueError
        If ``values`` is empty or contains a negative value.
    """
    loads: List[float] = list(values)
    if not loads:
        raise ValueError("cannot take the imbalance of an empty sequence")
    if any(load < 0.0 for load in loads):
        raise ValueError("imbalance requires non-negative values")
    smallest = min(loads)
    largest = max(loads)
    if smallest <= 0.0:
        return float("inf") if largest > 0 else 1.0
    return largest / smallest
