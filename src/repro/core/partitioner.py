"""Hardware resource partitioning search (Sec. IV-C).

Given a chip-level resource envelope and a set of sub-accelerator dataflows,
the partitioner enumerates how to split the chip's PEs and global NoC
bandwidth across the sub-accelerators and ranks the evaluated candidates.
Evaluating them runs the layer scheduler on every partition (Herald's
co-design loop: the schedule depends on the partition and vice-versa) as
execution-backend tasks, which
:meth:`repro.core.dse.HeraldDSE.search_partitions` submits.

Three search strategies are provided, matching the paper's description:

* ``"exhaustive"`` — full sweep at a user-specified granularity;
* ``"binary"`` — coarse sweep followed by recursive refinement around the best
  coarse point (the paper's "binary sampling");
* ``"random"`` — uniform random sampling of the partition space.
"""

from __future__ import annotations

import random
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from repro.exceptions import SearchError
from repro.accel.builders import make_hda, make_smfda
from repro.accel.design import AcceleratorDesign
from repro.dataflow.styles import DataflowStyle
from repro.maestro.hardware import ChipConfig
from repro.core.evaluator import EvaluationResult, sla_rank_key
from repro.validation import (
    check_keys,
    expect_choice,
    expect_int,
    expect_mapping,
    expect_pos_int,
    spec_path,
)

#: Search strategies supported by :class:`PartitionSearch`.
STRATEGIES = ("exhaustive", "binary", "random")

#: Ranking objectives supported by :class:`PartitionSearch`.
SEARCH_METRICS = ("edp", "latency", "energy", "sla")


class PartitionPoint(NamedTuple):
    """One explored partition and its evaluation.

    Attributes
    ----------
    pe_partition:
        PEs per sub-accelerator.
    bw_partition_gbps:
        NoC bandwidth per sub-accelerator, in GB/s.
    result:
        Evaluation of the HDA built with this partition.
    """

    pe_partition: Tuple[int, ...]
    bw_partition_gbps: Tuple[float, ...]
    result: EvaluationResult

    @property
    def latency_s(self) -> float:
        """Workload latency of this partition."""
        return self.result.latency_s

    @property
    def energy_mj(self) -> float:
        """Workload energy of this partition."""
        return self.result.energy_mj

    @property
    def edp(self) -> float:
        """Energy-delay product of this partition."""
        return self.result.edp

    def describe(self) -> str:
        """One-line description used in reports (Table V style)."""
        pes = " / ".join(str(p) for p in self.pe_partition)
        bws = " / ".join(f"{b:.0f}" for b in self.bw_partition_gbps)
        return (
            f"PE [{pes}]  BW [{bws}] GB/s -> latency {self.latency_s * 1e3:.2f} ms, "
            f"energy {self.energy_mj:.1f} mJ, EDP {self.edp:.4g} J*s"
        )


def compositions(total: int, parts: int, step: int) -> List[Tuple[int, ...]]:
    """All ways to split ``total`` into ``parts`` positive multiples of ``step``.

    ``total`` must be divisible by ``step``.  Used for both PE and bandwidth
    partitions (bandwidth is expressed in integer units of the step).
    """
    if parts < 1:
        raise SearchError("parts must be >= 1")
    if step < 1 or total % step != 0:
        raise SearchError(f"total {total} must be a positive multiple of step {step}")
    units = total // step
    if units < parts:
        raise SearchError(
            f"cannot split {total} into {parts} positive parts with step {step}"
        )

    result: List[Tuple[int, ...]] = []

    def recurse(remaining_units: int, remaining_parts: int, prefix: Tuple[int, ...]) -> None:
        if remaining_parts == 1:
            result.append(prefix + (remaining_units * step,))
            return
        # Keep at least one unit for each of the remaining parts.
        for units_here in range(1, remaining_units - remaining_parts + 2):
            recurse(remaining_units - units_here, remaining_parts - 1,
                    prefix + (units_here * step,))

    recurse(units, parts, ())
    return result


class PartitionSearch:
    """How to search PE and bandwidth partitions for a fixed set of dataflows.

    A search is pure configuration: it enumerates candidates
    (:meth:`candidate_partitions`, :meth:`refinement_candidates`), builds the
    design a candidate denotes (:meth:`build_design`) and ranks evaluated
    points (:meth:`best_point`).  The driver that evaluates the rounds is
    :meth:`repro.core.dse.HeraldDSE.search_partitions`.

    Parameters
    ----------
    strategy:
        ``"exhaustive"``, ``"binary"``, or ``"random"``.
    pe_steps:
        Number of PE granularity steps (the PE partition is explored in units
        of ``num_pes / pe_steps``).
    bw_steps:
        Number of bandwidth granularity steps.
    metric:
        Objective used to pick the best partition: ``"edp"`` (default),
        ``"latency"``, ``"energy"``, or ``"sla"``.  The SLA objective is for
        streaming workloads: it minimises p99 frame latency *subject to zero
        deadline misses* (any partition that misses a deadline ranks after
        every partition that does not; EDP breaks remaining ties).
    samples:
        Number of random samples when ``strategy == "random"``.
    seed:
        Random seed for the random strategy (deterministic by default).
    """

    def __init__(self, strategy: str = "exhaustive", pe_steps: int = 8,
                 bw_steps: int = 4, metric: str = "edp", samples: int = 16,
                 seed: int = 0) -> None:
        if strategy not in STRATEGIES:
            raise SearchError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        if pe_steps < 2 or bw_steps < 1:
            raise SearchError("pe_steps must be >= 2 and bw_steps >= 1")
        if metric not in SEARCH_METRICS:
            raise SearchError(f"unknown metric {metric!r}")
        self.strategy = strategy
        self.pe_steps = pe_steps
        self.bw_steps = bw_steps
        self.metric = metric
        self.samples = samples
        self.seed = seed

    def best_point(self, points: Iterable[PartitionPoint]) -> PartitionPoint:
        """The explored point with the best (lowest) objective value."""
        points = list(points)
        if not points:
            raise SearchError("no partition points to choose from")
        return min(points, key=self._objective)

    # ------------------------------------------------------------------
    # Declarative candidate enumeration (evaluated by the DSE driver)
    # ------------------------------------------------------------------
    def candidate_partitions(self, chip: ChipConfig, parts: int
                             ) -> List[Tuple[Tuple[int, ...], Tuple[float, ...]]]:
        """The first-round ``(pe_partition, bw_partition_gbps)`` candidates.

        For the ``"random"`` strategy the configured sampling is already
        applied, so the returned list is exactly the search's first round,
        which the DSE driver turns into independent evaluation tasks.
        """
        candidates = self._candidate_partitions(chip, parts)
        if self.strategy == "random":
            rng = random.Random(self.seed)
            candidates = rng.sample(candidates, min(self.samples, len(candidates)))
        return candidates

    def refinement_candidates(self, chip: ChipConfig,
                              coarse_points: Sequence[PartitionPoint]
                              ) -> List[Tuple[Tuple[int, ...], Tuple[float, ...]]]:
        """Second-round candidates around the best coarse point (binary strategy).

        Returns half-step PE perturbations of the best coarse partition that
        were not already explored; empty when there is nothing to refine.
        """
        if not coarse_points:
            return []
        best = self.best_point(coarse_points)
        pe_step = max(1, chip.num_pes // (self.pe_steps * 2))
        explored = {point.pe_partition for point in coarse_points}
        candidates: List[Tuple[Tuple[int, ...], Tuple[float, ...]]] = []
        for index in range(len(best.pe_partition) - 1):
            for delta in (-pe_step, pe_step):
                candidate = list(best.pe_partition)
                candidate[index] += delta
                candidate[-1] -= delta
                if any(p <= 0 for p in candidate):
                    continue
                candidate_t = tuple(candidate)
                if candidate_t in explored:
                    continue
                explored.add(candidate_t)
                candidates.append((candidate_t, best.bw_partition_gbps))
        return candidates

    def build_design(self, chip: ChipConfig, styles: Sequence[DataflowStyle],
                     pe_partition: Sequence[int],
                     bw_partition_gbps: Sequence[float]) -> AcceleratorDesign:
        """The design a candidate partition denotes (HDA, or SM-FDA when
        all styles coincide)."""
        distinct_styles = {style.name for style in styles}
        if len(distinct_styles) == 1:
            return make_smfda(chip, styles[0], num_sub_accelerators=len(styles))
        return make_hda(chip, styles, pe_partition=pe_partition,
                        bw_partition_gbps=bw_partition_gbps)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _objective(self, point: PartitionPoint):
        """Comparable ranking key of one point under the configured metric.

        Scalar for the classic metrics; for ``"sla"`` the shared lexicographic
        :func:`~repro.core.evaluator.sla_rank_key` — zero-miss points always
        beat missing ones, then the tail, then efficiency.  Keys are only
        compared within one metric, so the mixed types are safe.
        """
        if self.metric == "sla":
            return sla_rank_key(point.result)
        if self.metric == "edp":
            return point.edp
        if self.metric == "latency":
            return point.latency_s
        return point.energy_mj

    def _candidate_partitions(self, chip: ChipConfig, parts: int
                              ) -> List[Tuple[Tuple[int, ...], Tuple[float, ...]]]:
        pe_step = max(1, chip.num_pes // self.pe_steps)
        pe_options = compositions(chip.num_pes, parts, pe_step)

        total_bw_gbps = chip.noc_bandwidth_bytes_per_s / 1e9
        bw_unit = total_bw_gbps / self.bw_steps
        if self.bw_steps >= parts:
            bw_unit_options = compositions(self.bw_steps, parts, 1)
            bw_options = [tuple(units * bw_unit for units in option)
                          for option in bw_unit_options]
        else:
            bw_options = [tuple(total_bw_gbps / parts for _ in range(parts))]

        return [(pes, bws) for pes in pe_options for bws in bw_options]


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------
_SEARCH_KEYS = ("strategy", "pe_steps", "bw_steps", "metric", "samples",
                "seed")


def search_from_spec(spec: object, path: str = "search") -> PartitionSearch:
    """Build a partition search from its declarative spec.

    Every knob is optional and defaults to the :class:`PartitionSearch`
    constructor default, so ``search: {}`` is the stock search.
    """
    mapping = expect_mapping(spec, path)
    check_keys(mapping, _SEARCH_KEYS, path)
    strategy = expect_choice(mapping.get("strategy", "exhaustive"),
                             STRATEGIES, spec_path(path, "strategy"))
    pe_steps = expect_int(mapping.get("pe_steps", 8),
                          spec_path(path, "pe_steps"), minimum=2)
    bw_steps = expect_pos_int(mapping.get("bw_steps", 4),
                              spec_path(path, "bw_steps"))
    metric = expect_choice(mapping.get("metric", "edp"), SEARCH_METRICS,
                           spec_path(path, "metric"))
    samples = expect_pos_int(mapping.get("samples", 16),
                             spec_path(path, "samples"))
    seed = expect_int(mapping.get("seed", 0), spec_path(path, "seed"),
                      minimum=0)
    return PartitionSearch(strategy=strategy, pe_steps=pe_steps,
                           bw_steps=bw_steps, metric=metric,
                           samples=samples, seed=seed)
