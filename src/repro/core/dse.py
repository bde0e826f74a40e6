"""Herald's co-design-space-exploration driver (Fig. 10).

:class:`HeraldDSE` ties everything together: for a workload and an accelerator
class it evaluates

* every FDA (one per dataflow style),
* every SM-FDA (homogeneous scale-out, evenly partitioned),
* the MAERI-style RDA, and
* every HDA dataflow combination, each with a hardware-partition search,

and returns the full design space (the scatter plots of Fig. 11) together with
the best design per accelerator category.  The named HDA the paper identifies,
**Maelstrom** (NVDLA + Shi-diannao with Herald-optimised partitioning), is
exposed through :meth:`HeraldDSE.maelstrom`.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import SearchError
from repro.accel.builders import (
    enumerate_fdas,
    enumerate_smfdas,
    hda_style_combinations,
    make_hda,
    make_rda,
)
from repro.accel.design import AcceleratorDesign
from repro.dataflow.styles import ALL_STYLES, NVDLA, SHIDIANNAO, DataflowStyle
from repro.maestro.cost import CostModel
from repro.maestro.hardware import ChipConfig
from repro.core.evaluator import EvaluationResult, sla_rank_key
from repro.core.partitioner import PartitionPoint, PartitionSearch
from repro.core.scheduler import HeraldScheduler
from repro.workloads.spec import WorkloadSpec


class DesignSpacePoint(NamedTuple):
    """One evaluated design in the latency-energy plane (a dot in Fig. 11)."""

    category: str
    design: AcceleratorDesign
    result: EvaluationResult

    @property
    def latency_s(self) -> float:
        """Workload latency of this design."""
        return self.result.latency_s

    @property
    def energy_mj(self) -> float:
        """Workload energy of this design."""
        return self.result.energy_mj

    @property
    def edp(self) -> float:
        """Energy-delay product of this design."""
        return self.result.edp

    def describe(self) -> str:
        """One-line description used in design-space dumps."""
        return (
            f"[{self.category:<12}] {self.design.name:<42} "
            f"latency {self.latency_s * 1e3:9.2f} ms  energy {self.energy_mj:9.1f} mJ  "
            f"EDP {self.edp:.4g} J*s"
        )


class DSEResult:
    """Full outcome of one Herald DSE run (one workload on one chip class).

    ``failures`` is non-empty only for ``partial_ok`` explorations that lost
    tasks to failed evaluations: the surviving points are ranked as usual and
    the casualties stay visible as structured records.  ``resumed_tasks`` /
    ``executed_tasks`` carry the checkpoint bookkeeping of resilient runs
    (zero on the plain path).
    """

    def __init__(self, workload_name: str, chip_name: str) -> None:
        self.workload_name = workload_name
        self.chip_name = chip_name
        self.points: List[DesignSpacePoint] = []
        self.elapsed_s = 0.0
        self.failures: Tuple["TaskFailure", ...] = ()
        self.resumed_tasks = 0
        self.executed_tasks = 0

    def by_category(self, category: str) -> List[DesignSpacePoint]:
        """All evaluated points of one category (``fda``, ``sm-fda``, ``rda``, ``hda``)."""
        return [point for point in self.points if point.category == category]

    def best(self, category: Optional[str] = None, metric: str = "edp") -> DesignSpacePoint:
        """Best point overall or within a category, by the given metric.

        ``"sla"`` (streaming design spaces) ranks by the shared
        :func:`~repro.core.evaluator.sla_rank_key` — ``(missed deadlines?,
        p99 frame latency, EDP)``: minimise tail latency subject to zero
        deadline misses, exactly as ``PartitionSearch(metric="sla")`` does.
        """
        pool = self.points if category is None else self.by_category(category)
        if not pool:
            raise SearchError(
                f"no design points in category {category!r} for workload "
                f"{self.workload_name!r}"
            )
        key = {
            "edp": lambda p: p.edp,
            "latency": lambda p: p.latency_s,
            "energy": lambda p: p.energy_mj,
            "sla": lambda p: sla_rank_key(p.result),
        }[metric]
        return min(pool, key=key)

    def categories(self) -> List[str]:
        """Categories present in the design space."""
        return sorted({point.category for point in self.points})

    def summary_rows(self) -> List[Dict[str, object]]:
        """Best design per category as report-friendly rows.

        One pass over the points ranks every category by EDP off each
        schedule's cached totals; ties keep the earliest point, as
        :meth:`best` does.
        """
        best: Dict[str, DesignSpacePoint] = {}
        for point in self.points:
            incumbent = best.get(point.category)
            if incumbent is None or point.edp < incumbent.edp:
                best[point.category] = point
        return [{
            "category": category,
            "design": point.design.name,
            "latency_s": point.latency_s,
            "energy_mj": point.energy_mj,
            "edp_js": point.edp,
        } for category, point in sorted(best.items())]

    def failure_rows(self) -> List[Dict[str, object]]:
        """Terminal task failures as report-friendly rows (empty when clean)."""
        return [failure.summary() for failure in self.failures]

    def describe(self) -> str:
        """Multi-line summary: best design per category (and any casualties)."""
        lines = [f"Design space for {self.workload_name} on {self.chip_name} "
                 f"({len(self.points)} points, {self.elapsed_s:.1f} s)"]
        for row in self.summary_rows():
            lines.append(
                f"  best {row['category']:<8}: {row['design']:<42} "
                f"latency {row['latency_s'] * 1e3:9.2f} ms  "
                f"energy {row['energy_mj']:9.1f} mJ  EDP {row['edp_js']:.4g} J*s"
            )
        if self.failures:
            lines.append(f"  WARNING: {len(self.failures)} task(s) failed "
                         f"(ranked surviving points only):")
            for failure in self.failures:
                lines.append(f"    {failure.describe()}")
        return "\n".join(lines)


class HeraldDSE:
    """Hardware/schedule co-design-space exploration driver.

    Parameters
    ----------
    cost_model:
        Shared cost model; a single instance is reused so its cache carries
        across every design evaluated in one DSE run.
    scheduler:
        Layer scheduler used for every design; defaults to Herald's scheduler.
    partition_search:
        Partition-search configuration used for HDA (and SM-FDA) candidates.
    styles:
        Dataflow styles available for FDAs / sub-accelerators.
    backend:
        Execution backend the enumerated evaluation tasks are submitted to.
        Defaults to an in-process :class:`~repro.exec.backends.SerialBackend`
        sharing this driver's cost model and scheduler; pass a
        :class:`~repro.exec.backends.ProcessPoolBackend` to fan the design
        space out across worker processes.
    """

    def __init__(self, cost_model: Optional[CostModel] = None,
                 scheduler: Optional[HeraldScheduler] = None,
                 partition_search: Optional[PartitionSearch] = None,
                 styles: Sequence[DataflowStyle] = ALL_STYLES,
                 backend: Optional["ExecutionBackend"] = None) -> None:
        self.cost_model = cost_model or CostModel()
        self.scheduler = scheduler or HeraldScheduler(self.cost_model)
        self.partition_search = partition_search or PartitionSearch(
            cost_model=self.cost_model, scheduler=self.scheduler)
        self.styles = tuple(styles)
        if backend is None:
            from repro.exec.backends import SerialBackend
            backend = SerialBackend(cost_model=self.cost_model, scheduler=self.scheduler)
        self.backend = backend

    # ------------------------------------------------------------------
    # Whole-design-space exploration (Fig. 11)
    # ------------------------------------------------------------------
    def enumerate_tasks(self, workload: WorkloadSpec, chip: ChipConfig,
                        include_rda: bool = True, include_smfda: bool = True,
                        include_three_way: bool = True,
                        hda_combinations: Optional[Sequence[Sequence[DataflowStyle]]] = None,
                        first_task_id: int = 0) -> Iterator["EvaluationTask"]:
        """Lazily enumerate the design space as declarative evaluation tasks.

        One task per candidate design: every FDA, every SM-FDA, the RDA, and
        every partition candidate of every HDA dataflow combination.  Tasks
        carry their category (and, for HDA candidates, the partition and a
        per-combination group key) so results can be reassembled into a
        :class:`DSEResult` regardless of which backend ran them.
        """
        from repro.exec.tasks import EvaluationTask

        task_id = first_task_id
        for design in enumerate_fdas(chip, self.styles):
            yield EvaluationTask(task_id, design, workload, category="fda")
            task_id += 1

        if include_smfda:
            for design in enumerate_smfdas(chip, 2, self.styles):
                yield EvaluationTask(task_id, design, workload, category="sm-fda")
                task_id += 1

        if include_rda:
            yield EvaluationTask(task_id, make_rda(chip), workload, category="rda")
            task_id += 1

        for combo in self._hda_combos(hda_combinations, include_three_way):
            group = self._combo_group(combo)
            for pes, bws in self.partition_search.candidate_partitions(chip, len(combo)):
                design = self.partition_search.build_design(chip, list(combo), pes, bws)
                yield EvaluationTask(task_id, design, workload, category="hda",
                                     group=group, pe_partition=tuple(pes),
                                     bw_partition_gbps=tuple(bws))
                task_id += 1

    def explore(self, workload: WorkloadSpec, chip: ChipConfig,
                include_rda: bool = True, include_smfda: bool = True,
                include_three_way: bool = True,
                hda_combinations: Optional[Sequence[Sequence[DataflowStyle]]] = None,
                partial_ok: bool = False,
                checkpoint: Optional["SweepCheckpoint"] = None
                ) -> DSEResult:
        """Evaluate the full accelerator design space for one workload and chip.

        The candidate designs are enumerated as declarative tasks and submitted
        to the configured execution backend; with the binary partition-search
        strategy a second, refinement round is submitted around the best coarse
        partition of each HDA combination.

        With ``partial_ok``, tasks whose evaluation fails are dropped from
        the ranking and surfaced as :attr:`DSEResult.failures`
        instead of aborting the sweep.  ``checkpoint`` threads a
        :class:`~repro.exec.checkpoint.SweepCheckpoint` through both rounds
        (scopes ``"dse"`` and ``"dse-refine"``): completed evaluations are
        recorded as they arrive and a resumed run re-executes only the
        missing tasks, producing the identical design space.

        Every task references this one ``workload`` object, so the backend
        prewarms one deduped per-shape cost table for each round (one memo
        entry per shape x sub-accelerator configuration).
        """
        start = time.perf_counter()
        result = DSEResult(workload_name=workload.name, chip_name=chip.name)

        combos = self._hda_combos(hda_combinations, include_three_way)
        tasks = list(self.enumerate_tasks(
            workload, chip, include_rda=include_rda, include_smfda=include_smfda,
            hda_combinations=combos))
        completed = self._run_round(tasks, result, partial_ok, checkpoint,
                                    scope="dse")

        hda_points: Dict[str, List[PartitionPoint]] = {}
        for task, evaluation in completed:
            result.points.append(DesignSpacePoint(
                category=task.category, design=task.design, result=evaluation))
            if task.category == "hda":
                hda_points.setdefault(task.group, []).append(PartitionPoint(
                    pe_partition=task.pe_partition,
                    bw_partition_gbps=task.bw_partition_gbps,
                    result=evaluation,
                ))

        if self.partition_search.strategy == "binary" and hda_points:
            self._refine_hdas(result, workload, chip, hda_points, combos,
                              first_task_id=len(tasks), partial_ok=partial_ok,
                              checkpoint=checkpoint)

        result.elapsed_s = time.perf_counter() - start
        return result

    def _run_round(self, tasks: List["EvaluationTask"], result: DSEResult,
                   partial_ok: bool, checkpoint: Optional["SweepCheckpoint"],
                   scope: str) -> List[Tuple["EvaluationTask", EvaluationResult]]:
        """Submit one round of tasks, via ``run_resilient`` when the round
        may come back partial or is checkpointed."""
        if not partial_ok and checkpoint is None:
            return list(zip(tasks, self.backend.run(tasks)))
        outcome = self.backend.run_resilient(tasks, partial_ok=partial_ok,
                                             checkpoint=checkpoint,
                                             scope=scope)
        result.failures = result.failures + outcome.failures
        result.resumed_tasks += outcome.resumed_tasks
        result.executed_tasks += outcome.executed_tasks
        return outcome.completed(tasks)

    def _refine_hdas(self, result: DSEResult, workload: WorkloadSpec,
                     chip: ChipConfig, hda_points: Dict[str, List[PartitionPoint]],
                     combos: Sequence[Tuple[DataflowStyle, ...]],
                     first_task_id: int, partial_ok: bool = False,
                     checkpoint: Optional["SweepCheckpoint"] = None) -> None:
        """Second (binary-refinement) round around each combo's best partition."""
        from repro.exec.tasks import EvaluationTask

        styles_by_group = {self._combo_group(combo): combo for combo in combos}
        refine_tasks: List[EvaluationTask] = []
        task_id = first_task_id
        for group, coarse in hda_points.items():
            combo = styles_by_group[group]
            for pes, bws in self.partition_search.refinement_candidates(chip, coarse):
                design = self.partition_search.build_design(chip, list(combo), pes, bws)
                refine_tasks.append(EvaluationTask(
                    task_id, design, workload, category="hda", group=group,
                    pe_partition=tuple(pes), bw_partition_gbps=tuple(bws)))
                task_id += 1
        completed = self._run_round(refine_tasks, result, partial_ok,
                                    checkpoint, scope="dse-refine")
        for task, evaluation in completed:
            result.points.append(DesignSpacePoint(
                category="hda", design=task.design, result=evaluation))

    @staticmethod
    def _combo_group(combo: Sequence[DataflowStyle]) -> str:
        return "hda:" + "+".join(style.name for style in combo)

    def _hda_combos(self, hda_combinations: Optional[Sequence[Sequence[DataflowStyle]]],
                    include_three_way: bool) -> List[Tuple[DataflowStyle, ...]]:
        if hda_combinations is not None:
            return [tuple(combo) for combo in hda_combinations]
        return hda_style_combinations(self.styles, include_three_way=include_three_way)

    # ------------------------------------------------------------------
    # Maelstrom: the paper's named HDA (NVDLA + Shi-diannao)
    # ------------------------------------------------------------------
    def maelstrom(self, workload: WorkloadSpec, chip: ChipConfig) -> PartitionPoint:
        """Herald-optimised NVDLA + Shi-diannao HDA for the workload (Table V)."""
        return self.partition_search.search_best(chip, [NVDLA, SHIDIANNAO], workload)

    def maelstrom_design(self, workload: WorkloadSpec, chip: ChipConfig
                         ) -> AcceleratorDesign:
        """The Maelstrom accelerator design itself (for reuse in other studies)."""
        point = self.maelstrom(workload, chip)
        return make_hda(
            chip,
            [NVDLA, SHIDIANNAO],
            pe_partition=point.pe_partition,
            bw_partition_gbps=point.bw_partition_gbps,
            name=f"maelstrom-{workload.name}-{chip.name}",
        )

    # ------------------------------------------------------------------
    # Comparisons used throughout Sec. V
    # ------------------------------------------------------------------
    def compare_with_baselines(self, workload: WorkloadSpec, chip: ChipConfig
                               ) -> Dict[str, EvaluationResult]:
        """Best FDA, best SM-FDA, the RDA, and Maelstrom on one workload/chip."""
        space = self.explore(workload, chip, include_three_way=False,
                             hda_combinations=[(NVDLA, SHIDIANNAO)])
        return {
            "best_fda": space.best("fda").result,
            "best_smfda": space.best("sm-fda").result,
            "rda": space.best("rda").result,
            "maelstrom": space.best("hda").result,
        }

