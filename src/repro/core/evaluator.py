"""Design evaluation: latency, energy, and EDP of a design on a workload.

This is the glue between the accelerator descriptions (:mod:`repro.accel`),
the scheduler (:mod:`repro.core.scheduler`), and the cost model
(:mod:`repro.maestro`).  Every experiment in the paper boils down to calling
:func:`evaluate_design` on some (design, workload) pair and comparing the
resulting latency / energy / EDP numbers.

Streaming workloads (:class:`~repro.serve.workload.StreamingWorkload`) are
accepted everywhere a batch workload is: the evaluator recognises them by
duck typing (``to_workload_spec``), converts the per-frame release times and
deadlines into cycles at the design's clock, and schedules in online mode.
The resulting schedule carries the frame accounting, so SLA-aware consumers
(``metric="sla"`` partition search / DSE selection) read tail latency and
deadline misses straight off the :class:`EvaluationResult`.  The recognition
is duck-typed rather than an ``isinstance`` against :mod:`repro.serve` to
keep the core free of an import cycle (serve builds on core).

The fleet layer leans on the same entry point: each chip of a
:class:`~repro.serve.fleet.Fleet` is one ``evaluate_design`` call on its
per-chip streaming workload (shipped as an ordinary
:class:`~repro.exec.tasks.EvaluationTask`, so chips simulate in parallel
through any execution backend), which is what makes a single-chip passthrough
fleet bit-for-bit the single-chip serving simulator.
"""

from __future__ import annotations

import time
from typing import Dict, NamedTuple, Optional, Tuple

from repro.accel.design import AcceleratorDesign
from repro.maestro.cost import CostModel
from repro.core.schedule import Schedule
from repro.core.scheduler import HeraldScheduler
from repro.workloads.spec import WorkloadSpec


class EvaluationResult(NamedTuple):
    """Outcome of evaluating one accelerator design on one workload.

    Attributes
    ----------
    design:
        The evaluated accelerator design.
    workload_name:
        Name of the workload the design was evaluated on.
    schedule:
        The layer-execution schedule that produced the numbers.
    scheduling_time_s:
        Wall-clock time spent scheduling (Table VII reports this).
    """

    design: AcceleratorDesign
    workload_name: str
    schedule: Schedule
    scheduling_time_s: float

    @property
    def latency_s(self) -> float:
        """Workload completion time in seconds."""
        return self.schedule.makespan_seconds

    @property
    def energy_mj(self) -> float:
        """Total energy in millijoules."""
        return self.schedule.total_energy_mj

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds."""
        return self.schedule.edp

    def summary(self) -> Dict[str, float]:
        """Key metrics as a dictionary used by reports and benchmarks.

        Every value is finite (strict-JSON serializable): the load imbalance
        comes from :meth:`Schedule.summary`, which substitutes a finite
        sentinel when a sub-accelerator never runs a layer.
        """
        return {
            "latency_s": self.latency_s,
            "energy_mj": self.energy_mj,
            "edp_js": self.edp,
            "scheduling_time_s": self.scheduling_time_s,
            "load_imbalance": self.schedule.load_imbalance_finite(),
        }

    def frame_summary(self) -> Dict[str, float]:
        """Frame-latency statistics of the schedule (see
        :meth:`~repro.core.schedule.Schedule.frame_summary`).

        For a batch evaluation (no release information) latencies are
        measured from cycle zero — i.e. per-instance completion times — and
        the deadline statistics are zero because no deadlines are attached.
        """
        return self.schedule.frame_summary()

    @property
    def p99_latency_s(self) -> float:
        """p99 per-frame latency; for batch evaluations, the p99 per-instance
        completion time measured from cycle zero."""
        return self.frame_summary()["p99_latency_s"]

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of frames past their deadline (0.0 when no deadlines are
        attached, as in any batch evaluation)."""
        return self.frame_summary()["deadline_miss_rate"]

    def describe(self) -> str:
        """One-line description used by reports and the CLI."""
        return (
            f"{self.design.name} on {self.workload_name}: "
            f"latency {self.latency_s * 1e3:.2f} ms, energy {self.energy_mj:.2f} mJ, "
            f"EDP {self.edp:.4g} J*s"
        )


def sla_rank_key(result: "EvaluationResult") -> Tuple[int, float, float]:
    """The SLA objective's lexicographic ranking key for one evaluation.

    ``(missed deadlines?, p99 frame latency, EDP)`` — zero-miss designs beat
    deadline-missing ones, then the tail, then efficiency.  The single
    definition both :class:`~repro.core.partitioner.PartitionSearch`
    (``metric="sla"``) and :meth:`~repro.core.dse.DSEResult.best` rank by, so
    the two searches can never disagree about which point "wins" the SLA.
    """
    frames = result.frame_summary()
    return (1 if frames["missed_frames"] else 0, frames["p99_latency_s"],
            result.edp)


def streaming_parts(workload) -> Tuple[WorkloadSpec, Optional[object]]:
    """Split a (possibly streaming) workload into (batch spec, streaming).

    Plain :class:`WorkloadSpec` objects pass through as ``(spec, None)``;
    anything exposing the streaming surface (``to_workload_spec`` /
    ``release_cycles`` / ``deadline_cycles``, i.e. a
    :class:`~repro.serve.workload.StreamingWorkload`) is expanded and handed
    back so the caller can convert its trace at the design's clock.  The
    recognition is duck-typed rather than an ``isinstance`` to keep the core
    free of an import cycle (serve builds on core).
    """
    expand = getattr(workload, "to_workload_spec", None)
    if expand is None:
        return workload, None
    return expand(), workload


def evaluate_design(design: AcceleratorDesign, workload: WorkloadSpec,
                    cost_model: Optional[CostModel] = None,
                    scheduler: Optional[HeraldScheduler] = None) -> EvaluationResult:
    """Evaluate ``design`` on ``workload`` and return latency / energy / EDP.

    A default :class:`~repro.core.scheduler.HeraldScheduler` is used unless a
    configured scheduler (such as the
    :class:`~repro.core.scheduler.GreedyScheduler` baseline) is supplied.
    Monolithic designs (FDA / RDA) have a single sub-accelerator, so the
    same scheduler simply produces a sequential schedule for them.  A streaming workload is
    scheduled in online mode against its arrival trace (releases/deadlines
    converted to cycles at the design's clock), and the returned result's
    schedule carries the per-frame accounting.
    """
    model = cost_model or CostModel()
    active_scheduler = scheduler or HeraldScheduler(model)
    spec, streaming = streaming_parts(workload)
    clock = design.sub_accelerators[0].clock_hz
    start = time.perf_counter()
    if streaming is None:
        schedule = active_scheduler.schedule(spec, design.sub_accelerators)
    else:
        schedule = active_scheduler.schedule(
            spec, design.sub_accelerators,
            release_cycles=streaming.release_cycles(clock),
            deadline_cycles=streaming.deadline_cycles(clock))
    elapsed = time.perf_counter() - start
    return EvaluationResult(
        design=design,
        workload_name=workload.name,
        schedule=schedule,
        scheduling_time_s=elapsed,
    )
