"""Declarative evaluation tasks for the execution engine.

A design-space exploration is, at its core, a large bag of independent
"evaluate this design on this workload" jobs.  :class:`EvaluationTask` captures
one such job declaratively — design, workload, and bookkeeping metadata — so a
backend can execute it anywhere: in-process, in a worker process, or (later) on
a remote machine.  Tasks are plain picklable tuple records; everything they embed
(designs, workloads, dataflow styles) pickles cleanly — including the
per-layer predecessor/successor index sets of DAG-shaped models, so pool
workers schedule skip connections and parallel branches exactly as the serial
backend does.  Workload-level derived state (instance expansion, the deduped
per-shape layer set) is deliberately *not* shipped: it is rebuilt cheaply in
each worker, keeping task pickles small, while the shape-keyed cost memo
shipped with the worker's cost model carries the expensive part of the warmth.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.accel.design import AcceleratorDesign
from repro.workloads.spec import WorkloadSpec


class EvaluationTask(NamedTuple):
    """One declarative design-evaluation job.

    Attributes
    ----------
    task_id:
        Unique id within one submission; backends use it to restore submission
        order when results arrive out of order.
    design:
        The accelerator design to evaluate.
    workload:
        The workload to schedule on the design.  Either a plain
        :class:`WorkloadSpec` or a streaming
        :class:`~repro.serve.workload.StreamingWorkload` — both pickle
        cleanly (the streaming expansion memo is stripped like the spec's
        derived state), and the evaluator duck-types the streaming shape, so
        pool workers reproduce online schedules and SLA metrics exactly as
        the serial backend does.
    category:
        Design-space category tag (``"fda"``, ``"sm-fda"``, ``"rda"``,
        ``"hda"``, ...) carried through to the result assembly.
    group:
        Free-form grouping key; the DSE uses it to regroup HDA partition
        candidates by dataflow combination.
    pe_partition / bw_partition_gbps:
        The hardware partition this candidate was built from, when the task
        originates from a partition search (``None`` otherwise).
    """

    task_id: int
    design: AcceleratorDesign
    workload: WorkloadSpec
    category: str = "design"
    group: str = ""
    pe_partition: Optional[Tuple[int, ...]] = None
    bw_partition_gbps: Optional[Tuple[float, ...]] = None

    def describe(self) -> str:
        """One-line description used by verbose backends."""
        return f"task {self.task_id}: {self.design.name} on {self.workload.name}"

