"""Baseline greedy scheduler the paper compares Herald's scheduler against.

The greedy baseline (Sec. V-B, "Efficacy of Scheduling Algorithm") assigns
every layer to the sub-accelerator with the least per-layer EDP, walking the
models one after another (depth-first), with no load balancing and no
idle-time post-processing.  It is locally optimal per layer but globally
sub-optimal: the preferred sub-accelerator becomes a serial bottleneck while
the others sit idle.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.exceptions import SchedulingError
from repro.maestro.cost import CostModel, metric_value
from repro.maestro.hardware import SubAcceleratorConfig
from repro.core.schedule import Schedule, ScheduledLayer
from repro.core.scheduler import checked_release_cycles
from repro.workloads.spec import WorkloadSpec


class GreedyScheduler:
    """Per-layer locally-optimal scheduler with no global considerations.

    Parameters
    ----------
    cost_model:
        Cost model used to rank sub-accelerators per layer.
    metric:
        Per-layer objective; the paper's baseline uses EDP.
    """

    def __init__(self, cost_model: CostModel, metric: str = "edp") -> None:
        if metric not in ("edp", "latency", "energy"):
            raise SchedulingError(f"unknown metric {metric!r}")
        self.cost_model = cost_model
        self.metric = metric

    def schedule(self, workload: WorkloadSpec,
                 sub_accelerators: Sequence[SubAcceleratorConfig],
                 release_cycles: Optional[Mapping[str, float]] = None,
                 deadline_cycles: Optional[Mapping[str, float]] = None
                 ) -> Schedule:
        """Schedule ``workload`` greedily onto ``sub_accelerators``.

        ``release_cycles`` (instance id -> arrival cycle) and
        ``deadline_cycles`` match the online serving mode of
        :class:`~repro.core.scheduler.HeraldScheduler`: an instance's first
        layer starts no earlier than its release.  The baseline walks
        instances depth-first regardless, so releases only delay starts.
        """
        if not sub_accelerators:
            raise SchedulingError("cannot schedule onto an empty sub-accelerator list")
        releases = checked_release_cycles(release_cycles, workload.instances())
        released_at = releases.get if releases else None
        entries = []
        acc_available: Dict[str, float] = {acc.name: 0.0 for acc in sub_accelerators}

        for instance in workload.instances():
            previous_finish = (released_at(instance.instance_id, 0.0)
                               if released_at else 0.0)
            for layer_index, layer in enumerate(instance.layers_in_dependence_order()):
                best_acc = None
                best_cost = None
                best_value = None
                for acc in sub_accelerators:
                    cost = self.cost_model.layer_cost(layer, acc)
                    value = metric_value(cost, self.metric)
                    if best_value is None or (value, acc.name) < (best_value, best_acc):
                        best_value = value
                        best_acc = acc.name
                        best_cost = cost
                start = max(acc_available[best_acc], previous_finish)
                finish = start + best_cost.latency_cycles
                entries.append(ScheduledLayer(
                    layer=layer,
                    instance_id=instance.instance_id,
                    layer_index=layer_index,
                    sub_accelerator=best_acc,
                    start_cycle=start,
                    finish_cycle=finish,
                    cost=best_cost,
                ))
                acc_available[best_acc] = finish
                previous_finish = finish

        schedule = Schedule.from_entries(
            [acc.name for acc in sub_accelerators], entries,
            clock_hz=sub_accelerators[0].clock_hz,
            idle_energy_pj_per_cycle_per_pe=self.cost_model.energy_table.leakage_per_cycle_per_pe,
            pes_per_sub_accelerator={acc.name: acc.num_pes for acc in sub_accelerators},
            instance_release_cycles=releases,
            instance_deadline_cycles=deadline_cycles)
        expected = {instance.instance_id: instance.num_layers
                    for instance in workload.instances()}
        schedule.validate(expected_layers=expected)
        return schedule
