"""Independent checks of schedules, and the schedules tests build by hand.

* :func:`validate_schedule` checks a schedule against the two hard
  constraints of Sec. III-A — layer dependence and no overlapping execution
  on one sub-accelerator — plus frame releases and completeness.  Herald's
  scheduler meets them by construction and never runs this check;
  ``conftest.py`` runs it on every schedule the suite builds.
* :func:`schedule_from_entries` builds a :class:`Schedule` from execution
  records, the way hand-made schedules and the reference implementations
  are built; :func:`entries_for` reads one sub-accelerator's timeline back.
* :func:`greedy_reference_schedule` is the Sec. V-B greedy baseline as a
  direct loop: each layer goes to its best sub-accelerator by ``(metric,
  name)``, instances one after another, and each layer waits for the layer
  before it in dependence order.  ``GreedyScheduler`` is the Herald
  configuration that waits only for a layer's true producers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.schedule import Schedule, ScheduledLayer
from repro.exceptions import SchedulingError
from repro.maestro.cost import CostModel, metric_value
from repro.maestro.hardware import SubAcceleratorConfig
from repro.workloads.spec import WorkloadSpec

#: Slack of the timing checks, in cycles.
_TOLERANCE = 1e-6


def schedule_from_entries(sub_accelerator_names: Sequence[str],
                          entries: Iterable[ScheduledLayer] = (),
                          **metadata) -> Schedule:
    """A schedule of ``entries``, committed in the given order.

    Each record must name a known sub-accelerator and must not finish before
    it starts.  ``metadata`` takes the :class:`Schedule` constructor's
    keyword arguments (clock, leakage, PE counts, predecessors, releases,
    deadlines).
    """
    names = tuple(sub_accelerator_names)
    acc_index = {name: aidx for aidx, name in enumerate(names)}
    entries = list(entries)
    slot_acc: List[int] = []
    busy = [0.0] * len(names)
    energy = 0.0
    for entry in entries:
        aidx = acc_index.get(entry.sub_accelerator)
        if aidx is None:
            raise SchedulingError(
                f"schedule entry references unknown sub-accelerator "
                f"{entry.sub_accelerator!r}")
        if entry.finish_cycle < entry.start_cycle:
            raise SchedulingError(
                f"schedule entry for {entry.layer.name!r} finishes before "
                f"it starts")
        slot_acc.append(aidx)
        busy[aidx] += entry.finish_cycle - entry.start_cycle
        energy += entry.cost.energy_pj
    finishes = tuple(entry.finish_cycle for entry in entries)
    return Schedule(
        names, tuple(entry.layer for entry in entries),
        tuple(entry.instance_id for entry in entries),
        tuple(entry.layer_index for entry in entries), tuple(slot_acc),
        tuple(entry.start_cycle for entry in entries), finishes,
        tuple(entry.cost for entry in entries), range(len(entries)),
        max(finishes) if finishes else 0.0, energy, busy, **metadata)


def entries_for(schedule: Schedule, sub_accelerator: str
                ) -> List[ScheduledLayer]:
    """Execution records of one sub-accelerator, ordered by ``(start,
    finish)``; full ties keep their commit order."""
    return sorted((entry for entry in schedule.entries
                   if entry.sub_accelerator == sub_accelerator),
                  key=lambda entry: (entry.start_cycle, entry.finish_cycle))


def _label(entry: ScheduledLayer) -> str:
    return f"{entry.instance_id}/{entry.layer.name}"


def validate_schedule(schedule: Schedule,
                      expected_layers: Optional[Mapping[str, int]] = None
                      ) -> None:
    """Check ``schedule`` against the hard constraints of Sec. III-A.

    * no two layers overlap on the same sub-accelerator;
    * a layer never starts before its producers finish — against the true
      dependence DAG for instances with an ``instance_predecessors`` entry,
      and against the linear chain (layer ``i`` waits on layer ``i-1``)
      otherwise;
    * no instance schedules one layer index twice;
    * no layer starts before its instance's frame release, for instances
      with an ``instance_release_cycles`` entry (online serving mode);
    * if ``expected_layers`` (instance id -> layer count) is supplied, every
      instance is fully scheduled exactly once.

    Raises :class:`SchedulingError` naming the first violation.
    """
    for name in schedule.sub_accelerator_names:
        _check_no_overlap(name, entries_for(schedule, name))
    chains: Dict[str, List[ScheduledLayer]] = {}
    for entry in schedule.entries:
        chains.setdefault(entry.instance_id, []).append(entry)
    for instance_id, chain in chains.items():
        chain.sort(key=lambda entry: entry.layer_index)
        indices = [entry.layer_index for entry in chain]
        if len(set(indices)) != len(indices):
            raise SchedulingError(
                f"instance {instance_id!r}: a layer index is scheduled more "
                f"than once")
        predecessors = schedule.instance_predecessors.get(instance_id)
        if predecessors is not None:
            _check_dag_dependences(instance_id, chain, predecessors)
        else:
            _check_chain_dependences(instance_id, chain)
    _check_release_times(schedule)
    if expected_layers is not None:
        _check_completeness(expected_layers, chains)


def _check_no_overlap(name: str, timeline: List[ScheduledLayer]) -> None:
    """No two layers overlap on one sub-accelerator, compared in ``(start,
    finish)`` order so an empty window sharing a start is no overlap."""
    for previous, current in zip(timeline, timeline[1:]):
        if current.start_cycle < previous.finish_cycle - _TOLERANCE:
            raise SchedulingError(
                f"sub-accelerator {name!r}: {_label(current)} starts at "
                f"{current.start_cycle:.0f} before {_label(previous)} "
                f"finishes at {previous.finish_cycle:.0f}")


def _check_dag_dependences(instance_id: str, chain: List[ScheduledLayer],
                           predecessors: Sequence[frozenset]) -> None:
    """Every layer starts only after each of its true producers finishes."""
    by_index = {entry.layer_index: entry for entry in chain}
    for entry in chain:
        if not 0 <= entry.layer_index < len(predecessors):
            raise SchedulingError(
                f"instance {instance_id!r}: layer index {entry.layer_index} "
                f"is outside the instance's {len(predecessors)} layers")
        for producer_index in predecessors[entry.layer_index]:
            producer = by_index.get(producer_index)
            if producer is None:
                raise SchedulingError(
                    f"instance {instance_id!r}: layer {entry.layer.name!r} is "
                    f"scheduled but its producer (layer index "
                    f"{producer_index}) is not")
            if entry.start_cycle < producer.finish_cycle - _TOLERANCE:
                raise SchedulingError(
                    f"instance {instance_id!r}: layer {entry.layer.name!r} "
                    f"starts at {entry.start_cycle:.0f} before its producer "
                    f"{producer.layer.name!r} finishes at "
                    f"{producer.finish_cycle:.0f}")


def _check_chain_dependences(instance_id: str,
                             chain: List[ScheduledLayer]) -> None:
    """Without dependence information, require the linear chain."""
    for previous, current in zip(chain, chain[1:]):
        if current.layer_index != previous.layer_index + 1:
            raise SchedulingError(
                f"instance {instance_id!r}: layer indices are not contiguous "
                f"({previous.layer_index} followed by {current.layer_index})")
        if current.start_cycle < previous.finish_cycle - _TOLERANCE:
            raise SchedulingError(
                f"instance {instance_id!r}: layer {current.layer.name!r} "
                f"starts before its predecessor {previous.layer.name!r} "
                f"finishes")


def _check_release_times(schedule: Schedule) -> None:
    """Online mode: no layer runs before its instance's frame has arrived."""
    releases = schedule.instance_release_cycles
    if not releases:
        return
    for entry in schedule.entries:
        release = releases.get(entry.instance_id)
        if release is not None and entry.start_cycle < release - _TOLERANCE:
            raise SchedulingError(
                f"instance {entry.instance_id!r}: layer {entry.layer.name!r} "
                f"starts at {entry.start_cycle:.0f} before the frame's "
                f"release at {release:.0f}")


def _check_completeness(expected_layers: Mapping[str, int],
                        chains: Mapping[str, List[ScheduledLayer]]) -> None:
    """Every expected instance is fully scheduled, and nothing else."""
    for instance_id, expected in expected_layers.items():
        actual = len(chains.get(instance_id, ()))
        if actual != expected:
            raise SchedulingError(
                f"instance {instance_id!r}: expected {expected} scheduled "
                f"layers, found {actual}")
    unexpected = set(chains) - set(expected_layers)
    if unexpected:
        raise SchedulingError(
            f"schedule contains unknown instances: {sorted(unexpected)!r}")


def greedy_reference_schedule(workload: WorkloadSpec,
                              sub_accelerators: Sequence[SubAcceleratorConfig],
                              cost_model: CostModel, metric: str = "edp",
                              release_cycles: Optional[Mapping[str, float]] = None
                              ) -> Schedule:
    """The chain-waiting greedy baseline: each layer on its best
    sub-accelerator by ``(metric value, name)``, instances depth-first, each
    layer starting once its sub-accelerator is free and the previous layer
    of its instance (or, for the first, the frame release) is done."""
    releases = release_cycles or {}
    acc_available = {acc.name: 0.0 for acc in sub_accelerators}
    entries = []
    for instance in workload.instances():
        previous_finish = releases.get(instance.instance_id, 0.0)
        for layer_index, layer in enumerate(
                instance.layers_in_dependence_order()):
            name, cost = min(
                ((acc.name, cost_model.layer_cost(layer, acc))
                 for acc in sub_accelerators),
                key=lambda pair: (metric_value(pair[1], metric), pair[0]))
            start = max(acc_available[name], previous_finish)
            finish = start + cost.latency_cycles
            entries.append(ScheduledLayer(
                layer, instance.instance_id, layer_index, name, start, finish,
                cost))
            acc_available[name] = finish
            previous_finish = finish
    return schedule_from_entries(
        [acc.name for acc in sub_accelerators], entries,
        clock_hz=sub_accelerators[0].clock_hz,
        idle_energy_pj_per_cycle_per_pe=(
            cost_model.energy_table.leakage_per_cycle_per_pe),
        pes_per_sub_accelerator={acc.name: acc.num_pes
                                 for acc in sub_accelerators},
        instance_release_cycles=release_cycles)
