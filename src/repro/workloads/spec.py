"""Workload specification: a set of DNN models with per-model batch counts.

Following Table II, a workload is a list of (model, number of batches).  Each
batch is an independent inference request, so it becomes an independent
*model instance* with its own dependence DAG; instances of different models
(and different batches of the same model) can execute in parallel on different
sub-accelerators, which is the layer parallelism HDAs exploit.  Within one
instance, independent branches (skip connections, parallel heads) may also
overlap — each instance exposes its per-layer predecessor index sets so the
scheduler only serializes true producer→consumer pairs.
"""

from __future__ import annotations

from functools import cached_property
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Tuple)

from repro.exceptions import WorkloadError
from repro.models.graph import ModelGraph
from repro.models.layer import Layer, layer_heterogeneity
from repro.models.zoo import build_model


class ModelInstance(NamedTuple):
    """One independent inference request of one model.

    Attributes
    ----------
    instance_id:
        Unique identifier within the workload, e.g. ``"unet#2"``.
    model:
        The model graph (shared between batches of the same model).
    """

    instance_id: str
    model: ModelGraph

    @property
    def model_name(self) -> str:
        """Name of the underlying model."""
        return self.model.name

    @property
    def num_layers(self) -> int:
        """Number of layers in the instance."""
        return len(self.model)

    def layers_in_dependence_order(self) -> List[Layer]:
        """Layers of this instance in a dependence-respecting order."""
        return self.model.dependence_order()

    def predecessor_indices(self) -> Tuple[FrozenSet[int], ...]:
        """Per-layer producer positions, aligned with the dependence order.

        Element ``i`` is the set of dependence-order positions layer ``i``
        waits on — ``{i-1}`` for a linear chain, more for skip connections and
        concatenations.  Immutable and picklable, so it ships with evaluation
        tasks to pool workers.
        """
        return self.model.predecessor_indices()

    def successor_indices(self) -> Tuple[FrozenSet[int], ...]:
        """Per-layer consumer positions, aligned with the dependence order."""
        return self.model.successor_indices()


class WorkloadSpec:
    """A heterogeneous multi-DNN workload (Table II row).

    An immutable value: ``entries`` is a tuple fixed at construction, the
    ``models`` given are copied and never written, and assigning to any
    attribute raises.  So every derived view (the instance expansion, the
    deduped shapes, the dependence sets, the scheduler's visit orders) is
    built at most once per object and never needs invalidating.

    Parameters
    ----------
    name:
        Workload name, e.g. ``"arvr-a"``.
    entries:
        ``(model_name, batches)`` pairs.  Models are built lazily through the
        zoo registry the first time a graph is needed.
    models:
        Optional pre-built model graphs keyed by model name; overrides the zoo
        for custom models.
    """

    def __init__(self, name: str,
                 entries: Optional[Iterable[Tuple[str, int]]] = None,
                 models: Optional[Dict[str, ModelGraph]] = None) -> None:
        entries = tuple((model_name, batches)
                        for model_name, batches in entries or ())
        if not entries:
            raise WorkloadError(f"workload {name!r} has no model entries")
        for model_name, batches in entries:
            if batches < 1:
                raise WorkloadError(
                    f"workload {name!r}: model {model_name!r} has batches={batches}; "
                    "must be >= 1"
                )
        models = dict(models or {})
        #: ``_graphs`` resolves model names: the given ``models``, then zoo
        #: graphs as they are built.  It pickles with the workload, so pool
        #: workers receive the built graphs instead of rebuilding them.
        self.__dict__.update(name=name, entries=entries, models=models,
                             _graphs=dict(models))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"WorkloadSpec is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"WorkloadSpec is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not WorkloadSpec:
            return NotImplemented
        return ((self.name, self.entries, self.models)
                == (other.name, other.entries, other.models))

    def __getstate__(self) -> Dict[str, object]:
        # The derived views are cheap to rebuild in a pool worker and would
        # only bloat the pickle.
        return {key: self.__dict__[key]
                for key in ("name", "entries", "models", "_graphs")}

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def model_graph(self, model_name: str) -> ModelGraph:
        """Return (building and caching if needed) the graph for ``model_name``."""
        graph = self._graphs.get(model_name)
        if graph is None:
            graph = self._graphs[model_name] = build_model(model_name)
        return graph

    def instances(self) -> List[ModelInstance]:
        """Expand the workload into independent model instances (one per batch).

        Built once per workload: the scheduler asks for the instances of the
        same workload once per design candidate, thousands of times across a
        DSE sweep.
        """
        return list(self._instances)

    @cached_property
    def _instances(self) -> Tuple[ModelInstance, ...]:
        return tuple(ModelInstance(instance_id=f"{model_name}#{batch}",
                                   model=self.model_graph(model_name))
                     for model_name, batches in self.entries
                     for batch in range(batches))

    def unique_shape_layers(self) -> List[Layer]:
        """One representative layer per distinct shape in the workload.

        This is the deduped working set of the cost model: batches repeat
        whole models and models repeat block shapes internally, so the list is
        typically several times shorter than the workload's layer
        executions (:attr:`total_layers`).  The first
        layer seen with each :attr:`~repro.models.layer.Layer.shape_key` (in
        entry order, then dependence order) is the representative.  Built
        once, like :meth:`instances`, so every design candidate of a
        partition search / DSE sweep shares one dedupe pass.
        """
        return list(self._shape_layers)

    @cached_property
    def _shape_layers(self) -> Tuple[Layer, ...]:
        representatives: Dict[Tuple, Layer] = {}
        for model_name, _ in self.entries:
            for layer in self.model_graph(model_name).dependence_order():
                representatives.setdefault(layer.shape_key, layer)
        return tuple(representatives.values())

    @cached_property
    def _visit_orders(self) -> Dict[Tuple, object]:
        """Scheduler-owned memo of the design-independent visiting order (see
        ``HeraldScheduler._static_visit_order``), keyed by ordering policy and
        memory limit: its lifetime is the workload's, like the expansions."""
        return {}

    def with_batches(self, batches: int, name: str | None = None) -> "WorkloadSpec":
        """Return a copy where every model runs ``batches`` batches (Table VI study)."""
        copy = WorkloadSpec(
            name=name or f"{self.name}-b{batches}",
            entries=[(model_name, batches) for model_name, _ in self.entries],
            models=self.models,
        )
        copy._graphs.update(self._graphs)
        return copy

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def total_instances(self) -> int:
        """Total number of model instances (sum of batches)."""
        return sum(batches for _, batches in self.entries)

    @property
    def total_layers(self) -> int:
        """Total number of layer executions across all instances."""
        return sum(len(self.model_graph(model_name)) * batches
                   for model_name, batches in self.entries)

    @property
    def total_macs(self) -> int:
        """Total MAC count of the workload."""
        return sum(self.model_graph(model_name).total_macs * batches
                   for model_name, batches in self.entries)

    def instance_dependences(self) -> Dict[str, Tuple[FrozenSet[int], ...]]:
        """Per-instance predecessor index sets, keyed by instance id.

        This is the true dependence structure (one entry per layer, aligned
        with the dependence order) the scheduler threads through schedule
        construction and validation.  Built once and shared: treat it as
        read-only.
        """
        return self._dependences

    @cached_property
    def _dependences(self) -> Dict[str, Tuple[FrozenSet[int], ...]]:
        return {instance.instance_id: instance.predecessor_indices()
                for instance in self._instances}

    def heterogeneity(self) -> Dict[str, float]:
        """Channel-activation ratio statistics over all layers (Table I style)."""
        distinct: List[Layer] = []
        for model_name, _ in self.entries:
            distinct.extend(self.model_graph(model_name).layers)
        return layer_heterogeneity(distinct)

    def describe(self) -> str:
        """Multi-line human-readable summary used by reports and the CLI."""
        lines = [f"Workload {self.name}: {self.total_instances} model instances, "
                 f"{self.total_layers} layer executions, "
                 f"{self.total_macs / 1e9:.1f} GMACs"]
        for model_name, batches in self.entries:
            graph = self.model_graph(model_name)
            lines.append(f"  - {model_name}: {batches} batch(es) x {len(graph)} layers")
        return "\n".join(lines)
