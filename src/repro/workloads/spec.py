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

from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

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

    Parameters
    ----------
    name:
        Workload name, e.g. ``"arvr-a"``.
    entries:
        ``(model_name, batches)`` pairs.  Models are built lazily through the
        zoo registry the first time :meth:`instances` is called.
    models:
        Optional pre-built model graphs keyed by model name; overrides the zoo
        for custom models.
    """

    def __init__(self, name: str,
                 entries: Optional[List[Tuple[str, int]]] = None,
                 models: Optional[Dict[str, ModelGraph]] = None) -> None:
        self.name = name
        self.entries = [] if entries is None else entries
        self.models = {} if models is None else models
        #: Derived-state memos keyed by a snapshot of ``entries`` so a
        #: mutated spec never serves stale expansions.  Excluded from pickles
        #: (evaluation tasks ship workloads to pool workers; the memos are
        #: cheap to rebuild there and would only bloat the pickle).
        self._instances_memo: Optional[Tuple[Tuple[Tuple[str, int], ...],
                                             List[ModelInstance]]] = None
        self._shapes_memo: Optional[Tuple[Tuple[Tuple[str, int], ...],
                                          List[Layer]]] = None
        #: Scheduler-owned memo of the design-independent visiting order (see
        #: ``HeraldScheduler._static_visit_order``), keyed by ordering policy
        #: and memory limit.  Lives here because its lifetime is the
        #: workload's, like the expansions.
        self._static_order_memo: Optional[Dict[Tuple, Tuple]] = None
        if not self.entries:
            raise WorkloadError(f"workload {self.name!r} has no model entries")
        for model_name, batches in self.entries:
            if batches < 1:
                raise WorkloadError(
                    f"workload {self.name!r}: model {model_name!r} has batches={batches}; "
                    "must be >= 1"
                )

    def __eq__(self, other: object) -> bool:
        if type(other) is not WorkloadSpec:
            return NotImplemented
        return ((self.name, self.entries, self.models)
                == (other.name, other.entries, other.models))

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_instances_memo"] = None
        state["_shapes_memo"] = None
        state["_static_order_memo"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def model_graph(self, model_name: str) -> ModelGraph:
        """Return (building and caching if needed) the graph for ``model_name``."""
        if model_name not in self.models:
            self.models[model_name] = build_model(model_name)
        return self.models[model_name]

    def instances(self) -> List[ModelInstance]:
        """Expand the workload into independent model instances (one per batch).

        The expansion is memoised against a snapshot of ``entries``: the
        scheduler asks for the instances of the same workload once per design
        candidate, thousands of times across a DSE sweep.
        """
        snapshot = tuple(self.entries)
        if self._instances_memo is not None and self._instances_memo[0] == snapshot:
            return list(self._instances_memo[1])
        result: List[ModelInstance] = []
        for model_name, batches in self.entries:
            graph = self.model_graph(model_name)
            for batch in range(batches):
                result.append(ModelInstance(instance_id=f"{model_name}#{batch}", model=graph))
        self._instances_memo = (snapshot, result)
        return list(result)

    def unique_shape_layers(self) -> List[Layer]:
        """One representative layer per distinct shape in the workload.

        This is the deduped working set of the cost model: batches repeat
        whole models and models repeat block shapes internally, so the list is
        typically several times shorter than :meth:`all_layers`.  The first
        layer seen with each :attr:`~repro.models.layer.Layer.shape_key` (in
        entry order, then dependence order) is the representative.  Memoised
        like :meth:`instances`, so every design candidate of a partition
        search / DSE sweep shares one dedupe pass.
        """
        snapshot = tuple(self.entries)
        if self._shapes_memo is not None and self._shapes_memo[0] == snapshot:
            return list(self._shapes_memo[1])
        representatives: Dict[Tuple, Layer] = {}
        for model_name, _ in self.entries:
            for layer in self.model_graph(model_name).dependence_order():
                representatives.setdefault(layer.shape_key, layer)
        result = list(representatives.values())
        self._shapes_memo = (snapshot, result)
        return list(result)

    def with_batches(self, batches: int, name: str | None = None) -> "WorkloadSpec":
        """Return a copy where every model runs ``batches`` batches (Table VI study)."""
        return WorkloadSpec(
            name=name or f"{self.name}-b{batches}",
            entries=[(model_name, batches) for model_name, _ in self.entries],
            models=dict(self.models),
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def model_names(self) -> List[str]:
        """Distinct model names in the workload, in entry order."""
        return [model_name for model_name, _ in self.entries]

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
    def unique_layers(self) -> int:
        """Number of distinct layers (batch-independent layer count)."""
        return sum(len(self.model_graph(model_name)) for model_name, _ in self.entries)

    @property
    def unique_shapes(self) -> int:
        """Number of distinct layer shapes (cost-model working-set size)."""
        return len(self.unique_shape_layers())

    @property
    def total_macs(self) -> int:
        """Total MAC count of the workload."""
        return sum(self.model_graph(model_name).total_macs * batches
                   for model_name, batches in self.entries)

    def instance_dependences(self) -> Dict[str, Tuple[FrozenSet[int], ...]]:
        """Per-instance predecessor index sets, keyed by instance id.

        This is the true dependence structure (one entry per layer, aligned
        with the dependence order) the scheduler threads through schedule
        construction and validation.
        """
        return {
            instance.instance_id: instance.predecessor_indices()
            for instance in self.instances()
        }

    def all_layers(self) -> List[Layer]:
        """Every layer execution in the workload (duplicated across batches)."""
        layers: List[Layer] = []
        for instance in self.instances():
            layers.extend(instance.layers_in_dependence_order())
        return layers

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

    @classmethod
    def from_models(cls, name: str, models: Iterable[ModelGraph],
                    batches: Sequence[int] | int = 1) -> "WorkloadSpec":
        """Build a workload from pre-built model graphs."""
        model_list = list(models)
        if isinstance(batches, int):
            batch_list = [batches] * len(model_list)
        else:
            batch_list = list(batches)
        if len(batch_list) != len(model_list):
            raise WorkloadError(
                f"workload {name!r}: got {len(model_list)} models but {len(batch_list)} "
                "batch counts"
            )
        spec = cls(
            name=name,
            entries=[(graph.name, batch) for graph, batch in zip(model_list, batch_list)],
            models={graph.name: graph for graph in model_list},
        )
        return spec
