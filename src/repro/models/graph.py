"""Model graphs: layers plus dependence edges.

The scheduler in the paper exploits two structural properties of multi-DNN
workloads (Sec. IV-D): layers form a mostly-linear dependence chain inside a
model, and layers of different models are independent.  :class:`ModelGraph`
supports arbitrary DAGs (skip connections, concatenations): it exposes both
the linearised *dependence order* that Herald's heuristics visit layers in and
the per-layer predecessor/successor *index sets*
(:meth:`ModelGraph.predecessor_indices` / :meth:`ModelGraph.successor_indices`)
the scheduling stack uses so a layer only ever waits for its actual producers
— parallel branches of one model may overlap across sub-accelerators.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.exceptions import GraphError
from repro.models.layer import Layer, layer_heterogeneity


class ModelGraph:
    """A DNN model: an ordered collection of layers plus dependence edges.

    Layers are identified by their (unique within the model) names.  Edges go
    from producer to consumer.  If no edge is ever added explicitly, a call to
    :meth:`chain` links the layers in insertion order, which matches how the
    model-zoo builders describe sequential networks.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._layers: Dict[str, Layer] = {}
        self._order: List[str] = []
        self._successors: Dict[str, Set[str]] = {}
        self._predecessors: Dict[str, Set[str]] = {}
        #: Memoised derived structures (dependence order, index sets);
        #: cleared on every mutation so the graph stays freely editable.
        self._derived: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_layer(self, layer: Layer) -> Layer:
        """Add ``layer`` to the graph and return it.

        The layer's ``model_name`` is rewritten to the graph name so workloads
        can always attribute a layer to its model.
        """
        if layer.name in self._layers:
            raise GraphError(f"model {self.name!r}: duplicate layer name {layer.name!r}")
        layer = layer.renamed(layer.name, model_name=self.name)
        self._layers[layer.name] = layer
        self._order.append(layer.name)
        self._successors.setdefault(layer.name, set())
        self._predecessors.setdefault(layer.name, set())
        self._derived.clear()
        return layer

    def add_edge(self, producer: str, consumer: str) -> None:
        """Add a dependence edge from ``producer`` to ``consumer``."""
        for endpoint in (producer, consumer):
            if endpoint not in self._layers:
                raise GraphError(
                    f"model {self.name!r}: unknown layer {endpoint!r} in edge "
                    f"({producer!r} -> {consumer!r})"
                )
        if producer == consumer:
            raise GraphError(f"model {self.name!r}: self-edge on {producer!r}")
        if self._reaches(consumer, producer):
            raise GraphError(
                f"model {self.name!r}: edge ({producer!r} -> {consumer!r}) creates a cycle"
            )
        self._successors[producer].add(consumer)
        self._predecessors[consumer].add(producer)
        self._derived.clear()

    def chain(self) -> None:
        """Link layers in insertion order (layer i depends on layer i-1)."""
        for previous, current in zip(self._order, self._order[1:]):
            if current not in self._successors[previous]:
                self.add_edge(previous, current)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._layers)

    def __contains__(self, layer_name: str) -> bool:
        return layer_name in self._layers

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    @property
    def layers(self) -> List[Layer]:
        """Layers in insertion order."""
        return [self._layers[name] for name in self._order]

    def layer(self, name: str) -> Layer:
        """Return the layer called ``name``."""
        try:
            return self._layers[name]
        except KeyError:
            raise GraphError(f"model {self.name!r}: no layer named {name!r}") from None

    def predecessors(self, name: str) -> List[Layer]:
        """Producers that ``name`` depends on."""
        self.layer(name)
        return [self._layers[p] for p in sorted(self._predecessors[name])]

    def successors(self, name: str) -> List[Layer]:
        """Consumers that depend on ``name``."""
        self.layer(name)
        return [self._layers[s] for s in sorted(self._successors[name])]

    def edges(self) -> List[Tuple[str, str]]:
        """All dependence edges as (producer, consumer) pairs."""
        return [
            (producer, consumer)
            for producer in self._order
            for consumer in sorted(self._successors[producer])
        ]

    # ------------------------------------------------------------------
    # Orders and statistics
    # ------------------------------------------------------------------
    def dependence_order(self) -> List[Layer]:
        """Topological order of the layers, stable with respect to insertion order.

        This is the linearised order the Herald scheduler consumes: executing
        layers in this order never violates a dependence.  The order (and the
        index sets derived from it) is memoised until the graph is mutated.
        """
        return [self._layers[name] for name in self._dependence_order_names()]

    def _dependence_order_names(self) -> Tuple[str, ...]:
        cached = self._derived.get("order")
        if cached is None:
            position = {name: index for index, name in enumerate(self._order)}
            in_degree = {name: len(self._predecessors[name]) for name in self._order}
            ready = [name for name in self._order if in_degree[name] == 0]
            result: List[str] = []
            while ready:
                current = ready.pop(0)
                result.append(current)
                for successor in sorted(self._successors[current]):
                    in_degree[successor] -= 1
                    if in_degree[successor] == 0:
                        # Preserve insertion order among newly-ready layers.
                        ready.append(successor)
                        ready.sort(key=position.__getitem__)
            if len(result) != len(self._order):
                raise GraphError(f"model {self.name!r}: dependence graph contains a cycle")
            cached = tuple(result)
            self._derived["order"] = cached
        return cached

    def _index_sets(self, cache_key: str,
                    edges: Dict[str, Set[str]]) -> Tuple[FrozenSet[int], ...]:
        """Memoised per-layer neighbour positions in dependence order."""
        cached = self._derived.get(cache_key)
        if cached is None:
            order = self._dependence_order_names()
            position = {name: index for index, name in enumerate(order)}
            cached = tuple(
                frozenset(position[neighbour] for neighbour in edges[name])
                for name in order
            )
            self._derived[cache_key] = cached
        return cached

    def predecessor_indices(self) -> Tuple[FrozenSet[int], ...]:
        """Per-layer producer positions, aligned with :meth:`dependence_order`.

        Element ``i`` is the set of dependence-order positions of the layers
        that layer ``i`` consumes.  A linear chain yields ``{i-1}`` for every
        layer but the first; skip connections and concatenations contribute
        extra (earlier) positions.  The tuple is immutable and picklable, so
        it travels with workloads to pool workers.
        """
        return self._index_sets("predecessor_indices", self._predecessors)

    def successor_indices(self) -> Tuple[FrozenSet[int], ...]:
        """Per-layer consumer positions, aligned with :meth:`dependence_order`.

        Element ``i`` is the set of dependence-order positions of the layers
        that consume layer ``i``'s output; empty for terminal layers.  The
        scheduler's buffer accounting keeps a tensor live until its *last*
        consumer has been scheduled.
        """
        return self._index_sets("successor_indices", self._successors)

    def last_consumer_indices(self) -> Tuple[int, ...]:
        """Per-layer position of the last consumer (-1 for terminal layers).

        In dependence order every consumer sits after its producer, so a
        layer's output stays live exactly until the position recorded here has
        been scheduled.
        """
        cached = self._derived.get("last_consumer_indices")
        if cached is None:
            cached = tuple(max(consumers) if consumers else -1
                           for consumers in self.successor_indices())
            self._derived["last_consumer_indices"] = cached
        return cached

    def retirement_indices(self) -> Tuple[Tuple[int, ...], ...]:
        """Element ``i``: producer positions whose tensors retire at layer ``i``.

        A tensor retires when its *last* consumer is scheduled; this is the
        inverse map of :meth:`last_consumer_indices`, precomputed so the
        scheduler's liveness bookkeeping is O(retirements) per commit instead
        of a scan over the whole live set.
        """
        cached = self._derived.get("retirement_indices")
        if cached is None:
            retiring: List[List[int]] = [[] for _ in range(len(self))]
            for producer, consumer in enumerate(self.last_consumer_indices()):
                if consumer >= 0:
                    retiring[consumer].append(producer)
            cached = tuple(tuple(indices) for indices in retiring)
            self._derived["retirement_indices"] = cached
        return cached

    def _reaches(self, source: str, target: str) -> bool:
        """Whether ``target`` is reachable from ``source`` over the edges.

        The graph is acyclic before every :meth:`add_edge`, so the new edge
        closes a cycle exactly when its producer is reachable from its
        consumer.  The search visits only the consumer's descendants: none
        while a model is wired front to back, as :meth:`chain` does.
        """
        stack = [source]
        seen = {source}
        while stack:
            for successor in self._successors[stack.pop()]:
                if successor == target:
                    return True
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return False

    @property
    def total_macs(self) -> int:
        """Total multiply-accumulate count of the model."""
        return sum(layer.macs for layer in self.layers)

    @property
    def total_parameters(self) -> int:
        """Total filter-weight elements of the model."""
        return sum(layer.filter_elements for layer in self.layers)

    def heterogeneity(self) -> Dict[str, float]:
        """Channel-activation ratio statistics (Table I style)."""
        return layer_heterogeneity(self.layers)

    def describe(self) -> str:
        """Multi-line human readable summary."""
        stats = self.heterogeneity()
        lines = [
            f"Model {self.name}: {len(self)} layers, "
            f"{self.total_macs / 1e9:.2f} GMACs, "
            f"{self.total_parameters / 1e6:.2f} M parameters",
            "  channel-activation ratio: "
            f"min={stats['min']:.3f} median={stats['median']:.3f} max={stats['max']:.3f}",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def from_layers(cls, name: str, layers: Sequence[Layer],
                    sequential: bool = True) -> "ModelGraph":
        """Build a graph from an ordered layer list.

        When ``sequential`` is true (the default) consecutive layers are linked
        by dependence edges, which is the linear-chain structure the paper's
        scheduling heuristics assume.
        """
        graph = cls(name=name)
        for layer in layers:
            graph.add_layer(layer)
        if sequential:
            graph.chain()
        return graph
