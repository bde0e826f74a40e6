"""Tests for the model-graph substrate (edges, ordering, statistics)."""

import pytest

from repro.exceptions import GraphError
from repro.models.graph import ModelGraph
from repro.models.layer import conv2d, fc, pwconv
from repro.models.zoo import available_models, build_model


def _three_layer_graph() -> ModelGraph:
    layers = [
        conv2d("a", k=8, c=3, y=18, x=18, r=3, s=3),
        pwconv("b", k=16, c=8, y=16, x=16),
        fc("c", k=10, c=16 * 16 * 16),
    ]
    return ModelGraph.from_layers("toy", layers)


class TestConstruction:
    def test_from_layers_counts(self):
        graph = _three_layer_graph()
        assert len(graph) == 3

    def test_layers_are_attributed_to_model(self):
        graph = _three_layer_graph()
        assert all(layer.model_name == "toy" for layer in graph.layers)

    def test_duplicate_layer_names_rejected(self):
        graph = ModelGraph(name="dup")
        graph.add_layer(fc("same", k=4, c=4))
        with pytest.raises(GraphError):
            graph.add_layer(fc("same", k=8, c=8))

    def test_sequential_chain_edges(self):
        graph = _three_layer_graph()
        assert ("a", "b") in graph.edges()
        assert ("b", "c") in graph.edges()

    def test_non_sequential_graph_has_no_edges(self):
        graph = ModelGraph.from_layers("flat", [fc("a", k=4, c=4), fc("b", k=4, c=4)],
                                       sequential=False)
        assert graph.edges() == []

    def test_contains_and_iter(self):
        graph = _three_layer_graph()
        assert "a" in graph and "missing" not in graph
        assert [layer.name for layer in graph] == ["a", "b", "c"]


class TestEdges:
    def test_add_edge_unknown_layer_rejected(self):
        graph = _three_layer_graph()
        with pytest.raises(GraphError):
            graph.add_edge("a", "nope")

    def test_self_edge_rejected(self):
        graph = _three_layer_graph()
        with pytest.raises(GraphError):
            graph.add_edge("a", "a")

    def test_cycle_rejected(self):
        graph = _three_layer_graph()
        with pytest.raises(GraphError):
            graph.add_edge("c", "a")

    def test_cycle_rejection_leaves_graph_usable(self):
        graph = _three_layer_graph()
        with pytest.raises(GraphError):
            graph.add_edge("c", "a")
        assert len(graph.dependence_order()) == 3

    def test_cycle_closing_edge_leaves_edges_and_order_unchanged(self):
        graph = ModelGraph.from_layers(
            "deep", [fc(name, k=4, c=4) for name in "abcdef"])
        graph.add_edge("b", "e")
        edges = graph.edges()
        order = [layer.name for layer in graph.dependence_order()]
        # Both close a cycle only through a multi-hop path (f <- ... <- c).
        for producer, consumer in (("f", "c"), ("d", "a")):
            with pytest.raises(GraphError, match=(
                    rf"edge \('{producer}' -> '{consumer}'\) creates a cycle")):
                graph.add_edge(producer, consumer)
            assert graph.edges() == edges
            assert [layer.name for layer in graph.dependence_order()] == order
        graph.add_edge("a", "f")  # a forward edge is still accepted
        assert ("a", "f") in graph.edges()

    def test_zoo_graphs_rebuild_identically_from_their_edges(self):
        """Replaying each zoo model's edges newest-first, so every insertion
        runs the reachability search over an already-wired tail, gives back
        the same edges and dependence order."""
        for name in available_models():
            model = build_model(name)
            rebuilt = ModelGraph.from_layers(name, model.layers,
                                             sequential=False)
            for producer, consumer in reversed(model.edges()):
                rebuilt.add_edge(producer, consumer)
            assert rebuilt.edges() == model.edges()
            assert rebuilt.dependence_order() == model.dependence_order()

    def test_predecessors_and_successors(self):
        graph = _three_layer_graph()
        assert [l.name for l in graph.predecessors("b")] == ["a"]
        assert [l.name for l in graph.successors("b")] == ["c"]

    def test_skip_connection_edge(self):
        graph = _three_layer_graph()
        graph.add_edge("a", "c")
        assert [l.name for l in graph.predecessors("c")] == ["a", "b"]


class TestOrdering:
    def test_dependence_order_respects_edges(self):
        graph = _three_layer_graph()
        order = [layer.name for layer in graph.dependence_order()]
        assert order.index("a") < order.index("b") < order.index("c")

    def test_dependence_order_with_branches(self):
        graph = ModelGraph(name="branchy")
        for name in ("in", "left", "right", "out"):
            graph.add_layer(fc(name, k=4, c=4))
        graph.add_edge("in", "left")
        graph.add_edge("in", "right")
        graph.add_edge("left", "out")
        graph.add_edge("right", "out")
        order = [layer.name for layer in graph.dependence_order()]
        assert order[0] == "in" and order[-1] == "out"

    def test_layer_lookup_error(self):
        graph = _three_layer_graph()
        with pytest.raises(GraphError):
            graph.layer("missing")


class TestStatistics:
    def test_total_macs_is_sum(self):
        graph = _three_layer_graph()
        assert graph.total_macs == sum(layer.macs for layer in graph.layers)

    def test_total_parameters_is_sum(self):
        graph = _three_layer_graph()
        assert graph.total_parameters == sum(l.filter_elements for l in graph.layers)

    def test_heterogeneity_has_min_le_max(self):
        stats = _three_layer_graph().heterogeneity()
        assert stats["min"] <= stats["median"] <= stats["max"]

    def test_describe_mentions_name(self):
        assert "toy" in _three_layer_graph().describe()
