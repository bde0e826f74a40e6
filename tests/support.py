"""Small builders the tests share and the library does not need."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple, Union

from repro.dataflow.styles import ALL_STYLES, DataflowStyle
from repro.maestro.cost import CostModel, LayerCost, metric_value
from repro.maestro.hardware import SubAcceleratorConfig
from repro.models.graph import ModelGraph
from repro.models.layer import Layer
from repro.workloads.spec import WorkloadSpec


def workload_from_models(name: str, models: Iterable[ModelGraph],
                         batches: Union[Sequence[int], int] = 1
                         ) -> WorkloadSpec:
    """A workload of pre-built model graphs, ``batches`` instances each (one
    count for all models, or one per model)."""
    models = list(models)
    if isinstance(batches, int):
        batches = [batches] * len(models)
    assert len(batches) == len(models)
    return WorkloadSpec(
        name, [(graph.name, count) for graph, count in zip(models, batches)],
        models={graph.name: graph for graph in models})


def cost_with_style(model: CostModel, layer: Layer, style: DataflowStyle,
                    sub_accelerator: SubAcceleratorConfig) -> LayerCost:
    """The cost of ``layer`` on ``sub_accelerator`` forced to run ``style``
    (with the reconfiguration charges when the array is reconfigurable),
    computed without the cost memo."""
    return model._estimate((layer,), sub_accelerator, (style,),
                           sub_accelerator.is_reconfigurable)[0]


def best_style(model: CostModel, layer: Layer,
               sub_accelerator: SubAcceleratorConfig, metric: str = "edp"
               ) -> Tuple[DataflowStyle, LayerCost]:
    """The fixed dataflow of Table III that ``layer`` prefers on an array of
    ``sub_accelerator``'s size, with its cost."""
    return min(((style, model.layer_cost(
                    layer, sub_accelerator._replace(dataflow=style)))
                for style in ALL_STYLES),
               key=lambda pair: metric_value(pair[1], metric))
