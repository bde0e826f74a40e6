"""Small builders the tests share and the library does not need."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.dse import HeraldDSE
from repro.core.evaluator import evaluate_design
from repro.core.partitioner import PartitionPoint, PartitionSearch
from repro.core.scheduler import HeraldScheduler
from repro.dataflow.styles import ALL_STYLES, DataflowStyle
from repro.exceptions import SearchError
from repro.exec.backends import SerialBackend
from repro.maestro.cost import CostModel, LayerCost, metric_value
from repro.maestro.hardware import ChipConfig, SubAcceleratorConfig
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


def partition_driver(search: PartitionSearch,
                     cost_model: Optional[CostModel] = None,
                     scheduler: Optional[HeraldScheduler] = None) -> HeraldDSE:
    """A DSE driver that runs ``search`` on an in-process backend over
    ``cost_model`` and ``scheduler`` (fresh ones when not given)."""
    return HeraldDSE(backend=SerialBackend(cost_model=cost_model,
                                           scheduler=scheduler),
                     partition_search=search)


def inline_partition_search(search: PartitionSearch, cost_model: CostModel,
                            scheduler: HeraldScheduler, chip: ChipConfig,
                            styles: Sequence[DataflowStyle],
                            workload: WorkloadSpec) -> List[PartitionPoint]:
    """Reference for :meth:`HeraldDSE.search_partitions`: the partition
    search's rounds run inline, as the search once ran them itself.

    Each round builds its candidates' designs once, prewarms ``cost_model``
    with the workload's deduped shapes times every sub-accelerator of the
    round, then evaluates the designs in candidate order; the binary
    strategy adds a refinement round around the best coarse point.
    """
    if len(styles) < 2:
        raise SearchError("partitioning requires at least two sub-accelerators")

    def evaluate_round(candidates) -> List[PartitionPoint]:
        designs = [search.build_design(chip, styles, pes, bws)
                   for pes, bws in candidates]
        cost_model.prewarm(
            workload.unique_shape_layers(),
            [acc for design in designs for acc in design.sub_accelerators])
        return [PartitionPoint(pe_partition=tuple(pes),
                               bw_partition_gbps=tuple(bws),
                               result=evaluate_design(design, workload,
                                                      cost_model=cost_model,
                                                      scheduler=scheduler))
                for (pes, bws), design in zip(candidates, designs)]

    points = evaluate_round(search.candidate_partitions(chip, len(styles)))
    if search.strategy == "binary":
        points.extend(evaluate_round(
            search.refinement_candidates(chip, points)))
    return points
