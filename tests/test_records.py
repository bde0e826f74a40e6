"""Record semantics: the tuple records and plain classes that replaced
``@dataclass``.

Three contracts are pinned here:

1. **Copies are checked.**  A validating record's copy API (``_replace``)
   goes through the constructor, so a copy with an invalid value raises
   the same error a fresh record does (``NamedTuple._replace`` alone would
   skip the checks).
2. **Layer identity ignores ``extra``.**  Layers that differ only in their
   free-form metadata are equal and hash equal.
3. **Every record survives pickle.**  Checkpoints and pool workers pickle
   them, so each record kind round-trips to an equal object of its type.
"""

from __future__ import annotations

import pickle

import pytest

import golden_scheduler
from repro.accel.builders import make_fda
from repro.analysis.sweeps import (
    BatchSizeRow,
    PartitionSweepPoint,
    WorkloadChangeStudy,
)
from repro.core.dse import DesignSpacePoint, DSEResult
from repro.core.evaluator import evaluate_design
from repro.core.partitioner import PartitionPoint
from repro.core.scheduler import HeraldScheduler
from repro.dataflow.loopnest import Loop, LoopNest
from repro.dataflow.mapping import build_mapping
from repro.dataflow.styles import NVDLA
from repro.exceptions import (
    HardwareConfigError,
    LayerDefinitionError,
    WorkloadError,
)
from repro.exec import SerialBackend
from repro.exec.resilience import TaskFailure
from repro.exec.tasks import EvaluationTask
from repro.experiment.report import BaselineDelta, ComparisonResult
from repro.experiment.runner import ExperimentOutcome
from repro.experiment.spec import experiment_from_spec
from repro.maestro.cost import CostModel
from repro.maestro.energy import DEFAULT_ENERGY_TABLE
from repro.maestro.reuse import analyse_reuse
from repro.models.graph import ModelGraph
from repro.models.layer import conv2d, fc, pwconv
from repro.serve import (
    AutoscalePolicy,
    ChipFailure,
    FaultSpec,
    Fleet,
    FleetSimulator,
    FrameTrace,
    ServingSimulator,
    SlowdownWindow,
    StreamSpec,
    StreamingWorkload,
    min_chips_for_sla,
    sustained_fps,
)
from repro.serve.traffic import TrafficSpec
from repro.workloads.spec import WorkloadSpec


def _streaming() -> StreamingWorkload:
    neta = ModelGraph.from_layers("neta", [
        conv2d("c1", k=16, c=3, y=34, x=34, r=3, s=3),
        pwconv("p1", k=32, c=16, y=32, x=32),
        fc("f", k=10, c=32),
    ])
    return StreamingWorkload("rec", streams=[
        StreamSpec("neta", fps=2000.0, frames=3, jitter_s=1e-5, seed=3),
    ], models={"neta": neta})


def _checked_copies():
    """``(record, an invalid change, the constructor's error)``."""
    chip = golden_scheduler.build_fleet_chip()
    sub = chip.sub_accelerators[0]
    return [
        (sub, {"num_pes": 0}, HardwareConfigError),
        (chip.chip, {"clock_hz": 0.0}, HardwareConfigError),
        (conv2d("c", k=8, c=4, y=16, x=16, r=3, s=3), {"k": 0},
         LayerDefinitionError),
        (NVDLA, {"stationary": "nowhere"}, ValueError),
        (Loop("K"), {"dimension": "Z"}, ValueError),
        (chip, {"sub_accelerators": ()}, HardwareConfigError),
        (StreamSpec("m", fps=30.0, frames=2), {"fps": 0.0}, WorkloadError),
        (FrameTrace("m", (0.0,), 1.0, 30.0), {"releases_s": ()},
         WorkloadError),
        (TrafficSpec("poisson", "m", 30.0, 4), {"amplitude": 1.5},
         WorkloadError),
        (ChipFailure(0, 1.0), {"at_s": -1.0}, WorkloadError),
        (SlowdownWindow(0, 0.0, 1.0, 2.0), {"factor": 0.5}, WorkloadError),
        (FaultSpec((ChipFailure(0, 1.0),)),
         {"failures": (ChipFailure(0, 1.0), ChipFailure(0, 2.0))},
         WorkloadError),
        (AutoscalePolicy(1e-3), {"min_chips": 0}, WorkloadError),
        (Fleet.homogeneous(chip, 2), {"chips": ()}, WorkloadError),
    ]


class TestCheckedCopies:
    @pytest.mark.parametrize("record, change, error", _checked_copies(),
                             ids=lambda value: type(value).__name__
                             if not isinstance(value, dict) else
                             "-".join(value))
    def test_invalid_copy_raises_the_constructors_error(self, record, change,
                                                        error):
        with pytest.raises(error):
            type(record)(**{**_fields(record), **change})
        with pytest.raises(error):
            record._replace(**change)

    def test_valid_copy_keeps_its_type_and_normalisation(self):
        nest = LoopNest("n")._replace(loops=[Loop("K"), Loop("C", True)])
        assert type(nest) is LoopNest
        assert nest.loops == (Loop("K"), Loop("C", True))
        faults = FaultSpec()._replace(slowdowns=[SlowdownWindow(0, 0, 1, 2)])
        assert faults.slowdowns == (SlowdownWindow(0, 0, 1, 2),)
        wide = NVDLA._replace(max_unroll={"C": 128})
        assert wide.unroll_cap("C") == 128 and hash(wide) != hash(NVDLA)


def _fields(record):
    if hasattr(record, "_asdict"):
        return record._asdict()
    return {name: getattr(record, name) for name in record._fields}


class TestLayerIdentity:
    def test_layers_differing_only_in_extra_are_equal(self):
        plain = conv2d("c", k=8, c=4, y=16, x=16, r=3, s=3)
        tagged = plain._replace(extra={"source": 1.0})
        assert tagged.extra == {"source": 1.0} and plain.extra == {}
        assert tagged == plain
        assert hash(tagged) == hash(plain)
        assert tagged != plain._replace(name="d")

    def test_layers_are_immutable(self):
        layer = conv2d("c", k=8, c=4, y=16, x=16, r=3, s=3)
        with pytest.raises(AttributeError):
            layer.k = 16
        with pytest.raises(AttributeError):
            del layer.name


def _state(record):
    """What pickling ``record`` keeps of its instance dict."""
    getstate = getattr(type(record), "__getstate__", None)
    if getstate is not None and getstate is not getattr(
            object, "__getstate__", None):
        return getstate(record)
    return vars(record)


def _same(first, second) -> bool:
    """Structural equality that also descends into plain classes (many
    compare by identity) and into a tuple record's instance dict."""
    if type(first) is not type(second):
        return False
    if isinstance(first, (list, tuple)):
        return (len(first) == len(second)
                and all(_same(a, b) for a, b in zip(first, second))
                and _same(getattr(first, "__dict__", {}),
                          getattr(second, "__dict__", {})))
    if isinstance(first, dict):
        return (list(first) == list(second)
                and all(_same(first[key], second[key]) for key in first))
    if hasattr(first, "__dict__"):
        return _same(_state(first), _state(second))
    return first == second


def _records():
    """One instance of every record kind, built the way the program builds
    them where that is cheap."""
    cost_model = CostModel()
    chip = golden_scheduler.build_fleet_chip()
    layer = conv2d("c", k=8, c=4, y=16, x=16, r=3, s=3, model_name="m")
    mapping = build_mapping(layer, NVDLA, 64)
    workload = WorkloadSpec(name="w", entries=[("neta", 1)],
                            models={"neta": _streaming().models["neta"]})
    result = evaluate_design(make_fda(chip.chip, NVDLA), workload,
                             cost_model=cost_model)
    point = DesignSpacePoint("fda", result.design, result)
    dse = DSEResult(workload_name="w", chip_name=chip.chip.name)
    dse.points.append(point)
    study = WorkloadChangeStudy()
    study.results["w"] = {"w": result}
    tasks = [EvaluationTask(0, result.design, workload, category="fda")]
    outcome = SerialBackend(cost_model=cost_model).run_resilient(tasks)

    streaming = _streaming()
    serving = ServingSimulator(HeraldScheduler(cost_model)).simulate(
        streaming, chip.sub_accelerators)
    sustained = sustained_fps(ServingSimulator(HeraldScheduler(cost_model)),
                              streaming, chip.sub_accelerators,
                              iterations=2)
    simulator = FleetSimulator(backend=SerialBackend(cost_model=cost_model))
    fleet = Fleet.homogeneous(chip, 2)
    fleet_result = simulator.simulate(streaming, fleet, policy="round-robin")
    min_chips = min_chips_for_sla(simulator, streaming, chip, max_chips=2)
    faults = FaultSpec((ChipFailure(1, 1e-4),),
                       (SlowdownWindow(0, 0.0, 5e-4, 2.0),))
    online = simulator.simulate_online(
        streaming, fleet, "round-robin", faults=faults,
        autoscale=AutoscalePolicy(2e-4))
    online.frames  # fill the cached views, which pickle with the record
    spec = experiment_from_spec({
        "kind": "closed-loop", "design": "fda-nvdla",
        "traffic": {"kind": "bursty", "burst_factor": 5},
        "faults": ["die:1@0.001"],
        "autoscale": {"interval_ms": 2}})

    records = [
        chip.chip, chip.sub_accelerators[0], DEFAULT_ENERGY_TABLE,
        analyse_reuse(mapping, 1 << 20),
        Loop("K", True, 1), NVDLA.loop_nest, NVDLA, mapping,
        layer, workload.models["neta"], workload.instances()[0], workload,
        chip, result, PartitionPoint((64,), (16.0,), result), point, dse,
        tasks[0], TaskFailure(3, "error", "boom", "fda"), outcome,
        streaming.streams[0], FrameTrace("m", (0.0, 1e-3), 1e-3, 30.0),
        TrafficSpec("bursty", "m", 30.0, 8, burst_factor=5.0),
        fleet_result.plan, faults, faults.failures[0], faults.slowdowns[0],
        AutoscalePolicy(2e-4, max_chips=3), online, online.stats,
        online.outcome, online.outcome.frames[0], online.frames[0],
        online.stats.intervals[0], streaming, fleet,
        fleet_result.report.chips[0], fleet_result.report, fleet_result,
        fleet_result.chip_results[0], min_chips, serving,
        serving.report, serving.report.streams[0], sustained,
        BaselineDelta("edp", 1.0, 2.0, "lower"),
        ComparisonResult([BaselineDelta("edp", 1.0, 2.0, "lower")], ["a"],
                         ["b"], 0.1),
        spec, spec.streaming, spec.traffic, spec.sustained, spec.min_chips,
        spec.exec_settings, ExperimentOutcome(0, {"metrics": {}}),
        PartitionSweepPoint((1, 3), 1.0, 2.0, 3.0),
        BatchSizeRow("edge", 8, 1.0, 2.0, 3.0, 4.0), study,
    ]
    return records


_RECORDS = _records()


class TestPickleRoundTrip:
    def test_every_record_kind_is_covered(self):
        kinds = {type(record).__name__ for record in _RECORDS}
        assert len(kinds) == 57, sorted(kinds)

    @pytest.mark.parametrize("record", _RECORDS,
                             ids=lambda record: type(record).__name__)
    def test_record_round_trips_through_pickle(self, record):
        clone = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
        assert _same(clone, record)
