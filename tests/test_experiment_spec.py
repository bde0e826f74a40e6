"""Tests for the declarative experiment schema and its YAML-subset loader.

Three contracts:

* the in-tree YAML subset parses experiment-shaped documents exactly like
  PyYAML does (checked directly against PyYAML when it is installed);
* a malformed spec fails with the *dotted path* of the offending value as
  the message prefix — pinned exactly, since those strings are the user
  interface of ``herald run``;
* every layer's ``to_spec`` / ``from_spec`` pair round-trips bit-for-bit,
  including randomized compositions (floats survive via raw-unit fields and
  ``repr`` serialisation, never via re-rounded human units).
"""

import random

import pytest

from repro.accel.builders import (
    chip_from_spec,
    chip_to_spec,
    design_from_spec,
    design_to_spec,
    make_fda,
    make_hda,
    make_rda,
    make_smfda,
)
from repro.accel.classes import accelerator_class
from repro.core.partitioner import PartitionSearch, search_from_spec, search_to_spec
from repro.dataflow import ALL_STYLES, EYERISS, NVDLA, SHIDIANNAO
from repro.exceptions import SpecError
from repro.experiment import ExperimentSpec, experiment_from_spec, parse_yamlish
from repro.experiment.yamlish import YamlishError
from repro.maestro.hardware import ChipConfig
from repro.serve.faults import ChipFailure, FaultSpec, SlowdownWindow, faults_from_spec, faults_to_spec
from repro.serve.fleet import Fleet, fleet_from_spec, fleet_to_spec
from repro.serve.online import AutoscalePolicy, autoscale_from_spec, autoscale_to_spec
from repro.serve.router import ROUTER_POLICIES, policy_from_spec, policy_to_spec
from repro.serve.traffic import TRAFFIC_KINDS, TrafficSpec, traffic_from_spec, traffic_to_spec
from repro.workloads.suites import arvr_a, mlperf, workload_from_spec, workload_to_spec
from repro.workloads.spec import WorkloadSpec


# ---------------------------------------------------------------------------
# YAML subset
# ---------------------------------------------------------------------------
_SAMPLE = """\
# experiment
kind: closed-loop
name: demo
fleet:
  chips: 2
  policy: round-robin   # trailing comment
streaming:
  frames: 3
  fps_scale: 2.0
faults:
  - 'die:0@0.02'
  - 'slow:1@0.001-0.002x2.5'
chips:
  - kind: fda
    style: nvdla
  - rda
inline: [1, 2.5, "three"]
empty:
flag: true
quoted: 'it''s quoted'
"""

_SAMPLE_PARSED = {
    "kind": "closed-loop",
    "name": "demo",
    "fleet": {"chips": 2, "policy": "round-robin"},
    "streaming": {"frames": 3, "fps_scale": 2.0},
    "faults": ["die:0@0.02", "slow:1@0.001-0.002x2.5"],
    "chips": [{"kind": "fda", "style": "nvdla"}, "rda"],
    "inline": [1, 2.5, "three"],
    "empty": None,
    "flag": True,
    "quoted": "it's quoted",
}


class TestYamlSubset:
    def test_sample_document(self):
        assert parse_yamlish(_SAMPLE) == _SAMPLE_PARSED

    def test_agrees_with_pyyaml(self):
        yaml = pytest.importorskip("yaml")
        assert parse_yamlish(_SAMPLE) == yaml.safe_load(_SAMPLE)

    def test_agrees_with_pyyaml_on_golden_corpus(self):
        yaml = pytest.importorskip("yaml")
        from golden_scheduler import experiment_spec_files

        checked = 0
        for path in experiment_spec_files():
            if not path.endswith((".yaml", ".yml")):
                continue
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            assert parse_yamlish(text) == yaml.safe_load(text), path
            checked += 1
        assert checked >= 2

    def test_empty_document(self):
        assert parse_yamlish("") == {}
        assert parse_yamlish("# only a comment\n") == {}

    def test_top_level_list(self):
        assert parse_yamlish("- 1\n- 2\n") == [1, 2]

    def test_tab_indentation_rejected(self):
        with pytest.raises(YamlishError, match="line 2: tabs are not allowed"):
            parse_yamlish("a:\n\tb: 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(YamlishError, match="line 2: duplicate key 'a'"):
            parse_yamlish("a: 1\na: 2\n")

    def test_mixed_list_and_mapping_rejected(self):
        with pytest.raises(YamlishError, match="cannot mix list items"):
            parse_yamlish("- 1\nkey: 2\n")

    def test_ambiguous_bare_colon_scalar_rejected(self):
        # A value like die:0@1 must be quoted: YAML would parse it as a
        # scalar, but silently accepting any colon-bearing bare string makes
        # "key:value" typos (missing space) unreportable.
        with pytest.raises(YamlishError, match="quote strings containing ':'"):
            parse_yamlish("clause: die:0@1\n")

    def test_indented_first_line_rejected(self):
        with pytest.raises(YamlishError, match="column zero"):
            parse_yamlish("  a: 1\n")

    def test_malformed_inline_collection_rejected(self):
        with pytest.raises(YamlishError, match="malformed inline collection"):
            parse_yamlish("a: [1, 2\n")


# ---------------------------------------------------------------------------
# Malformed experiment specs: exact error paths
# ---------------------------------------------------------------------------
_ERROR_CASES = [
    ({},
     "kind: expected one of ['closed-loop', 'dse', 'fleet', 'schedule', "
     "'serve'] (got null)"),
    ({"kind": "warmup"},
     "kind: expected one of ['closed-loop', 'dse', 'fleet', 'schedule', "
     "'serve'] (got 'warmup')"),
    ({"kind": "schedule", "frames": 2},
     "frames: unknown key (allowed: ['autoscale', 'chip', 'design', 'exec', "
     "'faults', 'fleet', 'kind', 'metric', 'min_chips', 'name', "
     "'optimize_sla', 'schema', 'search', 'streaming', 'sustained', "
     "'traffic', 'workload'])"),
    ({"kind": "schedule", "fleet": {"chips": 2}},
     "fleet: not a setting of kind 'schedule'"),
    ({"kind": "dse", "design": "rda"},
     "design: not a setting of kind 'dse'"),
    ({"kind": "dse", "search": {"pe_steps": 1}},
     "search.pe_steps: expected an int >= 2 (got 1)"),
    ({"kind": "serve", "exec": {"jobs": 4}},
     "exec.jobs: a 'serve' experiment runs in-process (jobs must be 1)"),
    ({"kind": "schedule", "exec": {"cache_file": "x.json"}},
     "exec.cache_file: only a 'dse' experiment takes a persistent cost "
     "cache"),
    ({"kind": "fleet", "design": "rda",
      "fleet": {"chips": ["rda", {"kind": "fda", "style": "nvdla",
                                  "chip": {"num_pes": -3, "noc_gbps": 4,
                                           "buffer_mib": 2}}]}},
     "fleet.chips[1].chip.num_pes: expected a positive int (got -3)"),
    ({"kind": "closed-loop", "faults": ["die:x@1"]},
     "faults[0]: malformed fault clause 'die:x@1'; expected 'die:CHIP@T' "
     "or 'slow:CHIP@T0-T1xF'"),
    ({"kind": "closed-loop", "autoscale": {"interval_s": 1,
                                           "interval_ms": 2}},
     "autoscale: give exactly one of interval_s or interval_ms"),
    ({"kind": "serve", "sustained": {"lo": 2, "hi": 1}},
     "sustained.lo: must be below sustained.hi (got lo=2, hi=1)"),
    ({"kind": "fleet", "traffic": "tsunami"},
     "traffic: expected one of ['bursty', 'churn', 'diurnal', 'poisson'] "
     "(got 'tsunami')"),
    ({"kind": "serve", "traffic": "poisson"},
     "traffic: not a setting of kind 'serve'"),
    ({"kind": "schedule", "schema": 2},
     "schema: this build reads schema 1 (got 2)"),
    ({"kind": "serve",
      "workload": {"name": "custom", "entries": [["unet", 1]]}},
     "streaming: workload 'custom' has no Table II FPS targets; give "
     "explicit 'streams' (or a 'suite') instead of trace knobs"),
    ({"kind": "fleet", "fleet": {"chips": 0}},
     "fleet.chips: expected a positive int (got 0)"),
    ({"kind": "schedule", "design": "tpu"},
     "design: expected one of ['fda-eyeriss', 'fda-nvdla', "
     "'fda-shidiannao', 'maelstrom', 'rda'] (got 'tpu')"),
    ({"kind": "serve", "streaming": {"frames": 0}},
     "streaming.frames: expected a positive int (got 0)"),
    ({"kind": "fleet", "fleet": {"policy": "random"}},
     "fleet.policy: expected one of ['earliest-completion', "
     "'least-outstanding', 'passthrough', 'round-robin', 'sticky'] "
     "(got 'random')"),
    # The cost model has a single (pure-Python) estimator: no knob picks one.
    ({"kind": "dse", "exec": {"vectorized": True}},
     "exec.vectorized: unknown key (allowed: ['cache_file', 'jobs', "
     "'max_retries', 'partial_ok', 'task_timeout_s'])"),
    # A PE step the chip's PEs do not divide into is a spec error, not a
    # SearchError traceback from the partition enumeration.
    ({"kind": "dse", "chip": "mobile", "search": {"pe_steps": 3}},
     "search.pe_steps: 3 does not divide the 4096 PEs of chip 'mobile' into "
     "equal steps, at least one per sub-accelerator of a 3-way HDA; valid "
     "step counts: 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096"),
]


class TestMalformedSpecs:
    @pytest.mark.parametrize("spec,message", _ERROR_CASES,
                             ids=[message.split(":")[0] + f"-{index}"
                                  for index, (_, message)
                                  in enumerate(_ERROR_CASES)])
    def test_exact_error_path(self, spec, message):
        with pytest.raises(SpecError) as excinfo:
            experiment_from_spec(spec)
        assert str(excinfo.value) == message

    def test_non_mapping_spec(self):
        with pytest.raises(SpecError) as excinfo:
            experiment_from_spec([1, 2])
        assert str(excinfo.value) == "experiment: expected a mapping (got a list)"


# ---------------------------------------------------------------------------
# Valid specs
# ---------------------------------------------------------------------------
class TestValidSpecs:
    def test_minimal_schedule_defaults(self):
        spec = experiment_from_spec({"kind": "schedule"})
        assert isinstance(spec, ExperimentSpec)
        assert spec.name == "schedule"
        assert spec.workload == arvr_a()
        assert spec.chip == accelerator_class("edge")
        assert spec.design == "maelstrom"
        assert spec.metric == "edp"

    def test_closed_loop_is_online(self):
        spec = experiment_from_spec({"kind": "closed-loop", "design": "rda"})
        assert spec.online
        assert spec.fleet == {"chips": 2}
        assert spec.policy == "earliest-completion"

    def test_sustained_defaults_by_kind(self):
        assert experiment_from_spec({"kind": "serve"}).sustained.enabled
        assert not experiment_from_spec(
            {"kind": "fleet", "design": "rda"}).sustained.enabled

    def test_min_chips_bool_shorthand(self):
        spec = experiment_from_spec({"kind": "fleet", "design": "rda",
                                     "min_chips": True})
        assert spec.min_chips.enabled and spec.min_chips.max_chips == 8

    def test_explicit_design_mapping_builds_eagerly(self):
        spec = experiment_from_spec({
            "kind": "schedule",
            "design": {"kind": "hda", "styles": ["nvdla", "shidiannao"]},
        })
        assert spec.design == make_hda(accelerator_class("edge"),
                                       [NVDLA, SHIDIANNAO])

    def test_traffic_shape_knobs(self):
        spec = experiment_from_spec({
            "kind": "fleet", "design": "rda",
            "traffic": {"kind": "bursty", "burst_factor": 6.0},
        })
        assert spec.traffic.kind == "bursty"
        assert spec.traffic.shape == {"burst_factor": 6.0}


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------
def _random_chip(rng: random.Random) -> ChipConfig:
    return ChipConfig(
        name=f"chip-{rng.randrange(1000)}",
        num_pes=rng.randrange(64, 4096),
        noc_bandwidth_bytes_per_s=rng.uniform(1e9, 1e12),
        global_buffer_bytes=rng.randrange(1 << 20, 1 << 25),
        dram_bandwidth_bytes_per_s=(None if rng.random() < 0.3
                                    else rng.uniform(1e9, 1e11)),
        clock_hz=rng.uniform(2e8, 2e9),
    )


class TestRoundTrips:
    def test_chip_round_trip_exact(self):
        rng = random.Random(7)
        for _ in range(25):
            chip = _random_chip(rng)
            assert chip_from_spec(chip_to_spec(chip)) == chip
        assert chip_to_spec(accelerator_class("edge")) == "edge"

    def test_design_round_trip_exact(self):
        rng = random.Random(11)
        for _ in range(25):
            chip = _random_chip(rng)
            style = rng.choice(ALL_STYLES)
            builders = [
                lambda: make_rda(chip),
                lambda: make_fda(chip, style),
                lambda: make_smfda(chip, style, rng.randrange(2, 5)),
                lambda: make_hda(chip, rng.sample(list(ALL_STYLES), 2)),
            ]
            design = rng.choice(builders)()
            assert design_from_spec(design_to_spec(design)) == design

    def test_workload_round_trip(self):
        for workload in (arvr_a(), mlperf(), mlperf(7),
                         WorkloadSpec(name="duo", entries=[("unet", 2),
                                                           ("resnet50", 1)])):
            assert workload_from_spec(workload_to_spec(workload)) == workload

    def test_traffic_round_trip_exact(self):
        rng = random.Random(13)
        for _ in range(25):
            traffic = TrafficSpec(
                kind=rng.choice(TRAFFIC_KINDS),
                model_name="unet",
                rate_fps=rng.uniform(0.1, 500.0),
                frames=rng.randrange(1, 32),
                phase_s=rng.choice([0.0, rng.uniform(0.0, 0.1)]),
                seed=rng.randrange(100),
                deadline_s=rng.choice([None, rng.uniform(1e-4, 1.0)]),
                burst_factor=rng.choice([4.0, rng.uniform(1.0, 10.0)]),
                period_frames=rng.choice([16.0, rng.uniform(2.0, 64.0)]),
            )
            assert traffic_from_spec(traffic_to_spec(traffic)) == traffic

    def test_faults_round_trip_exact(self):
        rng = random.Random(17)
        for _ in range(25):
            faults = FaultSpec(
                failures=tuple(
                    ChipFailure(chip, rng.uniform(0.0, 0.1))
                    for chip in rng.sample(range(4), rng.randrange(3))),
                slowdowns=tuple(
                    SlowdownWindow(rng.randrange(4), start, start + width,
                                   rng.uniform(1.1, 8.0))
                    for start, width in ((rng.uniform(0.0, 0.1),
                                          rng.uniform(1e-4, 0.1)),)
                    for _ in range(rng.randrange(2))),
            )
            assert faults_from_spec(faults_to_spec(faults)) == faults

    def test_autoscale_round_trip(self):
        rng = random.Random(19)
        for _ in range(25):
            policy = AutoscalePolicy(
                interval_s=rng.uniform(1e-5, 1e-2),
                min_chips=rng.randrange(1, 4),
                max_chips=rng.choice([None, rng.randrange(4, 9)]),
                target_queue_per_chip=rng.choice([2.0, rng.uniform(0.5, 8.0)]),
            )
            assert autoscale_from_spec(autoscale_to_spec(policy)) == policy

    def test_search_round_trip(self):
        search = PartitionSearch(strategy="random", pe_steps=5, bw_steps=3,
                                 metric="latency", samples=9, seed=4)
        spec = search_to_spec(search)
        rebuilt = search_from_spec(spec)
        assert search_to_spec(rebuilt) == spec
        assert search_to_spec(search_from_spec({})) == {}

    def test_policy_round_trip(self):
        for name in ROUTER_POLICIES:
            assert policy_to_spec(policy_from_spec(name)) == name

    def test_fleet_round_trip_exact(self):
        chip = accelerator_class("edge")

        def build(sub, path):
            assert sub is not None
            return design_from_spec(sub, path=path, chip=chip)

        homogeneous = Fleet.homogeneous(make_rda(chip), 3)
        heterogeneous = Fleet(name="duo", chips=(
            make_rda(chip), make_fda(chip, EYERISS)))
        for fleet in (homogeneous, heterogeneous):
            spec = fleet_to_spec(fleet, design_to_spec)
            assert fleet_from_spec(spec, build) == fleet

    def test_homogeneous_fleet_collapses_to_count(self):
        fleet = Fleet.homogeneous(make_rda(accelerator_class("edge")), 4)
        spec = fleet_to_spec(fleet, design_to_spec)
        assert spec["chips"] == 4
