"""Tests for the declarative experiment schema and its YAML-subset loader.

Three contracts:

* the in-tree YAML subset parses experiment-shaped documents exactly like
  PyYAML does (checked directly against PyYAML when it is installed);
* a malformed spec fails with the *dotted path* of the offending value as
  the message prefix — pinned exactly, since those strings are the user
  interface of ``herald run``;
* every form a layer's ``from_spec`` accepts builds exactly the object it
  names: the valid-spec cases below and the golden experiment specs under
  ``tests/golden/experiments`` between them parse each form;
* a seeded fuzz of one valid spec per kind ends every call in an
  ``ExperimentSpec`` or a ``SpecError``, never another exception.
"""

import copy
import random

import pytest

from repro.accel.builders import make_hda, make_smfda
from repro.accel.classes import accelerator_class
from repro.core.partitioner import search_from_spec
from repro.dataflow import EYERISS, NVDLA, SHIDIANNAO
from repro.exceptions import SpecError
from repro.experiment import ExperimentSpec, experiment_from_spec, parse_yamlish
from repro.experiment.yamlish import YamlishError
from repro.maestro.hardware import ChipConfig
from repro.serve.faults import ChipFailure, FaultSpec, SlowdownWindow
from repro.serve.online import AutoscalePolicy
from repro.workloads.suites import arvr_a, mlperf
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
    # An old spec naming the removed persistent cost cache gets the
    # closed-world unknown-key error (a 'dse' case comes further down).
    ({"kind": "schedule", "exec": {"cache_file": "x.json"}},
     "exec.cache_file: unknown key (allowed: ['jobs', 'partial_ok'])"),
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
     "exec.vectorized: unknown key (allowed: ['jobs', 'partial_ok'])"),
    # A PE step the chip's PEs do not divide into is a spec error, not a
    # SearchError traceback from the partition enumeration.
    ({"kind": "dse", "chip": "mobile", "search": {"pe_steps": 3}},
     "search.pe_steps: 3 does not divide the 4096 PEs of chip 'mobile' into "
     "equal steps, at least one per sub-accelerator of a 3-way HDA; valid "
     "step counts: 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096"),
    # NaN passes every bound check and an infinity passes a lower bound, so
    # non-finite numbers are rejected first; an int too large for a float
    # counts as infinite instead of raising OverflowError.
    ({"kind": "serve", "streaming": {"fps_scale": float("nan")}},
     "streaming.fps_scale: expected a finite number (got nan)"),
    ({"kind": "serve", "streaming": {"jitter_ms": float("inf")}},
     "streaming.jitter_ms: expected a finite number (got inf)"),
    ({"kind": "serve", "streaming": {"fps_scale": 10 ** 400}},
     "streaming.fps_scale: expected a finite number (got inf)"),
    ({"kind": "dse", "exec": {"cache_file": "x.json"}},
     "exec.cache_file: unknown key (allowed: ['jobs', 'partial_ok'])"),
    # The traffic knobs take exactly TrafficSpec's domain.
    ({"kind": "fleet", "traffic": {"kind": "diurnal", "amplitude": 1.5}},
     "traffic.amplitude: expected a number < 1 (got 1.5)"),
    ({"kind": "fleet", "traffic": {"kind": "diurnal", "amplitude": -0.1}},
     "traffic.amplitude: expected a number >= 0 (got -0.1)"),
    ({"kind": "fleet", "traffic": {"kind": "bursty", "burst_factor": 0.1}},
     "traffic.burst_factor: calm_factor must be below burst_factor "
     "(got 0.25 / 0.1)"),
    ({"kind": "fleet", "traffic": {"kind": "bursty", "calm_factor": 5}},
     "traffic.calm_factor: calm_factor must be below burst_factor "
     "(got 5 / 4)"),
    ({"kind": "fleet", "traffic": {"kind": "churn", "period_frames": 0}},
     "traffic.period_frames: expected a number > 0 (got 0)"),
    # More steps than PEs used to collapse silently into 1-PE steps.
    ({"kind": "dse", "chip": "edge", "search": {"pe_steps": 1000000}},
     "search.pe_steps: 1000000 does not divide the 1024 PEs of chip 'edge' "
     "into equal steps, at least one per sub-accelerator of a 3-way HDA; "
     "valid step counts: 4, 8, 16, 32, 64, 128, 256, 512, 1024"),
    # Valid steps, but a sweep that would run for hours.
    ({"kind": "dse", "chip": "edge", "search": {"pe_steps": 1024}},
     "search: pe_steps 1024 and bw_steps 4 give 1,568,259 partitions of a "
     "3-way HDA, more than the 100,000 a sweep enumerates; use fewer steps"),
    ({"kind": "dse", "chip": "edge", "search": {"bw_steps": 1000000}},
     "search: pe_steps 8 and bw_steps 1000000 give 10,499,968,500,021 "
     "partitions of a 3-way HDA, more than the 100,000 a sweep enumerates; "
     "use fewer steps"),
    # A value converted to raw units must still be in the hardware's domain.
    ({"kind": "schedule", "chip": "edge",
      "design": {"kind": "hda", "styles": ["nvdla", "shidiannao"],
                 "bw_partition_gbps": [1e300, 1e300]}},
     "design: sub-accelerator 'hda-nvdla-shidiannao-edge/acc0-nvdla': "
     "bandwidth must be a positive finite number (got inf)"),
    ({"kind": "schedule", "design": "rda",
      "chip": {"num_pes": 64, "noc_gbps": 1, "buffer_mib": 1,
               "clock_mhz": 1e305}},
     "chip: chip 'custom': clock must be a positive finite number (got inf)"),
    # 1024 // 61 == 16 divides 1024, which once let 61 through as 64 steps.
    ({"kind": "dse", "chip": "edge", "search": {"pe_steps": 61}},
     "search.pe_steps: 61 does not divide the 1024 PEs of chip 'edge' into "
     "equal steps, at least one per sub-accelerator of a 3-way HDA; valid "
     "step counts: 4, 8, 16, 32, 64, 128, 256, 512, 1024"),
    # An old spec naming a retired retry knob gets the closed-world
    # unknown-key error.
    ({"kind": "dse", "exec": {"max_retries": 1}},
     "exec.max_retries: unknown key (allowed: ['jobs', 'partial_ok'])"),
    ({"kind": "fleet", "exec": {"task_timeout_s": 30}},
     "exec.task_timeout_s: unknown key (allowed: ['jobs', 'partial_ok'])"),
    # A rate that underflows once converted is below its physical floor
    # (1 B/s, 1 Hz); it used to schedule and report an infinite latency.
    ({"kind": "schedule", "chip": {"class": "edge", "noc_gbps": 1e-300}},
     "chip.noc_gbps: 1e-291 B/s is below the physical floor of 1 B/s"),
    ({"kind": "schedule",
      "chip": {"class": "edge", "dram_bandwidth_bytes_per_s": 0.5}},
     "chip.dram_bandwidth_bytes_per_s: 0.5 B/s is below the physical "
     "floor of 1 B/s"),
    ({"kind": "schedule", "chip": {"class": "edge", "clock_mhz": 1e-300}},
     "chip.clock_mhz: 1e-294 Hz is below the physical floor of 1 Hz"),
    ({"kind": "schedule", "chip": "edge",
      "design": {"kind": "hda", "styles": ["nvdla", "shidiannao"],
                 "bw_partition_gbps": [1e-300, 16]}},
     "design.bw_partition_gbps[0]: 1e-291 B/s is below the physical floor "
     "of 1 B/s"),
    # Maelstrom and the SLA search split the chip two ways; a 1-PE chip
    # used to end in a SearchError traceback from the partition search.
    ({"kind": "schedule", "design": "maelstrom",
      "chip": {"class": "edge", "num_pes": 1}},
     "design: 2 sub-accelerators need at least one PE each, but chip "
     "'edge' has 1"),
    ({"kind": "serve", "chip": {"class": "edge", "num_pes": 1}},
     "design: 2 sub-accelerators need at least one PE each, but chip "
     "'edge' has 1"),
    ({"kind": "fleet", "chip": {"class": "edge", "num_pes": 1}},
     "design: 2 sub-accelerators need at least one PE each, but chip "
     "'edge' has 1"),
    ({"kind": "closed-loop", "design": "rda",
      "chip": {"class": "edge", "num_pes": 1},
      "fleet": {"chips": ["rda", "maelstrom"]}},
     "fleet.chips[1]: 2 sub-accelerators need at least one PE each, but "
     "chip 'edge' has 1"),
    ({"kind": "serve", "design": "rda", "optimize_sla": True,
      "chip": {"class": "edge", "num_pes": 1}},
     "optimize_sla: 2 sub-accelerators need at least one PE each, but chip "
     "'edge' has 1"),
    # Found by the fuzz below: a huge count built one PE share per copy
    # first (10**400 raised OverflowError, 10**9 would allocate gigabytes).
    ({"kind": "schedule",
      "design": {"kind": "sm-fda", "style": "nvdla", "count": 2000}},
     "design.count: 2000 sub-accelerators need at least one PE each, but "
     "chip 'edge' has 1024"),
    # A frame count or probe budget no run could finish is refused at load.
    ({"kind": "serve", "streaming": {"frames": 1_000_001}},
     "streaming.frames: 1000001 frames is more than the 1,000,000 a stream "
     "simulates"),
    ({"kind": "fleet", "streaming": {"suite": "mlperf", "frames": 1_000_001}},
     "streaming.frames: 1000001 frames is more than the 1,000,000 a stream "
     "simulates"),
    ({"kind": "closed-loop", "streaming": {"streams": [
        {"model": "resnet50", "fps": 30, "frames": 1},
        {"model": "unet", "fps": 30, "frames": 1_000_001}]}},
     "streaming.streams[1].frames: 1000001 frames is more than the "
     "1,000,000 a stream simulates"),
    ({"kind": "serve", "sustained": {"probes": 2101}},
     "sustained.probes: 2101 probes is more than the 2,100 a bisection of "
     "a float bracket can use"),
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
        spec = experiment_from_spec({
            "kind": "closed-loop", "design": "rda", "fleet": {"chips": 3},
            "faults": ["die:1@0.02", "slow:0@0.001-0.002x2.5"],
            "autoscale": {"interval_s": 0.004, "min_chips": 2,
                          "max_chips": 3, "target_queue_per_chip": 1.5},
        })
        assert spec.faults == FaultSpec(
            failures=(ChipFailure(1, 0.02),),
            slowdowns=(SlowdownWindow(0, 0.001, 0.002, 2.5),))
        assert spec.autoscale == AutoscalePolicy(
            interval_s=0.004, min_chips=2, max_chips=3,
            target_queue_per_chip=1.5)

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
        # A custom chip in raw units without a class base has no DRAM limit;
        # explicit partitions come in GB/s or in exact bytes per second.
        chip_spec = {"name": "lab", "num_pes": 512,
                     "noc_bandwidth_bytes_per_s": 12.5e9,
                     "global_buffer_bytes": 3 << 20, "clock_hz": 7.5e8}
        chip = ChipConfig(name="lab", num_pes=512,
                          noc_bandwidth_bytes_per_s=12.5e9,
                          global_buffer_bytes=3 << 20,
                          dram_bandwidth_bytes_per_s=None, clock_hz=7.5e8)
        split = make_hda(chip, [NVDLA, EYERISS], pe_partition=[384, 128],
                         bw_partition_gbps=[10.0, 2.5], name="split")
        cases = [
            ({"kind": "sm-fda", "style": "eyeriss", "count": 3},
             make_smfda(chip, EYERISS, 3)),
            ({"kind": "hda", "name": "split", "styles": ["nvdla", "eyeriss"],
              "pe_partition": [384, 128], "bw_partition_gbps": [10.0, 2.5]},
             split),
            ({"kind": "hda", "name": "split", "styles": ["nvdla", "eyeriss"],
              "pe_partition": [384, 128],
              "bw_partition_bytes_per_s": [10e9, 2.5e9]},
             split),
        ]
        for design, expected in cases:
            spec = experiment_from_spec({"kind": "schedule",
                                         "chip": chip_spec, "design": design})
            assert spec.chip == chip
            assert spec.design == expected

    def test_workload_and_search_mappings(self):
        for workload, expected in (
                ({"suite": "mlperf", "batch_size": 7}, mlperf(7)),
                ({"model": "unet", "batches": 2},
                 WorkloadSpec(name="unet-x2", entries=[("unet", 2)])),
                ({"name": "duo", "entries": [["unet", 2], ["resnet50", 1]]},
                 WorkloadSpec(name="duo", entries=[("unet", 2),
                                                   ("resnet50", 1)]))):
            spec = experiment_from_spec({"kind": "schedule",
                                         "workload": workload})
            assert spec.workload == expected
        knobs = {"strategy": "random", "pe_steps": 4, "bw_steps": 3,
                 "metric": "latency", "samples": 9, "seed": 4}
        spec = experiment_from_spec({"kind": "dse", "search": knobs})
        search = search_from_spec(spec.search)
        assert {knob: getattr(search, knob) for knob in knobs} == knobs

    def test_traffic_shape_knobs(self):
        spec = experiment_from_spec({
            "kind": "fleet", "design": "rda",
            "traffic": {"kind": "bursty", "burst_factor": 6.0},
        })
        assert spec.traffic.kind == "bursty"
        assert spec.traffic.shape == {"burst_factor": 6.0}
        # A flat diurnal curve (amplitude 0) is inside TrafficSpec's domain.
        spec = experiment_from_spec({
            "kind": "fleet", "design": "rda",
            "traffic": {"kind": "diurnal", "amplitude": 0},
        })
        assert spec.traffic.shape == {"amplitude": 0.0}


# ---------------------------------------------------------------------------
# Seeded fuzz
# ---------------------------------------------------------------------------
#: One valid spec per experiment kind, between them using every top-level
#: key and the chip, design, search, streaming, traffic, sustained, fleet,
#: min_chips, faults and autoscale sub-mappings.
_FUZZ_BASES = [
    {"kind": "schedule", "name": "s", "workload": "arvr-a", "metric": "edp",
     "chip": {"class": "edge", "num_pes": 64, "noc_gbps": 8,
              "clock_mhz": 500},
     "design": {"kind": "hda", "styles": ["nvdla", "shidiannao"],
                "pe_partition": [32, 32], "bw_partition_gbps": [4, 4]}},
    {"kind": "dse", "workload": {"name": "mix", "entries": [["unet", 1]]},
     "chip": "edge", "search": {"pe_steps": 4, "bw_steps": 1},
     "exec": {"jobs": 1, "partial_ok": False}},
    {"kind": "serve", "design": "fda-nvdla", "metric": "latency",
     "streaming": {"frames": 2, "fps_scale": 1.0, "jitter_ms": 0.5,
                   "seed": 1},
     "sustained": {"enabled": True, "lo": 0.1, "hi": 2.0, "probes": 3},
     "optimize_sla": False},
    {"kind": "fleet", "design": "rda", "chip": "mobile",
     "fleet": {"chips": 2, "policy": "round-robin"},
     "traffic": {"kind": "bursty", "burst_factor": 5},
     "min_chips": {"enabled": True, "max_chips": 3}},
    {"kind": "closed-loop", "design": "fda-nvdla",
     "fleet": {"chips": ["rda", {"kind": "sm-fda", "style": "nvdla",
                                 "count": 2}]},
     "traffic": {"kind": "diurnal", "amplitude": 0.5},
     "faults": ["die:1@0.001", "slow:0@0.001-0.002x2"],
     "autoscale": {"interval_ms": 2}},
]

#: Replacement values: wrong types, out-of-domain numbers, unknown names.
_FUZZ_VALUES = [None, True, False, -1, 0, 1, 3, 0.5, -2.0, 1e300, 1e-300,
                float("nan"), float("inf"), 10 ** 400, "", "x", "edge",
                "maelstrom", "nvdla", [], [1], ["x", None], {}, {"kind": "x"}]


def _fuzz_paths(node, prefix=()):
    """Every (container, key) path below ``node``, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _fuzz_paths(value, prefix + (key,))


def _mutate(spec, rng):
    """Apply one random value swap, deletion or wrong-typed replacement."""
    paths = list(_fuzz_paths(spec))
    path = rng.choice(paths)
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    operation = rng.randrange(3)
    if operation == 0:
        del parent[key]
    elif operation == 1:
        parent[key] = copy.deepcopy(rng.choice(_FUZZ_VALUES))
    else:
        other = spec
        for step in rng.choice(paths):
            if not isinstance(other, (dict, list)) or (
                    isinstance(other, list) and step >= len(other)) or (
                    isinstance(other, dict) and step not in other):
                return
            other = other[step]
        parent[key] = copy.deepcopy(other)


class TestSpecFuzz:
    @pytest.mark.parametrize("base", _FUZZ_BASES,
                             ids=[base["kind"] for base in _FUZZ_BASES])
    def test_mutated_specs_load_or_raise_spec_error(self, base):
        """600 seeded mutants per kind (1-3 mutations each): the loader
        returns a spec or raises ``SpecError``, nothing else."""
        experiment_from_spec(base)
        rng = random.Random(f"spec-fuzz-{base['kind']}")
        for case in range(600):
            spec = copy.deepcopy(base)
            for _ in range(rng.randint(1, 3)):
                if not list(_fuzz_paths(spec)):
                    break
                _mutate(spec, rng)
            try:
                loaded = experiment_from_spec(spec)
            except SpecError:
                continue
            except Exception as error:  # noqa: BLE001 - the property itself
                pytest.fail(f"case {case}: {spec!r} raised "
                            f"{type(error).__name__}: {error}")
            assert isinstance(loaded, ExperimentSpec)
