"""The declarative experiment schema: one validated record per run.

An *experiment* is everything one ``herald`` invocation does — a kind
(``schedule`` / ``dse`` / ``serve`` / ``fleet`` / ``closed-loop``) plus the
knobs that kind takes — written as a plain mapping (JSON or the YAML subset
of :mod:`repro.experiment.yamlish`).  :func:`experiment_from_spec` validates
the mapping into an :class:`ExperimentSpec` using the per-layer ``from_spec``
constructors (chips, designs, workloads, streams, faults, fleets, autoscaling,
searches), so a malformed file fails fast with the dotted path of
the offending value (``fleet.chips[2].num_pes: expected a positive int``)
instead of a traceback from deep inside a search.

The CLI compiles its flags into exactly this schema before running, so a
flag invocation and the equivalent experiment file are *the same program*:
``herald fleet --chips 3`` and ``herald run fleet3.yaml`` both build an
:class:`ExperimentSpec` and hand it to
:func:`repro.experiment.runner.run_experiment`.

Design references are resolved lazily when they need a search: a ``design``
may be a named CLI design (``maelstrom`` runs the partition search at run
time) or an explicit design mapping (built eagerly against the chip).
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional, Union

from repro.accel.builders import check_pe_split, chip_from_spec, design_from_spec
from repro.accel.design import AcceleratorDesign
from repro.core.partitioner import PartitionSearch, search_from_spec
from repro.dataflow import ALL_STYLES
from repro.exceptions import SpecError
from repro.maestro.hardware import ChipConfig
from repro.serve.faults import FaultSpec, faults_from_spec
from repro.serve.fleet import fleet_from_spec
from repro.serve.online import AutoscalePolicy, autoscale_from_spec
from repro.serve.router import ROUTER_POLICIES
from repro.serve.traffic import TRAFFIC_KINDS, _SHAPE_DEFAULTS
from repro.serve.workload import StreamingWorkload, streaming_from_spec
from repro.validation import (
    check_keys,
    expect_bool,
    expect_choice,
    expect_int,
    expect_mapping,
    expect_number,
    expect_pos_int,
    expect_str,
    spec_path,
)
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suites import WORKLOAD_SUITES, workload_from_spec

#: Experiment kinds, mirroring the CLI sub-commands (``closed-loop`` is
#: ``fleet`` through the online event engine — the CLI's ``--online``).
EXPERIMENT_KINDS = ("schedule", "dse", "serve", "fleet", "closed-loop")

#: Layer-assignment objectives of the online scheduler (the CLI ``--metric``).
SCHEDULER_METRICS = ("edp", "latency", "energy")

#: Named designs the CLI accepts (resolved at run time; ``maelstrom`` runs
#: the paper's partition search for the batch workload).
NAMED_DESIGNS = ("maelstrom", "rda", "fda-nvdla", "fda-shidiannao",
                 "fda-eyeriss")

#: The experiment-spec schema version this build reads and writes.
SPEC_SCHEMA = 1

# The most partitions of the widest HDA a DSE spec may ask for.  A sweep
# evaluates each one (milliseconds apiece), so a step count past this
# (say ``pe_steps`` 1024 on the edge chip: 522,753 PE splits times 3
# bandwidth splits) would run for hours.  100,000 keeps every sweep that
# finishes in minutes -- the Fig. 11 cells enumerate 63, ``pe_steps`` 256
# on cloud 97,155 -- and turns the rest into a spec error.
_MAX_SEARCH_PARTITIONS = 100_000

_EXPERIMENT_KEYS = ("schema", "kind", "name", "workload", "chip", "design",
                    "metric", "exec", "search", "streaming", "traffic",
                    "sustained", "optimize_sla", "fleet", "min_chips",
                    "faults", "autoscale")

_STREAMING_KNOB_KEYS = ("frames", "fps_scale", "jitter_ms", "seed")
_TRAFFIC_KEYS = ("kind",) + tuple(_SHAPE_DEFAULTS)
_SUSTAINED_KEYS = ("enabled", "lo", "hi", "probes", "tolerance")
_MIN_CHIPS_KEYS = ("enabled", "max_chips")
_EXEC_KEYS = ("jobs", "partial_ok")


class StreamingSettings(NamedTuple):
    """Suite-derived trace knobs (the CLI's serve/fleet arrival flags)."""

    frames: int = 4
    fps_scale: float = 1.0
    jitter_ms: float = 0.0
    seed: int = 0


class TrafficSettings(NamedTuple):
    """Stochastic-arrival settings replacing the periodic trace."""

    kind: str
    shape: Dict[str, float]


class SustainedSettings(NamedTuple):
    """The sustained-FPS binary-search bracket (``herald serve``)."""

    enabled: bool = True
    lo: float = 1.0 / 256.0
    hi: float = 8.0
    probes: int = 10
    tolerance: float = 0.0


class MinChipsSettings(NamedTuple):
    """The minimum-fleet-size bisection (``herald fleet --min-chips``)."""

    enabled: bool = False
    max_chips: int = 8


class ExecSettings(NamedTuple):
    """Execution-backend settings.

    ``partial_ok`` lets a sweep rank whatever completed and report the
    casualties instead of aborting once a round leaves a task failed.
    """

    jobs: int = 1
    partial_ok: bool = False


class _ExperimentSpecFields(NamedTuple):
    kind: str
    name: str
    workload: WorkloadSpec
    chip: ChipConfig
    design: Union[str, AcceleratorDesign, None]
    metric: str
    exec_settings: ExecSettings
    search: Dict[str, object]
    streaming: StreamingSettings
    streams: Optional[StreamingWorkload]
    traffic: Optional[TrafficSettings]
    sustained: SustainedSettings
    optimize_sla: bool
    fleet: Optional[Dict[str, object]]
    policy: str
    min_chips: MinChipsSettings
    faults: Optional[FaultSpec]
    autoscale: Optional[AutoscalePolicy]
    raw: Dict[str, object]


class ExperimentSpec(_ExperimentSpecFields):
    """One fully validated experiment, ready for the runner.

    ``design`` is either a :data:`NAMED_DESIGNS` string (resolved at run
    time, since ``maelstrom`` runs a partition search) or a concrete
    :class:`~repro.accel.design.AcceleratorDesign` built from an explicit
    design mapping.  ``fleet`` stays as its validated raw mapping because
    its chips may reference named designs too; the runner materialises it
    through :func:`repro.serve.fleet.fleet_from_spec`.  ``raw`` echoes the
    normalised input mapping verbatim for report provenance.
    """

    __slots__ = ()

    # ``raw`` is provenance, not configuration: it takes no part in equality.
    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ExperimentSpec)
                and self[:-1] == other[:-1])

    def __ne__(self, other: object) -> bool:
        return not self == other

    @property
    def online(self) -> bool:
        """Whether the run goes through the closed-loop event engine."""
        return self.kind == "closed-loop"


def _design_from_value(value: object, path: str,
                       chip: ChipConfig) -> Union[str, AcceleratorDesign]:
    """A design reference: a named CLI design or an explicit mapping."""
    if isinstance(value, str):
        design = expect_choice(value, NAMED_DESIGNS, path)
        if design == "maelstrom":  # a two-way NVDLA + Shi-diannao HDA
            check_pe_split(chip, 2, path)
        return design
    return design_from_spec(expect_mapping(value, path), path=path, chip=chip)


def _forbid(mapping: Dict[str, object], kind: str, path: str,
            *keys: str) -> None:
    """Reject keys another experiment kind owns, naming the offender."""
    for key in keys:
        if key in mapping:
            raise SpecError(
                f"{spec_path(path, key)}: not a setting of kind {kind!r}")


def _streaming_settings(mapping: Dict[str, object],
                        path: str) -> StreamingSettings:
    check_keys(mapping, _STREAMING_KNOB_KEYS, path)
    return StreamingSettings(
        frames=expect_pos_int(mapping.get("frames", 4),
                              spec_path(path, "frames")),
        fps_scale=expect_number(mapping.get("fps_scale", 1.0),
                                spec_path(path, "fps_scale"),
                                minimum=0.0, exclusive=True),
        jitter_ms=expect_number(mapping.get("jitter_ms", 0.0),
                                spec_path(path, "jitter_ms"), minimum=0.0),
        seed=expect_int(mapping.get("seed", 0), spec_path(path, "seed")),
    )


def _traffic_settings(value: object, path: str) -> TrafficSettings:
    if isinstance(value, str):
        return TrafficSettings(
            kind=expect_choice(value, TRAFFIC_KINDS, path), shape={})
    mapping = expect_mapping(value, path)
    check_keys(mapping, _TRAFFIC_KEYS, path)
    kind = expect_choice(mapping.get("kind"), TRAFFIC_KINDS,
                         spec_path(path, "kind"))
    # The knobs' domain is TrafficSpec's: amplitude in [0, 1), every other
    # knob positive, and calm_factor below burst_factor.
    shape: Dict[str, float] = {}
    for knob in _SHAPE_DEFAULTS:
        if knob not in mapping:
            continue
        if knob == "session_frames":
            shape[knob] = expect_pos_int(mapping[knob], spec_path(path, knob))
        else:
            shape[knob] = expect_number(mapping[knob], spec_path(path, knob),
                                        minimum=0.0,
                                        exclusive=knob != "amplitude")
    if shape.get("amplitude", 0.0) >= 1.0:
        raise SpecError(f"{spec_path(path, 'amplitude')}: expected a number "
                        f"< 1 (got {shape['amplitude']:g})")
    calm = shape.get("calm_factor", _SHAPE_DEFAULTS["calm_factor"])
    burst = shape.get("burst_factor", _SHAPE_DEFAULTS["burst_factor"])
    if calm >= burst:
        knob = "burst_factor" if "burst_factor" in shape else "calm_factor"
        raise SpecError(f"{spec_path(path, knob)}: calm_factor must be below "
                        f"burst_factor (got {calm:g} / {burst:g})")
    return TrafficSettings(kind=kind, shape=shape)


def _sustained_settings(mapping: Dict[str, object],
                        path: str) -> SustainedSettings:
    check_keys(mapping, _SUSTAINED_KEYS, path)
    settings = SustainedSettings(
        enabled=expect_bool(mapping.get("enabled", True),
                            spec_path(path, "enabled")),
        lo=expect_number(mapping.get("lo", 1.0 / 256.0),
                         spec_path(path, "lo"), minimum=0.0, exclusive=True),
        hi=expect_number(mapping.get("hi", 8.0), spec_path(path, "hi"),
                         minimum=0.0, exclusive=True),
        probes=expect_pos_int(mapping.get("probes", 10),
                              spec_path(path, "probes")),
        tolerance=expect_number(mapping.get("tolerance", 0.0),
                                spec_path(path, "tolerance"), minimum=0.0),
    )
    if settings.enabled and not settings.lo < settings.hi:
        raise SpecError(f"{spec_path(path, 'lo')}: must be below "
                        f"{spec_path(path, 'hi')} (got lo={settings.lo:g}, "
                        f"hi={settings.hi:g})")
    return settings


def _min_chips_settings(value: object, path: str) -> MinChipsSettings:
    if isinstance(value, bool):
        return MinChipsSettings(enabled=value)
    mapping = expect_mapping(value, path)
    check_keys(mapping, _MIN_CHIPS_KEYS, path)
    return MinChipsSettings(
        enabled=expect_bool(mapping.get("enabled", True),
                            spec_path(path, "enabled")),
        max_chips=expect_pos_int(mapping.get("max_chips", 8),
                                 spec_path(path, "max_chips")),
    )


def _exec_settings(mapping: Dict[str, object], path: str,
                   kind: str) -> ExecSettings:
    check_keys(mapping, _EXEC_KEYS, path)
    jobs = expect_pos_int(mapping.get("jobs", 1), spec_path(path, "jobs"))
    if jobs > 1 and kind in ("schedule", "serve"):
        raise SpecError(f"{spec_path(path, 'jobs')}: a {kind!r} experiment "
                        f"runs in-process (jobs must be 1)")
    if "partial_ok" in mapping and kind not in ("dse", "fleet"):
        raise SpecError(f"{spec_path(path, 'partial_ok')}: only 'dse' and "
                        f"'fleet' experiments rank partial sweeps")
    partial_ok = expect_bool(mapping.get("partial_ok", False),
                             spec_path(path, "partial_ok"))
    return ExecSettings(jobs=jobs, partial_ok=partial_ok)


def _validate_fleet(mapping: Dict[str, object], path: str,
                    chip: ChipConfig) -> Dict[str, object]:
    """Structurally validate the fleet mapping without running a search.

    Named designs resolve to a cheap placeholder here (``maelstrom`` would
    run the partition search); the runner rebuilds the fleet for real
    through the same :func:`~repro.serve.fleet.fleet_from_spec` path.
    """
    from repro.accel.builders import make_rda

    placeholder = make_rda(chip)

    def validate_build(sub: object, sub_path: str) -> AcceleratorDesign:
        if sub is None:
            return placeholder
        resolved = _design_from_value(sub, sub_path, chip)
        return placeholder if isinstance(resolved, str) else resolved

    fleet_from_spec(mapping, validate_build, path=path)
    return mapping


def _check_partition_steps(search: PartitionSearch, chip: ChipConfig,
                           path: str) -> None:
    """Reject step counts a sweep of ``chip`` cannot enumerate as asked.

    The search splits the chip's PEs into equal steps, at least one per
    style of the widest HDA, and builds every partition of that HDA (PE
    compositions times bandwidth compositions), so both are checked here,
    before any partition is built.
    """
    pes, parts = chip.num_pes, len(ALL_STYLES)
    pe_steps, bw_steps = search.pe_steps, search.bw_steps
    # A count that does not divide the PEs, more steps than PEs included,
    # would give unequal steps.
    if pes % pe_steps or pe_steps < parts:
        # Divisors pair up around the square root, so the list costs
        # sqrt(pes) steps, not pes (seconds on a 10^8-PE custom chip).
        divisors = {d for n in range(1, math.isqrt(pes) + 1) if not pes % n
                    for d in (n, pes // n)}
        valid = [str(n) for n in sorted(divisors) if n >= parts]
        raise SpecError(
            f"{path}.pe_steps: {pe_steps} does not divide the {pes} PEs of "
            f"chip {chip.name!r} into equal steps, at least one per "
            f"sub-accelerator of a {parts}-way HDA; valid step counts: "
            f"{', '.join(valid)}")
    partitions = math.comb(pe_steps - 1, parts - 1) * (
        math.comb(bw_steps - 1, parts - 1) if bw_steps >= parts else 1)
    if partitions > _MAX_SEARCH_PARTITIONS:
        raise SpecError(
            f"{path}: pe_steps {pe_steps} and bw_steps {bw_steps} give "
            f"{partitions:,} partitions of a {parts}-way HDA, more than the "
            f"{_MAX_SEARCH_PARTITIONS:,} a sweep enumerates; use fewer steps")


def experiment_from_spec(spec: object,
                         path: str = "") -> ExperimentSpec:
    """Validate a plain experiment mapping into an :class:`ExperimentSpec`."""
    mapping = expect_mapping(spec, path or "experiment")
    check_keys(mapping, _EXPERIMENT_KEYS, path)
    schema = expect_int(mapping.get("schema", SPEC_SCHEMA),
                        spec_path(path, "schema"))
    if schema != SPEC_SCHEMA:
        raise SpecError(f"{spec_path(path, 'schema')}: this build reads "
                        f"schema {SPEC_SCHEMA} (got {schema})")
    kind = expect_choice(mapping.get("kind"), EXPERIMENT_KINDS,
                         spec_path(path, "kind"))
    name = expect_str(mapping.get("name", kind), spec_path(path, "name"))
    workload = workload_from_spec(mapping.get("workload", "arvr-a"),
                                  path=spec_path(path, "workload"))
    chip = chip_from_spec(mapping.get("chip", "edge"),
                          path=spec_path(path, "chip"))
    metric = expect_choice(mapping.get("metric", "edp"), SCHEDULER_METRICS,
                           spec_path(path, "metric"))
    exec_settings = _exec_settings(
        expect_mapping(mapping.get("exec", {}), spec_path(path, "exec")),
        spec_path(path, "exec"), kind)

    serving = kind in ("serve", "fleet", "closed-loop")
    fleeted = kind in ("fleet", "closed-loop")

    design: Union[str, AcceleratorDesign, None] = None
    if kind == "dse":
        _forbid(mapping, kind, path, "design")
    else:
        design = _design_from_value(mapping.get("design", "maelstrom"),
                                    spec_path(path, "design"), chip)

    search: Dict[str, object] = {}
    if kind == "dse":
        search = expect_mapping(mapping.get("search", {}),
                                spec_path(path, "search"))
        # Validate eagerly (and discard): the runner rebuilds against the
        # run's shared cost model.
        _check_partition_steps(
            search_from_spec(search, spec_path(path, "search")), chip,
            spec_path(path, "search"))
    else:
        _forbid(mapping, kind, path, "search")

    streaming = StreamingSettings()
    streams: Optional[StreamingWorkload] = None
    if serving:
        streaming_value = mapping.get("streaming", {})
        streaming_path = spec_path(path, "streaming")
        streaming_map = expect_mapping(streaming_value, streaming_path)
        if "suite" in streaming_map or "streams" in streaming_map:
            streams = streaming_from_spec(streaming_map, path=streaming_path)
        else:
            streaming = _streaming_settings(streaming_map, streaming_path)
            if workload.name not in WORKLOAD_SUITES:
                raise SpecError(
                    f"{streaming_path}: workload {workload.name!r} has no "
                    f"Table II FPS targets; give explicit 'streams' (or a "
                    f"'suite') instead of trace knobs")
    else:
        _forbid(mapping, kind, path, "streaming")

    traffic: Optional[TrafficSettings] = None
    if "traffic" in mapping:
        if not fleeted:
            _forbid(mapping, kind, path, "traffic")
        traffic = _traffic_settings(mapping["traffic"],
                                    spec_path(path, "traffic"))
        if streams is not None:
            raise SpecError(
                f"{spec_path(path, 'traffic')}: explicit 'streams' already "
                f"fix the arrival trace; drop one of the two")
        if streaming.jitter_ms:
            raise SpecError(
                f"{spec_path(path, 'traffic')}: arrival jitter applies to "
                f"the periodic trace only; traffic arrivals are already "
                f"stochastic")

    sustained = SustainedSettings(enabled=(kind == "serve"))
    if "sustained" in mapping:
        if kind != "serve":
            _forbid(mapping, kind, path, "sustained")
        sustained = _sustained_settings(
            expect_mapping(mapping["sustained"],
                           spec_path(path, "sustained")),
            spec_path(path, "sustained"))

    optimize_sla = False
    if "optimize_sla" in mapping:
        if kind != "serve":
            _forbid(mapping, kind, path, "optimize_sla")
        optimize_sla = expect_bool(mapping["optimize_sla"],
                                   spec_path(path, "optimize_sla"))
        if optimize_sla:  # searches the same two-way HDA
            check_pe_split(chip, 2, spec_path(path, "optimize_sla"))

    fleet: Optional[Dict[str, object]] = None
    policy = "earliest-completion"
    min_chips = MinChipsSettings()
    if fleeted:
        fleet_path = spec_path(path, "fleet")
        fleet_map = dict(expect_mapping(mapping.get("fleet", {}),
                                        fleet_path))
        if "policy" in fleet_map:
            policy = expect_choice(fleet_map.pop("policy"), ROUTER_POLICIES,
                                   spec_path(fleet_path, "policy"))
        fleet_map.setdefault("chips", 2)
        fleet = _validate_fleet(fleet_map, fleet_path, chip)
        if "min_chips" in mapping:
            min_chips = _min_chips_settings(mapping["min_chips"],
                                            spec_path(path, "min_chips"))
    else:
        _forbid(mapping, kind, path, "fleet", "min_chips")

    faults: Optional[FaultSpec] = None
    autoscale: Optional[AutoscalePolicy] = None
    if kind == "closed-loop":
        if "faults" in mapping:
            faults = faults_from_spec(mapping["faults"],
                                      path=spec_path(path, "faults"))
        if "autoscale" in mapping:
            autoscale = autoscale_from_spec(mapping["autoscale"],
                                            path=spec_path(path, "autoscale"))
    else:
        _forbid(mapping, kind, path, "faults", "autoscale")

    return ExperimentSpec(
        kind=kind,
        name=name,
        workload=workload,
        chip=chip,
        design=design,
        metric=metric,
        exec_settings=exec_settings,
        search=search,
        streaming=streaming,
        streams=streams,
        traffic=traffic,
        sustained=sustained,
        optimize_sla=optimize_sla,
        fleet=fleet,
        policy=policy,
        min_chips=min_chips,
        faults=faults,
        autoscale=autoscale,
        raw=dict(mapping),
    )


def load_experiment(path: str) -> ExperimentSpec:
    """Load and validate an experiment file (JSON or the YAML subset)."""
    from repro.experiment.yamlish import load_config

    return experiment_from_spec(load_config(path))
