"""Declarative experiments: validated specs, one runner, versioned reports.

The experiment layer closes the loop between the CLI and the library: a
plain mapping (JSON or the YAML subset of :mod:`repro.experiment.yamlish`)
describes *what to run* — kind, workload, chip, design, arrival trace,
fleet, faults, search settings — and :func:`run_experiment` executes it
through the same cost-model / scheduler / backend stack every sub-command
always used, emitting a schema-versioned JSON report whose ``metrics`` can
be diffed against a stored baseline (:func:`compare_reports`) for CI gates.

The CLI compiles its flags into this schema before running, so flags and
files are bit-for-bit equivalent by construction.
"""

from repro.experiment.report import (
    REPORT_SCHEMA,
    BaselineDelta,
    ComparisonResult,
    build_report,
    compare_reports,
    load_report,
    metric_direction,
    write_report,
)
from repro.experiment.runner import ExperimentOutcome, run_experiment
from repro.experiment.spec import (
    EXPERIMENT_KINDS,
    NAMED_DESIGNS,
    SCHEDULER_METRICS,
    SPEC_SCHEMA,
    ExecSettings,
    ExperimentSpec,
    MinChipsSettings,
    StreamingSettings,
    SustainedSettings,
    TrafficSettings,
    experiment_from_spec,
    load_experiment,
)
from repro.experiment.yamlish import YamlishError, load_config, parse_yamlish

__all__ = [
    "REPORT_SCHEMA",
    "SPEC_SCHEMA",
    "EXPERIMENT_KINDS",
    "NAMED_DESIGNS",
    "SCHEDULER_METRICS",
    "BaselineDelta",
    "ComparisonResult",
    "ExecSettings",
    "ExperimentOutcome",
    "ExperimentSpec",
    "MinChipsSettings",
    "StreamingSettings",
    "SustainedSettings",
    "TrafficSettings",
    "YamlishError",
    "build_report",
    "compare_reports",
    "experiment_from_spec",
    "load_config",
    "load_experiment",
    "load_report",
    "metric_direction",
    "parse_yamlish",
    "run_experiment",
    "write_report",
]
