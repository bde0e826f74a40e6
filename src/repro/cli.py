"""Command-line interface for the Herald reproduction.

Seven sub-commands mirror how the paper uses Herald (plus its fleet-scale
and experiment-layer extensions):

``herald describe``
    Print the workload / accelerator-class / policy / traffic / experiment
    inventories.
``herald schedule``
    Schedule one workload on one design (FDA / RDA / Maelstrom-style HDA) and
    print latency / energy / EDP.
``herald dse``
    Run the co-design-space exploration for a workload and an accelerator
    class and print the best design per accelerator category.
``herald serve``
    Simulate streaming frame arrivals (per-model Table II FPS targets) on one
    design and print per-model latency percentiles, deadline-miss rates, and
    the sustained-FPS operating point.
``herald fleet``
    Simulate the same streaming scenario on a fleet of N chips behind a
    routing policy (round-robin / least-outstanding / earliest-completion /
    sticky) and print per-chip utilisation plus fleet-wide tail latency;
    optionally search the minimum fleet size meeting the SLA.
``herald run``
    Execute a declarative experiment file (JSON or the YAML subset) — any of
    the above kinds — and optionally write the versioned JSON report and
    compare it against a stored baseline (non-zero exit on regression).
``herald report-diff``
    Diff two report files metric by metric (the CI regression gate).

Every flag-driven sub-command compiles its flags into the same experiment
schema ``herald run`` reads and executes it through the shared runner, so a
flag invocation and the equivalent experiment file produce identical output
and identical reports.

Numeric arguments are validated in the parser (``type=`` callables raising
``ArgumentTypeError``), so a bad ``--jobs 0`` or negative ``--pe-steps`` fails
immediately with a clear message instead of deep inside the search.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Dict, Optional, Sequence

from repro import __version__
from repro.accel.classes import ACCELERATOR_CLASSES
from repro.choices import ROUTER_POLICY_NAMES, TRAFFIC_KINDS
from repro.exceptions import CheckpointError, SpecError, WorkloadError
from repro.experiment.report import (
    compare_reports,
    load_report,
    write_report,
)
from repro.experiment.runner import run_experiment
from repro.experiment.spec import (
    EXPERIMENT_KINDS,
    NAMED_DESIGNS,
    experiment_from_spec,
)
from repro.experiment.yamlish import load_config
from repro.workloads import workload_by_name
from repro.workloads.suites import WORKLOAD_SUITES

#: Design names accepted by ``herald schedule`` / ``herald serve``.
DESIGN_CHOICES = list(NAMED_DESIGNS)


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """Parser type: an integer ``>= minimum``, rejected with a clear message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {minimum} (got {value})")
        return value

    return parse


def _float_at_least(minimum: float, exclusive: bool = False) -> Callable[[str], float]:
    """Parser type: a finite float ``>= minimum`` (``>`` when ``exclusive``)."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a number, got {text!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(
                f"must be a finite number (got {value})")
        if value < minimum or (exclusive and value == minimum):
            bound = f"> {minimum}" if exclusive else f">= {minimum}"
            raise argparse.ArgumentTypeError(f"must be {bound} (got {value})")
        return value

    return parse


def _fault_clause(text: str) -> str:
    """Parser type: a ``die:CHIP@T`` / ``slow:CHIP@T0-T1xF`` fault clause.

    Returns the clause *string* (the experiment schema carries clauses as
    text); parsing here surfaces malformed clauses as argparse errors.
    """
    from repro.serve.faults import parse_fault_clause

    try:
        parse_fault_clause(text)
    except WorkloadError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Failure-handling flags shared by the sweep commands (dse / fleet)."""
    parser.add_argument("--partial-ok", action="store_true",
                        help="rank whatever completed and report failed "
                             "tasks as casualties instead of aborting the "
                             "sweep with exit 3")
    _add_checkpoint_flags(parser)


def _add_checkpoint_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="record each completed task here (atomic "
                             "writes), so a killed sweep can be resumed")
    parser.add_argument("--resume", action="store_true",
                        help="skip tasks already recorded in --checkpoint "
                             "and re-run only the rest")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herald",
        description="Herald: co-design-space exploration for heterogeneous "
                    "dataflow accelerators (HPCA 2021 reproduction).",
    )
    parser.add_argument("--version", action="version",
                        version=f"herald {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("describe", help="list workloads, accelerator classes, "
                                    "policies, traffic kinds and experiment "
                                    "kinds")

    schedule = sub.add_parser("schedule", help="schedule a workload on one design")
    schedule.add_argument("--workload", default="arvr-a", choices=sorted(WORKLOAD_SUITES))
    schedule.add_argument("--chip", default="edge", choices=sorted(ACCELERATOR_CLASSES))
    schedule.add_argument("--design", default="maelstrom", choices=DESIGN_CHOICES)
    schedule.add_argument("--metric", default="edp", choices=["edp", "latency", "energy"])
    schedule.add_argument("--report", default=None, metavar="PATH",
                          help="write the versioned JSON report here")

    dse = sub.add_parser("dse", help="run the co-design-space exploration")
    dse.add_argument("--workload", default="arvr-a", choices=sorted(WORKLOAD_SUITES))
    dse.add_argument("--chip", default="edge", choices=sorted(ACCELERATOR_CLASSES))
    dse.add_argument("--pe-steps", type=_int_at_least(2), default=8,
                     help="granularity of the PE partition search (>= 2)")
    dse.add_argument("--bw-steps", type=_int_at_least(1), default=4,
                     help="granularity of the bandwidth partition search (>= 1)")
    dse.add_argument("--jobs", type=_int_at_least(1), default=1,
                     help="up to N worker processes; in-process when the "
                          "sweep is too small to pay for them")
    _add_resilience_flags(dse)
    dse.add_argument("--report", default=None, metavar="PATH",
                     help="write the versioned JSON report here")

    serve = sub.add_parser(
        "serve", help="simulate streaming frame arrivals on one design")
    serve.add_argument("--workload", default="arvr-a", choices=sorted(WORKLOAD_SUITES))
    serve.add_argument("--chip", default="edge", choices=sorted(ACCELERATOR_CLASSES))
    serve.add_argument("--design", default="maelstrom", choices=DESIGN_CHOICES)
    serve.add_argument("--metric", default="edp", choices=["edp", "latency", "energy"],
                       help="layer-assignment objective of the online scheduler")
    serve.add_argument("--frames", type=_int_at_least(1), default=4,
                       help="frames simulated per stream source")
    serve.add_argument("--fps-scale", type=_float_at_least(0.0, exclusive=True),
                       default=1.0,
                       help="multiplier on the per-model Table II FPS targets")
    serve.add_argument("--jitter-ms", type=_float_at_least(0.0), default=0.0,
                       help="uniform arrival jitter half-width in milliseconds")
    serve.add_argument("--seed", type=int, default=0, help="arrival-jitter seed")
    serve.add_argument("--skip-sustained", action="store_true",
                       help="skip the sustained-FPS binary search")
    serve.add_argument("--sustained-lo", type=_float_at_least(0.0, exclusive=True),
                       default=1.0 / 256.0,
                       help="lower bracket of the sustained-FPS rate search")
    serve.add_argument("--sustained-hi", type=_float_at_least(0.0, exclusive=True),
                       default=8.0,
                       help="upper bracket of the sustained-FPS rate search")
    serve.add_argument("--sustained-probes", type=_int_at_least(1), default=10,
                       help="bisection probe budget of the sustained-FPS search")
    serve.add_argument("--sustained-tolerance", type=_float_at_least(0.0),
                       default=0.0,
                       help="stop the sustained-FPS bisection once the rate "
                            "bracket is at most this wide (0 = exhaust probes)")
    serve.add_argument("--optimize-sla", action="store_true",
                       help="additionally search the maelstrom PE/BW partition "
                            "under the SLA objective (zero misses, min p99)")
    serve.add_argument("--report", default=None, metavar="PATH",
                       help="write the versioned JSON report here")

    fleet = sub.add_parser(
        "fleet", help="simulate streaming arrivals on a multi-chip fleet")
    fleet.add_argument("--workload", default="arvr-a",
                       choices=sorted(WORKLOAD_SUITES))
    fleet.add_argument("--chip", default="edge",
                       choices=sorted(ACCELERATOR_CLASSES))
    fleet.add_argument("--design", default="maelstrom", choices=DESIGN_CHOICES)
    fleet.add_argument("--metric", default="edp",
                       choices=["edp", "latency", "energy"],
                       help="layer-assignment objective of each chip's "
                            "online scheduler")
    fleet.add_argument("--chips", type=_int_at_least(1), default=2,
                       help="number of identical chips in the fleet")
    fleet.add_argument("--policy", default="earliest-completion",
                       choices=sorted(ROUTER_POLICY_NAMES),
                       help="frame dispatch policy of the fleet router")
    fleet.add_argument("--frames", type=_int_at_least(1), default=4,
                       help="frames simulated per stream source")
    fleet.add_argument("--fps-scale", type=_float_at_least(0.0, exclusive=True),
                       default=1.0,
                       help="multiplier on the per-model Table II FPS targets")
    fleet.add_argument("--jitter-ms", type=_float_at_least(0.0), default=0.0,
                       help="uniform arrival jitter half-width in milliseconds")
    fleet.add_argument("--seed", type=int, default=0, help="arrival-jitter seed")
    fleet.add_argument("--jobs", type=_int_at_least(1), default=1,
                       help="worker processes simulating chips in parallel "
                            "(1 = in-process)")
    fleet.add_argument("--min-chips", action="store_true",
                       help="additionally bisect the smallest fleet size "
                            "serving with zero deadline misses")
    fleet.add_argument("--max-chips", type=_int_at_least(1), default=8,
                       help="upper bracket of the --min-chips bisection")
    fleet.add_argument("--online", action="store_true",
                       help="serve through the closed-loop event engine "
                            "(feedback dispatch on observed queues) instead "
                            "of the a-priori planner")
    fleet.add_argument("--traffic", default=None, choices=TRAFFIC_KINDS,
                       help="replace the periodic arrival trace with a "
                            "seeded stochastic process at the same mean "
                            "rates")
    fleet.add_argument("--fault", action="append", default=None,
                       type=_fault_clause, metavar="CLAUSE",
                       help="inject a fault (repeatable): 'die:CHIP@T' kills "
                            "a chip at T seconds, 'slow:CHIP@T0-T1xF' runs "
                            "it Fx slower during [T0, T1); needs --online")
    fleet.add_argument("--autoscale", default=None, metavar="INTERVAL_MS",
                       type=_float_at_least(0.0, exclusive=True),
                       help="resize the active fleet against observed "
                            "backlog every INTERVAL_MS milliseconds; needs "
                            "--online")
    _add_resilience_flags(fleet)
    fleet.add_argument("--report", default=None, metavar="PATH",
                       help="write the versioned JSON report here")

    run = sub.add_parser(
        "run", help="execute a declarative experiment file (JSON / YAML)")
    run.add_argument("experiment", metavar="FILE",
                     help="experiment spec file (.json / .yaml / .yml)")
    run.add_argument("--report", default=None, metavar="PATH",
                     help="write the versioned JSON report here")
    run.add_argument("--baseline", default=None, metavar="PATH",
                     help="compare the run's metrics against this stored "
                          "report; exit 1 on regression")
    run.add_argument("--tolerance", type=_float_at_least(0.0), default=0.0,
                     help="relative tolerance of the baseline comparison")
    _add_checkpoint_flags(run)

    diff = sub.add_parser(
        "report-diff", help="diff two report files metric by metric")
    diff.add_argument("current", metavar="CURRENT", help="report to check")
    diff.add_argument("baseline", metavar="BASELINE",
                      help="stored baseline report")
    diff.add_argument("--tolerance", type=_float_at_least(0.0), default=0.0,
                      help="relative tolerance before a change counts as a "
                           "regression")
    return parser


def _command_describe() -> int:
    print("Workloads (Table II):")
    for name in sorted(WORKLOAD_SUITES):
        workload = workload_by_name(name)
        print("  " + workload.describe().replace("\n", "\n  "))
    print("\nAccelerator classes (Table IV):")
    for chip in ACCELERATOR_CLASSES.values():
        print(f"  {chip.describe()}")
    print("\nDispatch policies (herald fleet --policy):")
    for name in sorted(ROUTER_POLICY_NAMES):
        print(f"  {name}")
    print("\nTraffic kinds (herald fleet --traffic):")
    for name in TRAFFIC_KINDS:
        print(f"  {name}")
    print("\nFault clauses (herald fleet --fault):")
    print("  die:CHIP@T          chip CHIP dies at T seconds")
    print("  slow:CHIP@T0-T1xF   chip CHIP runs Fx slower during [T0, T1)")
    print("\nExperiment kinds (herald run):")
    for kind in EXPERIMENT_KINDS:
        print(f"  {kind}")
    return 0


def _execute(mapping: Dict[str, object], report_path: Optional[str] = None,
             baseline_path: Optional[str] = None,
             tolerance: float = 0.0,
             checkpoint_path: Optional[str] = None,
             resume: bool = False) -> int:
    """Validate, run, and post-process one compiled experiment mapping."""
    try:
        spec = experiment_from_spec(mapping)
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        outcome = run_experiment(spec, checkpoint_path=checkpoint_path,
                                 resume=resume)
        if outcome.exit_code != 0 or outcome.report is None:
            return outcome.exit_code
        if report_path is not None:
            write_report(outcome.report, report_path)
    except (SpecError, CheckpointError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if baseline_path is not None:
        try:
            baseline = load_report(baseline_path)
        except SpecError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        comparison = compare_reports(outcome.report, baseline,
                                     tolerance=tolerance)
        print(comparison.describe())
        if not comparison.ok:
            return 1
    return 0


def _command_schedule(args: argparse.Namespace) -> int:
    return _execute({
        "kind": "schedule",
        "workload": args.workload,
        "chip": args.chip,
        "design": args.design,
        "metric": args.metric,
    }, report_path=args.report)


def _resilience_error(args: argparse.Namespace) -> Optional[str]:
    """Cross-argument validation of the shared failure-handling flags."""
    if args.resume and args.checkpoint is None:
        return "--resume requires --checkpoint (nothing to resume from)"
    return None


def _compile_resilience(args: argparse.Namespace,
                        exec_mapping: Dict[str, object]) -> None:
    """Fold the failure-handling flags into an experiment exec mapping."""
    if args.partial_ok:
        exec_mapping["partial_ok"] = True


def _command_dse(args: argparse.Namespace) -> int:
    error = _resilience_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    mapping: Dict[str, object] = {
        "kind": "dse",
        "workload": args.workload,
        "chip": args.chip,
        "search": {"pe_steps": args.pe_steps, "bw_steps": args.bw_steps},
        "exec": {"jobs": args.jobs},
    }
    _compile_resilience(args, mapping["exec"])
    return _execute(mapping, report_path=args.report,
                    checkpoint_path=args.checkpoint, resume=args.resume)


def _command_serve(args: argparse.Namespace) -> int:
    # Cross-argument validation up front: the bracket error must not cost the
    # user a full simulation first.
    if not args.skip_sustained and not args.sustained_lo < args.sustained_hi:
        print(f"error: --sustained-lo ({args.sustained_lo}) must be below "
              f"--sustained-hi ({args.sustained_hi})", file=sys.stderr)
        return 2
    mapping: Dict[str, object] = {
        "kind": "serve",
        "workload": args.workload,
        "chip": args.chip,
        "design": args.design,
        "metric": args.metric,
        "streaming": {"frames": args.frames, "fps_scale": args.fps_scale,
                      "jitter_ms": args.jitter_ms, "seed": args.seed},
        "sustained": {"enabled": not args.skip_sustained,
                      "lo": args.sustained_lo, "hi": args.sustained_hi,
                      "probes": args.sustained_probes,
                      "tolerance": args.sustained_tolerance},
        "optimize_sla": args.optimize_sla,
    }
    return _execute(mapping, report_path=args.report)


def _command_fleet(args: argparse.Namespace) -> int:
    # Cross-argument validation up front, before any simulation runs.
    if args.fault and not args.online:
        print("error: --fault requires --online (fault injection reacts to "
              "observed state)", file=sys.stderr)
        return 2
    if args.autoscale is not None and not args.online:
        print("error: --autoscale requires --online (the controller reacts "
              "to observed backlog)", file=sys.stderr)
        return 2
    if args.traffic and args.jitter_ms:
        print("error: --jitter-ms applies to the periodic trace only; "
              "--traffic arrivals are already stochastic", file=sys.stderr)
        return 2
    error = _resilience_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.online and (args.checkpoint or args.partial_ok):
        print("error: --checkpoint/--partial-ok apply to the a-priori task "
              "sweep; the --online event engine has no task bag to "
              "checkpoint", file=sys.stderr)
        return 2
    mapping: Dict[str, object] = {
        "kind": "closed-loop" if args.online else "fleet",
        "workload": args.workload,
        "chip": args.chip,
        "design": args.design,
        "metric": args.metric,
        "streaming": {"frames": args.frames, "fps_scale": args.fps_scale,
                      "jitter_ms": args.jitter_ms, "seed": args.seed},
        "fleet": {"chips": args.chips, "policy": args.policy},
        "min_chips": {"enabled": args.min_chips,
                      "max_chips": args.max_chips},
        "exec": {"jobs": args.jobs},
    }
    _compile_resilience(args, mapping["exec"])
    if args.traffic:
        mapping["traffic"] = args.traffic
    if args.fault:
        mapping["faults"] = list(args.fault)
    if args.autoscale is not None:
        mapping["autoscale"] = {"interval_ms": args.autoscale,
                                "max_chips": args.chips}
    return _execute(mapping, report_path=args.report,
                    checkpoint_path=args.checkpoint, resume=args.resume)


def _command_run(args: argparse.Namespace) -> int:
    error = _resilience_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        mapping = load_config(args.experiment)
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return _execute(mapping, report_path=args.report,
                    baseline_path=args.baseline, tolerance=args.tolerance,
                    checkpoint_path=args.checkpoint, resume=args.resume)


def _command_report_diff(args: argparse.Namespace) -> int:
    try:
        current = load_report(args.current)
        baseline = load_report(args.baseline)
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    comparison = compare_reports(current, baseline,
                                 tolerance=args.tolerance)
    print(comparison.describe())
    return 0 if comparison.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (returns a process exit code)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "report-diff" and [] in (args.current, args.baseline):
        # argparse (Python 3.9-3.13) binds [] to a positional after "-- X --".
        parser.error("report-diff: needs a CURRENT and a BASELINE report")
    if args.command == "describe":
        return _command_describe()
    if args.command == "schedule":
        return _command_schedule(args)
    if args.command == "dse":
        return _command_dse(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "fleet":
        return _command_fleet(args)
    if args.command == "run":
        return _command_run(args)
    if args.command == "report-diff":
        return _command_report_diff(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
