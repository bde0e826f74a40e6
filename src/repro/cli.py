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

The experiment schema is the one validator of herald input: a flag value
it (or the runner's run-site check) refuses -- ``--jobs 0``, ``--fault``
without ``--online``, ``--resume`` without ``--checkpoint`` -- exits 2 with
the one ``error:`` line, naming the dotted spec path, that the same value
in an experiment file gives.  The parser only converts types; it checks
nothing but ``--tolerance``, which has no spec key.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Dict, Optional, Sequence

from repro import __version__
from repro.accel.classes import ACCELERATOR_CLASSES
from repro.choices import ROUTER_POLICY_NAMES, TRAFFIC_KINDS
from repro.exceptions import CheckpointError, SpecError
from repro.experiment.report import (
    compare_reports,
    load_report,
    write_report,
)
from repro.experiment.runner import run_experiment
from repro.experiment.spec import (
    EXPERIMENT_KINDS,
    NAMED_DESIGNS,
    SCHEDULER_METRICS,
    experiment_from_spec,
)
from repro.experiment.yamlish import load_config
from repro.workloads import workload_by_name
from repro.workloads.suites import WORKLOAD_SUITES

def _tolerance(text: str) -> float:
    """Parser type of ``--tolerance``: a finite float ``>= 0``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number (got {value})")
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0.0 (got {value})")
    return value


def _add_target_flags(parser: argparse.ArgumentParser,
                      design: bool = True) -> None:
    """What runs where: the workload and chip (plus design and metric)."""
    parser.add_argument("--workload", default="arvr-a",
                        choices=sorted(WORKLOAD_SUITES))
    parser.add_argument("--chip", default="edge",
                        choices=sorted(ACCELERATOR_CLASSES))
    if design:
        parser.add_argument("--design", default="maelstrom",
                            choices=NAMED_DESIGNS)
        parser.add_argument("--metric", default="edp",
                            choices=SCHEDULER_METRICS,
                            help="layer-assignment objective of the "
                                 "scheduler")


def _add_report_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the versioned JSON report here")


def _add_streaming_flags(parser: argparse.ArgumentParser) -> None:
    """The periodic arrival trace of the serving commands (serve / fleet)."""
    parser.add_argument("--frames", type=int, default=4,
                        help="frames simulated per stream source")
    parser.add_argument("--fps-scale", type=float, default=1.0,
                        help="multiplier on the per-model Table II FPS "
                             "targets")
    parser.add_argument("--jitter-ms", type=float, default=0.0,
                        help="uniform arrival jitter half-width in "
                             "milliseconds")
    parser.add_argument("--seed", type=int, default=0,
                        help="arrival-jitter seed")


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Worker and failure-handling flags of the sweep commands (dse / fleet)."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="up to N worker processes (1 = in-process); a "
                             "DSE too small to pay for them runs in-process")
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
    _add_target_flags(schedule)
    _add_report_flag(schedule)

    dse = sub.add_parser("dse", help="run the co-design-space exploration")
    _add_target_flags(dse, design=False)
    dse.add_argument("--pe-steps", type=int, default=8,
                     help="granularity of the PE partition search")
    dse.add_argument("--bw-steps", type=int, default=4,
                     help="granularity of the bandwidth partition search")
    _add_resilience_flags(dse)
    _add_report_flag(dse)

    serve = sub.add_parser(
        "serve", help="simulate streaming frame arrivals on one design")
    _add_target_flags(serve)
    _add_streaming_flags(serve)
    serve.add_argument("--skip-sustained", action="store_true",
                       help="skip the sustained-FPS binary search")
    serve.add_argument("--sustained-lo", type=float, default=1.0 / 256.0,
                       help="lower bracket of the sustained-FPS rate search")
    serve.add_argument("--sustained-hi", type=float, default=8.0,
                       help="upper bracket of the sustained-FPS rate search")
    serve.add_argument("--sustained-probes", type=int, default=10,
                       help="bisection probe budget of the sustained-FPS search")
    serve.add_argument("--sustained-tolerance", type=float, default=0.0,
                       help="stop the sustained-FPS bisection once the rate "
                            "bracket is at most this wide (0 = exhaust probes)")
    serve.add_argument("--optimize-sla", action="store_true",
                       help="additionally search the maelstrom PE/BW partition "
                            "under the SLA objective (zero misses, min p99)")
    _add_report_flag(serve)

    fleet = sub.add_parser(
        "fleet", help="simulate streaming arrivals on a multi-chip fleet")
    _add_target_flags(fleet)
    fleet.add_argument("--chips", type=int, default=2,
                       help="number of identical chips in the fleet")
    fleet.add_argument("--policy", default="earliest-completion",
                       choices=sorted(ROUTER_POLICY_NAMES),
                       help="frame dispatch policy of the fleet router")
    _add_streaming_flags(fleet)
    fleet.add_argument("--min-chips", action="store_true",
                       help="additionally bisect the smallest fleet size "
                            "serving with zero deadline misses")
    fleet.add_argument("--max-chips", type=int, default=8,
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
                       metavar="CLAUSE",
                       help="inject a fault (repeatable): 'die:CHIP@T' kills "
                            "a chip at T seconds, 'slow:CHIP@T0-T1xF' runs "
                            "it Fx slower during [T0, T1); needs --online")
    fleet.add_argument("--autoscale", type=float, default=None,
                       metavar="INTERVAL_MS",
                       help="resize the active fleet against observed "
                            "backlog every INTERVAL_MS milliseconds; needs "
                            "--online")
    _add_resilience_flags(fleet)
    _add_report_flag(fleet)

    run = sub.add_parser(
        "run", help="execute a declarative experiment file (JSON / YAML)")
    run.add_argument("experiment", metavar="FILE",
                     help="experiment spec file (.json / .yaml / .yml)")
    _add_report_flag(run)
    run.add_argument("--baseline", default=None, metavar="PATH",
                     help="compare the run's metrics against this stored "
                          "report; exit 1 on regression")
    run.add_argument("--tolerance", type=_tolerance, default=0.0,
                     help="relative tolerance of the baseline comparison")
    _add_checkpoint_flags(run)

    diff = sub.add_parser(
        "report-diff", help="diff two report files metric by metric")
    diff.add_argument("current", metavar="CURRENT", help="report to check")
    diff.add_argument("baseline", metavar="BASELINE",
                      help="stored baseline report")
    diff.add_argument("--tolerance", type=_tolerance, default=0.0,
                      help="relative tolerance before a change counts as a "
                           "regression")
    return parser


def _command_describe(args: argparse.Namespace) -> int:
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


def _experiment(args: argparse.Namespace, kind: str,
                **sections: object) -> Dict[str, object]:
    """The mapping a flag-driven command compiles to: kind, workload, chip
    (plus design and metric), then the command's own ``sections``."""
    mapping: Dict[str, object] = {"kind": kind, "workload": args.workload,
                                  "chip": args.chip}
    if kind != "dse":
        mapping.update(design=args.design, metric=args.metric)
    mapping.update(sections)
    return mapping


def _streaming(args: argparse.Namespace) -> Dict[str, object]:
    return {"frames": args.frames, "fps_scale": args.fps_scale,
            "jitter_ms": args.jitter_ms, "seed": args.seed}


def _exec(args: argparse.Namespace) -> Dict[str, object]:
    settings: Dict[str, object] = {"jobs": args.jobs}
    if args.partial_ok:
        settings["partial_ok"] = True
    return settings


def _command_schedule(args: argparse.Namespace) -> int:
    return _execute(_experiment(args, "schedule"), report_path=args.report)


def _command_dse(args: argparse.Namespace) -> int:
    mapping = _experiment(
        args, "dse",
        search={"pe_steps": args.pe_steps, "bw_steps": args.bw_steps},
        exec=_exec(args))
    return _execute(mapping, report_path=args.report,
                    checkpoint_path=args.checkpoint, resume=args.resume)


def _command_serve(args: argparse.Namespace) -> int:
    mapping = _experiment(
        args, "serve",
        streaming=_streaming(args),
        sustained={"enabled": not args.skip_sustained,
                   "lo": args.sustained_lo, "hi": args.sustained_hi,
                   "probes": args.sustained_probes,
                   "tolerance": args.sustained_tolerance},
        optimize_sla=args.optimize_sla)
    return _execute(mapping, report_path=args.report)


def _command_fleet(args: argparse.Namespace) -> int:
    mapping = _experiment(
        args, "closed-loop" if args.online else "fleet",
        streaming=_streaming(args),
        fleet={"chips": args.chips, "policy": args.policy},
        min_chips={"enabled": args.min_chips, "max_chips": args.max_chips},
        exec=_exec(args))
    if args.traffic:
        mapping["traffic"] = args.traffic
    if args.fault:
        mapping["faults"] = args.fault
    if args.autoscale is not None:
        mapping["autoscale"] = {"interval_ms": args.autoscale,
                                "max_chips": args.chips}
    return _execute(mapping, report_path=args.report,
                    checkpoint_path=args.checkpoint, resume=args.resume)


def _command_run(args: argparse.Namespace) -> int:
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


_COMMANDS = {"describe": _command_describe, "schedule": _command_schedule,
             "dse": _command_dse, "serve": _command_serve,
             "fleet": _command_fleet, "run": _command_run,
             "report-diff": _command_report_diff}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (returns a process exit code)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "report-diff" and [] in (args.current, args.baseline):
        # argparse (Python 3.9-3.13) binds [] to a positional after "-- X --".
        parser.error("report-diff: needs a CURRENT and a BASELINE report")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
