"""Fresh-process benchmark of the ``herald`` command line.

Run from the repository root::

    python3 perfbench/run.py --workload fig11-sweep --seed 0 --seconds 25 --trace 0

Every op is one ``herald`` invocation in a new Python process
(``perfbench/op.py``), so it starts as cold as a user's command.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics of traced ops (see ``tracer.py``) plus
``trace_overhead``, the traced over the untraced run time.  The last line
of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment and a digest of
the simulated outputs.

Every op's simulated outputs are compared exactly against
``reference.json``, recorded at the commit that introduced the benchmark
(``--record-reference`` rewrites it).  ``--selftest`` runs the one-cell /
one-frame smoke variant of each workload, traced and untraced, and checks
that a perturbed reference is caught.

The benchmark sets no ``REPRO_*``, ``OMP_*`` or ``OPENBLAS_*`` variable and
uses only the CLI entry point, so it measures the program users run.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

#: Fig. 11 cells: every Table II suite on every Table IV chip class.
FIG11_WORKLOADS = ("arvr-a", "arvr-b", "mlperf")
FIG11_CHIPS = ("edge", "mobile", "cloud")
#: ``--jobs`` of fig11-jobs2: the core count of the 2-core reference box.
POOL_JOBS = 2
#: Seeds whose serving outputs ``--record-reference`` records.
RECORDED_SEEDS = range(16)
#: Per-op wall-clock limit; a hung op is killed and counted as failed.
OP_TIMEOUT_S = 90.0
#: Typical time of op.py's calibration loop on the 2-core Xeon box
#: (Python 3.11) the benchmark was sized on; see :func:`speed_scale`.
REFERENCE_CALIBRATION_S = 0.015

#: The explicit two-way HDA both serving workloads run on (even split,
#: no partition search).
HDA = {"kind": "hda", "styles": ["nvdla", "shidiannao"]}


def serve_spec(seed, frames=16):
    """arvr-b on cloud: 16 frames per stream, 1 ms jitter, sustained FPS."""
    return {"kind": "serve", "name": "serve-sustained", "workload": "arvr-b",
            "chip": "cloud", "design": HDA,
            "streaming": {"frames": frames, "jitter_ms": 1.0, "seed": seed}}


def fleet_spec(seed, frames=2000):
    """arvr-a on 4 chips near capacity: bursty traffic, a chip death, a
    slowdown, autoscaling and work stealing (on by default)."""
    return {"kind": "closed-loop", "name": "fleet-closed-loop",
            "workload": "arvr-a", "chip": "cloud", "design": HDA,
            "fleet": {"chips": 4, "policy": "least-outstanding"},
            "streaming": {"frames": frames, "fps_scale": 0.25, "seed": seed},
            "traffic": {"kind": "bursty"},
            "faults": ["die:0@120", "slow:1@40-80x2.0"],
            "autoscale": {"interval_ms": 500.0, "max_chips": 4}}


def dse_outputs(report):
    details = report["details"]
    return {"metrics": report["metrics"],
            "best_designs": details["best_designs"],
            "points": details["points"]}


def serving_outputs(report):
    return {"metrics": report["metrics"]}


#: ``cells(seed, scratch)`` returns the workload's ops as ``[(cell,
#: herald argv)]``; ``reference`` names the section of ``reference.json``
#: the cells are checked against (the two fig11 workloads share one);
#: ``outputs(report)`` picks the simulated outputs out of a report.
Workload = namedtuple("Workload", "name reference cells outputs")


def _dse_cells(extra):
    def cells(seed, scratch):
        keys = [(w, c) for w in FIG11_WORKLOADS for c in FIG11_CHIPS]
        return [(f"{w}/{c}", ["dse", "--workload", w, "--chip", c] + extra)
                for w, c in keys]
    return cells


def _spec_cell(build, **knobs):
    def cells(seed, scratch):
        path = scratch / f"spec-{seed}.json"
        path.write_text(json.dumps(build(seed, **knobs), indent=1))
        return [(f"seed={seed}", ["run", str(path)])]
    return cells


WORKLOADS = {
    "fig11-sweep": Workload("fig11-sweep", "fig11", _dse_cells([]),
                            dse_outputs),
    "fig11-jobs2": Workload("fig11-jobs2", "fig11",
                            _dse_cells(["--jobs", str(POOL_JOBS)]),
                            dse_outputs),
    "serve-sustained": Workload("serve-sustained", "serve-sustained",
                                _spec_cell(serve_spec), serving_outputs),
    "fleet-closed-loop": Workload("fleet-closed-loop", "fleet-closed-loop",
                                  _spec_cell(fleet_spec), serving_outputs),
}

SMOKE = {
    "smoke-dse": Workload(
        "smoke-dse", "smoke-dse",
        lambda seed, scratch: [("arvr-a/edge", [
            "dse", "--workload", "arvr-a", "--chip", "edge",
            "--pe-steps", "4", "--bw-steps", "1"])],
        dse_outputs),
    "smoke-serve": Workload("smoke-serve", "smoke-serve",
                            _spec_cell(serve_spec, frames=1),
                            serving_outputs),
    "smoke-fleet": Workload("smoke-fleet", "smoke-fleet",
                            _spec_cell(fleet_spec, frames=1),
                            serving_outputs),
}

#: Per-layer metrics: name -> (source, key).  ``self`` is a layer's self
#: time, ``calls`` its call count, ``count`` a work counter of tracer.py,
#: ``import`` a cumulative ``-X importtime`` entry.
LAYER_METRICS = {
    "import.repro.core_s": ("import", "repro.core"),
    "import.repro.maestro_s": ("import", "repro.maestro"),
    "import.repro.exec_s": ("import", "repro.exec"),
    "import.repro.serve_s": ("import", "repro.serve"),
    "import.repro.experiment_s": ("import", "repro.experiment"),
    "import.numpy_s": ("import", "numpy"),
    "maestro.prewarm_s": ("self", "maestro.prewarm"),
    "maestro.cold_evaluations": ("count", "maestro.cold_evaluations"),
    "maestro.cache_hits": ("count", "maestro.cache_hits"),
    "dataflow.mapping_misses": ("count", "dataflow.mapping_misses"),
    "scheduler.schedule_s": ("self", "scheduler.schedule"),
    "scheduler.calls": ("calls", "scheduler.schedule"),
    "scheduler.layers_placed": ("count", "scheduler.layers_placed"),
    "schedule.validate_s": ("self", "schedule.validate"),
    "schedule.validate_calls": ("calls", "schedule.validate"),
    "dse.explore_self_s": ("self", "dse.explore"),
    "dse.rank_s": ("self", "dse.rank"),
    "dse.rank_calls": ("calls", "dse.rank"),
    "dse.points": ("count", "dse.points"),
    "exec.backend_run_s": ("self", "exec.backend_run"),
    "exec.tasks": ("count", "exec.tasks"),
    "exec.retried_attempts": ("count", "exec.retried_attempts"),
    "exec.failed_tasks": ("count", "exec.failed_tasks"),
    "serve.simulate_self_s": ("self", "serve.simulate"),
    "serve.accounting_s": ("self", "serve.accounting"),
    "serve.probes": ("calls", "serve.simulate"),
    "traffic.generate_s": ("self", "traffic.generate"),
    "online.service_probe_s": ("self", "online.service_probe"),
    "online.engine_s": ("self", "online.engine"),
    "online.result_s": ("self", "online.result"),
    "online.frames": ("count", "online.frames"),
    "online.redispatched": ("count", "online.redispatched"),
    "online.stolen": ("count", "online.stolen"),
    "online.lost": ("count", "online.lost"),
    "experiment.spec_s": ("self", "experiment.spec"),
    "experiment.report_s": ("self", "experiment.report"),
}


# ---------------------------------------------------------------------------
# One op
# ---------------------------------------------------------------------------
def run_op(argv, scratch, traced):
    """Run one herald invocation in a fresh process; return its record.

    The record is op.py's JSON plus ``report`` (the parsed ``--report``
    file), ``imports`` (seconds per ``-X importtime`` entry, traced ops
    only) and ``problem`` (why the op failed, or None).
    """
    out = scratch / "op.json"
    report = scratch / "report.json"
    for path in (out, report):
        if path.exists():
            path.unlink()
    command = [sys.executable]
    if traced:
        command += ["-X", "importtime"]
    command += [str(HERE / "op.py"), "--out", str(out)]
    if traced:
        command.append("--trace")
    command += ["--"] + argv + ["--report", str(report)]
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        _, stderr = process.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"problem": f"timed out after {OP_TIMEOUT_S:.0f} s"}
    if process.returncode != 0 or not out.exists():
        return {"problem": f"op process exited {process.returncode}: "
                           f"{stderr.strip()[-400:]}"}
    record = json.loads(out.read_text())
    record["problem"] = None
    if record["exit_code"] != 0:
        record["problem"] = (f"herald exited {record['exit_code']}: "
                             f"{stderr.strip()[-400:]}")
        return record
    try:
        record["report"] = json.loads(report.read_text())
    except (OSError, ValueError) as error:
        record["problem"] = f"no readable --report file: {error}"
        return record
    if traced:
        record["imports"] = _import_times(stderr)
    return record


def _import_times(stderr):
    """Cumulative seconds per module from ``-X importtime`` lines."""
    times = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        times.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return times


def digest(outputs):
    text = json.dumps(outputs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Checker:
    """Compares each op's simulated outputs exactly.

    A cell with a recorded reference is checked against it; any other cell
    (a serving seed never recorded) is checked for agreement between all of
    its ops in the run, and its digest is printed so two commits can be
    compared on a held-out seed.
    """

    def __init__(self, workload, reference):
        self.workload = workload
        self.expected = dict(reference.get(workload.reference, {}))
        self.unrecorded = set()
        self.seen = {}

    def check(self, cell, record):
        if record["problem"] is not None:
            return record["problem"]
        try:
            outputs = self.workload.outputs(record["report"])
        except (KeyError, TypeError) as error:
            return f"{cell}: report lacks an output field ({error!r})"
        self.seen[cell] = outputs
        if cell not in self.expected:
            self.unrecorded.add(cell)
            self.expected[cell] = outputs
            return None
        if outputs != self.expected[cell]:
            return (f"{cell}: outputs differ from the reference "
                    f"(digest {digest(outputs)} != "
                    f"{digest(self.expected[cell])})")
        return None


# ---------------------------------------------------------------------------
# A run: ops until the time is up
# ---------------------------------------------------------------------------
class Run:
    def __init__(self, workload, seed, seconds, scratch, reference):
        self.workload = workload
        self.cells = workload.cells(seed, scratch)
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.scratch = scratch
        self.checker = Checker(workload, reference)
        self.attempted = 0
        self.problems = []

    def op(self, cell, argv, traced):
        self.attempted += 1
        record = run_op(argv, self.scratch, traced)
        problem = self.checker.check(cell, record)
        if problem is not None:
            self.problems.append(problem)
            print(f"op failed: {problem}", file=sys.stderr)
            return None
        return record

    def passes(self, traced_pattern, whole):
        """Yield passes ``(traced, {cell: record or None})`` until
        ``seconds`` are up; a pass runs the cells in a seeded order and
        ``traced_pattern`` is cycled to pick traced or untraced passes.

        The first ``len(traced_pattern)`` passes always run in full.  After
        them, a ``whole`` pass starts only if the previous pass of its kind
        would still fit before the deadline; otherwise no op starts after
        the deadline, and the last pass may be partial.
        """
        deadline = time.perf_counter() + self.seconds
        last_duration = {}
        index = 0
        while True:
            traced = traced_pattern[index % len(traced_pattern)]
            started = time.perf_counter()
            required = index < len(traced_pattern)
            if not required and (started >= deadline or (
                    whole and started + last_duration[traced] > deadline)):
                return
            order = list(self.cells)
            self.rng.shuffle(order)
            results = {}
            for cell, argv in order:
                if not required and time.perf_counter() >= deadline:
                    break
                results[cell] = self.op(cell, argv, traced)
            last_duration[traced] = time.perf_counter() - started
            yield traced, results
            index += 1


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(run):
    """End-to-end metrics from untraced passes (per-cell medians)."""
    per_cell = {cell: [] for cell, _ in run.cells}
    for _, results in run.passes([False], whole=False):
        for cell, record in results.items():
            if record is not None:
                per_cell[cell].append(record)
    if any(not records for records in per_cell.values()):
        return {}

    def cell_median(value):
        return [_median([value(r) for r in records])
                for records in per_cell.values()]

    def scaled(key):
        return lambda record: record[key] * speed_scale(record)

    records = [r for rs in per_cell.values() for r in rs]
    raw = {"setup_s": _median([r["import_s"] for r in records]),
           "run_s": sum(cell_median(lambda r: r["run_s"])),
           "cpu_s": sum(cell_median(lambda r: r["cpu_s"])),
           "calibration_s": _median([sum(r["calibration_s"]) / 2
                                     for r in records])}
    print(json.dumps({"raw_host_seconds": raw}))
    return {
        "setup_s": (_median([scaled("import_s")(r) for r in records]), "s"),
        "run_s": (sum(cell_median(scaled("run_s"))), "s"),
        "cpu_s": (sum(cell_median(scaled("cpu_s"))), "s"),
        "peak_rss_mb": (max(cell_median(lambda r: r["peak_rss_mb"])), "MB"),
    }


def speed_scale(record):
    """Factor that rescales an op's host seconds to the reference speed.

    The shared host's CPU speed swings by up to a third for seconds at a
    time, which moves every timing of a 25 s run together.  op.py times a
    fixed loop just before and just after the herald run in the same
    process; dividing by that time cancels the swing, and multiplying by
    :data:`REFERENCE_CALIBRATION_S` keeps the values in seconds.
    """
    return REFERENCE_CALIBRATION_S / (sum(record["calibration_s"]) / 2)


def trace(run):
    """Per-layer metrics from traced passes, alternating with untraced
    passes that give the denominator of ``trace_overhead``.  Times are
    speed-scaled like the end-to-end ones."""
    untraced_runs, traced_runs, layer_values = [], [], {}
    import_samples = {name: [] for name, (source, _) in LAYER_METRICS.items()
                      if source == "import"}
    missing = set()
    for traced, results in run.passes([False, True], whole=True):
        if any(record is None for record in results.values()):
            continue
        run_s = sum(record["run_s"] * speed_scale(record)
                    for record in results.values())
        if not traced:
            untraced_runs.append(run_s)
            continue
        traced_runs.append(run_s)
        totals = {name: 0.0 for name in LAYER_METRICS}
        for cell, record in results.items():
            spans = record["trace"]
            missing.update(spans["missing"])
            self_total = sum(spans["self_s"].values())
            if self_total > record["run_s"]:
                run.problems.append(
                    f"{cell}: layer self times ({self_total:.4f} s) exceed "
                    f"the traced run ({record['run_s']:.4f} s)")
            scale = speed_scale(record)
            for name, (source, key) in LAYER_METRICS.items():
                if source == "import":
                    import_samples[name].append(
                        record["imports"].get(key, 0.0) * scale)
                elif source == "self":
                    totals[name] += spans["self_s"].get(key, 0.0) * scale
                elif source == "calls":
                    totals[name] += spans["calls"].get(key, 0)
                else:
                    totals[name] += spans["counts"].get(key, 0)
        for name, value in totals.items():
            layer_values.setdefault(name, []).append(value)
    for name in sorted(missing):
        print(f"warning: {name} unavailable; the layer metrics it feeds "
              f"read 0", file=sys.stderr)
    if not traced_runs or not untraced_runs:
        return {}
    metrics = {}
    for name, (source, _) in LAYER_METRICS.items():
        if source == "import":
            value = _median(import_samples[name])
        else:
            value = _median(layer_values[name])
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (value, unit)
    metrics["trace_overhead"] = (_median(traced_runs) / _median(untraced_runs),
                                 "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Environment, reference, self-test
# ---------------------------------------------------------------------------
def environment():
    """Facts that change the numbers: interpreter, numpy, cores, CPU,
    commit and load at start."""
    try:
        from importlib.metadata import PackageNotFoundError, version
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "absent"
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "git_commit": _git_commit(), "loadavg_1m": os.getloadavg()[0]}


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def warm_up():
    """Compile the package's bytecode once, untimed, as any earlier
    command on the machine would have.  A failure here shows up again as
    failed ops."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, 'src'); import repro.cli"],
                   cwd=ROOT, stderr=subprocess.DEVNULL)


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def record_reference(scratch):
    """Run every cell once and store its outputs as the reference."""
    reference = {}
    jobs = [(WORKLOADS["fig11-sweep"], [0])]
    jobs += [(WORKLOADS[name], RECORDED_SEEDS)
             for name in ("serve-sustained", "fleet-closed-loop")]
    jobs += [(workload, [0]) for workload in SMOKE.values()]
    for workload, seeds in jobs:
        section = reference.setdefault(workload.reference, {})
        for seed in seeds:
            for cell, argv in workload.cells(seed, scratch):
                record = run_op(argv, scratch, traced=False)
                if record["problem"] is not None:
                    raise SystemExit(f"{workload.name} {cell}: "
                                     f"{record['problem']}")
                section[cell] = workload.outputs(record["report"])
                print(f"recorded {workload.name} {cell}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")
    return 0


def selftest(scratch):
    """Smoke variants traced and untraced, then a perturbed reference."""
    reference = load_reference()
    failures = []
    for workload in SMOKE.values():
        run = Run(workload, 0, 0, scratch, reference)
        metrics = measure(run)
        layers = trace(run)
        if run.problems or not metrics or not layers:
            failures.append(f"{workload.name}: {run.problems or 'no metrics'}")
        print(f"{workload.name}: {run.attempted} ops, "
              f"run_s {metrics.get('run_s', (0,))[0]:.3f}, "
              f"trace_overhead {layers.get('trace_overhead', (0,))[0]:.3f}",
              file=sys.stderr)
    perturbed = json.loads(json.dumps(reference))
    cell = perturbed["smoke-serve"]["seed=0"]
    cell["metrics"]["sustained_fps_factor"] *= 1.0 + 1e-12
    print("next: one op against a perturbed reference, which must fail",
          file=sys.stderr)
    run = Run(SMOKE["smoke-serve"], 0, 0, scratch, perturbed)
    measure(run)
    if not run.problems:
        failures.append("a perturbed reference was not caught")
    for failure in failures:
        print(f"selftest FAILED: {failure}", file=sys.stderr)
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="jitter seed of serve-sustained, traffic seed "
                             "of fleet-closed-loop, cell order of fig11")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no herald sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not (args.workload or args.selftest or args.record_reference):
        parser.error("give --workload, --selftest or --record-reference")

    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        env = environment()
        warm_up()
        if args.record_reference:
            return record_reference(scratch)
        if args.selftest:
            return selftest(scratch)
        workload = WORKLOADS[args.workload]
        run = Run(workload, args.seed, args.seconds, scratch,
                  load_reference())
        metrics = trace(run) if args.trace else measure(run)
        seen = run.checker.seen
        print(json.dumps({
            "environment": env, "workload": workload.name, "seed": args.seed,
            "output_digest": digest([seen[cell] for cell in sorted(seen)]),
            "unrecorded_cells": sorted(run.checker.unrecorded)}))
        failed = len(run.problems)
        print(json.dumps({
            "correct": failed == 0 and bool(metrics),
            "attempted": run.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        parent = scratch.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
