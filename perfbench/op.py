"""One benchmark op: a single cold ``herald`` invocation in this process.

Usage (from the repository root)::

    python3 perfbench/op.py --out RESULT.json [--trace] -- <herald argv...>

The process starts as cold as a user's ``herald`` command: it imports
``repro.cli`` from ``src/`` (timed as ``import_s``), calls
``repro.cli.main(argv)`` (timed as ``run_s``) and writes one JSON document
to ``--out`` with the exit code, the run's CPU seconds (this process plus
every child it reaped, i.e. pool workers) and its peak resident set size.
It also times a fixed loop just before and just after the run
(``calibration_s``), so the driver can cancel swings of the host's CPU
speed.

With ``--trace`` the timing wrappers of :mod:`tracer` are installed after
the import and before ``main`` runs, and the per-layer record is added to
the document.  Run the traced process under ``python3 -X importtime`` to
get import times as well; the driver parses them from stderr.
"""

import os
import resource
import sys
import time


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes on this core right now."""
    start = time.perf_counter()
    table = {}
    total = 0
    for index in range(100_000):
        table[index & 1023] = total
        total += (index * 7) % 13
    return time.perf_counter() - start


def main() -> int:
    args = sys.argv[1:]
    if "--" not in args:
        print("usage: op.py --out PATH [--trace] -- HERALD_ARGV...",
              file=sys.stderr)
        return 2
    split = args.index("--")
    options, argv = args[:split], args[split + 1:]
    out_path = options[options.index("--out") + 1]
    traced = "--trace" in options

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    start = time.perf_counter()
    import repro.cli
    imported = time.perf_counter()

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    calibration_before = calibrate()
    usage_before = resource.getrusage(resource.RUSAGE_SELF)
    run_start = time.perf_counter()
    try:
        exit_code = repro.cli.main(argv)
    except SystemExit as stop:
        exit_code = stop.code if isinstance(stop.code, int) else int(
            stop.code is not None)
    except Exception:  # an op that raises is a failed op, not a crash
        import traceback

        traceback.print_exc()
        exit_code = 1
    run_end = time.perf_counter()
    sys.stdout.flush()
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    calibration_after = calibrate()

    import json

    record = {
        "exit_code": exit_code,
        "import_s": imported - start,
        "run_s": run_end - run_start,
        "cpu_s": (own.ru_utime - usage_before.ru_utime
                  + own.ru_stime - usage_before.ru_stime
                  + children.ru_utime + children.ru_stime),
        # ru_maxrss is in KiB on Linux; children = the largest reaped child.
        "peak_rss_mb": max(own.ru_maxrss, children.ru_maxrss) / 1024.0,
        "calibration_s": [calibration_before, calibration_after],
    }
    if tracer is not None:
        record["trace"] = tracer.collect()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
