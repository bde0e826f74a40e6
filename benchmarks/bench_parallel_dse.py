"""Execution engine: the ``--jobs 2`` pool break-even curve of a DSE sweep.

Not a paper figure — this benchmark sets the constant
:data:`repro.exec.backends.POOL_PLACEMENTS_PER_WORKER`, below which
``herald dse --jobs N`` runs in-process.  For mlperf and arvr-a on the cloud
chip at ``--pe-steps`` 8/16/32 (``--bw-steps 4``), plus two intermediate
bags made with finer bandwidth steps, it times one first-round DSE sweep two
ways:

* ``serial``: :class:`~repro.exec.backends.SerialBackend`;
* ``pool``: :class:`~repro.exec.backends.ProcessPoolBackend` with 2 jobs.

Each arm runs in its own fresh Python process, in alternating pairs (serial
first in even pairs, pool first in odd ones), so neither arm inherits the
other's process-global mapping memo or a warmer host.  The
prewarm of the shared cost table is timed separately from the round that
runs the tasks (``run``); only ``run`` differs between the arms.  The
bag size is given in layer placements: tasks x the workload's layer
executions.  Every arm's per-design EDPs must be identical.

``--baseline-src DIR`` adds a third arm, the pool of another checkout's
``src`` (e.g. the parent commit), so a pool change can be compared against
the one it replaces.

Run directly (``PYTHONPATH=../src python bench_parallel_dse.py --pairs 5``)
or through pytest (``cd benchmarks && PYTHONPATH=../src python -m pytest
bench_parallel_dse.py -q``); both write ``results/parallel_dse.txt``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

CHIP = "cloud"
#: ``(workload, pe_steps, bw_steps)`` of each measured sweep.
CELLS = ([(workload, pe_steps, 4) for workload in ("mlperf", "arvr-a")
          for pe_steps in (8, 16, 32)]
         + [("arvr-a", 8, 6), ("mlperf", 16, 5)])
JOBS = 2


def _sweep(arm, workload_name, pe_steps, bw_steps):
    """Child body: prewarm and run one first-round sweep; return timings
    and the per-design EDPs."""
    from repro.accel.classes import ACCELERATOR_CLASSES
    from repro.core.dse import HeraldDSE
    from repro.core.partitioner import PartitionSearch
    from repro.exec import ProcessPoolBackend, SerialBackend
    from repro.workloads.suites import workload_by_name

    backend = (SerialBackend() if arm == "serial"
               else ProcessPoolBackend(jobs=JOBS))
    model = backend.cost_model
    dse = HeraldDSE(backend=backend, partition_search=PartitionSearch(
        pe_steps=pe_steps, bw_steps=bw_steps))
    workload = workload_by_name(workload_name)
    tasks = list(dse.enumerate_tasks(workload, ACCELERATOR_CLASSES[CHIP]))
    start = time.perf_counter()
    model.prewarm(workload.unique_shape_layers(),
                  [acc for task in tasks for acc in task.design.sub_accelerators])
    warmed = time.perf_counter()
    results = backend.run(tasks)
    done = time.perf_counter()
    return {"prewarm_s": warmed - start, "run_s": done - warmed,
            "placements": len(tasks) * workload.total_layers,
            "edps": [repr(result.edp) for result in results]}


def _spawn(arm, cell, src):
    """Run one arm on one cell in a fresh interpreter importing ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", arm]
        + [str(value) for value in cell],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(child.stdout.splitlines()[-1])


def _median(records, field):
    return statistics.median(record[field] for record in records)


def scaling_curve(pairs=3, baseline_src=None):
    """Rows of the break-even table; raises if any arm's outputs differ."""
    arms = [("serial", SRC), ("pool", SRC)]
    if baseline_src:
        arms.append(("pool", os.path.abspath(baseline_src)))
    header = (f"{'cell (pe/bw steps)':<20} {'placements':>10} {'prewarm s':>9} "
              f"{'serial run s':>12} {'pool run s':>10} {'speedup':>7}")
    if baseline_src:
        header += f" {'baseline pool s':>15}"
    rows = [f"jobs={JOBS}, chip={CHIP}, {pairs} alternating pairs of fresh "
            f"processes, medians", header]
    curve = []
    for cell in CELLS:
        runs = {index: [] for index in range(len(arms))}
        for pair in range(pairs):
            order = list(range(len(arms)))
            if pair % 2:
                order.reverse()
            for index in order:
                arm, src = arms[index]
                runs[index].append(_spawn(arm, cell, src))
        reference = runs[0][0]["edps"]
        for records in runs.values():
            for record in records:
                assert record["edps"] == reference, f"{cell}: outputs differ"
        serial_s = _median(runs[0], "run_s")
        pool_s = _median(runs[1], "run_s")
        row = (f"{'%s %d/%d' % cell:<20} "
               f"{runs[0][0]['placements']:>10} "
               f"{_median(runs[0], 'prewarm_s'):>9.3f} "
               f"{serial_s:>12.3f} {pool_s:>10.3f} "
               f"{serial_s / pool_s:>6.2f}x")
        if baseline_src:
            row += f" {_median(runs[2], 'run_s'):>15.3f}"
        curve.append((runs[0][0]["placements"], row))
    rows += [row for _, row in sorted(curve)]
    rows.append("outputs: per-design EDPs identical across every arm")
    return rows


def test_parallel_dse(benchmark):
    from common import emit, run_once

    emit("parallel_dse", run_once(benchmark, scaling_curve))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--baseline-src", default=None, metavar="DIR",
                        help="another checkout's src/ to time as a third arm")
    parser.add_argument("--child", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        arm, workload_name, pe_steps, bw_steps = args.child
        print(json.dumps(_sweep(arm, workload_name, int(pe_steps),
                                int(bw_steps))))
        return 0
    sys.path.insert(0, HERE)
    from common import emit

    emit("parallel_dse", scaling_curve(args.pairs, args.baseline_src))
    return 0


if __name__ == "__main__":
    sys.exit(main())
