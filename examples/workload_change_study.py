"""Workload-change robustness study (the Fig. 13 scenario).

Run with ``python examples/workload_change_study.py``.  DNN models evolve after
an accelerator ships, so the script fixes each workload's Herald-optimised
Maelstrom design and re-schedules the *other* workloads on it, reporting the
latency/energy penalty of the mismatch and the comparison against the best FDA.
"""

from __future__ import annotations

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import (  # noqa: E402
    HeraldDSE,
    PartitionSearch,
    SerialBackend,
    accelerator_class,
    workload_by_name,
)
from repro.analysis.sweeps import workload_change_study  # noqa: E402


def main() -> None:
    chip = accelerator_class("edge")
    workloads = [workload_by_name(name) for name in ("arvr-a", "arvr-b", "mlperf")]

    dse = HeraldDSE(backend=SerialBackend(),
                    partition_search=PartitionSearch(pe_steps=8, bw_steps=4))

    study = workload_change_study(workloads, chip, dse=dse)

    print(f"Workload-change study on the {chip.name} accelerator class")
    print(f"{'optimised for':>14s} {'run on':>10s} {'latency (ms)':>14s} "
          f"{'energy (mJ)':>13s} {'latency penalty':>16s}")
    for optimised_for, runs in study.results.items():
        for run_on, result in runs.items():
            penalty = (study.penalty(optimised_for, run_on)
                       if optimised_for != run_on else 0.0)
            print(f"{optimised_for:>14s} {run_on:>10s} {result.latency_s * 1e3:14.2f} "
                  f"{result.energy_mj:13.1f} {penalty:15.1f}%")
    print()
    print(f"average latency penalty over mismatched pairs: "
          f"{study.average_penalty('latency_s'):+.2f} % (paper: ~4 %)")
    print(f"average energy penalty over mismatched pairs : "
          f"{study.average_penalty('energy_mj'):+.2f} % (paper: ~0.1 %)")


if __name__ == "__main__":
    main()
