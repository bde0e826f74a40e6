"""Quickstart: design a Maelstrom-style HDA for an AR/VR workload with Herald.

Run with ``python examples/quickstart.py``.  The script

1. builds the AR/VR-A multi-DNN workload (Table II),
2. evaluates the three fixed-dataflow accelerators and the reconfigurable
   accelerator on the edge accelerator class (Table IV),
3. lets Herald co-optimise the hardware partition and layer schedule of an
   NVDLA + Shi-diannao HDA (the paper's Maelstrom), and
4. prints the latency / energy / EDP comparison.
"""

from __future__ import annotations

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import (  # noqa: E402  (path bootstrap above)
    ALL_STYLES,
    HeraldDSE,
    PartitionSearch,
    SerialBackend,
    accelerator_class,
    evaluate_design,
    make_fda,
    make_rda,
    percent_improvement,
    workload_by_name,
)


def main() -> None:
    workload = workload_by_name("arvr-a")
    chip = accelerator_class("edge")
    print(workload.describe())
    print(chip.describe())
    print()

    # The backend owns the cost model and scheduler every evaluation shares.
    backend = SerialBackend()
    cost_model, scheduler = backend.cost_model, backend.scheduler

    # Fixed dataflow accelerators (one per dataflow style) and the RDA.
    results = {}
    for style in ALL_STYLES:
        design = make_fda(chip, style)
        results[f"FDA ({style.name})"] = evaluate_design(
            design, workload, cost_model=cost_model, scheduler=scheduler)
    results["RDA (MAERI-style)"] = evaluate_design(
        make_rda(chip), workload, cost_model=cost_model, scheduler=scheduler)

    # Maelstrom: Herald co-optimises the PE/bandwidth partition and the schedule.
    dse = HeraldDSE(backend=backend,
                    partition_search=PartitionSearch(pe_steps=8, bw_steps=4))
    maelstrom_point = dse.maelstrom(workload, chip)
    results["Maelstrom (HDA)"] = maelstrom_point.result

    print(f"{'design':24s} {'latency (ms)':>14s} {'energy (mJ)':>13s} {'EDP (J*s)':>12s}")
    for name, result in results.items():
        print(f"{name:24s} {result.latency_s * 1e3:14.2f} {result.energy_mj:13.1f} "
              f"{result.edp:12.4g}")

    best_fda = min((r for n, r in results.items() if n.startswith("FDA")),
                   key=lambda r: r.edp)
    maelstrom = results["Maelstrom (HDA)"]
    print()
    print(f"Maelstrom PE partition (NVDLA / Shi-diannao): {maelstrom_point.pe_partition}")
    print(f"Maelstrom BW partition (GB/s)               : "
          f"{tuple(round(b, 1) for b in maelstrom_point.bw_partition_gbps)}")
    print(f"Maelstrom vs best FDA: "
          f"EDP {percent_improvement(best_fda.edp, maelstrom.edp):+.1f} %, "
          f"latency {percent_improvement(best_fda.latency_s, maelstrom.latency_s):+.1f} %, "
          f"energy {percent_improvement(best_fda.energy_mj, maelstrom.energy_mj):+.1f} %")


if __name__ == "__main__":
    main()
