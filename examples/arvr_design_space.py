"""AR/VR design-space exploration: regenerate a Fig. 11-style scatter plot.

Run with ``python examples/arvr_design_space.py [workload] [class]``
(defaults: ``arvr-a`` on ``edge``).  The script explores every accelerator
category (FDA, SM-FDA, RDA, two- and three-way HDAs) with Herald and prints
the latency-energy design space, the Pareto front, and an ASCII scatter plot.
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
    pareto_front,
    workload_by_name,
)


def ascii_scatter(points, width: int = 72, height: int = 20) -> str:
    """Render design points as an ASCII latency/energy scatter plot."""
    lats = [p.latency_s for p in points]
    energies = [p.energy_mj for p in points]
    lat_min, lat_max = min(lats), max(lats)
    e_min, e_max = min(energies), max(energies)
    grid = [[" "] * width for _ in range(height)]
    markers = {"fda": "F", "sm-fda": "S", "rda": "R", "hda": "h"}
    front = set(id(p) for p in pareto_front(points))
    for point in points:
        x = int((point.latency_s - lat_min) / max(lat_max - lat_min, 1e-12) * (width - 1))
        y = int((point.energy_mj - e_min) / max(e_max - e_min, 1e-12) * (height - 1))
        marker = markers[point.category]
        if id(point) in front:
            marker = marker.upper() if marker != "h" else "H"
        grid[height - 1 - y][x] = marker
    lines = ["energy ^  (F/S/R/h = FDA, SM-FDA, RDA, HDA; capital = Pareto-optimal)"]
    lines.extend("".join(row) for row in grid)
    lines.append("-" * width + "> latency")
    return "\n".join(lines)


def main() -> None:
    workload_name = sys.argv[1] if len(sys.argv) > 1 else "arvr-a"
    class_name = sys.argv[2] if len(sys.argv) > 2 else "edge"
    workload = workload_by_name(workload_name)
    chip = accelerator_class(class_name)

    dse = HeraldDSE(backend=SerialBackend(),
                    partition_search=PartitionSearch(pe_steps=8, bw_steps=4))
    space = dse.explore(workload, chip)

    print(space.describe())
    print()
    print("Pareto front (latency-sorted):")
    for point in pareto_front(space.points):
        print("  " + point.describe())
    print()
    print(ascii_scatter(space.points))


if __name__ == "__main__":
    main()
