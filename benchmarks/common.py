"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper: it
computes the rows/series with the library, prints them, writes them to
``benchmarks/results/<name>.txt`` so they survive output capturing, and times
the underlying computation with pytest-benchmark (single round — these are
experiment harnesses, not micro-benchmarks).
"""

from __future__ import annotations

import os
from typing import Iterable

from repro.core.dse import HeraldDSE
from repro.core.partitioner import PartitionSearch
from repro.exec.backends import SerialBackend
from repro.maestro.cost import CostModel

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: One shared cost model across all benchmarks so the cache is reused.
SHARED_COST_MODEL = CostModel()


def make_dse(pe_steps: int = 8, bw_steps: int = 4) -> HeraldDSE:
    """A Herald DSE driver with the shared cost model and default scheduler."""
    return HeraldDSE(backend=SerialBackend(cost_model=SHARED_COST_MODEL),
                     partition_search=PartitionSearch(pe_steps=pe_steps,
                                                      bw_steps=bw_steps))


def emit(name: str, lines: Iterable[str]) -> str:
    """Print a result block and persist it under ``benchmarks/results``."""
    text = "\n".join(lines)
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
    return text


def run_once(benchmark, func):
    """Time ``func`` with a single round (experiment harness, not micro-bench)."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
