"""MAESTRO-style analytical cost model for DNN accelerators.

The paper uses (and extends) the MAESTRO cost model to estimate per-layer
latency and energy from the data reuse a mapping exposes.  This package
re-implements that methodology in Python:

* :mod:`repro.maestro.hardware` — sub-accelerator and chip hardware descriptions.
* :mod:`repro.maestro.energy` — per-access energy table.
* :mod:`repro.maestro.reuse` — reuse analysis: buffer / NoC / DRAM access counts
  derived from the dataflow's reuse strategy and the mapping's unrolling.
* :mod:`repro.maestro.cost` — the cost model proper: roofline latency, energy
  breakdown, and the :class:`~repro.maestro.cost.CostModel` facade with caching.
"""

from repro.maestro.hardware import SubAcceleratorConfig, ChipConfig
from repro.maestro.energy import EnergyTable, DEFAULT_ENERGY_TABLE
from repro.maestro.reuse import ReuseAnalysis, analyse_reuse
from repro.maestro.cost import CostModel, LayerCost

__all__ = [
    "SubAcceleratorConfig",
    "ChipConfig",
    "EnergyTable",
    "DEFAULT_ENERGY_TABLE",
    "ReuseAnalysis",
    "analyse_reuse",
    "CostModel",
    "LayerCost",
]
