"""Hardware descriptions consumed by the cost model.

Two levels are modelled, mirroring Fig. 3(c) of the paper:

* a :class:`SubAcceleratorConfig` — one fixed-dataflow PE array with its share
  of the global NoC bandwidth and of the global buffer; and
* a :class:`ChipConfig` — the chip-level envelope (total PEs, total NoC
  bandwidth, global buffer capacity, DRAM bandwidth, clock) that partitions are
  checked against.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional

from repro.exceptions import HardwareConfigError
from repro.units import DEFAULT_CLOCK_HZ, bytes_per_cycle
from repro.dataflow.styles import DataflowStyle


def _check_numbers(kind: str, name: str, num_pes: int,
                   values: Dict[str, Optional[float]]) -> None:
    """Reject PEs below one and any set value not positive and finite."""
    if not 1 <= num_pes < math.inf:
        raise HardwareConfigError(f"{kind} {name!r}: num_pes must be a "
                                  f"finite number >= 1 (got {num_pes!r})")
    for label, value in values.items():
        if value is not None and not 0 < value < math.inf:
            raise HardwareConfigError(
                f"{kind} {name!r}: {label} must be a positive finite number "
                f"(got {value!r})")


class _SubAcceleratorFields(NamedTuple):
    name: str
    dataflow: Optional[DataflowStyle]
    num_pes: int
    bandwidth_bytes_per_s: float
    buffer_bytes: int
    dram_bandwidth_bytes_per_s: Optional[float] = None
    clock_hz: float = DEFAULT_CLOCK_HZ


class SubAcceleratorConfig(_SubAcceleratorFields):
    """One sub-accelerator: a PE array running a single dataflow style.

    Attributes
    ----------
    name:
        Identifier used by schedules and reports (e.g. ``"acc0-nvdla"``).
    dataflow:
        The dataflow style this array runs, or ``None`` for a reconfigurable
        array that may pick a different style per layer (RDA modelling).
    num_pes:
        Number of processing elements.
    bandwidth_bytes_per_s:
        Share of the global NoC bandwidth dedicated to this sub-accelerator.
    buffer_bytes:
        Share of the global scratchpad available for this sub-accelerator's
        working set (used for tile-refetch estimation).
    dram_bandwidth_bytes_per_s:
        Bandwidth of the chip's DRAM interface seen by this sub-accelerator;
        unlike the NoC share it is not hard-partitioned, so it defaults to the
        chip-level value (or, if unset, to the NoC share).
    clock_hz:
        Operating frequency.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SubAcceleratorConfig":
        self = super().__new__(cls, *args, **kwargs)
        _check_numbers("sub-accelerator", self.name, self.num_pes, {
            "bandwidth": self.bandwidth_bytes_per_s,
            "buffer size": self.buffer_bytes,
            "DRAM bandwidth": self.dram_bandwidth_bytes_per_s,
            "clock": self.clock_hz,
        })
        return self

    def _replace(self, **changes) -> "SubAcceleratorConfig":
        return SubAcceleratorConfig(**{**self._asdict(), **changes})

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def is_reconfigurable(self) -> bool:
        """Whether the array may choose a different dataflow per layer."""
        return self.dataflow is None

    @property
    def bandwidth_bytes_per_cycle(self) -> float:
        """NoC bandwidth expressed in bytes per clock cycle."""
        return bytes_per_cycle(self.bandwidth_bytes_per_s, self.clock_hz)

    @property
    def dram_bandwidth_bytes_per_cycle(self) -> float:
        """Effective DRAM bandwidth in bytes per clock cycle."""
        dram = self.dram_bandwidth_bytes_per_s
        if dram is None:
            dram = self.bandwidth_bytes_per_s
        return bytes_per_cycle(dram, self.clock_hz)

    def describe(self) -> str:
        """One-line description used by reports."""
        dataflow_name = self.dataflow.name if self.dataflow else "reconfigurable"
        return (
            f"{self.name}: {self.num_pes} PEs, "
            f"{self.bandwidth_bytes_per_s / 1e9:.1f} GB/s, "
            f"{self.buffer_bytes / (1 << 20):.1f} MiB buffer, {dataflow_name}"
        )


class _ChipFields(NamedTuple):
    name: str
    num_pes: int
    noc_bandwidth_bytes_per_s: float
    global_buffer_bytes: int
    dram_bandwidth_bytes_per_s: Optional[float] = None
    clock_hz: float = DEFAULT_CLOCK_HZ


class ChipConfig(_ChipFields):
    """Chip-level resource envelope (Table IV accelerator classes).

    Attributes
    ----------
    name:
        Class name (``"edge"``, ``"mobile"``, ``"cloud"`` or a custom label).
    num_pes:
        Total PEs available to distribute across sub-accelerators.
    noc_bandwidth_bytes_per_s:
        Total global NoC bandwidth to distribute across sub-accelerators.
    global_buffer_bytes:
        Shared global scratchpad capacity.
    dram_bandwidth_bytes_per_s:
        Off-chip bandwidth; by default equal to the NoC bandwidth.
    clock_hz:
        Operating frequency.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ChipConfig":
        self = super().__new__(cls, *args, **kwargs)
        _check_numbers("chip", self.name, self.num_pes, {
            "NoC bandwidth": self.noc_bandwidth_bytes_per_s,
            "global buffer": self.global_buffer_bytes,
            "DRAM bandwidth": self.dram_bandwidth_bytes_per_s,
            "clock": self.clock_hz,
        })
        return self

    def _replace(self, **changes) -> "ChipConfig":
        return ChipConfig(**{**self._asdict(), **changes})

    @property
    def dram_bandwidth(self) -> float:
        """Effective DRAM bandwidth (defaults to the NoC bandwidth)."""
        if self.dram_bandwidth_bytes_per_s is None:
            return self.noc_bandwidth_bytes_per_s
        return self.dram_bandwidth_bytes_per_s

    def monolithic(self, dataflow: Optional[DataflowStyle], name: Optional[str] = None
                   ) -> SubAcceleratorConfig:
        """Build a single sub-accelerator that uses the entire chip.

        This is how FDAs and RDAs are expressed: one array with all PEs, all
        bandwidth, and the whole global buffer.
        """
        label = name or (f"{self.name}-{dataflow.name}" if dataflow else f"{self.name}-rda")
        return SubAcceleratorConfig(
            name=label,
            dataflow=dataflow,
            num_pes=self.num_pes,
            bandwidth_bytes_per_s=self.noc_bandwidth_bytes_per_s,
            buffer_bytes=self.global_buffer_bytes,
            dram_bandwidth_bytes_per_s=self.dram_bandwidth,
            clock_hz=self.clock_hz,
        )

    def describe(self) -> str:
        """One-line description used by reports."""
        return (
            f"{self.name}: {self.num_pes} PEs, "
            f"{self.noc_bandwidth_bytes_per_s / 1e9:.0f} GB/s NoC, "
            f"{self.global_buffer_bytes / (1 << 20):.0f} MiB global buffer"
        )
