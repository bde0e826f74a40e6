"""Accelerator design description shared by FDA, SM-FDA, RDA and HDA models."""

from __future__ import annotations

import enum
from typing import NamedTuple, Tuple

from repro.exceptions import HardwareConfigError, PartitionError
from repro.maestro.hardware import ChipConfig, SubAcceleratorConfig


class AcceleratorKind(enum.Enum):
    """The accelerator taxonomy of Table III."""

    FDA = "fda"
    SM_FDA = "sm-fda"
    RDA = "rda"
    HDA = "hda"


class _AcceleratorDesignFields(NamedTuple):
    name: str
    kind: AcceleratorKind
    chip: ChipConfig
    sub_accelerators: Tuple[SubAcceleratorConfig, ...]


class AcceleratorDesign(_AcceleratorDesignFields):
    """A complete accelerator design: chip envelope plus sub-accelerators.

    For FDAs and RDAs there is exactly one sub-accelerator owning all chip
    resources; SM-FDAs and HDAs carry two or more.  The constructor enforces
    Definition 1 of the paper: the PE counts and bandwidth shares of the
    sub-accelerators must add up to the chip totals.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "AcceleratorDesign":
        self = super().__new__(cls, *args, **kwargs)
        if not self.sub_accelerators:
            raise HardwareConfigError(f"design {self.name!r} has no sub-accelerators")
        names = [sub.name for sub in self.sub_accelerators]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise HardwareConfigError(
                f"design {self.name!r}: sub-accelerator names must be distinct; "
                f"duplicated: {duplicates!r}")
        total_pes = sum(sub.num_pes for sub in self.sub_accelerators)
        if total_pes != self.chip.num_pes:
            raise PartitionError(
                f"design {self.name!r}: sub-accelerator PEs sum to {total_pes}, "
                f"chip provides {self.chip.num_pes}"
            )
        total_bw = sum(sub.bandwidth_bytes_per_s for sub in self.sub_accelerators)
        if not _close(total_bw, self.chip.noc_bandwidth_bytes_per_s):
            raise PartitionError(
                f"design {self.name!r}: sub-accelerator bandwidth sums to "
                f"{total_bw / 1e9:.2f} GB/s, chip provides "
                f"{self.chip.noc_bandwidth_bytes_per_s / 1e9:.2f} GB/s"
            )
        if self.kind in (AcceleratorKind.FDA, AcceleratorKind.RDA) \
                and len(self.sub_accelerators) != 1:
            raise HardwareConfigError(
                f"design {self.name!r}: {self.kind.value} must have exactly one sub-accelerator"
            )
        return self

    def _replace(self, **changes) -> "AcceleratorDesign":
        return AcceleratorDesign(**{**self._asdict(), **changes})

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def num_sub_accelerators(self) -> int:
        """Number of sub-accelerators in the design."""
        return len(self.sub_accelerators)

    @property
    def pe_partition(self) -> Tuple[int, ...]:
        """PE count per sub-accelerator."""
        return tuple(sub.num_pes for sub in self.sub_accelerators)

    def sub_accelerator(self, name: str) -> SubAcceleratorConfig:
        """Look up a sub-accelerator by name."""
        for sub in self.sub_accelerators:
            if sub.name == name:
                return sub
        raise HardwareConfigError(f"design {self.name!r}: no sub-accelerator named {name!r}")

    def describe(self) -> str:
        """Multi-line human-readable summary used by reports and the CLI."""
        lines = [f"{self.name} [{self.kind.value}] on {self.chip.describe()}"]
        for sub in self.sub_accelerators:
            lines.append(f"  - {sub.describe()}")
        return "\n".join(lines)


def _close(a: float, b: float, tolerance: float = 1e-6) -> bool:
    return abs(a - b) <= tolerance * max(abs(a), abs(b), 1.0)
