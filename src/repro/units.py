"""Unit helpers shared across the library.

The paper specifies hardware resources in engineering units (GB/s of NoC
bandwidth, MiB of global buffer) while the cost model works in elements,
bytes, and clock cycles.  Centralising the conversions here keeps the rest of
the code free of magic constants.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Data sizes
# --------------------------------------------------------------------------

#: Number of bytes used to store one tensor element (16-bit fixed point, the
#: precision assumed by MAESTRO and by the accelerators evaluated in the paper).
BYTES_PER_ELEMENT = 2

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB


def mib(value: float) -> int:
    """Convert mebibytes to bytes."""
    return int(value * MIB)


def gbps(value: float) -> float:
    """Convert GB/s to bytes per second."""
    return value * GB


# --------------------------------------------------------------------------
# Time
# --------------------------------------------------------------------------

#: Accelerator clock frequency assumed by the latency model (cycles -> seconds).
DEFAULT_CLOCK_HZ = 1.0e9


def cycles_to_seconds(cycles: float, clock_hz: float = DEFAULT_CLOCK_HZ) -> float:
    """Convert a cycle count to seconds at the given clock frequency."""
    return cycles / clock_hz


def seconds_to_cycles(seconds: float, clock_hz: float = DEFAULT_CLOCK_HZ) -> float:
    """Convert seconds to clock cycles at the given clock frequency."""
    return seconds * clock_hz


def bytes_per_cycle(bandwidth_bytes_per_s: float, clock_hz: float = DEFAULT_CLOCK_HZ) -> float:
    """Convert a byte/second bandwidth into bytes transferred per clock cycle."""
    return bandwidth_bytes_per_s / clock_hz


# --------------------------------------------------------------------------
# Energy
# --------------------------------------------------------------------------

PJ = 1.0e-12
NJ = 1.0e-9
UJ = 1.0e-6
MJ_PER_J = 1.0e3


def picojoules_to_millijoules(pj: float) -> float:
    """Convert picojoules to millijoules (the unit used in the paper's figures)."""
    return pj * 1.0e-9
