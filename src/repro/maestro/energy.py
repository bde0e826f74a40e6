"""Per-access energy table used by the cost model.

The absolute values are technology-representative estimates for a ~28 nm
process operating on 16-bit operands; what matters for every experiment in the
paper is the *relative* cost ordering (register file < local buffer < global
NoC/SRAM < DRAM), which follows the widely used Eyeriss/MAESTRO energy
hierarchy.
"""

from __future__ import annotations

from typing import NamedTuple


class EnergyTable(NamedTuple):
    """Energy per event, in picojoules.

    Attributes
    ----------
    mac:
        One 16-bit multiply-accumulate operation.
    rf_access:
        One read or write of a PE-local register file entry.
    local_buffer_access:
        One delivery of an operand from the sub-accelerator's local buffer to
        a PE over the local interconnect.
    noc_hop:
        Moving one element across the global NoC between the global buffer and
        a sub-accelerator.
    sram_access:
        One global-buffer (scratchpad SRAM) read or write.
    dram_access:
        One off-chip DRAM read or write.
    rda_distribution_per_mac:
        Extra per-MAC energy of a reconfigurable distribution/reduction fabric
        (MAERI-style fat trees) relative to a fixed local interconnect.
    reconfiguration:
        Energy of reconfiguring an RDA for a new mapping, charged per layer.
    leakage_per_cycle_per_pe:
        Static energy per PE per idle cycle; lets the evaluator charge dark
        silicon when sub-accelerators idle.
    """

    mac: float = 0.56
    rf_access: float = 0.85
    local_buffer_access: float = 1.8
    noc_hop: float = 1.2
    sram_access: float = 3.6
    dram_access: float = 160.0
    rda_distribution_per_mac: float = 0.65
    reconfiguration: float = 4.0e5
    leakage_per_cycle_per_pe: float = 0.002

    def scaled(self, factor: float) -> "EnergyTable":
        """Return a copy with every dynamic energy scaled by ``factor``.

        Useful for modelling different technology nodes in sensitivity studies.
        """
        return self._replace(
            mac=self.mac * factor,
            rf_access=self.rf_access * factor,
            local_buffer_access=self.local_buffer_access * factor,
            noc_hop=self.noc_hop * factor,
            sram_access=self.sram_access * factor,
            dram_access=self.dram_access * factor,
            rda_distribution_per_mac=self.rda_distribution_per_mac * factor,
            reconfiguration=self.reconfiguration * factor,
            leakage_per_cycle_per_pe=self.leakage_per_cycle_per_pe * factor,
        )

    def with_interconnect_overhead(self, factor: float) -> "EnergyTable":
        """Return a copy with interconnect energy inflated by ``factor``.

        This models the extra switches and wires of a reconfigurable
        distribution network (MAERI-style RDAs): the paper attributes the
        RDA's ~11-22 % energy overhead to exactly these structures.
        """
        return self._replace(
            local_buffer_access=self.local_buffer_access * factor,
            noc_hop=self.noc_hop * factor,
        )


#: Default energy table shared by every accelerator model in the library.
DEFAULT_ENERGY_TABLE = EnergyTable()
