"""Reuse analysis: access counts at every level of the memory hierarchy.

The hierarchy modelled follows Fig. 3(c) of the paper: each sub-accelerator
has PE register files and a local buffer fed over its share of the global NoC
from the chip's global buffer, which in turn is filled from DRAM.

For a given mapping the analysis produces, per tensor:

* **register-file traffic** — operands and partial-sum updates per MAC;
* **local-buffer fills** — how often an operand must be (re)delivered from the
  sub-accelerator's local buffer to a PE.  This is where dataflow choice
  matters most: a dataflow that cannot reuse a tensor spatially or temporally
  pays one fill per MAC for it (e.g. NVDLA's input activations on depth-wise
  layers), while a well-matched dataflow pays a small fraction of that;
* **global-NoC tile traffic** — tensor tiles streamed between the global
  buffer and the sub-accelerator.  Each tensor crosses once when the working
  set fits in the sub-accelerator's buffer share; otherwise the streaming
  tensor of the dataflow (inputs for weight-stationary, weights for
  output-stationary) is re-fetched per tile group;
* **DRAM traffic** — each tensor once, plus refetch when the working set
  exceeds the sub-accelerator's buffer share.

Fewer accesses at the expensive levels mean lower energy (Sec. IV-B); the
global-NoC tile traffic also bounds latency through the partitioned bandwidth.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.units import BYTES_PER_ELEMENT
from repro.dataflow.mapping import Mapping
from repro.models.layer import Layer

#: Upper bound on tile-refetch factors; accelerators tile loops to bound refetch.
MAX_REFETCH = 64


class ReuseAnalysis(NamedTuple):
    """Access counts (in tensor elements) derived from a mapping's reuse.

    Attributes
    ----------
    rf_accesses:
        PE register-file accesses (operand fetches and partial-sum updates).
    local_filter_fills / local_input_fills / local_output_accesses:
        Deliveries from the sub-accelerator's local buffer to the PEs, after
        spatial (multicast / reduction) and temporal (stationarity) reuse.
    noc_tile_elements:
        Tensor elements streamed between the global buffer and the
        sub-accelerator over the partitioned global NoC.
    dram_accesses:
        Off-chip accesses between DRAM and the global buffer.
    """

    rf_accesses: int
    local_filter_fills: int
    local_input_fills: int
    local_output_accesses: int
    noc_tile_elements: int
    dram_accesses: int

    @property
    def local_fills(self) -> int:
        """Total local-buffer deliveries to the PE array."""
        return self.local_filter_fills + self.local_input_fills + self.local_output_accesses

    @property
    def noc_tile_bytes(self) -> int:
        """Bytes moved between the global buffer and the sub-accelerator."""
        return self.noc_tile_elements * BYTES_PER_ELEMENT

    @property
    def dram_bytes(self) -> int:
        """Bytes moved between DRAM and the global buffer."""
        return self.dram_accesses * BYTES_PER_ELEMENT


def _accumulation_depth(layer: Layer) -> int:
    """Number of partial-sum accumulation steps per output element."""
    channels = layer.c if layer.accumulates_across_channels else 1
    return channels * layer.r * layer.s


def _refetch_factor(layer: Layer, buffer_bytes: int) -> int:
    """How many times the off-chip working set must be re-fetched due to tiling."""
    working_set_bytes = layer.total_elements * BYTES_PER_ELEMENT
    if working_set_bytes <= buffer_bytes:
        return 1
    return min(MAX_REFETCH, -(-working_set_bytes // buffer_bytes))


def _fits(elements: int, buffer_bytes: int) -> bool:
    """Whether a tensor of ``elements`` fits in the sub-accelerator's buffer share."""
    return elements * BYTES_PER_ELEMENT <= buffer_bytes


def analyse_reuse(mapping: Mapping, buffer_bytes: int) -> ReuseAnalysis:
    """Compute access counts for ``mapping`` given a buffer share of ``buffer_bytes``."""
    layer = mapping.layer
    style = mapping.style
    macs = layer.macs

    filter_elems = layer.filter_elements
    input_elems = layer.input_elements
    output_elems = layer.output_elements
    refetch = _refetch_factor(layer, buffer_bytes)

    if style.stationary == "weight":
        # NVDLA style: weights fetched once and held in the PEs; inputs are
        # multicast across the output-channel unrolling; partial sums are
        # reduced spatially across the input-channel unrolling (adder tree) and
        # temporally across the filter window in the accumulators.
        k_unroll = max(1, mapping.factor("K"))
        c_unroll = max(1, mapping.factor("C"))
        filter_fills = max(filter_elems, macs // max(1, layer.out_y * layer.out_x))
        input_fills = max(input_elems, macs // k_unroll)
        reduction = c_unroll * layer.r * layer.s
        if not layer.accumulates_across_channels:
            reduction = layer.r * layer.s
        output_accesses = max(output_elems, (2 * macs) // max(1, reduction))
        # Weight-stationary arrays keep weights resident and stream activations:
        # if the input tile does not stay on chip, it is re-streamed once per
        # output-channel group that is not unrolled spatially.
        if _fits(input_elems, buffer_bytes):
            input_restream = 1
        else:
            k_dim = 1 if layer.layer_type.is_depthwise else layer.k
            input_restream = min(MAX_REFETCH, -(-k_dim // k_unroll))
        tile_elements = filter_elems + input_elems * input_restream + output_elems
    elif style.stationary == "output":
        # Shi-diannao style: partial sums never leave the PE until complete;
        # weights are broadcast to every active PE; inputs enjoy convolutional
        # window reuse between neighbouring PEs.
        spatial = max(1, mapping.factor("OY") * mapping.factor("OX"))
        conv_reuse = max(1, (layer.r * layer.s) // (layer.stride * layer.stride))
        filter_fills = max(filter_elems, macs // spatial)
        input_fills = max(input_elems, macs // conv_reuse)
        output_accesses = max(output_elems, (2 * macs) // _accumulation_depth(layer))
        # Output-stationary arrays process one output-channel group at a time:
        # inputs are re-streamed per group unless they stay on chip, and the
        # (small) filters are re-broadcast per output tile pass.
        if _fits(input_elems, buffer_bytes):
            input_restream = 1
        else:
            k_dim = 1 if layer.layer_type.is_depthwise else layer.k
            input_restream = min(MAX_REFETCH, k_dim)
        if _fits(filter_elems, buffer_bytes):
            filter_restream = 1
        else:
            filter_restream = min(MAX_REFETCH,
                                  -(-(layer.out_y * layer.out_x) // max(1, spatial)))
        tile_elements = (filter_elems * filter_restream + input_elems * input_restream
                         + output_elems)
    else:
        # Eyeriss row-stationary style: filter rows reused across output rows,
        # input rows reused across filter rows, partial sums reduced across the
        # filter-row unrolling and the filter-column sweep.
        y_unroll = max(1, mapping.factor("OY"))
        r_unroll = max(1, mapping.factor("R"))
        filter_fills = max(filter_elems, macs // (y_unroll * max(1, layer.out_x)))
        input_fills = max(input_elems,
                          macs // (r_unroll * max(1, layer.r // max(1, layer.stride))))
        output_accesses = max(output_elems, (2 * macs) // max(1, r_unroll * layer.s))
        # Row-stationary balances the streaming tensors: inputs are re-streamed
        # per output-channel fold and filters per output-row tile, both only
        # when the tensor cannot stay on chip.
        k_unroll = max(1, mapping.factor("K"))
        if _fits(input_elems, buffer_bytes):
            input_restream = 1
        else:
            k_dim = 1 if layer.layer_type.is_depthwise else layer.k
            input_restream = min(MAX_REFETCH, -(-k_dim // k_unroll))
        if _fits(filter_elems, buffer_bytes):
            filter_restream = 1
        else:
            filter_restream = min(MAX_REFETCH, -(-layer.out_y // y_unroll))
        tile_elements = (filter_elems * filter_restream + input_elems * input_restream
                         + output_elems)

    # Register-file traffic: two operand reads plus a partial-sum
    # read-modify-write per MAC, independent of the dataflow to first order.
    rf_accesses = 4 * macs

    dram = (filter_elems + input_elems + output_elems
            + input_elems * (refetch - 1))

    return ReuseAnalysis(
        rf_accesses=int(rf_accesses),
        local_filter_fills=int(filter_fills),
        local_input_fills=int(input_fills),
        local_output_accesses=int(output_accesses),
        noc_tile_elements=int(tile_elements),
        dram_accesses=int(dram),
    )
