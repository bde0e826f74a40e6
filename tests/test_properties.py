"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.analysis.pareto import dominates, pareto_front
from repro.core.partitioner import compositions
from repro.dataflow.mapping import build_mapping
from repro.dataflow.styles import ALL_STYLES
from repro.maestro.cost import CostModel
from repro.maestro.hardware import SubAcceleratorConfig
from repro.maestro.reuse import analyse_reuse
from repro.models.layer import conv2d, dwconv, fc
from repro.units import mib


# ---------------------------------------------------------------------------
# Layer strategies
# ---------------------------------------------------------------------------

conv_layers = st.builds(
    lambda k, c, y, r, stride: conv2d("h", k=k, c=c, y=max(y, r + stride), x=max(y, r + stride),
                                      r=r, s=r, stride=stride),
    k=st.integers(min_value=1, max_value=512),
    c=st.integers(min_value=1, max_value=512),
    y=st.integers(min_value=4, max_value=128),
    r=st.sampled_from([1, 3, 5, 7]),
    stride=st.sampled_from([1, 2]),
)

dw_layers = st.builds(
    lambda c, y, r: dwconv("hd", c=c, y=max(y, r + 1), x=max(y, r + 1), r=r, s=r),
    c=st.integers(min_value=1, max_value=512),
    y=st.integers(min_value=4, max_value=96),
    r=st.sampled_from([3, 5]),
)

fc_layers = st.builds(
    lambda k, c: fc("hf", k=k, c=c),
    k=st.integers(min_value=1, max_value=4096),
    c=st.integers(min_value=1, max_value=4096),
)

any_layer = st.one_of(conv_layers, dw_layers, fc_layers)

styles = st.sampled_from(ALL_STYLES)
pe_counts = st.sampled_from([1, 16, 64, 256, 1024, 4096])


# ---------------------------------------------------------------------------
# Layer invariants
# ---------------------------------------------------------------------------

@given(layer=any_layer)
@settings(max_examples=80, deadline=None)
def test_layer_macs_and_tensors_positive(layer):
    assert layer.macs > 0
    assert layer.input_elements > 0
    assert layer.output_elements > 0
    assert layer.filter_elements > 0


@given(layer=conv_layers)
@settings(max_examples=80, deadline=None)
def test_conv_macs_formula(layer):
    expected = layer.k * layer.c * layer.out_y * layer.out_x * layer.r * layer.s
    assert layer.macs == expected


# ---------------------------------------------------------------------------
# Mapping invariants
# ---------------------------------------------------------------------------

@given(layer=any_layer, style=styles, pes=pe_counts)
@settings(max_examples=120, deadline=None)
def test_mapping_invariants(layer, style, pes):
    mapping = build_mapping(layer, style, pes)
    # Spatial unrolling never exceeds the PE budget.
    assert mapping.active_pes <= pes
    # All MACs are covered by the sequential steps.
    assert mapping.compute_steps * mapping.active_pes >= layer.macs
    # Utilisation is a proper fraction.
    assert 0.0 < mapping.utilisation <= 1.0 + 1e-9
    # Unrolling factors never exceed the structural caps.
    for dim, factor in mapping.spatial_factors.items():
        cap = style.unroll_cap(dim)
        if cap is not None:
            assert factor <= cap


@given(layer=any_layer, style=styles)
@settings(max_examples=60, deadline=None)
def test_more_pes_never_increase_steps(layer, style):
    small = build_mapping(layer, style, 64)
    large = build_mapping(layer, style, 1024)
    assert large.compute_steps <= small.compute_steps


# ---------------------------------------------------------------------------
# Reuse invariants
# ---------------------------------------------------------------------------

@given(layer=any_layer, style=styles, pes=pe_counts,
       buffer_mib=st.sampled_from([0.25, 1, 4, 64]))
@settings(max_examples=120, deadline=None)
def test_reuse_invariants(layer, style, pes, buffer_mib):
    mapping = build_mapping(layer, style, pes)
    reuse = analyse_reuse(mapping, mib(buffer_mib))
    # Register-file traffic is per-MAC.
    assert reuse.rf_accesses == 4 * layer.macs
    # Every tensor is moved at least once at every level.
    assert reuse.local_filter_fills >= layer.filter_elements
    assert reuse.local_input_fills >= layer.input_elements
    assert reuse.local_output_accesses >= layer.output_elements
    assert reuse.noc_tile_elements >= layer.total_elements
    assert reuse.dram_accesses >= layer.total_elements
    # Off-chip traffic never exceeds the NoC tile traffic by construction
    # of the refetch model (both are bounded by 8x/64x the tensor sizes).
    assert reuse.dram_bytes <= 64 * layer.total_elements * 2


@given(layer=any_layer, style=styles, pes=pe_counts)
@settings(max_examples=60, deadline=None)
def test_larger_buffer_never_increases_traffic(layer, style, pes):
    mapping = build_mapping(layer, style, pes)
    small = analyse_reuse(mapping, mib(0.5))
    large = analyse_reuse(mapping, mib(128))
    assert large.noc_tile_elements <= small.noc_tile_elements
    assert large.dram_accesses <= small.dram_accesses


# ---------------------------------------------------------------------------
# Cost-model invariants
# ---------------------------------------------------------------------------

#: Energy terms and array-only fields of a LayerCost: none may read a
#: bandwidth, so hardware keys differing only in NoC/DRAM bandwidth could
#: share them.
_BANDWIDTH_FREE_FIELDS = ("energy_compute_pj", "energy_rf_pj",
                          "energy_local_pj", "energy_noc_pj",
                          "energy_sram_pj", "energy_dram_pj",
                          "energy_overhead_pj", "compute_cycles",
                          "utilisation")

bandwidth_pairs = st.lists(st.floats(min_value=1e8, max_value=1e11),
                           min_size=2, max_size=2).map(sorted)


@given(layer=any_layer, style=styles, pes=pe_counts,
       buffer_mib=st.sampled_from([0.25, 1, 4, 64]),
       noc=bandwidth_pairs, dram=bandwidth_pairs)
@settings(max_examples=120, deadline=None)
def test_bandwidth_changes_only_latency(layer, style, pes, buffer_mib, noc,
                                        dram):
    costs = [CostModel().layer_cost(layer, SubAcceleratorConfig(
                 name="sub", dataflow=style, num_pes=pes,
                 bandwidth_bytes_per_s=noc_bw, buffer_bytes=mib(buffer_mib),
                 dram_bandwidth_bytes_per_s=dram_bw))
             for noc_bw, dram_bw in zip(noc, dram)]
    slow, fast = costs
    for field in _BANDWIDTH_FREE_FIELDS:
        assert getattr(slow, field).hex() == getattr(fast, field).hex(), field
    assert slow.energy_pj.hex() == fast.energy_pj.hex()
    assert fast.latency_cycles <= slow.latency_cycles


# ---------------------------------------------------------------------------
# Partition compositions
# ---------------------------------------------------------------------------

@given(units=st.integers(min_value=2, max_value=24),
       parts=st.integers(min_value=1, max_value=3),
       step=st.sampled_from([1, 2, 4]))
@settings(max_examples=60, deadline=None)
def test_compositions_cover_total_exactly(units, parts, step):
    total = units * step
    if units < parts:
        return
    for split in compositions(total, parts, step):
        assert sum(split) == total
        assert all(part >= step for part in split)
        assert all(part % step == 0 for part in split)


# ---------------------------------------------------------------------------
# Pareto-front invariants
# ---------------------------------------------------------------------------

point_lists = st.lists(
    st.tuples(st.floats(min_value=0.1, max_value=100.0),
              st.floats(min_value=0.1, max_value=100.0)),
    min_size=1, max_size=30,
)


@given(points=point_lists)
@settings(max_examples=100, deadline=None)
def test_pareto_front_members_are_mutually_non_dominating(points):
    front = pareto_front(points)
    assert front, "a non-empty point set always has a non-empty Pareto front"
    for a in front:
        for b in front:
            assert not dominates(a, b) or a == b


@given(points=point_lists)
@settings(max_examples=100, deadline=None)
def test_every_point_is_dominated_by_or_on_the_front(points):
    front = pareto_front(points)
    for point in points:
        assert point in front or any(dominates(member, point) for member in front)
