"""Tests for the ``LayerCost`` record and the activity records behind it.

``LayerCost`` is an immutable tuple record whose four roll-ups are fields
computed once when it is built, and a cost model shares one activity record
per (shape, dataflow, min(PEs, saturation), buffer, reconfigurable) across
every bandwidth split and every array past the saturation.  Both are pinned
here: every field equals a reference mapped on the real array bit for bit,
and the record keeps a frozen value's semantics.  That a pool hands back
the parent's own records is pinned by
``tests/test_hot_paths.py::TestSharedPoolTable``.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.mapping import build_mapping, saturating_pes
from repro.dataflow.styles import ALL_STYLES, NVDLA
from repro.maestro.cost import (LAYER_OVERHEAD_CYCLES,
                                RDA_INTERCONNECT_OVERHEAD,
                                RDA_RECONFIGURATION_CYCLES, CostModel,
                                LayerCost)
from repro.maestro.energy import DEFAULT_ENERGY_TABLE
from repro.maestro.hardware import SubAcceleratorConfig
from repro.maestro.reuse import analyse_reuse
from repro.models.layer import conv2d, dwconv, fc
from repro.units import cycles_to_seconds, gbps, mib
from support import best_style, cost_with_style

_layers = st.one_of(
    st.builds(lambda k, c, y, r, stride: conv2d(
                  "h", k=k, c=c, y=max(y, r + stride), x=max(y, r + stride),
                  r=r, s=r, stride=stride),
              k=st.integers(1, 512), c=st.integers(1, 512),
              y=st.integers(4, 96), r=st.sampled_from([1, 3, 5]),
              stride=st.sampled_from([1, 2])),
    st.builds(lambda c, y, r: dwconv("hd", c=c, y=max(y, r + 1),
                                     x=max(y, r + 1), r=r, s=r),
              c=st.integers(1, 512), y=st.integers(4, 96),
              r=st.sampled_from([3, 5])),
    st.builds(lambda k, c: fc("hf", k=k, c=c),
              k=st.integers(1, 4096), c=st.integers(1, 4096)),
)
_bandwidths = st.floats(min_value=0.25, max_value=512.0,
                        allow_nan=False, allow_infinity=False)


def _sub(style, pes, noc_gbps, dram_gbps, buffer_bytes, reconfigurable):
    return SubAcceleratorConfig(
        name="sub", dataflow=None if reconfigurable else style, num_pes=pes,
        bandwidth_bytes_per_s=gbps(noc_gbps),
        dram_bandwidth_bytes_per_s=(None if dram_gbps is None
                                    else gbps(dram_gbps)),
        buffer_bytes=buffer_bytes)


def _cost(style=NVDLA, pes=256, noc_gbps=16.0):
    return CostModel().layer_cost(
        conv2d("c", k=32, c=16, y=18, x=18, r=3, s=3),
        _sub(style, pes, noc_gbps, None, mib(1), False))


@given(layer=_layers, style=st.sampled_from(ALL_STYLES),
       pes=st.sampled_from([1, 16, 64, 256, 1024, 4096]),
       noc_gbps=_bandwidths, dram_gbps=st.one_of(st.none(), _bandwidths),
       other_gbps=_bandwidths,
       buffer_bytes=st.sampled_from([4096, 65536, mib(1), mib(8)]),
       reconfigurable=st.booleans())
@settings(max_examples=120, deadline=None)
def test_roll_ups_equal_the_explicit_expressions(
        layer, style, pes, noc_gbps, dram_gbps, other_gbps, buffer_bytes,
        reconfigurable):
    """The divisions and roll-ups of a split that reuses another split's
    activity record equal the explicit expressions, compared as float hex."""
    sub = _sub(style, pes, noc_gbps, dram_gbps, buffer_bytes, reconfigurable)
    model = CostModel()
    cost_with_style(model, layer, style, _sub(
        style, pes, other_gbps, dram_gbps, buffer_bytes, reconfigurable))
    cost = cost_with_style(model, layer, style, sub)
    assert len(model._activities) == 1

    reuse = analyse_reuse(build_mapping(layer, style, pes), buffer_bytes)
    assert cost.noc_cycles.hex() == (
        reuse.noc_tile_bytes / sub.bandwidth_bytes_per_cycle).hex()
    assert cost.dram_cycles.hex() == (
        reuse.dram_bytes / sub.dram_bandwidth_bytes_per_cycle).hex()
    latency_cycles = (max(cost.compute_cycles, cost.noc_cycles,
                          cost.dram_cycles) + cost.overhead_cycles)
    energy_pj = (cost.energy_compute_pj + cost.energy_rf_pj
                 + cost.energy_local_pj + cost.energy_noc_pj
                 + cost.energy_sram_pj + cost.energy_dram_pj
                 + cost.energy_overhead_pj)
    latency_s = cycles_to_seconds(latency_cycles, sub.clock_hz)
    assert cost.latency_cycles.hex() == latency_cycles.hex()
    assert cost.energy_pj.hex() == energy_pj.hex()
    assert cost.latency_s.hex() == latency_s.hex()
    assert cost.edp.hex() == ((energy_pj * 1e-12) * latency_s).hex()
    fresh = cost_with_style(CostModel(), layer, style, sub)
    assert [value.hex() for value in cost[3:]] \
        == [value.hex() for value in fresh[3:]]


def _reference(layer, style, sub, reconfigurable):
    """The cost of ``layer`` mapped straight onto ``sub``'s real PE count,
    spelled out term by term."""
    mapping = build_mapping(layer, style, sub.num_pes)
    reuse = analyse_reuse(mapping, sub.buffer_bytes)
    table = DEFAULT_ENERGY_TABLE
    overhead_cycles = float(LAYER_OVERHEAD_CYCLES)
    energy_overhead = 0.0
    if reconfigurable:
        table = table.with_interconnect_overhead(RDA_INTERCONNECT_OVERHEAD)
        overhead_cycles += RDA_RECONFIGURATION_CYCLES
        energy_overhead = (DEFAULT_ENERGY_TABLE.reconfiguration
                           + layer.macs
                           * DEFAULT_ENERGY_TABLE.rda_distribution_per_mac)
    return LayerCost(
        layer, style.name, sub.num_pes, float(mapping.compute_steps),
        reuse.noc_tile_bytes / sub.bandwidth_bytes_per_cycle,
        reuse.dram_bytes / sub.dram_bandwidth_bytes_per_cycle,
        overhead_cycles, layer.macs * table.mac,
        reuse.rf_accesses * table.rf_access,
        reuse.local_fills * table.local_buffer_access,
        reuse.noc_tile_elements * table.noc_hop,
        reuse.noc_tile_elements * table.sram_access,
        reuse.dram_accesses * table.dram_access,
        energy_overhead, mapping.utilisation, sub.clock_hz)


def _same(cost, reference):
    assert cost[:3] == reference[:3]
    assert [value.hex() for value in cost[3:]] \
        == [value.hex() for value in reference[3:]]


@given(layer=_layers, style=st.sampled_from(ALL_STYLES),
       sides=st.lists(st.sampled_from(["half", "below", "at", "above",
                                       "double", "chip"]),
                      min_size=2, max_size=4),
       noc_gbps=st.sampled_from([0.25, 64.0]),
       buffer_bytes=st.sampled_from([4096, mib(8)]),
       reconfigurable=st.booleans())
@settings(max_examples=150, deadline=None)
def test_costs_equal_a_reference_mapped_on_the_real_array(
        layer, style, sides, noc_gbps, buffer_bytes, reconfigurable):
    """One model costs a shape on PE counts on both sides of its
    saturation, so the arrays past it share one activity record; every
    field still equals the reference built at the real PE count.  An RDA
    keeps the first style with the minimal EDP, in ``rda_styles`` order."""
    saturation = saturating_pes(layer, style)
    pes_of = {"half": max(1, saturation // 2),
              "below": max(1, saturation - 1), "at": saturation,
              "above": saturation + 1, "double": 2 * saturation,
              "chip": 4096}
    model = CostModel()
    for side in sides:
        sub = _sub(style, pes_of[side], noc_gbps, None, buffer_bytes,
                   reconfigurable)
        if reconfigurable:
            references = [_reference(layer, candidate, sub, True)
                          for candidate in ALL_STYLES]
            best = references[0]
            for reference in references[1:]:
                if reference.edp < best.edp:
                    best = reference
            _same(model.layer_cost(layer, sub), best)
            _same(cost_with_style(model, layer, style, sub),
                  references[ALL_STYLES.index(style)])
        else:
            _same(model.layer_cost(layer, sub),
                  _reference(layer, style, sub, False))
            chosen, cost = best_style(model, layer, sub)
            _same(cost, _reference(layer, chosen, sub, False))


@given(layer=_layers, style=st.sampled_from(ALL_STYLES),
       extra=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_mapping_stops_changing_at_the_saturation(layer, style, extra):
    """Past the saturation the factor search sees the same candidates, so
    the factors, steps and active PEs equal those at the saturation."""
    saturation = saturating_pes(layer, style)
    at = build_mapping(layer, style, saturation)
    past = build_mapping(layer, style, saturation + extra)
    assert past.num_pes == saturation + extra
    assert (past.spatial_factors, past.compute_steps, past.active_pes) \
        == (at.spatial_factors, at.compute_steps, at.active_pes)


class TestRecordSemantics:
    def test_attribute_assignment_raises(self):
        cost = _cost()
        with pytest.raises(AttributeError):
            cost.noc_cycles = 0.0
        with pytest.raises(AttributeError):
            cost.edp = 0.0
        with pytest.raises(AttributeError):
            cost.note = "extra"

    @pytest.mark.parametrize("protocol",
                             range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trips(self, protocol):
        cost = _cost()
        clone = pickle.loads(pickle.dumps(cost, protocol))
        assert type(clone) is LayerCost
        assert clone == cost and hash(clone) == hash(cost)
        assert [value.hex() for value in clone[3:]] \
            == [value.hex() for value in cost[3:]]
        assert copy.deepcopy(cost) == cost

    def test_built_from_its_sixteen_keyword_fields(self):
        cost = _cost()
        fields = dict(zip(LayerCost._fields[:16], cost[:16]))
        assert LayerCost(**fields) == cost
        with pytest.raises(TypeError):
            LayerCost(**fields, latency_cycles=cost.latency_cycles)

    def test_equal_only_to_an_equal_layer_cost(self):
        cost = _cost()
        assert cost != tuple(cost) and tuple(cost) != cost
        assert not cost == tuple(cost)
        assert cost != _cost(noc_gbps=32.0)
        assert cost == _cost()

    def test_not_orderable(self):
        cost = _cost()
        with pytest.raises(TypeError):
            cost < cost  # noqa: B015
        with pytest.raises(TypeError):
            tuple(cost) <= cost  # noqa: B015
        with pytest.raises(TypeError):
            sorted([cost, _cost(noc_gbps=32.0)])

    def test_accessors_unchanged(self):
        cost = _cost(noc_gbps=0.25)
        assert cost.bound_by == "noc"
        assert cost.energy_mj == cost.energy_pj * 1e-9
        assert cost.describe().startswith("c on nvdla (256 PEs): ")


class TestActivitySharing:
    def test_pickled_model_drops_its_activity_records(self):
        model = CostModel()
        layer = conv2d("c", k=32, c=16, y=18, x=18, r=3, s=3)
        model.layer_cost(layer, _sub(NVDLA, 256, 16.0, None, mib(1), False))
        assert len(model._activities) == 1
        clone = pickle.loads(pickle.dumps(model))
        assert clone._activities == {}
        assert clone.cache_stats()["entries"] == 1
