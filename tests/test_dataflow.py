"""Tests for loop nests, dataflow styles, and mapping construction."""

import pytest

from repro.dataflow.loopnest import DIMENSIONS, Loop
from repro.dataflow.mapping import _search_factors_cached, build_mapping
from repro.dataflow.styles import (ALL_STYLES, EYERISS, NVDLA, SHIDIANNAO,
                                   DataflowStyle, style_by_name)
from repro.exceptions import MappingError
from repro.models.layer import conv2d, dwconv, fc, pwconv


class TestLoopNest:
    def test_dimensions_constant(self):
        assert DIMENSIONS == ("K", "C", "Y", "X", "R", "S")

    def test_loop_rejects_unknown_dimension(self):
        with pytest.raises(ValueError):
            Loop("Z")

    def test_loop_rejects_negative_level(self):
        with pytest.raises(ValueError):
            Loop("K", level=-1)

    def test_spatial_dimensions_extraction(self):
        nest = NVDLA.loop_nest
        assert {loop.dimension for loop in nest.loops if loop.spatial} \
            == {"K", "C"}


class TestStyles:
    def test_three_styles_available(self):
        assert len(ALL_STYLES) == 3

    def test_style_lookup_by_name_and_alias(self):
        assert style_by_name("nvdla") is NVDLA
        assert style_by_name("shi-diannao") is SHIDIANNAO
        assert style_by_name("SHI") is SHIDIANNAO
        assert style_by_name("row-stationary") is EYERISS

    def test_unknown_style_raises(self):
        with pytest.raises(KeyError):
            style_by_name("tpu")

    def test_stationarity_assignments(self):
        assert NVDLA.stationary == "weight"
        assert SHIDIANNAO.stationary == "output"
        assert EYERISS.stationary == "row"

    def test_nvdla_channel_cap(self):
        assert NVDLA.unroll_cap("C") == 64
        assert NVDLA.unroll_cap("K") is None

    def test_styles_are_hashable(self):
        assert len({NVDLA, SHIDIANNAO, EYERISS}) == 3

    def test_depthwise_drops_k_dimension_for_channel_parallel_styles(self):
        layer = dwconv("d", c=128, y=16, x=16, r=3, s=3)
        dims = dict(NVDLA.spatial_dims_for_layer(layer))
        assert "K" not in dims and dims["C"] == 128

    @pytest.mark.parametrize("cap", [0, -5, 1.5, True])
    def test_max_unroll_cap_below_one_or_not_an_int_is_rejected(self, cap):
        # The mapper's ``unroll_cap(name) or num_pes`` would read a 0 cap as
        # "uncapped", so only ints >= 1 are caps.
        with pytest.raises(ValueError, match="max_unroll caps"):
            DataflowStyle(NVDLA.name, NVDLA.spatial_dims, NVDLA.stationary,
                          NVDLA.spatial_reduction, NVDLA.loop_nest,
                          {"C": cap})

    def test_describe_mentions_stationarity(self):
        assert "weight" in NVDLA.describe()


class TestMapping:
    def test_invalid_pe_count_raises(self):
        layer = fc("f", k=64, c=64)
        with pytest.raises(MappingError):
            build_mapping(layer, NVDLA, 0)

    def test_active_pes_never_exceed_budget(self):
        layer = conv2d("c", k=96, c=48, y=30, x=30, r=3, s=3)
        for pes in (8, 64, 500, 4096):
            mapping = build_mapping(layer, NVDLA, pes)
            assert mapping.active_pes <= pes

    def test_compute_steps_cover_all_macs(self):
        layer = conv2d("c", k=96, c=48, y=30, x=30, r=3, s=3)
        for style in ALL_STYLES:
            mapping = build_mapping(layer, style, 256)
            assert mapping.compute_steps * mapping.active_pes >= layer.macs

    def test_utilisation_bounded_by_one(self):
        layer = conv2d("c", k=96, c=48, y=30, x=30, r=3, s=3)
        for style in ALL_STYLES:
            mapping = build_mapping(layer, style, 256)
            assert 0.0 < mapping.utilisation <= 1.0

    def test_single_pe_has_full_utilisation(self):
        layer = conv2d("c", k=8, c=8, y=10, x=10, r=3, s=3)
        mapping = build_mapping(layer, SHIDIANNAO, 1)
        assert mapping.utilisation == pytest.approx(1.0)
        assert mapping.compute_steps == layer.macs

    def test_nvdla_underutilises_on_depthwise(self):
        # Fig. 5 layer 3: channel-parallel dataflows cannot fill the array on
        # depth-wise convolutions, activation-parallel dataflows can.
        layer = dwconv("d", c=32, y=34, x=34, r=3, s=3)
        nvdla = build_mapping(layer, NVDLA, 1024)
        shi = build_mapping(layer, SHIDIANNAO, 1024)
        assert nvdla.utilisation < 0.1
        assert shi.utilisation > 0.5

    def test_shidiannao_underutilises_on_fc(self):
        layer = fc("f", k=2048, c=1024)
        nvdla = build_mapping(layer, NVDLA, 1024)
        shi = build_mapping(layer, SHIDIANNAO, 1024)
        assert shi.utilisation < 0.01
        assert nvdla.utilisation > 0.5

    def test_nvdla_prefers_channel_heavy_layer(self):
        layer = pwconv("p", k=1024, c=512, y=7, x=7)
        nvdla = build_mapping(layer, NVDLA, 4096)
        shi = build_mapping(layer, SHIDIANNAO, 4096)
        assert nvdla.compute_steps < shi.compute_steps

    def test_shidiannao_prefers_activation_heavy_layer(self):
        layer = conv2d("c", k=16, c=16, y=130, x=130, r=3, s=3)
        nvdla = build_mapping(layer, NVDLA, 4096)
        shi = build_mapping(layer, SHIDIANNAO, 4096)
        assert shi.compute_steps < nvdla.compute_steps

    def test_nvdla_channel_cap_limits_unrolling(self):
        layer = pwconv("p", k=64, c=512, y=14, x=14)
        mapping = build_mapping(layer, NVDLA, 16384)
        assert mapping.factor("C") <= 64

    def test_factor_defaults_to_one_for_unknown_dim(self):
        layer = fc("f", k=64, c=64)
        mapping = build_mapping(layer, NVDLA, 64)
        assert mapping.factor("R") == 1

    def test_mapping_describe(self):
        layer = fc("f", k=64, c=64)
        text = build_mapping(layer, NVDLA, 64).describe()
        assert "nvdla" in text

    def test_mapping_results_are_cached(self):
        """``build_mapping`` is pure and keeps no memo of its own (the cost
        model's activity record is the one memo of a mapping); its factor
        search is ``lru_cache``d, so a repeated mapping skips the search."""
        layer = conv2d("c", k=32, c=32, y=18, x=18, r=3, s=3)
        first = build_mapping(layer, NVDLA, 128)
        hits = _search_factors_cached.cache_info().hits
        second = build_mapping(layer, NVDLA, 128)
        assert _search_factors_cached.cache_info().hits == hits + 1
        assert second == first and second is not first

    def test_more_pes_never_slower(self):
        layer = conv2d("c", k=128, c=64, y=30, x=30, r=3, s=3)
        for style in ALL_STYLES:
            small = build_mapping(layer, style, 128)
            large = build_mapping(layer, style, 2048)
            assert large.compute_steps <= small.compute_steps
