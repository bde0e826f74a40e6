"""Tests for the layer substrate (dimensions, derived geometry, validation)."""

import pytest

from repro.exceptions import LayerDefinitionError
from repro.models.layer import (
    Layer,
    LayerType,
    conv2d,
    dwconv,
    fc,
    gemm,
    layer_heterogeneity,
    pwconv,
    upconv,
)


class TestLayerConstruction:
    def test_conv2d_builder(self):
        layer = conv2d("c", k=64, c=3, y=224, x=224, r=7, s=7, stride=2)
        assert layer.layer_type is LayerType.CONV2D
        assert layer.k == 64 and layer.c == 3

    def test_pwconv_builder_is_1x1(self):
        layer = pwconv("p", k=128, c=64, y=28, x=28)
        assert layer.r == 1 and layer.s == 1

    def test_dwconv_builder_matches_channels(self):
        layer = dwconv("d", c=96, y=30, x=30, r=3, s=3)
        assert layer.k == layer.c == 96

    def test_fc_builder_has_unit_spatial_dims(self):
        layer = fc("f", k=1000, c=2048)
        assert layer.y == layer.x == layer.r == layer.s == 1

    def test_gemm_builder_folds_n_into_x(self):
        layer = gemm("g", k=1024, c=512, n=32)
        assert layer.x == 32

    def test_upconv_builder(self):
        layer = upconv("u", k=64, c=128, y=32, x=32, r=2, s=2, upscale=2)
        assert layer.layer_type is LayerType.UPCONV

    def test_layers_are_hashable(self):
        a = conv2d("a", k=8, c=8, y=8, x=8, r=3, s=3)
        b = conv2d("a", k=8, c=8, y=8, x=8, r=3, s=3)
        assert hash(a) == hash(b)
        assert a == b

    def test_renamed_preserves_dimensions(self):
        layer = conv2d("a", k=8, c=8, y=8, x=8, r=3, s=3)
        renamed = layer.renamed("b", model_name="m")
        assert renamed.name == "b"
        assert renamed.model_name == "m"
        assert renamed.k == layer.k


class TestLayerValidation:
    def test_rejects_zero_dimension(self):
        with pytest.raises(LayerDefinitionError):
            Layer("bad", LayerType.CONV2D, k=0, c=3, y=8, x=8, r=3, s=3)

    def test_rejects_negative_dimension(self):
        with pytest.raises(LayerDefinitionError):
            Layer("bad", LayerType.CONV2D, k=8, c=-1, y=8, x=8, r=3, s=3)

    def test_rejects_non_integer_dimension(self):
        with pytest.raises(LayerDefinitionError):
            Layer("bad", LayerType.CONV2D, k=8.5, c=3, y=8, x=8, r=3, s=3)

    def test_depthwise_requires_matching_channels(self):
        with pytest.raises(LayerDefinitionError):
            Layer("bad", LayerType.DWCONV, k=32, c=64, y=8, x=8, r=3, s=3)

    def test_pointwise_requires_1x1_filter(self):
        with pytest.raises(LayerDefinitionError):
            Layer("bad", LayerType.PWCONV, k=8, c=8, y=8, x=8, r=3, s=3)

    def test_filter_cannot_exceed_activation(self):
        with pytest.raises(LayerDefinitionError):
            conv2d("bad", k=8, c=8, y=2, x=2, r=3, s=3)

    def test_upscale_only_for_upconv(self):
        with pytest.raises(LayerDefinitionError):
            Layer("bad", LayerType.CONV2D, k=8, c=8, y=8, x=8, r=3, s=3, upscale=2)


class TestDerivedGeometry:
    def test_output_dims_stride_one(self):
        layer = conv2d("c", k=8, c=8, y=10, x=10, r=3, s=3)
        assert layer.out_y == 8 and layer.out_x == 8

    def test_output_dims_stride_two(self):
        layer = conv2d("c", k=8, c=8, y=11, x=11, r=3, s=3, stride=2)
        assert layer.out_y == 5 and layer.out_x == 5

    def test_upconv_output_scales_up(self):
        layer = upconv("u", k=8, c=8, y=16, x=16, r=2, s=2, upscale=2)
        assert layer.out_y == 32 and layer.out_x == 32

    def test_conv_macs(self):
        layer = conv2d("c", k=4, c=2, y=5, x=5, r=3, s=3)
        assert layer.macs == 4 * 2 * 3 * 3 * 3 * 3

    def test_depthwise_macs_skip_channel_product(self):
        layer = dwconv("d", c=8, y=6, x=6, r=3, s=3)
        assert layer.macs == 8 * 4 * 4 * 3 * 3

    def test_fc_macs(self):
        layer = fc("f", k=100, c=200)
        assert layer.macs == 100 * 200

    def test_tensor_element_counts(self):
        layer = conv2d("c", k=4, c=2, y=5, x=5, r=3, s=3)
        assert layer.input_elements == 2 * 5 * 5
        assert layer.output_elements == 4 * 3 * 3
        assert layer.filter_elements == 4 * 2 * 3 * 3

    def test_depthwise_filter_elements(self):
        layer = dwconv("d", c=8, y=6, x=6, r=3, s=3)
        assert layer.filter_elements == 8 * 3 * 3

    def test_total_elements_is_sum(self):
        layer = conv2d("c", k=4, c=2, y=5, x=5, r=3, s=3)
        assert layer.total_elements == (layer.input_elements + layer.output_elements
                                        + layer.filter_elements)

    def test_channel_activation_ratio(self):
        layer = fc("f", k=1024, c=1024)
        assert layer.channel_activation_ratio == pytest.approx(1024.0)

    def test_accumulates_across_channels(self):
        assert conv2d("c", k=4, c=2, y=5, x=5, r=3, s=3).accumulates_across_channels
        assert not dwconv("d", c=8, y=6, x=6, r=3, s=3).accumulates_across_channels

    def test_arithmetic_intensity_positive(self):
        layer = conv2d("c", k=64, c=64, y=16, x=16, r=3, s=3)
        assert layer.macs / layer.total_elements > 1.0

    def test_describe_mentions_name_and_type(self):
        layer = conv2d("stem", k=8, c=3, y=10, x=10, r=3, s=3)
        text = layer.describe()
        assert "stem" in text and "CONV2D" in text


class TestHeterogeneitySummary:
    def test_summary_keys(self):
        layers = [fc("a", k=10, c=10), fc("b", k=100, c=10)]
        stats = layer_heterogeneity(layers)
        assert set(stats) == {"min", "median", "max", "spread"}

    def test_median_of_odd_count(self):
        layers = [fc("a", k=1, c=1), fc("b", k=2, c=1), fc("c", k=8, c=1)]
        assert layer_heterogeneity(layers)["median"] == pytest.approx(2.0)

    def test_median_of_even_count(self):
        layers = [fc("a", k=2, c=1), fc("b", k=4, c=1)]
        assert layer_heterogeneity(layers)["median"] == pytest.approx(3.0)

    def test_empty_collection_raises(self):
        with pytest.raises(LayerDefinitionError):
            layer_heterogeneity([])
