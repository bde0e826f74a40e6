"""Tests for the MAESTRO-style cost model: energy table, hardware, reuse, cost."""

import pytest

from repro.dataflow.mapping import build_mapping
from repro.dataflow.styles import ALL_STYLES, EYERISS, NVDLA, SHIDIANNAO
from repro.exceptions import HardwareConfigError
from repro.maestro.cost import CostModel, LayerCost, metric_value
from repro.maestro.energy import DEFAULT_ENERGY_TABLE, EnergyTable
from repro.maestro.hardware import ChipConfig, SubAcceleratorConfig
from repro.maestro.reuse import analyse_reuse
from repro.models.layer import conv2d, dwconv, fc, pwconv
from repro.units import gbps, mib


def _sub(style=NVDLA, pes=256, bw_gbps=8.0, buffer_mib=2.0):
    return SubAcceleratorConfig(
        name=f"test-{style.name if style else 'rda'}",
        dataflow=style,
        num_pes=pes,
        bandwidth_bytes_per_s=gbps(bw_gbps),
        buffer_bytes=mib(buffer_mib),
    )


class TestEnergyTable:
    def test_default_hierarchy_ordering(self):
        table = DEFAULT_ENERGY_TABLE
        assert table.mac < table.local_buffer_access < table.sram_access < table.dram_access

    def test_scaled_table(self):
        table = DEFAULT_ENERGY_TABLE.scaled(2.0)
        assert table.mac == pytest.approx(2 * DEFAULT_ENERGY_TABLE.mac)
        assert table.dram_access == pytest.approx(2 * DEFAULT_ENERGY_TABLE.dram_access)

    def test_interconnect_overhead_only_touches_interconnect(self):
        table = DEFAULT_ENERGY_TABLE.with_interconnect_overhead(1.5)
        assert table.noc_hop == pytest.approx(1.5 * DEFAULT_ENERGY_TABLE.noc_hop)
        assert table.local_buffer_access == pytest.approx(
            1.5 * DEFAULT_ENERGY_TABLE.local_buffer_access)
        assert table.mac == DEFAULT_ENERGY_TABLE.mac
        assert table.dram_access == DEFAULT_ENERGY_TABLE.dram_access

    def test_table_is_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_ENERGY_TABLE.mac = 1.0


class TestHardware:
    def test_sub_accelerator_validation(self):
        with pytest.raises(HardwareConfigError):
            SubAcceleratorConfig("bad", NVDLA, num_pes=0,
                                 bandwidth_bytes_per_s=1e9, buffer_bytes=1024)
        with pytest.raises(HardwareConfigError):
            SubAcceleratorConfig("bad", NVDLA, num_pes=16,
                                 bandwidth_bytes_per_s=0, buffer_bytes=1024)
        with pytest.raises(HardwareConfigError):
            SubAcceleratorConfig("bad", NVDLA, num_pes=16,
                                 bandwidth_bytes_per_s=1e9, buffer_bytes=0)

    def test_bandwidth_per_cycle(self):
        sub = _sub(bw_gbps=16)
        assert sub.bandwidth_bytes_per_cycle == pytest.approx(16.0)

    def test_dram_bandwidth_defaults_to_noc_share(self):
        sub = _sub(bw_gbps=8)
        assert sub.dram_bandwidth_bytes_per_cycle == pytest.approx(8.0)

    def test_is_reconfigurable(self):
        assert _sub(style=None).is_reconfigurable
        assert not _sub(style=NVDLA).is_reconfigurable

    def test_with_dataflow_returns_copy(self):
        sub = _sub(style=NVDLA)
        other = sub.with_dataflow(SHIDIANNAO)
        assert other.dataflow is SHIDIANNAO
        assert sub.dataflow is NVDLA

    def test_chip_validation(self):
        with pytest.raises(HardwareConfigError):
            ChipConfig("bad", num_pes=0, noc_bandwidth_bytes_per_s=1e9,
                       global_buffer_bytes=1024)

    @pytest.mark.parametrize("config, field, value", [
        (SubAcceleratorConfig, "dram_bandwidth_bytes_per_s", 0.0),
        (SubAcceleratorConfig, "dram_bandwidth_bytes_per_s", -1e9),
        (SubAcceleratorConfig, "dram_bandwidth_bytes_per_s", float("nan")),
        (SubAcceleratorConfig, "bandwidth_bytes_per_s", float("nan")),
        (SubAcceleratorConfig, "bandwidth_bytes_per_s", float("inf")),
        (SubAcceleratorConfig, "buffer_bytes", float("nan")),
        (SubAcceleratorConfig, "clock_hz", float("nan")),
        (SubAcceleratorConfig, "clock_hz", float("inf")),
        (SubAcceleratorConfig, "num_pes", float("nan")),
        (ChipConfig, "dram_bandwidth_bytes_per_s", 0.0),
        (ChipConfig, "dram_bandwidth_bytes_per_s", -1e9),
        (ChipConfig, "noc_bandwidth_bytes_per_s", float("nan")),
        (ChipConfig, "noc_bandwidth_bytes_per_s", float("inf")),
        (ChipConfig, "global_buffer_bytes", float("nan")),
        (ChipConfig, "clock_hz", 0.0),
        (ChipConfig, "clock_hz", float("nan")),
        (ChipConfig, "clock_hz", float("inf")),
        (ChipConfig, "num_pes", float("nan")),
    ])
    def test_rejects_non_positive_and_non_finite_numbers(self, config, field,
                                                         value):
        """A bound check alone lets NaN through and an infinite clock or a
        zero DRAM bandwidth fail later as a ZeroDivisionError or NaN cost;
        every number is rejected up front instead."""
        if config is SubAcceleratorConfig:
            fields = {"name": "bad", "dataflow": NVDLA, "num_pes": 16,
                      "bandwidth_bytes_per_s": 1e9, "buffer_bytes": 1024}
        else:
            fields = {"name": "bad", "num_pes": 16,
                      "noc_bandwidth_bytes_per_s": 1e9,
                      "global_buffer_bytes": 1024}
        fields[field] = value
        with pytest.raises(HardwareConfigError, match="positive finite|>= 1"):
            config(**fields)

    def test_chip_monolithic_uses_all_resources(self):
        chip = ChipConfig("c", num_pes=1024, noc_bandwidth_bytes_per_s=gbps(16),
                          global_buffer_bytes=mib(4))
        sub = chip.monolithic(NVDLA)
        assert sub.num_pes == 1024
        assert sub.bandwidth_bytes_per_s == pytest.approx(gbps(16))
        assert sub.buffer_bytes == mib(4)

    def test_chip_describe(self):
        chip = ChipConfig("c", num_pes=1024, noc_bandwidth_bytes_per_s=gbps(16),
                          global_buffer_bytes=mib(4))
        assert "1024 PEs" in chip.describe()


class TestReuseAnalysis:
    LAYER = conv2d("c", k=64, c=32, y=30, x=30, r=3, s=3)

    @pytest.mark.parametrize("style", ALL_STYLES, ids=lambda s: s.name)
    def test_access_counts_positive(self, style):
        mapping = build_mapping(self.LAYER, style, 256)
        reuse = analyse_reuse(mapping, mib(2))
        assert reuse.rf_accesses > 0
        assert reuse.local_fills > 0
        assert reuse.noc_tile_elements > 0
        assert reuse.dram_accesses > 0

    @pytest.mark.parametrize("style", ALL_STYLES, ids=lambda s: s.name)
    def test_tile_traffic_at_least_tensor_sizes(self, style):
        mapping = build_mapping(self.LAYER, style, 256)
        reuse = analyse_reuse(mapping, mib(8))
        assert reuse.noc_tile_elements >= self.LAYER.total_elements

    @pytest.mark.parametrize("style", ALL_STYLES, ids=lambda s: s.name)
    def test_local_fills_bounded_by_macs(self, style):
        mapping = build_mapping(self.LAYER, style, 256)
        reuse = analyse_reuse(mapping, mib(2))
        # No tensor can require more than one delivery per MAC plus the
        # partial-sum read-modify-write.
        assert reuse.local_fills <= 4 * self.LAYER.macs

    def test_rf_accesses_scale_with_macs(self):
        mapping = build_mapping(self.LAYER, NVDLA, 256)
        reuse = analyse_reuse(mapping, mib(2))
        assert reuse.rf_accesses == 4 * self.LAYER.macs

    def test_small_buffer_increases_dram_traffic(self):
        big_activation = conv2d("big", k=256, c=64, y=130, x=130, r=3, s=3)
        mapping = build_mapping(big_activation, NVDLA, 256)
        small = analyse_reuse(mapping, mib(0.25))
        large = analyse_reuse(mapping, mib(64))
        assert small.dram_accesses > large.dram_accesses
        assert small.noc_tile_elements >= large.noc_tile_elements

    def test_weight_stationary_restreams_inputs_when_channels_exceed_unrolling(self):
        # K much larger than the spatial output-channel unrolling forces the
        # (large) input activation to be re-streamed once per channel group.
        layer = conv2d("deep", k=1024, c=64, y=130, x=130, r=3, s=3)
        mapping = build_mapping(layer, NVDLA, 128)
        tight = analyse_reuse(mapping, mib(0.5))
        roomy = analyse_reuse(mapping, mib(256))
        assert tight.noc_tile_elements > roomy.noc_tile_elements

    def test_depthwise_nvdla_pays_per_mac_input_fills(self):
        layer = dwconv("d", c=64, y=34, x=34, r=3, s=3)
        nvdla = analyse_reuse(build_mapping(layer, NVDLA, 1024), mib(2))
        shi = analyse_reuse(build_mapping(layer, SHIDIANNAO, 1024), mib(2))
        assert nvdla.local_input_fills > shi.local_input_fills

    def test_output_stationary_minimises_output_traffic(self):
        layer = conv2d("c", k=32, c=32, y=34, x=34, r=3, s=3)
        shi = analyse_reuse(build_mapping(layer, SHIDIANNAO, 256), mib(2))
        nvdla = analyse_reuse(build_mapping(layer, NVDLA, 256), mib(2))
        assert shi.local_output_accesses <= nvdla.local_output_accesses

    def test_bytes_properties(self):
        mapping = build_mapping(self.LAYER, EYERISS, 256)
        reuse = analyse_reuse(mapping, mib(2))
        assert reuse.noc_tile_bytes == 2 * reuse.noc_tile_elements
        assert reuse.dram_bytes == 2 * reuse.dram_accesses


class TestLayerCost:
    LAYER = conv2d("c", k=64, c=32, y=30, x=30, r=3, s=3)

    def test_latency_positive_and_bounded_below_by_compute(self, cost_model):
        cost = cost_model.layer_cost(self.LAYER, _sub())
        assert cost.latency_cycles >= cost.compute_cycles
        assert cost.latency_s > 0

    def test_energy_breakdown_sums_to_total(self, cost_model):
        cost = cost_model.layer_cost(self.LAYER, _sub())
        assert sum(cost.energy_breakdown().values()) == pytest.approx(cost.energy_pj)

    def test_edp_is_product(self, cost_model):
        cost = cost_model.layer_cost(self.LAYER, _sub())
        assert cost.edp == pytest.approx(cost.energy_pj * 1e-12 * cost.latency_s)

    def test_bound_by_is_valid_resource(self, cost_model):
        cost = cost_model.layer_cost(self.LAYER, _sub())
        assert cost.bound_by in ("compute", "noc", "dram")

    def test_describe_mentions_layer(self, cost_model):
        assert "c on" in cost_model.layer_cost(self.LAYER, _sub()).describe()

    def test_metric_value_accessors(self, cost_model):
        cost = cost_model.layer_cost(self.LAYER, _sub())
        assert metric_value(cost, "edp") == cost.edp
        assert metric_value(cost, "latency") == cost.latency_s
        assert metric_value(cost, "energy") == cost.energy_pj
        with pytest.raises(ValueError):
            metric_value(cost, "throughput")


class TestCostModel:
    LAYER = conv2d("c", k=64, c=32, y=30, x=30, r=3, s=3)

    def test_results_are_cached(self):
        model = CostModel()
        sub = _sub()
        first = model.layer_cost(self.LAYER, sub)
        second = model.layer_cost(self.LAYER, sub)
        assert first is second
        assert model.cache_size() == 1

    def test_lower_bandwidth_never_faster(self, cost_model):
        fast = cost_model.layer_cost(self.LAYER, _sub(bw_gbps=32))
        slow = cost_model.layer_cost(self.LAYER, _sub(bw_gbps=1))
        assert slow.latency_cycles >= fast.latency_cycles

    def test_more_pes_never_slower(self, cost_model):
        small = cost_model.layer_cost(self.LAYER, _sub(pes=64))
        large = cost_model.layer_cost(self.LAYER, _sub(pes=1024))
        assert large.compute_cycles <= small.compute_cycles

    def test_rda_picks_best_style_and_pays_overhead(self, cost_model):
        rda_sub = _sub(style=None)
        rda_cost = cost_model.layer_cost(self.LAYER, rda_sub)
        fixed_costs = [cost_model.layer_cost(self.LAYER, _sub(style=style))
                       for style in ALL_STYLES]
        best_fixed = min(fixed_costs, key=lambda c: c.edp)
        assert rda_cost.energy_pj > best_fixed.energy_pj
        assert rda_cost.overhead_cycles > best_fixed.overhead_cycles

    def test_rda_without_style_raises_when_forced(self, cost_model):
        with pytest.raises(HardwareConfigError):
            cost_model.layer_cost_with_style(self.LAYER, None, _sub(style=None))

    def test_best_style_prefers_nvdla_for_fc(self, cost_model):
        layer = fc("f", k=2048, c=1024)
        style, _ = cost_model.best_style(layer, _sub(style=NVDLA, pes=1024))
        assert style.name == "nvdla"

    def test_best_style_prefers_activation_parallel_for_depthwise(self, cost_model):
        layer = dwconv("d", c=64, y=34, x=34, r=3, s=3)
        style, _ = cost_model.best_style(layer, _sub(style=NVDLA, pes=1024))
        assert style.name in ("shidiannao", "eyeriss")

    def test_custom_energy_table_changes_energy(self):
        expensive = CostModel(energy_table=DEFAULT_ENERGY_TABLE.scaled(10.0))
        cheap = CostModel()
        sub = _sub()
        assert (expensive.layer_cost(self.LAYER, sub).energy_pj
                > cheap.layer_cost(self.LAYER, sub).energy_pj)


class TestFigure5Preferences:
    """The per-layer dataflow preferences illustrated in Fig. 5 of the paper."""

    def test_early_classification_layer_prefers_activation_parallelism(self, cost_model):
        layer = conv2d("early", k=32, c=16, y=114, x=114, r=3, s=3)
        sub_n = _sub(style=NVDLA, pes=4096, bw_gbps=64)
        sub_s = _sub(style=SHIDIANNAO, pes=4096, bw_gbps=64)
        assert (cost_model.layer_cost(layer, sub_s).latency_cycles
                < cost_model.layer_cost(layer, sub_n).latency_cycles)

    def test_late_classification_layer_prefers_channel_parallelism(self, cost_model):
        layer = pwconv("late", k=2048, c=1024, y=7, x=7)
        sub_n = _sub(style=NVDLA, pes=4096)
        sub_s = _sub(style=SHIDIANNAO, pes=4096)
        assert (cost_model.layer_cost(layer, sub_n).edp
                < cost_model.layer_cost(layer, sub_s).edp)

    def test_depthwise_layer_prefers_activation_parallelism(self, cost_model):
        layer = dwconv("dw", c=96, y=58, x=58, r=3, s=3)
        sub_n = _sub(style=NVDLA, pes=4096)
        sub_s = _sub(style=SHIDIANNAO, pes=4096)
        assert (cost_model.layer_cost(layer, sub_s).edp
                < cost_model.layer_cost(layer, sub_n).edp)
