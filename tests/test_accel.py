"""Tests for accelerator classes, designs, and builders (Table III / Table IV)."""

import pytest

from repro.accel.builders import (
    enumerate_fdas,
    enumerate_smfdas,
    hda_style_combinations,
    make_fda,
    make_hda,
    make_rda,
    make_smfda,
)
from repro.accel.classes import ACCELERATOR_CLASSES, CLOUD, EDGE, MOBILE, accelerator_class
from repro.accel.design import AcceleratorDesign, AcceleratorKind
from repro.dataflow.styles import ALL_STYLES, EYERISS, NVDLA, SHIDIANNAO
from repro.exceptions import HardwareConfigError, PartitionError
from repro.units import gbps, mib


class TestAcceleratorClasses:
    def test_table_iv_resources(self):
        assert EDGE.num_pes == 1024 and EDGE.global_buffer_bytes == mib(4)
        assert MOBILE.num_pes == 4096 and MOBILE.global_buffer_bytes == mib(8)
        assert CLOUD.num_pes == 16384 and CLOUD.global_buffer_bytes == mib(16)

    def test_table_iv_bandwidths(self):
        assert EDGE.noc_bandwidth_bytes_per_s == pytest.approx(gbps(16))
        assert MOBILE.noc_bandwidth_bytes_per_s == pytest.approx(gbps(64))
        assert CLOUD.noc_bandwidth_bytes_per_s == pytest.approx(gbps(256))

    def test_lookup_by_name(self):
        assert accelerator_class("edge") is EDGE
        assert accelerator_class("CLOUD") is CLOUD

    def test_unknown_class_raises(self):
        with pytest.raises(KeyError):
            accelerator_class("datacenter")

    def test_registry_has_three_classes(self):
        assert set(ACCELERATOR_CLASSES) == {"edge", "mobile", "cloud"}


def _dataflow_names(design):
    return [sub.dataflow.name if sub.dataflow is not None else "reconfigurable"
            for sub in design.sub_accelerators]


class TestFdaAndRda:
    def test_fda_is_monolithic(self):
        design = make_fda(EDGE, NVDLA)
        assert design.kind is AcceleratorKind.FDA
        assert design.num_sub_accelerators == 1
        assert design.sub_accelerators[0].num_pes == EDGE.num_pes

    def test_fda_dataflow_names(self):
        assert _dataflow_names(make_fda(EDGE, SHIDIANNAO)) == ["shidiannao"]

    def test_rda_is_reconfigurable(self):
        design = make_rda(EDGE)
        assert design.kind is AcceleratorKind.RDA
        assert design.sub_accelerators[0].is_reconfigurable
        assert _dataflow_names(design) == ["reconfigurable"]

    def test_enumerate_fdas_one_per_style(self):
        designs = enumerate_fdas(MOBILE)
        assert len(designs) == len(ALL_STYLES)
        assert {_dataflow_names(d)[0] for d in designs} == {s.name for s in ALL_STYLES}


class TestSmFda:
    def test_even_partition(self):
        design = make_smfda(EDGE, NVDLA, num_sub_accelerators=2)
        assert design.kind is AcceleratorKind.SM_FDA
        assert design.pe_partition == (512, 512)
        assert _dataflow_names(design) == ["nvdla", "nvdla"]

    def test_bandwidth_split_evenly(self):
        design = make_smfda(MOBILE, SHIDIANNAO, num_sub_accelerators=2)
        first, second = design.sub_accelerators
        assert first.bandwidth_bytes_per_s == pytest.approx(
            second.bandwidth_bytes_per_s)

    def test_enumerate_smfdas(self):
        assert len(enumerate_smfdas(EDGE)) == len(ALL_STYLES)


class TestHda:
    def test_even_default_partition(self):
        design = make_hda(EDGE, [NVDLA, SHIDIANNAO])
        assert design.kind is AcceleratorKind.HDA
        assert sum(design.pe_partition) == EDGE.num_pes

    def test_explicit_partition(self):
        design = make_hda(CLOUD, [NVDLA, SHIDIANNAO],
                          pe_partition=[12032, 4352],
                          bw_partition_gbps=[128, 128])
        assert design.pe_partition == (12032, 4352)
        assert [sub.bandwidth_bytes_per_s for sub in design.sub_accelerators] \
            == pytest.approx([128e9, 128e9])

    def test_three_way_hda(self):
        design = make_hda(CLOUD, [NVDLA, SHIDIANNAO, EYERISS])
        assert design.num_sub_accelerators == 3
        assert sum(design.pe_partition) == CLOUD.num_pes

    def test_requires_two_distinct_styles(self):
        with pytest.raises(PartitionError):
            make_hda(EDGE, [NVDLA])
        with pytest.raises(PartitionError):
            make_hda(EDGE, [NVDLA, NVDLA])

    def test_partition_must_sum_to_chip_pes(self):
        with pytest.raises(PartitionError):
            make_hda(EDGE, [NVDLA, SHIDIANNAO], pe_partition=[512, 256],
                     bw_partition_gbps=[8, 8])

    def test_partition_entries_must_be_positive(self):
        with pytest.raises(PartitionError):
            make_hda(EDGE, [NVDLA, SHIDIANNAO], pe_partition=[1024, 0],
                     bw_partition_gbps=[8, 8])
        with pytest.raises(PartitionError):
            make_hda(EDGE, [NVDLA, SHIDIANNAO], pe_partition=[512, 512],
                     bw_partition_gbps=[16, 0])

    def test_partition_length_mismatch(self):
        with pytest.raises(PartitionError):
            make_hda(EDGE, [NVDLA, SHIDIANNAO], pe_partition=[512, 256, 256],
                     bw_partition_gbps=[8, 8])

    def test_sub_accelerators_see_full_global_buffer(self):
        design = make_hda(EDGE, [NVDLA, SHIDIANNAO])
        for sub in design.sub_accelerators:
            assert sub.buffer_bytes == EDGE.global_buffer_bytes

    def test_style_combinations_include_maelstrom_pair(self):
        combos = hda_style_combinations()
        names = [tuple(style.name for style in combo) for combo in combos]
        assert ("nvdla", "shidiannao") in names
        assert any(len(combo) == 3 for combo in combos)

    def test_style_combinations_without_three_way(self):
        combos = hda_style_combinations(include_three_way=False)
        assert all(len(combo) == 2 for combo in combos)


class TestDesignValidation:
    def test_design_requires_sub_accelerators(self):
        with pytest.raises(HardwareConfigError):
            AcceleratorDesign("empty", AcceleratorKind.FDA, EDGE, tuple())

    def test_fda_cannot_have_two_sub_accelerators(self):
        subs = make_hda(EDGE, [NVDLA, SHIDIANNAO]).sub_accelerators
        with pytest.raises(HardwareConfigError):
            AcceleratorDesign("bad", AcceleratorKind.FDA, EDGE, subs)

    def test_pe_sum_mismatch_rejected(self):
        sub = EDGE.monolithic(NVDLA)
        wrong_chip = CLOUD
        with pytest.raises(PartitionError):
            AcceleratorDesign("bad", AcceleratorKind.FDA, wrong_chip, (sub,))

    def test_duplicate_sub_accelerator_names_rejected(self):
        first, second = make_hda(EDGE, [NVDLA, SHIDIANNAO]).sub_accelerators
        twin = second._replace(name=first.name)
        with pytest.raises(HardwareConfigError, match="distinct"):
            AcceleratorDesign("twins", AcceleratorKind.HDA, EDGE, (first, twin))

    def test_lookup_sub_accelerator_by_name(self):
        design = make_hda(EDGE, [NVDLA, SHIDIANNAO])
        name = design.sub_accelerators[0].name
        assert design.sub_accelerator(name) is design.sub_accelerators[0]
        with pytest.raises(HardwareConfigError):
            design.sub_accelerator("missing")

    def test_describe_lists_sub_accelerators(self):
        design = make_hda(EDGE, [NVDLA, SHIDIANNAO])
        text = design.describe()
        assert "nvdla" in text and "shidiannao" in text
