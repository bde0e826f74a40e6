"""Builders for the four accelerator styles evaluated in the paper (Table III).

Besides the imperative constructors (:func:`make_fda` and friends) this module
carries the declarative half of the accelerator layer: :func:`chip_from_spec`
resolves chip envelopes against the Table IV accelerator classes (with
per-knob overrides), and :func:`design_from_spec` builds complete designs from
their specs — including explicit HDA partitions, so a spec can pin a searched
maelstrom design without re-running the partition search.
"""

from __future__ import annotations

import itertools
import sys
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import HardwareConfigError, PartitionError, SpecError
from repro.accel.design import AcceleratorDesign, AcceleratorKind
from repro.dataflow.styles import ALL_STYLES, DataflowStyle, style_by_name
from repro.maestro.hardware import ChipConfig, SubAcceleratorConfig
from repro.units import DEFAULT_CLOCK_HZ, gbps, mib
from repro.validation import (
    check_keys,
    expect_choice,
    expect_list,
    expect_mapping,
    expect_number,
    expect_pos_int,
    expect_str,
    spec_path,
)


def make_fda(chip: ChipConfig, style: DataflowStyle,
             name: Optional[str] = None) -> AcceleratorDesign:
    """A fixed dataflow accelerator: one monolithic array running ``style``."""
    design_name = name or f"fda-{style.name}-{chip.name}"
    return AcceleratorDesign(
        name=design_name,
        kind=AcceleratorKind.FDA,
        chip=chip,
        sub_accelerators=(chip.monolithic(style, name=f"{design_name}/acc0"),),
    )


def make_rda(chip: ChipConfig, name: Optional[str] = None) -> AcceleratorDesign:
    """A reconfigurable dataflow accelerator (MAERI style).

    The single array may pick the best dataflow per layer; the cost model
    charges the reconfiguration latency/energy and the interconnect energy
    overhead of the flexible fabric.
    """
    design_name = name or f"rda-{chip.name}"
    return AcceleratorDesign(
        name=design_name,
        kind=AcceleratorKind.RDA,
        chip=chip,
        sub_accelerators=(chip.monolithic(None, name=f"{design_name}/acc0"),),
    )


def _partition_evenly(total: int, parts: int, quantum: int = 1) -> List[int]:
    """Split ``total`` into ``parts`` near-equal integer shares of ``quantum`` granularity."""
    base = (total // parts // quantum) * quantum
    shares = [base] * parts
    shares[0] += total - base * parts
    return shares


def _build_partitioned(chip: ChipConfig, styles: Sequence[Optional[DataflowStyle]],
                       pe_partition: Sequence[int], bw_partition_gbps: Sequence[float],
                       name: str, kind: AcceleratorKind,
                       bw_partition_bytes: Optional[Sequence[float]] = None
                       ) -> AcceleratorDesign:
    """Construct a multi-sub-accelerator design from explicit partitions.

    ``bw_partition_bytes`` overrides the GB/s partition with exact raw
    byte-per-second shares — a spec's ``bw_partition_bytes_per_s`` uses it so
    a design given in raw units never re-rounds through the GB/s
    representation.
    """
    if not (len(styles) == len(pe_partition) == len(bw_partition_gbps)):
        raise PartitionError(
            f"design {name!r}: styles ({len(styles)}), PE partition ({len(pe_partition)}) "
            f"and bandwidth partition ({len(bw_partition_gbps)}) must have the same length"
        )
    if any(p <= 0 for p in pe_partition):
        raise PartitionError(f"design {name!r}: every sub-accelerator needs at least one PE")
    if any(b <= 0 for b in bw_partition_gbps):
        raise PartitionError(f"design {name!r}: every sub-accelerator needs bandwidth > 0")

    total_pes = sum(pe_partition)
    if total_pes != chip.num_pes:
        raise PartitionError(
            f"design {name!r}: PE partition sums to {total_pes}, chip has {chip.num_pes}"
        )

    if bw_partition_bytes is None:
        bw_partition_bytes = [bw * 1e9 for bw in bw_partition_gbps]
    subs: List[SubAcceleratorConfig] = []
    for index, (style, pes, bw_bytes) in enumerate(zip(styles, pe_partition, bw_partition_bytes)):
        style_label = style.name if style is not None else "rda"
        subs.append(
            SubAcceleratorConfig(
                name=f"{name}/acc{index}-{style_label}",
                dataflow=style,
                num_pes=pes,
                bandwidth_bytes_per_s=bw_bytes,
                # The global scratchpad is a shared, time-multiplexed resource:
                # every sub-accelerator can stage its working tile in it, so
                # tile-residency decisions see the full capacity (the scheduler
                # is responsible for bounding simultaneous occupancy).
                buffer_bytes=chip.global_buffer_bytes,
                dram_bandwidth_bytes_per_s=chip.dram_bandwidth,
                clock_hz=chip.clock_hz,
            )
        )
    return AcceleratorDesign(name=name, kind=kind, chip=chip, sub_accelerators=tuple(subs))


def make_smfda(chip: ChipConfig, style: DataflowStyle, num_sub_accelerators: int = 2,
               name: Optional[str] = None) -> AcceleratorDesign:
    """A scaled-out multi-FDA: identical sub-accelerators running the same dataflow.

    Resources are partitioned evenly, which is the defining property of the
    SM-FDA baseline [Baek et al.] the paper compares against.
    """
    design_name = name or f"smfda-{style.name}-x{num_sub_accelerators}-{chip.name}"
    pe_partition = _partition_evenly(chip.num_pes, num_sub_accelerators)
    bw_total_gbps = chip.noc_bandwidth_bytes_per_s / 1e9
    bw_partition = [bw_total_gbps / num_sub_accelerators] * num_sub_accelerators
    return _build_partitioned(
        chip=chip,
        styles=[style] * num_sub_accelerators,
        pe_partition=pe_partition,
        bw_partition_gbps=bw_partition,
        name=design_name,
        kind=AcceleratorKind.SM_FDA,
    )


def make_hda(chip: ChipConfig, styles: Sequence[DataflowStyle],
             pe_partition: Optional[Sequence[int]] = None,
             bw_partition_gbps: Optional[Sequence[float]] = None,
             name: Optional[str] = None) -> AcceleratorDesign:
    """A heterogeneous dataflow accelerator with the given sub-accelerator dataflows.

    When no explicit partition is supplied the resources are split evenly —
    the naive partitioning the paper shows to be sub-optimal (Fig. 6) — so the
    partitioner in :mod:`repro.core.partitioner` can start from a valid design.
    """
    if len(styles) < 2:
        raise PartitionError("an HDA needs at least two sub-accelerators")
    if len({style.name for style in styles}) < 2:
        raise PartitionError(
            "an HDA must combine at least two distinct dataflow styles; use make_smfda "
            "for homogeneous scale-out designs"
        )
    style_tag = "-".join(style.name for style in styles)
    design_name = name or f"hda-{style_tag}-{chip.name}"
    if pe_partition is None:
        pe_partition = _partition_evenly(chip.num_pes, len(styles))
    if bw_partition_gbps is None:
        total_gbps = chip.noc_bandwidth_bytes_per_s / 1e9
        bw_partition_gbps = [total_gbps / len(styles)] * len(styles)
    return _build_partitioned(
        chip=chip,
        styles=list(styles),
        pe_partition=list(pe_partition),
        bw_partition_gbps=list(bw_partition_gbps),
        name=design_name,
        kind=AcceleratorKind.HDA,
    )


def enumerate_fdas(chip: ChipConfig,
                   styles: Sequence[DataflowStyle] = ALL_STYLES) -> List[AcceleratorDesign]:
    """All FDA designs for a chip (one per dataflow style), as in Table III."""
    return [make_fda(chip, style) for style in styles]


def enumerate_smfdas(chip: ChipConfig, num_sub_accelerators: int = 2,
                     styles: Sequence[DataflowStyle] = ALL_STYLES) -> List[AcceleratorDesign]:
    """All SM-FDA designs for a chip (one per dataflow style), as in Table III."""
    return [make_smfda(chip, style, num_sub_accelerators) for style in styles]


def hda_style_combinations(styles: Sequence[DataflowStyle] = ALL_STYLES,
                           include_three_way: bool = True
                           ) -> List[Tuple[DataflowStyle, ...]]:
    """The HDA dataflow combinations evaluated in the paper.

    Three two-way combinations of NVDLA / Shi-diannao / Eyeriss plus one
    three-way combination of all styles (Table III).
    """
    combos: List[Tuple[DataflowStyle, ...]] = list(itertools.combinations(styles, 2))
    if include_three_way and len(styles) >= 3:
        combos.append(tuple(styles))
    return combos


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------
_CHIP_KEYS = ("class", "name", "num_pes", "noc_gbps",
              "noc_bandwidth_bytes_per_s", "buffer_mib",
              "global_buffer_bytes", "dram_gbps",
              "dram_bandwidth_bytes_per_s", "clock_mhz", "clock_hz")

_DESIGN_KEYS = ("kind", "name", "chip", "style", "styles", "count",
                "pe_partition", "bw_partition_gbps",
                "bw_partition_bytes_per_s")

#: Physical floors of a spec's rates once converted to raw units.  No link
#: moves less than a byte per second and no clock ticks less than once per
#: second; below them (``noc_gbps: 1e-300``) the cost model's latencies
#: overflow to infinity, so such a spec is refused before anything runs.
MIN_BANDWIDTH_BYTES_PER_S = 1.0
MIN_CLOCK_HZ = 1.0

#: The most cycles a byte may take to cross a link (clock over bandwidth).
#: Cycle counts are bytes x clock / bandwidth, and metrics multiply two
#: quantities that grow with them (EDP: idle energy times latency), so the
#: ratio stays below the square root of the largest float (~1.3e154); past
#: it (``clock_hz: 1e300`` over 1 B/s links) latencies overflowed to inf.
MAX_CYCLES_PER_BYTE = sys.float_info.max ** 0.5


def _check_floor(value: float, floor: float, unit: str, path: str) -> None:
    """Refuse a rate ``value`` (raw units) below its physical ``floor``."""
    if value < floor:
        raise SpecError(f"{path}: {value:g} {unit} is below the physical "
                        f"floor of {floor:g} {unit}")


def _check_cycles_per_byte(clock_hz: float, bandwidth: float,
                           path: str) -> None:
    """Refuse a clock whose cycle counts over ``bandwidth`` can overflow."""
    if clock_hz / bandwidth > MAX_CYCLES_PER_BYTE:
        raise SpecError(
            f"{path}: a {clock_hz:g} Hz clock over {bandwidth:g} B/s takes "
            f"{clock_hz / bandwidth:g} cycles per byte, above the "
            f"{MAX_CYCLES_PER_BYTE:.4g} at which cycle counts can overflow")


def check_pe_split(chip: ChipConfig, parts: int, path: str) -> None:
    """Refuse splitting ``chip`` into more sub-accelerators than PEs."""
    if parts > chip.num_pes:
        raise SpecError(f"{path}: {parts} sub-accelerators need at least one "
                        f"PE each, but chip {chip.name!r} has {chip.num_pes}")


def _style_from_spec(value: object, path: str) -> DataflowStyle:
    name = expect_choice(value, [style.name for style in ALL_STYLES], path)
    return style_by_name(name)


def chip_from_spec(spec: Union[str, Dict[str, object]],
                   path: str = "chip") -> ChipConfig:
    """Resolve a chip envelope spec against the Table IV accelerator classes.

    Accepts a bare class name (``"edge"``) or a mapping: an optional
    ``class`` base plus per-knob overrides, in human units (``noc_gbps``,
    ``buffer_mib``, ``clock_mhz``) or exact raw units
    (``noc_bandwidth_bytes_per_s``, ``global_buffer_bytes``, ``clock_hz``),
    which carry a value exactly instead of re-rounding it through GB/s.
    """
    from repro.accel.classes import ACCELERATOR_CLASSES

    if isinstance(spec, str):
        return chip_from_spec({"class": spec}, path)
    mapping = expect_mapping(spec, path)
    check_keys(mapping, _CHIP_KEYS, path)

    def exclusive(human: str, raw: str) -> None:
        if human in mapping and raw in mapping:
            raise SpecError(
                f"{spec_path(path, raw)}: give either {human!r} or {raw!r}, "
                f"not both")

    for human, raw in (("noc_gbps", "noc_bandwidth_bytes_per_s"),
                       ("buffer_mib", "global_buffer_bytes"),
                       ("dram_gbps", "dram_bandwidth_bytes_per_s"),
                       ("clock_mhz", "clock_hz")):
        exclusive(human, raw)

    base: Optional[ChipConfig] = None
    if "class" in mapping:
        class_name = expect_choice(mapping["class"], ACCELERATOR_CLASSES,
                                   spec_path(path, "class"))
        base = ACCELERATOR_CLASSES[class_name]
    else:
        for human, raw in (("num_pes", "num_pes"),
                           ("noc_gbps", "noc_bandwidth_bytes_per_s"),
                           ("buffer_mib", "global_buffer_bytes")):
            if human not in mapping and raw not in mapping:
                raise SpecError(
                    f"{spec_path(path, human)}: missing required value "
                    f"(custom chips without a 'class' base need num_pes, "
                    f"noc_gbps and buffer_mib)")

    name = mapping.get("name")
    if name is not None:
        name = expect_str(name, spec_path(path, "name"))
    num_pes = (expect_pos_int(mapping["num_pes"], spec_path(path, "num_pes"))
               if "num_pes" in mapping else base.num_pes)
    if "noc_bandwidth_bytes_per_s" in mapping:
        noc = expect_number(mapping["noc_bandwidth_bytes_per_s"],
                            spec_path(path, "noc_bandwidth_bytes_per_s"),
                            minimum=0.0, exclusive=True)
        _check_floor(noc, MIN_BANDWIDTH_BYTES_PER_S, "B/s",
                     spec_path(path, "noc_bandwidth_bytes_per_s"))
    elif "noc_gbps" in mapping:
        noc = gbps(expect_number(mapping["noc_gbps"],
                                 spec_path(path, "noc_gbps"),
                                 minimum=0.0, exclusive=True))
        _check_floor(noc, MIN_BANDWIDTH_BYTES_PER_S, "B/s",
                     spec_path(path, "noc_gbps"))
    else:
        noc = base.noc_bandwidth_bytes_per_s
    if "global_buffer_bytes" in mapping:
        buffer_bytes = expect_pos_int(mapping["global_buffer_bytes"],
                                      spec_path(path, "global_buffer_bytes"))
    elif "buffer_mib" in mapping:
        buffer_bytes = mib(expect_number(mapping["buffer_mib"],
                                         spec_path(path, "buffer_mib"),
                                         minimum=0.0, exclusive=True))
    else:
        buffer_bytes = base.global_buffer_bytes
    if "dram_bandwidth_bytes_per_s" in mapping:
        dram = expect_number(mapping["dram_bandwidth_bytes_per_s"],
                             spec_path(path, "dram_bandwidth_bytes_per_s"),
                             minimum=0.0, exclusive=True)
        _check_floor(dram, MIN_BANDWIDTH_BYTES_PER_S, "B/s",
                     spec_path(path, "dram_bandwidth_bytes_per_s"))
    elif "dram_gbps" in mapping:
        dram = gbps(expect_number(mapping["dram_gbps"],
                                  spec_path(path, "dram_gbps"),
                                  minimum=0.0, exclusive=True))
        _check_floor(dram, MIN_BANDWIDTH_BYTES_PER_S, "B/s",
                     spec_path(path, "dram_gbps"))
    else:
        dram = base.dram_bandwidth_bytes_per_s if base is not None else None
    if "clock_hz" in mapping:
        clock = expect_number(mapping["clock_hz"], spec_path(path, "clock_hz"),
                              minimum=0.0, exclusive=True)
        _check_floor(clock, MIN_CLOCK_HZ, "Hz", spec_path(path, "clock_hz"))
    elif "clock_mhz" in mapping:
        clock = expect_number(mapping["clock_mhz"],
                              spec_path(path, "clock_mhz"),
                              minimum=0.0, exclusive=True) * 1e6
        _check_floor(clock, MIN_CLOCK_HZ, "Hz", spec_path(path, "clock_mhz"))
    else:
        clock = base.clock_hz if base is not None else DEFAULT_CLOCK_HZ

    # A value the spec layer accepted can still leave the chip's domain once
    # converted (1e300 GB/s overflows to inf bytes/s, 1e-300 MiB rounds to
    # 0 bytes), so the chip's own check is reported as a spec error.
    try:
        chip = ChipConfig(
            name=name or (base.name if base is not None else "custom"),
            num_pes=num_pes,
            noc_bandwidth_bytes_per_s=noc,
            global_buffer_bytes=buffer_bytes,
            dram_bandwidth_bytes_per_s=dram,
            clock_hz=clock,
        )
    except HardwareConfigError as error:
        raise SpecError(f"{path}: {error}") from None
    _check_cycles_per_byte(clock, min(noc, chip.dram_bandwidth), path)
    return chip


def design_from_spec(spec: Dict[str, object], path: str = "design",
                     chip: Optional[ChipConfig] = None) -> AcceleratorDesign:
    """Build an accelerator design from its declarative spec.

    ``spec`` names a ``kind`` (``fda`` / ``rda`` / ``sm-fda`` / ``hda``) plus
    the kind's knobs; ``chip`` supplies the envelope when the spec carries no
    inline ``chip`` key (the experiment layer passes its top-level chip).
    Explicit ``pe_partition`` / ``bw_partition_bytes_per_s`` reload searched
    HDA partitions exactly; ``bw_partition_gbps`` is the human-unit alternate.
    """
    mapping = expect_mapping(spec, path)
    check_keys(mapping, _DESIGN_KEYS, path)
    kind = expect_choice(mapping.get("kind"),
                         [k.value for k in AcceleratorKind],
                         spec_path(path, "kind"))
    if "chip" in mapping:
        chip = chip_from_spec(mapping["chip"], spec_path(path, "chip"))
    if chip is None:
        raise SpecError(f"{spec_path(path, 'chip')}: missing required value")
    name = mapping.get("name")
    if name is not None:
        name = expect_str(name, spec_path(path, "name"))

    def forbid(*keys: str) -> None:
        for key in keys:
            if key in mapping:
                raise SpecError(
                    f"{spec_path(path, key)}: not a knob of kind {kind!r}")

    if kind == "rda":
        forbid("style", "styles", "count", "pe_partition",
               "bw_partition_gbps", "bw_partition_bytes_per_s")
        return make_rda(chip, name=name)
    if kind == "fda":
        forbid("styles", "count", "pe_partition", "bw_partition_gbps",
               "bw_partition_bytes_per_s")
        style = _style_from_spec(mapping.get("style"), spec_path(path, "style"))
        return make_fda(chip, style, name=name)
    if kind == "sm-fda":
        forbid("styles", "pe_partition", "bw_partition_gbps",
               "bw_partition_bytes_per_s")
        style = _style_from_spec(mapping.get("style"), spec_path(path, "style"))
        count = expect_pos_int(mapping.get("count", 2), spec_path(path, "count"))
        # Checked before the even split builds one share per copy.
        check_pe_split(chip, count, spec_path(path, "count"))
        return make_smfda(chip, style, count, name=name)

    # HDA: two or more distinct styles, optionally with explicit partitions.
    forbid("style", "count")
    styles_path = spec_path(path, "styles")
    styles_list = expect_list(mapping.get("styles", []), styles_path)
    if len(styles_list) < 2:
        raise SpecError(f"{styles_path}: an HDA needs at least two dataflow "
                        f"styles (got {len(styles_list)})")
    styles = [_style_from_spec(value, spec_path(styles_path, index))
              for index, value in enumerate(styles_list)]

    pe_partition: Optional[List[int]] = None
    if "pe_partition" in mapping:
        pe_path = spec_path(path, "pe_partition")
        entries = expect_list(mapping["pe_partition"], pe_path)
        pe_partition = [expect_pos_int(value, spec_path(pe_path, index))
                        for index, value in enumerate(entries)]
    if ("bw_partition_gbps" in mapping
            and "bw_partition_bytes_per_s" in mapping):
        raise SpecError(
            f"{spec_path(path, 'bw_partition_bytes_per_s')}: give either "
            f"'bw_partition_gbps' or 'bw_partition_bytes_per_s', not both")

    bw_bytes: Optional[List[float]] = None
    bw_gbps: Optional[List[float]] = None
    if "bw_partition_bytes_per_s" in mapping:
        bw_path = spec_path(path, "bw_partition_bytes_per_s")
        entries = expect_list(mapping["bw_partition_bytes_per_s"], bw_path)
        bw_bytes = [expect_number(value, spec_path(bw_path, index),
                                  minimum=0.0, exclusive=True)
                    for index, value in enumerate(entries)]
        bw_gbps = [value / 1e9 for value in bw_bytes]
    elif "bw_partition_gbps" in mapping:
        bw_path = spec_path(path, "bw_partition_gbps")
        entries = expect_list(mapping["bw_partition_gbps"], bw_path)
        bw_gbps = [expect_number(value, spec_path(bw_path, index),
                                 minimum=0.0, exclusive=True)
                   for index, value in enumerate(entries)]
    if bw_gbps is not None:
        for index, value in enumerate(bw_bytes or map(gbps, bw_gbps)):
            _check_floor(value, MIN_BANDWIDTH_BYTES_PER_S, "B/s",
                         spec_path(bw_path, index))
            _check_cycles_per_byte(chip.clock_hz, value,
                                   spec_path(bw_path, index))

    try:
        if pe_partition is None and bw_gbps is None:
            return make_hda(chip, styles, name=name)
        if len({style.name for style in styles}) < 2:
            raise PartitionError(
                "an HDA must combine at least two distinct dataflow styles")
        style_tag = "-".join(style.name for style in styles)
        design_name = name or f"hda-{style_tag}-{chip.name}"
        if pe_partition is None:
            pe_partition = _partition_evenly(chip.num_pes, len(styles))
        if bw_gbps is None:
            total_gbps = chip.noc_bandwidth_bytes_per_s / 1e9
            bw_gbps = [total_gbps / len(styles)] * len(styles)
        return _build_partitioned(chip=chip, styles=styles,
                                  pe_partition=pe_partition,
                                  bw_partition_gbps=bw_gbps,
                                  name=design_name,
                                  kind=AcceleratorKind.HDA,
                                  bw_partition_bytes=bw_bytes)
    except (HardwareConfigError, PartitionError) as error:
        raise SpecError(f"{path}: {error}") from None
