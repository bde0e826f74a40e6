"""The multi-DNN workload suites evaluated in the paper (Table II)."""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

from repro.exceptions import SpecError
from repro.validation import (
    check_keys,
    expect_choice,
    expect_list,
    expect_mapping,
    expect_pos_int,
    expect_str,
    spec_path,
)
from repro.workloads.spec import WorkloadSpec


def arvr_a() -> WorkloadSpec:
    """AR/VR-A: ResNet50 x2, UNet x4, MobileNetV2 x4."""
    return WorkloadSpec(
        name="arvr-a",
        entries=[
            ("resnet50", 2),
            ("unet", 4),
            ("mobilenet_v2", 4),
        ],
    )


def arvr_b() -> WorkloadSpec:
    """AR/VR-B: ResNet50 x2, UNet x2, MobileNetV2 x4, Br-Q Handpose x2, DepthNet x2."""
    return WorkloadSpec(
        name="arvr-b",
        entries=[
            ("resnet50", 2),
            ("unet", 2),
            ("mobilenet_v2", 4),
            ("brq_handpose", 2),
            ("focal_depthnet", 2),
        ],
    )


def mlperf(batch_size: int = 1) -> WorkloadSpec:
    """MLPerf inference multi-stream: five models, ``batch_size`` batches each.

    The paper evaluates batch sizes one and eight (Table VI).
    """
    name = "mlperf" if batch_size == 1 else f"mlperf-b{batch_size}"
    return WorkloadSpec(
        name=name,
        entries=[
            ("resnet50", batch_size),
            ("mobilenet_v1", batch_size),
            ("ssd_resnet34", batch_size),
            ("ssd_mobilenet_v1", batch_size),
            ("gnmt", batch_size),
        ],
    )


def single_model(model_name: str, batches: int = 4) -> WorkloadSpec:
    """Single-DNN workload used for the Fig. 12 study (UNet / ResNet50, batch 4)."""
    return WorkloadSpec(name=f"{model_name}-x{batches}", entries=[(model_name, batches)])


#: Named workload factories used by the CLI, examples, and benchmarks.
WORKLOAD_SUITES: Dict[str, Callable[[], WorkloadSpec]] = {
    "arvr-a": arvr_a,
    "arvr-b": arvr_b,
    "mlperf": mlperf,
}


def workload_by_name(name: str) -> WorkloadSpec:
    """Build one of the Table II workloads by name."""
    key = name.strip().lower()
    try:
        return WORKLOAD_SUITES[key]()
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(WORKLOAD_SUITES)}"
        ) from None


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------
_WORKLOAD_KEYS = ("suite", "batch_size", "model", "batches", "name", "entries")


def workload_from_spec(spec: Union[str, Dict[str, object]],
                       path: str = "workload") -> WorkloadSpec:
    """Build a workload from its declarative spec.

    Three forms: a bare Table II suite name (``"arvr-a"``), a mapping naming
    a ``suite`` (with an optional ``batch_size`` for ``mlperf``), a
    single-model study (``model`` plus ``batches``), or an explicit
    ``name`` / ``entries`` list of ``[model, batches]`` pairs.
    """
    if isinstance(spec, str):
        expect_choice(spec, WORKLOAD_SUITES, path)
        return workload_by_name(spec)
    mapping = expect_mapping(spec, path)
    check_keys(mapping, _WORKLOAD_KEYS, path)
    if "suite" in mapping:
        suite = expect_choice(mapping["suite"], WORKLOAD_SUITES,
                              spec_path(path, "suite"))
        if "batch_size" in mapping:
            if suite != "mlperf":
                raise SpecError(
                    f"{spec_path(path, 'batch_size')}: only the 'mlperf' "
                    f"suite takes a batch size")
            return mlperf(expect_pos_int(mapping["batch_size"],
                                         spec_path(path, "batch_size")))
        return workload_by_name(suite)
    if "model" in mapping:
        model = expect_str(mapping["model"], spec_path(path, "model"))
        batches = expect_pos_int(mapping.get("batches", 4),
                                 spec_path(path, "batches"))
        return single_model(model, batches)
    if "entries" in mapping:
        name = expect_str(mapping.get("name", "custom"),
                          spec_path(path, "name"))
        entries_path = spec_path(path, "entries")
        entries: List[Tuple[str, int]] = []
        for index, entry in enumerate(
                expect_list(mapping["entries"], entries_path)):
            entry_path = spec_path(entries_path, index)
            pair = expect_list(entry, entry_path)
            if len(pair) != 2:
                raise SpecError(f"{entry_path}: expected a [model, batches] "
                                f"pair (got {len(pair)} values)")
            entries.append((expect_str(pair[0], spec_path(entry_path, 0)),
                            expect_pos_int(pair[1], spec_path(entry_path, 1))))
        if not entries:
            raise SpecError(f"{entries_path}: needs at least one "
                            f"[model, batches] pair")
        return WorkloadSpec(name=name, entries=entries)
    raise SpecError(f"{path}: expected a suite name, a 'suite' mapping, a "
                    f"'model' mapping, or explicit 'entries'")
