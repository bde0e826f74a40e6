"""The dataflow styles evaluated in the paper.

Three fixed dataflow styles are modelled, matching Table III:

* **NVDLA** — weight-stationary, spatially unrolled over output channels (K)
  and input channels (C), with spatial accumulation of partial sums across
  input channels (adder tree).  Excellent for channel-heavy layers, poor when
  channels are shallow or not accumulated (depth-wise convolutions).
* **Shi-diannao** — output-stationary, spatially unrolled over output
  activation rows (Y') and columns (X'); partial sums stay inside each PE and
  input activations are reused between neighbouring PEs (convolutional reuse).
  Excellent for activation-heavy layers, poor for FC / deep-channel layers.
* **Eyeriss** — row-stationary, spatially unrolled over output rows (Y') and
  filter rows (R) with output-channel (K) folding; balances reuse of all three
  tensors.

Each style records its spatial dimensions, which tensor is stationary, and a
reference loop nest so that the mapper and the cost model can derive
utilisation and reuse without any per-style special cases elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from repro.dataflow.loopnest import LoopNest


@dataclass(frozen=True)
class DataflowStyle:
    """A fixed dataflow style (the δ of Definition 1 in the paper).

    Parameters
    ----------
    name:
        Human-readable style name, e.g. ``"nvdla"``.
    spatial_dims:
        Layer dimensions that are spatially unrolled across PEs, in priority
        order.  Dimension names follow the layer vocabulary: ``"K"``, ``"C"``,
        ``"OY"`` (output rows), ``"OX"`` (output columns), ``"R"``, ``"S"``.
    stationary:
        Which tensor stays resident in the PEs: ``"weight"``, ``"output"`` or
        ``"row"`` (Eyeriss' row-stationary hybrid).
    spatial_reduction:
        Whether partial sums are reduced spatially across one of the unrolled
        dimensions (NVDLA's adder tree across C, Eyeriss' accumulation across
        filter rows).  Output-stationary dataflows accumulate temporally.
    max_unroll:
        Structural per-dimension unrolling limits of the style's PE
        organisation, e.g. NVDLA's 64-wide input-channel adder tree.  Scaling
        the PE count replicates the structure; it does not widen these limits,
        which is a key source of the under-utilisation shown in Fig. 5.
    loop_nest:
        Reference loop-nest representation (Fig. 4) for documentation and
        layout-compatibility checks.
    """

    name: str
    spatial_dims: Tuple[str, ...]
    stationary: str
    spatial_reduction: bool
    loop_nest: LoopNest
    max_unroll: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        valid_dims = {"K", "C", "OY", "OX", "R", "S"}
        unknown = set(self.spatial_dims) - valid_dims
        if unknown:
            raise ValueError(f"dataflow {self.name!r}: unknown spatial dims {sorted(unknown)}")
        if self.stationary not in ("weight", "output", "row"):
            raise ValueError(f"dataflow {self.name!r}: unknown stationarity {self.stationary!r}")
        unknown_caps = set(self.max_unroll) - valid_dims
        if unknown_caps:
            raise ValueError(
                f"dataflow {self.name!r}: unknown max_unroll dims {sorted(unknown_caps)}"
            )
        bad_caps = {dim: cap for dim, cap in self.max_unroll.items()
                    if isinstance(cap, bool) or not isinstance(cap, int)
                    or cap < 1}
        if bad_caps:
            raise ValueError(
                f"dataflow {self.name!r}: max_unroll caps must be ints >= 1 "
                f"(got {bad_caps})"
            )
        # Freeze the cap mapping so the style stays hashable (cost-model cache key).
        object.__setattr__(self, "max_unroll", MappingProxyType(dict(self.max_unroll)))
        # Styles are immutable, so the hash — taken on every mapper/cost memo
        # probe — is computed once here rather than per lookup.
        object.__setattr__(
            self, "_hash",
            hash((self.name, self.spatial_dims, self.stationary,
                  self.spatial_reduction,
                  tuple(sorted(self.max_unroll.items())))))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The frozen ``max_unroll`` mapping is a ``mappingproxy``, which the
        # default pickle path cannot serialise; rebuild through the constructor
        # instead so styles (and the designs that embed them) can cross process
        # boundaries for parallel design-space exploration.
        return (
            DataflowStyle,
            (self.name, self.spatial_dims, self.stationary, self.spatial_reduction,
             self.loop_nest, dict(self.max_unroll)),
        )

    def unroll_cap(self, dimension: str) -> Optional[int]:
        """Structural unrolling cap of ``dimension`` (``None`` when unlimited)."""
        return self.max_unroll.get(dimension)

    def spatial_dims_for_layer(self, layer) -> List[Tuple[str, int]]:
        """Return (dimension name, dimension size) pairs usable for ``layer``.

        Depth-wise convolutions do not accumulate across input channels, so a
        channel-parallel dataflow can only unroll the single channel dimension;
        this is exactly the under-utilisation mechanism of Fig. 5 (layer 3).
        """
        sizes: Dict[str, int] = {
            "K": layer.k,
            "C": layer.c,
            "OY": layer.out_y,
            "OX": layer.out_x,
            "R": layer.r,
            "S": layer.s,
        }
        dims: List[Tuple[str, int]] = []
        for dim in self.spatial_dims:
            if layer.layer_type.is_depthwise:
                # K and C collapse into a single per-channel dimension; keep C
                # and drop K to avoid counting the same parallelism twice.
                if dim == "K":
                    continue
            dims.append((dim, sizes[dim]))
        if not dims:
            dims.append(("C", sizes["C"]))
        return dims

    def describe(self) -> str:
        """One-line description used in reports."""
        return (
            f"{self.name}: {self.stationary}-stationary, spatial over "
            f"{'x'.join(self.spatial_dims)}"
        )


# ---------------------------------------------------------------------------
# Reference loop nests (Fig. 4 of the paper)
# ---------------------------------------------------------------------------

_NVDLA_NEST = LoopNest.from_spec(
    "nvdla",
    [
        ("K", False, 1),
        ("K", True, 0),
        ("C", False, 1),
        ("Y", False, 1),
        ("X", False, 1),
        ("C", True, 0),
        ("R", False, 0),
        ("S", False, 0),
        ("Y", False, 0),
        ("X", False, 0),
    ],
)

_SHIDIANNAO_NEST = LoopNest.from_spec(
    "shidiannao",
    [
        ("K", False, 1),
        ("K", False, 0),
        ("C", False, 1),
        ("Y", False, 1),
        ("X", False, 1),
        ("C", False, 0),
        ("Y", True, 0),
        ("X", True, 0),
        ("R", False, 0),
        ("S", False, 0),
    ],
)

_EYERISS_NEST = LoopNest.from_spec(
    "eyeriss",
    [
        ("K", False, 1),
        ("C", False, 1),
        ("X", False, 1),
        ("K", True, 0),
        ("Y", True, 0),
        ("R", True, 0),
        ("C", False, 0),
        ("S", False, 0),
        ("X", False, 0),
    ],
)


# ---------------------------------------------------------------------------
# The three styles
# ---------------------------------------------------------------------------

NVDLA = DataflowStyle(
    name="nvdla",
    spatial_dims=("C", "K"),
    stationary="weight",
    spatial_reduction=True,
    loop_nest=_NVDLA_NEST,
    # NVDLA's MAC cells reduce partial sums across a 64-wide input-channel
    # adder tree; scaling the array replicates cells across output channels.
    max_unroll={"C": 64},
)

SHIDIANNAO = DataflowStyle(
    name="shidiannao",
    spatial_dims=("OY", "OX"),
    stationary="output",
    spatial_reduction=False,
    loop_nest=_SHIDIANNAO_NEST,
    # The output-stationary grid streams activations through a 2-D shift
    # register whose row width is bounded by the physical array aspect.
    max_unroll={"OX": 256},
)

EYERISS = DataflowStyle(
    name="eyeriss",
    spatial_dims=("OY", "R", "K"),
    stationary="row",
    spatial_reduction=True,
    loop_nest=_EYERISS_NEST,
    # Row-stationary PE sets span at most the filter height (bounded by the
    # physical column count) and fold output channels across PE columns.
    max_unroll={"R": 12, "K": 128},
)

#: Every dataflow style evaluated in the paper (Table III).
ALL_STYLES: Tuple[DataflowStyle, ...] = (NVDLA, SHIDIANNAO, EYERISS)

_STYLES_BY_NAME: Dict[str, DataflowStyle] = {style.name: style for style in ALL_STYLES}


def style_by_name(name: str) -> DataflowStyle:
    """Look a dataflow style up by name (``"nvdla"``, ``"shidiannao"``, ``"eyeriss"``)."""
    key = name.strip().lower()
    aliases = {
        "shi-diannao": "shidiannao",
        "shi_diannao": "shidiannao",
        "shi": "shidiannao",
        "dla": "nvdla",
        "row-stationary": "eyeriss",
        "weight-stationary": "nvdla",
        "output-stationary": "shidiannao",
    }
    key = aliases.get(key, key)
    try:
        return _STYLES_BY_NAME[key]
    except KeyError:
        raise KeyError(
            f"unknown dataflow style {name!r}; available: {sorted(_STYLES_BY_NAME)}"
        ) from None
