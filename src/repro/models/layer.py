"""Layer description used by the cost model, scheduler, and workloads.

A layer is a single DNN operator described by the seven convolution loop
dimensions used in the paper's loop-nest notation (Fig. 4):

==========  =====================================================
Dimension   Meaning
==========  =====================================================
``k``       number of output channels (filters)
``c``       number of input channels
``y``       input activation height (rows)
``x``       input activation width (columns)
``r``       filter height (rows)
``s``       filter width (columns)
``stride``  convolution stride (same in both spatial dimensions)
==========  =====================================================

Fully-connected layers are expressed with ``y = x = r = s = 1``; depth-wise
convolutions keep ``k == c`` and do not accumulate across input channels;
transposed/up-scale convolutions record an ``upscale`` factor that enlarges the
output resolution instead of shrinking it.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Optional, Tuple

from repro.exceptions import LayerDefinitionError

#: The tuple type of :attr:`Layer.shape_key`: operator type plus every loop
#: dimension and semantic modifier, in a fixed order.
ShapeKey = Tuple[str, int, int, int, int, int, int, int, int]


class LayerType(enum.Enum):
    """Operator taxonomy (Table I of the paper)."""

    CONV2D = "CONV2D"
    PWCONV = "PWCONV"
    DWCONV = "DWCONV"
    UPCONV = "UPCONV"
    FC = "FC"
    GEMM = "GEMM"

    @property
    def is_depthwise(self) -> bool:
        """Whether the operator avoids accumulation across input channels."""
        return self is LayerType.DWCONV

    @property
    def is_pointwise(self) -> bool:
        """Whether the operator uses a 1x1 filter by definition."""
        return self in (LayerType.PWCONV, LayerType.FC, LayerType.GEMM)

    @property
    def is_upscaling(self) -> bool:
        """Whether the operator enlarges the spatial resolution."""
        return self is LayerType.UPCONV


class Layer:
    """A single DNN operator with fully-specified tensor dimensions.

    Instances are immutable and hashable so they can be used as cache keys by
    the cost model, which is essential for fast design-space exploration.
    ``extra`` is free-form metadata: it takes no part in equality or hashing.
    A ``__slots__`` class rather than a tuple record, because the cost model
    and the scheduler read its fields far more often than layers are built.
    """

    #: The constructor's fields, in order.
    _fields = ("name", "layer_type", "k", "c", "y", "x", "r", "s", "stride",
               "upscale", "model_name", "extra")
    __slots__ = _fields + ("_out_y", "_out_x", "_macs", "_input_elements",
                           "_output_elements", "_filter_elements",
                           "_total_elements", "_shape_key")

    def __init__(self, name: str, layer_type: LayerType, k: int, c: int,
                 y: int, x: int, r: int = 1, s: int = 1, stride: int = 1,
                 upscale: int = 1, model_name: str = "",
                 extra: Optional[Dict[str, float]] = None) -> None:
        init = object.__setattr__
        for field_name, value in zip(self._fields, (
                name, layer_type, k, c, y, x, r, s, stride, upscale,
                model_name, {} if extra is None else extra)):
            init(self, field_name, value)
        self._validate()
        self._precompute()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r}: layers are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: layers are immutable")

    def _identity(self) -> Tuple:
        return (self.name, self.layer_type, self.k, self.c, self.y, self.x,
                self.r, self.s, self.stride, self.upscale, self.model_name)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Layer:
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __reduce__(self):
        return Layer, tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes) -> "Layer":
        """A copy with ``changes`` applied, checked like a new layer."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return Layer(**values)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for dim_name in ("k", "c", "y", "x", "r", "s", "stride", "upscale"):
            value = getattr(self, dim_name)
            if not isinstance(value, int) or value < 1:
                raise LayerDefinitionError(
                    f"layer {self.name!r}: dimension {dim_name}={value!r} must be a "
                    "positive integer"
                )
        if self.layer_type.is_depthwise and self.k != self.c:
            raise LayerDefinitionError(
                f"layer {self.name!r}: depth-wise convolution requires k == c "
                f"(got k={self.k}, c={self.c})"
            )
        if self.layer_type.is_pointwise and (self.r != 1 or self.s != 1):
            raise LayerDefinitionError(
                f"layer {self.name!r}: {self.layer_type.value} requires a 1x1 filter "
                f"(got r={self.r}, s={self.s})"
            )
        if not self.layer_type.is_upscaling and self.upscale != 1:
            raise LayerDefinitionError(
                f"layer {self.name!r}: only UPCONV layers may set upscale > 1"
            )
        if self.r > self.y or self.s > self.x:
            raise LayerDefinitionError(
                f"layer {self.name!r}: filter ({self.r}x{self.s}) larger than "
                f"activation ({self.y}x{self.x})"
            )

    # ------------------------------------------------------------------
    # Derived geometry (precomputed once; layers are queried by the cost
    # model and scheduler orders of magnitude more often than they are built)
    # ------------------------------------------------------------------
    def _precompute(self) -> None:
        if self.layer_type.is_upscaling:
            out_y = self.y * self.upscale
            out_x = self.x * self.upscale
        else:
            out_y = (self.y - self.r) // self.stride + 1
            out_x = (self.x - self.s) // self.stride + 1
        spatial = out_y * out_x * self.r * self.s
        if self.layer_type.is_depthwise:
            macs = self.c * spatial
            filter_elements = self.c * self.r * self.s
        else:
            macs = self.k * self.c * spatial
            filter_elements = self.k * self.c * self.r * self.s
        input_elements = self.c * self.y * self.x
        output_elements = self.k * out_y * out_x
        # The layer is immutable, so the memoised derived values bypass
        # __setattr__ exactly like __init__ does.
        cache = object.__setattr__
        cache(self, "_out_y", out_y)
        cache(self, "_out_x", out_x)
        cache(self, "_macs", macs)
        cache(self, "_input_elements", input_elements)
        cache(self, "_output_elements", output_elements)
        cache(self, "_filter_elements", filter_elements)
        cache(self, "_total_elements",
              input_elements + output_elements + filter_elements)
        cache(self, "_shape_key",
              (self.layer_type.value, self.k, self.c, self.y, self.x,
               self.r, self.s, self.stride, self.upscale))

    @property
    def shape_key(self) -> ShapeKey:
        """Cost-identity of the layer: every dimension, no identity fields.

        Two layers with equal ``shape_key`` have identical cost on every
        dataflow and hardware configuration, regardless of ``name`` /
        ``model_name`` — the cost model memoises on this key so the dozens of
        identically-shaped blocks inside ResNet/MobileNet/SSD (and across
        batch instances) share one entry.  The key includes ``layer_type``,
        ``stride``, and ``upscale``, so equal raw dimensions with different
        operator semantics never alias.
        """
        return self._shape_key

    @property
    def out_y(self) -> int:
        """Output activation height."""
        return self._out_y

    @property
    def out_x(self) -> int:
        """Output activation width."""
        return self._out_x

    @property
    def macs(self) -> int:
        """Number of multiply-accumulate operations performed by the layer."""
        return self._macs

    @property
    def input_elements(self) -> int:
        """Number of input-activation elements."""
        return self._input_elements

    @property
    def output_elements(self) -> int:
        """Number of output-activation elements."""
        return self._output_elements

    @property
    def filter_elements(self) -> int:
        """Number of filter-weight elements."""
        return self._filter_elements

    @property
    def total_elements(self) -> int:
        """Total tensor footprint (input + output + filter) in elements."""
        return self._total_elements

    @property
    def channel_activation_ratio(self) -> float:
        """Channel-activation size ratio, the shape abstraction used in Table I.

        Defined as the number of output channels divided by the output
        activation width (a proxy for "how channel-heavy vs. activation-heavy"
        the layer is).
        """
        return self.k / float(max(self.out_x, 1))

    @property
    def accumulates_across_channels(self) -> bool:
        """Whether partial sums are reduced across input channels.

        Depth-wise convolutions do not, which is exactly why channel-parallel
        dataflows such as NVDLA's under-utilise on them (Fig. 5, layer 3).
        """
        return not self.layer_type.is_depthwise

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def renamed(self, name: str, model_name: str | None = None) -> "Layer":
        """Return a copy with a different name (and optionally model name)."""
        return self._replace(
            name=name,
            model_name=self.model_name if model_name is None else model_name,
        )

    def describe(self) -> str:
        """One-line human-readable description used by reports and examples."""
        return (
            f"{self.name} [{self.layer_type.value}] "
            f"K={self.k} C={self.c} Y={self.y} X={self.x} R={self.r} S={self.s} "
            f"stride={self.stride} -> out {self.out_y}x{self.out_x}, "
            f"{self.macs / 1e6:.2f} MMACs"
        )


def conv2d(name: str, k: int, c: int, y: int, x: int, r: int, s: int, stride: int = 1,
           model_name: str = "") -> Layer:
    """Create a standard 2-D convolution layer."""
    return Layer(name, LayerType.CONV2D, k=k, c=c, y=y, x=x, r=r, s=s,
                 stride=stride, model_name=model_name)


def pwconv(name: str, k: int, c: int, y: int, x: int, model_name: str = "") -> Layer:
    """Create a point-wise (1x1) convolution layer."""
    return Layer(name, LayerType.PWCONV, k=k, c=c, y=y, x=x, model_name=model_name)


def dwconv(name: str, c: int, y: int, x: int, r: int, s: int, stride: int = 1,
           model_name: str = "") -> Layer:
    """Create a depth-wise convolution layer (k == c by construction)."""
    return Layer(name, LayerType.DWCONV, k=c, c=c, y=y, x=x, r=r, s=s,
                 stride=stride, model_name=model_name)


def upconv(name: str, k: int, c: int, y: int, x: int, r: int, s: int, upscale: int = 2,
           model_name: str = "") -> Layer:
    """Create an up-scale (transposed) convolution layer."""
    return Layer(name, LayerType.UPCONV, k=k, c=c, y=y, x=x, r=r, s=s,
                 upscale=upscale, model_name=model_name)


def fc(name: str, k: int, c: int, model_name: str = "") -> Layer:
    """Create a fully-connected layer (k outputs, c inputs)."""
    return Layer(name, LayerType.FC, k=k, c=c, y=1, x=1, model_name=model_name)


def gemm(name: str, k: int, c: int, n: int, model_name: str = "") -> Layer:
    """Create a GEMM layer computing a (k x c) by (c x n) product.

    The ``n`` dimension (e.g. sequence length for RNN workloads) is folded into
    the activation width so the convolution-oriented cost model handles it
    uniformly.
    """
    return Layer(name, LayerType.GEMM, k=k, c=c, y=1, x=n, model_name=model_name)


def layer_heterogeneity(layers) -> Dict[str, float]:
    """Summarise the shape heterogeneity of a collection of layers.

    Returns the minimum, median, and maximum channel-activation size ratio,
    mirroring the statistics reported in Table I of the paper.
    """
    ratios = sorted(layer.channel_activation_ratio for layer in layers)
    if not ratios:
        raise LayerDefinitionError("cannot summarise an empty layer collection")
    mid = len(ratios) // 2
    if len(ratios) % 2:
        median = ratios[mid]
    else:
        median = 0.5 * (ratios[mid - 1] + ratios[mid])
    return {
        "min": ratios[0],
        "median": median,
        "max": ratios[-1],
        "spread": ratios[-1] / ratios[0] if ratios[0] > 0 else math.inf,
    }
