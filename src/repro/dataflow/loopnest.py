"""Symbolic loop-nest representation of dataflows (Fig. 4 of the paper).

A dataflow is written as an ordered list of loops over the convolution
dimensions ``K, C, Y, X, R, S`` where each loop is either temporal (``for``) or
spatial (``pfor``), possibly split across tile levels.  The loop nest is purely
descriptive — the cost model works from the derived properties (which
dimensions are spatially unrolled, which tensor is stationary) — but it lets
users inspect and pretty-print the dataflows exactly as the paper presents
them.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Tuple

#: The convolution loop dimensions in the order used throughout the paper.
DIMENSIONS: Tuple[str, ...] = ("K", "C", "Y", "X", "R", "S")


class _LoopFields(NamedTuple):
    dimension: str
    spatial: bool = False
    level: int = 0


class Loop(_LoopFields):
    """One loop of a loop nest.

    Parameters
    ----------
    dimension:
        One of :data:`DIMENSIONS`.
    spatial:
        ``True`` for a ``pfor`` (spatially unrolled across PEs), ``False`` for a
        temporal ``for``.
    level:
        Tile level (0 = innermost tile, 1 = next level up, ...), mirroring the
        ``k0`` / ``k1`` split in Fig. 4.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "Loop":
        self = super().__new__(cls, *args, **kwargs)
        if self.dimension not in DIMENSIONS:
            raise ValueError(
                f"unknown loop dimension {self.dimension!r}; expected one of {DIMENSIONS}"
            )
        if self.level < 0:
            raise ValueError("tile level must be non-negative")
        return self

    def _replace(self, **changes) -> "Loop":
        return Loop(**{**self._asdict(), **changes})



class _LoopNestFields(NamedTuple):
    name: str
    loops: Tuple[Loop, ...] = ()


class LoopNest(_LoopNestFields):
    """An ordered loop nest describing a dataflow."""

    __slots__ = ()

    def __new__(cls, name: str, loops: Iterable[Loop] = ()) -> "LoopNest":
        return super().__new__(cls, name, tuple(loops))

    def _replace(self, **changes) -> "LoopNest":
        return LoopNest(**{**self._asdict(), **changes})

    @classmethod
    def from_spec(cls, name: str, spec: Iterable[Tuple[str, bool, int]]) -> "LoopNest":
        """Build a loop nest from (dimension, spatial, level) triples."""
        return cls(name=name, loops=tuple(Loop(d, s, lv) for d, s, lv in spec))
