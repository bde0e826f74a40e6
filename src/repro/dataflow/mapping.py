"""Mapping construction: spatial unrolling of a layer onto a PE array.

A *mapping* instantiates a dataflow for one layer by fixing the loop blocking
factors (Sec. II-B).  For the analytical cost model the decisive part of the
mapping is the spatial unrolling: how many PEs are active and how many
sequential steps the temporal loops require.  The mapper below chooses, for
the dataflow's spatial dimensions, the unrolling factors that minimise the
number of compute steps (equivalently, maximise mapping utilisation) subject
to the PE budget — the same "pick the best legal loop bounds" search MAESTRO's
mapper performs for a fixed dataflow.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import MappingError
from repro.dataflow.styles import DataflowStyle
from repro.models.layer import Layer


@lru_cache(maxsize=None)
def _divisors(value: int) -> Tuple[int, ...]:
    """All divisors of ``value`` in ascending order."""
    small: List[int] = []
    large: List[int] = []
    for candidate in range(1, int(math.isqrt(value)) + 1):
        if value % candidate == 0:
            small.append(candidate)
            if candidate != value // candidate:
                large.append(value // candidate)
    return tuple(small + large[::-1])


@lru_cache(maxsize=None)
def _candidate_factors(dim: int, budget: int) -> Tuple[int, ...]:
    """Candidate unrolling factors for one dimension under a PE budget.

    The candidates are the divisors of the dimension (perfect utilisation along
    that dimension), the budget-limited maximum, and a coarse power-of-two
    ladder; this keeps the search tiny while covering the factors that matter
    for utilisation quantisation.

    Both this function and :func:`_divisors` are memoised without bound: the
    domain is layer dimensions and PE budgets (small integers that repeat
    endlessly across a sweep), and a cached hit replaces a divisor enumeration
    plus a sort on the mapper's innermost path.
    """
    limit = max(1, min(dim, budget))
    candidates = {1, limit}
    for divisor in _divisors(dim):
        if divisor <= limit:
            candidates.add(divisor)
    power = 1
    while power <= limit:
        candidates.add(power)
        power *= 2
    return tuple(sorted(candidates))


class Mapping(NamedTuple):
    """The result of mapping one layer onto one sub-accelerator.

    Attributes
    ----------
    layer:
        The mapped layer.
    style:
        The dataflow style used.
    spatial_factors:
        Unrolling factor per spatial dimension name (e.g. ``{"K": 64, "C": 16}``).
    num_pes:
        PE budget of the sub-accelerator the mapping targets.
    compute_steps:
        Number of sequential PE-array steps (the product of ⌈dim/factor⌉ over
        every loop dimension); one step issues one MAC per active PE.
    active_pes:
        Number of PEs that receive work (product of the spatial factors).
    """

    layer: Layer
    style: DataflowStyle
    spatial_factors: Dict[str, int]
    num_pes: int
    compute_steps: int
    active_pes: int

    @property
    def utilisation(self) -> float:
        """Mapping utilisation: MACs issued per PE-cycle of the whole array.

        This accounts both for inactive PEs and for edge (quantisation) effects,
        matching the utilisation numbers annotated in Fig. 5.
        """
        if self.compute_steps == 0 or self.num_pes == 0:
            return 0.0
        return self.layer.macs / float(self.compute_steps * self.num_pes)

    def factor(self, dimension: str) -> int:
        """Unrolling factor of ``dimension`` (1 when it is not unrolled)."""
        return self.spatial_factors.get(dimension, 1)

    def describe(self) -> str:
        """One-line description used by reports and examples."""
        factors = ", ".join(f"{dim}={val}" for dim, val in sorted(self.spatial_factors.items()))
        return (
            f"{self.layer.name} on {self.style.name}: {factors}; "
            f"{self.active_pes}/{self.num_pes} PEs active, "
            f"utilisation {self.utilisation:.1%}"
        )


def _layer_dim_sizes(layer: Layer) -> Dict[str, int]:
    """Loop dimension sizes of a layer keyed by the dataflow dimension names."""
    sizes = {
        "K": layer.k,
        "C": layer.c,
        "OY": layer.out_y,
        "OX": layer.out_x,
        "R": layer.r,
        "S": layer.s,
    }
    if layer.layer_type.is_depthwise:
        # Depth-wise convolutions perform C * OY * OX * R * S MACs: the output
        # channel loop coincides with the input channel loop.
        sizes["K"] = 1
    return sizes


def _search_factors(dims: Sequence[Tuple[str, int, int]], budget: int
                    ) -> Tuple[Dict[str, int], int]:
    """Memoised front of :func:`_search_factors_uncached`.

    The search input is only the (name, size, cap) triples and the PE budget
    — two *shapes* that agree on the dataflow's spatial dimensions share the
    search result even when the rest of their geometry differs (NVDLA unrolls
    only K and C, so every layer with equal channel counts collapses to one
    key).  The factors dict is copied per call so no caller can mutate the
    memoised entry.
    """
    factors, active = _search_factors_cached(tuple(dims), budget)
    return dict(factors), active


@lru_cache(maxsize=100_000)
def _search_factors_cached(dims: Tuple[Tuple[str, int, int], ...], budget: int
                           ) -> Tuple[Dict[str, int], int]:
    return _search_factors_uncached(dims, budget)


def _search_factors_uncached(dims: Sequence[Tuple[str, int, int]], budget: int
                             ) -> Tuple[Dict[str, int], int]:
    """Pick unrolling factors for ``dims`` that minimise the sequential steps.

    ``dims`` carries (name, size, cap) triples where ``cap`` is the structural
    unrolling limit of the dataflow for that dimension.  The search minimises
    the product of ⌈size/factor⌉ over the spatial dimensions — i.e. it
    maximises mapping utilisation, including edge (quantisation) effects — and
    breaks ties in favour of fewer active PEs (less multicast fan-out for the
    same speed).  It is exhaustive over a small candidate set per dimension;
    the one-, two- and three-dimension cases (every dataflow the paper
    evaluates) run as explicit nested loops visiting candidates in exactly
    the order the generic recursion below would, so the accepted
    (steps, active) tie-breaks are identical.  The loops use the
    ``-(-size // factor)`` integer ceiling, which equals ``math.ceil(size /
    factor)`` throughout the exact-float range the dimensions live in.
    """
    ndims = len(dims)
    if ndims == 2:
        name0, size0, cap0 = dims[0]
        name1, size1, cap1 = dims[1]
        best_steps = None
        best_active = best0 = best1 = 1
        for factor0 in _candidate_factors(size0, min(budget, cap0)):
            steps0 = -(-size0 // factor0)
            remaining = budget // factor0
            for factor1 in _candidate_factors(size1, min(remaining, cap1)):
                steps = steps0 * (-(-size1 // factor1))
                if best_steps is None or steps < best_steps:
                    best_steps = steps
                    best_active = factor0 * factor1
                    best0, best1 = factor0, factor1
                elif steps == best_steps:
                    active = factor0 * factor1
                    if active < best_active:
                        best_active = active
                        best0, best1 = factor0, factor1
        return {name0: best0, name1: best1}, best_active
    if ndims == 1:
        name0, size0, cap0 = dims[0]
        best_steps = None
        best_active = best0 = 1
        for factor0 in _candidate_factors(size0, min(budget, cap0)):
            steps = -(-size0 // factor0)
            if best_steps is None or steps < best_steps or (
                    steps == best_steps and factor0 < best_active):
                best_steps = steps
                best_active = best0 = factor0
        return {name0: best0}, best_active
    if ndims == 3:
        name0, size0, cap0 = dims[0]
        name1, size1, cap1 = dims[1]
        name2, size2, cap2 = dims[2]
        best_steps = None
        best_active = best0 = best1 = best2 = 1
        for factor0 in _candidate_factors(size0, min(budget, cap0)):
            steps0 = -(-size0 // factor0)
            remaining0 = budget // factor0
            for factor1 in _candidate_factors(size1, min(remaining0, cap1)):
                steps1 = steps0 * (-(-size1 // factor1))
                remaining1 = remaining0 // factor1
                for factor2 in _candidate_factors(size2,
                                                  min(remaining1, cap2)):
                    steps = steps1 * (-(-size2 // factor2))
                    if best_steps is None or steps < best_steps:
                        best_steps = steps
                        best_active = factor0 * factor1 * factor2
                        best0, best1, best2 = factor0, factor1, factor2
                    elif steps == best_steps:
                        active = factor0 * factor1 * factor2
                        if active < best_active:
                            best_active = active
                            best0, best1, best2 = factor0, factor1, factor2
        return {name0: best0, name1: best1, name2: best2}, best_active

    best_factors: Dict[str, int] = {name: 1 for name, _, _ in dims}
    best_steps: float = float("inf")
    best_active = 1

    def recurse(index: int, remaining_budget: int, chosen: Dict[str, int],
                steps: int, active: int) -> None:
        nonlocal best_factors, best_steps, best_active
        if index == len(dims):
            if steps < best_steps or (steps == best_steps and active < best_active):
                best_steps = steps
                best_active = active
                best_factors = dict(chosen)
            return
        name, size, cap = dims[index]
        limit = min(remaining_budget, cap)
        for factor in _candidate_factors(size, limit):
            chosen[name] = factor
            recurse(index + 1, remaining_budget // factor, chosen,
                    steps * math.ceil(size / factor), active * factor)
        chosen.pop(name, None)

    recurse(0, budget, {}, 1, 1)
    return best_factors, best_active


def saturating_pes(layer: Layer, style: DataflowStyle) -> int:
    """The product of the extents the factor search can unroll: from this
    budget up its factors, steps and active PEs stop changing (Fig. 5)."""
    pes = 1
    for name, size in style.spatial_dims_for_layer(layer):
        pes *= min(size, style.unroll_cap(name) or size)
    return pes


def _build_mapping_uncached(layer: Layer, style: DataflowStyle, num_pes: int) -> Mapping:
    dims = [
        (name, size, style.unroll_cap(name) or num_pes)
        for name, size in style.spatial_dims_for_layer(layer)
    ]
    spatial_factors, active = _search_factors(dims, num_pes)

    sizes = _layer_dim_sizes(layer)
    compute_steps = 1
    for name, size in sizes.items():
        factor = spatial_factors.get(name, 1)
        compute_steps *= math.ceil(size / factor)

    return Mapping(
        layer=layer,
        style=style,
        spatial_factors=spatial_factors,
        num_pes=num_pes,
        compute_steps=compute_steps,
        active_pes=active,
    )


#: Entry cap of the mapping memo (matches the historical ``lru_cache`` bound).
_MAPPING_MEMO_MAX = 200_000

_mapping_memo: Dict[Tuple, Mapping] = {}
_mapping_memo_hits = 0
_mapping_memo_misses = 0


def _mapping_memo_key(layer: Layer, style: DataflowStyle, num_pes: int) -> Tuple:
    """Memo key of :func:`build_mapping` — shape identity, not layer identity.

    The mapper's output is a pure function of the layer *shape* (every loop
    dimension plus stride/upscale/operator type), the dataflow, and the PE
    budget.  Keying on the full frozen ``Layer`` — whose ``__eq__``/``__hash__``
    include the identity fields ``name``/``model_name`` — fragmented same-shape
    layers across blocks, batches, and models into separate entries and pinned
    every distinct ``Layer`` object in a process-global cache.
    """
    return (layer.shape_key, style, num_pes)


class MappingCacheInfo(NamedTuple):
    """Mapping-memo statistics, shaped like ``functools.lru_cache``'s."""

    hits: int
    misses: int
    maxsize: Optional[int]
    currsize: int


def build_mapping(layer: Layer, style: DataflowStyle, num_pes: int) -> Mapping:
    """Map ``layer`` onto ``num_pes`` PEs using dataflow ``style``.

    Results are memoised per :func:`_mapping_memo_key` (layer *shape*, style,
    PE budget); a hit for a renamed same-shape layer returns the mapping built
    for the first layer seen with that shape, whose numeric fields are
    identical by construction.

    Raises
    ------
    MappingError
        If the PE budget is not a positive integer.
    """
    if not isinstance(num_pes, int) or num_pes < 1:
        raise MappingError(f"cannot map layer {layer.name!r}: num_pes={num_pes!r} "
                           "must be a positive integer")
    global _mapping_memo_hits, _mapping_memo_misses
    key = _mapping_memo_key(layer, style, num_pes)
    cached = _mapping_memo.get(key)
    if cached is not None:
        _mapping_memo_hits += 1
        return cached
    _mapping_memo_misses += 1
    mapping = _build_mapping_uncached(layer, style, num_pes)
    if len(_mapping_memo) < _MAPPING_MEMO_MAX:
        _mapping_memo[key] = mapping
    return mapping


def mapping_cache_info() -> MappingCacheInfo:
    """Expose the mapper cache statistics (useful when profiling DSE runs)."""
    return MappingCacheInfo(hits=_mapping_memo_hits, misses=_mapping_memo_misses,
                            maxsize=_MAPPING_MEMO_MAX, currsize=len(_mapping_memo))


def clear_mapping_cache() -> None:
    """Drop all memoised mappings (used by tests to measure cold behaviour)."""
    global _mapping_memo_hits, _mapping_memo_misses
    _mapping_memo.clear()
    _mapping_memo_hits = 0
    _mapping_memo_misses = 0
    for func in (_candidate_factors, _divisors, _search_factors_cached):
        func.cache_clear()
