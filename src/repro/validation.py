"""Path-tracked validation primitives for declarative spec parsing.

Every layer that exposes a ``from_spec`` constructor (accelerator builders,
workload suites, streaming workloads, fault scripts, fleets, autoscaling,
search settings), and the experiment schema's own settings parsers, validate
plain-dict input with these helpers.
They all take the *spec path* of the value being checked — a dotted/indexed
string such as ``fleet.chips[2].num_pes`` — and raise
:class:`~repro.exceptions.SpecError` with that exact path as the message
prefix, so a malformed experiment file fails with the location of the bad
value rather than a traceback from deep inside a search.

This module is a dependency leaf (it imports only :mod:`repro.exceptions`),
so any layer may use it without creating an import cycle with
:mod:`repro.experiment`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.exceptions import SpecError

#: Sentinel distinguishing "no default" from "default None" in :func:`take`.
_MISSING = object()


def spec_path(parent: str, key: Union[str, int]) -> str:
    """Join a parent path and a key: ``spec_path("fleet.chips", 2)`` etc.

    Integer keys render as ``parent[2]``; string keys as ``parent.key`` (or
    bare ``key`` at the root).
    """
    if isinstance(key, int):
        return f"{parent}[{key}]" if parent else f"[{key}]"
    return f"{parent}.{key}" if parent else str(key)


def _describe_value(value: object) -> str:
    """Short human description of a bad value for error messages."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return repr(value).lower()
    if isinstance(value, (int, float, str)):
        return repr(value)
    return f"a {type(value).__name__}"


def expect_mapping(value: object, path: str) -> Dict[str, object]:
    """``value`` must be a mapping with string keys."""
    if not isinstance(value, dict):
        raise SpecError(
            f"{path}: expected a mapping (got {_describe_value(value)})")
    for key in value:
        if not isinstance(key, str):
            raise SpecError(
                f"{path}: mapping keys must be strings "
                f"(got {_describe_value(key)})")
    return value


def expect_list(value: object, path: str) -> List[object]:
    """``value`` must be a list."""
    if not isinstance(value, list):
        raise SpecError(
            f"{path}: expected a list (got {_describe_value(value)})")
    return value


def expect_str(value: object, path: str) -> str:
    """``value`` must be a string."""
    if not isinstance(value, str):
        raise SpecError(
            f"{path}: expected a string (got {_describe_value(value)})")
    return value


def expect_bool(value: object, path: str) -> bool:
    """``value`` must be a boolean."""
    if not isinstance(value, bool):
        raise SpecError(
            f"{path}: expected a boolean (got {_describe_value(value)})")
    return value


def expect_int(value: object, path: str, minimum: Optional[int] = None) -> int:
    """``value`` must be an integer (bools rejected), optionally bounded."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(
            f"{path}: expected an int (got {_describe_value(value)})")
    if minimum is not None and value < minimum:
        raise SpecError(
            f"{path}: expected an int >= {minimum} (got {value})")
    return value


def expect_pos_int(value: object, path: str) -> int:
    """``value`` must be a strictly positive integer."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SpecError(
            f"{path}: expected a positive int (got {_describe_value(value)})")
    return value


def expect_count(value: object, path: str, cap: int, noun: str,
                 budget: str) -> int:
    """``value`` must be a positive int within the work budget ``cap``.

    A count the run would walk one by one (frames, probes, chips) is
    refused at load above its cap, as ``"{path}: {count} {noun} is more
    than the {cap} {budget}"``, instead of running until it is killed.
    """
    count = expect_pos_int(value, path)
    if count > cap:
        raise SpecError(f"{path}: {count} {noun} is more than the {cap:,} "
                        f"{budget}")
    return count


def expect_number(value: object, path: str,
                  minimum: Optional[float] = None,
                  exclusive: bool = False) -> float:
    """``value`` must be a finite int or float (bools rejected), optionally
    bounded.

    ``exclusive`` makes the bound strict (``> minimum`` instead of ``>=``).
    NaN fails every comparison, so it and the infinities are rejected before
    the bound is checked.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(
            f"{path}: expected a number (got {_describe_value(value)})")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise SpecError(f"{path}: expected a finite number (got {value})")
    if minimum is not None:
        if exclusive and value <= minimum:
            raise SpecError(
                f"{path}: expected a number > {minimum:g} (got {value:g})")
        if not exclusive and value < minimum:
            raise SpecError(
                f"{path}: expected a number >= {minimum:g} (got {value:g})")
    return value


def expect_choice(value: object, choices: Iterable[str], path: str) -> str:
    """``value`` must be one of the given string choices."""
    options = sorted(choices)
    if not isinstance(value, str) or value not in options:
        raise SpecError(
            f"{path}: expected one of {options} "
            f"(got {_describe_value(value)})")
    return value


def take(mapping: Dict[str, object], key: str, path: str,
         default: object = _MISSING) -> object:
    """Pop-free lookup of ``mapping[key]`` with a precise missing-key error."""
    if key in mapping:
        return mapping[key]
    if default is _MISSING:
        raise SpecError(f"{spec_path(path, key)}: missing required value")
    return default


def check_keys(mapping: Dict[str, object], allowed: Sequence[str],
               path: str) -> None:
    """Reject keys outside ``allowed`` (typo protection for spec files)."""
    for key in mapping:
        if key not in allowed:
            raise SpecError(
                f"{spec_path(path, key)}: unknown key "
                f"(allowed: {sorted(allowed)})")
