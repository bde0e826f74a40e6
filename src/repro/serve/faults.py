"""Fault and straggler injection for the closed-loop fleet simulator.

The offline planner assumes every chip survives the whole horizon at full
speed; a production fleet loses chips and suffers stragglers.  This module
declares those events as data — :class:`ChipFailure` (a chip dies at time
``t`` and never recovers) and :class:`SlowdownWindow` (a chip runs slower by
a factor during ``[start, end)``) — bundled into a :class:`FaultSpec` that
the online event loop in :mod:`repro.serve.online` consults: frames queued
or in flight on a dead chip are re-dispatched onto the survivors, and work
executed inside a slowdown window progresses at the reduced speed.

Fault specs are pure data (immutable tuple records), so a scenario is exactly
reproducible and serialisable into the golden corpus.  The `herald fleet`
CLI builds them from compact clauses parsed by :func:`parse_fault_clause`:
``die:CHIP@T`` and ``slow:CHIP@T0-T1xF``.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import SpecError, WorkloadError
from repro.validation import expect_list, expect_str, spec_path


class _ChipFailureFields(NamedTuple):
    chip_index: int
    at_s: float


class ChipFailure(_ChipFailureFields):
    """Chip ``chip_index`` dies at ``at_s`` seconds and never recovers.

    Death is instantaneous: the in-flight frame (if any) is lost along with
    the queue and both are re-dispatched from scratch onto surviving chips.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ChipFailure":
        self = super().__new__(cls, *args, **kwargs)
        if self.chip_index < 0:
            raise WorkloadError(
                f"chip_index must be >= 0 (got {self.chip_index})")
        if self.at_s < 0.0 or not math.isfinite(self.at_s):
            raise WorkloadError(
                f"failure time must be finite and >= 0 (got {self.at_s})")
        return self

    def _replace(self, **changes) -> "ChipFailure":
        return ChipFailure(**{**self._asdict(), **changes})


class _SlowdownWindowFields(NamedTuple):
    chip_index: int
    start_s: float
    end_s: float
    factor: float


class SlowdownWindow(_SlowdownWindowFields):
    """Chip ``chip_index`` runs ``factor``x slower during ``[start_s, end_s)``.

    ``factor`` must exceed 1 (a factor of 2 means work takes twice as long
    inside the window).  Windows on one chip may overlap; the worst factor
    wins while they do.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SlowdownWindow":
        self = super().__new__(cls, *args, **kwargs)
        if self.chip_index < 0:
            raise WorkloadError(
                f"chip_index must be >= 0 (got {self.chip_index})")
        if self.start_s < 0.0 or not math.isfinite(self.start_s):
            raise WorkloadError(
                f"slowdown start must be finite and >= 0 (got {self.start_s})")
        if not self.end_s > self.start_s:
            raise WorkloadError(
                f"slowdown window must have end_s > start_s "
                f"(got [{self.start_s}, {self.end_s}))")
        if not math.isfinite(self.end_s):
            raise WorkloadError("slowdown end must be finite")
        if self.factor <= 1.0 or not math.isfinite(self.factor):
            raise WorkloadError(
                f"slowdown factor must be finite and > 1 (got {self.factor})")
        return self

    def _replace(self, **changes) -> "SlowdownWindow":
        return SlowdownWindow(**{**self._asdict(), **changes})


class _FaultSpecFields(NamedTuple):
    failures: Tuple[ChipFailure, ...] = ()
    slowdowns: Tuple[SlowdownWindow, ...] = ()


class FaultSpec(_FaultSpecFields):
    """The full fault script for one fleet run.

    At most one :class:`ChipFailure` per chip (a chip only dies once); any
    number of :class:`SlowdownWindow` entries.  The spec is time-indexed by
    the online event loop through :meth:`death_s`, :meth:`alive`,
    :meth:`speed_factor` and :meth:`transition_times`.
    """

    __slots__ = ()

    def __new__(cls, failures: Sequence[ChipFailure] = (),
                slowdowns: Sequence[SlowdownWindow] = ()) -> "FaultSpec":
        self = super().__new__(cls, tuple(failures), tuple(slowdowns))
        seen: Dict[int, float] = {}
        for failure in self.failures:
            if failure.chip_index in seen:
                raise WorkloadError(
                    f"chip {failure.chip_index} has more than one failure")
            seen[failure.chip_index] = failure.at_s
        return self

    def _replace(self, **changes) -> "FaultSpec":
        return FaultSpec(**{**self._asdict(), **changes})

    def __bool__(self) -> bool:
        return bool(self.failures or self.slowdowns)

    def death_s(self, chip_index: int) -> Optional[float]:
        """The death time of ``chip_index``, or ``None`` if it survives."""
        for failure in self.failures:
            if failure.chip_index == chip_index:
                return failure.at_s
        return None

    def alive(self, chip_index: int, now_s: float) -> bool:
        """Whether ``chip_index`` is still alive at time ``now_s``."""
        death = self.death_s(chip_index)
        return death is None or now_s < death

    def speed_factor(self, chip_index: int, now_s: float) -> float:
        """Slowdown factor in force on ``chip_index`` at ``now_s`` (>= 1.0).

        Overlapping windows compound pessimistically: the largest factor
        among the active windows applies.
        """
        factor = 1.0
        for window in self.slowdowns:
            if (window.chip_index == chip_index
                    and window.start_s <= now_s < window.end_s):
                factor = max(factor, window.factor)
        return factor

    def transition_times(self, chip_index: int) -> List[float]:
        """Times at which the speed factor of ``chip_index`` may change.

        The event loop re-evaluates in-flight completion estimates at each
        of these instants (window starts and ends), sorted and deduplicated.
        """
        times = set()
        for window in self.slowdowns:
            if window.chip_index == chip_index:
                times.add(window.start_s)
                times.add(window.end_s)
        return sorted(times)

    def validate_for_fleet(self, num_chips: int) -> None:
        """Reject events naming chips outside ``range(num_chips)``."""
        for failure in self.failures:
            if failure.chip_index >= num_chips:
                raise WorkloadError(
                    f"failure names chip {failure.chip_index} but the fleet "
                    f"has only {num_chips} chips")
        for window in self.slowdowns:
            if window.chip_index >= num_chips:
                raise WorkloadError(
                    f"slowdown names chip {window.chip_index} but the fleet "
                    f"has only {num_chips} chips")

    def describe(self) -> List[str]:
        """One line per event, in declaration order."""
        lines = [f"chip {f.chip_index} dies at {f.at_s:g} s"
                 for f in self.failures]
        lines.extend(
            f"chip {w.chip_index} runs {w.factor:g}x slower during "
            f"[{w.start_s:g}, {w.end_s:g}) s" for w in self.slowdowns)
        return lines


def parse_fault_clause(clause: str) -> FaultSpec:
    """Parse one CLI fault clause into a single-event :class:`FaultSpec`.

    Two grammars::

        die:CHIP@T          e.g. die:1@0.002
        slow:CHIP@T0-T1xF   e.g. slow:0@0.001-0.003x2.5

    Raises :class:`~repro.exceptions.WorkloadError` (with the offending
    clause quoted) on any malformed input, so argparse can surface it as a
    type error.
    """
    original = clause.strip()
    kind, _, body = original.partition(":")
    if kind == "die" and body:
        chip_text, sep, time_text = body.partition("@")
        if sep:
            try:
                return FaultSpec(failures=(
                    ChipFailure(int(chip_text), float(time_text)),))
            except ValueError:
                pass
    elif kind == "slow" and body:
        chip_text, sep, window_text = body.partition("@")
        span_text, sep2, factor_text = window_text.partition("x")
        start_text, sep3, end_text = span_text.partition("-")
        if sep and sep2 and sep3:
            try:
                return FaultSpec(slowdowns=(
                    SlowdownWindow(int(chip_text), float(start_text),
                                   float(end_text), float(factor_text)),))
            except ValueError:
                pass
    raise WorkloadError(
        f"malformed fault clause {original!r}; expected 'die:CHIP@T' or "
        f"'slow:CHIP@T0-T1xF'")


def merge_fault_specs(specs: Sequence[FaultSpec]) -> FaultSpec:
    """Union several specs (e.g. repeated ``--fault`` flags) into one."""
    failures: List[ChipFailure] = []
    slowdowns: List[SlowdownWindow] = []
    for spec in specs:
        failures.extend(spec.failures)
        slowdowns.extend(spec.slowdowns)
    return FaultSpec(failures=tuple(failures), slowdowns=tuple(slowdowns))


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------
def faults_from_spec(spec: object, path: str = "faults") -> FaultSpec:
    """Build a fault script from a list of CLI-grammar clause strings."""
    clauses = expect_list(spec, path)
    parsed: List[FaultSpec] = []
    for index, clause in enumerate(clauses):
        clause_path = spec_path(path, index)
        try:
            parsed.append(parse_fault_clause(
                expect_str(clause, clause_path)))
        except WorkloadError as error:
            raise SpecError(f"{clause_path}: {error}") from None
    try:
        return merge_fault_specs(parsed)
    except WorkloadError as error:
        raise SpecError(f"{path}: {error}") from None
