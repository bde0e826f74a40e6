"""Versioned JSON experiment reports and baseline-delta comparison.

Every experiment run can emit a *report*: a schema-versioned JSON document
with the normalised experiment config, a flat ``metrics`` mapping (name to
float — the deterministic quantities a CI gate compares), free-form
``details`` (per-stream/per-chip breakdowns, best-design names), and
``timing`` / ``environment`` stamps that are deliberately *outside* the
comparison surface (wall-clock and host facts vary run to run).

:func:`compare_reports` diffs two reports metric by metric into
:class:`BaselineDelta` rows.  Each metric has a direction (lower-is-better
by default; throughput-like names are higher-is-better), so "regression"
means *worse*, not *different*: a p99 that shrinks or a sustained-FPS factor
that grows never fails the gate.  ``herald run --baseline`` exits non-zero
on any regression beyond tolerance, which is the CI report-diff job.
"""

from __future__ import annotations

import json
import math
import os
import platform
from typing import Dict, List, NamedTuple, Optional

from repro import __version__
from repro.exceptions import SpecError

#: The report schema identifier this build writes.
REPORT_SCHEMA = "herald-report/1"

#: Metric-name fragments that mark a metric as higher-is-better; everything
#: else (latencies, energies, miss counts, imbalance) is lower-is-better.
_HIGHER_IS_BETTER_FRAGMENTS = ("sustained", "utilisation", "utilization",
                               "hit_rate", "speedup", "fps",
                               "queries_per_s")


def metric_direction(name: str) -> str:
    """``"higher"`` or ``"lower"`` — which way ``name`` improves."""
    lowered = name.lower()
    if any(fragment in lowered for fragment in _HIGHER_IS_BETTER_FRAGMENTS):
        return "higher"
    return "lower"


class BaselineDelta(NamedTuple):
    """One metric compared against its baseline value."""

    metric: str
    baseline: float
    current: float
    direction: str

    @property
    def delta(self) -> float:
        """Signed absolute change (current minus baseline)."""
        return self.current - self.baseline

    @property
    def ratio(self) -> float:
        """``current / baseline`` (infinite when the baseline is zero and
        the current value is not)."""
        if self.baseline == 0.0:
            return 1.0 if self.current == 0.0 else float("inf")
        return self.current / self.baseline

    def regressed(self, tolerance: float = 0.0) -> bool:
        """Whether the change is *worse* beyond ``tolerance`` (relative)."""
        allowance = abs(self.baseline) * tolerance + 1e-12
        if self.direction == "higher":
            return self.current < self.baseline - allowance
        return self.current > self.baseline + allowance

    def describe(self) -> str:
        """One comparison row for the CLI."""
        arrow = "better" if self.direction == "higher" else "worse"
        sign = "+" if self.delta >= 0 else ""
        return (f"{self.metric:<32} {self.baseline:>14.6g} -> "
                f"{self.current:>14.6g}  ({sign}{self.delta:.6g}, "
                f"higher is {arrow})")


class ComparisonResult(NamedTuple):
    """Outcome of diffing a report against a baseline report."""

    deltas: List[BaselineDelta]
    missing: List[str]
    added: List[str]
    tolerance: float = 0.0

    @property
    def regressions(self) -> List[BaselineDelta]:
        """The deltas that got worse beyond tolerance."""
        return [delta for delta in self.deltas
                if delta.regressed(self.tolerance)]

    @property
    def ok(self) -> bool:
        """True when nothing regressed and no baseline metric vanished."""
        return not self.regressions and not self.missing

    def describe(self) -> str:
        """Multi-line comparison summary for the CLI."""
        lines = [f"baseline comparison: {len(self.deltas)} metric(s), "
                 f"{len(self.regressions)} regression(s), "
                 f"tolerance {self.tolerance:g}"]
        for delta in self.deltas:
            marker = ("  REGRESSED " if delta.regressed(self.tolerance)
                      else "  ok        ")
            lines.append(marker + delta.describe())
        for name in self.missing:
            lines.append(f"  MISSING   {name} (in the baseline, not in this "
                         f"run)")
        for name in self.added:
            lines.append(f"  new       {name} (no baseline value)")
        return "\n".join(lines)


def build_report(kind: str, name: str, config: Dict[str, object],
                 metrics: Dict[str, float],
                 details: Optional[Dict[str, object]] = None,
                 timing: Optional[Dict[str, float]] = None
                 ) -> Dict[str, object]:
    """Assemble one schema-versioned report; a non-finite metric raises."""
    for metric, value in metrics.items():
        if not math.isfinite(value):
            raise SpecError(f"metric {metric!r} is not a finite number "
                            f"({value!r})")
    return {
        "schema": REPORT_SCHEMA,
        "herald_version": __version__,
        "kind": kind,
        "name": name,
        "experiment": config,
        "metrics": dict(metrics),
        "details": dict(details or {}),
        "timing": dict(timing or {}),
        "environment": {
            "python": platform.python_version(),
            "platform": _platform_name(),
        },
    }


def _platform_name() -> str:
    """``platform.platform()`` minus the processor (a ``uname -p`` spawn)."""
    libc = "".join(platform.libc_ver())
    return "-".join(filter(None, (platform.system(), platform.release(),
                                  platform.machine(), libc and "with", libc)))


def write_report(report: Dict[str, object], path: str) -> None:
    """Write a report as stable, diff-friendly, strict JSON.

    A path that cannot be written, or a value that is not finite, is a
    :class:`SpecError`; after the latter the partial file is removed."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True,
                      allow_nan=False)
            handle.write("\n")
    except OSError as error:
        raise SpecError(f"cannot write report {path!r}: "
                        f"{error.strerror or error}") from None
    except ValueError as error:
        os.remove(path)
        raise SpecError(f"report {path!r}: {error}") from None


def load_report(path: str) -> Dict[str, object]:
    """Load a report file, checking the schema stamp."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as error:
        raise SpecError(f"cannot read report {path!r}: "
                        f"{error.strerror or error}") from None
    except json.JSONDecodeError as error:
        raise SpecError(f"{path}: malformed report JSON ({error})") from None
    if not isinstance(report, dict) or report.get("schema") != REPORT_SCHEMA:
        raise SpecError(f"{path}: not a {REPORT_SCHEMA} report "
                        f"(schema: {report.get('schema')!r})"
                        if isinstance(report, dict)
                        else f"{path}: not a {REPORT_SCHEMA} report")
    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        raise SpecError(f"{path}: 'metrics' is not a name -> number mapping")
    for name, value in metrics.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise SpecError(f"{path}: metric {name!r} is not a finite "
                            f"number ({value!r})")
    return report


def compare_reports(current: Dict[str, object], baseline: Dict[str, object],
                    tolerance: float = 0.0) -> ComparisonResult:
    """Diff two reports' ``metrics`` sections into delta rows."""
    current_metrics = current.get("metrics", {})
    baseline_metrics = baseline.get("metrics", {})
    deltas: List[BaselineDelta] = []
    missing: List[str] = []
    for name in sorted(baseline_metrics):
        if name not in current_metrics:
            missing.append(name)
            continue
        deltas.append(BaselineDelta(
            metric=name,
            baseline=float(baseline_metrics[name]),
            current=float(current_metrics[name]),
            direction=metric_direction(name),
        ))
    added = sorted(set(current_metrics) - set(baseline_metrics))
    return ComparisonResult(deltas=deltas, missing=missing, added=added,
                            tolerance=tolerance)

