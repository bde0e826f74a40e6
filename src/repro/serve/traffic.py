"""Deterministic seeded traffic generators: the millions-of-users stand-in.

The paper evaluates Herald against strictly periodic per-model frame rates
(Table II); a production fleet instead sees stochastic, time-varying load.
This module generates the classic arrival processes of the serving
literature as *deterministic, seeded* release traces that compile straight
into the existing :class:`~repro.serve.trace.FrameTrace` /
:class:`~repro.serve.workload.StreamingWorkload` interfaces, so every layer
downstream (router, fleet simulator, closed-loop event engine) takes them
unchanged:

* ``poisson`` — memoryless arrivals at a mean rate (independent users);
* ``bursty``  — a two-state Markov-modulated Poisson process (MMPP):
  calm/burst states with exponential dwell times, the standard model of
  correlated request bursts;
* ``diurnal`` — a non-homogeneous Poisson process whose rate follows a
  sinusoidal ramp (the day/night load curve), generated by thinning;
* ``churn``   — user sessions arrive as a Poisson process, each emitting a
  short periodic frame burst before leaving; the merged trace models
  streams joining and departing mid-run.

Determinism is inherited from the :class:`~repro.serve.trace.StreamSpec`
recipe: every generator draws from a :class:`random.Random` seeded with a
SHA-256 digest of ``(seed, kind, model_name)``, so the same spec yields the
same trace on every platform and in every process (the Mersenne Twister and
``random.Random``'s distribution methods are part of Python's stable
cross-platform contract).
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.choices import TRAFFIC_KINDS
from repro.exceptions import WorkloadError
from repro.serve.trace import FrameTrace
from repro.serve.workload import (
    DEFAULT_TARGET_FPS,
    MODEL_TARGET_FPS,
    StreamingWorkload,
)
from repro.workloads.suites import workload_by_name

# A bursty stream flips state about 2 / ((calm_factor + burst_factor) *
# burst_dwell_frames) times per frame, so a tiny dwell (say 1e-300 periods)
# would flip for longer than any run can wait before its frames are drawn.
# The default shape flips about once per two frames, so 1,000,000 expected
# flips allows about 2,000,000 frames per stream -- far beyond every golden
# and benchmark stream -- and turns a dwell that short into a typed error.
_MAX_BURSTY_FLIPS = 1_000_000


def _traffic_rng(seed: int, kind: str, model_name: str) -> random.Random:
    """A deterministic, platform-independent RNG for one traffic stream.

    Mirrors :func:`repro.serve.trace._stream_rng` with the kind folded into
    the digest, so a Poisson and a bursty stream of one model never share a
    draw sequence even under one seed.
    """
    digest = hashlib.sha256(
        f"{seed}:{kind}:{model_name}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class _TrafficSpecFields(NamedTuple):
    kind: str
    model_name: str
    rate_fps: float
    frames: int
    phase_s: float = 0.0
    seed: int = 0
    deadline_s: Optional[float] = None
    burst_factor: float = 4.0
    calm_factor: float = 0.25
    burst_dwell_frames: float = 4.0
    amplitude: float = 0.8
    period_frames: float = 16.0
    session_frames: int = 4


class TrafficSpec(_TrafficSpecFields):
    """One stochastic arrival stream of one model, fully seeded.

    ``release_times_s()`` draws exactly ``frames`` arrivals from the process
    named by ``kind`` at mean rate ``rate_fps`` and returns them sorted —
    the spec is a pure function of its fields, so two equal specs always
    produce identical traces.  ``to_trace()`` compiles the spec into a
    :class:`~repro.serve.trace.FrameTrace` (the explicit-release stream the
    whole serving stack already understands).

    Attributes
    ----------
    kind:
        One of :data:`TRAFFIC_KINDS`.
    model_name / rate_fps / frames / phase_s / seed / deadline_s:
        As in :class:`~repro.serve.trace.StreamSpec`; ``deadline_s`` defaults
        to one mean period (``1 / rate_fps``).
    burst_factor / calm_factor / burst_dwell_frames:
        MMPP shape (``bursty`` only): the burst / calm state rates are
        ``rate_fps * burst_factor`` and ``rate_fps * calm_factor``, and each
        state dwells for an exponential time of mean ``burst_dwell_frames``
        nominal periods.
    amplitude / period_frames:
        Diurnal shape: the instantaneous rate is ``rate_fps * (1 + amplitude
        * sin(2 pi t / period))`` with one sinusoid period spanning
        ``period_frames`` nominal periods; ``0 <= amplitude < 1`` keeps the
        rate positive.
    session_frames:
        Churn shape: frames per user session; sessions arrive as a Poisson
        process at ``rate_fps / session_frames`` (mean aggregate rate stays
        ``rate_fps``) and emit ``session_frames`` frames one nominal period
        apart.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "TrafficSpec":
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in TRAFFIC_KINDS:
            raise WorkloadError(
                f"unknown traffic kind {self.kind!r}; "
                f"available: {list(TRAFFIC_KINDS)}")
        if self.rate_fps <= 0.0:
            raise WorkloadError(
                f"traffic {self.model_name!r}: rate_fps must be positive "
                f"(got {self.rate_fps})")
        if self.frames < 1:
            raise WorkloadError(
                f"traffic {self.model_name!r}: frames must be >= 1 "
                f"(got {self.frames})")
        if self.phase_s < 0.0:
            raise WorkloadError(
                f"traffic {self.model_name!r}: phase_s must be >= 0 "
                f"(got {self.phase_s})")
        if self.deadline_s is not None and self.deadline_s <= 0.0:
            raise WorkloadError(
                f"traffic {self.model_name!r}: deadline_s must be positive "
                f"(got {self.deadline_s})")
        if self.burst_factor <= self.calm_factor or self.calm_factor <= 0.0:
            raise WorkloadError(
                f"traffic {self.model_name!r}: need 0 < calm_factor < "
                f"burst_factor (got {self.calm_factor} / {self.burst_factor})")
        if self.burst_dwell_frames <= 0.0:
            raise WorkloadError(
                f"traffic {self.model_name!r}: burst_dwell_frames must be "
                f"positive (got {self.burst_dwell_frames})")
        # A mean dwell whose inverse overflows draws dwells of 0 s: the
        # stream would flip forever.
        if self.kind == "bursty" and not (
                2.0 * self.frames <= _MAX_BURSTY_FLIPS * self.burst_dwell_frames
                * (self.calm_factor + self.burst_factor)
                and self.burst_dwell_frames * self.period_s
                * sys.float_info.max > 1.0):
            raise WorkloadError(
                f"traffic {self.model_name!r}: burst_dwell_frames "
                f"{self.burst_dwell_frames:g} is too short: {self.frames} "
                f"frames would take more than {_MAX_BURSTY_FLIPS:,} expected "
                f"state flips or dwells of 0 s; use a longer dwell")
        if not 0.0 <= self.amplitude < 1.0:
            raise WorkloadError(
                f"traffic {self.model_name!r}: amplitude must be in [0, 1) "
                f"(got {self.amplitude})")
        if self.period_frames <= 0.0:
            raise WorkloadError(
                f"traffic {self.model_name!r}: period_frames must be positive "
                f"(got {self.period_frames})")
        if self.session_frames < 1:
            raise WorkloadError(
                f"traffic {self.model_name!r}: session_frames must be >= 1 "
                f"(got {self.session_frames})")
        return self

    def _replace(self, **changes) -> "TrafficSpec":
        return TrafficSpec(**{**self._asdict(), **changes})

    @property
    def period_s(self) -> float:
        """Nominal mean inter-arrival period in seconds."""
        return 1.0 / self.rate_fps

    @property
    def effective_deadline_s(self) -> float:
        """The per-frame deadline actually enforced (explicit or one period)."""
        return self.deadline_s if self.deadline_s is not None else self.period_s

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def release_times_s(self) -> Tuple[float, ...]:
        """Exactly ``frames`` seeded arrivals of the process, sorted ascending."""
        rng = _traffic_rng(self.seed, self.kind, self.model_name)
        generator = {
            "poisson": self._poisson,
            "bursty": self._bursty,
            "diurnal": self._diurnal,
            "churn": self._churn,
        }[self.kind]
        releases = generator(rng)
        assert len(releases) == self.frames
        return tuple(self.phase_s + release for release in sorted(releases))

    def _poisson(self, rng: random.Random) -> List[float]:
        clock = 0.0
        releases: List[float] = []
        for _ in range(self.frames):
            clock += rng.expovariate(self.rate_fps)
            releases.append(clock)
        return releases

    def _bursty(self, rng: random.Random) -> List[float]:
        # Two-state MMPP, always starting calm: within a state, arrivals are
        # Poisson at the state rate; the state flips after an exponential
        # dwell.  Both clocks draw from one RNG in a fixed order, so the
        # trace is a pure function of the spec.
        rates = (self.rate_fps * self.calm_factor,
                 self.rate_fps * self.burst_factor)
        mean_dwell_s = self.burst_dwell_frames * self.period_s
        state = 0
        clock = 0.0
        state_end = rng.expovariate(1.0 / mean_dwell_s)
        releases: List[float] = []
        while len(releases) < self.frames:
            gap = rng.expovariate(rates[state])
            if clock + gap < state_end:
                clock += gap
                releases.append(clock)
            else:
                clock = state_end
                state = 1 - state
                state_end = clock + rng.expovariate(1.0 / mean_dwell_s)
        return releases

    def _diurnal(self, rng: random.Random) -> List[float]:
        # Non-homogeneous Poisson by thinning: candidates at the peak rate,
        # accepted with probability rate(t) / peak.
        period_s = self.period_frames * self.period_s
        peak = self.rate_fps * (1.0 + self.amplitude)
        clock = 0.0
        releases: List[float] = []
        while len(releases) < self.frames:
            clock += rng.expovariate(peak)
            rate = self.rate_fps * (
                1.0 + self.amplitude * math.sin(2.0 * math.pi * clock / period_s))
            if rng.random() * peak <= rate:
                releases.append(clock)
        return releases

    def _churn(self, rng: random.Random) -> List[float]:
        # Sessions arrive Poisson at rate_fps / session_frames; each emits
        # session_frames periodic frames then leaves.  Generating sessions
        # until the merged trace holds `frames` arrivals models streams
        # joining and departing; the first `frames` (in time order) are kept.
        session_rate = self.rate_fps / self.session_frames
        clock = 0.0
        releases: List[float] = []
        while len(releases) < self.frames:
            clock += rng.expovariate(session_rate)
            releases.extend(clock + burst_index * self.period_s
                            for burst_index in range(self.session_frames))
            releases.sort()
        return releases[:self.frames]

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def to_trace(self) -> FrameTrace:
        """Compile into the explicit-release stream the serving stack runs."""
        return FrameTrace(
            model_name=self.model_name,
            releases_s=self.release_times_s(),
            deadline_s=self.effective_deadline_s,
            fps=self.rate_fps,
        )

    def describe(self) -> str:
        """One-line description used by reports and the CLI."""
        return (f"{self.model_name}: {self.kind} traffic, mean "
                f"{self.rate_fps:g} FPS x {self.frames} frames, deadline "
                f"{self.effective_deadline_s * 1e3:.1f} ms")


def traffic_suite(suite_name: str, kind: str, frames: int = 8,
                  fps_scale: float = 1.0, seed: int = 0,
                  **shape: float) -> StreamingWorkload:
    """A Table II suite under a stochastic arrival process.

    The traffic analogue of :func:`~repro.serve.workload.streaming_suite`:
    each ``(model, batches)`` suite entry becomes one :class:`TrafficSpec`
    at mean rate ``batches x target FPS`` emitting ``frames x batches``
    arrivals, with the per-frame deadline pinned to the *single-source*
    period exactly as the periodic suite does.  ``shape`` keyword arguments
    (``burst_factor``, ``amplitude``, ``session_frames``, ...) forward to
    every spec.
    """
    if frames < 1:
        raise WorkloadError(f"frames must be >= 1 (got {frames})")
    if fps_scale <= 0.0:
        raise WorkloadError(f"fps_scale must be positive (got {fps_scale})")
    spec = workload_by_name(suite_name)
    streams: List[FrameTrace] = []
    for model_name, batches in spec.entries:
        base_fps = MODEL_TARGET_FPS.get(model_name, DEFAULT_TARGET_FPS) * fps_scale
        streams.append(TrafficSpec(
            kind=kind,
            model_name=model_name,
            rate_fps=base_fps * batches,
            frames=frames * batches,
            seed=seed,
            deadline_s=1.0 / base_fps,
            **shape,
        ).to_trace())
    return StreamingWorkload(name=f"{suite_name}-{kind}", streams=streams,
                             models=spec.models)


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------
#: TrafficSpec shape knobs with their defaults, read off the record: the
#: knobs a spec's ``traffic`` mapping may set (:mod:`repro.experiment.spec`
#: checks each one against the defaults of the others).
_SHAPE_DEFAULTS: Dict[str, float] = {
    name: TrafficSpec._field_defaults[name]
    for name in ("burst_factor", "calm_factor", "burst_dwell_frames",
                 "amplitude", "period_frames", "session_frames")}
