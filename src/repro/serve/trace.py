"""Deterministic per-model frame-arrival traces (the paper's real-time side).

Herald's target scenario is real-time multi-DNN AR/VR serving: every model in
Table II has its own target FPS, and a deployed HDA sees a *stream* of frames
per model rather than one static batch.  A :class:`StreamSpec` describes one
such stream declaratively — target FPS, number of simulated frames, optional
phase offset and bounded uniform jitter — and expands it into concrete release
times.

Determinism is a hard requirement (golden tests pin streaming timelines
bit-for-bit, and pool workers must reproduce the parent's trace), so jitter is
drawn from a :class:`random.Random` seeded with a SHA-256 digest of
``(seed, model_name)``: the same spec always yields the same trace, on every
platform and in every process.
"""

from __future__ import annotations

import hashlib
import random
from functools import cached_property
from typing import NamedTuple, Optional, Tuple

from repro.exceptions import WorkloadError


def _stream_rng(seed: int, model_name: str) -> random.Random:
    """A deterministic, platform-independent RNG for one stream's jitter."""
    digest = hashlib.sha256(f"{seed}:{model_name}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class _StreamSpecFields(NamedTuple):
    model_name: str
    fps: float
    frames: int
    phase_s: float = 0.0
    jitter_s: float = 0.0
    seed: int = 0
    deadline_s: Optional[float] = None


class StreamSpec(_StreamSpecFields):
    """One periodic frame stream of one model.

    Attributes
    ----------
    model_name:
        Zoo (or custom-graph) name of the model every frame runs.
    fps:
        Target frame rate; the nominal inter-arrival period is ``1 / fps``.
    frames:
        Number of frames the simulation covers.
    phase_s:
        Release time of frame 0 (stagger streams against each other).
    jitter_s:
        Half-width of the uniform arrival jitter: each nominal release is
        perturbed by ``U(-jitter_s, +jitter_s)``, then clamped at zero.
        ``0.0`` (the default) gives a strictly periodic trace.
    seed:
        Jitter seed; combined with ``model_name`` so two streams of one
        workload never share a jitter sequence.
    deadline_s:
        Per-frame latency deadline, relative to the frame's release.  ``None``
        (the default) means one nominal period — the frame must finish before
        the next one nominally arrives, the usual sustained-FPS criterion.
    """

    # No ``__slots__``: the drawn releases are cached in the instance dict.

    def __new__(cls, *args, **kwargs) -> "StreamSpec":
        self = super().__new__(cls, *args, **kwargs)
        if self.fps <= 0.0:
            raise WorkloadError(
                f"stream {self.model_name!r}: fps must be positive (got {self.fps})")
        if self.frames < 1:
            raise WorkloadError(
                f"stream {self.model_name!r}: frames must be >= 1 (got {self.frames})")
        if self.phase_s < 0.0:
            raise WorkloadError(
                f"stream {self.model_name!r}: phase_s must be >= 0 (got {self.phase_s})")
        if self.jitter_s < 0.0:
            raise WorkloadError(
                f"stream {self.model_name!r}: jitter_s must be >= 0 (got {self.jitter_s})")
        if self.deadline_s is not None and self.deadline_s <= 0.0:
            raise WorkloadError(
                f"stream {self.model_name!r}: deadline_s must be positive "
                f"(got {self.deadline_s})")
        return self

    def _replace(self, **changes) -> "StreamSpec":
        return StreamSpec(**{**self._asdict(), **changes})

    @property
    def period_s(self) -> float:
        """Nominal inter-arrival period in seconds."""
        return 1.0 / self.fps

    @property
    def effective_deadline_s(self) -> float:
        """The per-frame deadline actually enforced (explicit or one period)."""
        return self.deadline_s if self.deadline_s is not None else self.period_s

    def release_times_s(self) -> Tuple[float, ...]:
        """Release time of every frame, in seconds, indexed by frame number.

        Frame ``i`` nominally arrives at ``phase_s + i * period_s``; with
        jitter enabled each arrival is perturbed independently.  The result is
        deterministic in ``(seed, model_name)`` and is *not* forced to be
        monotonic: a strongly jittered stream may deliver frame 3 before
        frame 2, exactly like a congested camera pipeline.  The spec is
        frozen, so the trace is drawn once per object and then reused by the
        release map, the deadline map and the SLA accounting alike.
        """
        return self._releases

    @cached_property
    def _releases(self) -> Tuple[float, ...]:
        rng = _stream_rng(self.seed, self.model_name) if self.jitter_s > 0.0 else None
        times = []
        for index in range(self.frames):
            release = self.phase_s + index * self.period_s
            if rng is not None:
                release += rng.uniform(-self.jitter_s, self.jitter_s)
            times.append(max(0.0, release))
        return tuple(times)

    def scaled(self, factor: float) -> "StreamSpec":
        """This stream at ``factor`` times the frame rate (same frame count).

        A uniform time dilation: period, phase, jitter, and the deadline all
        shrink by ``factor`` together, so ``scaled(f)`` asks "can the design
        keep up at ``f`` times the rate, against proportionally tightened
        SLAs?" — the predicate the sustained-FPS search bisects on.
        """
        if factor <= 0.0:
            raise WorkloadError(f"fps scale factor must be positive (got {factor})")
        return StreamSpec(
            model_name=self.model_name,
            fps=self.fps * factor,
            frames=self.frames,
            phase_s=self.phase_s / factor,
            jitter_s=self.jitter_s / factor,
            seed=self.seed,
            deadline_s=(self.deadline_s / factor
                        if self.deadline_s is not None else None),
        )

    def describe(self) -> str:
        """One-line description used by reports and the CLI."""
        jitter = f" ±{self.jitter_s * 1e3:.1f} ms jitter" if self.jitter_s else ""
        return (f"{self.model_name}: {self.fps:g} FPS x {self.frames} frames"
                f"{jitter}, deadline {self.effective_deadline_s * 1e3:.1f} ms")


class _FrameTraceFields(NamedTuple):
    model_name: str
    releases_s: Tuple[float, ...]
    deadline_s: float
    fps: float


class FrameTrace(_FrameTraceFields):
    """One stream given by *explicit* release times instead of a rate law.

    Exposes the same surface a :class:`StreamSpec` does (``model_name`` /
    ``fps`` / ``frames`` / ``release_times_s()`` / ``effective_deadline_s`` /
    ``scaled()``), so a :class:`~repro.serve.workload.StreamingWorkload` takes
    either interchangeably.  The fleet router uses this to hand each chip the
    exact subset of a stream's frames it was assigned: a subset of a periodic
    stream is generally not periodic, so it cannot be described by a
    :class:`StreamSpec`, but its release instants are known floats — carrying
    them verbatim keeps per-chip schedules bit-for-bit reproducible.

    Attributes
    ----------
    model_name:
        Zoo (or custom-graph) name of the model every frame runs.
    releases_s:
        Release time of every frame, in seconds (not required to be sorted —
        jitter-reordered arrivals stay in frame order, like ``StreamSpec``).
    deadline_s:
        Per-frame latency deadline relative to each frame's release.
    fps:
        Nominal rate carried for reporting (a frame subset has no intrinsic
        rate, so the router forwards the parent stream's target).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "FrameTrace":
        self = super().__new__(cls, *args, **kwargs)
        if not self.releases_s:
            raise WorkloadError(
                f"trace {self.model_name!r}: needs at least one release time")
        if any(release < 0.0 for release in self.releases_s):
            raise WorkloadError(
                f"trace {self.model_name!r}: release times must be >= 0")
        if self.deadline_s <= 0.0:
            raise WorkloadError(
                f"trace {self.model_name!r}: deadline_s must be positive "
                f"(got {self.deadline_s})")
        if self.fps <= 0.0:
            raise WorkloadError(
                f"trace {self.model_name!r}: fps must be positive (got {self.fps})")
        return self

    def _replace(self, **changes) -> "FrameTrace":
        return FrameTrace(**{**self._asdict(), **changes})

    @property
    def frames(self) -> int:
        """Number of frames in the trace."""
        return len(self.releases_s)

    @property
    def effective_deadline_s(self) -> float:
        """The per-frame deadline (always explicit for a trace)."""
        return self.deadline_s

    def release_times_s(self) -> Tuple[float, ...]:
        """Release time of every frame, in seconds, indexed by frame number."""
        return self.releases_s

    def scaled(self, factor: float) -> "FrameTrace":
        """This trace under a uniform time dilation (see :meth:`StreamSpec.scaled`)."""
        if factor <= 0.0:
            raise WorkloadError(f"fps scale factor must be positive (got {factor})")
        return FrameTrace(
            model_name=self.model_name,
            releases_s=tuple(release / factor for release in self.releases_s),
            deadline_s=self.deadline_s / factor,
            fps=self.fps * factor,
        )

    def describe(self) -> str:
        """One-line description used by reports and the CLI."""
        return (f"{self.model_name}: {self.frames} traced frames "
                f"(nominal {self.fps:g} FPS), deadline "
                f"{self.deadline_s * 1e3:.1f} ms")
