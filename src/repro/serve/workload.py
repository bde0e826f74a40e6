"""Streaming workloads: Table II suites as frame streams instead of batches.

A :class:`StreamingWorkload` is a set of :class:`~repro.serve.trace.StreamSpec`
streams, one per model.  It expands into an ordinary
:class:`~repro.workloads.spec.WorkloadSpec` — frame ``i`` of model ``m``
becomes model instance ``"m#i"`` — plus per-frame release times and absolute
deadlines, which is exactly what the release-time-aware scheduler and the
serving report need.  Because the expansion is a plain workload spec, every
existing consumer (scheduler, partition search, DSE, execution backends) takes
a streaming workload transparently; the evaluator recognises the streaming
shape by duck typing (:meth:`StreamingWorkload.to_workload_spec`).

:data:`MODEL_TARGET_FPS` carries the per-model real-time targets of the
Table II scenario (tracking-class networks at 60 FPS, dense-prediction
networks at 30 FPS, recognition backbones at 15 FPS); :func:`streaming_suite`
turns a named Table II suite into streams using those targets, folding a
model's batch count into an aggregate ``batches x FPS`` stream whose deadline
stays the single-stream period.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import SpecError, WorkloadError
from repro.models.graph import ModelGraph
from repro.serve.trace import FrameTrace, StreamSpec
from repro.units import seconds_to_cycles
from repro.validation import (
    check_keys,
    expect_bool,
    expect_choice,
    expect_int,
    expect_list,
    expect_mapping,
    expect_number,
    expect_pos_int,
    expect_str,
    spec_path,
)
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suites import WORKLOAD_SUITES, workload_by_name

#: Per-model real-time frame-rate targets (the Table II "target FPS" column):
#: hand/pose tracking runs at display rate, segmentation / detection / depth at
#: camera rate, and classification backbones at a recognition cadence.
MODEL_TARGET_FPS: Dict[str, float] = {
    "resnet50": 15.0,
    "mobilenet_v1": 60.0,
    "mobilenet_v2": 60.0,
    "unet": 30.0,
    "brq_handpose": 60.0,
    "focal_depthnet": 30.0,
    "ssd_resnet34": 30.0,
    "ssd_mobilenet_v1": 30.0,
    "gnmt": 15.0,
}

#: Fallback target for models without a :data:`MODEL_TARGET_FPS` entry.
DEFAULT_TARGET_FPS = 30.0


class StreamingWorkload:
    """A multi-DNN serving scenario: one frame stream per model.

    Parameters
    ----------
    name:
        Scenario name, e.g. ``"arvr-a-stream"``.
    streams:
        One :class:`StreamSpec` per model.  Model names must be unique —
        frame instance ids are ``"{model_name}#{frame_index}"``, so two
        streams of one model would collide (fold them into one stream at the
        summed FPS instead, as :func:`streaming_suite` does for batches).
    models:
        Optional pre-built model graphs keyed by model name, forwarded to the
        expanded :class:`WorkloadSpec` (overrides the zoo for custom models).
    """

    def __init__(self, name: str,
                 streams: Optional[List[StreamSpec]] = None,
                 models: Optional[Dict[str, ModelGraph]] = None) -> None:
        self.name = name
        self.streams = [] if streams is None else streams
        self.models = {} if models is None else models
        #: Expansion memo keyed by a snapshot of the frame set (each
        #: stream's ``(model_name, frames)``), like WorkloadSpec's memos are
        #: keyed by its ``entries``: mutated streams never get a stale
        #: expansion, and rate scaling, which keeps the frame set, shares
        #: one.  Excluded from pickles, so evaluation tasks shipping
        #: streaming workloads to pool workers stay small; the expansion is
        #: cheap to rebuild there.
        self._spec_memo: Optional[Tuple[Tuple[Tuple[str, int], ...],
                                        WorkloadSpec]] = None
        if not self.streams:
            raise WorkloadError(f"streaming workload {self.name!r} has no streams")
        names = [stream.model_name for stream in self.streams]
        if len(set(names)) != len(names):
            raise WorkloadError(
                f"streaming workload {self.name!r} has duplicate model streams; "
                "fold repeated models into one stream at the aggregate FPS"
            )

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_spec_memo"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def to_workload_spec(self) -> WorkloadSpec:
        """The scenario's frames as a plain batch workload (one instance per frame).

        Frame ``i`` of stream ``m`` is instance ``"m#i"`` — the id scheme
        :meth:`WorkloadSpec.instances` produces natively, so release and
        deadline maps line up with the expanded instances by construction.
        Memoised against the frame set, which :meth:`scaled` copies share:
        their spec keeps the root workload's ``name``.
        """
        snapshot = tuple((stream.model_name, stream.frames)
                         for stream in self.streams)
        if self._spec_memo is None or self._spec_memo[0] != snapshot:
            self._spec_memo = (snapshot, WorkloadSpec(
                name=self.name, entries=list(snapshot),
                models=dict(self.models)))
        return self._spec_memo[1]

    def release_times_s(self) -> Dict[str, float]:
        """Release time of every frame instance, in seconds, keyed by instance id."""
        releases: Dict[str, float] = {}
        for stream in self.streams:
            for index, release in enumerate(stream.release_times_s()):
                releases[f"{stream.model_name}#{index}"] = release
        return releases

    def deadlines_s(self) -> Dict[str, float]:
        """Absolute per-frame deadline (release + stream deadline), keyed by instance id."""
        deadlines: Dict[str, float] = {}
        for stream in self.streams:
            bound = stream.effective_deadline_s
            for index, release in enumerate(stream.release_times_s()):
                deadlines[f"{stream.model_name}#{index}"] = release + bound
        return deadlines

    def release_cycles(self, clock_hz: float) -> Dict[str, float]:
        """Per-frame release cycles at ``clock_hz``, keyed by instance id.

        The one place the seconds-to-cycles conversion of the arrival trace
        lives — the simulator, the evaluator, the golden harness, and the
        benchmark all consume this (and :meth:`deadline_cycles`), so a change
        to the conversion cannot silently fork the paths.
        """
        return {instance_id: seconds_to_cycles(release, clock_hz)
                for instance_id, release in self.release_times_s().items()}

    def deadline_cycles(self, clock_hz: float) -> Dict[str, float]:
        """Absolute per-frame deadline cycles at ``clock_hz``, keyed by instance id."""
        return {instance_id: seconds_to_cycles(deadline, clock_hz)
                for instance_id, deadline in self.deadlines_s().items()}

    def scaled(self, factor: float, name: Optional[str] = None) -> "StreamingWorkload":
        """Every stream at ``factor`` times its rate (the sustained-FPS knob).

        Scaling moves only release times and deadlines, so the copy shares
        this workload's expansion: every sustained-FPS probe reuses one set
        of model graphs, instances and scheduler visit order.
        """
        copy = StreamingWorkload(
            name=name or f"{self.name}-x{factor:g}",
            streams=[stream.scaled(factor) for stream in self.streams],
            models=dict(self.models),
        )
        self.to_workload_spec()
        copy._spec_memo = self._spec_memo
        return copy

    # ------------------------------------------------------------------
    # WorkloadSpec-compatible surface (what the DSE / partition search touch
    # before the evaluator converts to the batch expansion)
    # ------------------------------------------------------------------
    def unique_shape_layers(self):
        """Deduped representative layers, delegated to the expansion."""
        return self.to_workload_spec().unique_shape_layers()

    def instances(self):
        """Frame instances, delegated to the expansion."""
        return self.to_workload_spec().instances()

    @property
    def total_frames(self) -> int:
        """Total number of frames across all streams."""
        return sum(stream.frames for stream in self.streams)

    def describe(self) -> str:
        """Multi-line human-readable summary used by reports and the CLI."""
        lines = [f"Streaming workload {self.name}: {len(self.streams)} streams, "
                 f"{self.total_frames} frames"]
        for stream in self.streams:
            lines.append("  - " + stream.describe())
        return "\n".join(lines)


def streaming_suite(suite_name: str, frames: int = 8, fps_scale: float = 1.0,
                    jitter_s: float = 0.0, seed: int = 0,
                    stagger: bool = True) -> StreamingWorkload:
    """A Table II suite as a streaming scenario using the per-model FPS targets.

    Each ``(model, batches)`` entry becomes one stream: ``batches``
    independent frame sources of the same model are folded into a single
    aggregate stream at ``batches x target FPS`` (the schedulable load is
    identical), while the per-frame deadline stays the *single-source* period
    — folding must not loosen the SLA.  ``stagger`` phases stream ``k`` by
    ``k / (k + 1)`` of its period so streams do not all release their *first*
    frames at t=0, which is the steady-state shape of a real serving system;
    disabling it only zeroes those phases — later frames still arrive
    periodically, so the trace is never all-zero (build an explicit all-zero
    release map, as the batch-equivalence tests and the benchmark gate do, to
    reproduce the batch schedule bit-for-bit).
    """
    if frames < 1:
        raise WorkloadError(f"frames must be >= 1 (got {frames})")
    if fps_scale <= 0.0:
        raise WorkloadError(f"fps_scale must be positive (got {fps_scale})")
    spec = workload_by_name(suite_name)
    streams: List[StreamSpec] = []
    for position, (model_name, batches) in enumerate(spec.entries):
        base_fps = MODEL_TARGET_FPS.get(model_name, DEFAULT_TARGET_FPS) * fps_scale
        fps = base_fps * batches
        phase = (position / (position + 1)) / fps if stagger else 0.0
        streams.append(StreamSpec(
            model_name=model_name,
            fps=fps,
            frames=frames * batches,
            phase_s=phase,
            jitter_s=jitter_s,
            seed=seed,
            deadline_s=1.0 / base_fps,
        ))
    return StreamingWorkload(name=f"{suite_name}-stream", streams=streams,
                             models=dict(spec.models))


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------
_SUITE_STREAM_KEYS = ("suite", "frames", "fps_scale", "jitter_ms", "jitter_s",
                      "seed", "stagger")
_STREAM_KEYS = ("model", "fps", "frames", "phase_s", "jitter_s", "jitter_ms",
                "seed", "deadline_s")
_TRACE_KEYS = ("model", "releases_s", "deadline_s", "fps")


def _jitter_seconds(mapping: Dict[str, object], path: str,
                    default: float = 0.0) -> float:
    """Read a jitter half-width from ``jitter_s`` or ``jitter_ms``."""
    if "jitter_s" in mapping and "jitter_ms" in mapping:
        raise SpecError(f"{spec_path(path, 'jitter_ms')}: give either "
                        f"'jitter_s' or 'jitter_ms', not both")
    if "jitter_s" in mapping:
        return expect_number(mapping["jitter_s"], spec_path(path, "jitter_s"),
                             minimum=0.0)
    if "jitter_ms" in mapping:
        return expect_number(mapping["jitter_ms"],
                             spec_path(path, "jitter_ms"), minimum=0.0) / 1e3
    return default


def stream_from_spec(spec: Dict[str, object],
                     path: str = "stream") -> Union[StreamSpec, FrameTrace]:
    """Build one stream from its declarative spec.

    Two forms: a rate-law stream (``model`` / ``fps`` / ``frames`` plus the
    optional phase / jitter / seed / deadline knobs → :class:`StreamSpec`) or
    an explicit-release trace (``model`` / ``releases_s`` / ``deadline_s`` /
    ``fps`` → :class:`~repro.serve.trace.FrameTrace`).
    """
    mapping = expect_mapping(spec, path)
    model = expect_str(mapping.get("model"), spec_path(path, "model")) \
        if "model" in mapping else None
    if model is None:
        raise SpecError(f"{spec_path(path, 'model')}: missing required value")
    if "releases_s" in mapping:
        check_keys(mapping, _TRACE_KEYS, path)
        releases_path = spec_path(path, "releases_s")
        releases = [expect_number(value, spec_path(releases_path, index),
                                  minimum=0.0)
                    for index, value in enumerate(
                        expect_list(mapping["releases_s"], releases_path))]
        if not releases:
            raise SpecError(f"{releases_path}: needs at least one release "
                            f"time")
        try:
            return FrameTrace(
                model_name=model,
                releases_s=tuple(releases),
                deadline_s=expect_number(mapping.get("deadline_s"),
                                         spec_path(path, "deadline_s"),
                                         minimum=0.0, exclusive=True),
                fps=expect_number(mapping.get("fps"), spec_path(path, "fps"),
                                  minimum=0.0, exclusive=True),
            )
        except WorkloadError as error:
            raise SpecError(f"{path}: {error}") from None
    check_keys(mapping, _STREAM_KEYS, path)
    deadline = mapping.get("deadline_s")
    if deadline is not None:
        deadline = expect_number(deadline, spec_path(path, "deadline_s"),
                                 minimum=0.0, exclusive=True)
    try:
        return StreamSpec(
            model_name=model,
            fps=expect_number(mapping.get("fps"), spec_path(path, "fps"),
                              minimum=0.0, exclusive=True),
            frames=expect_pos_int(mapping.get("frames"),
                                  spec_path(path, "frames")),
            phase_s=expect_number(mapping.get("phase_s", 0.0),
                                  spec_path(path, "phase_s"), minimum=0.0),
            jitter_s=_jitter_seconds(mapping, path),
            seed=expect_int(mapping.get("seed", 0), spec_path(path, "seed")),
            deadline_s=deadline,
        )
    except WorkloadError as error:
        raise SpecError(f"{path}: {error}") from None


def streaming_from_spec(spec: Dict[str, object],
                        path: str = "streaming") -> StreamingWorkload:
    """Build a streaming workload from its declarative spec.

    Two forms: the suite shorthand (``suite`` plus the
    :func:`streaming_suite` knobs — ``frames`` / ``fps_scale`` /
    ``jitter_ms`` / ``seed`` / ``stagger``) or an explicit ``name`` /
    ``streams`` list, each entry a :func:`stream_from_spec` mapping.
    """
    mapping = expect_mapping(spec, path)
    if "suite" in mapping:
        check_keys(mapping, _SUITE_STREAM_KEYS, path)
        suite = expect_choice(mapping["suite"], WORKLOAD_SUITES,
                              spec_path(path, "suite"))
        return streaming_suite(
            suite,
            frames=expect_pos_int(mapping.get("frames", 8),
                                  spec_path(path, "frames")),
            fps_scale=expect_number(mapping.get("fps_scale", 1.0),
                                    spec_path(path, "fps_scale"),
                                    minimum=0.0, exclusive=True),
            jitter_s=_jitter_seconds(mapping, path),
            seed=expect_int(mapping.get("seed", 0), spec_path(path, "seed")),
            stagger=expect_bool(mapping.get("stagger", True),
                                spec_path(path, "stagger")),
        )
    check_keys(mapping, ("name", "streams"), path)
    name = expect_str(mapping.get("name", "custom-stream"),
                      spec_path(path, "name"))
    streams_path = spec_path(path, "streams")
    entries = expect_list(mapping.get("streams"), streams_path) \
        if "streams" in mapping else None
    if not entries:
        raise SpecError(f"{streams_path}: needs at least one stream")
    streams = [stream_from_spec(entry, spec_path(streams_path, index))
               for index, entry in enumerate(entries)]
    try:
        return StreamingWorkload(name=name, streams=streams)
    except WorkloadError as error:
        raise SpecError(f"{path}: {error}") from None
