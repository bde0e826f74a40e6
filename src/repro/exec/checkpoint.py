"""Resumable sweep checkpoints.

A design-space sweep is a bag of pure, independently-evaluated tasks, which
makes it trivially checkpointable: persist each completed ``(task id,
result)`` pair and a resumed run only has to execute the tasks that are
missing.  :class:`SweepCheckpoint` is that persistence, laid out as an
append-only pickle stream so recording stays O(1) per task instead of
re-serializing the whole sweep on every flush:

* **Atomic header** — the file starts with a header frame (format version +
  sweep key) written via temp file + fsync + ``os.replace``, so creating or
  overwriting a checkpoint can never leave a torn header behind.
* **Frame-granular appends** — each completed result is appended as its own
  pickle frame.  A SIGKILL mid-append leaves at most one torn frame at the
  tail, which resume detects and skips; every earlier frame survives.
* **Bounded loss** — frames are pushed to the OS on every record (so a
  killed *process* loses nothing already recorded) and fsynced every
  ``flush_every`` records (bounding what a machine crash can lose).
* **Keyed** — the header records a ``sweep_key`` (hash of the canonical
  experiment configuration).  Resuming under a different configuration is a
  :class:`~repro.exceptions.CheckpointError`, not a silently wrong report.
* **Scoped** — one experiment can run several task namespaces (the DSE
  rounds, each fleet size probed by ``min_chips_for_sla``); records are
  stored under ``scope:task_id`` so the namespaces cannot collide.

Results are stored with :mod:`pickle` — the same serialization the process
pool already trusts to ship :class:`~repro.core.evaluator.EvaluationResult`
between processes — so a resumed result is byte-for-byte the object the
interrupted run computed, and the resumed report is bit-identical to an
uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from typing import Dict, Optional

from repro.core.evaluator import EvaluationResult
from repro.exceptions import CheckpointError

#: Format version written to (and required from) checkpoint files.
CHECKPOINT_FORMAT_VERSION = 2

#: Scope used when the caller does not namespace its tasks.
DEFAULT_SCOPE = "sweep"

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Errors that mark the torn tail a mid-append kill can leave behind.
_TORN_FRAME_ERRORS = (pickle.UnpicklingError, AttributeError, ImportError,
                      IndexError, ValueError, EOFError, OSError)


def sweep_key_from(config: object) -> str:
    """Stable key for a sweep configuration (any JSON-serializable value).

    The runner passes the experiment spec's raw mapping; two runs agree on
    the key iff they agree on the canonical JSON of their configuration.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp file + fsync + ``os.replace``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    # Best-effort directory fsync so the rename itself is durable.
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


class SweepCheckpoint:
    """Crash-safe store of a sweep's completed task results.

    Parameters
    ----------
    path:
        Checkpoint file.
    sweep_key:
        Key identifying the sweep configuration (see :func:`sweep_key_from`).
    resume:
        When true, an existing file is loaded (and its key/version checked)
        and new records append to it.  When false a fresh header overwrites
        whatever was there — explicitly opting out of resume must never
        splice a stale run's results into a new one.
    flush_every:
        Records between fsyncs (>= 1).
    """

    def __init__(self, path: str, sweep_key: str, resume: bool = False,
                 flush_every: int = 16) -> None:
        if flush_every < 1:
            raise CheckpointError(
                f"flush_every must be >= 1 (got {flush_every})")
        self.path = path
        self.sweep_key = sweep_key
        self.flush_every = flush_every
        self._completed: Dict[str, EvaluationResult] = {}
        self._pending = 0
        self._handle = None
        #: Records loaded from an existing file on resume.
        self.loaded_records = 0
        #: Flushes performed (test/diagnostic visibility).
        self.flush_count = 0
        if resume:
            self._load()
        self._open_journal(truncate=not resume)

    # ------------------------------------------------------------------
    # File I/O
    # ------------------------------------------------------------------
    def _open_journal(self, truncate: bool) -> None:
        if truncate or not os.path.exists(self.path):
            header = {"version": CHECKPOINT_FORMAT_VERSION,
                      "sweep_key": self.sweep_key}
            _atomic_write(self.path, pickle.dumps(header, _PROTOCOL))
        self._handle = open(self.path, "ab")

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return  # Nothing to resume from: behave like a fresh run.
        try:
            handle = open(self.path, "rb")
        except OSError as error:
            raise CheckpointError(
                f"checkpoint {self.path} is unreadable: {error}") from error
        with handle:
            try:
                header = pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError, IndexError) as error:
                raise CheckpointError(
                    f"checkpoint {self.path} is unreadable: "
                    f"{error}") from error
            if not isinstance(header, dict):
                raise CheckpointError(
                    f"checkpoint {self.path} has an unexpected layout")
            version = header.get("version")
            if version != CHECKPOINT_FORMAT_VERSION:
                raise CheckpointError(
                    f"checkpoint {self.path} has unsupported version "
                    f"{version!r} (this build writes "
                    f"{CHECKPOINT_FORMAT_VERSION})")
            recorded_key = header.get("sweep_key")
            if recorded_key != self.sweep_key:
                raise CheckpointError(
                    f"checkpoint {self.path} was recorded for a different "
                    f"sweep configuration (key {recorded_key!r}, expected "
                    f"{self.sweep_key!r}); refusing to splice results "
                    f"across configurations")
            # Snapshot-style headers carry their records inline.
            inline = header.get("completed")
            if inline is not None:
                if not isinstance(inline, dict):
                    raise CheckpointError(
                        f"checkpoint {self.path} has an unexpected layout")
                self._completed.update(inline)
            while True:
                try:
                    frame = pickle.load(handle)
                except EOFError:
                    break
                except _TORN_FRAME_ERRORS:
                    break  # Torn tail from a mid-append kill: bounded loss.
                if isinstance(frame, tuple) and len(frame) == 2:
                    self._completed[frame[0]] = frame[1]
        self.loaded_records = len(self._completed)

    def flush(self) -> int:
        """Fsync the journal; returns the number of stored records."""
        if self._handle is not None and not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self._pending = 0
        self.flush_count += 1
        return len(self._completed)

    def close(self) -> None:
        """Fsync and release the journal handle (reopened checkpoints and
        process exit make this optional, but explicit is tidier)."""
        if self._handle is not None and not self._handle.closed:
            self.flush()
            self._handle.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Record/query
    # ------------------------------------------------------------------
    @staticmethod
    def _record_key(scope: str, task_id: int) -> str:
        return f"{scope}:{task_id}"

    def record(self, scope: str, task_id: int,
               result: EvaluationResult) -> None:
        """Append one completed result; fsyncs every ``flush_every`` records."""
        key = self._record_key(scope, task_id)
        if key not in self._completed:
            self._pending += 1
        self._completed[key] = result
        pickle.dump((key, result), self._handle, _PROTOCOL)
        self._handle.flush()
        if self._pending >= self.flush_every:
            self.flush()

    def get(self, scope: str, task_id: int) -> Optional[EvaluationResult]:
        """The stored result for one task, or ``None``."""
        return self._completed.get(self._record_key(scope, task_id))

    def __len__(self) -> int:
        return len(self._completed)

    def describe(self) -> str:
        """One-line description used by the CLI."""
        resumed = (f", {self.loaded_records} resumed"
                   if self.loaded_records else "")
        return (f"checkpoint at {self.path} ({len(self)} records"
                f"{resumed}, flush every {self.flush_every})")
