"""Resumable sweep checkpoints.

A design-space sweep is a bag of pure, independently-evaluated tasks, which
makes it trivially checkpointable: persist each completed ``(task id,
result)`` pair and a resumed run only has to execute the tasks that are
missing.  :class:`SweepCheckpoint` is that persistence, laid out as an
append-only stream of frames so recording stays O(1) per task instead of
re-serializing the whole sweep on every flush:

* **Atomic header** — the file starts with a header (``_MAGIC``, the format
  version, then the sweep key framed by its length and a CRC-32 of version
  and key, ``_HEADER``) written via temp file + fsync + ``os.replace``, so
  creating or overwriting a checkpoint can never leave a torn header behind.
  The header is never unpickled: a damaged one is a
  :class:`~repro.exceptions.CheckpointError` before any record is read.
* **Frame-granular appends** — each completed result is appended as its own
  frame: the key and payload lengths and a CRC-32 of both (``_FRAME``), the
  ``scope:task_id`` key, and the payload, the result pickled on its own.  A
  SIGKILL mid-append leaves at most one torn frame at the tail, which resume
  detects and skips; every earlier frame survives.
* **Self-checking** — resume unpickles a payload only after its frame's
  lengths fit the file and its CRC holds.  A frame that fails either (a
  flipped bit, a mangled length) is treated like a torn tail: it and
  whatever follows it are dropped and their tasks re-run, so a damaged file
  never loads a different result.
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
import io
import json
import os
import pickle
import struct
import tempfile
import zlib
from typing import Dict, Optional

from repro.core.evaluator import EvaluationResult
from repro.exceptions import CheckpointError

#: Format version written to (and required from) checkpoint files.
CHECKPOINT_FORMAT_VERSION = 4

#: Scope used when the caller does not namespace its tasks.
DEFAULT_SCOPE = "sweep"

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Errors reading a checkpoint or unpickling a damaged or foreign pickle
#: from it raise (a damaged length can ask for more memory than there is).
_UNPICKLE_ERRORS = (pickle.UnpicklingError, AttributeError, ImportError,
                    IndexError, KeyError, TypeError, ValueError, EOFError,
                    OverflowError, MemoryError, OSError)

#: A record frame's head: key length, payload length, CRC-32 of key+payload.
_FRAME = struct.Struct("<III")

#: First bytes of a format-4 (or later) file.  Formats 1-3 began with a
#: pickled header instead, whose first byte is pickle's PROTO opcode.
_MAGIC = b"HERALDCK"
_PICKLE_PROTO = b"\x80"

#: The header after the magic: format version, sweep-key length, CRC-32 of
#: the version and key bytes.
_HEADER = struct.Struct("<III")


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
            key = self.sweep_key.encode("utf-8")
            version = CHECKPOINT_FORMAT_VERSION.to_bytes(4, "little")
            _atomic_write(self.path, _MAGIC + _HEADER.pack(
                CHECKPOINT_FORMAT_VERSION, len(key),
                zlib.crc32(version + key)) + key)
        self._handle = open(self.path, "ab")

    def _legacy_version(self, data: bytes) -> object:
        """The version a format 1-3 file's pickled header names."""
        try:
            header = pickle.load(io.BytesIO(data))
        except _UNPICKLE_ERRORS as error:
            raise CheckpointError(
                f"checkpoint {self.path} is unreadable: {error}") from error
        if not isinstance(header, dict):
            raise CheckpointError(
                f"checkpoint {self.path} has an unexpected layout")
        return header.get("version")

    def _read_header(self, data: bytes) -> int:
        """Check the header; returns the offset of the first record frame."""
        if data.startswith(_PICKLE_PROTO):
            raise CheckpointError(
                f"checkpoint {self.path} has unsupported version "
                f"{self._legacy_version(data)!r} (this build writes "
                f"{CHECKPOINT_FORMAT_VERSION})")
        start = len(_MAGIC) + _HEADER.size
        if not data.startswith(_MAGIC) or len(data) < start:
            raise CheckpointError(
                f"checkpoint {self.path} is unreadable: no checkpoint header")
        version, key_size, crc = _HEADER.unpack_from(data, len(_MAGIC))
        key = data[start:start + key_size]
        if (len(key) != key_size
                or zlib.crc32(data[len(_MAGIC):len(_MAGIC) + 4] + key) != crc):
            raise CheckpointError(
                f"checkpoint {self.path} is unreadable: damaged header")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has unsupported version "
                f"{version!r} (this build writes "
                f"{CHECKPOINT_FORMAT_VERSION})")
        recorded_key = key.decode("utf-8", "replace")
        if recorded_key != self.sweep_key:
            raise CheckpointError(
                f"checkpoint {self.path} was recorded for a different "
                f"sweep configuration (key {recorded_key!r}, expected "
                f"{self.sweep_key!r}); refusing to splice results "
                f"across configurations")
        return start + key_size

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return  # Nothing to resume from: behave like a fresh run.
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except OSError as error:
            raise CheckpointError(
                f"checkpoint {self.path} is unreadable: {error}") from error
        good = self._read_header(data)
        while good + _FRAME.size <= len(data):
            key_size, payload_size, crc = _FRAME.unpack_from(data, good)
            start = good + _FRAME.size
            end = start + key_size + payload_size
            body = data[start:end]
            if end > len(data) or zlib.crc32(body) != crc:
                break  # A torn tail or a damaged frame: bounded loss.
            try:
                result = pickle.loads(body[key_size:])
            except _UNPICKLE_ERRORS:
                break  # Written by a build whose classes differ.
            self._completed[body[:key_size].decode("utf-8")] = result
            good = end
        if good < len(data):
            # New frames go right after the last good one, not after bytes
            # every later resume would stop at.
            os.truncate(self.path, good)
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
        key_bytes = key.encode("utf-8")
        payload = pickle.dumps(result, _PROTOCOL)
        body = key_bytes + payload
        self._handle.write(
            _FRAME.pack(len(key_bytes), len(payload), zlib.crc32(body)) + body)
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
