"""Persistent spill of the cost model's per-(layer, dataflow, hardware) memo.

The :class:`~repro.maestro.cost.CostModel` memo is what makes Herald's
co-exploration tractable, but it only lives for one process.  A
:class:`PersistentCostCache` spills it to a JSON file so repeated sweeps —
across CLI invocations, benchmark runs, or worker processes — start warm: a
second run of the same DSE performs zero cold cost-model evaluations.

The file format is a plain JSON document (one ``entries`` list of serialized
``(cache key, LayerCost)`` pairs).  A corrupted or unreadable file is treated
as an empty cache — the sweep simply starts cold — so a half-written file can
never break an exploration.  Writes are crash-safe: :meth:`save` goes through
a sibling temp file that is fsynced and ``os.replace``\\ d over the target, so
a kill mid-save leaves the previous complete file; the corrupted-fallback
path therefore only triggers for external damage, and when it does the
:attr:`PersistentCostCache.fallback_count` counter records it explicitly.

For long sweeps the cache can additionally keep an **append-only journal**
(``<path>.journal``): :meth:`attach` hooks the cost model so every newly
computed memo entry is buffered and appended — one JSON line per entry,
fsynced — every ``journal_every`` evaluations.  A killed run then loses at
most ``journal_every - 1`` cost entries: the next :meth:`load` replays the
journal over the main file (tolerating a torn final line) and the next
:meth:`save` folds the replayed entries in and truncates the journal.

Since format version 3 the cache key is shape-based: the layer component of
the key is :attr:`~repro.models.layer.Layer.shape_key` (no ``name`` /
``model_name``), derived on load from the representative layer embedded in the
stored :class:`~repro.maestro.cost.LayerCost`.  A file carrying any other
version header (older versions used full-``Layer`` keys) is treated like any
other unreadable file: a counted cold start, rewritten in the current format
on the next save, so the two key schemes never mix.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.maestro.cost import CostModel, LayerCost
from repro.models.layer import Layer, LayerType

#: Format version written to (and required from) cache files.  Version 3
#: switched the key scheme from full ``Layer`` identity to ``Layer.shape_key``.
CACHE_FORMAT_VERSION = 3


def model_fingerprint(cost_model: CostModel) -> str:
    """A stable fingerprint of the cost-model configuration.

    The in-memory memo key identifies a dataflow only by name and assumes one
    fixed energy table, which is safe inside a single :class:`CostModel` but
    not across processes: entries computed under one configuration must not be
    served to a model with a different energy table or RDA style set.  The
    fingerprint is stored in the cache file and checked on :meth:`warm` /
    :meth:`capture`.
    """
    return json.dumps({
        "energy_table": dataclasses.asdict(cost_model.energy_table),
        "rda_styles": sorted(style.name for style in cost_model.rda_styles),
    }, sort_keys=True)

#: Layer fields serialized for the representative layer embedded in each
#: stored cost (the shape dimensions double as the entry's cache identity).
_LAYER_FIELDS = ("name", "k", "c", "y", "x", "r", "s", "stride", "upscale", "model_name")


def _layer_to_json(layer: Layer) -> Dict[str, object]:
    payload: Dict[str, object] = {field: getattr(layer, field) for field in _LAYER_FIELDS}
    payload["layer_type"] = layer.layer_type.value
    return payload


def _layer_from_json(payload: Dict[str, object]) -> Layer:
    return Layer(
        layer_type=LayerType(payload["layer_type"]),
        **{field: payload[field] for field in _LAYER_FIELDS},
    )


def _cost_to_json(cost: LayerCost) -> Dict[str, object]:
    return {
        "layer": _layer_to_json(cost.layer),
        "dataflow_name": cost.dataflow_name,
        "num_pes": cost.num_pes,
        "compute_cycles": cost.compute_cycles,
        "noc_cycles": cost.noc_cycles,
        "dram_cycles": cost.dram_cycles,
        "overhead_cycles": cost.overhead_cycles,
        "energy_compute_pj": cost.energy_compute_pj,
        "energy_rf_pj": cost.energy_rf_pj,
        "energy_local_pj": cost.energy_local_pj,
        "energy_noc_pj": cost.energy_noc_pj,
        "energy_sram_pj": cost.energy_sram_pj,
        "energy_dram_pj": cost.energy_dram_pj,
        "energy_overhead_pj": cost.energy_overhead_pj,
        "utilisation": cost.utilisation,
        "clock_hz": cost.clock_hz,
    }


def _cost_from_json(payload: Dict[str, object]) -> LayerCost:
    fields = dict(payload)
    fields["layer"] = _layer_from_json(fields["layer"])
    return LayerCost(**fields)


def _entry_to_json(key: Tuple, cost: LayerCost) -> Dict[str, object]:
    # Key layout mirrors ``CostModel._key``: (shape_key, dataflow name or
    # None, num_pes, rounded NoC bandwidth in bytes/s, rounded DRAM bandwidth
    # in bytes/s, buffer bytes, clock Hz).  The shape component is not stored
    # separately: it is recovered from the representative layer embedded in
    # the cost, which by construction has exactly the key's shape.
    _, dataflow_name, num_pes, bandwidth, dram_bandwidth, buffer_bytes, clock_hz = key
    return {
        "dataflow": dataflow_name,
        "num_pes": num_pes,
        "bandwidth_bytes_per_s": bandwidth,
        "dram_bandwidth_bytes_per_s": dram_bandwidth,
        "buffer_bytes": buffer_bytes,
        "clock_hz": clock_hz,
        "cost": _cost_to_json(cost),
    }


def _entry_from_json(payload: Dict[str, object]) -> Tuple[Tuple, LayerCost]:
    cost = _cost_from_json(payload["cost"])
    key = (
        cost.layer.shape_key,
        payload["dataflow"],
        payload["num_pes"],
        payload["bandwidth_bytes_per_s"],
        payload["dram_bandwidth_bytes_per_s"],
        payload["buffer_bytes"],
        payload["clock_hz"],
    )
    return key, cost


class PersistentCostCache:
    """A cost-model memo that survives process restarts.

    Parameters
    ----------
    path:
        JSON file the memo is spilled to.  A missing file is an empty cache;
        an unreadable or malformed file is treated as empty as well (the
        :attr:`corrupted` flag records that this happened and
        :attr:`fallback_count` counts how many times it has).
    autoload:
        Load the file immediately (default).  Pass ``False`` to start empty
        and call :meth:`load` explicitly.
    journal_every:
        When > 0, every ``journal_every`` newly computed memo entries are
        appended (fsynced) to the sibling ``<path>.journal`` file, bounding
        how much cost-model work a killed run can lose.  Requires
        :meth:`attach`\\ ing the cost model.  0 disables journalling.
    """

    def __init__(self, path: str, autoload: bool = True,
                 journal_every: int = 0) -> None:
        if journal_every < 0:
            raise ReproError(
                f"journal_every must be >= 0 (got {journal_every})")
        self.path = path
        self.journal_every = journal_every
        self.corrupted = False
        #: Times a load fell back to a cold start on a damaged file.  The
        #: fallback keeps sweeps running, but it silently costs a warm cache —
        #: callers surface this counter as an explicit warning.
        self.fallback_count = 0
        #: Entries recovered from the append-only journal on the last load.
        self.journal_replayed = 0
        self._entries: Dict[Tuple, LayerCost] = {}
        self._fingerprint: Optional[str] = None
        self._dirty = False
        self._journal_buffer: List[Tuple[Tuple, LayerCost]] = []
        if autoload:
            self.load()

    @property
    def journal_path(self) -> str:
        """The sibling append-only journal file."""
        return self.path + ".journal"

    # ------------------------------------------------------------------
    # File I/O
    # ------------------------------------------------------------------
    def load(self) -> int:
        """(Re)load entries from :attr:`path`; returns the entry count.

        Any failure — missing file, bad JSON, wrong version, malformed
        entries — falls back to an empty cache rather than raising, so a
        corrupted cache file degrades to a cold start (counted in
        :attr:`fallback_count`).  Entries surviving only in the append-only
        journal of a killed run are replayed on top.
        """
        self._entries = {}
        self._fingerprint = None
        self._dirty = False
        self.corrupted = False
        self.journal_replayed = 0
        self._journal_buffer = []
        if os.path.exists(self.path):
            try:
                with open(self.path, "r") as handle:
                    payload = json.load(handle)
                version = payload.get("version")
                if version != CACHE_FORMAT_VERSION:
                    raise ValueError(f"unsupported cache version {version!r}")
                fingerprint = payload["fingerprint"]
                entries = {}
                for raw in payload["entries"]:
                    key, cost = _entry_from_json(raw)
                    entries[key] = cost
                self._fingerprint = fingerprint
                self._entries = entries
            # ReproError covers semantically invalid entries (e.g. a
            # hand-edited layer with k=0, rejected by Layer.__post_init__):
            # corruption of any kind degrades to a cold start, never to a
            # failed exploration.
            except (OSError, ValueError, KeyError, TypeError, ReproError):
                self._entries = {}
                self._fingerprint = None
                self.corrupted = True
                self.fallback_count += 1
        self._replay_journal()
        return len(self._entries)

    def _replay_journal(self) -> None:
        """Recover entries a killed run appended after its last full save.

        The journal is strictly newer than the main file (a successful save
        truncates it), so replayed entries win over nothing and merge over
        the loaded set.  A torn final line — the expected shape of a
        mid-append kill — is skipped; any earlier damage stops the replay at
        the last intact line rather than discarding the whole journal.
        """
        if not os.path.exists(self.journal_path):
            return
        replayed = 0
        try:
            with open(self.journal_path, "r") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        key, cost = _entry_from_json(json.loads(line))
                    except (ValueError, KeyError, TypeError, ReproError):
                        break
                    if key not in self._entries:
                        self._entries[key] = cost
                        replayed += 1
        except OSError:
            return
        self.journal_replayed = replayed
        if replayed:
            # The recovered entries only exist in the journal; mark dirty so
            # the next save folds them into the main file.
            self._dirty = True

    def save(self) -> int:
        """Atomically write all entries to :attr:`path`; returns the count."""
        # Journalled entries not yet captured from the model fold into this
        # save, so truncating the journal below can never drop them.
        for key, cost in self._journal_buffer:
            if key not in self._entries:
                self._entries[key] = cost
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "fingerprint": self._fingerprint,
            "entries": [_entry_to_json(key, cost) for key, cost in self._entries.items()],
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        # Write-then-fsync-then-rename so a crash at any instant leaves either
        # the old complete file or the new complete file on disk.
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        self._dirty = False
        # Every journalled entry is now in the main file; an empty journal
        # (rather than a deleted one) keeps replay-after-save a no-op without
        # racing a concurrent reader of the path.
        self._journal_buffer = []
        if os.path.exists(self.journal_path):
            try:
                with open(self.journal_path, "w"):
                    pass
            except OSError:
                pass
        return len(self._entries)

    def save_if_dirty(self) -> int:
        """Save only when entries changed since the last load/save.

        Avoids rewriting a large cache file after a fully warm sweep.  Returns
        the number of entries written, or ``-1`` when nothing needed saving.
        """
        if not self._dirty and not self.corrupted and os.path.exists(self.path):
            return -1
        return self.save()

    # ------------------------------------------------------------------
    # Cost-model exchange
    # ------------------------------------------------------------------
    def warm(self, cost_model: CostModel) -> int:
        """Install every cached entry into ``cost_model``; returns the count.

        Entries persisted under a different cost-model configuration (energy
        table, RDA style set) are never installed: the cache is discarded and
        the sweep starts cold instead of silently serving stale costs.
        """
        if not self._compatible_with(cost_model):
            self._entries = {}
            self._fingerprint = None
            return 0
        for key, cost in self._entries.items():
            cost_model.install_cached(key, cost)
        return len(self._entries)

    def capture(self, cost_model: CostModel) -> int:
        """Absorb entries from ``cost_model`` that this cache does not hold yet.

        Returns the number of newly captured entries.  Call :meth:`save`
        afterwards to persist them.  If the cache was populated under a
        different cost-model configuration, its stale entries are dropped
        first.
        """
        if not self._compatible_with(cost_model):
            self._entries = {}
        self._fingerprint = model_fingerprint(cost_model)
        new = 0
        for key, cost in cost_model.cache_items():
            if key not in self._entries:
                self._entries[key] = cost
                new += 1
        if new:
            self._dirty = True
        return new

    def absorb(self, entries: List[Tuple[Tuple, LayerCost]]) -> int:
        """Merge raw ``(key, cost)`` pairs (e.g. from worker processes)."""
        new = 0
        for key, cost in entries:
            if key not in self._entries:
                self._entries[key] = cost
                new += 1
                if self.journal_every:
                    self._journal(key, cost)
        if new:
            self._dirty = True
        return new

    # ------------------------------------------------------------------
    # Append-only journal
    # ------------------------------------------------------------------
    def attach(self, cost_model: CostModel) -> None:
        """Journal every entry ``cost_model`` computes from now on.

        Installs the model's ``new_entry_hook`` (no-op when ``journal_every``
        is 0).  The hook is deliberately not shipped to pool workers — the
        parent journals worker entries when it absorbs them.
        """
        if self.journal_every:
            cost_model.new_entry_hook = self._journal

    def _journal(self, key: Tuple, cost: LayerCost) -> None:
        self._journal_buffer.append((key, cost))
        if len(self._journal_buffer) >= self.journal_every:
            self.flush_journal()

    def flush_journal(self) -> int:
        """Append buffered entries to the journal file; returns the count.

        Appends are fsynced, so once this returns the entries survive a
        SIGKILL.  A journal I/O failure must never fail the sweep: the
        entries stay buffered (still folded into the next full save) and the
        error is recorded like a save error would be.
        """
        if not self._journal_buffer:
            return 0
        lines = [json.dumps(_entry_to_json(key, cost))
                 for key, cost in self._journal_buffer]
        directory = os.path.dirname(os.path.abspath(self.journal_path))
        try:
            os.makedirs(directory, exist_ok=True)
            with open(self.journal_path, "a") as handle:
                handle.write("\n".join(lines) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            return 0
        flushed = len(self._journal_buffer)
        self._journal_buffer = []
        return flushed

    def _compatible_with(self, cost_model: CostModel) -> bool:
        return (self._fingerprint is None
                or self._fingerprint == model_fingerprint(cost_model))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def describe(self) -> str:
        """One-line description used by the CLI."""
        if self.corrupted:
            state = ("corrupted, starting cold "
                     f"(fallback #{self.fallback_count})")
        else:
            state = f"{len(self)} entries"
        if self.journal_replayed:
            state += f", {self.journal_replayed} replayed from journal"
        return f"persistent cost cache at {self.path} ({state})"
