"""Versioned state store with incremental (delta) checkpoints (§6.1).

The store holds each stateful operator's keyed state and persists it
under ``<checkpoint>/state/<operator>/`` as a chain of record-framed
files (:mod:`repro.streaming.statefile`):

* ``<version>.delta.jsonl`` — the keys written/removed since the
  previous version (incremental checkpoint);
* ``<version>.base.jsonl`` — the full state, written when the deltas
  since the newest base weigh as much as that base (see
  :meth:`OperatorStateHandle.prepare_commit`), which bounds both recovery
  replay and write amplification by 2× without a tuning knob;
* ``<version>.{base,delta}.block`` in their place when the handle's
  value codec declares a row schema (values that are packed rows): the
  values' own bytes in binary frames, restored without a decode.

``restore(version)`` loads the nearest base at or below the target and
replays deltas — this is what enables both crash recovery and manual
rollback to *any* retained epoch (§7.2).  Keys are JSON-encoded tuples,
values any JSON-serializable object, one line per key, keeping the
on-disk format as human-readable as the paper's WAL.  Chains written
before this format (``*.snapshot.json`` / ``*.delta.json``) restore
unchanged.

In memory the handle is one dict from encoded key to value, with one
expiry heap beside it.  The on-disk format is sorted by encoded key and
records no partition count, so a checkpoint restores into any handle.
"""

from __future__ import annotations

import heapq
import json
import os
from json.encoder import encode_basestring_ascii as _encode_str
from math import isfinite
from operator import itemgetter

import numpy as np

from repro.observability import metrics
from repro.storage import (
    atomic_write_stream,
    deferred_fsync,
    list_files,
    repair_torn_tail,
)
from repro.streaming import statefile
from repro.streaming.statefile import TOMBSTONE, StateFileWriter
from repro.testing.faults import fault_point

#: A checkpoint file weighs at least this much in the rebase rule, so a
#: long chain of tiny deltas is bounded in file count too.
MIN_FILE_WEIGHT = 4096
#: Storage engines a :class:`StateStore` can build handles on.
BACKENDS = ("dict", "tiered")
#: Tiered backend: memtable budget (bytes) before a spill to a sorted run.
DEFAULT_MEMTABLE_BYTES = 64 * 1024 * 1024


class PendingStateWrite:
    """One operator's checkpoint of one version, prepared and not yet
    written: :meth:`execute` is the only way operator state reaches disk.

    :meth:`OperatorStateHandle.prepare_commit` makes it.  Its chunks read
    the handle's live values as they are written, so either it is
    executed before the handle next changes (the sequential engine and
    recovery, which stream each file), or :meth:`capture` serializes it
    first on the thread that owns the handle (the pipelined engine,
    whose flusher writes it while the next epoch runs).  Either way the
    commit's in-memory effects — journals cleared, rebase weights and
    ``last_committed_version`` advanced — happen once, when the chunks
    are spent, and :meth:`execute` writes the same bytes.
    """

    __slots__ = ("operator", "version", "kind", "chunks", "report",
                 "_directory", "_settle")

    def __init__(self, directory: str, version: int, kind: str, chunks,
                 settle):
        self.operator = os.path.basename(directory)
        self.version = version
        self.kind = kind
        self.chunks = chunks
        self.report = None
        self._directory = directory
        #: Applies the commit's in-memory effects and returns its report.
        self._settle = settle

    def capture(self) -> None:
        """Serialize the file now, so the handle may change before
        :meth:`execute` runs."""
        self.chunks = list(self.chunks)
        self._settled()

    def _settled(self) -> dict:
        if self._settle is not None:
            self.report, self._settle = self._settle(), None
        return self.report

    def execute(self, group=None) -> dict:
        """Atomically write ``<version>.<kind>``, its fsync deferred into
        ``group`` if one is given; returns the commit's report.

        A chain file first drops any other chain file of its version.
        Which kind a version gets depends on the bytes before it, so a
        re-run after a rollback (§7.2) may decide differently than the
        run that left the newer files behind — and a stale base must
        never anchor a later restore.  Dropping before writing is the
        safe order: a crash in between leaves the version absent, and
        recovery replays it from the WAL.
        """
        fault_point("state.commit", version=self.version,
                    operator=self.operator)
        prefix = os.path.join(self._directory, f"{self.version:010d}.")
        chain = statefile.BASE_KINDS + statefile.DELTA_KINDS
        for other in chain if self.kind in chain else ():
            if other != self.kind:
                try:
                    os.unlink(prefix + other)
                except FileNotFoundError:
                    pass
        with deferred_fsync(group):
            atomic_write_stream(prefix + self.kind, self.chunks)
        self.chunks = None  # free the serialized payload
        return self._settled()


def write_checkpoint(jobs, group=None) -> list:
    """Write one version's prepared checkpoint (:meth:`StateStore
    .prepare_commit_all`), operator by operator; returns the reports.

    The one write loop: the sequential engine and recovery run it
    inline, each file fsyncing itself; the pipelined flusher runs it
    with its :class:`~repro.storage.SyncGroup`.  ``state.commit_all``
    fires between two operators' writes, the skew
    :meth:`StateStore.restore_all` must reconcile; a crash at
    ``state.async_flush_crash`` models the flusher dying before one.
    """
    reports = []
    for i, job in enumerate(jobs):
        if i:
            fault_point("state.commit_all", version=job.version,
                        operator=jobs[i - 1].operator, committed=i,
                        total=len(jobs))
        if group is not None:
            fault_point("state.async_flush_crash", version=job.version,
                        operator=job.operator)
        reports.append(job.execute(group))
    return reports


def encode_key(key) -> str:
    """Encode a key (scalar or tuple) as a canonical JSON string.

    Byte-identical to ``json.dumps(list(key))`` (``json.dumps(key)`` for
    a scalar), the on-disk key format, but written by hand for the three
    types keys are made of — under a microsecond, so handles cache
    nothing per key.  Anything else (bool, None, nan/inf, a nested list,
    a subclass) sends the whole key through ``json.dumps``.  A float
    ``-0.0`` is written as ``0.0``: the two are one key, as they are
    one value to ``==`` and to the batch engine's grouping.
    """
    values = key if isinstance(key, tuple) else (key,)
    parts = []
    for value in values:
        kind = type(value)
        if kind is int:
            parts.append(str(value))
        elif kind is str:
            parts.append(_encode_str(value))
        elif kind is float and isfinite(value):
            parts.append(repr(value + 0.0))
        else:
            folded = [v + 0.0 if type(v) is float else v for v in values]
            return json.dumps(folded if values is key else folded[0])
    return "[" + ", ".join(parts) + "]" if values is key else parts[0]


def encode_keys(columns) -> list:
    """:func:`encode_key` of each row of the key ``columns`` as a
    tuple, in one ``str.format`` a key when every column is int64 or
    finite float64."""
    cells, formats = [], []
    for column in columns:
        if column.dtype == np.int64:
            cells.append(column.tolist())
            formats.append("{}")
        elif column.dtype == np.float64 and np.isfinite(column).all():
            cells.append((column + 0.0).tolist())
            formats.append("{!r}")
        else:
            return [encode_key(key)
                    for key in zip(*[c.tolist() for c in columns])]
    return list(map(("[" + ", ".join(formats) + "]").format, *cells))


def decode_key(text: str):
    """Invert :func:`encode_key` (lists become tuples)."""
    value = json.loads(text)
    if isinstance(value, list):
        return tuple(value)
    return value


_MISSING = object()
#: A put's encoded key and its value.
_FIRST, _THIRD = itemgetter(0), itemgetter(2)


class OperatorStateHandle:
    """One operator's keyed state, with dirty tracking for delta commits.

    Per-access cost is independent of total state size (the
    delta-proportionality the paper claims in §5.2/§6.1), and nothing is
    kept per key beside the key's entry in ``data``:

    * a key is encoded on each access by :func:`encode_key` (no cache);
      an operator's kernel encodes each of its keys once and passes the
      strings to both batch calls, ``get_many(encoded)`` and
      ``apply(puts, removes)``;
    * an **expiry index** (a min-heap with lazy invalidation, maintained
      on ``put``/``remove``) lets watermark-gated operators pop only
      finalized keys instead of scanning the full store; it is not
      persisted but rebuilt from data on ``restore``.
    """

    #: Checkpoint kinds this backend can restore from.  The tiered
    #: backend overrides this to add its manifests; keeping the base
    #: restore blind to unknown kinds is what makes a checkpoint
    #: directory written by one backend readable by the other.
    _RESTORE_KINDS = frozenset(statefile.BASE_KINDS + statefile.DELTA_KINDS)

    def __init__(self, directory: str):
        self._directory = directory
        #: encoded key -> value: the working state.
        self.data = {}
        #: Keys written / removed since the last commit (the delta).
        self.dirty = set()
        self.removed = set()
        #: encoded key -> currently valid expiry (heap entries that
        #: disagree with this map are stale and dropped lazily).
        self.expiry = {}
        self.heap = []
        self._expiry_fn = None
        #: ``set_row_count``'s units per row, None to count keys.
        self._row_stride = None
        #: The value codec (``set_codec``): None keeps values as stored.
        self._to_disk = self._from_disk = None
        self._schema = None
        #: Running totals, so neither ``len()`` nor ``rows`` ever scans:
        #: live keys, and buffered rows as sized by ``set_row_count``.
        self._num_keys = 0
        self._num_rows = 0
        #: The rebase rule's two inputs: the weight of the newest base
        #: on disk and of the deltas since it — a pure function of the
        #: files ``restore`` replayed plus the commits made since.
        self._base_weight = 0
        self._delta_weight = 0
        self.last_committed_version = None
        os.makedirs(directory, exist_ok=True)
        #: A crash mid-commit can leave the newest checkpoint file torn
        #: (visible but truncated); quarantining it on open makes
        #: restore fall back to the previous version, which recovery
        #: then replays forward from the WAL — instead of the restart
        #: dying on an unreadable file every time.
        self.repaired = repair_torn_tail(
            directory, statefile.SUFFIXES, statefile.verify)

    # ------------------------------------------------------------------
    # Keyed access (in-memory working state)
    # ------------------------------------------------------------------
    def _read(self, encoded: str, default=None):
        """An encoded key's value."""
        return self.data.get(encoded, default)

    def get(self, key, default=None):
        """Value for a key, or default."""
        if metrics._registry is not None:
            metrics._registry.counter("state.gets").inc()
        return self._read(encode_key(key), default)

    def get_many(self, encoded) -> list:
        """Values in order for the keys whose :func:`encode_key` strings
        are ``encoded``, None where a key has no state."""
        if metrics._registry is not None:
            metrics._registry.counter("state.gets").inc(len(encoded))
        return list(map(self.data.get, encoded))

    def contains(self, key) -> bool:
        """True if the key has state."""
        return self._read(encode_key(key), _MISSING) is not _MISSING

    def put(self, key, value) -> None:
        """Set a key's state (JSON-serializable value)."""
        self._put(encode_key(key), key, value)

    def remove(self, key) -> None:
        """Delete a key's state."""
        self._remove(encode_key(key))

    def apply(self, puts, removes) -> None:
        """Apply a kernel's deferred writes: ``puts`` as ``(encoded, key,
        value)`` triples, then ``removes`` as ``(encoded, key)`` pairs,
        ``encoded`` being :func:`encode_key` of ``key`` (the decoded key
        feeds the expiry index), each key once.  The puts land in bulk —
        one ``dict.update``, one ``set.update`` — with the same effect
        as :meth:`put` for each in order."""
        if puts:
            self._put_many(puts)
        for encoded, _key in removes:
            self._remove(encoded)

    def _put_many(self, puts) -> None:
        if metrics._registry is not None:
            metrics._registry.counter("state.puts").inc(len(puts))
        data, stride = self.data, self._row_stride
        # Lazily, a column at a time: copies of the puts' columns, alive
        # while the dict and set tables grow, would raise the heap's peak.
        encoded, values = _FIRST, _THIRD
        if stride is not None:
            replaced = filter(None, map(data.get, map(encoded, puts)))
            self._num_rows += (sum(map(len, map(values, puts)))
                               - sum(map(len, replaced))) // stride
        before = len(data)
        data.update(zip(map(encoded, puts), map(values, puts)))
        self._num_keys += len(data) - before
        self.dirty.update(map(encoded, puts))
        if self.removed:
            self.removed.difference_update(map(encoded, puts))
        if self._expiry_fn is not None:
            for enc, key, value in puts:
                self._index_put(enc, key, value)

    def _put(self, encoded: str, key, value) -> None:
        if metrics._registry is not None:
            metrics._registry.counter("state.puts").inc()
        old = self.data.get(encoded, _MISSING)
        if old is _MISSING:
            self._num_keys += 1
        if self._row_stride is not None:
            self._num_rows += (len(value) - (
                0 if old is _MISSING else len(old))) // self._row_stride
        self.data[encoded] = value
        self.dirty.add(encoded)
        self.removed.discard(encoded)
        if self._expiry_fn is not None:
            self._index_put(encoded, key, value)

    def _remove(self, encoded: str) -> None:
        old = self.data.pop(encoded, _MISSING)
        if old is not _MISSING:
            self._num_keys -= 1
            if self._row_stride is not None:
                self._num_rows -= len(old) // self._row_stride
            self.dirty.discard(encoded)
            self.removed.add(encoded)
            self.expiry.pop(encoded, None)
            metrics.count("state.removes")

    # ------------------------------------------------------------------
    # Value codec (in-memory layout vs. checkpoint records)
    # ------------------------------------------------------------------
    def set_codec(self, to_disk, from_disk, schema=None) -> None:
        """Register the value codec: ``to_disk(value)`` is the record a
        checkpoint holds for an in-memory value, ``from_disk(decoded)``
        the in-memory value of a decoded record.  Values cross it
        wherever they cross the disk — commit and restore, and the
        tiered backend's spills and run reads — so an operator can keep
        a compact working layout behind unchanged checkpoint bytes.
        ``schema``, a :class:`~repro.streaming.statefile.RowSchema`,
        declares that every value is packed rows of that schema: the
        dict backend then checkpoints the values themselves as block
        files, and neither direction of the codec runs at commit or on
        restoring a block.
        Register it before the handle holds state (an operator's
        constructor: the engine restores after building the plan)."""
        self._to_disk, self._from_disk = to_disk, from_disk
        self._schema = schema

    def _disk_records(self, records):
        """``(encoded, in-memory value)`` records as a checkpoint holds
        them: the values cross the codec one by one."""
        if self._to_disk is None:
            return records
        return ((encoded, self._disk_value(value))
                for encoded, value in records)

    def _disk_value(self, value):
        """A value (or ``TOMBSTONE``) as a checkpoint record holds it."""
        if self._to_disk is None or value is TOMBSTONE:
            return value
        return self._to_disk(value)

    def _memory_value(self, record):
        """A decoded record (or ``TOMBSTONE``) as the operator holds it."""
        if self._from_disk is None or record is TOMBSTONE:
            return record
        return self._from_disk(record)

    # ------------------------------------------------------------------
    # Buffered-row accounting (monitoring, §7.4)
    # ------------------------------------------------------------------
    def set_row_count(self, stride: int) -> None:
        """Count buffered rows for operators whose values hold several
        rows per key (a join side's): a value of ``len`` n holds
        ``n // stride`` rows.  ``rows`` then follows every put/remove
        incrementally; without it a key counts as one row."""
        self._row_stride = stride
        self._recount_rows()

    def _recount_rows(self) -> None:
        """Re-derive the row total from the working state (restore)."""
        self._num_rows = self._rows_of(self.data.values())

    def _rows_of(self, values) -> int:
        stride = self._row_stride
        return 0 if stride is None else sum(map(len, values)) // stride

    @property
    def rows(self) -> int:
        """Rows buffered in this handle (== keys unless sized)."""
        return self._num_keys if self._row_stride is None else self._num_rows

    # ------------------------------------------------------------------
    # Expiry index (watermark eviction without full scans)
    def close(self) -> None:
        """Release OS resources held for reads (none: state is in memory)."""

    # ------------------------------------------------------------------
    def set_expiry(self, fn) -> None:
        """Register ``fn(decoded_key, value) -> expiry | None`` and index
        existing state.  With an expiry function set, ``pop_expired`` and
        ``next_expiry`` answer watermark questions in O(expired log n)
        rather than O(total keys)."""
        self._expiry_fn = fn
        self._rebuild_expiry_index()

    def _rebuild_expiry_index(self) -> None:
        self.expiry = {}
        self.heap = []
        if self._expiry_fn is None:
            return
        for encoded, value in self.data.items():
            expiry = self._expiry_fn(decode_key(encoded), value)
            if expiry is not None:
                self.expiry[encoded] = expiry
                self.heap.append((expiry, encoded))
        heapq.heapify(self.heap)

    def _index_put(self, encoded: str, key, value) -> None:
        expiry = self._expiry_fn(key, value)
        if expiry is None:
            self.expiry.pop(encoded, None)
        elif self.expiry.get(encoded) != expiry:
            self.expiry[encoded] = expiry
            heapq.heappush(self.heap, (expiry, encoded))

    def reindex(self, key) -> None:
        """Re-register a key's expiry from its current value without
        marking it dirty (used to defer a popped-but-unhandled key)."""
        if self._expiry_fn is None:
            return
        encoded = encode_key(key)
        if encoded in self.data:
            self._index_put(encoded, key, self.data[encoded])

    def next_expiry(self):
        """The smallest live expiry, or None (O(stale) amortized)."""
        heap = self.heap
        while heap:
            expiry, encoded = heap[0]
            if self.expiry.get(encoded) == expiry:
                return expiry
            heapq.heappop(heap)
        return None

    def pop_expired(self, bound) -> list:
        """Pop and return ``[(decoded_key, value), ...]`` for every key
        whose expiry is <= ``bound``, in ``(expiry, encoded key)`` order.

        Popped keys leave the index but not the store: the caller decides
        to ``remove`` them, ``put`` them back (re-indexing under a new
        expiry), or ``reindex`` to defer untouched."""
        heap, expiries = self.heap, self.expiry
        popped = []
        while heap and heap[0][0] <= bound:
            expiry, encoded = heapq.heappop(heap)
            if expiries.get(encoded) != expiry:
                continue  # stale entry: superseded or removed
            del expiries[encoded]
            value = self._read(encoded, _MISSING)
            if value is not _MISSING:
                popped.append((decode_key(encoded), value))
        if popped:
            metrics.count("state.evictions", len(popped))
        return popped

    def items(self):
        """Iterate (decoded_key, value) pairs of the working state.

        Order is the backend's (insertion order here, key order in the
        tiered backend); callers needing one order must sort (e.g. by
        encoded key).
        """
        for encoded, value in self.data.items():
            yield decode_key(encoded), value

    def keys(self):
        """Iterate decoded keys."""
        for encoded in self.data:
            yield decode_key(encoded)

    def __len__(self) -> int:
        return self._num_keys

    # ------------------------------------------------------------------
    # Versioned persistence
    # ------------------------------------------------------------------
    def _path(self, version: int, kind: str) -> str:
        return os.path.join(self._directory, f"{version:010d}.{kind}")

    def commit(self, version: int) -> dict:
        """Checkpoint the working state as ``version``, inline; returns
        checkpoint metrics (sizes) for monitoring (§7.4)."""
        return self.prepare_commit(version).execute()

    def _wants_base(self) -> bool:
        """The rebase rule (see :meth:`prepare_commit`)."""
        return self._delta_weight >= self._base_weight

    def prepare_commit(self, version: int, group=None) -> PendingStateWrite:
        """Version's checkpoint, for :meth:`PendingStateWrite.execute` to
        write (``group`` is for backends that write as they prepare).

        A delta of dirty/removed keys — unless the delta files since the
        newest base already weigh at least as much as that base (each
        file counting ``max(bytes, MIN_FILE_WEIGHT)``), in which case
        this version is a fresh base.  The first commit of an empty chain
        is a base.  A chain's deltas therefore never outweigh its base by
        more than one delta: restore reads ≤ 2× the live state,
        everything ever written is ≤ 2× the delta bytes plus one copy of
        the live state (a commit costs O(delta) amortised), and the
        chain's file count is bounded.  The rule reads only what the
        directory holds, so a crash-replay repeats the same decisions
        byte for byte.

        Records are sorted by encoded key.
        """
        base = self._wants_base()
        writer = StateFileWriter("base" if base else "delta", version)
        written = (self._num_keys if base
                   else len(self.dirty) + len(self.removed))
        if self._schema is not None:
            kind = statefile.BASE_BLOCK if base else statefile.DELTA_BLOCK
        else:
            kind = statefile.BASE if base else statefile.DELTA
        return PendingStateWrite(
            self._directory, version, kind, self._chunks(writer, base),
            lambda: self._finish_commit(version, kind, writer.bytes,
                                        written))

    def _chunks(self, writer, base: bool):
        """The checkpoint file's chunks: every key for a base, the keys
        written or removed since the last commit (as tombstones) for a
        delta, in key order.  Values are read as the chunks are, so only
        the sorted key list is materialised beside the dict."""
        data = self.data
        keys = sorted(data if base else self.dirty | self.removed)
        if self._schema is not None:
            yield from writer.block_chunks(keys, data, self._schema)
        else:
            yield from writer.chunks(self._disk_records(
                (encoded, data.get(encoded, TOMBSTONE)) for encoded in keys))

    def _finish_commit(self, version: int, kind: str, size: int,
                       written: int) -> dict:
        weight = max(size, MIN_FILE_WEIGHT)
        if kind in statefile.BASE_KINDS:
            self._base_weight, self._delta_weight = weight, 0
        else:
            self._delta_weight += weight
        self.dirty.clear()
        self.removed.clear()
        self.last_committed_version = version
        return {"version": version, "keys_written": written,
                "num_keys": self._num_keys, "kind": kind, "bytes": size}

    def _available_versions(self) -> dict:
        """Map version -> kinds for all checkpoint files on disk."""
        versions = {}
        for name in list_files(self._directory, statefile.SUFFIXES):
            version_text, _, kind = name.partition(".")
            versions.setdefault(int(version_text), set()).add(kind)
        return versions

    def _usable_versions(self, limit) -> list:
        """Sorted versions <= ``limit`` this backend can restore from."""
        versions = self._available_versions()
        return sorted(
            v for v, kinds in versions.items()
            if v <= limit and kinds & self._RESTORE_KINDS
        )

    def latest_version(self):
        """Newest checkpointed version on disk, or None."""
        versions = self._available_versions()
        return max(versions) if versions else None

    def oldest_restorable_version(self):
        """Oldest version restore() can rebuild: the oldest base on
        disk (deltas older than every base cannot anchor a restore),
        or the oldest delta when the chain starts from empty state."""
        versions = {v: kinds for v, kinds in self._available_versions().items()
                    if kinds & OperatorStateHandle._RESTORE_KINDS}
        if not versions:
            return None
        bases = [v for v, kinds in versions.items() if _is_base(kinds)]
        if min(versions) < min(bases, default=float("inf")):
            # The chain still starts from empty state: everything works.
            return min(versions)
        return min(bases) if bases else None

    def prune(self, keep_from_version: int) -> int:
        """Garbage-collect checkpoints no longer needed to restore any
        version >= ``keep_from_version``.

        Keeps the newest base at or below the horizon plus everything
        after it (deltas replay from that base).  Returns the number of
        files deleted.  Without pruning, a long-running query's state
        directory grows forever (§6.1's checkpoints are periodic for
        exactly this reason).
        """
        return self._prune_below(keep_from_version, statefile.BASE_KINDS)

    def _prune_below(self, keep_from_version: int, anchor_kinds) -> int:
        versions = self._available_versions()
        anchors = [v for v, kinds in versions.items()
                   if v <= keep_from_version and kinds.intersection(anchor_kinds)]
        if not anchors:
            return 0
        base = max(anchors)
        removed = 0
        for v, kinds in versions.items():
            for kind in kinds:
                if v < base or (v == base and kind in statefile.DELTA_KINDS):
                    os.unlink(self._path(v, kind))
                    removed += 1
        return removed

    def _load_chain(self, usable: list) -> tuple:
        """Replay the base+delta chain over ``usable`` (sorted versions)
        into one ``encoded key -> in-memory value`` dict, and take the
        rebase rule's weights from the very files replayed.  Each file
        is read as the format it was written in, so a chain may mix
        them (a JSON base, then block deltas).  Returns the dict and
        whether every file replayed was a block file."""
        versions = self._available_versions()
        usable = [v for v in usable
                  if versions[v] & OperatorStateHandle._RESTORE_KINDS]
        base = max((v for v in usable if _is_base(versions[v])), default=None)
        merged = {}
        blocks_only = True
        self._base_weight = self._delta_weight = 0
        for v in usable:
            if base is not None and v < base:
                continue
            kinds = statefile.BASE_KINDS if v == base else statefile.DELTA_KINDS
            path = self._path(v, next(k for k in kinds if k in versions[v]))
            statefile.apply_file(path, merged, self._from_disk, self._schema)
            blocks_only = blocks_only and path.endswith(statefile.BLOCK_SUFFIX)
            weight = max(os.path.getsize(path), MIN_FILE_WEIGHT)
            if v == base:
                self._base_weight = weight
            else:
                self._delta_weight += weight
        return merged, blocks_only

    def restore(self, version):
        """Reset the working state to the newest checkpoint <= ``version``.

        Deltas are relative to the previous *commit* (not the previous
        epoch), so sparse version numbers — from a checkpoint interval
        larger than one epoch — replay correctly.  Returns the version
        actually restored (None for empty state); the engine replays
        input epochs after it from the WAL to reach the target (§6.1
        step 4).
        """
        self.data, self.dirty, self.removed = {}, set(), set()
        self._num_keys = 0
        self._base_weight = self._delta_weight = 0
        self.last_committed_version = None
        usable = self._usable_versions(version) if version is not None else []
        if usable:
            with statefile.paused_gc():
                merged, blocks_only = self._load_chain(usable)
            # Block files postdate encode_key's folding of -0.0, so only
            # a chain with a JSON file can hold a key to move.
            rekeyed = [] if blocks_only else _rekey_negative_zeros(merged)
            self._num_keys = len(merged)
            self.data = merged
            for old, new in rekeyed:
                self.removed.add(old)
                self.dirty.add(new)
            self.last_committed_version = usable[-1]
        self._recount_rows()
        self._rebuild_expiry_index()
        return self.last_committed_version


def _rekey_negative_zeros(merged: dict) -> list:
    """Move a restored key a legacy checkpoint wrote with ``-0.0`` to
    the key :func:`encode_key` now gives it; returns ``(old, new)``
    pairs, which the next commit records as a tombstone and a write.  A
    key whose ``0.0`` twin is restored too keeps both entries as they
    were: merging two values needs the operator that wrote them."""
    moves = []
    for encoded in [e for e in merged if "-0.0" in e]:
        canonical = encode_key(decode_key(encoded))
        if canonical != encoded and canonical not in merged:
            merged[canonical] = merged.pop(encoded)
            moves.append((encoded, canonical))
    return moves


def _is_base(kinds) -> bool:
    """True if a version's file kinds include one holding full state."""
    return not kinds.isdisjoint(statefile.BASE_KINDS)


class StateStore:
    """All operators' state for one query, under ``<checkpoint>/state``.

    ``backend`` selects the storage engine per handle: ``"dict"`` (the
    in-memory default) or ``"tiered"`` (LSM memtable + sorted runs, see
    :mod:`repro.streaming.state_lsm`).  Both backends read each other's
    checkpoints, so the choice can change across restarts.
    ``memtable_bytes`` is the tiered backend's spill budget.
    """

    def __init__(self, checkpoint_dir: str, backend: str = "dict",
                 memtable_bytes: int = DEFAULT_MEMTABLE_BYTES):
        self._directory = os.path.join(checkpoint_dir, "state")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown state backend {backend!r}; expected one of {BACKENDS}"
            )
        self.backend = backend
        self._memtable_bytes = memtable_bytes
        self._handles = {}
        os.makedirs(self._directory, exist_ok=True)

    def handle(self, operator_id: str) -> OperatorStateHandle:
        """Get (or create) the state handle for an operator."""
        if operator_id not in self._handles:
            directory = os.path.join(self._directory, operator_id)
            if self.backend == "tiered":
                # Imported lazily: state_lsm depends on this module.
                from repro.streaming.state_lsm import TieredOperatorStateHandle

                self._handles[operator_id] = TieredOperatorStateHandle(
                    directory, memtable_bytes=self._memtable_bytes)
            else:
                self._handles[operator_id] = OperatorStateHandle(directory)
        return self._handles[operator_id]

    def close(self) -> None:
        """Release what the handles hold open (idempotent): nothing for
        dict handles, the live runs' descriptors for tiered ones."""
        for handle in self._handles.values():
            handle.close()

    def commit_all(self, version: int) -> list:
        """Checkpoint every operator at ``version``, inline; returns
        metrics."""
        return write_checkpoint(self.prepare_commit_all(version))

    def prepare_commit_all(self, version: int, group=None) -> list:
        """Every operator's checkpoint of ``version``, in operator order,
        for :func:`write_checkpoint`.

        Without a ``group`` each file streams from live state as it is
        written, so the jobs must be written before state changes.  The
        pipelined engine passes its flusher's group: each file is then
        serialized here, on the epoch thread, since the flusher writes
        it while the next epoch runs, and what a backend writes as it
        prepares defers its fsyncs into the group.  Either way the
        in-memory effects (journals cleared, ``last_committed_version``
        advanced) are the same; only durability lags, which recovery
        already tolerates via ``state_checkpoint_interval`` replay."""
        jobs = [handle.prepare_commit(version, group)
                for handle in self._handles.values()]
        if group is not None:
            for job in jobs:
                job.capture()
        return jobs

    def restore_all(self, version):
        """Restore every operator to one *consistent* version <= ``version``.

        A crash can land mid-``commit_all``, leaving operators with
        different newest checkpoints; replaying from the lagging
        operator's version would double-apply epochs to the others.  So
        the common base is computed first — the oldest "newest checkpoint
        <= version" across operators — and every operator restores to
        exactly that.  Returns the base (None if any operator has no
        usable checkpoint; state is then empty and replay starts from
        epoch 0).
        """
        handles = list(self._handles.values())
        if not handles:
            return version
        newest = []
        for handle in handles:
            versions = handle._usable_versions(version)
            newest.append(max(versions) if versions else None)
        if any(v is None for v in newest):
            for handle in handles:
                handle.restore(None)
            return None
        base = min(newest)
        for handle in handles:
            restored = handle.restore(base)
            assert restored == base, (
                f"operator checkpoint missing at consistent base {base}"
            )
        return base

    def prune_all(self, keep_from_version: int) -> int:
        """Prune every operator's old checkpoints; returns files removed."""
        return sum(h.prune(keep_from_version) for h in self._handles.values())

    def oldest_restorable_version(self):
        """Oldest version restorable by *every* operator (None if any
        operator has no checkpoints)."""
        oldest = [h.oldest_restorable_version() for h in self._handles.values()]
        if not oldest or any(v is None for v in oldest):
            return None
        return max(oldest)

    def latest_complete_version(self):
        """Newest version checkpointed by *all* operators, or None."""
        latests = [h.latest_version() for h in self._handles.values()]
        if not latests or any(v is None for v in latests):
            return None
        return min(latests)

    def total_keys(self) -> int:
        """Total keys across operators (a monitoring metric, §2.3)."""
        return sum(len(h) for h in self._handles.values())

    def total_rows(self) -> int:
        """Total buffered rows across operators: unlike the key count,
        this moves when a join side's entry lists grow or consolidate."""
        return sum(h.rows for h in self._handles.values())
