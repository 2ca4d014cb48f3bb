"""Tiered (larger-than-memory) state backend: LSM runs under the handle API.

``TieredOperatorStateHandle`` keeps the ``data`` dict of
:class:`~repro.streaming.state.OperatorStateHandle` as a **memtable**
capped by a byte budget; when the budget is exceeded the memtable is
sealed into an immutable **sorted run** on disk
(``<operator>/runs/<seq>.run`` — the same record-framed file the dict
backend's bases and deltas are, see :mod:`repro.streaming.statefile` —
plus one sidecar ``.meta`` file).  Point lookups probe the memtable, then each
run newest-first — a per-run **bloom filter**, **key-range fences** and
a **sparse block index** mean a probe touches at most one ~:data:`INDEX_EVERY`-line
block per run, so join/dedup lookups stay O(delta), never O(state).

Checkpoints become delta-based: ``commit(version)`` seals the memtable
as one more run and writes a **manifest** (``<version>.manifest.json``)
listing the live run files with their SHA-256 content hashes.  The
manifest reuses the atomic-write/torn-tail machinery of
:mod:`repro.storage`, parses under the same ``<version>.<kind>``
naming as dict-backend checkpoints, and — because it embeds every run's
hash — keeps ``checkpoint_fingerprint`` honest even though run files
live outside the fingerprinted version log.  Snapshot cost is
O(epoch delta): unchanged runs are listed, not rewritten.

**Compaction** is size-tiered and runs *inline at commit time* (never a
background thread: crash-replay must reproduce byte-identical run files,
and thread timing would make flush/merge boundaries nondeterministic).
Adjacent runs in the same size tier merge newest-wins once
:data:`COMPACT_FANIN` of them accumulate; tombstones are dropped only
when a merge includes the oldest run (nothing older can resurrect the
key — removals themselves are already watermark-gated by the operators'
eviction logic, so tombstone GC is bounded by the watermark horizon).

Crash-consistency invariants:

* run files are written atomically and *referenced counted by
  manifests*: a run is deleted only when no manifest on disk lists it
  (plus never while this handle holds it open), so rollback to any
  retained manifest always finds its runs;
* run sequence numbers restart from the restored manifest's
  ``next_seq``, and flush boundaries are a pure function of the write
  sequence, one ``apply`` counting as its set of writes — replay after
  a crash regenerates byte-identical runs and manifests (the
  exactly-once sweep checks this at the fingerprint level);
* orphaned runs (flushed after the last durable manifest, or torn by a
  crash) are garbage-collected when the handle is next *constructed*,
  never during ``restore``.
"""

from __future__ import annotations

import heapq
import json
import os
from array import array
from bisect import bisect_right
from itertools import chain
from operator import itemgetter

import numpy as np

from repro.observability import metrics
from repro.sql.batch import lazy_blake2b
from repro.storage import (
    atomic_write_stream,
    atomic_write_text,
    deferred_fsync,
    list_files,
    read_json,
)
from repro.streaming import statefile
from repro.streaming.state import (
    DEFAULT_MEMTABLE_BYTES,
    OperatorStateHandle,
    PendingStateWrite,
    decode_key,
)
from repro.streaming.statefile import TOMBSTONE, StateFileWriter
from repro.testing.faults import fault_point

#: This backend's checkpoint kind: a manifest of live runs (kept as a
#: small pretty-printed JSON document, like the WAL: §7.2 wants the
#: control files readable).
MANIFEST = "manifest.json"

#: Sparse-index granularity: one (key, offset) entry per this many run
#: lines; a probe reads at most one such block per run.
INDEX_EVERY = 64
#: Bloom filter sizing/shape (~0.15% false-positive rate at 14 bits).
BLOOM_BITS_PER_KEY = 14
BLOOM_K = 7
#: Size-tiered compaction: merge once this many adjacent same-tier runs
#: accumulate.
COMPACT_FANIN = 4
#: Hard cap on live runs: above this, the smallest adjacent pair merges
#: even across tiers.  Every point probe pays one bloom check per run,
#: so an unbounded run set would put an O(log total-state) term back
#: into the per-put cost the memtable/bloom design exists to avoid.
MAX_RUNS = 10
#: Streaming-scan read size (bounds merge/iteration memory).
SCAN_CHUNK = 1 << 20

_MASK64 = (1 << 64) - 1


_MISS = object()


def _bloom_hash(encoded: str) -> tuple:
    """Two independent 64-bit hashes for double hashing.

    blake2b (not ``hash()``) because bloom bits are persisted: Python's
    string hash is salted per process and would desync across restarts.
    """
    digest = lazy_blake2b()(encoded.encode("utf-8"), digest_size=16).digest()
    return (int.from_bytes(digest[:8], "little"),
            int.from_bytes(digest[8:], "little") | 1)


def _bloom_bits(count: int) -> int:
    """Filter size in bits: a deterministic function of the run size."""
    bits = max(64, count * BLOOM_BITS_PER_KEY)
    return ((bits + 7) // 8) * 8


def _approx_value_bytes(value) -> int:
    """Rough in-memory size of a JSON value, for the memtable budget.

    Deterministic (flush boundaries must replay identically), cheap, and
    intentionally on the high side — the budget is a cap, not a meter.
    """
    if isinstance(value, str):
        return 56 + len(value)
    if value is None or isinstance(value, (bool, int, float)):
        return 32
    if isinstance(value, (list, tuple)):
        return 64 + sum(_approx_value_bytes(v) for v in value)
    if isinstance(value, dict):
        return 64 + sum(
            _approx_value_bytes(k) + _approx_value_bytes(v)
            for k, v in value.items()
        )
    return 64


def _entry_bytes(encoded: str, value) -> int:
    return 88 + len(encoded) + _approx_value_bytes(value)


def _tier(count: int) -> int:
    """Size tier of a run: log2 of its entry count, with every run
    below :data:`COMPACT_FANIN` entries in tier 0 — tiny runs (trickle
    epochs) must still bucket together or they would never compact."""
    return max(0, max(0, count).bit_length() - 2)


class SortedRun:
    """One immutable sorted run on disk, with its probe structures.

    The run is a :mod:`~repro.streaming.statefile` record stream (kind
    ``run``, version = sequence number): one line per key, sorted by
    encoded key, ``[encoded_key, value]`` for a live entry and
    ``[encoded_key]`` for a tombstone.  The sidecar ``.meta`` JSON
    carries the bloom filter, fences, sparse index and the run's SHA-256
    (the hash manifests pin).  Runs written before the framed format —
    bare sorted JSONL, their sidecar lacking ``format`` — stay readable.

    Reads go through ``os.pread`` on a descriptor held open for the
    run's lifetime: thread-safe without seek state, and still readable
    after compaction unlinks the file (POSIX deleted-but-open
    semantics).
    """

    __slots__ = ("seq", "path", "count", "bytes", "sha256", "min_key",
                 "max_key", "_fd", "_bloom", "_bloom_m", "_index_keys",
                 "_index_offsets", "_framed")

    def __init__(self, seq, path, meta):
        self.seq = seq
        self.path = path
        self.count = meta["count"]
        #: Offset at which the record lines end (the trailer's start).
        self.bytes = meta["bytes"]
        self.sha256 = meta["sha256"]
        self.min_key = meta["min_key"]
        self.max_key = meta["max_key"]
        self._bloom = bytes.fromhex(meta["bloom"])
        self._bloom_m = meta["bloom_m"]
        self._index_keys = meta["index_keys"]
        self._index_offsets = meta["index_offsets"]
        self._framed = meta.get("format") == statefile.FORMAT
        self._fd = os.open(path, os.O_RDONLY)

    @staticmethod
    def run_path(directory: str, seq: int) -> str:
        return os.path.join(directory, f"{seq:08d}.run")

    @staticmethod
    def meta_path(directory: str, seq: int) -> str:
        return os.path.join(directory, f"{seq:08d}.meta")

    @classmethod
    def create(cls, directory: str, seq: int, items,
               count_hint: int = None) -> "SortedRun":
        """Write a run from ``(encoded_key, value)`` pairs in key order.

        ``items`` may be a one-shot iterator (compaction merges stream);
        content streams to disk and bloom bits are applied in bounded
        chunks, so memory stays O(chunk), never O(run).  ``count_hint``
        sizes the bloom filter when the final count is unknown upfront
        (a compaction merge dedupes as it streams); it must be an upper
        bound and deterministic, since the filter bytes are persisted.
        """
        path = cls.run_path(directory, seq)
        bloom_m = _bloom_bits(count_hint) if count_hint is not None else None
        state = {"count": 0, "min": None, "max": None,
                 "bits": (np.zeros(bloom_m // 8, dtype=np.uint8)
                          if bloom_m is not None else None)}
        index_keys, index_offsets = [], []
        hashes_lo, hashes_hi = array("Q"), array("Q")

        def apply_hashes(m):
            if not hashes_lo:
                return
            # np.array copies; frombuffer would pin the arrays' buffers
            # and break the clear below.
            h_lo = np.array(hashes_lo, dtype=np.uint64)
            h_hi = np.array(hashes_hi, dtype=np.uint64)
            for i in range(BLOOM_K):
                idx = (h_lo + np.uint64(i) * h_hi) % np.uint64(m)
                np.bitwise_or.at(
                    state["bits"], (idx >> np.uint64(3)).astype(np.int64),
                    np.left_shift(
                        np.uint8(1), (idx & np.uint64(7)).astype(np.uint8)),
                )
            del hashes_lo[:], hashes_hi[:]

        def observe(encoded, offset):
            if state["count"] % INDEX_EVERY == 0:
                index_keys.append(encoded)
                index_offsets.append(offset)
            lo, hi = _bloom_hash(encoded)
            hashes_lo.append(lo)
            hashes_hi.append(hi)
            if bloom_m is not None and len(hashes_lo) >= 65536:
                apply_hashes(bloom_m)
            state["count"] += 1
            if state["min"] is None:
                state["min"] = encoded
            state["max"] = encoded

        writer = StateFileWriter("run", seq)
        atomic_write_stream(path, writer.chunks(items, observe))
        count = writer.count
        final_m = bloom_m if bloom_m is not None else _bloom_bits(count)
        if state["bits"] is None:
            state["bits"] = np.zeros(final_m // 8, dtype=np.uint8)
        apply_hashes(final_m)
        bits = state["bits"]
        meta = {
            "format": statefile.FORMAT,
            "count": count,
            "bytes": writer.records_end,
            "sha256": writer.sha256,
            "min_key": state["min"],
            "max_key": state["max"],
            "bloom": bytes(bits).hex(),
            "bloom_m": final_m,
            "index_every": INDEX_EVERY,
            "index_keys": index_keys,
            "index_offsets": index_offsets,
        }
        atomic_write_text(cls.meta_path(directory, seq),
                          statefile.encode(meta))
        return cls(seq, path, meta)

    @classmethod
    def open(cls, directory: str, seq: int) -> "SortedRun":
        meta = read_json(cls.meta_path(directory, seq))
        return cls(seq, cls.run_path(directory, seq), meta)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def _bloom_contains(self, h_lo: int, h_hi: int) -> bool:
        bits = self._bloom
        m = self._bloom_m
        for i in range(BLOOM_K):
            idx = ((h_lo + i * h_hi) & _MASK64) % m
            if not (bits[idx >> 3] >> (idx & 7)) & 1:
                return False
        return True

    def get(self, encoded: str, h_lo: int, h_hi: int):
        """Probe one key: ``_MISS``, ``TOMBSTONE``, or the value.

        Fences, then bloom, then a single sparse-index block read —
        never a scan of the run.
        """
        if self.count == 0 or not self.min_key <= encoded <= self.max_key:
            return _MISS
        if not self._bloom_contains(h_lo, h_hi):
            return _MISS
        pos = bisect_right(self._index_keys, encoded) - 1
        if pos < 0:
            return _MISS
        start = self._index_offsets[pos]
        end = (self._index_offsets[pos + 1]
               if pos + 1 < len(self._index_offsets) else self.bytes)
        block = os.pread(self._fd, end - start, start)
        # ``json.dumps([key])[:-1]`` ends at the key's closing quote, so
        # a prefix match is an exact key match (longer keys diverge at
        # that quote); the byte after decides entry vs tombstone.
        prefix = json.dumps([encoded])[:-1].encode("utf-8")
        plen = len(prefix)
        for line in block.split(b"\n"):
            if not line.startswith(prefix):
                continue
            tail = line[plen:plen + 1]
            if tail == b"]":
                return TOMBSTONE
            if tail == b",":
                return json.loads(line)[1]
        return _MISS

    def _chunks(self):
        offset = 0
        while True:
            chunk = os.pread(self._fd, SCAN_CHUNK, offset)
            if not chunk:
                return
            offset += len(chunk)
            yield chunk

    def scan(self):
        """Stream ``(encoded_key, value_or_TOMBSTONE)`` in key order."""
        return statefile.read_records(self._chunks(), self._framed)


class TieredOperatorStateHandle(OperatorStateHandle):
    """Drop-in :class:`OperatorStateHandle` with LSM-tiered storage.

    The ``data`` dict becomes a bounded memtable (values or
    ``TOMBSTONE``); reads fall through to the sorted runs newest-first.
    All public semantics — ``get``/``put``/``remove``/``pop_expired``/
    ``items``, delta commits, restore to any retained version — match
    the dict backend
    (the property suite in ``tests/test_state_tiered.py`` pins this).
    """

    backend = "tiered"
    _RESTORE_KINDS = OperatorStateHandle._RESTORE_KINDS | {MANIFEST}

    def __init__(self, directory: str,
                 memtable_bytes: int = DEFAULT_MEMTABLE_BYTES):
        super().__init__(directory)
        self.memtable_bytes = max(1, int(memtable_bytes))
        self._runs_dir = os.path.join(directory, "runs")
        os.makedirs(self._runs_dir, exist_ok=True)
        self._runs = []          # newest first
        self._next_seq = 0
        self._mem_bytes = 0
        # Construction happens on a fresh engine, so this is the safe
        # moment to drop runs no durable manifest references: wild runs
        # flushed after the last commit, or torn by a crash mid-flush.
        # ``repair_torn_tail`` (in the base constructor) has already
        # quarantined a torn manifest.
        self._gc_runs()

    # ------------------------------------------------------------------
    # Keyed access
    # ------------------------------------------------------------------
    def _probe_runs(self, encoded: str):
        """Look a key up in the runs, newest first (a value comes back
        through the codec's ``from_disk``)."""
        if not self._runs:
            return _MISS
        h_lo, h_hi = _bloom_hash(encoded)
        for run in self._runs:
            value = run.get(encoded, h_lo, h_hi)
            if value is not _MISS:
                return self._memory_value(value)
        return _MISS

    def _read(self, encoded: str, default=None):
        """Current value through both tiers."""
        value = self.data.get(encoded, _MISS)
        if value is _MISS:
            value = self._probe_runs(encoded)
        return default if value is _MISS or value is TOMBSTONE else value

    def get_many(self, encoded) -> list:
        if metrics._registry is not None:
            metrics._registry.counter("state.gets").inc(len(encoded))
        return list(map(self._read, encoded))

    def apply(self, puts, removes) -> None:
        """The base contract, one write at a time (a write may probe the
        runs and seal the memtable), puts and removes together in
        encoded-key order: where one apply seals depends on its set of
        writes, not on the order a kernel produced them in."""
        for write in sorted(chain(puts, removes), key=itemgetter(0)):
            if len(write) == 3:
                self._put(*write)
            else:
                self._remove(write[0])

    def _put(self, encoded: str, key, value) -> None:
        if metrics._registry is not None:
            metrics._registry.counter("state.puts").inc()
        prior = self.data.get(encoded, _MISS)
        # The budget sizes values in their disk form, so spill points do
        # not depend on an operator's in-memory layout.
        disk = self._disk_value(value)
        if prior is _MISS:
            prior = self._probe_runs(encoded)
            self._mem_bytes += _entry_bytes(encoded, disk)
        else:
            self._mem_bytes += (_approx_value_bytes(disk)
                                - _approx_value_bytes(self._disk_value(prior)))
        was_live = prior is not _MISS and prior is not TOMBSTONE
        self.data[encoded] = value
        if not was_live:
            self._num_keys += 1
        if self._row_stride is not None:
            self._num_rows += (len(value) - (
                len(prior) if was_live else 0)) // self._row_stride
        self.dirty.add(encoded)
        self.removed.discard(encoded)
        if self._expiry_fn is not None:
            self._index_put(encoded, key, value)
        if self._mem_bytes >= self.memtable_bytes:
            self._flush()

    def _remove(self, encoded: str) -> None:
        prior = self.data.get(encoded, _MISS)
        if prior is _MISS:
            prior = self._probe_runs(encoded)
            if prior is _MISS or prior is TOMBSTONE:
                return
            self._mem_bytes += _entry_bytes(encoded, TOMBSTONE)
        else:
            if prior is TOMBSTONE:
                return
            self._mem_bytes += (
                _approx_value_bytes(TOMBSTONE)
                - _approx_value_bytes(self._disk_value(prior)))
        # A tombstone (not a dict pop): it must mask any older value
        # still sitting in a run, and flush with the next seal.
        self.data[encoded] = TOMBSTONE
        self._num_keys -= 1
        if self._row_stride is not None:
            self._num_rows -= len(prior) // self._row_stride
        self.dirty.discard(encoded)
        self.removed.add(encoded)
        self.expiry.pop(encoded, None)
        metrics.count("state.removes")
        if self._mem_bytes >= self.memtable_bytes:
            self._flush()

    def close(self) -> None:
        """Close the live runs' descriptors (idempotent).  A closed
        handle serves no more reads until ``restore`` reopens its runs."""
        for run in self._runs:
            run.close()

    def _iter_merged(self):
        """Stream live ``(encoded, value)`` pairs, key-sorted, newest-wins."""
        streams = [iter(sorted(self.data.items()))]
        for run in self._runs:
            records = run.scan()
            if self._from_disk is not None:
                records = ((encoded, self._memory_value(value))
                           for encoded, value in records)
            streams.append(records)

        def tag(stream, priority):
            for encoded, value in stream:
                yield encoded, priority, value

        last = None
        for encoded, _priority, value in heapq.merge(
                *(tag(s, i) for i, s in enumerate(streams))):
            if encoded == last:
                continue  # an older tier's value, superseded
            last = encoded
            if value is TOMBSTONE:
                continue
            yield encoded, value

    def items(self):
        """Iterate (decoded_key, value); key-sorted (unlike the dict
        backend's insertion order — callers already must not rely on raw
        order, see the base class docstring)."""
        for encoded, value in self._iter_merged():
            yield decode_key(encoded), value

    def keys(self):
        for encoded, _value in self._iter_merged():
            yield decode_key(encoded)

    def _recount_rows(self) -> None:
        self._num_rows = self._rows_of(
            value for _encoded, value in self._iter_merged())

    def _rebuild_expiry_index(self) -> None:
        self.expiry = {}
        self.heap = []
        if self._expiry_fn is None:
            return
        for encoded, value in self._iter_merged():
            expiry = self._expiry_fn(decode_key(encoded), value)
            if expiry is not None:
                self.expiry[encoded] = expiry
                self.heap.append((expiry, encoded))
        heapq.heapify(self.heap)

    # ------------------------------------------------------------------
    # Flush + compaction
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        """Seal the memtable (sorted) as one run.

        Dirty/removed tracking is untouched: it tracks the *commit*
        delta, which is independent of where a value physically lives.
        """
        items = sorted(self._disk_records(self.data.items()),
                       key=itemgetter(0))
        if not items:
            return
        fault_point("state.flush_crash",
                    operator=os.path.basename(self._directory),
                    seq=self._next_seq, entries=len(items))
        run = SortedRun.create(self._runs_dir, self._next_seq, items)
        self._next_seq += 1
        self._runs.insert(0, run)
        self.data.clear()
        self._mem_bytes = 0
        metrics.count("state.flushes")
        self._maybe_compact()

    def _compaction_pick(self):
        """Oldest adjacent group of >= COMPACT_FANIN same-tier runs, as
        ``(start, length)`` into ``self._runs`` — or None.

        Only *adjacent* runs may merge (recency order is what resolves
        key conflicts), and the choice is a pure function of the run
        list, so crash-replay repeats the same merges.  When the run set
        exceeds :data:`MAX_RUNS` despite no tier being full, the
        cheapest adjacent pair merges across tiers — probes pay one
        bloom check per run, so the run count must stay O(1).
        """
        runs = self._runs
        i = len(runs) - 1
        while i >= 0:
            tier = _tier(runs[i].count)
            j = i
            while j - 1 >= 0 and _tier(runs[j - 1].count) == tier:
                j -= 1
            if i - j + 1 >= COMPACT_FANIN:
                return j, i - j + 1
            i = j - 1
        if len(runs) > MAX_RUNS:
            best = min(range(len(runs) - 1),
                       key=lambda k: (runs[k].count + runs[k + 1].count, k))
            return best, 2
        return None

    def _maybe_compact(self) -> None:
        while True:
            pick = self._compaction_pick()
            if pick is None:
                return
            start, length = pick
            group = self._runs[start:start + length]
            # Tombstones can only be dropped when nothing older could
            # still hold the key, i.e. the merge reaches the oldest run.
            drop_tombstones = start + length == len(self._runs)
            fault_point("state.compaction_crash",
                        operator=os.path.basename(self._directory),
                        seqs=[r.seq for r in group],
                        drop_tombstones=drop_tombstones)

            def merged():
                def tag(run, priority):
                    for encoded, value in run.scan():
                        yield encoded, priority, value

                last = None
                for encoded, _p, value in heapq.merge(
                        *(tag(r, p) for p, r in enumerate(group))):
                    if encoded == last:
                        continue
                    last = encoded
                    if drop_tombstones and value is TOMBSTONE:
                        continue
                    yield encoded, value

            stream = merged()
            first = next(stream, None)
            if first is None:
                replacement = []
            else:
                def chain():
                    yield first
                    yield from stream

                run = SortedRun.create(
                    self._runs_dir, self._next_seq, chain(),
                    count_hint=sum(r.count for r in group))
                self._next_seq += 1
                replacement = [run]
            self._runs[start:start + length] = replacement
            for old in group:
                old.close()
                # The files stay on disk until no manifest references
                # them (_gc_runs); a rollback to an older manifest must
                # still find them.
            metrics.count("state.compactions")

    # ------------------------------------------------------------------
    # Versioned persistence
    # ------------------------------------------------------------------
    def prepare_commit(self, version: int, group=None) -> PendingStateWrite:
        """Delta checkpoint: seal the memtable now (the run's fsyncs
        deferred into ``group`` if one is given), then a manifest for
        :meth:`PendingStateWrite.execute` to write.

        The manifest lists every live run (sequence, entry count,
        SHA-256) oldest-first plus ``next_seq`` and the live-key count;
        it is self-contained, so restore never replays a delta chain.
        Cost is O(keys written since the last commit), not O(total
        state) — unchanged runs are referenced, not rewritten.  Sealing
        and compaction mutate the run list, which must stay on the
        epoch thread for byte-identical crash replay; a run no durable
        manifest lists is dropped when the handle is next constructed.
        """
        written = len(self.dirty) + len(self.removed)
        with deferred_fsync(group):
            self._flush()
        manifest = {
            "kind": "manifest",
            "live_keys": self._num_keys,
            "live_rows": self.rows,
            "next_seq": self._next_seq,
            "runs": [
                {"seq": run.seq, "count": run.count, "sha256": run.sha256}
                for run in reversed(self._runs)
            ],
        }
        text = json.dumps(manifest, indent=2, sort_keys=True)
        return PendingStateWrite(
            self._directory, version, MANIFEST, (text,),
            lambda: self._finish_manifest(version, written))

    def _finish_manifest(self, version: int, written: int) -> dict:
        self.dirty.clear()
        self.removed.clear()
        self.last_committed_version = version
        return {"version": version, "keys_written": written,
                "num_keys": self._num_keys, "backend": "tiered",
                "runs": len(self._runs)}

    def restore(self, version):
        """Reset to the newest manifest <= ``version``.

        Also accepts dict-backend checkpoints (base+delta chains, either
        format) for the version range before a backend switch: the
        merged chain state loads into the memtable and spills on the
        next over-budget write.
        """
        self.close()
        self._runs = []
        self.data, self.dirty, self.removed = {}, set(), set()
        self._mem_bytes = 0
        self._num_keys = 0
        self.last_committed_version = None
        usable = self._usable_versions(version) if version is not None else []
        live_rows = None
        if usable and MANIFEST in self._available_versions()[usable[-1]]:
            manifest = read_json(self._path(usable[-1], MANIFEST))
            self._next_seq = manifest["next_seq"]
            self._runs = [
                SortedRun.open(self._runs_dir, entry["seq"])
                for entry in reversed(manifest["runs"])
            ]
            self._num_keys = manifest["live_keys"]
            live_rows = manifest.get("live_rows")
            self.last_committed_version = usable[-1]
        elif usable:
            self._restore_chain(usable)
        if live_rows is None:  # a chain, or a manifest predating the count
            self._recount_rows()
        else:
            self._num_rows = live_rows
        self._rebuild_expiry_index()
        return self.last_committed_version

    def _restore_chain(self, usable: list) -> None:
        """Load a dict-backend base+delta chain (JSONL, block or mixed
        files) into the memtable."""
        with statefile.paused_gc():
            merged, _blocks_only = self._load_chain(usable)
        # The budget sizes values in their disk form (see ``_put``).
        for encoded, value in merged.items():
            self._mem_bytes += _entry_bytes(encoded, self._disk_value(value))
        self.data = merged
        self._num_keys = len(merged)
        # Never reuse a sequence a later (tiered) manifest references.
        self._next_seq = 1 + max(
            (int(name.split(".")[0])
             for name in list_files(self._runs_dir, ".run")),
            default=-1,
        )
        self.last_committed_version = usable[-1]

    def oldest_restorable_version(self):
        oldest = super().oldest_restorable_version()
        if oldest is not None:
            return oldest
        manifests = [v for v, kinds in self._available_versions().items()
                     if MANIFEST in kinds]
        return min(manifests, default=None)

    def prune(self, keep_from_version: int) -> int:
        """Drop checkpoints below the newest restore anchor <= horizon,
        then delete run files no remaining manifest references."""
        removed = self._prune_below(
            keep_from_version, statefile.BASE_KINDS + (MANIFEST,))
        return removed + self._gc_runs()

    def _gc_runs(self) -> int:
        """Delete run (+meta) files not referenced by any manifest on
        disk nor held open by this handle.  Driver-only by construction:
        called from ``__init__`` and ``prune``, never ``restore``."""
        referenced = {run.seq for run in self._runs}
        for name in list_files(self._directory, "." + MANIFEST):
            try:
                doc = read_json(os.path.join(self._directory, name))
            except (ValueError, OSError):
                continue
            referenced.update(entry["seq"] for entry in doc.get("runs", ()))
        removed = 0
        for name in list_files(self._runs_dir):
            stem = name.split(".")[0]
            if not stem.isdigit() or int(stem) in referenced:
                continue
            os.unlink(os.path.join(self._runs_dir, name))
            if name.endswith(".run"):
                removed += 1
        return removed
