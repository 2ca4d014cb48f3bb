"""The keyed multiset — DBSP's indexed Z-set, key → {row: weight} —
that a stream–stream join side and a weighted dedup keep in one state
value per key (§5.2), and the epoch kernels over it.

Two encodings sit behind one interface, chosen per operator at plan
time from its input schema by :func:`side_layout`:

* :class:`_PackedSideLayout` — every column fixed-width (``long``,
  ``integer``, ``double``, ``timestamp``, ``boolean``): a key's value is
  one ``bytes`` object, its rows back to back in one little-endian row
  format without padding, as the paper's engine keeps Tungsten's binary
  rows in its state store;
* :class:`_SideLayout` — any other side: one flat tuple of cells.

A row's weight field holds its net weight (join) or live count
(dedup).  The handle's value codec maps a value to the records the
operator always wrote — a join side's ``[[row_values, matched], ...]``
(``to_disk``/``from_disk``), a dedup's ``[total, [[count, row], ...]]``
(:func:`multiset_codec`) — wherever state is JSON (a tuple layout's
checkpoints, the tiered backend's runs).  A packed layout also declares
its row format (``schema``, a :class:`~repro.streaming.statefile.RowSchema`),
and the dict backend checkpoints its values as they are, in binary
block files.

The kernels are array programs over one structured row array of an
epoch's stored and new rows (:class:`_Side`), never a Python object per
row or per pair: :func:`probe` runs a join epoch, :func:`evict` a
``within`` eviction, :func:`dedup` a weighted dedup epoch (whose delta
is the epoch's net change per key).

Imported only where a stream–stream join or a weighted dedup is built,
so a query without one never compiles this module.
"""

from __future__ import annotations

import struct
from itertools import chain

import numpy as np

from repro.sql.batch import RecordBatch
from repro.sql.grouping import encode_groups
from repro.sql.types import hashable_value
from repro.streaming.state import encode_keys
from repro.streaming.statefile import RowSchema

#: numpy column dtype -> (struct code, little-endian numpy field format).
_FIXED = {
    np.dtype(np.int64): ("q", "<i8"),
    np.dtype(np.float64): ("d", "<f8"),
    np.dtype(np.bool_): ("?", "?"),
}


def side_layout(schema, track_matched: bool, weight):
    """The layout for a join side of ``schema``: packed when every
    column is fixed-width, else the flat tuple, which names the first
    column that declined packing."""
    floats = tuple(i for i, field in enumerate(schema)
                   if field.data_type.numpy_dtype is np.float64)
    formats = []
    for field in schema:
        fixed = _FIXED.get(np.dtype(field.data_type.numpy_dtype))
        if fixed is None:
            return _SideLayout(
                len(schema), track_matched, weight, floats,
                declined=f"{field.name}: {field.data_type.simple_name}")
        formats.append(fixed)
    return _PackedSideLayout(formats, schema.names, track_matched, weight,
                             floats)


class _SideLayout:
    """The flat tuple encoding, and the interface both encodings share.

    A key's value is one flat tuple: the side's buffered rows one after
    another, ``stride`` cells each — the row's ``width`` column values,
    then, for an outer join only, its matched flag (an inner join never
    reads the flag, so it stores none).  One tuple of atomic values per
    key holds no object per row and drops out of the cyclic
    collector's passes in one.  Values are immutable: a flipped flag or
    a merged row builds a new value.

    The kernel sees rows as a structured array of ``dtype`` — fields
    ``f0`` … ``f{width-1}`` for the columns (objects here, so a cell
    keeps its identity), then a bool ``f{width}`` for the flag when
    tracked: :meth:`gather` builds it from values, :meth:`values` builds
    values from it.
    """

    __slots__ = ("width", "stride", "weight", "tracked", "floats",
                 "declined", "dtype")

    #: The value of a key with no rows.
    empty = ()
    #: The declared row format of values (see the packed layout): none,
    #: a tuple's checkpoints are JSON.
    schema = None

    def __init__(self, width: int, track_matched: bool, weight,
                 floats=(), declined=None):
        self.width = width
        self.tracked = bool(track_matched)
        #: Units of a value per row: cells here, bytes when packed.
        self.stride = width + self.tracked
        #: Index of the weight column in a row, None when append-only.
        self.weight = weight
        #: Positions of the float columns, folded in a row's identity.
        self.floats = tuple(floats)
        #: ``"name: type"`` of the column that declined packing.
        self.declined = declined
        self.dtype = np.dtype([(f"f{i}", object) for i in range(width)]
                              + [(f"f{width}", np.bool_)] * self.tracked)

    def describe(self) -> str:
        """The encoding, for ``explain``."""
        if self.declined is None:
            return "tuple"
        return f"tuple ({self.declined})"

    def rows(self, value) -> int:
        """Rows buffered in one key's value."""
        return len(value) // self.stride

    def gather(self, values) -> np.ndarray:
        """The rows of ``values`` (a list), back to back, as one array:
        one flat tuple, cut a field at a time."""
        flat = list(chain.from_iterable(values))
        n, stride = len(flat) // self.stride, self.stride
        table = np.empty(n, self.dtype)
        for i, name in enumerate(self.dtype.names):
            table[name] = np.fromiter(flat[i::stride], self.dtype[name], n)
        return table

    def new_rows(self, columns, order) -> np.ndarray:
        """An epoch's new rows: ``columns`` (the side's, in schema order)
        taken in ``order``, every row unmatched."""
        table = np.zeros(len(order), self.dtype)
        for name, column in zip(self.dtype.names, columns):
            table[name] = column[order]
        return table

    def values(self, table, counts) -> list:
        """Per-key values of ``table``'s rows, ``counts[k]`` rows each."""
        stride = self.stride
        flat = [None] * (len(table) * stride)
        for i, name in enumerate(self.dtype.names):
            flat[i::stride] = table[name].tolist()
        return _cut(flat, counts * stride, tuple)

    def to_disk(self, value) -> tuple:
        """The nested records of a value (JSON writes a tuple as a list);
        an inner join's rows read unmatched."""
        width, stride = self.width, self.stride
        tracked = self.tracked
        if len(value) == stride:  # one row: most keys, a fifth the cost
            return ((value[:width], tracked and value[width]),)
        return tuple((value[i:i + width], tracked and value[i + width])
                     for i in range(0, len(value), stride))

    def from_disk(self, entries) -> tuple:
        """Invert :meth:`to_disk` on decoded JSON (lists)."""
        if self.tracked:
            return tuple(chain.from_iterable(
                [(*values, matched) for values, matched in entries]))
        if len(entries) == 1:
            return tuple(entries[0][0])
        return tuple(chain.from_iterable(
            [values for values, _matched in entries]))

    def expiry(self, time_idx: int, skew):
        """A key's expiry: its earliest row time plus ``skew``."""
        stride = self.stride
        return (lambda _key, value:
                min(value[time_idx::stride]) + skew if value else None)


class _PackedSideLayout(_SideLayout):
    """The packed encoding: a key's value is one ``bytes`` object, its
    rows back to back in a little-endian row format (int64, float64 and
    bool fields in schema order, then a bool matched flag for an outer
    join) with no padding, ``stride`` bytes each.  The kernel's row
    array is that format itself: values are gathered with one
    ``frombuffer`` and written back with one ``tobytes``; one
    ``struct.Struct`` packs and unpacks a key's rows for the codec."""

    __slots__ = ("_struct", "schema")

    empty = b""

    def __init__(self, formats, names, track_matched: bool, weight,
                 floats=()):
        super().__init__(len(formats), track_matched, weight, floats)
        codes = [code for code, _ in formats] + ["?"] * self.tracked
        fields = [field for _, field in formats] + ["?"] * self.tracked
        self._struct = struct.Struct("<" + "".join(codes))
        self.dtype = np.dtype({"names": [f"f{i}" for i in range(len(fields))],
                               "formats": fields})
        assert self.dtype.itemsize == self._struct.size
        self.stride = self._struct.size
        #: The row format block files record: the side's column names,
        #: then the outer join's flag.
        self.schema = RowSchema([*names, *["__matched__"] * self.tracked],
                                self.dtype, self._struct.format)

    def describe(self) -> str:
        return f"packed {self._struct.format} ({self.stride} B/row)"

    def gather(self, values) -> np.ndarray:
        return np.frombuffer(b"".join(values), self.dtype)

    def values(self, table, counts) -> list:
        return _cut(table.tobytes(), counts * self.stride)

    def to_disk(self, value) -> tuple:
        width, tracked = self.width, self.tracked
        if len(value) == self.stride:
            row = self._struct.unpack(value)
            return ((row[:width], row[width]),) if tracked else ((row, False),)
        rows = self._struct.iter_unpack(value)
        if tracked:
            return tuple((row[:width], row[width]) for row in rows)
        return tuple((row, False) for row in rows)

    def from_disk(self, entries) -> bytes:
        pack = self._struct.pack
        if self.tracked:
            return b"".join([pack(*values, matched)
                             for values, matched in entries])
        if len(entries) == 1:
            return pack(*entries[0][0])
        return b"".join([pack(*values) for values, _matched in entries])

    def expiry(self, time_idx: int, skew):
        unpack = self._struct.iter_unpack
        return (lambda _key, value: min(row[time_idx] for row in
                                        unpack(value)) + skew
                if value else None)


def _cut(flat, sizes, build=None) -> list:
    """``flat`` cut into consecutive pieces of ``sizes`` units."""
    pieces, start = [], 0
    for end in np.cumsum(sizes).tolist():
        piece = flat[start:end]
        pieces.append(piece if build is None else build(piece))
        start = end
    return pieces


def multiset_codec(layout) -> tuple:
    """The ``set_codec`` arguments — ``(to_disk, from_disk, schema)`` —
    of a weighted dedup's values in ``layout``, whose weight
    field holds a row's live count: the JSON record of a value is
    ``[total, [[count, row], ...]]``, each row with its weight cell 1; a
    packed layout's block files hold the values as they are."""
    w = layout.weight

    def to_disk(value) -> tuple:
        entries = [(row[w], (*row[:w], 1, *row[w + 1:]))
                   for row, _matched in layout.to_disk(value)]
        return sum(count for count, _row in entries), entries

    def from_disk(record):
        return layout.from_disk([((*row[:w], count, *row[w + 1:]), False)
                                 for count, row in record[1]])

    return to_disk, from_disk, layout.schema


def evict(layout, values, time_idx: int, skew, bound) -> tuple:
    """Split ``values`` (a sequence) at the other side's watermark
    ``bound``: ``(kept values, expired unmatched rows as one row
    array)``, a row expiring once its time plus ``skew`` is at most
    ``bound``.  Matched rows are left out of the expired ones (an inner
    join tracks no flags, so none is)."""
    table = layout.gather(values)
    counts = np.fromiter(map(len, values), np.int64, len(values))
    row_key = np.repeat(np.arange(len(values)),
                        counts // layout.stride)
    keep = table[f"f{time_idx}"].astype(np.float64) + skew > bound
    expired = ~keep
    if layout.tracked:
        expired &= ~table[f"f{layout.width}"]
    kept = layout.values(table[keep], np.bincount(row_key[keep],
                                                  minlength=len(values)))
    return kept, table[expired]


# ----------------------------------------------------------------------
# The epoch kernel
# ----------------------------------------------------------------------
#: Probe keys per pass of the kernel: the row arrays and per-key lists
#: of one pass bound an epoch's working set, whatever the epoch's size.
_KEYS_PER_PASS = 4096


def probe(op, new_left: RecordBatch, new_right: RecordBatch,
          lt_idx, rt_idx, skew) -> tuple:
    """Pure keyed kernel: one epoch of ``op`` (a ``StreamStreamJoinOp``)
    over its two deltas — DBSP's ``Δa ⋈ (b + Δb) + a ⋈ Δb``.

    The deltas' keys are probed against state once each (per-epoch cost
    O(delta + matches), not O(buffered state)).  Per side, each key's
    stored rows and then its new ones form one row array; pairs are
    enumerated over it with ``np.repeat`` — per key, new-left ×
    all-right, then buffered-left × new-right, so every pair exactly
    once — keys in probe order (left keys by first delta row, then
    right-only keys).  The ``within`` bound is a mask; a weighted pair
    is as many unit rows as the product of its sides' multiplicities.
    An inner join drops delta rows whose key holds a null or NaN: they
    can never match, and buffered they would never leave.

    The probe keys are taken ``_KEYS_PER_PASS`` at a time, which bounds
    the arrays one pass holds.  Stored values are immutable, so reading
    pre-epoch state needs no copy; every write is deferred (see
    :meth:`_Side.write_back`).  Returns ``(writes, batches of matched
    pairs, 0)``, writes for the left then the right handle.
    """
    drop_null = op._node.how == "inner"
    batches = (new_left, new_right)
    groups = [_groups(batch, op._node.on, drop_null) for batch in batches]
    keys, encoded, joinable, slots = _probe_keys(groups)
    deltas = [None if group is None else _delta(batch, group[0], slot,
                                                len(keys))
              for batch, group, slot in zip(batches, groups, slots)]
    sides = ((op._left_layout, op._left_state, deltas[0]),
             (op._right_layout, op._right_state, deltas[1]))
    writes, matched = [([], []), ([], [])], []
    for start in range(0, len(keys), _KEYS_PER_PASS):
        span = slice(start, start + _KEYS_PER_PASS)
        left, right = (_Side(layout, state, encoded[span], delta, span)
                       for layout, state, delta in sides)
        lpos, rpos = _pairs(left, right, joinable[span])
        if skew is not None and len(lpos):
            within = ~(np.abs(left.take(lt_idx, lpos, np.float64)
                              - right.take(rt_idx, rpos, np.float64)) > skew)
            lpos, rpos = lpos[within], rpos[within]
        if len(lpos):
            matched.append(_pair_batch(op, left, right, lpos, rpos))
        for (puts, removes), side, hits in zip(writes, (left, right),
                                               (lpos, rpos)):
            side_puts, side_removes = side.write_back(
                hits, keys[span], encoded[span])
            puts += side_puts
            removes += side_removes
    return writes, matched, 0


def dedup(op, batch: RecordBatch) -> tuple:
    """Pure keyed kernel: one epoch of ``op``, a ``StreamingDedupOp``
    over a weighted child, on the delta ``batch``.

    A key's value holds its live rows in ``op._layout``, a row's count
    in its weight field, in slot order: the first is the representative
    batch ``drop_duplicates`` keeps.  The delta is grouped by the
    subset's key (keys that encode alike share one); each key's stored
    rows, then its new ones in delta order, form one row array.  Counts
    run per row identity in that order: a row takes a slot, at the end,
    when its count leaves zero — so one that returns to zero inside the
    epoch re-registers at its next insert, ``zset.apply_zset``'s order —
    and a count below zero raises ``ValueError``.

    Returns ``(writes, [delta] or [], 0)``: each key with live rows is
    put, one left with none removed, and the delta is the epoch's net
    change per key in probe-key order — ``-1`` old representative,
    ``+1`` new one, nothing when the two are one row identity.
    """
    layout, weight = op._layout, op._layout.weight
    group = _groups(batch, op._node.subset, False)
    keys, encoded, _joinable, (slot,) = _probe_keys([group])
    k = len(keys)
    side = _Side(layout, op.state, encoded,
                 _delta(batch, group[0], slot, k), slice(0, k))
    codes, n = side.identities(slice(None))
    # Each identity's rows in table order, and its count after each.
    by = np.argsort(codes, kind="stable")
    weights = side.take(weight, by, np.int64)
    sizes = np.bincount(codes, minlength=n)
    ends = np.cumsum(sizes)
    total = np.cumsum(weights)
    count = total - np.repeat(total[ends - sizes] - weights[ends - sizes],
                              sizes)
    if (count < 0).any():
        key = keys[side.row_key[by[count < 0].min()]]
        raise ValueError("retraction of a row never added: dedup key "
                         f"{key!r} has no live row matching the -1 delta")
    # The slot a live identity holds is the last one it took.
    took = np.where((count == weights) & (weights > 0),
                    np.arange(len(by)), -1)
    live = np.flatnonzero(count[ends - 1] > 0)
    slots = by[np.maximum.accumulate(took)[ends[live] - 1]]
    order = np.argsort(slots)
    slots = slots[order]
    rows = side.table[slots]
    rows[f"f{weight}"] = count[ends[live] - 1][order]
    held = np.bincount(side.row_key[slots], minlength=k)
    values = layout.values(rows, held)
    puts = [put for put in zip(encoded, keys, values) if put[2]]
    removes = [(enc, key) for enc, key, value, stored in zip(
        encoded, keys, values, side.sc.tolist()) if stored and not value]
    # Per key: the stored representative out, the new one in.
    old = np.where(side.sc > 0, side.ts, -1)
    new = np.full(k, -1)
    new[held > 0] = slots[(np.cumsum(held) - held)[held > 0]]
    same = (old >= 0) & (new >= 0) & (codes[old] == codes[new])
    positions = np.stack([old, new], axis=1).ravel()
    emit = (positions >= 0) & ~np.repeat(same, 2)
    if not emit.any():
        return [(puts, removes)], [], 0
    positions = positions[emit]
    return [(puts, removes)], [_take_batch(
        op.output_schema, [(side, i, positions) for i in range(layout.width)],
        weight, np.tile(np.array([-1, 1]), k)[emit])], 0


def _delta(batch: RecordBatch, codes, slot, k: int) -> tuple:
    """A delta's rows by probe key: ``(columns, row positions ordered
    by probe key, rows per key, each key's first position)``."""
    row_key = slot[codes]
    rows = np.flatnonzero(row_key >= 0)
    order = rows[np.argsort(row_key[rows], kind="stable")]
    counts = np.bincount(row_key[rows], minlength=k)
    return ([batch.columns[name] for name in batch.schema.names], order,
            counts, np.cumsum(counts) - counts)


def _groups(batch: RecordBatch, on, drop_null: bool):
    """A delta's rows grouped by join key: ``(row codes, key tuple per
    code, codes in order of their first row, null key per code, the key
    columns' cells in that order)`` — None for an empty delta.  With
    ``drop_null`` the null keys' codes are left out of the order."""
    n = batch.num_rows
    if n == 0:
        return None
    key_columns = [batch.columns[name] for name in on]
    codes, keys = encode_groups(key_columns)
    first = np.full(len(keys), n, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(n))
    null = np.zeros(len(keys), dtype=bool)
    for cells in (column[first] for column in key_columns):
        null |= (cells != cells) if cells.dtype != object else np.fromiter(
            (v is None or v != v for v in cells.tolist()), bool, len(keys))
    order = np.argsort(first, kind="stable")
    if drop_null:
        order = order[~null[order]]
    return codes, keys, order, null, [c[first[order]] for c in key_columns]


def _probe_keys(groups) -> tuple:
    """The epoch's probe keys from both sides' groups: ``(key tuples,
    their encoded keys, joinable flags, per side an array mapping a
    group code to its probe key, -1 where dropped)``.

    A right key equal to a left key (``==``, as a dict compares: a NaN
    never equals another NaN object) is that key; left keys come in
    first-row order, then the right-only ones.  Keys of one side that
    encode alike (only nulls can) share one probe key, so a handle is
    written once per key."""
    keys, encoded, joinable, slots = [], [], [], []
    by_key = {}
    for side, group in enumerate(groups):
        if group is None:
            slots.append(None)
            continue
        _codes, group_keys, order, null, cells = group
        side_keys = [group_keys[g] for g in order.tolist()]
        index = np.asarray([by_key.get(key, -1) for key in side_keys],
                           dtype=np.int64)
        fresh = np.flatnonzero(index < 0)
        side_encoded = encode_keys([c[fresh] for c in cells])
        side_null = null[order[fresh]]
        if side_null.any():  # NaN keys may encode alike: one probe key
            by_encoded = {}
            for i, enc, is_null in zip(fresh.tolist(), side_encoded,
                                       side_null.tolist()):
                p = index[i] = by_encoded.setdefault(enc, len(keys))
                if p == len(keys):
                    keys.append(side_keys[i])
                    encoded.append(enc)
                    joinable.append(not is_null)
        else:
            index[fresh] = np.arange(len(keys), len(keys) + len(fresh))
            keys.extend(side_keys if len(fresh) == len(side_keys)
                        else [side_keys[i] for i in fresh.tolist()])
            encoded.extend(side_encoded)
            joinable.extend([True] * len(fresh))
        if side == 0:
            by_key = dict(zip(keys, range(len(keys))))
        slot = np.full(len(group_keys), -1, dtype=np.int64)
        slot[order] = index
        slots.append(slot)
    return keys, encoded, np.asarray(joinable, dtype=bool), slots


class _Side:
    """One join side's (or a dedup's) rows for a span of the epoch's
    probe keys, as one structured row array (``table``, in the layout's ``dtype``): key
    ``k``'s ``sc[k]`` buffered rows, then its ``nc[k]`` new ones,
    ``ts[k]`` the first."""

    __slots__ = ("layout", "stored", "table", "sc", "nc", "tc", "ts",
                 "row_key")

    def __init__(self, layout, state, encoded, delta, span):
        k = len(encoded)
        self.layout = layout
        empty = layout.empty
        self.stored = [v or empty for v in state.get_many(encoded)]
        self.sc = np.fromiter(map(len, self.stored), np.int64,
                              k) // layout.stride
        stored = layout.gather(self.stored)
        if delta is None:
            self.nc = np.zeros(k, dtype=np.int64)
            new = stored[:0]
        else:
            columns, order, counts, starts = delta
            self.nc = counts[span]
            at = starts[span.start]
            new = layout.new_rows(columns, order[at:at + self.nc.sum()])
        self.tc = self.sc + self.nc
        self.ts = np.cumsum(self.tc) - self.tc
        if not len(new):
            self.table = stored
        elif not len(stored):
            self.table = new
        else:  # interleave: each key's buffered rows, then its new ones
            self.table = np.empty(len(stored) + len(new), layout.dtype)
            at = self.ts
            for part, count in ((stored, self.sc), (new, self.nc)):
                self.table[np.repeat(at - (np.cumsum(count) - count), count)
                           + np.arange(len(part))] = part
                at = at + count
        self.row_key = np.repeat(np.arange(k), self.tc)

    def take(self, i: int, positions, dtype=None) -> np.ndarray:
        """Column ``i`` at ``positions``, cast to ``dtype`` if given (the
        tuple layout's cells are objects)."""
        column = self.table[f"f{i}"][positions]
        if dtype is None or column.dtype == dtype:
            return column
        return column.astype(dtype)

    def write_back(self, hits, keys, encoded) -> tuple:
        """``(puts, removes)`` for this side's handle, keys in probe
        order, after the rows at ``hits`` matched.

        Over a weighted side the stored value is the integral of the
        side's input Z-set: each key with new rows is consolidated by
        row identity — the row without its weight, with
        −0.0 folded to 0.0 and NaN to one null.  Weights add, a row
        netting to zero disappears, survivors keep first-seen order and
        cells (a negative net multiplicity is legal and kept: the insert
        it cancels may arrive in a later epoch).  A key where no two rows
        merge keeps its rows as they are.  A weighted side tracks no
        flags: analysis refuses an outer join over a weighted stream."""
        layout, table, row_key = self.layout, self.table, self.row_key
        k = len(keys)
        touched = self.nc > 0
        flags = weights = merged = None
        if layout.tracked:
            hit = np.zeros(len(table), dtype=bool)
            hit[hits] = True
            stored_flags = table[f"f{layout.width}"]
            flipped = hit & ~stored_flags
            if flipped.any():
                touched |= np.bincount(row_key[flipped], minlength=k) > 0
            flags = stored_flags | hit
        if not touched.any():
            return [], []
        keep = touched[row_key]
        if layout.weight is not None:
            weights, merged = self._consolidate(keep)
        selected = np.flatnonzero(keep)
        rows = table[selected]
        if weights is not None:
            rows[f"f{layout.weight}"] = weights[selected]
        if flags is not None:
            rows[f"f{layout.width}"] = flags[selected]
        touched_keys = np.flatnonzero(touched)
        values = layout.values(
            rows, np.bincount(row_key[selected], minlength=k)[touched_keys])
        index = range(k) if len(touched_keys) == k else touched_keys.tolist()
        if len(index) < k:
            encoded = [encoded[p] for p in index]
            keys = [keys[p] for p in index]
        if merged is None:  # every value grew or flipped a flag
            return list(zip(encoded, keys, values)), []
        puts, removes = [], []
        stored = self.stored
        for p, enc, key, value in zip(index, encoded, keys, values):
            if value != stored[p]:  # a merged key may net to its rows
                if value:
                    puts.append((enc, key, value))
                else:
                    removes.append((enc, key))
        return puts, removes

    def identities(self, positions) -> tuple:
        """``(codes, count)`` grouping the rows at ``positions`` by key
        and row identity: the row without its weight, with −0.0 folded
        to 0.0 and NaN to one null."""
        layout = self.layout
        identity = [self.row_key[positions]]
        for i in range(layout.width):
            if i == layout.weight:
                continue
            column = self.take(i, positions, np.float64
                               if i in layout.floats else None)
            if column.dtype == np.float64:  # −0.0 already equals 0.0
                null = np.isnan(column)
                identity += [null, np.where(null, 0.0, column)]
            else:
                identity.append(column.astype(np.int64)
                                if column.dtype == np.bool_ else column)
        try:
            codes, uniques = encode_groups(identity)
        except TypeError:  # a cell holding a list: fold it to a tuple
            codes, uniques = encode_groups(
                [np.fromiter(map(hashable_value, c), object, len(c))
                 if c.dtype == object else c for c in identity])
        return codes, len(uniques)

    def _consolidate(self, keep) -> tuple:
        """Consolidate the keys with new rows (see :meth:`write_back`):
        updates ``keep`` in place, returns ``(weights of the rows kept,
        keys where rows merged)`` — ``(None, None)`` when nothing
        merged."""
        layout, row_key = self.layout, self.row_key
        assert not layout.tracked
        # Only a key with new rows, and with two rows or more, can merge.
        mergeable = (self.nc > 0) & (self.tc > 1)
        candidates = np.flatnonzero(mergeable[row_key])
        if not len(candidates):
            return None, None
        codes, count = self.identities(candidates)
        if count == len(candidates):
            return None, None
        by_code = np.argsort(codes, kind="stable")
        sizes = np.bincount(codes)
        starts = np.cumsum(sizes) - sizes
        first = candidates[by_code[starts]]
        weights = self.take(layout.weight, slice(None), np.int64)
        net = np.add.reduceat(weights[candidates][by_code], starts)
        k = len(self.nc)
        merged = mergeable & (
            np.bincount(row_key[first], minlength=k) < self.tc)
        keep &= ~merged[row_key]
        survivors = merged[row_key[first]] & (net != 0)
        rows = first[survivors]
        keep[rows] = True
        weights = weights.copy()
        weights[rows] = net[survivors]
        return weights, merged


def _pairs(left: _Side, right: _Side, joinable) -> tuple:
    """Row positions ``(left, right)`` of every pair, in output order:
    per key, block A (new-left × all-right) then block B
    (buffered-left × new-right), each left row's pairs together."""
    k = np.flatnonzero(joinable & (left.tc > 0) & (right.tc > 0))
    lo = np.stack([left.ts[k] + left.sc[k], left.ts[k]], axis=1).ravel()
    lcount = np.stack([left.nc[k], left.sc[k]], axis=1).ravel()
    ro = np.stack([right.ts[k], right.ts[k] + right.sc[k]], axis=1).ravel()
    rcount = np.stack([right.tc[k], right.nc[k]], axis=1).ravel()
    sizes = lcount * rcount
    total = int(sizes.sum())
    block = np.repeat(np.arange(len(sizes)), sizes)
    offset = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    width = rcount[block]
    return lo[block] + offset // width, ro[block] + offset % width


def _pair_batch(op, left: _Side, right: _Side, lpos, rpos) -> RecordBatch:
    """The matched pairs as a batch of ``op``'s inner schema: the left
    row's columns, then the right row's other than the keys."""
    sign = slot = None
    if op._pair_weight is not None:
        lw_idx, rw_idx, slot = op._pair_weight
        weight = np.ones(len(lpos), dtype=np.int64)
        if lw_idx is not None:
            weight = weight * left.take(lw_idx, lpos, np.int64)
        if rw_idx is not None:
            weight = weight * right.take(rw_idx, rpos, np.int64)
        sign = np.where(weight > 0, 1, -1)
        repeat = np.maximum(np.abs(weight), 1)
        if (repeat > 1).any():
            lpos, rpos, sign = (np.repeat(a, repeat)
                                for a in (lpos, rpos, sign))
    sources = [(left, i, lpos) for i in range(left.layout.width)]
    sources += [(right, i, rpos) for i in op._rest_idx]
    return _take_batch(op._inner, sources, slot, sign)


def _take_batch(schema, sources, slot, sign) -> RecordBatch:
    """A batch of ``schema``: column ``j`` is ``sources[j]``, a ``(side,
    field index, positions)`` take, but column ``slot`` is ``sign``."""
    columns = {}
    for j, (field, (side, i, positions)) in enumerate(zip(schema, sources)):
        dtype = field.data_type.numpy_dtype
        columns[field.name] = (sign.astype(dtype) if j == slot else side.take(
            i, positions, None if dtype is object else dtype))
    return RecordBatch(columns, schema)
