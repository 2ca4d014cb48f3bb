"""How a stream–stream join side buffers its rows in one state value
per key (§5.2).

Two encodings sit behind one interface, chosen per side at plan time
from the side's schema by :func:`side_layout`:

* :class:`_PackedSideLayout` — every column fixed-width (``long``,
  ``integer``, ``double``, ``timestamp``, ``boolean``): a key's value is
  one ``bytes`` object, its rows back to back in one little-endian row
  format without padding, as the paper's engine keeps Tungsten's binary
  rows in its state store;
* :class:`_SideLayout` — any other side: one flat tuple of cells.

Either way the state handle's value codec (``to_disk``/``from_disk``)
maps a value to the same nested ``[[row_values, matched], ...]``
records, so the encoding never reaches a checkpoint byte.  The join
reads values only through the layout.

Imported only where a stream–stream join is built, so a query without
one never compiles this module.
"""

from __future__ import annotations

import struct
from itertools import chain

import numpy as np

from repro.sql.types import hashable_value

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
    return _PackedSideLayout(formats, track_matched, weight, floats)


class _SideLayout:
    """The flat tuple encoding, and the interface both encodings share.

    A key's value is one flat tuple: the side's buffered rows one after
    another, ``stride`` cells each — the row's ``width`` column values,
    then, for an outer join only, its matched flag (an inner join never
    reads the flag, so it stores none).  One tuple of atomic values per
    key holds no object per row and drops out of the cyclic
    collector's passes in one.  Values are immutable: a flipped flag or
    a merged row builds a new value.

    A *row* below is one tuple of ``stride`` cells (values, then the
    flag when tracked); ``_rows`` and ``_build`` convert between a value
    and its rows, and everything else is written once over rows.
    """

    __slots__ = ("width", "stride", "weight", "tracked", "_folds",
                 "declined")

    #: The value of a key with no rows.
    empty = ()

    def __init__(self, width: int, track_matched: bool, weight,
                 floats=(), declined=None):
        self.width = width
        self.tracked = bool(track_matched)
        #: Units of a value per row: cells here, bytes when packed.
        self.stride = width + self.tracked
        #: Index of the weight column in a row, None when append-only.
        self.weight = weight
        #: Positions of float columns within a row's identity (the row
        #: without its weight), folded by :func:`_fold_floats`.
        self._folds = () if weight is None else tuple(
            i - (i > weight) for i in floats if i != weight)
        #: ``"name: type"`` of the column that declined packing.
        self.declined = declined

    def describe(self) -> str:
        """The encoding, for ``explain``."""
        if self.declined is None:
            return "tuple"
        return f"tuple ({self.declined})"

    def rows(self, value) -> int:
        """Rows buffered in one key's value."""
        return len(value) // self.stride

    def _rows(self, value) -> list:
        stride = self.stride
        return [value[i:i + stride] for i in range(0, len(value), stride)]

    def _build(self, rows):
        return tuple(chain.from_iterable(rows))

    def delta_values(self, columns, order, starts, ends) -> list:
        """Per-key values of an epoch's new rows: ``columns`` (the
        side's, in schema order) taken in ``order``, key ``g``'s rows
        at ``starts[g]:ends[g]`` of it, every row unmatched.  One flat
        list is filled a column at a time; a key's value is a slice."""
        stride = self.stride
        flat = [False] * (len(order) * stride)
        for i, column in enumerate(columns):
            flat[i::stride] = column[order].tolist()
        return [tuple(flat[s * stride:e * stride])
                for s, e in zip(starts.tolist(), ends.tolist())]

    def row_values(self, value) -> list:
        """A value's rows as tuples of their ``width`` column values."""
        width, stride = self.width, self.stride
        return [value[i:i + width] for i in range(0, len(value), stride)]

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

    def flag_matched(self, value, hits):
        """``value`` with the rows at positions ``hits`` marked matched:
        a fresh value if any flag flips, else ``value`` itself."""
        flags = [i * self.stride + self.width for i in hits]
        if all(value[f] for f in flags):
            return value
        out = list(value)
        for f in flags:
            out[f] = True
        return tuple(out)

    def evict(self, value, time_idx: int, skew, bound) -> tuple:
        """Split ``value`` at the other side's watermark ``bound``:
        ``(kept value, expired unmatched rows)``, a row expiring once
        its time plus ``skew`` is at most ``bound``.  The expired rows
        come as ``width``-value tuples, matched ones left out (an inner
        join tracks no flags, so all of them)."""
        width, tracked = self.width, self.tracked
        keep, unmatched = [], []
        for row in self._rows(value):
            if row[time_idx] + skew > bound:
                keep.append(row)
            elif not (tracked and row[width]):
                unmatched.append(row[:width])
        return self._build(keep) if keep else self.empty, unmatched

    def consolidate(self, value):
        """A value as the integral of the side's input Z-set.

        A row's identity is the row without its weight (and flag),
        compared as values, with −0.0 folded to 0.0 and NaN to one null.
        Weights add, a row netting to zero disappears, survivors keep
        first-seen order and cells (a negative net multiplicity is legal
        and kept: the insert it cancels may arrive in a later epoch),
        and a merged row is matched if any of its parts was.  ``value``
        itself comes back when no two rows merge, and on an unweighted
        side.
        """
        weight_idx, width, stride = self.weight, self.width, self.stride
        if weight_idx is None or len(value) < 2 * stride:
            return value
        tracked, folds = self.tracked, self._folds
        rows = self._rows(value)
        net = {}
        for row in rows:
            identity = row[:weight_idx] + row[weight_idx + 1:width]
            if folds:
                identity = _fold_floats(identity, folds)
            try:
                slot = net.get(identity)
            except TypeError:  # a cell holding a list: fold it to a tuple
                identity = tuple(map(hashable_value, identity))
                slot = net.get(identity)
            if slot is None:
                net[identity] = [row, row[weight_idx],
                                 tracked and row[width]]
            else:
                slot[1] += row[weight_idx]
                if tracked:
                    slot[2] = slot[2] or row[width]
        if len(net) == len(rows):
            return value
        out = []
        for row, weight, matched in net.values():
            if weight == 0:
                continue
            row = list(row)
            row[weight_idx] = weight
            if tracked:
                row[width] = matched
            out.append(row)
        return self._build(out) if out else self.empty


def _fold_floats(identity: tuple, folds) -> tuple:
    """``identity`` with the floats at ``folds`` made canonical: −0.0
    as 0.0 and NaN (or None) as None, the way the sink nets rows."""
    cells = list(identity)
    for i in folds:
        v = cells[i]
        cells[i] = None if v is None or v != v else v + 0.0
    return tuple(cells)


class _PackedSideLayout(_SideLayout):
    """The packed encoding: a key's value is one ``bytes`` object, its
    rows back to back in a little-endian row format (int64, float64 and
    bool fields in schema order, then a bool matched flag for an outer
    join) with no padding, ``stride`` bytes each.  One ``struct.Struct``
    packs and unpacks rows in C; an epoch's new rows are packed once,
    through the numpy row dtype of the same layout."""

    __slots__ = ("_struct", "_dtype")

    empty = b""

    def __init__(self, formats, track_matched: bool, weight, floats=()):
        super().__init__(len(formats), track_matched, weight, floats)
        codes = [code for code, _ in formats] + ["?"] * self.tracked
        fields = [field for _, field in formats] + ["?"] * self.tracked
        self._struct = struct.Struct("<" + "".join(codes))
        self._dtype = np.dtype({"names": [f"f{i}" for i in range(len(fields))],
                                "formats": fields})
        assert self._dtype.itemsize == self._struct.size
        self.stride = self._struct.size

    def describe(self) -> str:
        return f"packed {self._struct.format} ({self.stride} B/row)"

    def _rows(self, value) -> list:
        return list(self._struct.iter_unpack(value))

    def _build(self, rows) -> bytes:
        pack = self._struct.pack
        return b"".join([pack(*row) for row in rows])

    def delta_values(self, columns, order, starts, ends) -> list:
        """As the tuple layout's, in one ``tobytes`` of the epoch's rows
        in key order; a key's value is a slice of it."""
        packed = np.zeros(len(order), dtype=self._dtype)
        for name, column in zip(self._dtype.names, columns):
            packed[name] = column[order]
        data, stride = packed.tobytes(), self.stride
        return [data[s * stride:e * stride]
                for s, e in zip(starts.tolist(), ends.tolist())]

    def row_values(self, value) -> list:
        rows = self._struct.iter_unpack(value)
        if not self.tracked:
            return list(rows)
        width = self.width
        return [row[:width] for row in rows]

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

    def flag_matched(self, value, hits):
        stride = self.stride
        flags = [i * stride + stride - 1 for i in hits]
        if all(value[f] for f in flags):
            return value
        out = bytearray(value)
        for f in flags:
            out[f] = 1
        return bytes(out)
