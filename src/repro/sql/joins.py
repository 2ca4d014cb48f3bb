"""Equi-join kernels shared by the batch executor and streaming operators.

Two paths, mirroring how an analytical engine specializes joins:

* a vectorized gather path for joins against a build side with *unique*
  keys (the dimension-table pattern: the Yahoo! benchmark's ads ->
  campaigns join): a :class:`UniqueKeyIndex` maps each key to its build
  row — a dense lookup table for compact integer keys, sorted keys plus
  ``searchsorted`` otherwise — so the join is one lookup per probe row and
  a masked gather.  A static relation's index is built once, with its
  operator, and serves every epoch;
* a general hash path supporting duplicate keys on both sides.

Both return matched pairs in (left row, right row) order, then the
unmatched rows of the outer side in row order.
"""

from __future__ import annotations

import numpy as np

from repro.sql.batch import RecordBatch
from repro.sql.types import StructType

_NO_ROWS = np.empty(0, dtype=np.int64)


def key_tuples(batch: RecordBatch, names) -> list:
    """Materialize join keys as a list of Python tuples (general path)."""
    arrays = [batch.columns[n] for n in names]
    if len(arrays) == 1:
        return arrays[0].tolist()
    return list(zip(*(a.tolist() for a in arrays)))


def is_null_key(key) -> bool:
    """True when a join key holds a null or NaN in any column: such a
    key matches no row, not even one with the same key."""
    for value in key if isinstance(key, tuple) else (key,):
        if value is None or value != value:
            return True
    return False


class UniqueKeyIndex:
    """Key -> row lookup over a build side whose one join key is numeric,
    non-null and unique.

    Always holds the keys sorted (with the row each came from); integer
    keys whose range is at most ``DENSE_SLOTS_PER_ROW`` times the row
    count also get a dense table, ``table[key - lo]`` being the key's row
    or -1, so a probe of the same dtype costs one gather and no search.
    """

    #: Key-range slots a dense table may spend per build row.
    DENSE_SLOTS_PER_ROW = 4

    __slots__ = ("num_rows", "_sorted", "_order", "_table", "_lo", "_hi")

    def __init__(self, keys: np.ndarray, order: np.ndarray):
        self.num_rows = len(keys)
        self._order = order
        self._sorted = keys[order]
        self._table = self._lo = self._hi = None
        if keys.dtype.kind in "iu" and self.num_rows:
            lo, hi = self._sorted[0], self._sorted[-1]
            span = int(hi) - int(lo) + 1
            if span <= self.DENSE_SLOTS_PER_ROW * self.num_rows:
                self._table = np.full(span, -1, dtype=np.int64)
                self._table[keys - lo] = np.arange(self.num_rows)
                self._lo, self._hi = lo, hi

    @classmethod
    def build(cls, batch: RecordBatch, on):
        """The index over ``batch``'s join key, or None when the key is
        not eligible — several columns, object dtype, a NaN, or a
        duplicate — and the hash path must serve."""
        if len(on) != 1:
            return None
        keys = batch.columns[on[0]]
        if keys.dtype == object:
            return None
        if keys.dtype.kind == "f" and np.isnan(keys).any():
            return None
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        if (ordered[1:] == ordered[:-1]).any():
            return None
        return cls(keys, order)

    def lookup(self, probe: np.ndarray) -> np.ndarray:
        """Build row of each probe key, -1 where no build key equals it."""
        table = self._table
        if table is not None and probe.dtype == self._lo.dtype:
            if not len(probe) or (
                    probe.min() >= self._lo and probe.max() <= self._hi):
                return table[probe - self._lo]
            rows = np.full(len(probe), -1, dtype=np.int64)
            inside = (probe >= self._lo) & (probe <= self._hi)
            rows[inside] = table[probe[inside] - self._lo]
            return rows
        if not self.num_rows:
            return np.full(len(probe), -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self._sorted, probe), self.num_rows - 1)
        return np.where(self._sorted[pos] == probe, self._order[pos], -1)

    def join(self, probe: np.ndarray, how: str, indexed: str):
        """Join indices (see :func:`join_indices`) of probe keys against
        this index over the ``indexed`` side ("right" or "left"), or None
        for an object-dtype probe, which the hash path serves.

        With the index on the right, probe rows are the left rows in
        order; when every one matched, ``left_idx`` is None — "all left
        rows, in order" — so the left columns need no gather.  With the
        index on the left, matched pairs are sorted back into left-row
        order (a stable sort keeps right rows ascending per left row).
        """
        if probe.dtype == object:
            return None
        rows = self.lookup(probe)
        matched = rows >= 0
        if indexed == "right":
            if matched.all():
                left_idx, right_idx = None, rows
            else:
                left_idx = np.flatnonzero(matched)
                right_idx = rows[left_idx]
            left_unmatched = np.flatnonzero(~matched) \
                if how == "left_outer" else _NO_ROWS
            right_unmatched = _unhit(right_idx, self.num_rows) \
                if how == "right_outer" else _NO_ROWS
            return left_idx, right_idx, left_unmatched, right_unmatched
        right_idx = np.flatnonzero(matched)
        left_idx = rows[right_idx]
        order = np.argsort(left_idx, kind="stable")
        left_idx, right_idx = left_idx[order], right_idx[order]
        left_unmatched = _unhit(left_idx, self.num_rows) \
            if how == "left_outer" else _NO_ROWS
        right_unmatched = np.flatnonzero(~matched) \
            if how == "right_outer" else _NO_ROWS
        return left_idx, right_idx, left_unmatched, right_unmatched


def _unhit(hit_rows: np.ndarray, num_rows: int) -> np.ndarray:
    """Rows in ``range(num_rows)`` absent from ``hit_rows``, ascending."""
    hit = np.zeros(num_rows, dtype=bool)
    hit[hit_rows] = True
    return np.flatnonzero(~hit)


def join_indices(left: RecordBatch, right: RecordBatch, on, how: str = "inner"):
    """Compute matching row indices for an equi-join.

    Returns ``(left_idx, right_idx, left_unmatched, right_unmatched)``:
    aligned index arrays for matched pairs plus the unmatched row indices
    needed by the requested outer side (empty arrays otherwise);
    ``left_idx`` is None when every left row matched exactly once, in
    order.  A right side with a unique numeric key is indexed for this
    call (:class:`UniqueKeyIndex`); anything else takes the hash path.
    """
    index = UniqueKeyIndex.build(right, on)
    if index is not None:
        indices = index.join(left.columns[on[0]], how, "right")
        if indices is not None:
            return indices
    return hash_join(left, right, on, how)


def hash_join(left: RecordBatch, right: RecordBatch, on, how: str):
    """General hash join supporting duplicate keys on both sides.  Null
    and NaN keys match nothing (a NaN probe already misses any dict)."""
    build = {}
    for i, key in enumerate(key_tuples(right, on)):
        if not is_null_key(key):
            build.setdefault(key, []).append(i)

    left_idx, right_idx = [], []
    left_unmatched = []
    hit_right = np.zeros(right.num_rows, dtype=bool)
    for i, key in enumerate(key_tuples(left, on)):
        matches = build.get(key)
        if matches:
            for j in matches:
                left_idx.append(i)
                right_idx.append(j)
                hit_right[j] = True
        elif how == "left_outer":
            left_unmatched.append(i)

    right_unmatched = np.nonzero(~hit_right)[0] if how == "right_outer" \
        else np.empty(0, dtype=np.int64)
    return (
        np.asarray(left_idx, dtype=np.int64),
        np.asarray(right_idx, dtype=np.int64),
        np.asarray(left_unmatched, dtype=np.int64),
        right_unmatched,
    )


def apply_time_bound(left: RecordBatch, right: RecordBatch, how: str, within,
                     left_idx, right_idx, left_unmatched, right_unmatched):
    """Filter matched pairs by ``|left.t - right.t2| <= skew`` and move
    rows whose every match failed the bound to the unmatched set (so
    outer joins emit them null-padded)."""
    left_col, right_col, skew = within
    if left_idx is None:
        left_idx = np.arange(left.num_rows)
    if not len(left_idx):
        return left_idx, right_idx, left_unmatched, right_unmatched
    lt = np.asarray(left.columns[left_col], dtype=np.float64)[left_idx]
    rt = np.asarray(right.columns[right_col], dtype=np.float64)[right_idx]
    keep = np.abs(lt - rt) <= skew
    kept_left = left_idx[keep]
    kept_right = right_idx[keep]
    if how == "left_outer":
        had_match = np.zeros(left.num_rows, dtype=bool)
        had_match[kept_left] = True
        candidates = np.unique(left_idx[~keep])
        extra = candidates[~had_match[candidates]]
        left_unmatched = np.union1d(left_unmatched, extra).astype(np.int64)
    elif how == "right_outer":
        had_match = np.zeros(right.num_rows, dtype=bool)
        had_match[kept_right] = True
        candidates = np.unique(right_idx[~keep])
        extra = candidates[~had_match[candidates]]
        right_unmatched = np.union1d(right_unmatched, extra).astype(np.int64)
    return kept_left, kept_right, left_unmatched, right_unmatched


def _null_column(length: int, data_type) -> np.ndarray:
    """A column of nulls of the given (nullable-promoted) type."""
    if data_type.numpy_dtype is object:
        arr = np.empty(length, dtype=object)
        arr[:] = None
        return arr
    return np.full(length, np.nan, dtype=np.float64)


def assemble_join_output(left: RecordBatch, right: RecordBatch, on, how: str,
                         output_schema: StructType,
                         left_idx, right_idx, left_unmatched, right_unmatched) -> RecordBatch:
    """Materialize the join result batch given matched/unmatched indices.

    Join keys appear once; on outer joins, the unmatched side's columns are
    null-padded (numeric columns are promoted to double by the schema).
    A ``left_idx`` of None takes every left row in order: the left columns
    are used as they are.
    """
    right_rest = [n for n in right.schema.names if n not in on]
    left_names = left.schema.names
    columns = {}

    for name in left_names:
        column = left.columns[name]
        parts = [column if left_idx is None else column[left_idx]]
        if len(left_unmatched):
            parts.append(column[left_unmatched])
        if len(right_unmatched):
            if name in on:
                parts.append(right.columns[name][right_unmatched])
            else:
                parts.append(_null_column(len(right_unmatched), output_schema.type_of(name)))
        col = _concat_casted(parts, output_schema.type_of(name))
        columns[name] = col

    for name in right_rest:
        parts = [right.columns[name][right_idx]]
        if len(left_unmatched):
            parts.append(_null_column(len(left_unmatched), output_schema.type_of(name)))
        if len(right_unmatched):
            parts.append(right.columns[name][right_unmatched])
        columns[name] = _concat_casted(parts, output_schema.type_of(name))

    return RecordBatch(columns, output_schema)


def _concat_casted(parts, data_type) -> np.ndarray:
    """Concatenate parts, coercing to the output column type (a single
    part of that type is returned as it is)."""
    target = data_type.numpy_dtype
    if target is object:
        casted = []
        for p in parts:
            if p.dtype != object:
                out = np.empty(len(p), dtype=object)
                out[:] = p.tolist()
                p = out
            casted.append(p)
    else:
        casted = [p.astype(target) if p.dtype != target else p for p in parts]
    return casted[0] if len(casted) == 1 else np.concatenate(casted)


def execute_join(left: RecordBatch, right: RecordBatch, on, how: str) -> RecordBatch:
    """Full equi-join of two batches, producing the logical-plan schema."""
    from repro.sql.logical import Join
    from repro.sql.logical import Scan

    output_schema = Join(
        Scan(left.schema, None, False), Scan(right.schema, None, False), on, how
    ).schema
    indices = join_indices(left, right, on, how)
    return assemble_join_output(left, right, on, how, output_schema, *indices)
