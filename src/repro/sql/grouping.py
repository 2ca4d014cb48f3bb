"""Group encoding: map key columns to dense integer group codes.

Used by both the batch hash aggregate and the streaming stateful aggregate;
codes feed the vectorized per-group partial kernels on
:class:`~repro.sql.expressions.AggregateFunction`.
"""

from __future__ import annotations

import numpy as np

#: The dense path's lookup table may hold this many slots per input row
#: (and at least ``_DENSE_MIN_SLOTS``); a wider key range is sorted.
_DENSE_SLOTS_PER_ROW = 2
_DENSE_MIN_SLOTS = 1 << 12
#: Window indexes at or beyond this magnitude are not exact integers in a
#: double, so they keep the exact path.
_EXACT_FLOAT_INT = float(1 << 52)


def encode_groups(arrays, window_slide=None) -> tuple:
    """Encode parallel key arrays into ``(codes, unique_key_tuples)``.

    ``codes[i]`` is the dense id of row i's key; ``unique_key_tuples[c]``
    is the Python tuple for code ``c``.  All-numeric keys take a fully
    vectorized path; unique keys come back in lexicographic order (the
    order a structured-array ``np.unique`` would give).

    With ``window_slide``, the last array holds tumbling-window indexes
    ``floor(t / slide)`` (finite doubles) and the key tuples carry each
    window's start ``index * window_slide`` in its place: the codes and
    tuples are exactly those the start values themselves would give.
    """
    arrays = list(arrays)
    if not arrays:
        raise ValueError("encode_groups requires at least one key array")
    n = len(arrays[0])
    if n == 0:
        return np.empty(0, dtype=np.int64), []

    if all(a.dtype != object for a in arrays):
        encoded = _encode_dense(arrays, n, window_slide)
        if encoded is not None:
            return encoded
    if window_slide is not None:
        arrays[-1] = arrays[-1] * window_slide

    if all(a.dtype != object for a in arrays):
        if len(arrays) == 1:
            uniques, codes = np.unique(arrays[0], return_inverse=True)
            return codes.astype(np.int64, copy=False), [(k,) for k in uniques.tolist()]
        encoded = _encode_numeric_multi(arrays, n)
        if encoded is not None:
            return encoded
        return _encode_structured(arrays, n)

    # General path: Python dict over key tuples (needed for string keys).
    lists = [a.tolist() for a in arrays]
    keys = lists[0] if len(lists) == 1 else list(zip(*lists))
    seen = {}
    codes = np.empty(n, dtype=np.int64)
    uniques = []
    for i, key in enumerate(keys):
        code = seen.get(key)
        if code is None:
            code = len(uniques)
            seen[key] = code
            uniques.append(key if isinstance(key, tuple) else (key,))
        codes[i] = code
    return codes, uniques


def _encode_dense(arrays, n: int, window_slide):
    """Exact dense path for bounded integer keys and window indexes.

    Each key becomes its offset from the column minimum; the offsets
    combine into one mixed-radix integer per row (first column most
    significant, so combined order is lexicographic order), one
    ``bincount`` marks the combinations present and one lookup table maps
    each to its rank — the sorted order ``np.unique`` would give, without
    a sort.  Returns None (the caller takes the sorting path) for a
    float or object column, a range product beyond the table budget, or a
    window index that is not an exact integer, or whose starts could
    collide or carry a signed zero.
    """
    budget = max(_DENSE_SLOTS_PER_ROW * n, _DENSE_MIN_SLOTS)
    window_col = len(arrays) - 1 if window_slide is not None else None
    columns = []  # (key array, minimum, span) per key column
    size = 1
    for i, a in enumerate(arrays):
        if a.dtype.kind in "iub":
            if a.dtype.itemsize < 8:
                # Offsets from the minimum must not wrap in the key's width.
                a = a.astype(np.int64)
        elif i != window_col:
            return None
        lo, hi = a.min(), a.max()
        if i == window_col and not (
                -_EXACT_FLOAT_INT < lo and hi < _EXACT_FLOAT_INT):
            return None  # also rejects a NaN index
        span = int(hi) - int(lo) + 1
        size *= span
        if size > budget:
            return None
        columns.append((a, lo, span))
    if window_col is not None:
        index, lo, span = columns[-1]
        starts = (np.arange(span) + lo) * window_slide
        if (np.diff(starts) <= 0).any():
            return None  # two indexes would share one start
        if lo <= 0 <= lo + span - 1 and np.signbit(index[index == 0]).any():
            return None  # -0.0: the sorting path decides how zeros group
    combined = None
    for a, lo, span in columns:
        offsets = (a - lo).astype(np.int64, copy=False)
        combined = offsets if combined is None else combined * span + offsets
    present = np.flatnonzero(np.bincount(combined, minlength=size))
    table = np.empty(size, dtype=np.int64)
    table[present] = np.arange(len(present))
    codes = table[combined]
    values = []
    for i in range(len(columns) - 1, -1, -1):
        a, lo, span = columns[i]
        offsets = present % span
        present = present // span
        if i == window_col:
            values.append((offsets + lo) * window_slide)
        else:
            values.append((offsets.astype(a.dtype) + lo).astype(
                arrays[i].dtype, copy=False))
    uniques = list(zip(*(v.tolist() for v in reversed(values))))
    return codes, uniques


def _encode_numeric_multi(arrays, n: int):
    """Multi-column numeric keys via combined row hashes.

    A structured-array ``np.unique`` compares void elements with the GIL
    held (and ~10x slower than a flat integer sort); hashing the key
    columns into one uint64 per row keeps the sort on a primitive dtype,
    which NumPy sorts in parallel-friendly nogil code.  Every row is then
    verified against its group's representative key — a 64-bit collision
    (or a NaN key, which never equals itself) returns ``None`` and the
    caller falls back to the exact structured path.
    """
    from repro.sql.batch import stable_hash_arrays

    hashed = stable_hash_arrays(arrays)
    _, first_idx, codes = np.unique(
        hashed, return_index=True, return_inverse=True)
    codes = codes.astype(np.int64, copy=False)
    reps = [a[first_idx] for a in arrays]
    matches = np.ones(n, dtype=bool)
    for a, rep in zip(arrays, reps):
        matches &= a == rep[codes]
    if not matches.all():
        return None
    # Reorder groups lexicographically (first key column primary) so the
    # output order matches the structured-unique path exactly.
    order = np.lexsort(tuple(reps[::-1]))
    remap = np.empty(len(order), dtype=np.int64)
    remap[order] = np.arange(len(order))
    uniques = list(zip(*(rep[order].tolist() for rep in reps)))
    return remap[codes], uniques


def _encode_structured(arrays, n: int):
    """Exact fallback: structured-array unique (lexicographic order)."""
    packed = np.empty(n, dtype=[(f"k{i}", a.dtype) for i, a in enumerate(arrays)])
    for i, a in enumerate(arrays):
        packed[f"k{i}"] = a
    uniques, codes = np.unique(packed, return_inverse=True)
    return codes.astype(np.int64, copy=False), [tuple(k) for k in uniques.tolist()]


#: The one NaN object :func:`shared_nan` puts in key tuples.
_NAN = float("nan")


def shared_nan(key: tuple) -> tuple:
    """``key`` with every NaN replaced by one shared NaN object.  Tuples
    compare their elements by identity first, so two keys holding a null
    (NaN) double are then equal and hash alike, as their state encodings
    are; NaN objects from two ``tolist`` calls never are."""
    if all(v == v for v in key):
        return key
    return tuple(_NAN if v != v else v for v in key)


#: Parts an int64 slot takes before it widens to Python ints.  An int64
#: partial stays below 2**53 in magnitude (a row count, or an integer sum
#: ``Sum`` keeps in int64 only that far), so this many add up exactly.
_INT64_PARTS = 1 << 10


def _add_at(total: np.ndarray, ids: np.ndarray, part: np.ndarray, sign: int,
            widen: bool):
    """``total`` with ``sign * part`` added at ``ids`` (which may repeat).
    Integer slots widen to object arrays of Python ints when either side
    holds them already, or on ``widen``."""
    if total.dtype.kind in "iuO" and (
            widen or total.dtype == object or part.dtype == object):
        total, part = total.astype(object), part.astype(object)
    (np.add if sign > 0 else np.subtract).at(total, ids, part)
    return total


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """A copy of ``array`` zero-extended to ``size`` slots (a copy: a
    part's arrays may be shared, the row counts with ``count(*)``'s)."""
    return np.concatenate([array, np.zeros(size - len(array), array.dtype)])


class PartialTable:
    """Per-group aggregate partials, merged over the parts of one epoch.

    Each part is grouped on its own (``codes``/``uniques`` as
    :func:`encode_groups` returns them) and reduced to per-group partials;
    :meth:`add` numbers the part's key tuples into epoch-wide group ids,
    in first-seen order, and merges the partials in part order — a +1
    part with each aggregate's ``merge``, a -1 part with its ``retract``.
    Additive aggregates (count, sum, avg) merge as arrays, one vectorized
    add per buffer slot; any other keeps one buffer per group and merges
    with its own ``merge``, which keeps ``first`` and ``last`` in arrival
    order, as one pass over the concatenated parts would.  Exact for
    counts and integer sums; a float ``sum``/``avg`` adds per-part totals,
    which can differ from one pass's total in the last place.

    ``key_fn`` maps a key tuple to the dict key groups are told apart by
    (:func:`shared_nan` where a key column is a double, so that a null
    key read in two parts is one group).  With ``count_rows`` the table
    also keeps each part's rows per group, for :meth:`counts`.
    """

    def __init__(self, aggregates, count_rows: bool = False, key_fn=None):
        self._aggregates = aggregates
        self._slots = [None] * len(aggregates)
        self._key_fn = key_fn
        #: Key tuple -> group id; insertion order is id order.
        self._index = {}
        #: (ids, rows per part group, sign) per part, with ``count_rows``.
        self._rows = [] if count_rows else None
        self._added = 0  # parts merged

    def __len__(self) -> int:
        return len(self._index)

    @property
    def keys(self) -> list:
        """Key tuples by group id."""
        return list(self._index)

    def add(self, batch, codes: np.ndarray, uniques: list, sign: int = 1):
        """Merge one grouped part's partials (``batch`` holds the rows
        ``codes`` index, ``uniques`` the part's key tuples by code)."""
        index = self._index
        fresh = not index
        self._added += 1
        if self._key_fn is not None:
            uniques = [self._key_fn(key) for key in uniques]
        ids = list(map(index.get, uniques))
        if None in ids:  # new groups, numbered in first-seen order
            for i, g in enumerate(ids):
                if g is None:
                    ids[i] = index.setdefault(uniques[i], len(index))
        ids = np.array(ids, dtype=np.int64)
        size, width = len(index), len(uniques)
        rows = None
        if self._rows is not None:
            rows = np.bincount(codes, minlength=width)
            self._rows.append((ids, rows, sign))
        # A first +1 part whose keys are all distinct is the table as is.
        adopt = fresh and size == width and sign > 0
        for i, fn in enumerate(self._aggregates):
            slot = self._slots[i]
            if fn.additive:
                arrays = fn.partial_arrays(batch, codes, width, rows)
                self._slots[i] = arrays if adopt else [
                    _add_at(_grown(total, size), ids, part, sign,
                            self._added > _INT64_PARTS)
                    for total, part in zip(slot or [
                        np.zeros(0, dtype=part.dtype) for part in arrays],
                        arrays)]
                continue
            partials = fn.batch_partials(batch, codes, width)
            if adopt:
                self._slots[i] = partials
                continue
            slot = slot or []
            slot.extend(fn.init() for _ in range(size - len(slot)))
            combine = fn.merge if sign > 0 else fn.retract
            for g, partial in zip(ids.tolist(), partials):
                slot[g] = combine(slot[g], partial)
            self._slots[i] = slot

    def counts(self) -> np.ndarray:
        """Each group's signed row count (group memberships: for
        lateness, or a Z-set's live rows)."""
        counts = np.zeros(len(self._index), dtype=np.int64)
        for ids, rows, sign in self._rows:
            (np.add if sign > 0 else np.subtract).at(counts, ids, rows)
        return counts

    def buffers(self) -> list:
        """Per aggregate, the epoch's partial buffer of each group id."""
        return [
            fn.buffers_from_arrays(slot) if fn.additive else slot
            for fn, slot in zip(self._aggregates, self._slots)
        ]
