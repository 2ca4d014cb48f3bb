"""The stream–stream join's scalar probe: the test oracle for the bulk
kernel in ``repro.streaming.join_state``.

This is the per-key, per-pair epoch the join ran before its kernel
went columnar, kept verbatim in behaviour: the delta's rows grouped into
per-key values, each probe key's buffered and new rows unpacked into
row tuples, every pair built in a Python loop, matched flags set and a
weighted side consolidated one key at a time.  ``probe(op, ...)`` takes
the same arguments as the bulk kernel, ``join_state.probe``, and returns
the same ``(writes, output, 0)``, the output as batches of the operator's
inner schema (none when no pair matched), so the two can be compared
row for row and write for write.

The per-value helpers (``row_values``, ``flag_matched``,
``consolidate``, ``delta_values``, ``evict_value``) are what the layouts
offered one key at a time; the layout tests check the kernel's
write-back of one key against ``flag_matched`` and ``consolidate``, and
its eviction against ``evict_value``.  ``evict(op, ctx)`` is the
join's eviction a key at a time, read-only: it returns what the bulk
``_evict`` must emit and write.
"""

from __future__ import annotations

import numpy as np

from itertools import chain

from repro.sql.batch import RecordBatch
from repro.sql.grouping import encode_groups
from repro.sql.joins import is_null_key
from repro.sql.types import hashable_value
from repro.streaming.join_state import _PackedSideLayout
from repro.streaming.state import encode_key


def _packed(layout) -> bool:
    return isinstance(layout, _PackedSideLayout)


def delta_values(layout, columns, order, starts, ends) -> list:
    """Per-key values of an epoch's new rows: ``columns`` taken in
    ``order``, key ``g``'s rows at ``starts[g]:ends[g]``, unmatched."""
    if _packed(layout):
        packed = np.zeros(len(order), dtype=layout.dtype)
        for name, column in zip(layout.dtype.names, columns):
            packed[name] = column[order]
        data, stride = packed.tobytes(), layout.stride
        return [data[s * stride:e * stride]
                for s, e in zip(starts.tolist(), ends.tolist())]
    stride = layout.stride
    flat = [False] * (len(order) * stride)
    for i, column in enumerate(columns):
        flat[i::stride] = column[order].tolist()
    return [tuple(flat[s * stride:e * stride])
            for s, e in zip(starts.tolist(), ends.tolist())]


def unpack(layout, value) -> list:
    """A value's rows as tuples of their ``stride`` cells, a tracked
    side's flag last."""
    if _packed(layout):
        return list(layout._struct.iter_unpack(value))
    stride = layout.stride
    return [value[i:i + stride] for i in range(0, len(value), stride)]


def pack(layout, rows):
    """Invert :func:`unpack`."""
    if _packed(layout):
        return b"".join([layout._struct.pack(*row) for row in rows])
    return tuple(chain.from_iterable(rows))


def row_values(layout, value) -> list:
    """A value's rows as tuples of their ``width`` column values."""
    width = layout.width
    if _packed(layout):
        rows = layout._struct.iter_unpack(value)
        return [row[:width] for row in rows] if layout.tracked else list(rows)
    stride = layout.stride
    return [value[i:i + width] for i in range(0, len(value), stride)]


def flag_matched(layout, value, hits):
    """``value`` with the rows at positions ``hits`` marked matched: a
    fresh value if any flag flips, else ``value`` itself."""
    stride = layout.stride
    if _packed(layout):
        flags = [i * stride + stride - 1 for i in hits]
        if all(value[f] for f in flags):
            return value
        out = bytearray(value)
        for f in flags:
            out[f] = 1
        return bytes(out)
    flags = [i * stride + layout.width for i in hits]
    if all(value[f] for f in flags):
        return value
    out = list(value)
    for f in flags:
        out[f] = True
    return tuple(out)


def _fold_floats(identity: tuple, folds) -> tuple:
    cells = list(identity)
    for i in folds:
        v = cells[i]
        cells[i] = None if v is None or v != v else v + 0.0
    return tuple(cells)


def consolidate(layout, value):
    """A value as the integral of the side's input Z-set: rows merged by
    identity (the row without weight and flag, −0.0 as 0.0, NaN as one
    null), weights summed, zero rows dropped, first-seen order and cells
    kept, a merged row matched if any part was; ``value`` itself when
    nothing merges, and on an unweighted side."""
    weight_idx, width, stride = layout.weight, layout.width, layout.stride
    if weight_idx is None or len(value) < 2 * stride:
        return value
    tracked = layout.tracked
    folds = tuple(i - (i > weight_idx) for i in layout.floats
                  if i != weight_idx)
    rows = unpack(layout, value)
    net = {}
    for row in rows:
        identity = row[:weight_idx] + row[weight_idx + 1:width]
        if folds:
            identity = _fold_floats(identity, folds)
        try:
            slot = net.get(identity)
        except TypeError:
            identity = tuple(map(hashable_value, identity))
            slot = net.get(identity)
        if slot is None:
            net[identity] = [row, row[weight_idx], tracked and row[width]]
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
    return pack(layout, out) if out else layout.empty


def evict_value(layout, value, time_idx: int, skew, bound) -> tuple:
    """Split ``value`` at the other side's watermark ``bound``:
    ``(kept value, expired unmatched rows)``, a row expiring once its
    time plus ``skew`` is at most ``bound``.  The expired rows come as
    ``width``-value tuples, matched ones left out (an inner join tracks
    no flags, so all of them)."""
    width, tracked = layout.width, layout.tracked
    keep, unmatched = [], []
    for row in unpack(layout, value):
        if row[time_idx] + skew > bound:
            keep.append(row)
        elif not (tracked and row[width]):
            unmatched.append(row[:width])
    return pack(layout, keep) if keep else layout.empty, unmatched


def evict(op, ctx) -> tuple:
    """The join's eviction for ``ctx``, computed from state without
    touching it: ``(null-padded batches, per side {encoded key: kept
    value, or None for a removed key})``.  The keys due are those whose
    expiry has passed the other side's watermark, taken in the order
    ``pop_expired`` yields them."""
    if op.within is None:
        return [], ({}, {})
    left_col, right_col, skew = op.within
    parts, writes = [], ({}, {})
    for side, state, layout, schema, own_col, other_col, outer, out in (
        ("left", op._left_state, op._left_layout, op.left.output_schema,
         left_col, right_col, op._node.how == "left_outer", writes[0]),
        ("right", op._right_state, op._right_layout,
         op.right.output_schema, right_col, left_col,
         op._node.how == "right_outer", writes[1]),
    ):
        bound = ctx.watermarks.current(other_col)
        if bound is None:
            continue
        time_idx = schema.names.index(own_col)
        expiry = layout.expiry(time_idx, skew)
        due = sorted((expiry(key, value), encode_key(key), value)
                     for key, value in state.items())
        unmatched_rows = []
        for when, enc, value in due:
            if when > bound:
                break
            keep, unmatched = evict_value(layout, value, time_idx, skew,
                                          bound)
            out[enc] = keep or None
            if outer:
                unmatched_rows.extend(unmatched)
        if unmatched_rows:
            side_batch = RecordBatch.from_rows(
                [dict(zip(schema.names, v)) for v in unmatched_rows], schema)
            parts.append(op._null_padded(side_batch, side))
    return parts, writes


def entries_by_key(op, batch: RecordBatch, layout) -> dict:
    """``key -> value of the delta's rows``, keys by first row."""
    if batch.num_rows == 0:
        return {}
    codes, keys = encode_groups([batch.columns[k] for k in op._node.on])
    order = np.argsort(codes, kind="stable")
    ends = np.cumsum(np.bincount(codes, minlength=len(keys)))
    starts = np.concatenate(([0], ends[:-1]))
    values = delta_values(
        layout, [batch.columns[name] for name in batch.schema.names],
        order, starts, ends)
    by_first = np.argsort(order[starts], kind="stable").tolist()
    return {keys[g]: values[g] for g in by_first}


def probe(op, new_left, new_right, lt_idx, rt_idx, skew) -> tuple:
    """The scalar epoch: ``(writes, [batch] or [], 0)``."""
    left_layout, right_layout = op._left_layout, op._right_layout
    left_by_key = entries_by_key(op, new_left, left_layout)
    right_by_key = entries_by_key(op, new_right, right_layout)
    track = op._track_matched
    left, right, out_rows = ([], []), ([], []), []
    keys = list(left_by_key)
    keys.extend(key for key in right_by_key if key not in left_by_key)
    encoded = [encode_key(key) for key in keys]
    for key, enc, stored_l, stored_r in zip(
            keys, encoded,
            op._left_state.get_many(encoded),
            op._right_state.get_many(encoded)):
        nl = left_by_key.get(key)
        nr = right_by_key.get(key)
        stored_l = stored_l or left_layout.empty
        stored_r = stored_r or right_layout.empty
        bl = left_layout.rows(stored_l)
        br = right_layout.rows(stored_r)
        l_entries = stored_l + nl if nl else stored_l
        r_entries = stored_r + nr if nr else stored_r
        if l_entries and r_entries and not is_null_key(key):
            hits = (set(), set()) if track else None
            l_rows = row_values(left_layout, l_entries)
            r_rows = row_values(right_layout, r_entries)
            if nl:
                join_pairs(op, l_rows, range(bl, len(l_rows)),
                           r_rows, range(len(r_rows)),
                           out_rows, lt_idx, rt_idx, skew, hits)
            if nr and bl:
                join_pairs(op, l_rows, range(bl),
                           r_rows, range(br, len(r_rows)),
                           out_rows, lt_idx, rt_idx, skew, hits)
            if track:
                l_entries = flag_matched(left_layout, l_entries, hits[0])
                r_entries = flag_matched(right_layout, r_entries, hits[1])
        if nl:
            l_entries = consolidate(left_layout, l_entries)
        if nr:
            r_entries = consolidate(right_layout, r_entries)
        for (puts, removes), entries, stored in (
                (left, l_entries, stored_l), (right, r_entries, stored_r)):
            if entries != stored:
                if entries:
                    puts.append((enc, key, entries))
                else:
                    removes.append((enc, key))
    return [left, right], [matched_batch(op, out_rows)] if out_rows else [], 0


def join_pairs(op, l_rows, l_positions, r_rows, r_positions,
               out_rows, lt_idx, rt_idx, skew, hits) -> None:
    """Append the cross product of two sides' rows (within the time
    bound) to ``out_rows``; a weighted pair as ``|weight|`` unit rows."""
    rest_idx, pair_weight = op._rest_idx, op._pair_weight
    r_rows = [(j, r_rows[j]) for j in r_positions]
    for i in l_positions:
        l_values = l_rows[i]
        for j, r_values in r_rows:
            if skew is not None and \
                    abs(l_values[lt_idx] - r_values[rt_idx]) > skew:
                continue
            row = [*l_values, *[r_values[k] for k in rest_idx]]
            out_rows.append(row)
            if pair_weight is not None:
                lw_idx, rw_idx, slot = pair_weight
                weight = (
                    (1 if lw_idx is None else int(l_values[lw_idx]))
                    * (1 if rw_idx is None else int(r_values[rw_idx])))
                row[slot] = 1 if weight > 0 else -1
                for _ in range(abs(weight) - 1):
                    out_rows.append(list(row))
            if hits is not None:
                hits[0].add(i)
                hits[1].add(j)


def matched_batch(op, out_rows: list) -> RecordBatch:
    """The matched pairs (inner schema) from value lists."""
    columns = {}
    for idx, field in enumerate(op._inner):
        values = [row[idx] for row in out_rows]
        if field.data_type.numpy_dtype is object:
            arr = np.empty(len(values), dtype=object)
            arr[:] = values
        else:
            arr = np.asarray(values, dtype=field.data_type.numpy_dtype)
        columns[field.name] = arr
    return RecordBatch(columns, op._inner)

