"""Weighted dedup's row walk: the test oracle for the bulk kernel,
``repro.streaming.join_state.dedup``.

This is the per-row epoch ``StreamingDedupOp`` ran over a weighted
child before its state moved onto the join side's layout: the delta is
walked row by row against each key's ``[[count, row], ...]`` list (live
rows in slot order, each row's weight cell 1), a ``+1`` bumping the
matching entry or appending one, a ``-1`` decrementing it and dropping
it at zero, and every change of the key's first entry — its
representative — emitting ``-1`` old / ``+1`` new.

Two defects of the walk are fixed here, so that it can judge nulls:
rows match by identity (NaN as one null, ``−0.0`` as ``0.0``) rather
than ``==``, under which a NaN never matched itself; and delta rows
whose subset keys encode alike (a NaN key is one state key) are one
key, where the walk wrote two values to it.

``dedup(op, batch)`` takes the bulk kernel's arguments and returns
``(writes, emits, 0)``: writes as ``(puts, removes)`` whose values are
the checkpoint records ``[total, entries]``, emits as row-value lists
in output-schema order, the weight slot holding the sign, in the order
the walk produced them.
"""

from __future__ import annotations

from repro.streaming.state import encode_key
from repro.streaming.zset import WEIGHT_COLUMN


def identity(row, weight_idx: int) -> tuple:
    """A row without its weight cell, NaN folded to None, −0.0 to 0.0
    (a float's ``+ 0.0``)."""
    return tuple(None if v is None or v != v else
                 v + 0.0 if isinstance(v, float) else v
                 for i, v in enumerate(row) if i != weight_idx)


def dedup(op, batch) -> tuple:
    names = batch.schema.names
    subset_idx = [names.index(n) for n in op._node.subset]
    weight_idx = names.index(WEIGHT_COLUMN)
    emits = []
    rows = list(zip(*(batch.columns[n].tolist() for n in names)))
    row_keys = [encode_key(tuple(row[i] for i in subset_idx))
                for row in rows]
    keys = {}
    for enc, row in zip(row_keys, rows):
        keys.setdefault(enc, tuple(row[i] for i in subset_idx))
    encoded = list(keys)
    # Pre-epoch state in record form; ``local``: a private copy.
    stored = {enc: None if value is None else op.state._disk_value(value)
              for enc, value in zip(encoded, op.state.get_many(encoded))}
    local = {
        enc: ([[int(c), list(v)] for c, v in value[1]]
              if value is not None else [])
        for enc, value in stored.items()
    }
    for row, enc in zip(rows, row_keys):
        weight = int(row[weight_idx])
        entries = local[enc]
        old_rep = entries[0][1] if entries else None
        same = identity(row, weight_idx)
        match = next((i for i, e in enumerate(entries)
                      if identity(e[1], weight_idx) == same), None)
        if weight > 0:
            if match is not None:
                entries[match][0] += 1
            else:
                canonical = list(row)
                canonical[weight_idx] = 1
                entries.append([1, canonical])
        elif match is None:
            raise ValueError(
                "retraction of a row never added: dedup key "
                f"{keys[enc]!r} has no live row matching the -1 delta")
        else:
            entries[match][0] -= 1
            if entries[match][0] == 0:
                del entries[match]
        new_rep = entries[0][1] if entries else None
        if new_rep is not old_rep:
            # Only count mutations keep the same list object, so
            # identity tracks "the representative row changed".
            if old_rep is not None:
                emitted = list(old_rep)
                emitted[weight_idx] = -1
                emits.append(emitted)
            if new_rep is not None:
                emitted = list(new_rep)
                emitted[weight_idx] = 1
                emits.append(emitted)
    puts, removes = [], []
    for enc in encoded:
        entries = local[enc]
        if not entries:
            if stored[enc] is not None:
                removes.append((enc, keys[enc]))
        else:
            puts.append((enc, keys[enc],
                         [sum(e[0] for e in entries), entries]))
    return [(puts, removes)], emits, 0
