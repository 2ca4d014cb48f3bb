"""The stream–stream join's bulk kernel ≡ its scalar reference.

``repro.streaming.join_state.probe`` runs a join epoch as array
programs over both side layouts; ``tests/join_reference.py`` is the
per-key, per-pair loop it replaced.  The property drives real queries —
packed and tuple sides, inner joins with and without a time bound,
``left_outer``/``right_outer`` with one, append-only sides and (inner,
unbounded) CDC ones —
and at every epoch runs both kernels on the same pre-epoch state and
the same deltas: the matched rows must agree in order, dtype and
bytes, and each state handle must receive the same puts and removes in
the same order — with the kernel taking all probe keys in one pass,
or two at a time.  Under a ``within`` bound each epoch's eviction, run
on the row arrays of the keys it pops, must emit the reference's
null-padded rows and leave each popped key the reference's value.
Keys include null, NaN, −0.0 beside 0.0, and values repeat so weighted
rows consolidate (multiplicity 2 included).  An
inner join drops null-key rows before its probe; the reference, which
buffered them, is fed the deltas without them.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.sources import ChangeStream
from repro.sql.batch import RecordBatch
from repro.sql.joins import is_null_key
from repro.sql.session import Session
from repro.sql.types import StructType
from repro.streaming import join_state
from repro.streaming.operators import StreamStreamJoinOp

from tests import join_reference
from tests.conftest import make_stream, start_memory_query

NAN = float("nan")
KEYS = {
    "long": [1, 2, -(2 ** 63)],
    "double": [0.0, -0.0, 1.5, NAN, None],
    "string": ["a", "b", None],
}
VALUES = {
    "long": [0, 1, 2 ** 63 - 1],
    "double": [0.0, -0.0, NAN, 2.5],
    "string": ["x", "", None],
    "boolean": [True, False],
}


@st.composite
def join_case(draw):
    how = draw(st.sampled_from(["inner", "left_outer", "right_outer"]))
    within = how != "inner" or draw(st.booleans())
    # Analysis refuses CDC sides under an outer join or a time bound.
    weighted = ((False, False) if within
                else (draw(st.booleans()), draw(st.booleans())))
    key_type = draw(st.sampled_from(sorted(KEYS)))
    value_types = [draw(st.sampled_from(sorted(VALUES))) for _ in range(2)]

    def rows(side):
        row = st.fixed_dictionaries({
            "k": st.sampled_from(KEYS[key_type]),
            "dt": st.sampled_from([0.0, 1.0, 4.0]),
            "v": st.sampled_from(VALUES[value_types[side]]),
            "op": st.sampled_from([1, -1] if weighted[side] else [1]),
            "pick": st.integers(0, 7),
        })
        return st.lists(row, max_size=6)

    epochs = draw(st.lists(st.tuples(rows(0), rows(1)), min_size=1,
                           max_size=5))
    passes = draw(st.sampled_from([2, join_state._KEYS_PER_PASS]))
    return how, within, weighted, key_type, value_types, epochs, passes


def _build(how, within, weighted, key_type, value_types):
    session = Session()
    sources, frames = [], []
    for side, (time_col, value_col) in enumerate((("t", "v"), ("t2", "w"))):
        schema = (("k", key_type), (time_col, "timestamp"),
                  (value_col, value_types[side]))
        if weighted[side]:
            source = ChangeStream(StructType(schema))
            df = session.read_stream.cdc(source)
        else:
            source = make_stream(schema)
            df = session.read_stream.memory(source)
        if within:
            df = df.with_watermark(time_col, "2s")
        sources.append(source)
        frames.append(df)
    df = frames[0].join(frames[1], on="k", how=how,
                        within=("t", "t2", "3s") if within else None)
    mode = "retract" if any(weighted) else "append"
    return sources, start_memory_query(df, mode, "bulk-join")


def _feed(source, rows, epoch, names, live):
    """Publish one epoch of a side: inserts, then deletes of rows still
    live (``live``, this side's inserted rows), so no retraction reaches
    the sink ahead of its row.  An ``op`` of −2 (examples only, on a key
    the other side never holds) deletes the row itself, ahead of its
    insert."""
    time_col, value_col = names

    def cells(row):
        return {"k": row["k"], time_col: 2.0 * epoch + row["dt"],
                value_col: row["v"]}

    inserts = [cells(row) for row in rows if row["op"] == 1]
    live.extend(inserts)
    deletes = []
    for row in rows:
        if row["op"] == -1 and live:
            deletes.append(live.pop(row["pick"] % len(live)))
        elif row["op"] == -2:
            deletes.append(cells(row))
    if isinstance(source, ChangeStream):
        if inserts:
            source.insert(inserts)
        if deletes:
            source.delete(deletes)
    elif inserts:
        source.add_data(inserts)
    return bool(inserts or deletes)


def _text(value) -> str:
    """Values as JSON writes them: NaN equals NaN, −0.0 is not 0.0."""
    if isinstance(value, bytes):
        return value.hex()
    return json.dumps(value)


def _writes(writes) -> list:
    return [([(enc, _text(key), _text(value)) for enc, key, value in puts],
             [(enc, _text(key)) for enc, key in removes])
            for puts, removes in writes]


def _batch(parts):
    if not parts:
        return None
    batch = RecordBatch.concat(parts)
    return [(name, str(batch.columns[name].dtype),
             _text(batch.columns[name].tolist()))
            for name in batch.schema.names]


def _without_null_keys(batch, on):
    if batch.num_rows == 0:
        return batch
    keys = zip(*[batch.columns[name].tolist() for name in on])
    return batch.filter(np.array([not is_null_key(k) for k in keys],
                                 dtype=bool))


def _checked(op, compared, evicted):
    """Route ``op``'s kernel and eviction through a comparison with the
    reference."""
    bulk, bulk_evict = op._kernel, op._evict

    def evict(ctx):
        want, writes = join_reference.evict(op, ctx)
        got = bulk_evict(ctx)
        assert _batch(got) == _batch(want)
        for state, side_writes in zip((op._left_state, op._right_state),
                                      writes):
            for enc, value in side_writes.items():
                assert _text(state._read(enc)) == _text(value)
        evicted.append(sum(map(len, writes)) + len(want))
        return got

    def kernel(op, new_left, new_right, lt_idx, rt_idx, skew):
        got = bulk(op, new_left, new_right, lt_idx, rt_idx, skew)
        if op._node.how == "inner":
            new_left = _without_null_keys(new_left, op._node.on)
            new_right = _without_null_keys(new_right, op._node.on)
        want = join_reference.probe(op, new_left, new_right, lt_idx,
                                    rt_idx, skew)
        assert _batch(got[1]) == _batch(want[1])
        assert _writes(got[0]) == _writes(want[0])
        assert got[2] == want[2] == 0
        compared.append(bool(got[1]))
        return got

    op._kernel = kernel
    op._evict = evict


def _row(k, dt, v, op=1, pick=0):
    return {"k": k, "dt": dt, "v": v, "op": op, "pick": pick}


@given(case=join_case())
# Weighted packed sides: 0.0 and −0.0 cells (and two NaNs, under the keys
# −0.0 and 0.0) consolidate to multiplicity 2, then both copies go.
@example(case=("inner", False, (True, True), "double", ["double", "long"], [
    ([_row(1.0, 0.0, 0.0), _row(1.0, 0.0, -0.0), _row(-0.0, 0.0, NAN),
      _row(0.0, 0.0, NAN)], [_row(1.0, 0.0, 1)]),
    ([_row(1.0, 0.0, 0.0, -1)], [_row(0.0, 1.0, 0), _row(1.0, 1.0, 2)]),
    ([_row(1.0, 0.0, 0.0, -1)], []),
], 2))
# A weighted side's deletes ahead of their inserts: key 2 holds two −1
# rows, then one nets away, then the other and the key goes.
@example(case=("inner", False, (True, False), "long", ["long", "long"], [
    ([_row(1, 0.0, 0)], [_row(1, 0.0, 0)]),
    ([_row(2, 4.0, 1, -2), _row(2, 4.0, 2, -2), _row(1, 4.0, 1)], []),
    ([_row(2, 2.0, 1)], [_row(1, 1.0, 1)]),
    ([_row(2, 0.0, 2)], []),
], 2))
# Tuple sides with flags: buffered rows match new ones in a later epoch
# (new-left × all-right, then buffered-left × new-right), null keys wait.
@example(case=("left_outer", True, (False, False), "string",
               ["string", "boolean"], [
                   ([_row("a", 0.0, "x"), _row(None, 0.0, "")],
                    [_row("b", 1.0, True)]),
                   ([_row("b", 0.0, None), _row("a", 1.0, "x")],
                    [_row("a", 0.0, False), _row(None, 0.0, True)]),
                   ([_row("b", 4.0, "")], [_row("a", 4.0, True)]),
               ], 2))
def test_bulk_kernel_matches_the_scalar_reference(case):
    how, within, weighted, key_type, value_types, epochs, passes = case
    with mock.patch.object(join_state, "_KEYS_PER_PASS", passes):
        _run(how, within, weighted, key_type, value_types, epochs)


def _run(how, within, weighted, key_type, value_types, epochs):
    sources, query = _build(how, within, weighted, key_type, value_types)
    op = next(op for op in query.engine.plan.stateful_ops
              if isinstance(op, StreamStreamJoinOp))
    compared, evicted, live, published = [], [], ([], []), False
    _checked(op, compared, evicted)
    for epoch, sides in enumerate(epochs):
        for source, rows, names, side_live in zip(
                sources, sides, (("t", "v"), ("t2", "w")), live):
            published |= _feed(source, rows, epoch, names, side_live)
        query.process_all_available()
    query.stop()
    assert compared or not published
    return evicted


def test_both_layouts_are_exercised():
    """The generator's types reach both layouts on each side."""
    for value_type, layout in (("long", "packed"), ("string", "tuple")):
        _sources, query = _build("inner", False, (True, False), "double",
                                 [value_type, "double"])
        assert f"left: {layout}" in query.explain()
        query.stop()


@pytest.mark.parametrize("how", ["inner", "left_outer", "right_outer"])
@pytest.mark.parametrize("value_type", ["long", "string"])
def test_eviction_matches_the_reference(how, value_type):
    """Eviction on packed (long) and tuple (string) sides: a key whose
    rows matched, one whose rows never did, and one that keeps its later
    row, as the watermarks pass them."""
    a, b = VALUES[value_type][:2]
    epochs = [
        ([_row(1, 0.0, a), _row(2, 0.0, a), _row(2, 1.9, b)],
         [_row(1, 0.0, b), _row(3, 0.0, a)]),
        ([_row(2, 1.5, a)], [_row(3, 1.0, b)]),
        ([_row(5, 0.0, a)], [_row(5, 0.0, b)]),
        ([_row(6, 0.0, a)], [_row(6, 0.0, b)]),
        ([_row(7, 0.0, a)], [_row(7, 0.0, b)]),
    ]
    evicted = _run(how, True, (False, False), "long", [value_type] * 2,
                   epochs)
    assert sum(evicted) > 0
