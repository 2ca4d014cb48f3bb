"""Join-side state layouts: packed bytes ≡ the flat tuple.

A stream–stream join side whose columns are all fixed-width keeps a
key's rows as one ``bytes`` value; any other side keeps one flat tuple.
Both sit behind one interface (``repro.streaming.join_state``), and
everything a checkpoint, a probe or an eviction reads through it must
agree between the two: pinned here at the layout level by a property
over extreme cells — the codec, the join kernel's write-back of one
key (``join_state._Side``) and eviction on the row arrays
(``join_state.evict``), checked against the scalar reference's
per-value semantics (``tests/join_reference.py``) —
and end to end by the layout's name in ``explain`` and by a NaN row
that consolidates.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, strategies as st

from repro.sources import ChangeStream
from repro.sql.session import Session
from repro.sql.types import WEIGHT_COLUMN, StructType
from repro.streaming.join_state import (
    _PackedSideLayout,
    _Side,
    _SideLayout,
    evict,
    side_layout,
)
from repro.streaming.operators import StreamStreamJoinOp

from tests.conftest import make_stream, start_memory_query
from tests.join_reference import consolidate, evict_value, flag_matched

NAN = float("nan")
#: Small domains, so rows repeat and consolidate; each holds its type's
#: extremes, and the doubles −0.0 beside 0.0 and a NaN.
CELLS = {
    "long": st.sampled_from([0, 1, -(2 ** 63), 2 ** 63 - 1]),
    "double": st.sampled_from([0.0, -0.0, NAN, float("inf"),
                               float("-inf"), 1.5]),
    "boolean": st.booleans(),
}


def _same(a, b) -> bool:
    """Equal as JSON writes them: NaN equals NaN, −0.0 differs from 0.0."""
    return json.dumps(a) == json.dumps(b)


class _OneValue:
    """The one read the kernel makes of a state handle: every probe key
    holds ``value``."""

    def __init__(self, value):
        self.value = value

    def get_many(self, encoded) -> list:
        return [self.value] * len(encoded)


def write_back(layout, stored, rows, hits=()):
    """The join kernel's write for one key of a side in ``layout`` that
    holds ``stored`` and gets the cell tuples ``rows`` as an epoch's new
    rows, after the rows at ``hits`` matched (stored rows first, then
    the new ones): the value put, ``layout.empty`` for a remove, None
    when the key is not written."""
    columns = []
    for i in range(layout.width):
        column = np.empty(len(rows), dtype=object)
        column[:] = [row[i] for row in rows]
        columns.append(column)
    delta = (columns, np.arange(len(rows)), np.array([len(rows)]),
             np.array([0]))
    side = _Side(layout, _OneValue(stored or None), ["k"], delta,
                 slice(0, 1))
    puts, removes = side.write_back(np.asarray(sorted(hits), dtype=np.int64),
                                    [("k",)], ["k"])
    assert len(puts) + len(removes) <= 1
    if puts:
        return puts[0][2]
    return layout.empty if removes else None


@st.composite
def side(draw):
    """``(schema, tracked, weight index, nested records)`` of one side."""
    types = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1,
                          max_size=4))
    weight = draw(st.none() | st.integers(0, len(types)))
    if weight is not None:
        types.insert(weight, "weight")
    names = [WEIGHT_COLUMN if t == "weight" else f"c{i}"
             for i, t in enumerate(types)]
    schema = StructType(tuple(
        (name, "long" if t == "weight" else t)
        for name, t in zip(names, types)))
    tracked = draw(st.booleans())
    cell = {**CELLS, "weight": st.sampled_from([-1, 1, 2])}
    records = draw(st.lists(st.tuples(
        st.tuples(*[cell[t] for t in types]),
        st.booleans() if tracked else st.just(False)), max_size=6))
    return schema, tracked, weight, records


@given(spec=side(), data=st.data())
def test_packed_and_tuple_layouts_agree(spec, data):
    schema, tracked, weight, records = spec
    packed = side_layout(schema, tracked, weight)
    assert isinstance(packed, _PackedSideLayout)
    floats = [i for i, f in enumerate(schema)
              if f.data_type.simple_name == "double"]
    flat = _SideLayout(len(schema), tracked, weight, floats)
    decoded = json.loads(json.dumps(records))
    pv, tv = packed.from_disk(decoded), flat.from_disk(decoded)
    assert type(pv) is bytes and type(tv) is tuple
    # The codec: the same record bytes, and a round trip to the value.
    assert _same(packed.to_disk(pv), records)
    assert _same(flat.to_disk(tv), records)
    assert packed.from_disk(json.loads(json.dumps(packed.to_disk(pv)))) == pv
    assert packed.rows(pv) == flat.rows(tv) == len(records)
    # The kernel's row arrays: one row per record, flags included.
    assert _same(packed.gather([pv]).tolist(), flat.gather([tv]).tolist())

    # The kernel's write-back of a key holding the first ``split``
    # records that gets the rest as new rows: flags set at the hits, a
    # weighted side consolidated with −0.0 and NaN folded alike in both
    # layouts, and the reference's value, or no write in all three
    # (analysis refuses an outer join over a weighted stream, so no
    # side both tracks flags and weighs rows).
    if not (tracked and weight is not None):
        split = data.draw(st.integers(0, len(records)))
        hits = (data.draw(st.sets(st.integers(0, len(records) - 1)))
                if tracked and records else set())
        stored = json.loads(json.dumps(records[:split]))
        new = [row for row, _ in records[split:]]
        pw, tw = (write_back(layout, layout.from_disk(stored), new, hits)
                  for layout in (packed, flat))
        before = flat.from_disk(stored)
        value = before + flat.from_disk([[row, False] for row in new])
        if tracked:
            value = flag_matched(flat, value, hits)
        if new:
            value = consolidate(flat, value)
        want = None if value == before else value
        assert (pw is None) == (tw is None) == (want is None)
        if want is not None:
            assert _same(packed.to_disk(pw), flat.to_disk(want))
            assert _same(flat.to_disk(tw), flat.to_disk(want))

    times = [i for i, f in enumerate(schema)
             if f.data_type.simple_name != "boolean"]
    if records and times:
        time_idx = data.draw(st.sampled_from(times))
        bound = data.draw(st.sampled_from([-1.0, 0.0, 2.0]))
        assert _same(packed.expiry(time_idx, 0.5)(None, pv),
                     flat.expiry(time_idx, 0.5)(None, tv))
        # Eviction on the row arrays ≡ the reference's row walk.
        want_kept, want_unmatched = evict_value(flat, tv, time_idx, 0.5,
                                                bound)
        for layout, value in ((packed, pv), (flat, tv)):
            [kept], unmatched = evict(layout, [value], time_idx, 0.5, bound)
            assert _same(layout.to_disk(kept), flat.to_disk(want_kept))
            assert _same([row[:len(schema)] for row in unmatched.tolist()],
                         want_unmatched)

    # An epoch's new rows, one key: every row unmatched.
    columns = [np.asarray([row[i] for row, _ in records],
                          dtype=f.data_type.numpy_dtype)
               for i, f in enumerate(schema)]
    order, counts = np.arange(len(records)), np.array([len(records)])
    [pd], [td] = (layout.values(layout.new_rows(columns, order), counts)
                  for layout in (packed, flat))
    unmatched = [(row, False) for row, _ in records]
    assert _same(packed.to_disk(pd), unmatched)
    assert _same(flat.to_disk(td), unmatched)


def test_a_side_with_an_object_column_keeps_the_tuple():
    schema = StructType((("k", "long"), ("name", "string"), ("x", "double")))
    layout = side_layout(schema, False, None)
    assert type(layout) is _SideLayout
    assert layout.describe() == "tuple (name: string)"
    packed = side_layout(
        StructType((("k", "long"), ("x", "double"), ("b", "boolean"))),
        True, None)
    # int64, float64, bool and the matched flag: 18 bytes, no padding.
    assert packed.describe() == "packed <qd?? (18 B/row)"


def test_explain_names_each_sides_layout():
    session = Session()
    numbers = make_stream((("k", "long"), ("t", "timestamp")))
    names = make_stream((("k", "long"), ("t2", "timestamp"),
                         ("who", "string")))
    df = (session.read_stream.memory(numbers).with_watermark("t", "5s")
          .join(session.read_stream.memory(names).with_watermark("t2", "5s"),
                on="k", how="left_outer", within=("t", "t2", "10s")))
    query = start_memory_query(df, "append", "layouts")
    text = query.explain()
    query.stop()
    assert ("StreamStreamJoinOp [stateful] left_outer on [k] "
            "left: packed <qd? (17 B/row), right: tuple (who: string)"
            in text)


def test_nan_cell_consolidates_on_a_weighted_side():
    """Inserting and deleting a row with a NaN (null) double four times
    leaves no buffered row, as it does for a non-null one: the row's
    identity folds NaN to one null."""
    session = Session()
    changes = ChangeStream(StructType((("k", "long"), ("x", "double"))))
    other = ChangeStream(StructType((("k", "long"), ("y", "long"))))
    query = (session.read_stream.cdc(changes)
             .join(session.read_stream.cdc(other), on="k")
             .write_stream.format("memory").query_name("nan-side")
             .output_mode("retract").start())
    other.insert([{"k": 1, "y": 5}])
    for x in (NAN, 2.0):
        for _ in range(4):
            changes.insert([{"k": 1, "x": x}])
            query.process_all_available()
            changes.delete([{"k": 1, "x": x}])
            query.process_all_available()
        join = next(op for op in query.engine.plan.stateful_ops
                    if isinstance(op, StreamStreamJoinOp))
        assert join._left_state.rows == 0
        assert query.engine.sink.rows() == []
    query.stop()
