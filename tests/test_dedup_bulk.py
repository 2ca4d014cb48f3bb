"""Weighted dedup's bulk kernel ≡ its row-walk reference.

``repro.streaming.join_state.dedup`` runs a weighted dedup epoch over
the join side's row arrays; ``tests/dedup_reference.py`` is the row walk
it replaced (with its two null defects fixed).  The property drives
real ``drop_duplicates`` queries over change streams — packed and tuple
layouts, keys and cells holding null, NaN and −0.0 beside 0.0, rows
repeating to multiplicity 2 and more, and a live row deleted and
inserted again (its doubles' signs flipped) inside one epoch, which
deletes and reinserts a representative — and at every epoch runs both
kernels on the same pre-epoch state and delta.  The emitted deltas must
be the same Z-set once each is netted by row identity, and the state
writes the same keys with the same record bytes.  Beside it the same
epochs run through a query whose operator holds the reference's
records, as the row walk did, with no value codec; with both restarted
once, the two checkpoints must hold the same bytes (a tuple layout's
JSONL files) or the same records file by file (a packed layout's block
files, their values through the dedup's codec, against the walk's
JSONL), and the two sinks the same rows.
"""

from __future__ import annotations

import json
import os
import tempfile
from unittest import mock

from hypothesis import example, given, strategies as st

from repro.sources import ChangeStream
from repro.sql.batch import RecordBatch
from repro.sql.session import Session
from repro.sql.types import StructType
from repro.streaming import join_state, statefile
from repro.streaming.operators import StreamingDedupOp
from repro.streaming.statefile import TOMBSTONE, encode
from repro.testing.oracle import canonical_rows

from tests import dedup_reference
from tests.test_block_checkpoints import block_records
from tests.test_checkpoint_format import read_state_files

NAN = float("nan")
KEYS = {
    "long": [1, 2],
    "double": [0.0, -0.0, NAN, None, 1.5],
    "string": ["a", "", None],
}
VALUES = {
    "long": [0, 1, -(2 ** 63)],
    "double": [0.0, -0.0, NAN, None, 2.5],
    "string": ["x", None],
    "boolean": [True, False],
}


@st.composite
def dedup_case(draw):
    key_type = draw(st.sampled_from(sorted(KEYS)))
    value_types = draw(st.lists(st.sampled_from(sorted(VALUES)),
                                min_size=1, max_size=2))
    step = st.tuples(
        st.sampled_from(["insert", "insert", "delete", "reinsert"]),
        st.integers(0, 7), st.sampled_from(KEYS[key_type]),
        st.tuples(*[st.sampled_from(VALUES[t]) for t in value_types]))
    epochs = draw(st.lists(st.lists(step, max_size=6), min_size=1,
                           max_size=4))
    restart = draw(st.integers(0, len(epochs)))
    return key_type, value_types, epochs, restart


def _flipped(row: dict) -> dict:
    """``row`` with each double's sign flipped: the same row identity."""
    return {name: -v if isinstance(v, float) and v == v else v
            for name, v in row.items()}


def _calls(steps, live) -> list:
    """One epoch's ``(insert|delete, row)`` calls; deletes take rows
    still live (``live``: rows inserted and not deleted, oldest first)."""
    calls = []
    for kind, pick, key, values in steps:
        if kind == "insert":
            row = {"k": key, **{f"v{i}": v for i, v in enumerate(values)}}
            live.append(row)
            calls.append(("insert", row))
        elif live and kind == "delete":
            calls.append(("delete", live.pop(pick % len(live))))
        elif live:
            row = live.pop(pick % len(live))
            live.append(_flipped(row))
            calls += [("delete", row), ("insert", live[-1])]
    return calls


def _writes(writes, to_disk) -> list:
    return [([(enc, encode(to_disk(value))) for enc, _key, value in puts],
             [enc for enc, _key in removes]) for puts, removes in writes]


def _netted(rows, weight_idx: int) -> dict:
    """A changelog of row-value lists as its net Z-set: row identity ->
    (net weight, cells), the cells of the first retraction for a net
    ``-1``, of the last insert for a net ``+1``."""
    net = {}
    for row in rows:
        ident = json.dumps(dedup_reference.identity(row, weight_idx))
        cells = encode([v for i, v in enumerate(row) if i != weight_idx])
        weight, retracted, inserted = net.get(ident, (0, None, None))
        if row[weight_idx] > 0:
            net[ident] = (weight + 1, retracted, cells)
        else:
            net[ident] = (weight - 1, retracted or cells, inserted)
    return {ident: (w, inserted if w > 0 else retracted)
            for ident, (w, retracted, inserted) in net.items() if w}


def _rows(parts) -> list:
    if not parts:
        return []
    [batch] = parts
    return [list(row) for row in zip(*(batch.columns[name].tolist()
                                       for name in batch.schema.names))]


def _checked(op, compared):
    """Route ``op``'s kernel through a comparison with the reference."""
    bulk = op._kernel
    to_disk = op.state._disk_value
    weight_idx = op._layout.weight

    def kernel(op, batch):
        want = dedup_reference.dedup(op, batch)
        got = bulk(op, batch)
        assert _writes(got[0], to_disk) == _writes(want[0], lambda v: v)
        assert (_netted(_rows(got[1]), weight_idx)
                == _netted(want[1], weight_idx))
        assert got[2] == want[2] == 0
        compared.append(batch.num_rows)
        return got

    op._kernel = kernel


def _reference_kernel(op, batch):
    """The row walk as the operator's kernel, its emits as a batch."""
    writes, emits, late = dedup_reference.dedup(op, batch)
    names = op.output_schema.names
    rows = [dict(zip(names, values)) for values in emits]
    return (writes, [RecordBatch.from_rows(rows, op.output_schema)]
            if rows else [], late)


def _start(df, checkpoint, sink, reference: bool, compared):
    writer = df.write_stream.output_mode("retract")
    writer = (writer.sink(sink) if sink is not None
              else writer.format("memory").query_name("bulk-dedup"))
    writer = writer.option("state_checkpoint_interval", 2)
    if reference:  # the row walk and its values: records, no codec
        with mock.patch.object(join_state, "multiset_codec",
                               lambda layout: (None, None)), \
                mock.patch.object(join_state, "dedup", _reference_kernel):
            return writer.start(checkpoint)
    query = writer.start(checkpoint)
    _checked(next(op for op in query.engine.plan.stateful_ops
                  if isinstance(op, StreamingDedupOp)), compared)
    return query


@given(case=dedup_case())
# A null double key held by three rows, one deleted, then its
# representative deleted and inserted again as −0.0 in one epoch.
@example(case=("double", ["double"], [
    [("insert", 0, None, (1.5,)), ("insert", 0, NAN, (0.0,)),
     ("insert", 0, 1.5, (NAN,)), ("insert", 0, None, (1.5,))],
    [("delete", 2, None, ()), ("reinsert", 0, None, ())],
    [("delete", 0, None, ()), ("insert", 0, 1.5, (None,))],
], 2))
# A tuple side: a string row at multiplicity 2, deleted once, then its
# key's other row promoted and the first reinserted behind it.
@example(case=("string", ["string", "long"], [
    [("insert", 0, "a", ("x", 0)), ("insert", 0, "a", ("x", 0)),
     ("insert", 0, "a", (None, 1))],
    [("delete", 0, "a", ()), ("delete", 0, "a", ()),
     ("insert", 0, "a", ("x", 0))],
], 1))
def test_bulk_dedup_matches_the_row_walk(case):
    key_type, value_types, epochs, restart = case
    schema = StructType((("k", key_type),) + tuple(
        (f"v{i}", t) for i, t in enumerate(value_types)))
    session = Session()
    streams = [ChangeStream(schema) for _ in range(2)]
    frames = [session.read_stream.cdc(s).drop_duplicates(["k"])
              for s in streams]
    compared, live, published = [], [], False
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, side) for side in ("bulk", "walk")]
        queries = [_start(df, d, None, side == "walk", compared)
                   for df, d, side in zip(frames, dirs, ("bulk", "walk"))]
        for epoch, steps in enumerate(epochs):
            if epoch == restart:
                sinks = [query.engine.sink for query in queries]
                for query in queries:
                    query.stop()
                queries = [_start(df, d, sink, side == "walk", compared)
                           for df, d, sink, side in zip(
                               frames, dirs, sinks, ("bulk", "walk"))]
            for kind, row in _calls(steps, live):
                published = True
                for stream in streams:
                    getattr(stream, kind)([row])
            for query in queries:
                query.process_all_available()
        bulk, walk = queries
        assert canonical_rows(bulk.engine.sink.rows()) == canonical_rows(
            walk.engine.sink.rows())
        bulk.stop()
        walk.stop()
        layout = next(op for op in bulk.engine.plan.stateful_ops
                      if isinstance(op, StreamingDedupOp))._layout
        if layout.schema is None:
            assert read_state_files(dirs[0]) == read_state_files(dirs[1])
        else:
            assert _state_records(dirs[0], layout) == _state_records(
                dirs[1], layout)
    assert compared or not published


def _state_records(checkpoint: str, layout) -> dict:
    """Each state file's records as the lines a JSONL file holds, by the
    file's name without its format suffix: a block's packed values cross
    the dedup's codec first."""
    to_disk = join_state.multiset_codec(layout)[0]
    state_dir = os.path.join(checkpoint, "state")
    found = {}
    for op in sorted(os.listdir(state_dir)):
        for name in sorted(os.listdir(os.path.join(state_dir, op))):
            path = os.path.join(state_dir, op, name)
            if os.path.isdir(path):
                continue  # the tiered backend's runs/ directory
            if name.endswith(statefile.BLOCK_SUFFIX):
                records = [(key, value if value is TOMBSTONE
                            else to_disk(value)) for key, value in
                           block_records(path, layout.schema)]
            elif name.endswith(".jsonl"):
                records = statefile.read_records(statefile.file_chunks(path))
            else:  # a tiered manifest: compared as it is
                with open(path, encoding="utf-8") as f:
                    found[f"{op}/{name}"] = f.read()
                continue
            found[f"{op}/{name.rsplit('.', 1)[0]}"] = [
                encode([key] if value is TOMBSTONE else [key, value])
                for key, value in records]
    return found


def test_both_layouts_are_exercised():
    """The generator's types reach both layouts."""
    session = Session()
    for value_type, layout in (("long", "packed"), ("string", "tuple")):
        cdc = ChangeStream(StructType((("k", "double"), ("v", value_type))))
        query = (session.read_stream.cdc(cdc).drop_duplicates(["k"])
                 .write_stream.format("memory").query_name("layouts")
                 .output_mode("retract").start())
        op = next(op for op in query.engine.plan.stateful_ops
                  if isinstance(op, StreamingDedupOp))
        assert op._layout.describe().startswith(layout)
        query.stop()
