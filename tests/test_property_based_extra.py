"""More property-based tests: optimizer semantics, join equivalence,
session-window chunking invariance, and crash recovery through the
probe-join / indexed-eviction state paths."""

import json
import os
import struct

import numpy as np
from hypothesis import given, strategies as st

from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql.batch import RecordBatch
from repro.sql.optimizer import optimize
from repro.sql.physical import execute
from repro.sql.session import Session, _InMemoryProvider
from repro.sql.types import StructType
from repro.streaming.sessions import session_windows
from repro.streaming import statefile
from repro.streaming.state import decode_key, encode_key

from tests.conftest import make_stream, rows_set, start_memory_query
from tests.test_block_checkpoints import block_records


# ---------------------------------------------------------------------------
# Optimizer preserves semantics on random plans
# ---------------------------------------------------------------------------

SCHEMA = StructType((("a", "long"), ("b", "double"), ("s", "string")))

base_rows = st.lists(
    st.builds(
        lambda a, b, s: {"a": a, "b": float(b), "s": s},
        st.integers(-5, 5),
        st.floats(min_value=-10, max_value=10, allow_nan=False, width=32),
        st.sampled_from(["x", "y", "z"]),
    ),
    max_size=20,
)

comparisons = st.builds(
    lambda col, op, val: E.Comparison(E.ColumnRef(col), E.Literal(val), op),
    st.sampled_from(["a", "b"]),
    st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
    st.integers(-5, 5),
)

conditions = st.recursive(
    comparisons,
    lambda inner: st.builds(
        lambda l, r, op: E.BooleanOp(l, r, op),
        inner, inner, st.sampled_from(["and", "or"]),
    ),
    max_leaves=4,
)


def _scan(rows):
    return L.Scan(
        SCHEMA, _InMemoryProvider([RecordBatch.from_rows(rows, SCHEMA)]),
        False, name="t",
    )


@given(rows=base_rows, cond1=conditions, cond2=conditions)
def test_optimizer_preserves_filter_semantics(rows, cond1, cond2):
    plan = L.Filter(cond1, L.Filter(cond2, L.Project(
        [E.ColumnRef("a"), E.ColumnRef("b"),
         (E.ColumnRef("a") * 2).alias("a2")],
        _scan(rows),
    )))
    expected = execute(plan).to_rows()
    optimized = optimize(plan)
    assert execute(optimized).to_rows() == expected


@given(rows=base_rows, cond=conditions)
def test_optimizer_preserves_aggregate_semantics(rows, cond):
    from repro.sql.expressions import Count, Sum

    plan = L.Aggregate(
        [E.ColumnRef("s")],
        [(Count(None), "n"), (Sum(E.ColumnRef("b")), "total")],
        L.Filter(cond, _scan(rows)),
    )
    expected = rows_set(execute(plan).to_rows())
    assert rows_set(execute(optimize(plan)).to_rows()) == expected


# ---------------------------------------------------------------------------
# Streaming stream-stream join == batch join (all data within watermark)
# ---------------------------------------------------------------------------

join_rows = st.lists(
    st.tuples(st.integers(0, 3), st.floats(0, 50, allow_nan=False)),
    min_size=0, max_size=12,
)


@given(left=join_rows, right=join_rows, seed=st.integers(0, 2**16))
def test_stream_stream_join_equals_batch(left, right, seed):
    left_schema = (("k", "long"), ("t", "timestamp"))
    right_schema = (("k", "long"), ("t2", "timestamp"))
    left_rows = [{"k": k, "t": t} for k, t in left]
    right_rows = [{"k": k, "t2": t} for k, t in right]

    session = Session()
    expected = rows_set(
        session.create_dataframe(left_rows, left_schema)
        .join(session.create_dataframe(right_rows, right_schema), on="k")
        .collect())

    ls = make_stream(left_schema)
    rs = make_stream(right_schema)
    joined = (session.read_stream.memory(ls).with_watermark("t", "1000s")
              .join(session.read_stream.memory(rs).with_watermark("t2", "1000s"),
                    on="k"))
    query = start_memory_query(joined, "append", "out")
    rng = np.random.default_rng(seed)
    lq, rq = list(left_rows), list(right_rows)
    while lq or rq:
        if lq and (not rq or rng.random() < 0.5):
            take = int(rng.integers(1, len(lq) + 1))
            ls.add_data(lq[:take])
            lq = lq[take:]
        elif rq:
            take = int(rng.integers(1, len(rq) + 1))
            rs.add_data(rq[:take])
            rq = rq[take:]
        query.process_all_available()
    assert rows_set(query.engine.sink.rows()) == expected


# ---------------------------------------------------------------------------
# Crash recovery through the probe-join / indexed-eviction paths, with
# state checkpoints lagging commits (interval > 1)
# ---------------------------------------------------------------------------

def assert_canonical_state_files(checkpoint: str):
    """Every state file must be a well-formed record-framed file: intact
    frame, one canonical compact line per key, sorted by string-encoded
    state keys that survive a decode/encode roundtrip (a packed handle's
    block file: the same, frame by frame).  The expiry index
    and key cache are memory-only; nothing about them may leak to disk.

    This reads the *dict* backend's base/delta layout, so callers pin
    ``state_backend="dict"`` (the tiered manifest/run format has its own
    golden in tests/test_state_tiered.py)."""
    state_dir = os.path.join(checkpoint, "state")
    if not os.path.isdir(state_dir):
        return
    for op in os.listdir(state_dir):
        for name in os.listdir(os.path.join(state_dir, op)):
            path = os.path.join(state_dir, op, name)
            if name.endswith((".base.block", ".delta.block")):
                _assert_canonical_block(path, name)
                continue
            assert name.endswith((".base.jsonl", ".delta.jsonl"))
            statefile.verify(path)
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
            header = json.loads(lines[0])
            assert header == {"format": statefile.FORMAT,
                              "kind": name.split(".")[1],
                              "version": int(name.split(".")[0])}
            records = [json.loads(line) for line in lines[1:-1]]
            assert lines[1:-1] == [
                json.dumps(r, sort_keys=True, separators=(",", ":"))
                for r in records]
            state_keys = [r[0] for r in records]
            assert state_keys == sorted(set(state_keys))
            if header["kind"] == "base":
                assert all(len(r) == 2 for r in records)
            for state_key in state_keys:
                assert encode_key(decode_key(state_key)) == state_key


def _assert_canonical_block(path: str, name: str):
    """A block file's form of the same checks (a packed handle's state):
    intact frames, the header naming the row schema, keys sorted and
    canonical, no tombstone in a base, each value whole rows."""
    statefile.verify(path)
    header = statefile.read_header(path)
    schema = header.pop("schema")
    assert header == {"format": statefile.FORMAT, "kind": name.split(".")[1],
                      "version": int(name.split(".")[0])}
    dtype = np.dtype({"names": [f"f{i}" for i in range(len(schema["fields"]))],
                      "formats": schema["fields"]})
    records = block_records(path, statefile.RowSchema(
        schema["names"], dtype, schema["struct"]))
    assert dtype.itemsize == struct.calcsize(schema["struct"])
    state_keys = [key for key, _value in records]
    assert state_keys == sorted(set(state_keys))
    for key, value in records:
        assert encode_key(decode_key(key)) == key
        if value is statefile.TOMBSTONE:
            assert header["kind"] == "delta"
        else:
            assert value and len(value) % dtype.itemsize == 0


within_join_rows = st.lists(
    st.tuples(st.integers(0, 3), st.floats(0, 50, allow_nan=False)),
    min_size=0, max_size=12,
)


@given(left=within_join_rows, right=within_join_rows,
       crash_mask=st.lists(st.booleans(), min_size=1, max_size=10),
       seed=st.integers(0, 2**16))
def test_within_join_exactly_once_under_restarts(
        tmp_path_factory, left, right, crash_mask, seed):
    """Time-bounded join with eviction live, state checkpoints every 3rd
    epoch, and restarts at random points: output still equals the batch
    join.  Both sides arrive time-sorted, so no input is late and eviction
    only ever drops provably unmatchable rows."""
    rng = np.random.default_rng(seed)
    checkpoint = str(tmp_path_factory.mktemp("ckpt"))
    session = Session()
    skew = 10.0
    left_rows = sorted(({"k": k, "t": t} for k, t in left),
                       key=lambda r: r["t"])
    right_rows = sorted(({"k": k, "t2": t} for k, t in right),
                        key=lambda r: r["t2"])
    expected = {
        (l["k"], l["t"], r["t2"])
        for l in left_rows for r in right_rows
        if l["k"] == r["k"] and abs(l["t"] - r["t2"]) <= skew
    }

    ls = make_stream((("k", "long"), ("t", "timestamp")))
    rs = make_stream((("k", "long"), ("t2", "timestamp")))
    joined = (session.read_stream.memory(ls).with_watermark("t", "5s")
              .join(session.read_stream.memory(rs).with_watermark("t2", "5s"),
                    on="k", within=("t", "t2", "10s")))
    query = start_memory_query(joined, "append", "out", checkpoint,
                               state_checkpoint_interval=3,
                               state_backend="dict")
    sink = query.engine.sink

    crashes = iter(crash_mask)
    lq, rq = list(left_rows), list(right_rows)
    while lq or rq:
        if lq and (not rq or rng.random() < 0.5):
            take = int(rng.integers(1, len(lq) + 1))
            ls.add_data(lq[:take])
            lq = lq[take:]
        elif rq:
            take = int(rng.integers(1, len(rq) + 1))
            rs.add_data(rq[:take])
            rq = rq[take:]
        if next(crashes, False):
            query = (joined.write_stream.sink(sink).output_mode("append")
                     .option("state_checkpoint_interval", 3)
                     .option("state_backend", "dict")
                     .start(checkpoint))
        query.process_all_available()
    query = (joined.write_stream.sink(sink).output_mode("append")
             .option("state_checkpoint_interval", 3)
             .option("state_backend", "dict").start(checkpoint))
    query.process_all_available()

    assert {(r["k"], r["t"], r["t2"]) for r in sink.rows()} == expected
    assert_canonical_state_files(checkpoint)


@given(data=st.lists(
           st.tuples(st.sampled_from(["a", "b", "c"]),
                     st.floats(0, 100, allow_nan=False)),
           min_size=1, max_size=15),
       crash_mask=st.lists(st.booleans(), min_size=1, max_size=15),
       seed=st.integers(0, 2**16))
def test_windowed_aggregate_exactly_once_under_restarts(
        tmp_path_factory, data, crash_mask, seed):
    """Watermarked windowed counts with heap-indexed eviction firing as the
    watermark advances, lagged state checkpoints, and random restarts: the
    last update per (key, window) equals the batch count.  Rows arrive
    time-sorted so none are dropped as late."""
    rng = np.random.default_rng(seed)
    checkpoint = str(tmp_path_factory.mktemp("ckpt"))
    session = Session()
    from repro.sql import functions as F

    rows = sorted(({"t": t, "k": k} for k, t in data), key=lambda r: r["t"])
    expected = {}
    for r in rows:
        window_start = (r["t"] // 10.0) * 10.0
        key = (r["k"], window_start)
        expected[key] = expected.get(key, 0) + 1

    stream = make_stream((("t", "timestamp"), ("k", "string")))
    df = (session.read_stream.memory(stream).with_watermark("t", "5s")
          .group_by(F.window("t", "10s"), "k").count())
    query = start_memory_query(df, "update", "agg", checkpoint,
                               state_checkpoint_interval=3,
                               state_backend="dict")
    sink = query.engine.sink

    crashes = iter(crash_mask)
    remaining = list(rows)
    while remaining:
        take = int(rng.integers(1, len(remaining) + 1))
        stream.add_data(remaining[:take])
        remaining = remaining[take:]
        if next(crashes, False):
            query = (df.write_stream.sink(sink).output_mode("update")
                     .option("state_checkpoint_interval", 3)
                     .option("state_backend", "dict")
                     .start(checkpoint))
        query.process_all_available()
    query = (df.write_stream.sink(sink).output_mode("update")
             .option("state_checkpoint_interval", 3)
             .option("state_backend", "dict").start(checkpoint))
    query.process_all_available()

    got = {}
    for r in sink.rows():  # later updates overwrite earlier ones
        got[(r["k"], r["window_start"])] = r["count"]
    assert got == expected
    assert_canonical_state_files(checkpoint)


# ---------------------------------------------------------------------------
# Session windows: chunking does not change the final sessions
# ---------------------------------------------------------------------------

session_events = st.lists(
    st.floats(min_value=0, max_value=300, allow_nan=False),
    min_size=1, max_size=15,
)


@given(times=session_events)
def test_session_windows_match_reference(times):
    """Feeding all events sorted in one epoch yields exactly the sessions
    a reference fold computes."""
    gap = 30.0
    ordered = sorted(times)
    # Reference sessionization.
    expected = []
    current = None
    for t in ordered:
        if current is None or t > current["end"] + gap:
            if current is not None:
                expected.append(current)
            current = {"start": t, "end": t, "n": 1}
        else:
            current["end"] = t
            current["n"] += 1
    if current is not None:
        expected.append(current)

    session = Session()
    stream = make_stream((("user", "string"), ("t", "timestamp")))
    df = session.read_stream.memory(stream).with_watermark("t", "0s")
    query = start_memory_query(
        session_windows(df, ["user"], "t", gap), "append", "out")
    stream.add_data([{"user": "u", "t": t} for t in ordered])
    query.process_all_available()
    # Close the final session by pushing the watermark far ahead.
    stream.add_data([{"user": "zz", "t": 10_000.0}])
    query.process_all_available()
    stream.add_data([{"user": "zz", "t": 10_001.0}])
    query.process_all_available()

    got = [
        {"start": r["session_start"], "end": r["session_end"], "n": r["events"]}
        for r in query.engine.sink.rows() if r["user"] == "u"
    ]
    assert sorted(got, key=lambda s: s["start"]) == expected
