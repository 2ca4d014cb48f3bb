"""Property-based tests (hypothesis) for the engine's core invariants.

The paper's central guarantee is prefix consistency (§4.2): streaming
results always equal the static query applied to a prefix of the input,
regardless of how data is chunked into epochs or where crashes land.
These properties drive randomized chunkings, crash points and operation
sequences against model implementations.
"""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.sql import expressions as E
from repro.sql import functions as F
from repro.sql.batch import RecordBatch
from repro.sql.grouping import encode_groups
from repro.sql.session import Session
from repro.sql.types import StructType
from repro.streaming.state import OperatorStateHandle
from repro.streaming.watermark import WatermarkTracker

from repro.testing.oracle import (
    PARTITION_KEY,
    canonical_rows,
    check_differential,
)

from tests.conftest import make_stream, start_memory_query

import numpy as np


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

keys = st.sampled_from(["a", "b", "c", "d"])
values = st.floats(min_value=-100, max_value=100, allow_nan=False, width=32)
rows = st.builds(lambda k, v: {"k": k, "v": float(v)}, keys, values)
row_lists = st.lists(rows, min_size=0, max_size=30)


def chunkings(items):
    """Strategy: split ``items`` into a random list of contiguous chunks."""
    if not items:
        return st.just([])
    return st.lists(
        st.integers(min_value=1, max_value=max(len(items), 1)),
        min_size=1, max_size=len(items),
    ).map(lambda sizes: _apply_chunking(items, sizes))


def _apply_chunking(items, sizes):
    chunks = []
    position = 0
    for size in sizes:
        if position >= len(items):
            break
        chunks.append(items[position:position + size])
        position += size
    if position < len(items):
        chunks.append(items[position:])
    return chunks


SCHEMA = (("k", "string"), ("v", "double"))


# ---------------------------------------------------------------------------
# Incremental == batch
# ---------------------------------------------------------------------------

@given(data=row_lists, seed=st.integers(0, 2**16))
# Float addition is not associative: this chunking streams 32.000000001
# where the batch sum is 32.000000001000004, so float sums are compared
# up to rounding (docs/retractions.md); counts stay exact.
@example(data=[{"k": "a", "v": v}
               for v in (0.0, 9.999999717180685e-10, 1.0, 31.0)], seed=1)
def test_streaming_aggregate_equals_batch_under_any_chunking(data, seed):
    rng = np.random.default_rng(seed)
    session = Session()
    batch_result = canonical_rows(
        session.create_dataframe(data, SCHEMA).group_by("k").agg(
            F.count().alias("n"), F.sum("v").alias("s")).collect()
    ) if data else canonical_rows([])

    stream = make_stream(SCHEMA)
    df = (session.read_stream.memory(stream)
          .group_by("k").agg(F.count().alias("n"), F.sum("v").alias("s")))
    query = start_memory_query(df, "complete", "out")
    remaining = list(data)
    while remaining:
        take = int(rng.integers(1, len(remaining) + 1))
        stream.add_data(remaining[:take])
        remaining = remaining[take:]
        query.process_all_available()
    assert canonical_rows(query.engine.sink.rows()) == batch_result


@given(data=row_lists, seed=st.integers(0, 2**16))
def test_map_query_append_equals_batch_filter(data, seed):
    rng = np.random.default_rng(seed)
    session = Session()
    expected = [r for r in data if r["v"] > 0]

    stream = make_stream(SCHEMA)
    df = session.read_stream.memory(stream).where(F.col("v") > 0)
    query = start_memory_query(df, "append", "out")
    remaining = list(data)
    while remaining:
        take = int(rng.integers(1, len(remaining) + 1))
        stream.add_data(remaining[:take])
        remaining = remaining[take:]
        query.process_all_available()
    assert query.engine.sink.rows() == expected


@given(data=row_lists, seed=st.integers(0, 2**16))
def test_streaming_dedup_equals_first_occurrences(data, seed):
    rng = np.random.default_rng(seed)
    session = Session()
    seen, expected = set(), []
    for r in data:
        if r["k"] not in seen:
            seen.add(r["k"])
            expected.append(r)

    stream = make_stream(SCHEMA)
    df = session.read_stream.memory(stream).drop_duplicates(["k"])
    query = start_memory_query(df, "append", "out")
    remaining = list(data)
    while remaining:
        take = int(rng.integers(1, len(remaining) + 1))
        stream.add_data(remaining[:take])
        remaining = remaining[take:]
        query.process_all_available()
    assert query.engine.sink.rows() == expected


# ---------------------------------------------------------------------------
# Prefix consistency under crash/restart
# ---------------------------------------------------------------------------

@given(data=st.lists(rows, min_size=1, max_size=15),
       crash_mask=st.lists(st.booleans(), min_size=1, max_size=15),
       seed=st.integers(0, 2**16))
def test_exactly_once_under_random_restarts(tmp_path_factory, data, crash_mask, seed):
    """Restarting the engine at arbitrary points never duplicates or
    loses output (replayable source + idempotent sink + WAL, §6.1)."""
    rng = np.random.default_rng(seed)
    checkpoint = str(tmp_path_factory.mktemp("ckpt"))
    session = Session()
    stream = make_stream(SCHEMA)
    df = session.read_stream.memory(stream).select("k", (F.col("v") * 2).alias("v2"))
    query = start_memory_query(df, "append", "out", checkpoint)
    sink = query.engine.sink

    remaining = list(data)
    crashes = iter(crash_mask)
    while remaining:
        take = int(rng.integers(1, len(remaining) + 1))
        stream.add_data(remaining[:take])
        remaining = remaining[take:]
        if next(crashes, False):
            # Crash: abandon the engine, restart on the same checkpoint.
            query = (df.write_stream.sink(sink).output_mode("append")
                     .start(checkpoint))
        query.process_all_available()
    query = (df.write_stream.sink(sink).output_mode("append").start(checkpoint))
    query.process_all_available()
    expected = [{"k": r["k"], "v2": r["v"] * 2} for r in data]
    assert sink.rows() == expected


@given(data=st.lists(rows, min_size=1, max_size=12),
       crash_mask=st.lists(st.booleans(), min_size=1, max_size=12),
       seed=st.integers(0, 2**16))
def test_stateful_aggregate_exactly_once_under_restarts(
        tmp_path_factory, data, crash_mask, seed):
    """The hard case: restarts around a *stateful* query must neither
    double-count (state replayed twice) nor drop records."""
    rng = np.random.default_rng(seed)
    checkpoint = str(tmp_path_factory.mktemp("ckpt"))
    session = Session()
    stream = make_stream(SCHEMA)
    df = (session.read_stream.memory(stream)
          .group_by("k").agg(F.count().alias("n"), F.sum("v").alias("s")))
    query = (df.write_stream.format("memory").query_name("agg")
             .option("state_checkpoint_interval", 2)  # state can lag commits
             .output_mode("complete").start(checkpoint))
    sink = query.engine.sink

    expected = {}
    for r in data:
        n, s = expected.get(r["k"], (0, 0.0))
        expected[r["k"]] = (n + 1, s + r["v"])

    remaining = list(data)
    crashes = iter(crash_mask)
    while remaining:
        take = int(rng.integers(1, len(remaining) + 1))
        stream.add_data(remaining[:take])
        remaining = remaining[take:]
        if next(crashes, False):
            query = (df.write_stream.sink(sink).output_mode("complete")
                     .option("state_checkpoint_interval", 2).start(checkpoint))
        query.process_all_available()
    query = (df.write_stream.sink(sink).output_mode("complete")
             .option("state_checkpoint_interval", 2).start(checkpoint))
    query.process_all_available()

    got = {r["k"]: (r["n"], r["s"]) for r in sink.rows()}
    assert set(got) == set(expected)
    for k, (n, s) in expected.items():
        assert got[k][0] == n
        assert abs(got[k][1] - s) < 1e-6


# ---------------------------------------------------------------------------
# Differential oracle: retraction (Z-set) streams vs batch recompute
# ---------------------------------------------------------------------------

CDC_SCHEMA = (("k", "string"), ("v", "long"))


@st.composite
def cdc_chunks(draw, max_ops=24):
    """A chunked, *valid* CDC history: every delete hits a live row.

    Returns a list of epoch chunks whose rows may carry ``__weight__``
    -1; the concatenation nets to a well-formed table (no negative
    multiplicities), which is what an upstream database's changelog
    guarantees.
    """
    count = draw(st.integers(0, max_ops))
    live, ops = [], []
    for _ in range(count):
        if live and draw(st.booleans()):
            victim = live.pop(draw(st.integers(0, len(live) - 1)))
            ops.append({**victim, "__weight__": -1})
        else:
            row = {"k": draw(keys), "v": draw(st.integers(-50, 50))}
            live.append(row)
            ops.append(dict(row))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
    chunks, position = [], 0
    for size in sizes:
        if position >= len(ops):
            break
        chunks.append(ops[position:position + size])
        position += size
    if position < len(ops):
        chunks.append(ops[position:])
    return chunks or [[]]


#: Operator under test -> (query builder or cascade of builders, output
#: mode of the append arm).  The CDC arm always runs in ``retract`` mode.
DIFFERENTIAL_PLANS = {
    "count_sum": (
        lambda df: df.group_by("k").agg(
            F.count().alias("n"), F.sum("v").alias("s")),
        "complete"),
    "avg": (
        lambda df: df.group_by("k").agg(F.avg("v").alias("m")),
        "complete"),
    # Weighted DISTINCT must promote the next surviving representative.
    "drop_duplicates": (lambda df: df.drop_duplicates(["k"]), "append"),
    # A stateless stage feeding a grouped sum through a stream table.
    "cascade": (
        [lambda df: df.filter(F.col("v") > -20).select("k", "v"),
         lambda df: df.group_by("k").agg(F.sum("v").alias("s"))],
        "complete"),
}


def placed(data, chunks) -> tuple:
    """Draw 1-3 kafka-sim partitions and a partition for every row (rows
    spread at random; a partition may get none in an epoch).  Returns
    ``(partitions, chunks)``, each row carrying ``__partition__``."""
    partitions = data.draw(st.integers(1, 3), label="partitions")
    where = st.integers(0, partitions - 1)
    return partitions, [
        [{**row, PARTITION_KEY: data.draw(where)} for row in chunk]
        for chunk in chunks]


@pytest.mark.parametrize("delta", ["cdc", "append", "partitioned"])
@pytest.mark.parametrize("plan", list(DIFFERENTIAL_PLANS))
@given(chunks=cdc_chunks(), restarts=st.sets(st.integers(0, 9), max_size=3),
       data=st.data())
def test_operator_differential(tmp_path_factory, plan, delta, chunks, restarts,
                               data):
    """Every keyed operator x delta model under one oracle: a random
    insert/delete history — with crash/restarts between epochs — equals
    the batch recompute over the netted input.  The append arm feeds the
    same history with its -1 ops dropped through a weight-free source:
    the all-ones Z-set must take the same fold.  The partitioned arm
    spreads the append arm's rows over 1-3 kafka-sim partitions, so an
    epoch reads a chunked batch and folds it part by part."""
    builders, append_mode = DIFFERENTIAL_PLANS[plan]
    weighted = delta == "cdc"
    if not weighted:
        chunks = [[r for r in chunk if "__weight__" not in r]
                  for chunk in chunks]
    partitions = None
    if delta == "partitioned":
        partitions, chunks = placed(data, chunks)
    check_differential(
        builders, CDC_SCHEMA, chunks, tmp_path_factory.mktemp("oracle"),
        weighted=weighted, output_mode=None if weighted else append_mode,
        restart_after=restarts, partitions=partitions)


PARTITIONED_SCHEMA = (("k", "string"), ("v", "long"), ("t", "timestamp"))

#: Campaign-like static side for the stream–static join: keys a-c map to
#: a group; "d" has no match (the inner join drops it).
STATIC_GROUPS = [{"k": "a", "g": 1}, {"k": "b", "g": 1}, {"k": "c", "g": 2}]


def _order_insensitive(df, *grouping):
    """Every order-insensitive aggregate, over ``grouping``."""
    return df.group_by(*grouping).agg(
        F.count().alias("n"), F.sum("v").alias("s"), F.avg("v").alias("m"),
        F.min("v").alias("lo"), F.max("v").alias("hi"),
        F.count_distinct("v").alias("d"))


#: Plan over a partitioned read -> (builder, output mode).  The window
#: plan's watermark trails by more than the drawn times span, so no row
#: is late and the batch recompute stays the reference.
PARTITIONED_PLANS = {
    "stage": (
        lambda df: df.filter(F.col("v") > -20).select(
            "k", (F.col("v") * 2).alias("v2")),
        "append"),
    "static_join": (
        lambda df: _order_insensitive(
            df.filter(F.col("v") > -40).join(
                Session().create_dataframe(
                    STATIC_GROUPS, (("k", "string"), ("g", "long"))),
                on="k"),
            "g"),
        "complete"),
    "window": (
        lambda df: _order_insensitive(
            df.with_watermark("t", "1000 seconds"),
            F.window(F.col("t"), "10 seconds"), "k"),
        "complete"),
}


@st.composite
def timed_chunks(draw):
    """Append-only epochs of ``(k, v, t)`` rows, t within 0-100 s."""
    row = st.fixed_dictionaries({
        "k": keys, "v": st.integers(-50, 50),
        "t": st.floats(0, 100, allow_nan=False)})
    return draw(st.lists(st.lists(row, max_size=8), min_size=1, max_size=5))


@pytest.mark.parametrize("plan", list(PARTITIONED_PLANS))
@given(chunks=timed_chunks(), restarts=st.sets(st.integers(0, 4), max_size=2),
       data=st.data())
def test_partitioned_read_differential(tmp_path_factory, plan, chunks,
                                       restarts, data):
    """A stage, a stream–static join under an aggregate and a watermarked
    tumbling-window aggregate over a read of 1-3 kafka-sim partitions
    (the per-part stage and the per-part fold) equal the batch
    recompute, with crash/restarts between epochs."""
    builder, mode = PARTITIONED_PLANS[plan]
    partitions, chunks = placed(data, chunks)
    check_differential(
        builder, PARTITIONED_SCHEMA, chunks,
        tmp_path_factory.mktemp("oracle"), weighted=False, output_mode=mode,
        restart_after=restarts, partitions=partitions)


@given(data=row_lists, seed=st.integers(0, 2**16),
       restarts=st.sets(st.integers(0, 9), max_size=2))
def test_append_only_differential(tmp_path_factory, data, seed, restarts):
    """The oracle also covers plain append-only plans (weight-free)."""
    rng = np.random.default_rng(seed)
    chunks, remaining = [], list(data)
    while remaining:
        take = int(rng.integers(1, len(remaining) + 1))
        chunks.append(remaining[:take])
        remaining = remaining[take:]
    check_differential(
        lambda df: df.where(F.col("v") > 0).select(
            "k", (F.col("v") * 2).alias("v2")),
        SCHEMA, chunks or [[]], tmp_path_factory.mktemp("oracle"),
        weighted=False, restart_after=restarts)


@given(history=st.data())
def test_weighted_join_differential(tmp_path_factory, history):
    """Stream-stream inner join of two CDC streams equals the batch join
    of the netted sides (bilinearity of Z-set joins)."""
    from repro.sources import ChangeStream
    from repro.sql.session import Session
    from repro.streaming.zset import apply_zset
    from repro.testing.oracle import canonical_rows

    left_chunks = history.draw(cdc_chunks(max_ops=12), label="left")
    right_chunks = history.draw(cdc_chunks(max_ops=12), label="right")
    epochs = max(len(left_chunks), len(right_chunks))

    session = Session()
    left = ChangeStream(StructType((("k", "string"), ("v", "long"))))
    right = ChangeStream(StructType((("k", "string"), ("w", "long"))))
    joined = session.read_stream.cdc(left).join(
        session.read_stream.cdc(right), on="k")
    query = (joined.write_stream.format("memory").query_name("jd")
             .output_mode("retract")
             .start(str(tmp_path_factory.mktemp("oracle") / "ckpt")))
    from repro.testing.oracle import feed

    for i in range(epochs):
        if i < len(left_chunks):
            feed(left, left_chunks[i])
        if i < len(right_chunks):
            feed(right, [{**({"w": r["v"]}), "k": r["k"],
                          **({"__weight__": r["__weight__"]}
                             if "__weight__" in r else {})}
                         for r in right_chunks[i]])
        query.process_all_available()
    streamed = query.engine.sink.rows()
    query.stop()

    live_left = apply_zset([r for c in left_chunks for r in c])
    live_right = apply_zset(
        [{"k": r["k"], "w": r["v"],
          **({"__weight__": r["__weight__"]} if "__weight__" in r else {})}
         for c in right_chunks for r in c])
    expected = session.create_dataframe(
        live_left, (("k", "string"), ("v", "long"))).join(
        session.create_dataframe(live_right, (("k", "string"), ("w", "long"))),
        on="k").collect() if live_left and live_right else []
    assert canonical_rows(streamed) == canonical_rows(expected)


# ---------------------------------------------------------------------------
# State store model check
# ---------------------------------------------------------------------------

state_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from("abcde"), st.integers(-5, 5)),
        st.tuples(st.just("remove"), st.sampled_from("abcde"), st.none()),
        st.tuples(st.just("commit"), st.none(), st.none()),
    ),
    min_size=1, max_size=40,
)


@given(ops=state_ops)
def test_state_store_restore_matches_model(tmp_path_factory, ops):
    directory = str(tmp_path_factory.mktemp("state"))
    handle = OperatorStateHandle(directory)
    model = {}
    committed = {}  # version -> model snapshot
    version = 0
    for op, key, value in ops:
        if op == "put":
            handle.put(key, value)
            model[key] = value
        elif op == "remove":
            handle.remove(key)
            model.pop(key, None)
        else:
            handle.commit(version)
            committed[version] = dict(model)
            version += 1
    for v, expected in committed.items():
        fresh = OperatorStateHandle(directory)
        fresh.restore(v)
        assert dict(fresh.items()) == expected


# ---------------------------------------------------------------------------
# Watermark monotonicity
# ---------------------------------------------------------------------------

@given(observations=st.lists(
    st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=30),
    delay=st.floats(min_value=0, max_value=100, allow_nan=False))
def test_watermark_monotonic_and_bounded(observations, delay):
    tracker = WatermarkTracker({"t": delay})
    previous = None
    max_seen = None
    for value in observations:
        tracker.observe("t", value)
        tracker.advance()
        max_seen = value if max_seen is None else max(max_seen, value)
        current = tracker.current("t")
        assert current == max_seen - delay  # exactly max(C) - t_C (§4.3.1)
        if previous is not None:
            assert current >= previous  # never moves backwards
        previous = current


# ---------------------------------------------------------------------------
# Window assignment properties
# ---------------------------------------------------------------------------

@given(t=st.floats(min_value=0, max_value=1e6, allow_nan=False),
       size_slide=st.tuples(st.integers(1, 100), st.integers(1, 100)))
def test_window_contains_its_record(t, size_slide):
    a, b = size_slide
    size, slide = max(a, b), min(a, b)
    w = E.WindowExpr(E.ColumnRef("t"), float(size), float(slide))
    starts = w.assign_row({"t": t})
    assert 1 <= len(starts) <= math.ceil(size / slide)
    for start in starts:
        assert start <= t < start + size
        # Window starts align to the slide grid.
        assert abs(start / slide - round(start / slide)) < 1e-6


# ---------------------------------------------------------------------------
# Group encoding
# ---------------------------------------------------------------------------

@given(keys=st.lists(st.integers(-10, 10), min_size=0, max_size=50))
def test_encode_groups_consistent_with_equality(keys):
    if not keys:
        return
    codes, uniques = encode_groups([np.asarray(keys, dtype=np.int64)])
    decoded = [uniques[c][0] for c in codes]
    assert decoded == keys
    assert len(set(codes.tolist())) == len(uniques) == len(set(keys))


# ---------------------------------------------------------------------------
# RecordBatch roundtrip
# ---------------------------------------------------------------------------

@given(data=st.lists(
    st.tuples(st.integers(-1000, 1000),
              st.one_of(st.none(), st.text(max_size=5))),
    max_size=30))
def test_record_batch_row_roundtrip(data):
    schema = StructType((("i", "long"), ("s", "string")))
    original = [{"i": i, "s": s} for i, s in data]
    assert RecordBatch.from_rows(original, schema).to_rows() == original
