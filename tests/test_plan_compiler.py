"""Whole-plan compiler tests (§5.3 analogue).

Two families of guarantees:

* **Equivalence** — the compiled, stage-fused pipeline produces exactly
  the batches that interpreted row-at-a-time evaluation (``eval_row``)
  does, across randomized filter/project chains and windowed aggregates
  (property-based, hypothesis).
* **Compile-once** — a streaming query compiles its plan at start and
  never again: no expression binding, no type resolution and no plan
  compilation happens while epochs are served (spies + counter).
"""

import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.bus import Broker
from repro.sources.kafka import KafkaSource
from repro.sql import expressions as E
from repro.sql import functions as F
from repro.sql import logical as L
from repro.sql import plancompiler
from repro.sql import types as T
from repro.sql.batch import RecordBatch
from repro.sql.dataframe import DataFrame
from repro.sql.joins import UniqueKeyIndex
from repro.sql.physical import execute
from repro.sql.session import Session
from repro.sql.types import StructType
from repro.streaming import operators as ops
from repro.testing.harness import checkpoint_fingerprint
from repro.workloads.yahoo import (
    YAHOO_EVENT_SCHEMA,
    YahooWorkload,
    structured_streaming_query,
)

from tests.conftest import make_stream, rows_set, start_memory_query


SCHEMA = StructType((("a", "long"), ("b", "double"), ("k", "string")))


def scan_of(schema=SCHEMA):
    return L.Scan(schema, None, False, name="input")


def run_compiled(plan, scan, batch):
    return plancompiler.compile_plan(plan)({id(scan): batch})


def run_rows(plan, rows):
    """Reference: interpret the plan row-at-a-time with ``eval_row``."""
    if isinstance(plan, L.Scan):
        return rows
    child_rows = run_rows(plan.child, rows)
    if isinstance(plan, L.Filter):
        return [r for r in child_rows if bool(plan.condition.eval_row(r))]
    if isinstance(plan, L.Project):
        return [
            {e.output_name: e.eval_row(r) for e in plan.exprs}
            for r in child_rows
        ]
    raise NotImplementedError(type(plan).__name__)


def assert_rows_equal(batch, expected_rows):
    assert batch.schema.names == (
        list(expected_rows[0].keys()) if expected_rows else batch.schema.names
    )
    actual = [dict(r.items()) for r in batch.to_rows()]
    assert len(actual) == len(expected_rows)
    for got, want in zip(actual, expected_rows):
        assert got.keys() == want.keys()
        for name in want:
            g, w = got[name], want[name]
            if isinstance(w, float) or isinstance(g, float):
                assert g == pytest.approx(w, rel=1e-9, abs=1e-9), name
            else:
                assert g == w, name


# ---------------------------------------------------------------------------
# Randomized stateless plans
# ---------------------------------------------------------------------------

rows_strategy = st.lists(
    st.builds(
        lambda a, b, k: {"a": a, "b": b, "k": k},
        st.integers(-50, 50),
        st.floats(-100, 100, allow_nan=False, width=32).map(float),
        st.sampled_from(["x", "y", "z", None]),
    ),
    min_size=0, max_size=30,
)


def _predicate(draw, columns):
    """A random total boolean expression over the available columns."""
    name = draw(st.sampled_from(columns))
    ref = E.ColumnRef(name)
    if name == "k":
        kind = draw(st.sampled_from(["cmp", "in", "like"]))
        if kind == "in":
            return E.In(ref, ["x", "y"])
        if kind == "like":
            return E.Like(ref, draw(st.sampled_from(["x%", "%y", "z"])))
        bound = E.Literal(draw(st.sampled_from("xyz")))
    else:
        bound = E.Literal(draw(st.integers(-40, 40)))
    op = draw(st.sampled_from([">", "<", ">=", "<=", "==", "!="]))
    base = E.Comparison(ref, bound, op)
    if draw(st.booleans()):
        return E.Not(base)
    return base


def _numeric_expr(draw, columns):
    """A random total numeric expression over the available columns."""
    numeric = [c for c in columns if c != "k"]
    name = draw(st.sampled_from(numeric))
    expr = E.ColumnRef(name)
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(["+", "-", "*"]))
        other = draw(st.one_of(
            st.integers(-5, 5).map(E.Literal),
            st.sampled_from(numeric).map(E.ColumnRef),
        ))
        expr = E.Arithmetic(expr, other, op)
    return expr


@st.composite
def stateless_plans(draw):
    """A random chain of 1-5 Filter/Project nodes over the scan."""
    scan = scan_of()
    plan = scan
    columns = list(SCHEMA.names)
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            cond = _predicate(draw, columns)
            if draw(st.booleans()):
                cond = E.BooleanOp(cond, _predicate(draw, columns),
                                   draw(st.sampled_from(["and", "or"])))
            plan = L.Filter(cond, plan)
        else:
            width = draw(st.integers(1, 3))
            exprs = [
                E.Alias(_numeric_expr(draw, columns), f"c{i}")
                for i in range(width)
            ]
            keep_k = "k" in columns and draw(st.booleans())
            if keep_k:
                exprs.append(E.ColumnRef("k"))
            plan = L.Project(exprs, plan)
            columns = [f"c{i}" for i in range(width)] + (["k"] if keep_k else [])
    return plan, scan


def _pinned(build):
    scan = scan_of()
    return build(scan), scan


#: Where the evaluators used to disagree: a null string under an ordering
#: comparison, under ``!=``, and a constant division by zero.
NULL_ROWS = [{"a": 0, "b": 1.0, "k": "x"}, {"a": 1, "b": 2.0, "k": None},
             {"a": 2, "b": 3.0, "k": "z"}]
_K = E.ColumnRef("k")


@given(plan_scan=stateless_plans(), rows=rows_strategy)
@example(plan_scan=_pinned(lambda scan: L.Filter(
    E.Comparison(_K, E.Literal("y"), "<"),
    L.Filter(E.Not(E.IsNull(_K)), scan))), rows=NULL_ROWS)
@example(plan_scan=_pinned(lambda scan: L.Filter(
    E.Comparison(_K, E.Literal("x"), "!="), scan)), rows=NULL_ROWS)
@example(plan_scan=_pinned(lambda scan: L.Project(
    [E.Alias(E.Arithmetic(E.Literal(1), E.Literal(0), "/"), "c0"),
     E.Alias(E.Arithmetic(E.Literal(1), E.ColumnRef("a"), "/"), "c1")],
    scan)), rows=NULL_ROWS)
def test_compiled_plan_equals_row_interpretation(plan_scan, rows):
    plan, scan = plan_scan
    batch = RecordBatch.from_rows(rows, SCHEMA)
    result = run_compiled(plan, scan, batch)
    assert_rows_equal(result, run_rows(plan, rows))


# ---------------------------------------------------------------------------
# Randomized windowed aggregates
# ---------------------------------------------------------------------------

timed_rows = st.lists(
    st.builds(
        lambda t, v, k: {"t": float(t), "v": float(v), "k": k},
        st.floats(0, 100, allow_nan=False, width=16).map(float),
        st.integers(-20, 20),
        st.sampled_from(["x", "y"]),
    ),
    min_size=0, max_size=40,
)


@given(rows=timed_rows, duration=st.sampled_from([5.0, 10.0]),
       slide=st.sampled_from([None, 5.0]))
def test_compiled_window_aggregate_equals_row_interpretation(
        rows, duration, slide):
    schema = StructType((("t", "double"), ("v", "double"), ("k", "string")))
    scan = L.Scan(schema, None, False, name="input")
    window = E.WindowExpr(E.ColumnRef("t"), duration, slide)
    plan = L.Aggregate(
        [E.ColumnRef("k"), window],
        [(E.Count(None), "n"), (E.Sum(E.ColumnRef("v")), "s")],
        scan,
    )
    batch = RecordBatch.from_rows(rows, schema)
    result = run_compiled(plan, scan, batch)

    # Row-at-a-time reference: assign each row to its windows, tally.
    expected = {}
    for row in rows:
        for start in window.assign_row(row):
            key = (row["k"], start)
            n, s = expected.get(key, (0, 0.0))
            expected[key] = (n + 1, s + row["v"])

    got = {
        (r["k"], r["window_start"]): (r["n"], r["s"], r["window_end"])
        for r in (dict(x.items()) for x in result.to_rows())
    }
    assert set(got) == set(expected)
    for key, (n, s) in expected.items():
        gn, gs, gend = got[key]
        assert gn == n
        assert gs == pytest.approx(s, rel=1e-9, abs=1e-9)
        assert gend == pytest.approx(key[1] + duration)


# ---------------------------------------------------------------------------
# Fusion-specific cases
# ---------------------------------------------------------------------------

def test_fused_filters_match_sequential_semantics():
    scan = scan_of()
    plan = L.Filter(
        E.Comparison(E.ColumnRef("b"), E.Literal(0.0), ">"),
        L.Filter(E.Comparison(E.ColumnRef("a"), E.Literal(0), ">"), scan),
    )
    rows = [
        {"a": 1, "b": 1.0, "k": "x"},
        {"a": -1, "b": 5.0, "k": "y"},
        {"a": 3, "b": -2.0, "k": "z"},
        {"a": 2, "b": 0.5, "k": "x"},
    ]
    out = run_compiled(plan, scan, RecordBatch.from_rows(rows, SCHEMA))
    assert [dict(r.items()) for r in out.to_rows()] == [rows[0], rows[3]]


def test_unsafe_filter_never_sees_rows_removed_below_it():
    # A UDF predicate that raises for a == 0 sits above a filter that
    # removes exactly those rows.  Naive mask-combining would evaluate
    # the UDF on the unfiltered input and blow up; the compiler must
    # seal the stage at the unsafe predicate instead.
    def explosive(a):
        if a == 0:
            raise ValueError("saw a filtered-out row")
        return a > 1

    from repro.sql.types import BOOLEAN

    scan = scan_of()
    plan = L.Filter(
        E.Udf(explosive, [E.ColumnRef("a")], BOOLEAN, "explosive"),
        L.Filter(E.Comparison(E.ColumnRef("a"), E.Literal(0), "!="), scan),
    )
    rows = [{"a": 0, "b": 1.0, "k": "x"}, {"a": 2, "b": 2.0, "k": "y"},
            {"a": 1, "b": 3.0, "k": "z"}]
    out = run_compiled(plan, scan, RecordBatch.from_rows(rows, SCHEMA))
    assert [r["a"] for r in out.to_rows()] == [2]


def test_projection_inlines_through_filter():
    # project (a+1 as c) -> filter (c > 2) -> project (c*2 as d): the
    # whole chain fuses to one stage; output names come from the original
    # projections, not the inlined expressions.
    scan = scan_of()
    plan = L.Project(
        [E.Alias(E.Arithmetic(E.ColumnRef("c"), E.Literal(2), "*"), "d")],
        L.Filter(
            E.Comparison(E.ColumnRef("c"), E.Literal(2), ">"),
            L.Project(
                [E.Alias(E.Arithmetic(E.ColumnRef("a"), E.Literal(1), "+"), "c")],
                scan,
            ),
        ),
    )
    rows = [{"a": 0, "b": 0.0, "k": "x"}, {"a": 2, "b": 0.0, "k": "y"},
            {"a": 5, "b": 0.0, "k": "z"}]
    out = run_compiled(plan, scan, RecordBatch.from_rows(rows, SCHEMA))
    assert out.schema.names == ["d"]
    assert [r["d"] for r in out.to_rows()] == [6, 12]


def _strings_df(values):
    return Session().create_dataframe(
        [{"s": v} for v in values], (("s", "string"),))


@pytest.mark.parametrize("guarded", [True, False])
def test_ordering_a_null_string_is_not_true_in_the_fused_stage(guarded):
    # Both masks of the fused stage run on every row, the null included,
    # so the ordering comparison itself has to be total.
    df = _strings_df(["a", None, "c", "a"])
    if guarded:
        df = df.where(F.col("s").is_not_null())
    assert [r["s"] for r in df.where(F.col("s") < "b").collect()] == ["a", "a"]


def test_not_equal_drops_the_null_row():
    df = _strings_df(["a", None, "c"])
    assert [r["s"] for r in df.where(F.col("s") != "a").collect()] == ["c"]
    # Null on both sides is still not true, literal or column.
    assert df.where(F.col("s") == F.lit(None)).collect() == []
    assert [r["s"] for r in df.where(F.col("s") == F.col("s")).collect()] \
        == ["a", "c"]


def test_constant_division_by_zero_plans_and_matches_the_column_case():
    df = Session().create_dataframe([{"i": 0}], (("i", "long"),))
    row = df.select((F.lit(1) / F.lit(0)).alias("z"),
                    (F.lit(1) / F.col("i")).alias("y"),
                    (F.lit(-1.0) / F.lit(0)).alias("neg"),
                    (F.lit(0) / F.lit(0)).alias("nan")).collect()[0]
    assert row["z"] == row["y"] == math.inf
    # 0/0 is NaN, which a double column reads back as null.
    assert row["neg"] == -math.inf and row["nan"] is None


# ---------------------------------------------------------------------------
# Compile-once: no plan-time work on the hot path
# ---------------------------------------------------------------------------

def test_batch_execute_compiles_a_plan_object_once():
    session = Session()
    df = (session.create_dataframe(
        [{"a": i, "b": float(i), "k": "x"} for i in range(10)],
        (("a", "long"), ("b", "double"), ("k", "string")))
        .where(F.col("a") > 2).select("a"))
    plan = df.plan
    before = plancompiler.PLAN_COMPILATIONS
    first = execute(plan)
    after_first = plancompiler.PLAN_COMPILATIONS
    second = execute(plan)
    assert plancompiler.PLAN_COMPILATIONS == after_first > before
    assert rows_set(first.to_rows()) == rows_set(second.to_rows())


def test_streaming_epochs_do_no_expression_compilation(monkeypatch, tmp_path):
    """The acceptance criterion: after the query starts, serving epochs
    binds no expression, resolves no type and compiles no plan."""
    stream = make_stream((("k", "string"), ("t", "double")))
    session = Session()
    df = (session.read_stream.memory(stream)
          .with_watermark("t", "10 seconds")
          .where(F.col("t") >= 0)
          .select("k", (F.col("t") * 1).alias("t"))
          .group_by("k", F.window(F.col("t"), "10 seconds"))
          .agg(F.count().alias("n")))
    query = start_memory_query(df, "update", "compile_spy", str(tmp_path))
    stream.add_data([{"k": "a", "t": 1.0}, {"k": "b", "t": 2.0}])
    query.process_all_available()

    # Arm the spies only after the first epoch: construction-time
    # compilation is expected, per-epoch compilation is the bug.
    calls = {"bind": 0, "data_type": 0}

    def counting(name, real):
        def spy(*args):
            calls[name] += 1
            return real(*args)
        return spy

    monkeypatch.setattr(E, "bind", counting("bind", E.bind))
    expression_types = [E.Expression]
    for cls in expression_types:  # grows: every subclass overrides it
        expression_types.extend(cls.__subclasses__())
        if "data_type" in vars(cls):
            monkeypatch.setattr(
                cls, "data_type", counting("data_type", cls.data_type))
    plans_before = plancompiler.PLAN_COMPILATIONS

    for epoch in range(3):
        stream.add_data([
            {"k": "a", "t": 3.0 + epoch}, {"k": "c", "t": 4.0 + epoch},
        ])
        query.process_all_available()

    assert calls == {"bind": 0, "data_type": 0}
    assert plancompiler.PLAN_COMPILATIONS == plans_before
    query.stop()


def _operators(op):
    yield op
    for child in op.child_ops():
        yield from _operators(child)


def test_streaming_epochs_never_reindex_the_static_side(monkeypatch, tmp_path):
    """A stream-static join indexes its static relation once, at start:
    no later epoch builds an index, or sorts or uniques the static keys."""
    session = Session()
    campaigns = session.create_dataframe(
        [{"ad_id": a, "campaign": a // 10} for a in range(100)],
        (("ad_id", "long"), ("campaign", "long")))
    stream = make_stream((("ad_id", "long"), ("t", "double")))
    df = (session.read_stream.memory(stream)
          .join(campaigns, on="ad_id")
          .group_by("campaign", F.window(F.col("t"), "10 seconds"))
          .agg(F.count().alias("n")))
    query = start_memory_query(df, "update", "index_spy", str(tmp_path))
    stream.add_data([{"ad_id": 1, "t": 1.0}])
    query.process_all_available()

    join = next(op for op in _operators(query.engine.plan.root)
                if isinstance(op, ops.StreamStaticJoinOp))
    static_keys = join.static.materialize().columns["ad_id"]
    calls = []

    def over_static_keys(name, real):
        def spy(array, *args, **kwargs):
            if isinstance(array, np.ndarray) and \
                    np.shares_memory(array, static_keys):
                calls.append(name)
            return real(array, *args, **kwargs)
        return spy

    monkeypatch.setattr(np, "unique", over_static_keys("unique", np.unique))
    monkeypatch.setattr(np, "argsort", over_static_keys("argsort", np.argsort))
    monkeypatch.setattr(UniqueKeyIndex, "build", classmethod(
        lambda cls, *args: calls.append("build")))

    for epoch in range(3):
        stream.add_data([{"ad_id": a, "t": 2.0 + epoch} for a in (5, 17, 99, 250)])
        query.process_all_available()

    assert calls == []
    assert {(r["campaign"], r["n"]) for r in query.engine.sink.rows()} == {
        (0, 4), (1, 3), (9, 3)}
    query.stop()


def test_yahoo_epoch_reads_only_the_referenced_columns(monkeypatch):
    """The Yahoo query references three of the six event columns; the
    epoch's input batch carries exactly those."""
    workload = YahooWorkload(num_campaigns=5, ads_per_campaign=2)
    rows = workload.event_rows(400)
    broker = Broker()
    topic = broker.create_topic("events", 2)
    for index in range(2):
        topic.publish_batch_to(index, RecordBatch.from_rows(
            rows[index::2], YAHOO_EVENT_SCHEMA))
    read = []

    def recording(real):
        def get_batch(source, *args):
            batch = real(source, *args)
            read.append(batch.schema.names)
            return batch
        return get_batch

    monkeypatch.setattr(KafkaSource, "get_batch",
                        recording(KafkaSource.get_batch))
    df = structured_streaming_query(Session(), broker, "events", workload)
    query = start_memory_query(df, "update", "yahoo_columns")
    query.process_all_available()
    assert read == [["ad_id", "event_type", "event_time"]]
    assert {(r["campaign_id"], r["window_start"]): r["count"]
            for r in query.engine.sink.rows()} == \
        workload.reference_counts(rows)
    query.stop()


# ---------------------------------------------------------------------------
# A stage per source partition
# ---------------------------------------------------------------------------

def _record_chunked_reads(monkeypatch) -> list:
    """Every chunked batch a source read builds, in order."""
    reads = []
    real_chunked = RecordBatch.chunked.__func__

    def recording(cls, parts, schema):
        batch = real_chunked(cls, parts, schema)
        reads.append(batch)
        return batch

    monkeypatch.setattr(RecordBatch, "chunked", classmethod(recording))
    return reads


def test_a_four_partition_yahoo_epoch_never_builds_its_input(monkeypatch):
    """The read is one chunked batch, the stage runs per part, and nothing
    reads the chunked batch's ``columns`` (which would concatenate the
    parts and release them)."""
    workload = YahooWorkload(num_campaigns=5, ads_per_campaign=2)
    rows = workload.event_rows(4 * 500)
    broker = Broker()
    topic = broker.create_topic("events", 4)
    for index in range(4):
        topic.publish_batch_to(index, RecordBatch.from_rows(
            rows[index::4], YAHOO_EVENT_SCHEMA))
    reads = _record_chunked_reads(monkeypatch)
    df = structured_streaming_query(Session(), broker, "events", workload)
    query = start_memory_query(df, "update", "yahoo_chunks")
    query.process_all_available()
    assert len(reads) == 1
    assert [part.num_rows for part in reads[0].chunks()] == [500] * 4
    assert {(r["campaign_id"], r["window_start"]): r["count"]
            for r in query.engine.sink.rows()} == \
        workload.reference_counts(rows)
    query.stop()


def _filter_then_select(df):
    return df.filter(F.col("t") >= 5.0).select("p")


def _watermark_then_filter(df):
    return _filter_then_select(df.with_watermark("t", "10 seconds"))


def _watermark_then_count(df):
    return df.with_watermark("t", "10 seconds").group_by(
        F.window(F.col("t"), "10 seconds"), F.col("p")).agg(F.count())


def _watermark_then_dedup(df):
    return df.with_watermark("t", "10 seconds").drop_duplicates(["t", "p"])


@pytest.mark.parametrize("build, mode, chunks", [
    (_filter_then_select, "append", 2),
    # The optimizer pushes the filter below the watermark, onto the scan.
    (_watermark_then_filter, "append", 2),
    # The watermark is the scan's first consumer, and the aggregate above
    # it drives the row-local pair once per part.
    (_watermark_then_count, "update", 2),
    # Dedup is not row-local: it reads the whole epoch's ``columns``.
    (_watermark_then_dedup, "append", 1),
])
def test_only_a_stage_on_the_scan_keeps_the_read_chunked(
        monkeypatch, build, mode, chunks):
    """The read stays chunked only where it is consumed part by part: a
    stage on the scan, or an aggregate over a row-local subtree down to
    the scan.  Any other consumer (here a dedup over the watermark)
    reads ``columns``, which concatenates the parts."""
    broker = Broker()
    topic = broker.create_topic("events", 2)
    for p in range(2):
        topic.publish_to(p, [{"t": float(t), "p": p} for t in range(10)])
    reads = _record_chunked_reads(monkeypatch)
    df = build(Session().read_stream.kafka(
        broker, "events", (("t", "timestamp"), ("p", "long"))))
    query = start_memory_query(df, mode, "chunk_shapes")
    query.process_all_available()
    assert len(reads) == 1
    assert len(reads[0].chunks()) == chunks
    assert query.engine.sink.rows()
    query.stop()


def _graft(plan, leaf):
    """``plan`` with its scan replaced by ``leaf``."""
    if isinstance(plan, L.Scan):
        return leaf
    return plan.with_children((_graft(plan.child, leaf),))


def _udf_filter(names):
    """A UDF predicate (a fusion barrier: it seals the stage)."""
    numeric = [n for n in names if n != "k"]
    if numeric:
        return E.Udf(lambda v: int(v) % 3 != 0, [E.ColumnRef(numeric[0])],
                     T.BOOLEAN, "not_div3")
    return E.Udf(lambda k: k is None or k >= "y", [E.ColumnRef("k")],
                 T.BOOLEAN, "null_or_late")


@st.composite
def chains_with_udfs(draw):
    """A random stateless chain with a UDF stage below, above or beside
    it (a UDF projection yields a string column holding nulls)."""
    plan, scan = draw(stateless_plans())
    where = draw(st.sampled_from(["none", "below", "above", "project"]))
    names = plan.schema.names
    if where == "below":
        plan = _graft(plan, L.Filter(_udf_filter(SCHEMA.names), scan))
    elif where == "above":
        plan = L.Filter(_udf_filter(names), plan)
    elif where == "project":
        tag = E.Udf(lambda v: None if v is None or v == "x" else repr(v)[:3],
                    [E.ColumnRef(names[0])], T.STRING, "tag")
        plan = L.Project(
            [E.Alias(tag, "u")] + [E.ColumnRef(n) for n in names], plan)
    return plan, scan


#: Per epoch, per partition, the rows published there (some empty).
kafka_epochs = st.integers(1, 4).flatmap(lambda partitions: st.lists(
    st.lists(rows_strategy, min_size=partitions, max_size=partitions),
    min_size=1, max_size=3))

_CONCATENATED = classmethod(lambda cls, parts, schema: cls.concat(parts, schema))


@given(chain=chains_with_udfs(), epochs=kafka_epochs,
       columnar=st.booleans(), aggregate=st.booleans())
@example(chain=_pinned(lambda scan: L.Filter(
    E.Comparison(_K, E.Literal("q"), "=="), scan)),
    epochs=[[NULL_ROWS, [], NULL_ROWS[1:2] * 3]],
    columnar=True, aggregate=True)
def test_chunked_stage_equals_concatenate_then_stage(
        chain, epochs, columnar, aggregate):
    """A multi-partition Kafka read staged per part gives the sink rows
    and the checkpoint bytes of concatenating first (the oracle: the
    same query with ``RecordBatch.chunked`` concatenating its parts)."""
    plan, _scan = chain
    session = Session()
    broker = Broker()
    topic = broker.create_topic("in", len(epochs[0]))
    mode = "update" if aggregate else "append"

    def start(side, checkpoint):
        events = session.read_stream.kafka(broker, "in", SCHEMA)
        df = DataFrame(_graft(plan, events.plan), session)
        if aggregate:
            df = df.group_by(df.columns[0]).agg(F.count().alias("n"))
        return start_memory_query(df, mode, f"chunks_{side}", checkpoint)

    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: os.path.join(tmp, side) for side in ("staged", "oracle")}
        staged, oracle = (start(side, d) for side, d in dirs.items())
        for parts in epochs:
            for index, rows in enumerate(parts):
                if rows and columnar:
                    topic.publish_batch_to(
                        index, RecordBatch.from_rows(rows, SCHEMA))
                elif rows:
                    topic.publish_to(index, rows)
            staged.process_all_available()
            with mock.patch.object(RecordBatch, "chunked", _CONCATENATED):
                oracle.process_all_available()
        assert staged.engine.sink.rows() == oracle.engine.sink.rows()
        staged.stop()
        oracle.stop()
        assert checkpoint_fingerprint(dirs["staged"]) == \
            checkpoint_fingerprint(dirs["oracle"])


def test_a_boolean_string_function_does_not_depend_on_its_batch():
    """``contains`` of a null is False whether or not a non-null shares
    its batch, so a part of nulls staged alone agrees with the
    concatenation (it used to stay an object column of None)."""
    expr = E.ScalarFunction("contains", [E.ColumnRef("k"), E.Literal("x")])
    schema = StructType((("k", "string"),))
    nulls = RecordBatch.from_rows([{"k": None}], schema)
    mixed = RecordBatch.from_rows([{"k": None}, {"k": "xy"}], schema)
    assert expr.eval_batch(nulls).dtype == bool
    assert expr.eval_batch(nulls).tolist() == [False]
    assert expr.eval_batch(mixed).tolist() == [False, True]
