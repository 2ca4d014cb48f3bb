"""Direct unit tests for incremental operators with hand-built epoch
contexts — exercising edge branches the engine paths rarely hit."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql.batch import RecordBatch
from repro.sql.types import StructType
from repro.streaming import operators as ops
from repro.streaming.state import OperatorStateHandle, encode_key
from repro.streaming.watermark import WatermarkTracker

SCHEMA = StructType((("k", "string"), ("t", "timestamp"), ("v", "double")))


def ctx(inputs=None, mode="update", watermarks=None, epoch=0,
        processing_time=1000.0, first=False):
    return ops.EpochContext(
        epoch_id=epoch,
        inputs=inputs or {},
        watermarks=watermarks or WatermarkTracker({}),
        processing_time=processing_time,
        output_mode=mode,
        is_first_epoch=first,
    )


def batch(rows):
    return RecordBatch.from_rows(rows, SCHEMA)


def scan_op(name="source-0"):
    return ops.StreamScanOp(name, SCHEMA)


def tracker(column="t", delay=0.0, watermark=None):
    wm = WatermarkTracker({column: delay})
    if watermark is not None:
        wm.load_json({"max_seen": {}, "watermarks": {column: watermark}})
    return wm


class TestScanAndStatic:
    def test_scan_missing_input_is_empty(self):
        out = scan_op().process(ctx())
        assert out.num_rows == 0
        assert out.schema == SCHEMA

    def test_scan_counts_metrics(self):
        context = ctx({"source-0": batch([{"k": "a", "t": 1.0, "v": 1.0}])})
        scan_op().process(context)
        assert context.metrics["rows_processed"] == 1

    def test_static_op_materializes_once(self, session):
        df = session.create_dataframe([{"k": "a", "t": 0.0, "v": 1.0}], SCHEMA)
        static = ops.StaticOp(df.plan)
        first = static.materialize()
        assert static.materialize() is first  # cached


class TestStatefulAggregateBranches:
    def _agg_op(self, tmp_path, watermark_column=None, window=True):
        grouping = [E.ColumnRef("k")]
        if window:
            grouping.append(E.WindowExpr(E.ColumnRef("t"), 10.0))
        node = L.Aggregate(
            grouping, [(E.Count(None), "n")],
            L.Scan(SCHEMA, None, True, name="s"),
        )
        handle = OperatorStateHandle(str(tmp_path / "agg"))
        return ops.StatefulAggregateOp(
            node, scan_op(), handle, watermark_column=watermark_column)

    def test_update_mode_emits_only_changed(self, tmp_path):
        op = self._agg_op(tmp_path)
        op.process(ctx({"source-0": batch([{"k": "a", "t": 1.0, "v": 0.0}])}))
        out = op.process(ctx(
            {"source-0": batch([{"k": "b", "t": 1.0, "v": 0.0}])}, epoch=1))
        assert out.num_rows == 1
        assert out.to_rows()[0]["k"] == "b"

    def test_complete_mode_emits_everything_even_unchanged(self, tmp_path):
        op = self._agg_op(tmp_path)
        op.process(ctx({"source-0": batch([{"k": "a", "t": 1.0, "v": 0.0}])},
                       mode="complete"))
        out = op.process(ctx(
            {"source-0": batch([{"k": "b", "t": 1.0, "v": 0.0}])},
            mode="complete", epoch=1))
        assert out.num_rows == 2

    def test_empty_epoch_update_mode_emits_nothing(self, tmp_path):
        op = self._agg_op(tmp_path)
        out = op.process(ctx())
        assert out.num_rows == 0

    def test_append_holds_until_watermark(self, tmp_path):
        op = self._agg_op(tmp_path, watermark_column="t")
        wm = tracker(watermark=None)
        out = op.process(ctx(
            {"source-0": batch([{"k": "a", "t": 1.0, "v": 0.0}])},
            mode="append", watermarks=wm))
        assert out.num_rows == 0
        # Watermark passes the window end: emitted and evicted.
        wm2 = tracker(watermark=50.0)
        out2 = op.process(ctx(mode="append", watermarks=wm2, epoch=1))
        assert out2.to_rows() == [
            {"k": "a", "window_start": 0.0, "window_end": 10.0, "n": 1}]
        assert len(op.state) == 0

    def test_late_rows_dropped_and_counted(self, tmp_path):
        op = self._agg_op(tmp_path, watermark_column="t")
        wm = tracker(watermark=50.0)
        context = ctx(
            {"source-0": batch([{"k": "a", "t": 1.0, "v": 0.0},   # late
                                {"k": "a", "t": 60.0, "v": 0.0}])},
            mode="update", watermarks=wm)
        out = op.process(context)
        assert context.metrics["late_rows_dropped"] == 1
        assert out.to_rows()[0]["window_start"] == 60.0

    def test_key_expiry_plain_event_time_key(self, tmp_path):
        grouping = [E.ColumnRef("t")]
        node = L.Aggregate(grouping, [(E.Count(None), "n")],
                           L.Scan(SCHEMA, None, True, name="s"))
        handle = OperatorStateHandle(str(tmp_path / "agg2"))
        op = ops.StatefulAggregateOp(node, scan_op(), handle,
                                     watermark_column="t")
        assert op._key_expiry((5.0,)) == 5.0


    @pytest.mark.parametrize("weighted", [False, True])
    def test_fold_shard_is_pure(self, tmp_path, weighted):
        """The fold kernel reads pre-epoch state only: two calls return
        equal results and write nothing (retry idempotence)."""
        from repro.streaming.zset import attach_weights, weighted_schema

        schema = weighted_schema(SCHEMA) if weighted else SCHEMA
        node = L.Aggregate(
            [E.ColumnRef("k")],
            [(E.Count(None), "n"), (E.Sum(E.ColumnRef("v")), "s")],
            L.Scan(schema, None, True, name="s"))
        handle = OperatorStateHandle(str(tmp_path / "agg"))
        op = ops.StatefulAggregateOp(
            node, ops.StreamScanOp("source-0", schema), handle)

        def delta(rows, weights):
            data = batch([{"k": k, "t": 0.0, "v": v} for k, v in rows])
            return attach_weights(data, weights) if weighted else data

        op.process(ctx({"source-0": delta([("a", 1.0), ("b", 2.0)], [1, 1])},
                       mode="complete"))
        handle.commit(0)
        before = dict(handle.items())
        # 'a' gains a row; under weighted input 'b' loses its only row.
        second = delta([("a", 5.0), ("b", 2.0)], [1, -1])
        first_call = op._fold_delta(second, None)
        assert op._fold_delta(second, None) == first_call
        assert dict(handle.items()) == before
        assert handle.commit(1)["keys_written"] == 0
        [(puts, removes)], changes, late_rows = first_call
        assert late_rows == 0
        # Writes carry each key encoded once, beside the decoded key.
        assert all(enc == encode_key(key) for enc, key, *_ in puts + removes)
        puts = {key: value for _enc, key, value in puts}
        removes = [key for _enc, key in removes]
        assert [c[0] for c in changes] == [("a",), ("b",)]
        if weighted:
            # [live, buffers]; 'b' went empty and leaves state.
            assert puts == {("a",): [2, [2, [6.0, 2]]]}
            assert removes == [("b",)]
        else:
            assert puts == {("a",): [2, [6.0, 2]], ("b",): [2, [4.0, 2]]}
            assert not removes


def _late_fold_by_rows(op, batch, watermark):
    """Reference for the fold's late drop: one row (window membership)
    at a time over the whole delta, a row whose group the watermark
    finalized is late, every other row counts toward its group."""
    _expanded, codes, uniques = op._grouping(batch)
    late, counts = 0, {}
    for code in codes.tolist():
        key = uniques[code]
        if op._key_expiry(key) <= watermark:
            late += 1
        else:
            counts[key] = counts.get(key, 0) + 1
    return late, counts


@given(st.lists(st.tuples(st.integers(0, 3),
                          st.floats(-5.0, 60.0, allow_nan=False)),
                min_size=1, max_size=30),
       st.sampled_from([-10.0, 5.0, 20.0, 45.0, 100.0]),
       st.lists(st.integers(0, 30), max_size=2))
# A signed zero is its own group code but the same dict key.
@example([(0, 0.0), (0, -0.0)], -10.0, [1])
def test_late_groups_dropped_equal_the_per_row_reference(
        tmp_path_factory, rows, watermark, cuts):
    """Late groups leave the merged epoch table, not its rows: over any
    split of the delta into parts, the fold counts exactly the rows of
    finalized windows as late and folds every other row once."""
    schema = StructType((("k", "long"), ("t", "timestamp")))
    node = L.Aggregate(
        [E.ColumnRef("k"), E.WindowExpr(E.ColumnRef("t"), 10.0)],
        [(E.Count(None), "n")], L.Scan(schema, None, True, name="s"))
    handle = OperatorStateHandle(str(tmp_path_factory.mktemp("agg")))
    op = ops.StatefulAggregateOp(
        node, ops.StreamScanOp("source-0", schema), handle,
        watermark_column="t")
    bounds = [0, *sorted(min(c, len(rows)) for c in cuts), len(rows)]
    parts = [RecordBatch.from_rows(
        [{"k": k, "t": t} for k, t in rows[lo:hi]], schema)
        for lo, hi in zip(bounds, bounds[1:])]
    [(puts, removes)], changes, late_rows = op._fold_delta(
        iter(parts), watermark)
    want_late, want_counts = _late_fold_by_rows(
        op, RecordBatch.concat(parts), watermark)
    assert late_rows == want_late
    assert {key: value for _enc, key, [value] in puts} == want_counts
    assert all(enc == encode_key(key) for enc, key, _value in puts)
    assert not removes
    assert sorted(c[0] for c in changes) == sorted(want_counts)


class TestDedupBranches:
    def _dedup_op(self, tmp_path, subset, watermark_column=None):
        node = L.Deduplicate(subset, L.Scan(SCHEMA, None, True, name="s"))
        handle = OperatorStateHandle(str(tmp_path / "dd"))
        return ops.StreamingDedupOp(node, scan_op(), handle,
                                    watermark_column=watermark_column)

    def test_duplicate_within_batch_kept_once(self, tmp_path):
        op = self._dedup_op(tmp_path, ["k"])
        out = op.process(ctx({"source-0": batch(
            [{"k": "a", "t": 1.0, "v": 1.0}, {"k": "a", "t": 2.0, "v": 2.0}])}))
        assert out.num_rows == 1
        assert out.to_rows()[0]["v"] == 1.0

    def test_watermark_column_outside_subset_ignored(self, tmp_path):
        op = self._dedup_op(tmp_path, ["k"], watermark_column="t")
        assert op.watermark_column is None  # t not in subset: no eviction

    def test_empty_input(self, tmp_path):
        op = self._dedup_op(tmp_path, ["k"])
        assert op.process(ctx()).num_rows == 0


class TestUnionBranches:
    def test_static_side_only_on_first_epoch(self, session):
        static_df = session.create_dataframe(
            [{"k": "s", "t": 0.0, "v": 0.0}], SCHEMA)
        op = ops.UnionOp(scan_op(), ops.StaticOp(static_df.plan),
                         left_static=False, right_static=True, schema=SCHEMA)
        first = op.process(ctx(
            {"source-0": batch([{"k": "a", "t": 1.0, "v": 1.0}])}, first=True))
        assert first.num_rows == 2
        later = op.process(ctx(
            {"source-0": batch([{"k": "b", "t": 2.0, "v": 2.0}])}, epoch=1))
        assert later.num_rows == 1

    def test_both_streams_every_epoch(self):
        op = ops.UnionOp(scan_op("source-0"), scan_op("source-1"),
                         left_static=False, right_static=False, schema=SCHEMA)
        out = op.process(ctx({
            "source-0": batch([{"k": "a", "t": 1.0, "v": 1.0}]),
            "source-1": batch([{"k": "b", "t": 2.0, "v": 2.0}]),
        }))
        assert out.num_rows == 2


class TestMapGroupsBranches:
    OUT = StructType((("k", "string"), ("n", "long")))

    def _op(self, tmp_path, func, timeout="none"):
        node = L.MapGroupsWithState(
            ["k"], func, self.OUT, L.Scan(SCHEMA, None, True, name="s"),
            flat=False, timeout=timeout)
        handle = OperatorStateHandle(str(tmp_path / "mg"))
        return ops.MapGroupsWithStateOp(node, scan_op(), handle)

    def test_none_return_emits_nothing(self, tmp_path):
        op = self._op(tmp_path, lambda k, rows, state: None)
        out = op.process(ctx({"source-0": batch(
            [{"k": "a", "t": 1.0, "v": 1.0}])}))
        assert out.num_rows == 0

    def test_timeout_cleared_before_timed_out_call(self, tmp_path):
        observed = []

        def func(key, rows_iter, state):
            rows_list = list(rows_iter)
            if state.has_timed_out:
                observed.append("timeout")
                state.remove()
                return {"n": -1}
            state.update(1)
            state.set_timeout_duration("10s")
            return {"n": 1}

        op = self._op(tmp_path, func, timeout="processing_time")
        op.process(ctx({"source-0": batch(
            [{"k": "a", "t": 1.0, "v": 1.0}])}, processing_time=100.0))
        assert op.has_pending_timeout(200.0)
        assert not op.has_pending_timeout(105.0)
        out = op.process(ctx(processing_time=200.0, epoch=1))
        assert observed == ["timeout"]
        assert out.to_rows() == [{"k": "a", "n": -1}]
        assert len(op.state) == 0

    def test_key_with_new_data_not_timed_out(self, tmp_path):
        calls = []

        def func(key, rows_iter, state):
            calls.append(state.has_timed_out)
            state.update(1)
            state.set_timeout_duration("10s")
            return {"n": 1}

        op = self._op(tmp_path, func, timeout="processing_time")
        op.process(ctx({"source-0": batch(
            [{"k": "a", "t": 1.0, "v": 1.0}])}, processing_time=100.0))
        # Data for 'a' arrives after its timeout expired: it gets a normal
        # call (has_timed_out False), not a timeout call.
        op.process(ctx({"source-0": batch(
            [{"k": "a", "t": 2.0, "v": 1.0}])}, processing_time=500.0, epoch=1))
        assert calls == [False, False]


class TestCompleteModePostOp:
    def test_sorts_each_emission(self, tmp_path):
        grouping = [E.ColumnRef("k")]
        agg_node = L.Aggregate(grouping, [(E.Count(None), "n")],
                               L.Scan(SCHEMA, None, True, name="s"))
        handle = OperatorStateHandle(str(tmp_path / "a"))
        agg = ops.StatefulAggregateOp(agg_node, scan_op(), handle)
        sort_node = L.Sort([("n", False)], agg_node)
        post = ops.CompleteModePostOp(sort_node, agg)
        out = post.process(ctx({"source-0": batch([
            {"k": "a", "t": 1.0, "v": 0.0},
            {"k": "b", "t": 1.0, "v": 0.0},
            {"k": "a", "t": 2.0, "v": 0.0},
        ])}, mode="complete"))
        assert [r["k"] for r in out.to_rows()] == ["a", "b"]
