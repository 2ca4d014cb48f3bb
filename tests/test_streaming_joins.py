"""Streaming joins: stream-static and watermark-bounded stream-stream
(§5.2, §8.1's TCP/DHCP pattern)."""

import pytest

from repro.sql import functions as F

from tests.conftest import make_stream, rows_set, start_memory_query

LEFT = (("k", "long"), ("t", "timestamp"), ("l", "string"))
RIGHT = (("k", "long"), ("t2", "timestamp"), ("r", "string"))


def two_stream_join(session, how="inner", delay="10s", within_skew="10s"):
    left_stream = make_stream(LEFT)
    right_stream = make_stream(RIGHT)
    left = session.read_stream.memory(left_stream).with_watermark("t", delay)
    right = session.read_stream.memory(right_stream).with_watermark("t2", delay)
    within = ("t", "t2", within_skew) if within_skew is not None else None
    return left_stream, right_stream, left.join(right, on="k", how=how,
                                                within=within)


class TestStreamStreamInner:
    def test_same_epoch_match(self, session):
        ls, rs, df = two_stream_join(session)
        query = start_memory_query(df, "append", "out")
        ls.add_data([{"k": 1, "t": 1.0, "l": "x"}])
        rs.add_data([{"k": 1, "t2": 2.0, "r": "y"}])
        query.process_all_available()
        assert query.engine.sink.rows() == [
            {"k": 1, "t": 1.0, "l": "x", "t2": 2.0, "r": "y"}]

    def test_cross_epoch_match_left_arrives_first(self, session):
        ls, rs, df = two_stream_join(session)
        query = start_memory_query(df, "append", "out")
        ls.add_data([{"k": 1, "t": 1.0, "l": "x"}])
        query.process_all_available()
        assert query.engine.sink.rows() == []
        rs.add_data([{"k": 1, "t2": 2.0, "r": "y"}])
        query.process_all_available()
        assert len(query.engine.sink.rows()) == 1

    def test_cross_epoch_match_right_arrives_first(self, session):
        ls, rs, df = two_stream_join(session)
        query = start_memory_query(df, "append", "out")
        rs.add_data([{"k": 1, "t2": 2.0, "r": "y"}])
        query.process_all_available()
        ls.add_data([{"k": 1, "t": 1.0, "l": "x"}])
        query.process_all_available()
        assert len(query.engine.sink.rows()) == 1

    def test_no_duplicate_pairs_same_epoch(self, session):
        ls, rs, df = two_stream_join(session)
        query = start_memory_query(df, "append", "out")
        ls.add_data([{"k": 1, "t": 1.0, "l": "x"}])
        rs.add_data([{"k": 1, "t2": 2.0, "r": "y"}])
        query.process_all_available()
        rs.add_data([{"k": 2, "t2": 3.0, "r": "z"}])  # unrelated key
        query.process_all_available()
        assert len(query.engine.sink.rows()) == 1

    def test_many_to_many(self, session):
        ls, rs, df = two_stream_join(session)
        query = start_memory_query(df, "append", "out")
        ls.add_data([{"k": 1, "t": 1.0, "l": "x1"}, {"k": 1, "t": 2.0, "l": "x2"}])
        rs.add_data([{"k": 1, "t2": 1.5, "r": "y1"}, {"k": 1, "t2": 2.5, "r": "y2"}])
        query.process_all_available()
        assert len(query.engine.sink.rows()) == 4

    def test_state_bounded_by_watermark(self, session):
        ls, rs, df = two_stream_join(session, delay="5s")
        query = start_memory_query(df, "append", "out")
        for t in (1.0, 20.0, 40.0, 60.0):
            ls.add_data([{"k": int(t), "t": t, "l": "x"}])
            rs.add_data([{"k": 999, "t2": t, "r": "y"}])
            query.process_all_available()
        # Rows far behind both watermarks must have been evicted.
        assert query.engine.state_store.total_keys() <= 4


class TestStreamStreamOuter:
    def test_left_outer_emits_null_padded_on_eviction(self, session):
        ls, rs, df = two_stream_join(session, how="left_outer", delay="5s")
        query = start_memory_query(df, "append", "out")
        ls.add_data([{"k": 1, "t": 1.0, "l": "lonely"}])
        rs.add_data([{"k": 9, "t2": 1.0, "r": "other"}])
        query.process_all_available()
        assert query.engine.sink.rows() == []
        # Advance both watermarks past t=1.
        ls.add_data([{"k": 2, "t": 50.0, "l": "late"}])
        rs.add_data([{"k": 9, "t2": 50.0, "r": "w"}])
        query.process_all_available()
        ls.add_data([{"k": 3, "t": 51.0, "l": "more"}])
        query.process_all_available()
        rows = [r for r in query.engine.sink.rows() if r["l"] == "lonely"]
        assert rows == [{"k": 1, "t": 1.0, "l": "lonely", "t2": None, "r": None}]

    def test_matched_rows_not_re_emitted_as_outer(self, session):
        ls, rs, df = two_stream_join(session, how="left_outer", delay="5s")
        query = start_memory_query(df, "append", "out")
        ls.add_data([{"k": 1, "t": 1.0, "l": "x"}])
        rs.add_data([{"k": 1, "t2": 1.0, "r": "y"}])
        query.process_all_available()
        # push watermarks way past
        ls.add_data([{"k": 2, "t": 100.0, "l": "z"}])
        rs.add_data([{"k": 3, "t2": 100.0, "r": "w"}])
        query.process_all_available()
        ls.add_data([{"k": 4, "t": 101.0, "l": "q"}])
        query.process_all_available()
        k1_rows = [r for r in query.engine.sink.rows() if r["k"] == 1]
        assert k1_rows == [{"k": 1, "t": 1.0, "l": "x", "t2": 1.0, "r": "y"}]

    def test_right_outer(self, session):
        ls, rs, df = two_stream_join(session, how="right_outer", delay="5s")
        query = start_memory_query(df, "append", "out")
        rs.add_data([{"k": 7, "t2": 1.0, "r": "solo"}])
        query.process_all_available()
        ls.add_data([{"k": 1, "t": 100.0, "l": "a"}])
        rs.add_data([{"k": 2, "t2": 100.0, "r": "b"}])
        query.process_all_available()
        rs.add_data([{"k": 3, "t2": 101.0, "r": "c"}])
        query.process_all_available()
        solo = [r for r in query.engine.sink.rows() if r["r"] == "solo"]
        assert solo == [{"k": 7, "t": None, "l": None, "t2": 1.0, "r": "solo"}]


class TestTimeIntervalSemantics:
    def test_pairs_outside_skew_not_matched(self, session):
        ls, rs, df = two_stream_join(session, within_skew="5s")
        query = start_memory_query(df, "append", "out")
        ls.add_data([{"k": 1, "t": 0.0, "l": "x"}])
        rs.add_data([{"k": 1, "t2": 100.0, "r": "far"},   # skew 100 > 5
                     {"k": 1, "t2": 3.0, "r": "near"}])   # skew 3 <= 5
        query.process_all_available()
        assert [r["r"] for r in query.engine.sink.rows()] == ["near"]

    def test_inner_without_bound_keeps_state_forever(self, session):
        """No within bound: matches across arbitrary skew still found —
        prefix consistency is never sacrificed to eviction."""
        ls, rs, df = two_stream_join(session, within_skew=None)
        query = start_memory_query(df, "append", "out")
        ls.add_data([{"k": 1, "t": 1.0, "l": "old"}])
        query.process_all_available()
        # The left stream races far ahead in event time...
        for t in (100.0, 200.0, 300.0):
            ls.add_data([{"k": 99, "t": t, "l": "filler"}])
            query.process_all_available()
        # ...yet a right row for the old key still matches.
        rs.add_data([{"k": 1, "t2": 250.0, "r": "late-but-valid"}])
        query.process_all_available()
        assert len(query.engine.sink.rows()) == 1

    def test_bounded_join_evicts_old_rows(self, session):
        ls, rs, df = two_stream_join(session, delay="0s", within_skew="5s")
        query = start_memory_query(df, "append", "out")
        ls.add_data([{"k": 1, "t": 1.0, "l": "x"}])
        rs.add_data([{"k": 9, "t2": 1.0, "r": "y"}])
        query.process_all_available()
        # Both watermarks jump far past 1 + skew.
        ls.add_data([{"k": 2, "t": 100.0, "l": "a"}])
        rs.add_data([{"k": 3, "t2": 100.0, "r": "b"}])
        query.process_all_available()
        ls.add_data([{"k": 4, "t": 101.0, "l": "c"}])
        rs.add_data([{"k": 5, "t2": 101.0, "r": "d"}])
        query.process_all_available()
        assert query.engine.state_store.total_keys() <= 4  # old rows gone

    def test_late_input_dropped_when_bounded(self, session):
        ls, rs, df = two_stream_join(session, delay="0s", within_skew="5s")
        query = start_memory_query(df, "append", "out")
        ls.add_data([{"k": 1, "t": 100.0, "l": "x"}])
        query.process_all_available()
        ls.add_data([{"k": 1, "t": 101.0, "l": "y"}])
        query.process_all_available()  # left watermark now 100
        ls.add_data([{"k": 1, "t": 50.0, "l": "too-late"}])
        progress = query.process_all_available()
        assert progress[-1].late_rows_dropped == 1

    def test_batch_join_honors_within(self, session):
        left = session.create_dataframe(
            [{"k": 1, "t": 0.0, "l": "a"}, {"k": 1, "t": 50.0, "l": "b"}], LEFT)
        right = session.create_dataframe(
            [{"k": 1, "t2": 3.0, "r": "x"}], RIGHT)
        out = left.join(right, on="k", within=("t", "t2", "5s")).collect()
        assert [r["l"] for r in out] == ["a"]

    def test_batch_outer_join_within_null_pads_unmatched(self, session):
        left = session.create_dataframe(
            [{"k": 1, "t": 0.0, "l": "a"}, {"k": 1, "t": 50.0, "l": "b"}], LEFT)
        right = session.create_dataframe(
            [{"k": 1, "t2": 3.0, "r": "x"}], RIGHT)
        out = left.join(right, on="k", how="left_outer",
                        within=("t", "t2", "5s")).collect()
        by_l = {r["l"]: r["r"] for r in out}
        assert by_l == {"a": "x", "b": None}


class TestNullEventTime:
    """A row whose event time is null is outside every ``within`` bound:
    it is dropped as late whatever the watermark — also before the first
    one — instead of matching every row of its key and staying in state
    forever (its expiry would be NaN, which never pops)."""

    @pytest.mark.parametrize("how", ["inner", "left_outer"])
    def test_null_time_row_is_dropped_before_any_watermark(
            self, session, tmp_path, how):
        from repro.streaming.operators import StreamStreamJoinOp

        ls, rs, df = two_stream_join(session, how=how, delay="5s",
                                     within_skew="5s")
        query = start_memory_query(df, "append", "nulltime",
                                   str(tmp_path / "cp"))
        ls.add_data([{"k": 1, "t": None, "l": "no-time"},
                     {"k": 2, "t": 1.0, "l": "timed"}])
        rs.add_data([{"k": 9, "t2": 1.0, "r": "other"}])
        dropped = [p.late_rows_dropped for p in query.process_all_available()]
        for t2 in (100.0, 200.0, 300.0):
            rs.add_data([{"k": 1, "t2": t2, "r": "y"}])
            query.process_all_available()
        join = next(op for op in query.engine.plan.stateful_ops
                    if isinstance(op, StreamStreamJoinOp))
        left_keys = list(join._left_state.keys())
        rows = query.engine.sink.rows()
        query.stop()
        assert dropped == [1]
        assert [r for r in rows if r["l"] == "no-time"] == []
        assert (1,) not in left_keys
        if how == "left_outer":
            # The timed row still meets the ordinary outer-join fate.
            assert [r for r in rows if r["l"] == "timed"] == [
                {"k": 2, "t": 1.0, "l": "timed", "t2": None, "r": None}]


class TestJoinEquivalenceWithBatch:
    def test_inner_join_matches_batch_result(self, session):
        left_rows = [{"k": i % 3, "t": float(i), "l": f"l{i}"} for i in range(6)]
        right_rows = [{"k": i % 4, "t2": float(i), "r": f"r{i}"} for i in range(6)]
        expected = rows_set(
            session.create_dataframe(left_rows, LEFT)
            .join(session.create_dataframe(right_rows, RIGHT), on="k")
            .collect())

        ls, rs, df = two_stream_join(session, delay="1000s")
        query = start_memory_query(df, "append", "out")
        for lr, rr in zip(left_rows, right_rows):
            ls.add_data([lr])
            rs.add_data([rr])
            query.process_all_available()
        assert rows_set(query.engine.sink.rows()) == expected


class TestNullAndNanKeys:
    """An inner join never matches a null or NaN key — not even to
    another null or NaN — on either input kind, and the streaming result equals the batch join's."""

    KEYS = {
        "double": [1.0, float("nan"), 2.0, float("nan"), 1.0],
        "string": ["a", None, "b", None, "a"],
    }

    @pytest.mark.parametrize("key_type", sorted(KEYS))
    @pytest.mark.parametrize("source", ["append", "cdc"])
    def test_inner_join_skips_null_and_nan_keys(
            self, session, tmp_path, key_type, source):
        from repro.sources import ChangeStream
        from repro.sql.types import StructType

        left_schema = (("k", key_type), ("l", "string"))
        right_schema = (("k", key_type), ("r", "string"))
        keys = self.KEYS[key_type]
        left_rows = [{"k": k, "l": f"l{i}"} for i, k in enumerate(keys)]
        right_rows = [{"k": k, "r": f"r{i}"} for i, k in enumerate(keys)]
        expected = rows_set(
            session.create_dataframe(left_rows, left_schema)
            .join(session.create_dataframe(right_rows, right_schema), on="k")
            .collect())
        # Only the two real keys match: "a"/1.0 twice on each side.
        assert len(expected) == 5

        if source == "cdc":
            ls = ChangeStream(StructType(left_schema))
            rs = ChangeStream(StructType(right_schema))
            read, add, mode = session.read_stream.cdc, "insert", "retract"
        else:
            ls, rs = make_stream(left_schema), make_stream(right_schema)
            read, add, mode = session.read_stream.memory, "add_data", "append"
        df = read(ls).join(read(rs), on="k")
        query = start_memory_query(df, mode, "nulls", str(tmp_path / "cp"))
        for lr, rr in zip(left_rows, right_rows):
            getattr(ls, add)([lr])
            getattr(rs, add)([rr])
            query.process_all_available()
        rows = query.engine.sink.rows()
        query.stop()
        assert all(r["k"] is not None and r["k"] == r["k"] for r in rows)
        assert len(rows) == len(expected)
        assert rows_set(rows) == expected
