"""Tests for checkpoint retention/GC and SQL LIKE."""

import os

import pytest

from repro.sql import functions as F
from repro.sql.expressions import AnalysisError, Like, ColumnRef
from repro.streaming.state import OperatorStateHandle

from tests.conftest import make_stream, start_memory_query


class TestStatePruning:
    @pytest.fixture
    def handle(self, tmp_path):
        handle = OperatorStateHandle(str(tmp_path / "op"))
        for version in range(10):
            handle.put(f"k{version}", version)
            handle.commit(version)
        return handle

    def test_prune_removes_old_files(self, handle, tmp_path):
        before = len(os.listdir(tmp_path / "op"))
        removed = handle.prune(keep_from_version=7)
        after = len(os.listdir(tmp_path / "op"))
        assert removed > 0
        assert after == before - removed

    def test_restore_still_works_at_and_after_horizon(self, handle, tmp_path):
        handle.prune(keep_from_version=7)
        fresh = OperatorStateHandle(str(tmp_path / "op"))
        for version in (7, 9):
            restored = fresh.restore(version)
            assert restored == version
            assert fresh.get(f"k{version}") == version

    def test_restore_before_horizon_may_fail_softly(self, handle, tmp_path):
        handle.prune(keep_from_version=7)
        fresh = OperatorStateHandle(str(tmp_path / "op"))
        # Version 2 is gone: restore floors to what remains (the base at 6;
        # tiny files alternate base/delta under the rebase rule).
        assert fresh.restore(6) == 6

    def test_oldest_restorable_version(self, handle):
        assert handle.oldest_restorable_version() == 0
        handle.prune(keep_from_version=7)
        assert handle.oldest_restorable_version() == 6  # base at 6

    def test_prune_with_no_snapshot_is_noop(self, tmp_path):
        handle = OperatorStateHandle(str(tmp_path / "x"))
        handle.put("a", 1)
        handle.commit(3)  # the chain's only base is above the horizon
        assert handle.prune(keep_from_version=2) == 0
        assert handle.restore(3) == 3


class TestEngineRetention:
    def test_wal_and_state_bounded(self, session, checkpoint):
        stream = make_stream((("k", "string"),))
        df = session.read_stream.memory(stream).group_by("k").count()
        query = (df.write_stream.format("memory").query_name("r")
                 .option("retain_epochs", 5)
                 .output_mode("complete").start(checkpoint))
        for i in range(20):
            stream.add_data([{"k": "a"}])
            query.process_all_available()
        logged = query.engine.wal.logged_epochs()
        assert len(logged) <= 10  # bounded, not all 20
        assert logged[-1] == 19

    def test_recovery_works_after_retention(self, session, checkpoint):
        stream = make_stream((("k", "string"),))
        df = session.read_stream.memory(stream).group_by("k").count()
        q1 = (df.write_stream.format("memory").query_name("r2")
              .option("retain_epochs", 4)
              .output_mode("complete").start(checkpoint))
        for _ in range(15):
            stream.add_data([{"k": "a"}])
            q1.process_all_available()
        sink = q1.engine.sink

        q2 = (df.write_stream.sink(sink).output_mode("complete")
              .option("retain_epochs", 4).start(checkpoint))
        stream.add_data([{"k": "a"}])
        q2.process_all_available()
        assert sink.rows() == [{"k": "a", "count": 16}]

    def test_stateless_query_wal_bounded(self, session, checkpoint):
        stream = make_stream((("v", "long"),))
        df = session.read_stream.memory(stream)
        query = (df.write_stream.format("memory").query_name("r3")
                 .option("retain_epochs", 3)
                 .output_mode("append").start(checkpoint))
        for i in range(12):
            stream.add_data([{"v": i}])
            query.process_all_available()
        assert len(query.engine.wal.logged_epochs()) <= 4

    def test_no_retention_keeps_everything(self, session, checkpoint):
        stream = make_stream((("v", "long"),))
        query = start_memory_query(
            session.read_stream.memory(stream), "append", "r4", checkpoint)
        for i in range(8):
            stream.add_data([{"v": i}])
            query.process_all_available()
        assert len(query.engine.wal.logged_epochs()) == 8


class TestLike:
    ROWS = [{"s": "alice"}, {"s": "alfred"}, {"s": "bob"}, {"s": None}]

    @pytest.fixture
    def df(self, session):
        return session.create_dataframe(self.ROWS, (("s", "string"),))

    def test_prefix_wildcard(self, df):
        out = df.where(df.plan and F.col("s").like("al%")).collect()
        assert [r["s"] for r in out] == ["alice", "alfred"]

    def test_underscore_single_char(self, df):
        out = df.where(F.col("s").like("b_b")).collect()
        assert [r["s"] for r in out] == ["bob"]

    def test_null_never_matches(self, df):
        assert len(df.where(F.col("s").like("%")).collect()) == 3

    def test_regex_metachars_are_literal(self, session):
        df = session.create_dataframe([{"s": "a.c"}, {"s": "abc"}], (("s", "string"),))
        out = df.where(F.col("s").like("a.c")).collect()
        assert [r["s"] for r in out] == ["a.c"]

    def test_row_and_batch_agree(self, df):
        expr = Like(ColumnRef("s"), "%l%")
        batch = df.to_batch()
        assert expr.eval_batch(batch).tolist() == [
            expr.eval_row(r) for r in self.ROWS]

    def test_non_string_rejected(self, session):
        df = session.create_dataframe([{"n": 1}], (("n", "long"),))
        with pytest.raises(AnalysisError, match="string"):
            df.where(F.col("n").like("%")).collect()

    def test_sql_like(self, session, df):
        df.create_or_replace_temp_view("t")
        assert len(session.sql("SELECT * FROM t WHERE s LIKE 'al%'").collect()) == 2
        # Two-valued logic (documented deviation from SQL ternary nulls):
        # NULL LIKE ... is False, so NOT LIKE admits the null row.
        out = session.sql("SELECT * FROM t WHERE s NOT LIKE 'al%'").collect()
        assert {r["s"] for r in out} == {"bob", None}

    def test_sql_not_in_and_not_between(self, session, df):
        df.create_or_replace_temp_view("t")
        out = session.sql("SELECT * FROM t WHERE s NOT IN ('bob')").collect()
        assert len(out) == 3  # two-valued logic: the null row passes NOT IN
        nums = session.create_dataframe(
            [{"n": 1}, {"n": 5}, {"n": 9}], (("n", "long"),))
        nums.create_or_replace_temp_view("nums")
        out = session.sql("SELECT * FROM nums WHERE n NOT BETWEEN 2 AND 8").collect()
        assert [r["n"] for r in out] == [1, 9]
