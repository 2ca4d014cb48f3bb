"""Streaming aggregation across output modes, windows and watermarks
(§4.2, §4.3.1, §5.2)."""

import hashlib

import pytest

from repro.sql import functions as F
from repro.testing.harness import checkpoint_fingerprint

from tests.conftest import make_stream, rows_set, start_memory_query

EVENT = (("t", "timestamp"), ("k", "string"), ("v", "double"))


def windowed_counts(session, stream, delay="10 seconds", size="10s"):
    return (session.read_stream.memory(stream)
            .with_watermark("t", delay)
            .group_by(F.window("t", size))
            .count())


class TestCompleteMode:
    def test_whole_table_every_epoch(self, session):
        stream = make_stream((("k", "string"),))
        df = session.read_stream.memory(stream).group_by("k").count()
        query = start_memory_query(df, "complete", "out")
        stream.add_data([{"k": "a"}])
        query.process_all_available()
        stream.add_data([{"k": "b"}])
        query.process_all_available()
        assert rows_set(query.engine.sink.rows()) == rows_set([
            {"k": "a", "count": 1}, {"k": "b", "count": 1}])

    def test_counts_accumulate(self, session):
        stream = make_stream((("k", "string"),))
        df = session.read_stream.memory(stream).group_by("k").count()
        query = start_memory_query(df, "complete", "out")
        for _ in range(3):
            stream.add_data([{"k": "a"}])
            query.process_all_available()
        assert query.engine.sink.rows() == [{"k": "a", "count": 3}]

    def test_sorted_complete_output(self, session):
        stream = make_stream((("k", "string"),))
        df = (session.read_stream.memory(stream)
              .group_by("k").count().order_by("-count"))
        query = start_memory_query(df, "complete", "out")
        stream.add_data([{"k": "a"}, {"k": "b"}, {"k": "a"}])
        query.process_all_available()
        assert [r["k"] for r in query.engine.sink.rows()] == ["a", "b"]

    def test_limit_in_complete_mode(self, session):
        stream = make_stream((("k", "string"),))
        df = (session.read_stream.memory(stream)
              .group_by("k").count().order_by("-count").limit(1))
        query = start_memory_query(df, "complete", "out")
        stream.add_data([{"k": "a"}, {"k": "b"}, {"k": "a"}])
        query.process_all_available()
        assert query.engine.sink.rows() == [{"k": "a", "count": 2}]


class TestUpdateMode:
    def test_only_changed_keys_emitted(self, session):
        stream = make_stream((("k", "string"),))
        df = session.read_stream.memory(stream).group_by("k").count()
        query = start_memory_query(df, "update", "out")
        sink = query.engine.sink
        stream.add_data([{"k": "a"}, {"k": "b"}])
        query.process_all_available()
        stream.add_data([{"k": "a"}])
        query.process_all_available()
        # sink merged by key: a=2, b=1
        assert rows_set(sink.rows()) == rows_set([
            {"k": "a", "count": 2}, {"k": "b", "count": 1}])

    def test_update_epoch_emission_is_delta_only(self, session):
        stream = make_stream((("k", "string"),))
        df = session.read_stream.memory(stream).group_by("k").count()
        emitted = []
        query = (df.write_stream
                 .foreach(lambda e, rows, mode: emitted.append((e, rows)))
                 .output_mode("update").start())
        stream.add_data([{"k": "a"}, {"k": "b"}])
        query.process_all_available()
        stream.add_data([{"k": "b"}])
        query.process_all_available()
        assert len(emitted[0][1]) == 2
        assert emitted[1][1] == [{"k": "b", "count": 2}]

    def test_multiple_aggregates_per_key(self, session):
        stream = make_stream(EVENT)
        df = (session.read_stream.memory(stream)
              .group_by("k")
              .agg(F.count().alias("n"), F.avg("v").alias("mean"),
                   F.min("v").alias("lo"), F.max("v").alias("hi")))
        query = start_memory_query(df, "update", "out")
        stream.add_data([{"t": 0.0, "k": "a", "v": 2.0}])
        query.process_all_available()
        stream.add_data([{"t": 1.0, "k": "a", "v": 6.0}])
        query.process_all_available()
        (row,) = query.engine.sink.rows()
        assert (row["n"], row["mean"], row["lo"], row["hi"]) == (2, 4.0, 2.0, 6.0)


class TestAppendModeWithWatermark:
    def test_nothing_emitted_before_watermark(self, session):
        stream = make_stream(EVENT)
        query = start_memory_query(windowed_counts(session, stream), "append", "out")
        stream.add_data([{"t": 5.0, "k": "a", "v": 1.0}])
        query.process_all_available()
        assert query.engine.sink.rows() == []

    def test_window_emitted_once_after_watermark_passes(self, session):
        stream = make_stream(EVENT)
        query = start_memory_query(windowed_counts(session, stream), "append", "out")
        stream.add_data([{"t": 5.0, "k": "a", "v": 1.0},
                         {"t": 7.0, "k": "a", "v": 1.0}])
        query.process_all_available()
        # max t = 7 -> watermark 0 after this epoch; window [0,10) open.
        stream.add_data([{"t": 25.0, "k": "a", "v": 1.0}])
        query.process_all_available()
        # watermark now 15 (effective next epoch)
        stream.add_data([{"t": 26.0, "k": "a", "v": 1.0}])
        query.process_all_available()
        assert query.engine.sink.rows() == [
            {"window_start": 0.0, "window_end": 10.0, "count": 2}]

    def test_late_data_dropped_after_emission(self, session):
        stream = make_stream(EVENT)
        query = start_memory_query(windowed_counts(session, stream), "append", "out")
        stream.add_data([{"t": 5.0, "k": "a", "v": 1.0}])
        query.process_all_available()
        stream.add_data([{"t": 25.0, "k": "a", "v": 1.0}])
        query.process_all_available()
        stream.add_data([{"t": 26.0, "k": "a", "v": 1.0}])
        query.process_all_available()  # [0,10) emitted with count 1
        stream.add_data([{"t": 6.0, "k": "a", "v": 1.0},  # too late
                         {"t": 40.0, "k": "a", "v": 1.0}])
        progress = query.process_all_available()
        assert progress[-1].late_rows_dropped == 1
        emitted = [r for r in query.engine.sink.rows() if r["window_start"] == 0.0]
        assert emitted == [{"window_start": 0.0, "window_end": 10.0, "count": 1}]

    def test_state_evicted_after_emission(self, session):
        stream = make_stream(EVENT)
        query = start_memory_query(windowed_counts(session, stream), "append", "out")
        stream.add_data([{"t": 5.0, "k": "a", "v": 1.0}])
        query.process_all_available()
        keys_before = query.engine.state_store.total_keys()
        stream.add_data([{"t": 25.0, "k": "a", "v": 1.0}])
        query.process_all_available()
        stream.add_data([{"t": 26.0, "k": "a", "v": 1.0}])
        query.process_all_available()
        assert keys_before == 1
        # [0,10) evicted; [20,30) still open
        assert query.engine.state_store.total_keys() == 1

    def test_group_by_watermarked_column_directly(self, session):
        stream = make_stream(EVENT)
        df = (session.read_stream.memory(stream)
              .with_watermark("t", "5 seconds")
              .group_by("t").count())
        query = start_memory_query(df, "append", "out")
        stream.add_data([{"t": 1.0, "k": "a", "v": 1.0}])
        query.process_all_available()
        stream.add_data([{"t": 10.0, "k": "a", "v": 1.0}])
        query.process_all_available()
        stream.add_data([{"t": 11.0, "k": "a", "v": 1.0}])
        query.process_all_available()
        # watermark reached 5 -> t=1 finalized
        assert {r["t"]: r["count"] for r in query.engine.sink.rows()} == {1.0: 1}


class TestUpdateModeEviction:
    def test_watermark_bounds_state_in_update_mode(self, session):
        stream = make_stream(EVENT)
        query = start_memory_query(windowed_counts(session, stream), "update", "out")
        for t in (5.0, 25.0, 45.0, 65.0):
            stream.add_data([{"t": t, "k": "a", "v": 1.0}])
            query.process_all_available()
        # Old windows must be evicted, not retained forever (§4.3.1).
        assert query.engine.state_store.total_keys() <= 2


class TestSlidingWindows:
    def test_record_counted_in_multiple_windows(self, session):
        stream = make_stream(EVENT)
        df = (session.read_stream.memory(stream)
              .group_by(F.window("t", "10s", "5s"))
              .count())
        query = start_memory_query(df, "update", "out")
        stream.add_data([{"t": 7.0, "k": "a", "v": 1.0}])
        query.process_all_available()
        starts = sorted(r["window_start"] for r in query.engine.sink.rows())
        assert starts == [0.0, 5.0]

    def test_sliding_counts_match_batch(self, session):
        rows = [{"t": float(t), "k": "a", "v": 1.0} for t in (1, 4, 6, 11, 13)]
        batch = session.create_dataframe(rows, EVENT)
        expected = rows_set(
            batch.group_by(F.window("t", "10s", "5s")).count().collect())

        stream = make_stream(EVENT)
        df = (session.read_stream.memory(stream)
              .group_by(F.window("t", "10s", "5s")).count())
        query = start_memory_query(df, "complete", "out")
        for row in rows:
            stream.add_data([row])
            query.process_all_available()
        assert rows_set(query.engine.sink.rows()) == expected


class TestCompositeKeys:
    def test_key_plus_window(self, session):
        stream = make_stream(EVENT)
        df = (session.read_stream.memory(stream)
              .with_watermark("t", "10s")
              .group_by(F.col("k"), F.window("t", "10s"))
              .count())
        query = start_memory_query(df, "update", "out")
        stream.add_data([
            {"t": 1.0, "k": "a", "v": 1.0},
            {"t": 2.0, "k": "b", "v": 1.0},
            {"t": 12.0, "k": "a", "v": 1.0},
        ])
        query.process_all_available()
        got = {(r["k"], r["window_start"]): r["count"]
               for r in query.engine.sink.rows()}
        assert got == {("a", 0.0): 1, ("b", 0.0): 1, ("a", 10.0): 1}


class TestNullGroupKeys:
    """A null group key sorts last in update/append emission instead of
    crashing the raw-tuple sort; non-null keys keep their value order."""

    def test_update_mode_orders_null_key_last(self, session):
        stream = make_stream(EVENT)
        df = (session.read_stream.memory(stream)
              .group_by("k").agg(F.count().alias("n")))
        query = start_memory_query(df, "update", "out")
        stream.add_data([{"t": 1.0, "k": k, "v": 1.0} for k in ("a", None, "b")])
        query.process_all_available()
        assert query.engine.sink.rows() == [
            {"k": "a", "n": 1}, {"k": "b", "n": 1}, {"k": None, "n": 1}]

    def test_append_mode_finalizes_window_with_null_plain_key(self, session):
        stream = make_stream(EVENT)
        df = (session.read_stream.memory(stream)
              .with_watermark("t", "10s")
              .group_by(F.col("k"), F.window("t", "10s"))
              .count())
        query = start_memory_query(df, "append", "out")
        stream.add_data([{"t": 1.0, "k": "b", "v": 1.0},
                         {"t": 2.0, "k": None, "v": 1.0},
                         {"t": 3.0, "k": "a", "v": 1.0}])
        query.process_all_available()
        stream.add_data([{"t": 25.0, "k": "a", "v": 1.0}])
        query.process_all_available()  # watermark 15, effective next epoch
        stream.add_data([{"t": 26.0, "k": "a", "v": 1.0}])
        query.process_all_available()  # [0,10) finalized for all three keys
        assert query.engine.sink.rows() == [
            {"k": k, "window_start": 0.0, "window_end": 10.0, "count": 1}
            for k in ("a", "b", None)]


def _digest(fingerprint: dict) -> str:
    sha = hashlib.sha256()
    for name in sorted(fingerprint):
        content = fingerprint[name]
        sha.update(name.encode())
        sha.update(content if isinstance(content, bytes) else content.encode())
    return sha.hexdigest()


class TestLateAndOnTimeRowsInOneEpoch:
    """Late rows (windows the watermark finalized) interleaved with on-time
    rows whose groups are first seen out of key order.  Sink rows,
    checkpoint bytes and the late-row count are pinned to what the
    per-row re-encoding of the surviving groups produced."""

    CHECKPOINT_SHA256 = (
        "0bd063e913774db37924bb541dfcee2db1f82aafe3095697a92185bf291009b0")

    def test_late_rows_drop_and_survivors_fold(self, session, tmp_path):
        stream = make_stream((("t", "timestamp"), ("g", "long"),
                              ("v", "double")))
        df = (session.read_stream.memory(stream)
              .with_watermark("t", "5 seconds")
              .group_by(F.col("g"), F.window("t", "10 seconds"))
              .agg(F.count().alias("n"), F.sum("v").alias("s")))
        checkpoint_dir = str(tmp_path / "cp")
        query = start_memory_query(
            df, "update", "late", checkpoint_dir,
            state_backend="dict", pipeline=False)
        stream.add_data([{"t": 31.0, "g": 1, "v": 1.0}])
        query.process_all_available()  # watermark 26 from the next epoch
        stream.add_data([
            {"t": 38.0, "g": 7, "v": 2.0}, {"t": 3.0, "g": 1, "v": 9.0},
            {"t": 34.0, "g": 2, "v": 3.0}, {"t": 12.0, "g": 7, "v": 9.0},
            {"t": 27.0, "g": 5, "v": 4.0}, {"t": 19.0, "g": 2, "v": 9.0},
            {"t": 36.0, "g": 7, "v": 5.0}, {"t": 32.0, "g": 1, "v": 6.0},
            {"t": 8.0, "g": 5, "v": 9.0}, {"t": 28.0, "g": 5, "v": 7.0},
        ])
        query.process_all_available()
        assert query.last_progress.late_rows_dropped == 4
        rows = [(r["g"], r["window_start"], r["n"], r["s"])
                for r in query.engine.sink.rows()]
        assert rows == [(1, 30.0, 2, 7.0), (2, 30.0, 1, 3.0),
                        (5, 20.0, 2, 11.0), (7, 30.0, 2, 7.0)]
        query.stop()
        assert _digest(checkpoint_fingerprint(checkpoint_dir)) == \
            self.CHECKPOINT_SHA256
