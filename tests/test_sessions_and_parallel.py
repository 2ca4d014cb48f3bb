"""Tests for session windows, partitioned ingestion, time travel."""

import pytest

from repro.sinks.file import TransactionalFileSink
from repro.sql import functions as F
from repro.sql.batch import RecordBatch
from repro.sql.types import StructType
from repro.streaming.sessions import session_windows

from tests.conftest import make_stream, start_memory_query

EVENTS = (("user", "string"), ("t", "timestamp"))


def sessions_query(session, stream, gap="30 seconds", watermark="0s"):
    df = session.read_stream.memory(stream).with_watermark("t", watermark)
    return session_windows(df, ["user"], "t", gap)


class TestSessionWindows:
    def test_single_session_counts_events(self, session):
        stream = make_stream(EVENTS)
        query = start_memory_query(sessions_query(session, stream), "append", "out")
        stream.add_data([{"user": "u1", "t": 1.0}, {"user": "u1", "t": 10.0}])
        query.process_all_available()
        assert query.engine.sink.rows() == []  # session still open
        # Watermark passes 10 + 30: session closes via timeout.
        stream.add_data([{"user": "u2", "t": 100.0}])
        query.process_all_available()
        stream.add_data([{"user": "u2", "t": 101.0}])
        query.process_all_available()
        closed = [r for r in query.engine.sink.rows() if r["user"] == "u1"]
        assert closed == [{"user": "u1", "session_start": 1.0,
                           "session_end": 10.0, "events": 2}]

    def test_gap_splits_sessions_within_epoch(self, session):
        stream = make_stream(EVENTS)
        query = start_memory_query(sessions_query(session, stream), "append", "out")
        stream.add_data([
            {"user": "u1", "t": 1.0}, {"user": "u1", "t": 5.0},
            {"user": "u1", "t": 100.0},  # > 30s after 5.0: new session
            {"user": "u1", "t": 200.0},
        ])
        query.process_all_available()
        # Sessions 1 and 2 are provably over (watermark is still behind,
        # but the in-epoch fold closes them when the next event jumps).
        rows = query.engine.sink.rows()
        assert {(r["session_start"], r["events"]) for r in rows} == {
            (1.0, 2), (100.0, 1)}

    def test_session_extends_across_epochs(self, session):
        stream = make_stream(EVENTS)
        query = start_memory_query(sessions_query(session, stream), "append", "out")
        stream.add_data([{"user": "u1", "t": 1.0}])
        query.process_all_available()
        stream.add_data([{"user": "u1", "t": 20.0}])  # within the gap
        query.process_all_available()
        assert query.engine.sink.rows() == []
        state = query.engine.state_store.handle("mgws-0").get(("u1",))
        assert state["s"]["n"] == 2

    def test_per_key_isolation(self, session):
        stream = make_stream(EVENTS)
        query = start_memory_query(sessions_query(session, stream), "append", "out")
        stream.add_data([{"user": "u1", "t": 1.0}, {"user": "u2", "t": 2.0}])
        query.process_all_available()
        assert query.engine.state_store.total_keys() == 2

    def test_out_of_order_within_gap_merges(self, session):
        stream = make_stream(EVENTS)
        query = start_memory_query(
            sessions_query(session, stream, watermark="50s"), "append", "out")
        stream.add_data([{"user": "u1", "t": 10.0}])
        query.process_all_available()
        stream.add_data([{"user": "u1", "t": 5.0}])  # late but within gap
        query.process_all_available()
        state = query.engine.state_store.handle("mgws-0").get(("u1",))
        assert state["s"] == {"start": 5.0, "end": 10.0, "n": 2}


class TestSchedulerIntegratedEngine:
    """An epoch's reads and tasks: every partition's range read once on
    the engine thread, then each operator's one task on it."""

    def _start(self, session, stream, checkpoint, **options):
        df = session.read_stream.memory(stream).where(F.col("v") >= 0)
        return start_memory_query(df, "append", "par", checkpoint, **options)

    def test_epoch_runs_via_tasks(self, session, checkpoint):
        stream = make_stream((("v", "long"),))
        query = self._start(session, stream, checkpoint)
        stream.add_data([{"v": i} for i in range(10)])
        query.process_all_available()
        assert len(query.engine.sink.rows()) == 10

    def test_multi_partition_kafka_fetch_parallel(self, session, checkpoint):
        """One epoch's read over four partitions is the four single-
        partition reads, in partition order."""
        from repro.bus import Broker

        broker = Broker()
        topic = broker.create_topic("t", 4)
        for p in range(4):
            topic.publish_to(p, [{"v": p * 10 + i} for i in range(5)])
        df = session.read_stream.kafka(broker, "t", (("v", "long"),))
        query = start_memory_query(df, "append", "k", checkpoint)
        query.process_all_available()
        rows = query.engine.sink.rows()
        assert len(rows) == 20
        (source,) = query.engine.sources.values()
        single = [row for p in sorted(source.latest_offsets())
                  for row in source.get_partition_batch(p, 0, 5).to_rows()]
        assert rows == single


class TestTimeTravel:
    def test_read_as_of_epoch(self, tmp_path):
        schema = StructType((("v", "long"),))
        sink = TransactionalFileSink(str(tmp_path / "t"))
        for epoch in range(3):
            sink.add_batch(epoch, RecordBatch.from_rows([{"v": epoch}], schema),
                           "append")
        assert sink.read_rows(as_of_epoch=1) == [{"v": 0}, {"v": 1}]
        assert sink.read_rows() == [{"v": 0}, {"v": 1}, {"v": 2}]

    def test_time_travel_respects_complete_mode(self, tmp_path):
        schema = StructType((("v", "long"),))
        sink = TransactionalFileSink(str(tmp_path / "t"))
        sink.add_batch(0, RecordBatch.from_rows([{"v": 0}], schema), "complete")
        sink.add_batch(1, RecordBatch.from_rows([{"v": 1}], schema), "complete")
        assert sink.read_rows(as_of_epoch=0) == [{"v": 0}]
        assert sink.read_rows(as_of_epoch=1) == [{"v": 1}]
