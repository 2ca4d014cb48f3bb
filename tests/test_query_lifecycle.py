"""Query lifecycle: threaded interval triggers, the query manager,
structured event logs, streaming explain."""

import json
import os
import time

import pytest

from repro.sql import functions as F

from tests.conftest import make_stream, start_memory_query


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestThreadedIntervalTrigger:
    def test_interval_trigger_processes_in_background(self, session):
        stream = make_stream((("v", "long"),))
        df = session.read_stream.memory(stream)
        query = (df.write_stream.format("memory").query_name("bg")
                 .trigger(interval="20ms").start())
        try:
            stream.add_data([{"v": 1}])
            sink = query.engine.sink
            assert wait_until(lambda: len(sink.rows()) == 1)
            stream.add_data([{"v": 2}])
            assert wait_until(lambda: len(sink.rows()) == 2)
        finally:
            query.stop()
        assert not query.is_active

    def test_stop_terminates_loop(self, session):
        stream = make_stream((("v", "long"),))
        query = (session.read_stream.memory(stream).write_stream
                 .format("memory").query_name("s").trigger(interval="10ms").start())
        assert query.is_active
        query.stop()
        assert not query.is_active
        assert query.await_termination(timeout=1)

    def test_exception_in_query_surfaces(self, session):
        stream = make_stream((("v", "long"),))
        def explode(v):
            raise ValueError("bad record")

        boom = F.udf(explode, "long")
        df = session.read_stream.memory(stream).select(boom(F.col("v")).alias("x"))
        query = (df.write_stream.format("memory").query_name("boom")
                 .trigger(interval="10ms").start())
        stream.add_data([{"v": 1}])
        assert wait_until(lambda: not query.is_active)
        with pytest.raises(ValueError, match="bad record"):
            query.await_termination(timeout=1)
        assert isinstance(query.exception, ValueError)

    def test_process_all_available_with_thread(self, session):
        stream = make_stream((("v", "long"),))
        query = (session.read_stream.memory(stream).write_stream
                 .format("memory").query_name("p").trigger(interval="10ms").start())
        try:
            stream.add_data([{"v": i} for i in range(5)])
            query.process_all_available()
            assert len(query.engine.sink.rows()) == 5
        finally:
            query.stop()

    def test_run_epoch_rejected_on_threaded_query(self, session):
        stream = make_stream((("v", "long"),))
        query = (session.read_stream.memory(stream).write_stream
                 .format("memory").query_name("r").trigger(interval="10ms").start())
        try:
            with pytest.raises(RuntimeError, match="own thread"):
                query.run_epoch()
        finally:
            query.stop()


class TestQueryManager:
    def test_started_queries_registered(self, session):
        stream = make_stream((("v", "long"),))
        q1 = start_memory_query(session.read_stream.memory(stream), "append", "q1")
        q2 = start_memory_query(session.read_stream.memory(stream), "append", "q2")
        assert {q.name for q in session.streams.active} == {"q1", "q2"}
        del q1, q2

    def test_get_by_name(self, session):
        stream = make_stream((("v", "long"),))
        start_memory_query(session.read_stream.memory(stream), "append", "named")
        assert session.streams.get("named").name == "named"
        with pytest.raises(KeyError):
            session.streams.get("missing")

    def test_stop_all(self, session):
        stream = make_stream((("v", "long"),))
        for name in ("a", "b"):
            (session.read_stream.memory(stream).write_stream
             .format("memory").query_name(name).trigger(interval="10ms").start())
        assert len(session.streams.active) == 2
        session.streams.stop_all()
        assert session.streams.active == []

    def test_manual_query_leaves_active_on_stop(self, session):
        stream = make_stream((("v", "long"),))
        query = start_memory_query(session.read_stream.memory(stream), "append", "m")
        assert query in session.streams.active
        query.stop()
        assert query not in session.streams.active

    def test_await_any_termination(self, session):
        stream = make_stream((("v", "long"),))
        query = (session.read_stream.memory(stream).write_stream
                 .format("memory").query_name("t").trigger(once=True)
                 .start(use_thread=True))
        assert session.streams.await_any_termination(timeout=5)
        del query


class TestEventLog:
    def test_progress_written_as_json_lines(self, session, checkpoint):
        stream = make_stream((("v", "long"),))
        query = start_memory_query(
            session.read_stream.memory(stream), "append", "ev", checkpoint)
        stream.add_data([{"v": 1}])
        query.process_all_available()
        stream.add_data([{"v": 2}])
        query.process_all_available()
        path = os.path.join(checkpoint, "events.jsonl")
        with open(path) as f:
            events = [json.loads(line) for line in f]
        assert [e["epoch"] for e in events] == [0, 1]
        assert all("numInputRows" in e for e in events)

    def test_event_log_survives_restart(self, session, checkpoint):
        stream = make_stream((("v", "long"),))
        q1 = start_memory_query(
            session.read_stream.memory(stream), "append", "ev2", checkpoint)
        stream.add_data([{"v": 1}])
        q1.process_all_available()
        q2 = (session.read_stream.memory(stream).write_stream
              .sink(q1.engine.sink).output_mode("append").start(checkpoint))
        stream.add_data([{"v": 2}])
        q2.process_all_available()
        with open(os.path.join(checkpoint, "events.jsonl")) as f:
            events = [json.loads(line) for line in f]
        assert [e["epoch"] for e in events] == [0, 1]

    def test_single_append_handle_closed_on_stop(self, session, checkpoint):
        stream = make_stream((("v", "long"),))
        query = start_memory_query(
            session.read_stream.memory(stream), "append", "ev3", checkpoint)
        handle = query.engine.progress._log
        stream.add_data([{"v": 1}])
        query.process_all_available()
        stream.add_data([{"v": 2}])
        query.process_all_available()
        # Same handle across epochs (no reopen per epoch), closed on stop.
        assert query.engine.progress._log is handle and not handle.closed
        query.stop()
        assert handle.closed
        query.stop()  # idempotent


class TestStreamingExplain:
    def test_explain_shows_incremental_operators(self, session, capsys):
        stream = make_stream((("t", "timestamp"), ("k", "string")))
        df = (session.read_stream.memory(stream)
              .with_watermark("t", "10s")
              .where(F.col("k") != "skip")
              .group_by(F.window("t", "10s")).count())
        query = start_memory_query(df, "append", "x")
        text = query.explain()
        assert "StatefulAggregateOp [stateful]" in text
        assert "WatermarkTrackOp" in text
        assert "StreamScan [source-0]" in text
        assert "StatefulAggregateOp" in capsys.readouterr().out

    def test_join_plan_shows_both_sides(self, session):
        a = make_stream((("k", "long"), ("t", "timestamp")))
        b = make_stream((("k", "long"), ("t2", "timestamp")))
        df = (session.read_stream.memory(a).with_watermark("t", "5s")
              .join(session.read_stream.memory(b).with_watermark("t2", "5s"),
                    on="k"))
        query = start_memory_query(df, "append", "j")
        text = query.engine.plan.root.explain_string()
        assert text.count("StreamScan") == 2
        assert "StreamStreamJoinOp" in text
