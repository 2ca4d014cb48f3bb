"""Continuous processing mode (§6.3): latency path, epochs, restrictions."""

import sys
import threading
import time
from collections import Counter

import pytest

from repro.bus import Broker
from repro.sinks.memory import MemorySink
from repro.sql import functions as F
from repro.streaming.continuous import UnsupportedContinuousQueryError
from repro.testing.faults import CrashPoint, Fault, FaultInjector, injected

from tests.conftest import make_stream


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture
def broker():
    return Broker()


def start_continuous(session, broker, topic="in", partitions=2, interval="50ms"):
    broker.get_or_create(topic, partitions)
    df = (session.read_stream.kafka(broker, topic, (("v", "long"),))
          .select((F.col("v") * 2).alias("v2")))
    return (df.write_stream.format("memory").query_name("cont")
            .trigger(continuous=interval).start())


class TestContinuousExecution:
    def test_records_flow_without_manual_epochs(self, session, broker):
        query = start_continuous(session, broker)
        topic = broker.topic("in")
        topic.publish_to(0, [{"v": 1}])
        topic.publish_to(1, [{"v": 2}])
        sink = query.engine.sink
        assert wait_until(lambda: len(sink.rows()) == 2)
        assert sorted(r["v2"] for r in sink.rows()) == [2, 4]
        query.stop()

    def test_epochs_committed_in_background(self, session, broker):
        query = start_continuous(session, broker, interval="20ms")
        broker.topic("in").publish_to(0, [{"v": 1}])
        assert wait_until(lambda: query.engine.wal.latest_committed_epoch() is not None)
        query.stop()
        entry = query.engine.wal.read_offsets(query.engine.wal.latest_committed_epoch())
        assert "sources" in entry

    def test_stop_commits_final_epoch(self, session, broker):
        query = start_continuous(session, broker, interval="10h")  # master idle
        broker.topic("in").publish_to(0, [{"v": 1}])
        sink = query.engine.sink
        assert wait_until(lambda: len(sink.rows()) == 1)
        query.stop()
        assert query.engine.wal.latest_committed_epoch() == 0

    def test_chunks_reach_the_sink_as_batches(self, session, broker):
        """The engine hands each chunk's output to ``append_batch``; a
        sink that overrides it gets the columns, never rows."""
        from repro.sinks.base import Sink

        class ColumnSink(Sink):
            def __init__(self):
                self.key_names = []
                self.batches = []

            def append_rows(self, rows):
                raise AssertionError("rows built for a column sink")

            def append_batch(self, batch):
                self.batches.append(batch)

        broker.get_or_create("in", 1)
        sink = ColumnSink()
        query = (session.read_stream.kafka(broker, "in", (("v", "long"),))
                 .select((F.col("v") * 2).alias("v2"))
                 .write_stream.sink(sink).trigger(continuous="50ms").start())
        broker.topic("in").publish_to(0, [{"v": 1}, {"v": 2}])
        assert wait_until(lambda: sum(b.num_rows for b in sink.batches) == 2)
        query.stop()
        assert [v for b in sink.batches for v in b.column("v2").tolist()] \
            == [2, 4]

    def test_restart_resumes_from_committed_offsets(self, session, broker, checkpoint):
        topic = broker.get_or_create("in", 1)
        df = session.read_stream.kafka(broker, "in", (("v", "long"),))
        q0 = (df.write_stream.format("memory").query_name("c0")
              .trigger(continuous="20ms").start(checkpoint))
        topic.publish_to(0, [{"v": 1}])
        sink0 = q0.engine.sink
        assert wait_until(lambda: len(sink0.rows()) == 1)
        q0.stop()

        q1 = (df.write_stream.format("memory").query_name("c1")
              .trigger(continuous="20ms").start(checkpoint))
        topic.publish_to(0, [{"v": 2}])
        sink1 = q1.engine.sink
        assert wait_until(lambda: len(sink1.rows()) == 1)
        q1.stop()
        assert sink1.rows() == [{"v": 2}]  # v=1 not reprocessed

    def test_latency_is_sub_epoch(self, session, broker):
        """Records reach the sink far faster than the epoch interval —
        the point of continuous mode (§6.3)."""
        query = start_continuous(session, broker, interval="10h")
        topic = broker.topic("in")
        start = time.monotonic()
        topic.publish_to(0, [{"v": 7}])
        sink = query.engine.sink
        assert wait_until(lambda: len(sink.rows()) == 1, timeout=2.0)
        latency = time.monotonic() - start
        query.stop()
        assert latency < 1.0  # epoch interval is 10h; delivery is immediate


class TestWakeUps:
    """An idle worker blocks on its partition until a producer appends
    or the query stops, polling only around the append it expects
    next."""

    def test_idle_worker_does_not_poll(self, session, broker):
        query = start_continuous(session, broker, partitions=1)
        sink = query.engine.sink
        for v in range(5):  # a steady producer, then silence
            broker.topic("in").publish_to(0, [{"v": v}])
            time.sleep(0.01)
        assert wait_until(lambda: len(sink.rows()) == 5)
        source = query.engine.source
        calls = []
        latest = source.latest_offsets

        def spy():
            calls.append(None)
            return latest()

        source.latest_offsets = spy
        time.sleep(0.3)
        idle_calls = len(calls)
        broker.topic("in").publish_to(0, [{"v": 5}])
        assert wait_until(lambda: len(sink.rows()) == 6)
        query.stop()
        # A poll every 0.2 ms would call it ~1 500 times.  The worker
        # polls only through the 2 ms around the append it expected
        # next, then waits once per epoch interval (50 ms) at most.
        assert idle_calls <= 36

    def test_stop_of_an_idle_query_is_prompt(self, session, broker):
        query = start_continuous(session, broker, interval="10h")
        time.sleep(0.05)  # both workers are waiting
        started = time.perf_counter()
        query.stop()
        assert time.perf_counter() - started < 0.1
        assert not any(w._thread.is_alive() for w in query.engine._workers)

    def test_no_append_is_missed_under_contention(self, session, broker):
        """Four producers racing four workers, the interpreter switching
        threads every 10 µs: every row is delivered, once."""
        query = start_continuous(session, broker, partitions=4,
                                 interval="10h")
        topic = broker.topic("in")

        def produce(partition):
            for v in range(200):
                topic.publish_to(partition, [{"v": partition * 1000 + v}])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            producers = [threading.Thread(target=produce, args=(p,))
                         for p in range(4)]
            for producer in producers:
                producer.start()
            for producer in producers:
                producer.join(timeout=10)
                assert not producer.is_alive()
        finally:
            sys.setswitchinterval(switch)
        sink = query.engine.sink
        assert wait_until(lambda: len(sink.rows()) == 800)
        query.stop()
        assert sorted(r["v2"] for r in sink.rows()) == sorted(
            2 * (p * 1000 + v) for p in range(4) for v in range(200))

    def test_source_without_notifier_still_delivers(self, session):
        """The rate source has no producer to notify: its workers fall
        back to polling."""
        df = session.read_stream.rate(2000).select(
            (F.col("value") * 2).alias("v2"))
        query = (df.write_stream.format("memory").query_name("rate")
                 .trigger(continuous="10h").start())
        sink = query.engine.sink
        assert wait_until(lambda: len(sink.rows()) >= 10)
        query.stop()
        assert [r["v2"] for r in sink.rows()[:10]] == list(range(0, 20, 2))


class TestDeliveryGuarantee:
    """docs/API.md: the continuous sink sees every row at least once,
    and only the last uncommitted marker epoch can reach it twice."""

    @pytest.mark.parametrize("point", [
        "continuous.commit_epoch", "continuous.after_offsets"])
    def test_crash_between_sink_write_and_marker(self, session, broker,
                                                 checkpoint, point):
        topic = broker.get_or_create("in", 1)
        df = session.read_stream.kafka(broker, "in", (("v", "long"),))
        sink = MemorySink()

        def start():
            return (df.write_stream.sink(sink).trigger(continuous="20ms")
                    .start(checkpoint))

        def publish(lo, hi):
            topic.publish_to(0, [{"v": v} for v in range(lo, hi)])

        def committed_end(engine):
            epoch = engine.wal.latest_committed_epoch()
            if epoch is None:
                return 0
            entry = engine.wal.read_offsets(epoch)
            return entry["sources"][engine.source_name]["end"]["0"]

        query = start()
        publish(0, 10)
        assert wait_until(lambda: committed_end(query.engine) == 10)
        with injected(FaultInjector([Fault(point)])):
            publish(10, 20)
            # The master crashes at the first marker after the worker
            # wrote the chunk: rows 10..19 are in the sink, unmarked.
            assert wait_until(lambda: query.engine._worker_error is not None)
            with pytest.raises(CrashPoint):
                query.stop()
        assert sorted(r["v"] for r in sink.rows()) == list(range(20))

        restarted = start()
        publish(20, 30)
        assert wait_until(lambda: len(sink.rows()) >= 40)
        restarted.stop()
        counts = Counter(r["v"] for r in sink.rows())
        assert set(counts) == set(range(30))  # no row lost
        assert {v for v, n in counts.items() if n > 1} == set(range(10, 20))
        assert max(counts.values()) == 2


class TestWorkerErrorSurfacing:
    def test_failing_udf_reaches_the_caller(self, session, broker):
        broker.get_or_create("in", 1)

        def explode(v):
            raise ValueError("poison record")

        boom = F.udf(explode, "long")
        df = (session.read_stream.kafka(broker, "in", (("v", "long"),))
              .select(boom(F.col("v")).alias("x")))
        query = (df.write_stream.format("memory").query_name("err")
                 .trigger(continuous="20ms").start())
        broker.topic("in").publish_to(0, [{"v": 1}])
        assert wait_until(lambda: query.engine._worker_error is not None)
        with pytest.raises(ValueError, match="poison record"):
            query.stop()


class TestContinuousRestrictions:
    def test_aggregation_rejected(self, session, broker):
        broker.get_or_create("in", 1)
        df = (session.read_stream.kafka(broker, "in", (("v", "long"),))
              .group_by("v").count())
        with pytest.raises(Exception):
            (df.write_stream.format("memory").query_name("x")
             .trigger(continuous="50ms").output_mode("complete").start())

    def test_non_append_mode_rejected(self, session, broker):
        broker.get_or_create("in", 1)
        df = session.read_stream.kafka(broker, "in", (("v", "long"),))
        with pytest.raises(UnsupportedContinuousQueryError, match="append"):
            (df.write_stream.format("memory").query_name("x")
             .trigger(continuous="50ms").output_mode("update").start())

    def test_two_sources_rejected(self, session, broker):
        broker.get_or_create("in", 1)
        broker.get_or_create("in2", 1)
        a = session.read_stream.kafka(broker, "in", (("v", "long"),))
        b = session.read_stream.kafka(broker, "in2", (("v", "long"),))
        with pytest.raises(UnsupportedContinuousQueryError, match="one input"):
            (a.union(b).write_stream.format("memory").query_name("x")
             .trigger(continuous="50ms").start())

    def test_sink_without_continuous_support_rejected(self, session, broker, tmp_path):
        broker.get_or_create("in", 1)
        df = session.read_stream.kafka(broker, "in", (("v", "long"),))
        with pytest.raises(UnsupportedContinuousQueryError, match="append_rows"):
            (df.write_stream.format("file").option("path", str(tmp_path / "o"))
             .trigger(continuous="50ms").start())

    def test_stream_static_join_allowed(self, session, broker):
        """Map-like includes joins against static tables."""
        broker.get_or_create("in", 1)
        static = session.create_dataframe(
            [{"v": 1, "name": "one"}], (("v", "long"), ("name", "string")))
        df = session.read_stream.kafka(broker, "in", (("v", "long"),)).join(static, on="v")
        query = (df.write_stream.format("memory").query_name("j")
                 .trigger(continuous="50ms").start())
        broker.topic("in").publish_to(0, [{"v": 1}, {"v": 2}])
        sink = query.engine.sink
        assert wait_until(lambda: len(sink.rows()) == 1)
        query.stop()
        assert sink.rows() == [{"v": 1, "name": "one"}]
