"""Tests for the IoT workload (watermark stress), query listeners,
extended explain, and the epoch reporter."""

import pytest

from repro.sql import functions as F
from repro.streaming.progress import EpochProgress, EpochReporter
from repro.workloads.iot import IOT_SCHEMA, IotWorkload

from tests.conftest import make_stream, start_memory_query


class TestIotWorkload:
    def test_arrival_order_diverges_from_event_order(self):
        workload = IotWorkload(seed=1)
        rows = workload.readings(500, max_delay=20.0)
        event_times = [r["event_time"] for r in rows]
        assert event_times != sorted(event_times)  # out of order arrivals

    def test_no_delay_means_in_order(self):
        rows = IotWorkload(seed=2).readings(100, max_delay=0.0)
        times = [r["event_time"] for r in rows]
        assert times == sorted(times)

    def test_jitter_within_watermark_loses_nothing(self, session):
        """Lateness below the threshold: every record counted (§4.3.1's
        'all events that arrived within at most T seconds ... will still
        be processed')."""
        workload = IotWorkload(seed=3)
        rows = workload.readings(2_000, duration=200.0, max_delay=8.0)
        reference = workload.reference_window_counts(rows, 10.0)

        stream = make_stream(IOT_SCHEMA)
        df = (session.read_stream.memory(stream)
              .with_watermark("event_time", "10 seconds")
              .group_by(F.window("event_time", "10s")).count())
        query = start_memory_query(df, "update", "iot")
        for start in range(0, len(rows), 250):  # arrival-ordered epochs
            stream.add_data(rows[start:start + 250])
            query.process_all_available()
        got = {r["window_start"]: r["count"] for r in query.engine.sink.rows()}
        assert got == reference
        assert sum(p.late_rows_dropped for p in query.recent_progress) == 0

    def test_stragglers_beyond_watermark_drop(self, session):
        workload = IotWorkload(seed=4)
        rows = workload.readings(2_000, duration=200.0, max_delay=2.0,
                                 late_fraction=0.05, late_by=100.0)
        stream = make_stream(IOT_SCHEMA)
        df = (session.read_stream.memory(stream)
              .with_watermark("event_time", "5 seconds")
              .group_by(F.window("event_time", "10s")).count())
        query = start_memory_query(df, "update", "iot2")
        for start in range(0, len(rows), 100):
            stream.add_data(rows[start:start + 100])
            query.process_all_available()
        dropped = sum(p.late_rows_dropped for p in query.recent_progress)
        assert dropped > 0  # the 100s-late stragglers fell below the mark
        counted = sum(r["count"] for r in query.engine.sink.rows())
        assert counted + dropped == len(rows)  # every record accounted for

    def test_device_stats_reference(self):
        workload = IotWorkload(num_devices=3, seed=5)
        rows = workload.readings(300)
        stats = workload.reference_device_stats(rows)
        assert sum(n for n, _mean in stats.values()) == 300


class TestQueryListeners:
    def test_on_progress_fires(self, session):
        stream = make_stream((("v", "long"),))
        query = start_memory_query(session.read_stream.memory(stream),
                                   "append", "l1")
        events = []

        class Listener:
            def on_progress(self, progress):
                events.append(progress.epoch_id)

        query.add_listener(Listener())
        stream.add_data([{"v": 1}])
        query.process_all_available()
        assert events == [0]

    def test_on_terminated_fires_on_stop(self, session):
        stream = make_stream((("v", "long"),))
        query = start_memory_query(session.read_stream.memory(stream),
                                   "append", "l2")
        ended = []

        class Listener:
            def on_terminated(self, q, exc):
                ended.append((q.name, exc))

        query.add_listener(Listener())
        query.stop()
        assert ended == [("l2", None)]

    def test_on_terminated_carries_exception(self, session):
        import time

        stream = make_stream((("v", "long"),))
        boom = F.udf(lambda v: (_ for _ in ()).throw(ValueError("bad")), "long")
        df = session.read_stream.memory(stream).select(boom(F.col("v")).alias("x"))
        query = (df.write_stream.format("memory").query_name("l3")
                 .trigger(interval="10ms").start())
        seen = []

        class Listener:
            def on_terminated(self, q, exc):
                seen.append(type(exc).__name__)

        query.add_listener(Listener())
        stream.add_data([{"v": 1}])
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and not seen:
            time.sleep(0.01)
        assert seen == ["ValueError"]

    def test_listener_error_does_not_break_stop(self, session):
        stream = make_stream((("v", "long"),))
        query = start_memory_query(session.read_stream.memory(stream),
                                   "append", "l4")

        class BadListener:
            def on_terminated(self, q, exc):
                raise RuntimeError("listener bug")

        query.add_listener(BadListener())
        query.stop()  # must not raise
        assert not query.is_active


class TestExtendedExplain:
    def test_shows_both_plans(self, session, capsys):
        df = session.create_dataframe([{"a": 1, "b": 2.0}])
        query = df.select("a", "b").where(F.col("a") > 0)
        text = query.explain(extended=True)
        assert "== Analyzed logical plan ==" in text
        assert "== Optimized logical plan ==" in text
        # Pushdown visible: filter below projection in the optimized plan.
        optimized_part = text.split("== Optimized logical plan ==")[1]
        assert optimized_part.index("Project") < optimized_part.index("Filter")


class TestProgressReporter:
    """The epoch reporter's progress history (``recent_progress``)."""

    def _progress(self, epoch):
        return EpochProgress(
            epoch_id=epoch, trigger_time=0.0, duration_seconds=1.0,
            input_rows=10, output_rows=5, backlog_rows=0, state_keys=0,
            late_rows_dropped=0)

    def test_bounded_history(self, tmp_path):
        reporter = EpochReporter(str(tmp_path), capacity=3)
        for epoch in range(5):
            reporter.report(self._progress(epoch))
        assert [p.epoch_id for p in reporter.recent] == [2, 3, 4]
        assert reporter.last.epoch_id == 4

    def test_rate_computation(self):
        assert self._progress(0).input_rows_per_second == 10.0
        zero = EpochProgress(0, 0.0, 0.0, 10, 5, 0, 0, 0)
        assert zero.input_rows_per_second == 0.0

    def test_empty_reporter(self, tmp_path):
        reporter = EpochReporter(str(tmp_path))
        assert reporter.last is None
        assert reporter.recent == []
