"""Observability layer: metrics registry, span tracing, monitor surface.

Covers the histogram bucket math, span nesting and export formats, the
engine's span coverage for an epoch, the monitor CLI, the
listener lifecycle fixes, and the crash-restart counting guarantee
(metrics must not double-count deliveries across recovery).
"""

import json
import time

import pytest

from repro.observability import metrics, tracing
from repro.observability.metrics import Histogram, MetricsRegistry
from repro.sql import functions as F
from repro.testing.faults import Fault, FaultInjector, injected
from repro.testing.harness import run_golden, run_with_crashes
from repro.tools import monitor

from tests.conftest import make_stream, start_memory_query


@pytest.fixture(autouse=True)
def _clean_observability():
    """Tests toggle the process-global registry/tracer; isolate them."""
    previous = (metrics._registry, tracing._tracer)
    yield
    metrics._registry, tracing._tracer = previous


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


# ----------------------------------------------------------------------
# Histogram bucket math
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bucket_assignment(self):
        h = Histogram("t", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.record(v)
        # bisect_left on upper bounds: 0.5,1.0 -> bucket 0; 1.5 -> 1;
        # 3.0 -> 2; 100 -> overflow.
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.min == 0.5 and h.max == 100.0

    def test_single_value_reports_itself_at_every_quantile(self):
        h = Histogram("t")
        h.record(0.042)
        assert h.p50 == pytest.approx(0.042)
        assert h.p95 == pytest.approx(0.042)
        assert h.p99 == pytest.approx(0.042)

    def test_percentiles_order_and_bounds(self):
        h = Histogram("t", bounds=(0.01, 0.1, 1.0, 10.0))
        for i in range(1, 101):
            h.record(i / 100.0)  # 0.01 .. 1.00 uniform
        assert h.min <= h.p50 <= h.p95 <= h.p99 <= h.max
        assert h.p50 == pytest.approx(0.5, abs=0.15)
        assert h.p99 >= 0.9

    def test_record_many_matches_record(self):
        a = Histogram("a", bounds=(0.5, 1.5, 2.5))
        b = Histogram("b", bounds=(0.5, 1.5, 2.5))
        values = [0.1, 0.5, 0.6, 1.5, 2.0, 9.0]
        for v in values:
            a.record(v)
        b.record_many(values)
        assert a.counts == b.counts
        assert a.count == b.count
        assert a.sum == pytest.approx(b.sum)
        assert a.min == b.min and a.max == b.max

    def test_empty_histogram(self):
        h = Histogram("t")
        assert h.percentile(0.5) is None
        assert h.percentiles_json() == {}

    def test_percentiles_json_keys(self):
        h = Histogram("t")
        h.record_many([0.01, 0.02, 0.03])
        summary = h.percentiles_json()
        assert set(summary) == {"count", "mean", "min", "max",
                                "p50", "p95", "p99"}
        assert summary["count"] == 3


class TestRegistry:
    def test_get_or_create_and_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.counter("c").inc()
        reg.gauge("g").set(7)
        reg.histogram("h").record(0.5)
        snap = reg.snapshot()
        assert snap["c"] == 4
        assert snap["g"] == 7
        assert snap["h"]["count"] == 1

    def test_helpers_are_noops_when_disabled(self):
        metrics.disable()
        metrics.count("nope")
        metrics.set_gauge("nope", 1)
        metrics.observe("nope", 1.0)
        assert metrics.snapshot() == {}

    def test_enabled_context_manager_scopes_the_registry(self):
        metrics.disable()
        with metrics.enabled() as reg:
            metrics.count("inside", 2)
            assert reg.counter("inside").value == 2
        assert metrics.active() is None


# ----------------------------------------------------------------------
# Span tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_nesting_and_ordering(self):
        with tracing.enabled() as tracer:
            with tracing.trace_span("outer", epoch=1):
                with tracing.trace_span("inner-a"):
                    pass
                with tracing.trace_span("inner-b"):
                    pass
        spans = tracer.spans
        # Children record on exit before the parent.
        assert [s["name"] for s in spans] == ["inner-a", "inner-b", "outer"]
        outer = spans[-1]
        assert outer["parent"] is None
        assert all(s["parent"] == outer["id"] for s in spans[:-1])
        assert tracer.spans_for_epoch(1) == [outer]
        for span in spans:
            assert span["duration_us"] >= 0
            assert span["start_us"] >= 0

    def test_disabled_returns_shared_noop(self):
        tracing.disable()
        span = tracing.trace_span("x")
        assert span is tracing.trace_span("y")
        with span:
            pass

    def test_chrome_export_schema(self, tmp_path):
        path = str(tmp_path / "trace.json")
        with tracing.enabled():
            with tracing.trace_span("epoch", epoch=0):
                with tracing.trace_span("stage:Map"):
                    pass
            written = tracing.dump(path)
        assert written == 2
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)  # must be valid JSON for chrome://tracing
        assert isinstance(doc["traceEvents"], list) and len(doc["traceEvents"]) == 2
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert isinstance(event["name"], str)
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)

    def test_jsonl_export(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with tracing.enabled():
            with tracing.trace_span("a"):
                pass
            assert tracing.dump(path) == 1
        with open(path, encoding="utf-8") as f:
            lines = [json.loads(line) for line in f]
        assert lines[0]["name"] == "a"

    def test_ring_buffer_bounded(self):
        tracer = tracing.Tracer(capacity=10)
        with tracing.enabled(tracer):
            for i in range(25):
                with tracing.trace_span(f"s{i}"):
                    pass
        assert len(tracer.spans) == 10
        assert tracer.spans[-1]["name"] == "s24"


# ----------------------------------------------------------------------
# Engine span coverage
# ----------------------------------------------------------------------
class TestEngineTrace:
    def test_epoch_trace_covers_every_layer(self, session, tmp_path):
        with metrics.enabled() as reg, tracing.enabled() as tracer:
            stream = make_stream((("k", "string"), ("v", "long")))
            df = (session.read_stream.memory(stream)
                  .group_by("k").agg(F.sum("v").alias("total")))
            query = start_memory_query(
                df, "update", "traced", str(tmp_path / "cp"))
            stream.add_data([{"k": f"k{i}", "v": i} for i in range(16)])
            query.process_all_available()
            query.stop()

            names = {s["name"] for s in tracer.spans}
            assert "plan-compile" in names
            assert "epoch" in names
            assert any(n.startswith("stage:") for n in names)
            assert "state-commit" in names
            assert "sink-write" in names
            # One task per operator per epoch: no per-task spans.
            assert not any(n.startswith("task:") for n in names)

            # The trace loads as valid Chrome trace-event JSON.
            path = str(tmp_path / "trace.json")
            assert query.dump_trace(path) == len(tracer.spans)
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            assert {e["name"] for e in doc["traceEvents"]} == names

            # Stage spans nest under the epoch span.
            epoch0 = next(s for s in tracer.spans
                          if s["name"] == "epoch"
                          and s.get("args", {}).get("epoch") == 0)
            by_id = {s["id"]: s for s in tracer.spans}

            def ancestors(span):
                while span["parent"] is not None:
                    span = by_id[span["parent"]]
                    yield span

            stage = next(s for s in tracer.spans
                         if s["name"].startswith("stage:")
                         and s.get("args", {}).get("epoch") == 0)
            assert any(a is epoch0 for a in ancestors(stage))

            # Metrics side of the same epoch.
            snap = reg.snapshot()
            assert snap["engine.rows_in"] == 16
            assert snap["sink.batches_committed"] >= 1
            assert snap["state.puts"] == 16
            assert not any(".shard" in name for name in snap)
            assert snap["wal.commits_written"] >= 1

    def test_progress_carries_stage_and_operator_metrics(self, session, tmp_path):
        with metrics.enabled():
            stream = make_stream((("v", "long"),))
            df = session.read_stream.memory(stream).select(
                (F.col("v") + 1).alias("w"))
            query = start_memory_query(df, "append", "m", str(tmp_path / "cp"))
            stream.add_data([{"v": 1}, {"v": 2}])
            query.process_all_available()
            progress = query.last_progress
            query.stop()
        assert progress.stage_timings  # wal-offsets/read-inputs/process/...
        assert "process" in progress.stage_timings
        assert progress.operator_metrics
        total_out = sum(m["rows_out"] for m in progress.operator_metrics.values())
        assert total_out >= 2
        payload = progress.to_json()
        assert payload["stageTimings"] == progress.stage_timings
        assert payload["operatorMetrics"] == progress.operator_metrics

    def test_disabled_runs_produce_no_sections(self, session, tmp_path):
        metrics.disable()
        tracing.disable()
        stream = make_stream((("v", "long"),))
        df = session.read_stream.memory(stream)
        query = start_memory_query(df, "append", "off", str(tmp_path / "cp"))
        stream.add_data([{"v": 1}])
        query.process_all_available()
        progress = query.last_progress
        query.stop()
        assert progress.stage_timings == {}
        assert progress.operator_metrics == {}
        payload = progress.to_json()
        assert "stageTimings" not in payload
        assert "operatorMetrics" not in payload
        assert "latencyPercentiles" not in payload


# ----------------------------------------------------------------------
# Progress shape (satellite bugfix)
# ----------------------------------------------------------------------
class TestProgressShape:
    def test_empty_sections_default_and_are_omitted(self):
        from repro.streaming.progress import EpochProgress

        p = EpochProgress(0, 0.0, 0.1, 1, 1, 0, 0, 0)
        assert p.stage_timings == {}
        payload = p.to_json()
        assert "stageTimings" not in payload
        assert "watermarks" not in payload
        assert payload["numInputRows"] == 1

    def test_nonempty_sections_are_kept(self):
        from repro.streaming.progress import EpochProgress

        p = EpochProgress(0, 0.0, 0.1, 1, 1, 0, 0, 0,
                          sources={"s": {"start": 0, "end": 1}},
                          latency_percentiles={"p50": 0.001})
        payload = p.to_json()
        assert payload["sources"] == {"s": {"start": 0, "end": 1}}
        assert payload["latencyPercentiles"] == {"p50": 0.001}


# ----------------------------------------------------------------------
# Listener lifecycle (satellites a + b)
# ----------------------------------------------------------------------
class TestListeners:
    def test_progress_listener_errors_are_contained_and_counted(
            self, session, tmp_path):
        with metrics.enabled() as reg:
            stream = make_stream((("v", "long"),))
            df = session.read_stream.memory(stream)
            query = start_memory_query(df, "append", "l", str(tmp_path / "cp"))

            class Bad:
                def on_progress(self, progress):
                    raise RuntimeError("listener bug")

            query.add_listener(Bad())
            stream.add_data([{"v": 1}])
            query.process_all_available()  # must not raise
            stream.add_data([{"v": 2}])
            query.process_all_available()
            assert len(query.engine.sink.rows()) == 2
            assert query.engine.progress.listener_errors == 2
            assert reg.counter("query.listener_errors").value == 2
            query.stop()

    def test_terminated_listener_errors_are_counted(self, session):
        stream = make_stream((("v", "long"),))
        df = session.read_stream.memory(stream)
        query = start_memory_query(df, "append", "t")

        class Bad:
            def on_terminated(self, query, exc):
                raise RuntimeError("boom")

        query.add_listener(Bad())
        query.stop()
        assert query.listener_errors == 1

    def test_add_listener_dedupes(self, session, tmp_path):
        stream = make_stream((("v", "long"),))
        df = session.read_stream.memory(stream)
        query = start_memory_query(df, "append", "d", str(tmp_path / "cp"))
        calls = []

        class L:
            def on_progress(self, progress):
                calls.append(progress.epoch_id)

        listener = L()
        query.add_listener(listener)
        query.add_listener(listener)  # double registration: no-op
        stream.add_data([{"v": 1}])
        query.process_all_available()
        assert calls == [0]
        query.remove_listener(listener)
        stream.add_data([{"v": 2}])
        query.process_all_available()
        assert calls == [0]
        query.stop()

    def test_manager_lifecycle_events(self, session, tmp_path):
        events = []

        class Lifecycle:
            def on_query_started(self, query):
                events.append(("started", query.name))

            def on_query_progress(self, progress):
                events.append(("progress", progress.epoch_id))

            def on_query_terminated(self, query, exc):
                events.append(("terminated", query.name, exc))

        session.streams.add_listener(Lifecycle())
        stream = make_stream((("v", "long"),))
        df = session.read_stream.memory(stream)
        query = start_memory_query(df, "append", "lc", str(tmp_path / "cp"))
        assert ("started", "lc") in events
        stream.add_data([{"v": 1}])
        query.process_all_available()
        assert ("progress", 0) in events
        query.stop()
        assert ("terminated", "lc", None) in events

    def test_terminated_event_carries_exception(self, session):
        captured = []

        class Lifecycle:
            def on_query_terminated(self, query, exc):
                captured.append(exc)

        session.streams.add_listener(Lifecycle())
        stream = make_stream((("v", "long"),))

        def explode(v):
            raise ValueError("bad record")

        boom = F.udf(explode, "long")
        df = session.read_stream.memory(stream).select(boom(F.col("v")).alias("x"))
        query = (df.write_stream.format("memory").query_name("crash")
                 .trigger(interval="10ms").start())
        stream.add_data([{"v": 1}])
        assert wait_until(lambda: not query.is_active)
        assert wait_until(lambda: len(captured) == 1)
        assert isinstance(captured[0], ValueError)

    def test_manager_listener_errors_counted(self, session, tmp_path):
        class Bad:
            def on_query_started(self, query):
                raise RuntimeError("nope")

        session.streams.add_listener(Bad())
        stream = make_stream((("v", "long"),))
        df = session.read_stream.memory(stream)
        query = start_memory_query(df, "append", "e", str(tmp_path / "cp"))
        assert session.streams.listener_errors == 1
        query.stop()

    def test_manager_metrics_snapshot(self, session, tmp_path):
        with metrics.enabled():
            stream = make_stream((("v", "long"),))
            df = session.read_stream.memory(stream)
            query = start_memory_query(df, "append", "snap", str(tmp_path / "cp"))
            stream.add_data([{"v": 1}])
            query.process_all_available()
            snapshot = session.streams.metrics_snapshot()
            query.stop()
        names = [q["name"] for q in snapshot["queries"]]
        assert "snap" in names
        assert snapshot["metrics"]["engine.rows_in"] == 1


# ----------------------------------------------------------------------
# Monitor CLI
# ----------------------------------------------------------------------
class TestMonitorCLI:
    def test_render_from_recorded_events(self, session, tmp_path, capsys):
        checkpoint = str(tmp_path / "cp")
        with metrics.enabled():
            stream = make_stream((("k", "string"), ("v", "long")))
            df = (session.read_stream.memory(stream)
                  .group_by("k").agg(F.sum("v").alias("total")))
            query = start_memory_query(df, "update", "mon", checkpoint)
            for i in range(3):
                stream.add_data([{"k": f"k{j}", "v": i} for j in range(4)])
                query.process_all_available()
            query.stop()

        text = monitor.main([checkpoint])
        out = capsys.readouterr().out
        assert text in out
        assert "input rate" in text
        assert "backlog" in text
        assert "state keys" in text
        assert "stage time breakdown" in text
        assert "operators" in text

    def test_render_accepts_events_file_and_empty_log(self, tmp_path):
        assert "no epochs" in monitor.render([])
        events_path = tmp_path / "events.jsonl"
        events_path.write_text(
            json.dumps({"epoch": 0, "numInputRows": 5, "numOutputRows": 5,
                        "durationSeconds": 0.1, "backlogRows": 0,
                        "stateKeys": 2, "lateRowsDropped": 0,
                        "triggerTime": 100.0,
                        "inputRowsPerSecond": 50.0}) + "\n"
            + "{torn line",
        )
        text = monitor.render(monitor.load_events(str(events_path)))
        assert "epoch 0" in text

    def test_render_shows_latency_percentiles(self):
        events = [{
            "epoch": 3, "numInputRows": 10, "numOutputRows": 10,
            "durationSeconds": 0.5, "backlogRows": 0, "stateKeys": 0,
            "lateRowsDropped": 0, "triggerTime": 1.0,
            "latencyPercentiles": {"count": 10, "mean": 0.002,
                                   "min": 0.001, "max": 0.02,
                                   "p50": 0.002, "p95": 0.01, "p99": 0.02},
        }]
        text = monitor.render(events)
        assert "record latency" in text
        assert "p99" in text


# ----------------------------------------------------------------------
# Continuous-mode latency histogram
# ----------------------------------------------------------------------
class TestContinuousLatency:
    def test_latency_percentiles_reach_progress_and_monitor(self, session):
        from repro.bus import Broker

        with metrics.enabled():
            broker = Broker()
            broker.get_or_create("in", 1)
            df = session.read_stream.kafka(
                broker, "in", (("v", "long"), ("publish_time", "double")))
            query = (df.write_stream.format("memory").query_name("lat")
                     .trigger(continuous="20ms").start())
            now = time.monotonic()
            broker.topic("in").publish_to(
                0, [{"v": i, "publish_time": now} for i in range(8)])
            sink = query.engine.sink
            assert wait_until(lambda: len(sink.rows()) == 8)
            assert wait_until(
                lambda: query.last_progress is not None
                and query.last_progress.latency_percentiles)
            progress = query.last_progress
            query.stop()

        latency = progress.latency_percentiles
        assert latency["count"] >= 8
        assert 0.0 <= latency["p50"] <= latency["p95"] <= latency["p99"]
        assert latency["p99"] < 30.0  # sane wall-clock lag, not garbage
        text = monitor.render([progress.to_json()])
        assert "record latency" in text

    def test_explicit_latency_column_is_validated(self, session):
        from repro.bus import Broker

        broker = Broker()
        broker.get_or_create("in", 1)
        df = session.read_stream.kafka(broker, "in", (("v", "long"),))
        with pytest.raises(ValueError, match="latency_column"):
            (df.write_stream.format("memory").query_name("bad")
             .option("latency_column", "missing")
             .trigger(continuous="20ms").start())


# ----------------------------------------------------------------------
# Crash-restart: counters must not double-count (fault-sweep cell)
# ----------------------------------------------------------------------
class TestCrashRestartCounting:
    def _workload(self, session, checkpoint):
        from repro.sinks.memory import MemorySink

        stream = make_stream((("k", "string"), ("v", "long")))
        # One sink shared across rebuilds: the sink models the external
        # system, which survives the crashing application (harness
        # contract) — and is what makes re-delivery idempotent.
        sink = MemorySink()
        chunks = [
            [{"k": f"k{j}", "v": i * 10 + j} for j in range(3)]
            for i in range(4)
        ]

        def build():
            df = (session.read_stream.memory(stream)
                  .group_by("k").agg(F.sum("v").alias("total")))
            return (df.write_stream.sink(sink).output_mode("update")
                    .query_name("crashy").start(checkpoint))

        steps = [lambda chunk=c: stream.add_data(chunk) for c in chunks]
        return build, steps

    def test_sink_delivery_counters_survive_crash_restart(
            self, session, tmp_path):
        # Golden: fault-free run of the same workload, counting sink
        # deliveries.
        with metrics.enabled() as golden_reg:
            build, steps = self._workload(session, str(tmp_path / "golden"))
            query = build()
            query.process_all_available()
            for step in steps:
                step()
                query.process_all_available()
            query.stop()
        golden_delivered = golden_reg.counter("sink.rows_delivered").value
        golden_batches = golden_reg.counter("sink.batches_committed").value
        assert golden_delivered > 0

        # Faulted: crash after the sink write but before the WAL commit
        # — recovery re-delivers the epoch, the idempotent sink drops it,
        # and the counters must agree with the golden run.
        session2 = type(session)()
        with metrics.enabled() as reg, tracing.enabled() as tracer:
            build, steps = self._workload(session2, str(tmp_path / "crash"))
            injector = FaultInjector([Fault("wal.commit", occurrence=1)])
            with injected(injector):
                report = run_with_crashes(build, steps, injector=injector)
            assert report.num_crashes >= 1
            assert reg.counter("sink.rows_delivered").value == golden_delivered
            assert reg.counter("sink.batches_committed").value == golden_batches
            # Trace buffer survives the restart and keeps both runs' epochs.
            epochs = [s["args"]["epoch"] for s in tracer.spans
                      if s["name"] == "epoch"]
            assert len(epochs) > len(set(epochs)) or len(epochs) >= 4
