"""Flight recorder, crash postmortems, and health diagnostics (§7.4).

Covers the diagnostics layer end to end: the always-on flight recorder
and its rotated ``postmortem.json`` dumps, bottleneck attribution
(model unit tests plus a synthetic-delay query where the slow phase
must be named), end-to-end event-time lag propagated through a
stream-table cascade, and the OpenMetrics exposition + HTTP scrape
endpoint.
"""

from __future__ import annotations

import json
import os
import re
import time
import urllib.request
from dataclasses import asdict

import pytest

from repro.observability import bottleneck, metrics, tracing
from repro.observability.flightrec import (
    MAX_ROTATED,
    SCHEMA_VERSION,
    load_postmortem,
    postmortem_path,
)
from repro.observability.serve import CONTENT_TYPE, MetricsServer
from repro.sinks.memory import MemorySink
from repro.sql import functions as F
from repro.sql.session import Session
from repro.streaming import microbatch
from repro.streaming.progress import EpochProgress, EpochReporter
from repro.testing.faults import CrashPoint, Fault, FaultInjector, injected

from tests.conftest import make_stream, start_memory_query


@pytest.fixture(autouse=True)
def _clean_observability():
    """Tests toggle the process-global registry/tracer; isolate them."""
    previous = (metrics._registry, tracing._tracer)
    yield
    metrics._registry, tracing._tracer = previous


def _progress(epoch, **overrides):
    base = dict(
        epoch_id=epoch, trigger_time=100.0 + epoch, duration_seconds=0.5,
        input_rows=10, output_rows=5, backlog_rows=0, state_keys=3,
        late_rows_dropped=0,
    )
    base.update(overrides)
    return EpochProgress(**base)


# ----------------------------------------------------------------------
# Flight recorder unit behaviour
# ----------------------------------------------------------------------
class TestFlightRecorder:
    """The recorder reads its epochs from the epoch reporter's ring."""

    def test_ring_keeps_newest_epochs(self, tmp_path):
        reporter = EpochReporter(str(tmp_path), capacity=4)
        for epoch in range(10):
            reporter.report(_progress(epoch))
        path = reporter.flightrec.dump("manual", force=True)
        doc = load_postmortem(path)
        assert [e["epoch"] for e in doc["epochs"]] == [6, 7, 8, 9]
        assert doc["version"] == SCHEMA_VERSION
        assert doc["engine"] == "microbatch"
        assert doc["reason"] == "manual"
        assert doc["crash"] is None

    def test_dump_records_crash_and_dedupes_on_error_identity(self, tmp_path):
        reporter = EpochReporter(str(tmp_path))
        reporter.report(_progress(0))
        rec = reporter.flightrec
        boom = RuntimeError("worker died")
        first = rec.dump("epoch-crash", error=boom, epoch=1)
        doc = load_postmortem(str(tmp_path))
        assert doc["crash"] == {"epoch": 1, "error": "worker died",
                                "type": "RuntimeError"}
        # Same exception surfacing at another boundary: no second dump.
        mtime = os.path.getmtime(first)
        assert rec.dump("async-crash", error=boom, epoch=1) == first
        assert os.path.getmtime(first) == mtime

    def test_rotation_preserves_prior_dumps(self, tmp_path):
        reporter = EpochReporter(str(tmp_path))
        for n in range(MAX_ROTATED + 2):
            reporter.report(_progress(n))
            reporter.flightrec.dump("manual", force=True)
        # Newest at the canonical path, predecessors shifted down.
        assert load_postmortem(str(tmp_path))["epochs"][-1]["epoch"] == 4
        for k in range(1, MAX_ROTATED + 1):
            doc = load_postmortem(str(tmp_path / f"postmortem-{k}.json"))
            assert doc["epochs"][-1]["epoch"] == 4 - k

    def test_adopt_prior_dumps_noted_by_successor(self, tmp_path):
        EpochReporter(str(tmp_path)).flightrec.dump(
            "epoch-crash", error=ValueError("x"), epoch=7, force=True)
        successor = EpochReporter(str(tmp_path)).flightrec
        assert successor.prior_postmortems == [postmortem_path(str(tmp_path))]
        doc = json.loads(json.dumps(successor.to_json("manual")))
        prior = [e for e in doc["events"] if e["kind"] == "prior-postmortem"]
        assert prior and prior[0]["crash"]["epoch"] == 7
        assert doc["prior_postmortems"] == ["postmortem.json"]

    def test_metrics_delta_between_epochs(self, tmp_path):
        # The reporter applies each epoch's engine.* metrics, then takes
        # the delta, so an epoch's delta carries its own counts.
        with metrics.enabled():
            reporter = EpochReporter(str(tmp_path))
            reporter.report(_progress(0, input_rows=10))
            reporter.report(_progress(1, input_rows=7, backlog_rows=3))
            doc = reporter.flightrec.to_json("manual")
        deltas = [e.get("metricsDelta", {}) for e in doc["epochs"]]
        assert deltas[0]["engine.rows_in"] == 10
        assert deltas[1]["engine.rows_in"] == 7
        assert deltas[1]["engine.backlog_rows"] == 3
        assert deltas[1]["engine.epochs"] == 1

    def test_dump_never_raises(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("file in the way")
        rec = EpochReporter(str(target)).flightrec
        assert rec.dump("manual", force=True) is None


# ----------------------------------------------------------------------
# Crash postmortems from real engine failures
# ----------------------------------------------------------------------
class TestCrashPostmortem:
    def _start(self, tmp_path, tag="pm"):
        session = Session()
        stream = make_stream((("k", "string"), ("v", "long")))
        df = (session.read_stream.memory(stream)
              .group_by("k").agg(F.sum("v").alias("total")))
        cp = str(tmp_path / f"cp-{tag}")
        query = start_memory_query(df, "update", f"q-{tag}", cp)
        return query, stream, cp

    def test_epoch_crash_dumps_consistent_postmortem(self, tmp_path):
        query, stream, cp = self._start(tmp_path)
        for i in range(2):
            stream.add_data([{"k": "a", "v": i}])
            query.process_all_available()
        injector = FaultInjector([Fault("epoch.after_sink", occurrence=0)])
        stream.add_data([{"k": "a", "v": 9}])
        with injected(injector):
            with pytest.raises(CrashPoint):
                query.process_all_available()
        doc = load_postmortem(cp)
        assert doc["reason"] == "epoch-crash"
        assert doc["crash"]["type"] == "CrashPoint"
        assert doc["crash"]["epoch"] == 2
        # The ring holds the completed epochs leading up to the crash.
        assert [e["epoch"] for e in doc["epochs"]] == [0, 1]
        # ...and the postmortem names the configuration that ran.
        starts = [e for e in doc["events"] if e["kind"] == "engine-start"]
        assert [e["config"] for e in starts] == [asdict(query.engine.config)]
        query.stop()

    def test_restart_adopts_and_rotates_prior_dump(self, tmp_path):
        query, stream, cp = self._start(tmp_path)
        injector = FaultInjector([Fault("epoch.after_sink", occurrence=0)])
        stream.add_data([{"k": "a", "v": 1}])
        with injected(injector):
            with pytest.raises(CrashPoint):
                query.process_all_available()
        query.stop()

        session = Session()
        df = (session.read_stream.memory(stream)
              .group_by("k").agg(F.sum("v").alias("total")))
        restarted = start_memory_query(df, "update", "pm-2", cp)
        assert restarted.engine.progress.flightrec.prior_postmortems
        restarted.process_all_available()
        path = restarted.dump_postmortem()
        doc = load_postmortem(path)
        assert doc["reason"] == "manual"
        assert doc["prior_postmortems"] == ["postmortem.json"]
        # The crash dump was rotated aside, not overwritten.
        rotated = load_postmortem(str(tmp_path / "cp-pm" / "postmortem-1.json"))
        assert rotated["reason"] == "epoch-crash"
        restarted.stop()

    def test_manual_dump_via_query_handle(self, tmp_path):
        query, stream, cp = self._start(tmp_path, tag="manual")
        stream.add_data([{"k": "b", "v": 2}])
        query.process_all_available()
        path = query.dump_postmortem()
        assert path == postmortem_path(cp)
        doc = load_postmortem(cp)
        assert doc["reason"] == "manual"
        assert [e["epoch"] for e in doc["epochs"]] == [0]
        # Repeated manual dumps always write (force), rotating priors.
        assert query.dump_postmortem() == path
        assert os.path.exists(str(tmp_path / "cp-manual" / "postmortem-1.json"))
        query.stop()

    def test_continuous_worker_crash_dumps(self, tmp_path):
        session = Session()
        stream = make_stream((("v", "long"),))
        df = (session.read_stream.memory(stream)
              .select((F.col("v") + 1).alias("x")))
        cp = str(tmp_path / "cp-cont")
        query = (df.write_stream.format("memory").query_name("pm-cont")
                 .output_mode("append").trigger(continuous=0.01).start(cp))
        injector = FaultInjector([Fault("continuous.commit_epoch",
                                        occurrence=0)])
        with injected(injector):
            stream.add_data([{"v": 1}])
            with pytest.raises(CrashPoint):
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    query.process_all_available()
                    time.sleep(0.01)
        with pytest.raises(CrashPoint):
            query.stop()
        doc = load_postmortem(cp)
        assert doc["engine"] == "continuous"
        assert doc["reason"] == "worker-crash"
        assert doc["crash"]["type"] == "CrashPoint"
        # ...and names the configuration that ran.
        starts = [e for e in doc["events"] if e["kind"] == "engine-start"]
        assert [e["config"] for e in starts] == [{
            "output_mode": "append", "epoch_interval": 0.01,
            "latency_column": None}]


# ----------------------------------------------------------------------
# Bottleneck attribution
# ----------------------------------------------------------------------
class TestBottleneckModel:
    def test_process_phase_split_across_operators(self):
        costs = bottleneck.fold_costs(
            {"read-inputs": 0.1, "process": 1.0, "sink-write": 0.2},
            {"FilterOp": {"seconds": 0.6, "rows_out": 5, "calls": 1},
             "ProjectOp": {"seconds": 0.1, "rows_out": 5, "calls": 1}},
        )
        assert costs["source-read"] == pytest.approx(0.1)
        assert costs["stage:FilterOp"] == pytest.approx(0.6)
        assert costs["stage:plan"] == pytest.approx(0.3)
        assert costs["sink"] == pytest.approx(0.2)

    def test_attribute_names_dominant_category_with_share(self):
        result = bottleneck.attribute(
            {"wal-offsets": 0.2, "wal-commit": 0.3, "sink-write": 0.1})
        assert result["name"] == "wal-sync"
        assert result["share"] == pytest.approx(0.5 / 0.6)
        assert [b["name"] for b in result["breakdown"]] == ["wal-sync", "sink"]

    def test_unknown_phase_passes_through(self):
        result = bottleneck.attribute({"mystery-phase": 1.0})
        assert result["name"] == "mystery-phase"

    def test_empty_and_event_forms(self):
        assert bottleneck.attribute({}) == {}
        assert bottleneck.summary(None) == {}
        merged = bottleneck.attribute_events([
            {"stageTimings": {"sink-write": 0.4}},
            {"stageTimings": {"sink-write": 0.4, "state-commit": 0.1}},
            {},  # observability-off epoch contributes nothing
        ])
        assert merged["name"] == "sink"
        assert merged["epochs"] == 2

    def test_flusher_backpressure_category(self):
        result = bottleneck.attribute({"flusher-wait": 0.9, "process": 0.1})
        assert result["name"] == "flusher-backpressure"


class TestBottleneckSyntheticDelay:
    def test_slow_sink_is_named(self, tmp_path, monkeypatch):
        # The phase clock stands still except in the sink, which takes
        # ten seconds by it: the sink's share of the phase timings does
        # not depend on how fast the host runs the rest of the epoch.
        now = [0.0]
        monkeypatch.setattr(microbatch, "phase_clock", lambda: now[0])

        class SlowSink(MemorySink):
            def add_batch(self, epoch_id, batch, mode):
                now[0] += 10.0
                super().add_batch(epoch_id, batch, mode)

        session = Session()
        stream = make_stream((("k", "string"), ("v", "long")))
        df = (session.read_stream.memory(stream)
              .group_by("k").agg(F.sum("v").alias("total")))
        sink = SlowSink()
        with metrics.enabled():
            query = (df.write_stream.sink(sink).output_mode("update")
                     .start(str(tmp_path / "cp")))
            for i in range(3):
                stream.add_data([{"k": "a", "v": i}])
                query.process_all_available()
            # Per-epoch summary and windowed attribution both name the
            # injected slow phase.
            assert query.last_progress.bottleneck["name"] == "sink"
            assert query.last_progress.bottleneck["share"] > 0.5
            where = query.bottleneck()
            assert where["name"] == "sink"
            assert where["epochs"] == 3
            assert where["breakdown"][0]["name"] == "sink"
            query.stop()

    def test_bottleneck_empty_when_observability_off(self, tmp_path):
        session = Session()
        stream = make_stream((("k", "string"), ("v", "long")))
        df = (session.read_stream.memory(stream)
              .group_by("k").agg(F.sum("v").alias("total")))
        query = start_memory_query(df, "update", "no-obs",
                                   str(tmp_path / "cp"))
        stream.add_data([{"k": "a", "v": 1}])
        query.process_all_available()
        if not (metrics._registry or tracing._tracer):
            assert query.last_progress.bottleneck == {}
            assert query.bottleneck() == {}
        query.stop()


# ----------------------------------------------------------------------
# End-to-end event-time lag through a cascade
# ----------------------------------------------------------------------
class TestEventTimeLag:
    def test_single_stage_lag_from_pinned_ingest(self, tmp_path):
        session = Session()
        stream = make_stream((("k", "string"), ("v", "long")))
        df = session.read_stream.memory(stream).select("k", "v")
        with metrics.enabled() as registry:
            query = start_memory_query(df, "append", "lag-1",
                                       str(tmp_path / "cp"))
            stream.add_data([{"k": "a", "v": 1}],
                            ingest_time=time.time() - 123.0)
            query.process_all_available()
            progress = query.last_progress
            assert progress.event_time_lag_seconds >= 123.0
            assert progress.event_time_lag_seconds < 123.0 + 60
            assert progress.to_json()["eventTimeLagSeconds"] == \
                progress.event_time_lag_seconds
            gauge = registry.metric("engine.event_time_lag")
            assert gauge is not None and gauge.value >= 123.0
            hist = registry.metric("engine.event_time_lag_seconds")
            assert hist is not None and hist.count == 1
            query.stop()

    def test_cascade_reports_lag_since_bronze_ingest(self, tmp_path):
        session = Session()
        bronze = make_stream((("k", "string"), ("v", "long")))
        silver_df = (session.read_stream.memory(bronze)
                     .filter(F.col("v") >= 0).select("k", "v"))
        with metrics.enabled():
            upstream = (silver_df.write_stream.to_table("diag_silver")
                        .output_mode("append")
                        .start(str(tmp_path / "cp1")))
            gold_df = (session.read_stream_table("diag_silver")
                       .select("k", (F.col("v") * 2).alias("v2")))
            downstream = start_memory_query(gold_df, "append", "lag-gold",
                                            str(tmp_path / "cp2"))
            bronze.add_data([{"k": "a", "v": 5}],
                            ingest_time=time.time() - 500.0)
            upstream.process_all_available()
            downstream.process_all_available()
            # The gold stage reports lag since *bronze* ingest — not
            # since the silver stage delivered into the stream table.
            lag = downstream.last_progress.event_time_lag_seconds
            assert lag is not None and lag >= 500.0
            assert upstream.last_progress.event_time_lag_seconds >= 500.0

            # A fresh chunk without a pinned ingest time uses "now":
            # small lag, not the old floor.
            bronze.add_data([{"k": "b", "v": 1}])
            upstream.process_all_available()
            downstream.process_all_available()
            assert downstream.last_progress.event_time_lag_seconds < 60.0
            upstream.stop()
            downstream.stop()

    def test_no_lag_reported_when_observability_off(self, tmp_path):
        session = Session()
        stream = make_stream((("k", "string"), ("v", "long")))
        df = session.read_stream.memory(stream).select("k", "v")
        query = start_memory_query(df, "append", "lag-off",
                                   str(tmp_path / "cp"))
        stream.add_data([{"k": "a", "v": 1}], ingest_time=time.time() - 9)
        query.process_all_available()
        if not (metrics._registry or tracing._tracer):
            assert query.last_progress.event_time_lag_seconds is None
            assert "eventTimeLagSeconds" not in query.last_progress.to_json()
        query.stop()


# ----------------------------------------------------------------------
# OpenMetrics exposition + scrape endpoint
# ----------------------------------------------------------------------
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"                  # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'          # first label
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'     # more labels
    r" -?[0-9][0-9eE.+-]*$"                       # value
)


class TestOpenMetrics:
    def test_disabled_registry_is_still_valid_exposition(self):
        metrics.disable()
        assert metrics.to_openmetrics() == "# EOF\n"

    def test_label_mapping_and_suffixes(self):
        registry = metrics.MetricsRegistry()
        registry.counter("engine.epochs").inc(3)
        registry.counter("state.puts").inc(7)
        registry.counter("op.FilterOp.rows_out").inc(11)
        registry.gauge("engine.watermark_lag.ts").set(2.5)
        registry.gauge("engine.backlog_rows")  # unset gauge: skipped
        text = registry.to_openmetrics()
        assert "# TYPE repro_engine_epochs counter" in text
        assert "repro_engine_epochs_total 3" in text
        assert "repro_state_puts_total 7" in text
        assert 'repro_op_rows_out_total{operator="FilterOp"} 11' in text
        assert 'repro_engine_watermark_lag{column="ts"} 2.5' in text
        assert "backlog_rows" not in text
        assert text.endswith("# EOF\n")

    def test_exposition_format_validates(self, tmp_path):
        session = Session()
        stream = make_stream((("k", "string"), ("v", "long")))
        df = (session.read_stream.memory(stream)
              .group_by("k").agg(F.sum("v").alias("total")))
        with metrics.enabled():
            query = start_memory_query(df, "update", "om",
                                       str(tmp_path / "cp"))
            for i in range(3):
                stream.add_data([{"k": f"k{i}", "v": i}])
                query.process_all_available()
            text = metrics.to_openmetrics()
            query.stop()

        lines = text.splitlines()
        assert lines[-1] == "# EOF"
        declared = set()
        histograms = set()
        for line in lines[:-1]:
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                assert name not in declared, f"duplicate family {name}"
                declared.add(name)
                assert kind in ("counter", "gauge", "histogram")
                if kind == "histogram":
                    histograms.add(name)
                continue
            assert _SAMPLE_LINE.match(line), f"malformed sample: {line!r}"
            name = line.split("{")[0].split(" ")[0]
            family_forms = {name, name.rsplit("_total", 1)[0],
                            name.rsplit("_bucket", 1)[0],
                            name.rsplit("_sum", 1)[0],
                            name.rsplit("_count", 1)[0]}
            assert family_forms & declared, f"sample before TYPE: {line!r}"
        assert "repro_engine_epochs_total 3" in text
        # Histogram buckets are cumulative and end with +Inf == count.
        for family in histograms:
            buckets = [l for l in lines if l.startswith(family + "_bucket")]
            counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
            assert counts == sorted(counts)
            assert buckets[-1].startswith(family + '_bucket{le="+Inf"}')
            count_line = next(l for l in lines
                              if l.startswith(family + "_count"))
            assert counts[-1] == int(count_line.rsplit(" ", 1)[1])

    def test_metrics_server_scrape(self):
        with metrics.enabled():
            metrics.count("engine.epochs", 5)
            with MetricsServer() as server:
                with urllib.request.urlopen(server.url, timeout=5) as resp:
                    assert resp.status == 200
                    assert resp.headers["Content-Type"] == CONTENT_TYPE
                    body = resp.read().decode("utf-8")
        assert "repro_engine_epochs_total 5" in body
        assert body.endswith("# EOF\n")

    def test_query_serve_metrics_lifecycle(self, tmp_path):
        session = Session()
        stream = make_stream((("k", "string"), ("v", "long")))
        df = session.read_stream.memory(stream).select("k", "v")
        with metrics.enabled():
            query = start_memory_query(df, "append", "serve",
                                       str(tmp_path / "cp"))
            server = query.serve_metrics()
            url = server.url
            stream.add_data([{"k": "a", "v": 1}])
            query.process_all_available()
            with urllib.request.urlopen(url, timeout=5) as resp:
                body = resp.read().decode("utf-8")
            assert "repro_engine_epochs_total 1" in body
            query.stop()  # closes the server too
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url, timeout=1)

    def test_monitor_cli_serve_exits_cleanly(self, tmp_path, capsys):
        import threading

        from repro.tools import monitor

        events_path = tmp_path / "events.jsonl"
        events_path.write_text(json.dumps({
            "epoch": 0, "triggerTime": 1.0, "durationSeconds": 0.5,
            "numInputRows": 10, "numOutputRows": 8, "backlogRows": 0,
            "stateKeys": 3, "lateRowsDropped": 0,
        }) + "\n")
        scraped = {}

        def scrape_soon():
            time.sleep(0.2)
            out = capsys.readouterr().out  # "serving OpenMetrics at <url>"
            url = out.strip().rsplit(" ", 1)[-1]
            with urllib.request.urlopen(url, timeout=5) as resp:
                scraped["body"] = resp.read().decode("utf-8")

        thread = threading.Thread(target=scrape_soon)
        thread.start()
        url = monitor.main([str(events_path), "--serve", "--port", "0",
                            "--serve-seconds", "1"])
        thread.join()
        # main returns the URL even after the server is closed.
        assert url.startswith("http://127.0.0.1:")
        assert "repro_engine_epochs_total 1" in scraped["body"]

    def test_monitor_serve_replays_event_log(self, tmp_path):
        from repro.tools.monitor import serve_events

        session = Session()
        stream = make_stream((("k", "string"), ("v", "long")))
        df = (session.read_stream.memory(stream)
              .group_by("k").agg(F.sum("v").alias("total")))
        cp = str(tmp_path / "cp")
        query = start_memory_query(df, "update", "replay", cp)
        for i in range(4):
            stream.add_data([{"k": "a", "v": i}])
            query.process_all_available()
        query.stop()

        server = serve_events(cp)
        try:
            with urllib.request.urlopen(server.url, timeout=5) as resp:
                body = resp.read().decode("utf-8")
        finally:
            server.close()
        assert "repro_engine_epochs_total 4" in body
        assert "repro_engine_rows_in_total 4" in body
        assert body.endswith("# EOF\n")
