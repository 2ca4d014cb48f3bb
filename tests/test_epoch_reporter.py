"""One report path for both engines (§7.4).

Each epoch's progress is serialized once, by the engine's
``EpochReporter``; its ``events.jsonl`` line, its postmortem entry, the
live ``engine.*`` metrics and the monitor's replay of the log all come
from that one serialization, for the microbatch and the continuous
engine alike.
"""

from __future__ import annotations

import time

import pytest

from repro.observability import metrics, tracing
from repro.observability.flightrec import load_postmortem
from repro.observability.metrics import Histogram
from repro.sql import functions as F
from repro.sql.session import Session
from repro.streaming.progress import EpochProgress
from repro.streaming.wal import WriteAheadLog
from repro.tools.monitor import load_events, registry_from_events, render

from tests.conftest import make_stream, start_memory_query


@pytest.fixture(autouse=True)
def _clean_observability():
    """Tests toggle the process-global registry/tracer; isolate them."""
    previous = (metrics._registry, tracing._tracer)
    yield
    metrics._registry, tracing._tracer = previous


def run_microbatch(tmp_path):
    """A windowed count with a watermark and ingest times, so every
    ``engine.*`` metric (watermark and event-time lag included) is set."""
    stream = make_stream((("t", "timestamp"), ("k", "string")))
    df = (Session().read_stream.memory(stream)
          .with_watermark("t", "10s")
          .group_by(F.window("t", "10s"), "k").count())
    cp = str(tmp_path / "microbatch")
    query = start_memory_query(df, "update", "mb", cp)
    for i in range(5):
        stream.add_data([{"t": 10.0 * i + j, "k": f"k{j % 2}"}
                         for j in range(4)],
                        ingest_time=time.time() - 1.0)
        query.process_all_available()
    query.stop()
    return cp, query


def run_continuous(tmp_path):
    """A map-like query over three bursts, each committed as an epoch."""
    stream = make_stream((("v", "long"),))
    df = (Session().read_stream.memory(stream)
          .select((F.col("v") + 1).alias("x")))
    cp = str(tmp_path / "continuous")
    query = (df.write_stream.format("memory").query_name("cont")
             .output_mode("append").trigger(continuous=0.01).start(cp))
    for i in range(3):
        stream.add_data([{"v": 10 * i + j} for j in range(5)])
        query.process_all_available()
        deadline = time.monotonic() + 10
        while query.engine.next_epoch <= i and time.monotonic() < deadline:
            time.sleep(0.005)
    query.stop()
    return cp, query


ENGINES = pytest.mark.parametrize(
    "run", [run_microbatch, run_continuous], ids=["microbatch", "continuous"])


def engine_metrics(registry) -> dict:
    """The ``engine.*`` metrics (and ``state.rows``): counter and gauge
    values, histogram observation counts."""
    view = {}
    for name in registry.names():
        if not (name.startswith("engine.") or name == "state.rows"):
            continue
        metric = registry.metric(name)
        view[name] = (metric.count if isinstance(metric, Histogram)
                      else metric.value)
    return view


@ENGINES
def test_replayed_event_log_equals_live_registry(tmp_path, run):
    with metrics.enabled() as live:
        cp, _query = run(tmp_path)
    expected = engine_metrics(live)
    assert expected["engine.epochs"] == len(load_events(cp)) > 0
    assert engine_metrics(registry_from_events(load_events(cp))) == expected


def test_microbatch_replay_covers_every_engine_metric(tmp_path):
    with metrics.enabled() as live:
        cp, _query = run_microbatch(tmp_path)
    names = set(engine_metrics(registry_from_events(load_events(cp))))
    assert {"engine.epochs", "engine.rows_in", "engine.rows_out",
            "engine.late_rows_dropped", "engine.backlog_rows",
            "engine.state_keys", "state.rows", "engine.epoch_seconds",
            "engine.event_time_lag", "engine.event_time_lag_seconds",
            "engine.watermark_lag.t", "engine.bottleneck_share"} <= names
    assert names == set(engine_metrics(live))


@ENGINES
def test_progress_is_serialized_once_per_epoch(tmp_path, monkeypatch, run):
    serialized = []
    to_json = EpochProgress.to_json

    def counting(progress):
        serialized.append(progress.epoch_id)
        return to_json(progress)

    monkeypatch.setattr(EpochProgress, "to_json", counting)
    cp, _query = run(tmp_path)
    logged = [event["epoch"] for event in load_events(cp)]
    assert logged and serialized == logged


@ENGINES
def test_postmortem_epochs_are_the_event_log_lines(tmp_path, run):
    with metrics.enabled():
        cp, query = run(tmp_path)
        doc = load_postmortem(query.dump_postmortem())
    assert all("metricsDelta" in entry for entry in doc["epochs"])
    entries = [{k: v for k, v in entry.items() if k != "metricsDelta"}
               for entry in doc["epochs"]]
    assert entries and entries == load_events(cp)[-len(entries):]


def test_continuous_epoch_logs_one_trigger_time(tmp_path):
    cp, query = run_continuous(tmp_path)
    events = load_events(cp)
    assert events and query.recent_progress
    wal = WriteAheadLog(cp)
    for event in events:
        offsets = wal.read_offsets(event["epoch"])
        assert event["triggerTime"] == offsets["trigger_time"]
    for progress in query.recent_progress:
        offsets = wal.read_offsets(progress.epoch_id)
        assert progress.trigger_time == offsets["trigger_time"]


def test_monitor_renders_continuous_event_log(tmp_path):
    cp, query = run_continuous(tmp_path)
    assert [p.epoch_id for p in query.recent_progress] == \
        [event["epoch"] for event in load_events(cp)]
    text = render(load_events(cp))
    assert f"epoch {query.last_progress.epoch_id}" in text
    assert "rows in/out 15/15" in text
