"""Figure 6a — Yahoo! benchmark throughput vs other systems (§9.1).

Paper (5 nodes x 8 cores = 40 cores):

    Kafka Streams          0.7  M records/s
    Apache Flink          33    M records/s
    Structured Streaming  65    M records/s   (2x Flink, ~90x KS)

Reproduction: each engine's *single-core* throughput is measured by
actually executing it on the same published workload; the 40-core
figures come from the calibrated cluster model (the scaling mechanism
validated separately in Fig 6b).  The expected *shape*: Structured
Streaming wins over the Flink-style engine by a small integer factor,
and beats the Kafka-Streams-style engine by well over an order of
magnitude.
"""

from __future__ import annotations

import pytest

from repro.baselines.operator_engine import (
    FilterOperator,
    FlinkStyleEngine,
    KeyByBoundary,
    ProjectOperator,
    TableJoinOperator,
    WindowedCountOperator,
)
from repro.baselines.record_engine import (
    FilterStage,
    KafkaStreamsStyleEngine,
    MapStage,
    TableJoinStage,
    WindowedCountStage,
)
from repro.observability import metrics, tracing
from repro.sql.session import Session
from repro.workloads.yahoo import WINDOW_SECONDS, structured_streaming_query

from benchmarks.perfmodel import ClusterPerformanceModel
from benchmarks.reporting import emit

N_FAST = 400_000
N_SLOW = 40_000
PAPER = {"structured_streaming": 65e6, "flink": 33e6, "kafka_streams": 0.7e6}

_measured = {}


def _run_structured_streaming(broker, workload) -> int:
    session = Session()
    query = structured_streaming_query(session, broker, "events", workload)
    handle = (query.write_stream.format("memory").query_name("fig6a")
              .output_mode("update").start())
    handle.process_all_available()
    assert handle.engine.sink.rows(), "no output produced"
    return N_FAST


def _run_structured_streaming_instrumented(broker, workload) -> int:
    """The same workload with metrics + tracing live — the overhead arm."""
    with metrics.enabled(), tracing.enabled():
        return _run_structured_streaming(broker, workload)


def _run_flink_style(broker, workload) -> int:
    counter = WindowedCountOperator("campaign_id", "event_time", WINDOW_SECONDS)
    engine = FlinkStyleEngine(broker, [
        FilterOperator(lambda r: r["event_type"] == "view"),
        ProjectOperator(("ad_id", "event_time")),
        TableJoinOperator(workload.campaign_lookup(), "ad_id", "campaign_id"),
        KeyByBoundary("campaign_id"),
        counter,
    ])
    processed = engine.run("events")
    assert counter.counts
    return processed


def _run_kafka_streams_style(broker, workload) -> int:
    engine = KafkaStreamsStyleEngine(broker, name=f"ks-{id(object())}")
    engine.add_stage(FilterStage(lambda r: r["event_type"] == "view"))
    engine.add_stage(MapStage(
        lambda r: {"ad_id": r["ad_id"], "event_time": r["event_time"]}))
    engine.add_stage(TableJoinStage(
        workload.campaign_lookup(), "ad_id", "campaign_id"))
    engine.add_stage(WindowedCountStage(
        "campaign_id", "event_time", WINDOW_SECONDS,
        engine.changelog_topic(f"c{id(object())}")))
    return engine.run("events", f"out-{id(object())}")


@pytest.mark.benchmark(group="fig6a")
def test_structured_streaming_throughput(benchmark, columnar_events, workload):
    result = benchmark.pedantic(
        _run_structured_streaming, args=(columnar_events, workload),
        rounds=3, iterations=1)
    rate = result / benchmark.stats.stats.min
    _measured["structured_streaming"] = rate
    benchmark.extra_info["records_per_second"] = rate


@pytest.mark.benchmark(group="fig6a")
def test_structured_streaming_instrumented_throughput(
        benchmark, columnar_events, workload):
    """Observability overhead: the full Yahoo pipeline with metrics and
    span tracing enabled must stay within a few percent of the plain
    run (the acceptance bar for the always-on monitoring of §7.4)."""
    result = benchmark.pedantic(
        _run_structured_streaming_instrumented, args=(columnar_events, workload),
        rounds=3, iterations=1)
    rate = result / benchmark.stats.stats.min
    _measured["structured_streaming_instrumented"] = rate
    benchmark.extra_info["records_per_second"] = rate


@pytest.mark.benchmark(group="fig6a")
def test_flink_style_throughput(benchmark, columnar_events, workload):
    result = benchmark.pedantic(
        _run_flink_style, args=(columnar_events, workload),
        rounds=3, iterations=1)
    rate = result / benchmark.stats.stats.min
    _measured["flink"] = rate
    benchmark.extra_info["records_per_second"] = rate


@pytest.mark.benchmark(group="fig6a")
def test_kafka_streams_style_throughput(benchmark, row_events_small, workload):
    result = benchmark.pedantic(
        _run_kafka_streams_style, args=(row_events_small, workload),
        rounds=3, iterations=1)
    rate = result / benchmark.stats.stats.min
    _measured["kafka_streams"] = rate
    benchmark.extra_info["records_per_second"] = rate


@pytest.mark.benchmark(group="fig6a")
def test_zz_fig6a_report(benchmark):
    """Assemble the Figure 6a table from the measured rates.

    (Named zz_ so it runs after the measurements; benchmark fixture
    used trivially to keep --benchmark-only from skipping it.)
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert set(_measured) == {"structured_streaming",
                              "structured_streaming_instrumented",
                              "flink", "kafka_streams"}

    model_cores = 40  # 5 nodes x 8 cores, as in the paper
    lines = [
        "Figure 6a — Yahoo! Streaming Benchmark, max throughput",
        f"{'system':<22}{'measured/core':>16}{'modeled 40-core':>18}{'paper':>12}",
    ]
    modeled = {}
    for system in ("kafka_streams", "flink", "structured_streaming"):
        per_core = _measured[system]
        model = ClusterPerformanceModel(per_core, cores_per_node=8)
        modeled[system] = model.max_throughput(5)
        lines.append(
            f"{system:<22}{per_core:>13,.0f}/s{modeled[system]:>15,.0f}/s"
            f"{PAPER[system]:>11,.0f}/s"
        )
    ss_flink = modeled["structured_streaming"] / modeled["flink"]
    ss_ks = modeled["structured_streaming"] / modeled["kafka_streams"]
    plain = _measured["structured_streaming"]
    instrumented = _measured["structured_streaming_instrumented"]
    overhead_pct = 100.0 * (1.0 - instrumented / plain)
    lines += [
        f"ratio SS/Flink-style: {ss_flink:.2f}x   (paper: 2.0x)",
        f"ratio SS/KS-style:    {ss_ks:.1f}x   (paper: ~90x)",
        f"observability on (metrics+trace): {instrumented:,.0f}/s per core "
        f"({overhead_pct:+.1f}% overhead vs off)",
        f"(modeled on {model_cores} cores; mechanisms, not magnitudes, "
        "are the claim — see EXPERIMENTS.md)",
    ]
    emit("fig6a_yahoo_throughput", lines)

    # Observability must be cheap: the instrumented arm stays within a
    # small slice of the plain run (3% is the design bar; the assert
    # leaves headroom for shared-CI timer noise).
    assert instrumented >= 0.85 * plain, (
        f"instrumentation overhead {overhead_pct:.1f}% exceeds budget")

    # The paper's shape: SS wins over Flink by a small factor and over
    # Kafka Streams by a very large one.
    assert ss_flink > 1.3, f"Structured Streaming should beat Flink-style, got {ss_flink}"
    assert ss_ks > 15, f"Structured Streaming should crush KS-style, got {ss_ks}"
    assert modeled["flink"] > modeled["kafka_streams"]
