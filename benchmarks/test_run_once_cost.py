"""Run-once trigger cost savings (§7.3).

Paper: customers run a single epoch of a streaming job every few hours
instead of a 24/7 cluster, cutting cost "in one case, up to 10x" while
keeping the engine's transactional input/output tracking.

Reproduction: the processing rate fed into the cost model is *measured*
by actually running the run-once ETL pattern end to end (each invocation
is a fresh engine resuming from the WAL); the savings table then follows
from per-second billing arithmetic.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bus import Broker
from repro.cluster.costmodel import DeploymentCostModel
from repro.sql import functions as F
from repro.sql.session import Session
from repro.sql.types import StructType
from repro.sources.memory import MemoryStream

from benchmarks.reporting import emit

SCHEMA = (("device", "string"), ("reading", "double"), ("t", "timestamp"))
HOUR = 3600.0
MONTH = 30 * 24 * HOUR
BACKLOG = 100_000


def _one_run(session, broker, checkpoint, sink_rows):
    events = session.read_stream.kafka(broker, "logs", SCHEMA)
    cleaned = events.where(F.col("reading") >= 0)
    query = (cleaned.write_stream
             .foreach(lambda e, rows, mode: sink_rows.extend(rows))
             .output_mode("append").trigger(once=True).start(checkpoint))
    query.await_termination()
    return query


@pytest.mark.benchmark(group="runonce")
def test_run_once_savings(benchmark, tmp_path):
    broker = Broker()
    topic = broker.create_topic("logs", 1)
    session = Session()
    checkpoint = str(tmp_path / "ckpt")
    sink_rows = []

    def scheduled_invocation():
        # A few hours of backlog accumulated since the last run.
        topic.publish_to(0, [
            {"device": f"d{i % 50}", "reading": float(i % 100 - 5), "t": float(i)}
            for i in range(BACKLOG)
        ])
        _one_run(session, broker, checkpoint, sink_rows)
        return BACKLOG

    processed = benchmark.pedantic(scheduled_invocation, rounds=3, iterations=1)
    rate = processed / benchmark.stats.stats.min

    # Each run picked up exactly where the previous stopped: no row is
    # processed twice across invocations (the WAL's transactionality).
    assert len(sink_rows) == 3 * BACKLOG * 95 // 100

    model = DeploymentCostModel(
        arrival_rate_records_per_second=1_000,
        processing_rate_records_per_second=rate,
        nodes=4, startup_seconds=120.0,
    )
    lines = [
        "Run-once trigger cost savings (§7.3)",
        f"measured ETL processing rate: {rate:,.0f} records/s",
        f"{'interval':>10}{'savings vs 24/7':>18}{'max staleness':>16}",
    ]
    ratios = {}
    for hours in (1, 4, 12, 24):
        ratios[hours] = model.savings_ratio(MONTH, hours * HOUR)
        lines.append(
            f"{hours:>8}h {ratios[hours]:>15.1f}x"
            f"{model.max_latency(hours * HOUR) / HOUR:>14.2f}h"
        )
    lines.append("(paper: up to 10x for low-volume applications)")
    emit("run_once_cost", lines)

    assert max(ratios.values()) >= 10  # the paper's headline is reachable
    assert ratios[24] > ratios[1]      # rarer runs save more


# ----------------------------------------------------------------------
# Pipelined epochs: small-epoch overhead, sequential vs pipelined
# ----------------------------------------------------------------------
PIPELINE_EPOCHS = 150


def _epoch_pipeline_arm(pipeline: str, epochs: int = PIPELINE_EPOCHS):
    """Drain an ``epochs``-deep backlog one record per epoch (the
    fsync-bound regime where per-epoch protocol overhead dominates);
    returns (epochs_per_second, p50_ms, p99_ms)."""
    session = Session()
    stream = MemoryStream(StructType((("k", "string"), ("v", "long"))))
    stream.add_data([{"k": f"k{i % 5}", "v": i} for i in range(epochs)])
    query = (session.read_stream.memory(stream)
             .group_by("k").agg(F.sum("v").alias("total"))
             .write_stream.format("memory").query_name(f"pipe-{pipeline}")
             .output_mode("update")
             .option("pipeline", pipeline)
             .option("max_records_per_epoch", 1).start())
    started = time.perf_counter()
    progresses = query.engine.run_available()
    wall = time.perf_counter() - started
    query.stop()
    assert len(progresses) == epochs
    durations = sorted(p.duration_seconds for p in progresses)
    p50 = durations[len(durations) // 2] * 1000
    p99 = durations[int(len(durations) * 0.99)] * 1000
    return epochs / wall, p50, p99


@pytest.mark.benchmark(group="runonce")
def test_pipelined_epoch_throughput(benchmark):
    """Pipelined mode (async state flusher + group-commit WAL) must
    beat the sequential Figure-4 loop by >=1.3x on small stateful
    epochs, where the three per-epoch fsyncs dominate."""
    measured = {}

    def sweep():
        # Best of two runs per arm damps filesystem noise.
        for pipeline in ("off", "on"):
            runs = [_epoch_pipeline_arm(pipeline) for _ in range(2)]
            measured[pipeline] = max(runs, key=lambda r: r[0])
        return len(measured)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    eps_off, p50_off, p99_off = measured["off"]
    eps_on, p50_on, p99_on = measured["on"]
    speedup = eps_on / eps_off

    lines = [
        "Pipelined epochs — small-epoch throughput, sequential vs "
        f"pipelined ({PIPELINE_EPOCHS} one-record stateful epochs)",
        f"{'mode':>12}{'epochs/s':>11}{'p50':>9}{'p99':>9}",
        f"{'sequential':>12}{eps_off:>11,.0f}{p50_off:>7.2f}ms"
        f"{p99_off:>7.2f}ms",
        f"{'pipelined':>12}{eps_on:>11,.0f}{p50_on:>7.2f}ms"
        f"{p99_on:>7.2f}ms",
        f"speedup: {speedup:.2f}x (floor 1.3x)",
    ]
    emit("pipelined_epochs", lines, data={
        "epochs": PIPELINE_EPOCHS,
        "sequential": {"epochs_per_second": eps_off,
                       "p50_ms": p50_off, "p99_ms": p99_off},
        "pipelined": {"epochs_per_second": eps_on,
                      "p50_ms": p50_on, "p99_ms": p99_on},
        "speedup": speedup,
    })
    benchmark.extra_info["pipelined_speedup"] = speedup
    assert speedup >= 1.3, (
        f"pipelined epochs only {speedup:.2f}x over sequential")
