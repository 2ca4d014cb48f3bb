"""Figure 7 — continuous processing latency vs input rate (§9.3).

Paper (4-core server, map job reading from Kafka): continuous mode holds
millisecond-scale latency across input rates up to near its maximum
stable throughput (e.g. <10 ms at half max), while microbatch mode's
latency is orders of magnitude higher (hundreds of ms to seconds); the
dashed line marks microbatch's max throughput, slightly below
continuous mode's because of task-scheduling overhead per epoch.

Reproduction: a publisher thread feeds a one-partition topic at a target
rate; each record carries its publish time, and a latency-probing sink
records delivery lag.  The same map query runs under both engines.
"""

from __future__ import annotations

import statistics
import threading
import time

import pytest

from repro.bus import Broker
from repro.sinks.base import Sink
from repro.sql import functions as F
from repro.sql.session import Session

from benchmarks.reporting import emit

SCHEMA = (("publish_time", "timestamp"), ("value", "long"))
RATES = (500, 2_000, 8_000, 20_000)
MEASURE_SECONDS = 1.0


class LatencyProbeSink(Sink):
    """Records per-row delivery latency (now - publish_time)."""

    def __init__(self):
        self.latencies = []
        self._lock = threading.Lock()
        self.key_names = []

    def append_rows(self, rows):
        now = time.monotonic()
        with self._lock:
            for row in rows:
                self.latencies.append(now - row["publish_time"])

    def add_batch(self, epoch_id, batch, mode):
        self.append_rows(batch.to_rows())


def publish_at_rate(topic, rate: float, seconds: float):
    """Publish records at ``rate``/s in 5 ms micro-batches (as a steady
    producer would), stamping each with its publish time."""
    interval = 0.005
    per_tick = max(1, int(rate * interval))
    end = time.monotonic() + seconds
    value = 0
    while time.monotonic() < end:
        tick_start = time.monotonic()
        rows = [{"publish_time": time.monotonic(), "value": value + i}
                for i in range(per_tick)]
        topic.publish_to(0, rows)
        value += per_tick
        sleep = interval - (time.monotonic() - tick_start)
        if sleep > 0:
            time.sleep(sleep)
    return value


def _map_query(session, broker):
    return (session.read_stream.kafka(broker, "stream", SCHEMA)
            .where(F.col("value") >= 0)
            .select("publish_time", (F.col("value") * 2).alias("doubled"))
            .drop("doubled")
            .with_column("publish_time", F.col("publish_time")))


def _measure_continuous_latency(rate: float) -> float:
    broker = Broker()
    topic = broker.create_topic("stream", 1)
    session = Session()
    sink = LatencyProbeSink()
    query = (_map_query(session, broker).write_stream.sink(sink)
             .trigger(continuous="200ms").start())
    try:
        publish_at_rate(topic, rate, MEASURE_SECONDS)
        deadline = time.monotonic() + 3
        while time.monotonic() < deadline and len(sink.latencies) < 10:
            time.sleep(0.01)
        # Drop warm-up records.
        samples = sink.latencies[len(sink.latencies) // 5:]
        return statistics.median(samples) if samples else float("inf")
    finally:
        query.stop()


def _max_throughput_continuous(n: int = 300_000) -> float:
    broker = Broker()
    topic = broker.create_topic("stream", 1)
    now = time.monotonic()
    topic.publish_to(0, [{"publish_time": now, "value": i} for i in range(n)])
    session = Session()
    sink = LatencyProbeSink()
    query = (_map_query(session, broker).write_stream.sink(sink)
             .trigger(continuous="500ms").start())
    started = time.monotonic()
    try:
        query.engine.run_available()
        return n / (time.monotonic() - started)
    finally:
        query.stop()


def _max_throughput_microbatch(n: int = 300_000) -> float:
    broker = Broker()
    topic = broker.create_topic("stream", 1)
    now = time.monotonic()
    topic.publish_to(0, [{"publish_time": now, "value": i} for i in range(n)])
    session = Session()
    sink = LatencyProbeSink()
    query = (_map_query(session, broker).write_stream.sink(sink)
             .output_mode("append").start())
    started = time.monotonic()
    query.process_all_available()
    return n / (time.monotonic() - started)


def _microbatch_latency(trigger_interval: float = 0.1) -> float:
    broker = Broker()
    topic = broker.create_topic("stream", 1)
    session = Session()
    sink = LatencyProbeSink()
    query = (_map_query(session, broker).write_stream.sink(sink)
             .output_mode("append")
             .trigger(interval=trigger_interval).start())
    try:
        publish_at_rate(topic, 500, 1.0)
        deadline = time.monotonic() + 3
        while time.monotonic() < deadline and len(sink.latencies) < 10:
            time.sleep(0.01)
        samples = sink.latencies[len(sink.latencies) // 5:]
        return statistics.median(samples) if samples else float("inf")
    finally:
        query.stop()


@pytest.mark.benchmark(group="fig7")
def test_continuous_latency_vs_input_rate(benchmark):
    latencies = {}

    def sweep():
        for rate in RATES:
            latencies[rate] = _measure_continuous_latency(rate)
        return len(RATES)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    continuous_max = _max_throughput_continuous()
    microbatch_max = _max_throughput_microbatch()
    microbatch_lat = _microbatch_latency()

    lines = [
        "Figure 7 — continuous processing latency vs input rate",
        f"{'input rate':>12}{'median latency':>18}",
    ]
    for rate in RATES:
        lines.append(f"{rate:>10}/s{latencies[rate] * 1000:>15.1f} ms")
    lines += [
        f"continuous max stable throughput: {continuous_max:,.0f} rec/s",
        f"microbatch max throughput (dashed line): {microbatch_max:,.0f} rec/s",
        f"microbatch end-to-end latency (100ms trigger): "
        f"{microbatch_lat * 1000:,.1f} ms",
        "(paper: continuous <10 ms at half max rate; microbatch 100-1000 ms)",
    ]
    emit("fig7_continuous_latency", lines, data={
        "continuous_latency_ms": {str(r): latencies[r] * 1000 for r in RATES},
        "continuous_max_records_per_second": continuous_max,
        "microbatch_max_records_per_second": microbatch_max,
        "microbatch_latency_ms": microbatch_lat * 1000,
    })

    # Shape: low flat latency across the sweep...
    for rate in RATES:
        assert latencies[rate] < 0.25, f"latency too high at {rate}/s"
    # ...and far below microbatch's trigger-bound latency.
    assert statistics.median(latencies.values()) < microbatch_lat
    benchmark.extra_info.update({
        "latencies_ms": {r: latencies[r] * 1000 for r in RATES},
        "continuous_max": continuous_max,
        "microbatch_max": microbatch_max,
        "microbatch_latency_ms": microbatch_lat * 1000,
    })
