"""Observability demo: metrics, spans, and the monitor dashboard (§7.4).

Runs a windowed aggregation with the observability layer enabled,
then shows the three monitoring surfaces:

1. the per-epoch progress events (``events.jsonl``) rendered by the
   ``repro.tools.monitor`` dashboard;
2. a metrics-registry snapshot (state puts, WAL writes,
   sink deliveries, epoch timings);
3. a span trace exported in Chrome trace-event format — open the
   printed path in ``chrome://tracing`` or https://ui.perfetto.dev.

Run:  python examples/observability_demo.py
"""

import os
import tempfile

from repro import Session
from repro.observability import metrics, tracing
from repro.sources.memory import MemoryStream
from repro.sql import functions as F
from repro.sql.types import StructType
from repro.tools import monitor

SCHEMA = StructType((("user", "string"), ("latency_ms", "long"),
                     ("event_time", "double")))


def main():
    metrics.enable()
    tracing.enable()
    workdir = tempfile.mkdtemp(prefix="observability-demo-")
    checkpoint = os.path.join(workdir, "checkpoint")
    session = Session()
    stream = MemoryStream(SCHEMA)

    df = (session.read_stream.memory(stream)
          .with_watermark("event_time", "10 seconds")
          .group_by(F.window("event_time", "5 seconds"), F.col("user"))
          .agg(F.avg("latency_ms").alias("avg_latency")))
    query = (df.write_stream.format("memory").query_name("latency_by_user")
             .output_mode("update")
             .start(checkpoint))

    for epoch in range(5):
        stream.add_data([
            {"user": f"u{i % 7}", "latency_ms": 20 + (i * 13) % 80,
             "event_time": epoch * 5.0 + (i % 5)}
            for i in range(50)
        ])
        query.process_all_available()

    print("== monitor dashboard " + "=" * 46)
    print(monitor.render(monitor.load_events(checkpoint)), end="")

    print("== metrics snapshot (selected) " + "=" * 36)
    snapshot = query.metrics_snapshot()
    for name in sorted(snapshot):
        if name.split(".")[0] in ("engine", "wal", "sink") \
                or name.startswith("state.puts"):
            value = snapshot[name]
            if isinstance(value, dict):
                value = {k: round(v, 5) if isinstance(v, float) else v
                         for k, v in value.items() if k != "buckets"}
            print(f"  {name:<28} {value}")

    trace_path = os.path.join(workdir, "trace.json")
    spans = query.dump_trace(trace_path)
    print("== trace " + "=" * 58)
    print(f"  {spans} spans -> {trace_path}")
    print("  load it in chrome://tracing or https://ui.perfetto.dev")

    query.stop()
    return checkpoint


if __name__ == "__main__":
    main()
