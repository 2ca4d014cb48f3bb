"""End-to-end observability: metrics registry, span tracing, monitoring.

The operational layer the paper motivates in §2.3 (monitoring and
management of continuous jobs) and §7.4 (the progress/metrics API):

* :mod:`repro.observability.metrics` — process-wide counters, gauges
  and fixed-bucket histograms with percentile accessors, exportable in
  the OpenMetrics text format (``MetricsRegistry.to_openmetrics``);
* :mod:`repro.observability.tracing` — nested spans per epoch and
  stage, exportable to ``chrome://tracing``;
* :mod:`repro.observability.flightrec` — the always-on flight recorder
  behind crash ``postmortem.json`` dumps;
* :mod:`repro.observability.bottleneck` — folds per-phase/operator
  timings into "where is the time going" attribution;
* :mod:`repro.observability.serve` — a Prometheus-scrapeable HTTP
  endpoint over the registry;
* ``python -m repro.tools.monitor`` — a text dashboard over a query's
  ``events.jsonl`` or a crash postmortem.

The metrics/tracing layers are disabled by default and cost one
``is None`` branch per call site when off (the ``fault_point``
pattern); enable them with ``REPRO_METRICS=1`` / ``REPRO_TRACE=1`` or
programmatically.  The flight recorder is always on: its per-epoch cost
is one snapshot append, independent of both switches.
"""

from __future__ import annotations

from repro.observability import bottleneck, metrics, tracing
from repro.observability.flightrec import FlightRecorder
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.tracing import Tracer, trace_span


def active() -> bool:
    """True when either the metrics registry or the tracer is enabled.

    The engines use this single check to skip *derived* bookkeeping
    (per-operator rows, stage timings) entirely when observability is
    off, keeping the disabled path at one branch per epoch phase.
    """
    return metrics._registry is not None or tracing._tracer is not None


__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "active",
    "bottleneck",
    "metrics",
    "trace_span",
    "tracing",
]
