"""Progress and monitoring events (§7.4, §2.3's monitoring challenge).

Each completed epoch produces an :class:`EpochProgress` carrying the
metrics the paper lists operators needing: load (rows, rows/s), backlog,
state size, watermarks and timing — plus, when the observability layer
is enabled, per-stage timings, per-operator row counts and
continuous-mode latency percentiles.  ``to_json`` keeps it
loggable as a structured event; empty sections are omitted so
``events.jsonl`` lines stay compact.

Both engines report each epoch through one :class:`EpochReporter`
call, which serializes it once for ``events.jsonl``, the ring behind
``recent_progress`` and the postmortem, the ``engine.*`` metrics
(:func:`apply_metrics`, which the monitor's replay also runs) and the
listeners.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field

from repro.observability import metrics
from repro.observability.flightrec import FlightRecorder
from repro.observability.metrics import Counter, Gauge

#: Epochs retained for ``recent_progress`` and the postmortem's
#: ``epochs``: the one ring both read.
RING_CAPACITY = 100


@dataclass
class EpochProgress:
    """Metrics for one completed epoch."""

    epoch_id: int
    trigger_time: float
    duration_seconds: float
    input_rows: int
    output_rows: int
    backlog_rows: int
    state_keys: int
    late_rows_dropped: int
    #: Rows buffered in operator state.  ``state_keys`` counts join
    #: *keys*, which stay put while a key's buffered rows grow or
    #: consolidate; this counts the rows themselves (== keys for
    #: operators that hold one value per key).
    state_rows: int = 0
    watermarks: dict = field(default_factory=dict)
    sources: dict = field(default_factory=dict)
    #: Engine phase -> seconds for this epoch (wal-offsets, read-inputs,
    #: process, sink-write, wal-commit, state-commit); populated when
    #: observability is active.
    stage_timings: dict = field(default_factory=dict)
    #: Operator label -> {"rows_out", "seconds", "calls"} for this
    #: epoch's plan execution; populated when observability is active.
    operator_metrics: dict = field(default_factory=dict)
    #: Continuous-mode record latency summary (count/mean/p50/p95/p99),
    #: cumulative over the query's lifetime.
    latency_percentiles: dict = field(default_factory=dict)
    #: Net output rows (sum of ``__weight__``) for retract-mode epochs:
    #: the true table growth, distinct from the delivered delta-row
    #: count above.  None for unweighted output.
    output_rows_net: int = None
    #: End-to-end event-time lag for this epoch: now minus the oldest
    #: source-ingest timestamp consumed — propagated through stream
    #: table cascades, so a gold-stage epoch reports lag since *bronze*
    #: ingest.  None when untracked or observability is off.
    event_time_lag_seconds: float = None
    #: Dominant cost of this epoch ({"name", "share", "seconds"}, see
    #: :mod:`repro.observability.bottleneck`); populated when
    #: observability is active.
    bottleneck: dict = field(default_factory=dict)

    @property
    def input_rows_per_second(self) -> float:
        """Processing rate for this epoch."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.input_rows / self.duration_seconds

    def to_json(self) -> dict:
        """Structured-event form (for logs and dashboards).

        Optional sections (watermarks, sources, task/stage/operator
        metrics, latency percentiles) are omitted when empty so the
        per-epoch event lines stay compact.
        """
        payload = {
            "epoch": self.epoch_id,
            "triggerTime": self.trigger_time,
            "durationSeconds": self.duration_seconds,
            "numInputRows": self.input_rows,
            "numOutputRows": self.output_rows,
            "backlogRows": self.backlog_rows,
            "stateKeys": self.state_keys,
            "stateRows": self.state_rows,
            "lateRowsDropped": self.late_rows_dropped,
            "inputRowsPerSecond": self.input_rows_per_second,
        }
        if self.output_rows_net is not None:
            payload["numOutputRowsNet"] = self.output_rows_net
        if self.event_time_lag_seconds is not None:
            payload["eventTimeLagSeconds"] = self.event_time_lag_seconds
        optional = {
            "watermarks": self.watermarks,
            "sources": self.sources,
            "stageTimings": self.stage_timings,
            "operatorMetrics": self.operator_metrics,
            "latencyPercentiles": self.latency_percentiles,
            "bottleneck": self.bottleneck,
        }
        for key, section in optional.items():
            if section:
                payload[key] = section
        return payload


def apply_metrics(registry, event: dict) -> None:
    """Set the ``engine.*`` metrics (and ``state.rows``) of one epoch
    from its ``events.jsonl`` line: the live engines' reporter and the
    monitor's replay both call this, so their registries agree.
    Counters accumulate, gauges take the newest value; fields an older
    log lacks are skipped."""
    registry.counter("engine.epochs").inc()
    registry.counter("engine.rows_in").inc(event.get("numInputRows", 0))
    registry.counter("engine.rows_out").inc(event.get("numOutputRows", 0))
    registry.counter("engine.late_rows_dropped").inc(
        event.get("lateRowsDropped", 0))
    registry.gauge("engine.backlog_rows").set(event.get("backlogRows"))
    registry.gauge("engine.state_keys").set(event.get("stateKeys"))
    if "stateRows" in event:
        registry.gauge("state.rows").set(event["stateRows"])
    duration = event.get("durationSeconds")
    if isinstance(duration, (int, float)):
        registry.histogram("engine.epoch_seconds").record(duration)
    lag = event.get("eventTimeLagSeconds")
    if isinstance(lag, (int, float)):
        registry.gauge("engine.event_time_lag").set(lag)
        registry.histogram("engine.event_time_lag_seconds").record(lag)
    trigger_time = event.get("triggerTime")
    watermarks = event.get("watermarks") or {}
    if isinstance(watermarks, dict) and watermarks.get("watermarks"):
        watermarks = watermarks["watermarks"]
    for column, value in watermarks.items():
        if isinstance(value, (int, float)) \
                and isinstance(trigger_time, (int, float)):
            registry.gauge(f"engine.watermark_lag.{column}").set(
                max(0.0, trigger_time - value))
    share = (event.get("bottleneck") or {}).get("share")
    if isinstance(share, (int, float)):
        registry.gauge("engine.bottleneck_share").set(share)


def backlog_rows(source, end: dict) -> int:
    """Records ``source`` holds beyond the partition offsets ``end``."""
    latest = source.latest_offsets()
    return sum(max(latest[p] - end.get(p, 0), 0) for p in latest)


class EpochReporter:
    """Reports one engine's epochs (§7.4), either engine alike.

    :meth:`report` serializes an epoch once: that dict is the
    ``events.jsonl`` line, the ring entry (plus its ``metricsDelta``)
    and the input of :func:`apply_metrics`.  The ring backs
    ``recent_progress`` and the postmortem: the reporter owns the
    engine's :class:`FlightRecorder`, which reads its epochs from here.

    A raising listener (or ``events.jsonl`` append) is counted
    (``listener_errors`` here and the ``query.listener_errors`` metric)
    and skipped, never allowed to kill the driver loop.
    """

    def __init__(self, checkpoint_dir: str, engine: str = "microbatch",
                 config: dict = None, capacity: int = RING_CAPACITY):
        self._ring = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._prev_counters = {}
        self._log_path = os.path.join(checkpoint_dir, "events.jsonl")
        self._log = None
        self.listeners = []
        #: Count of listener callbacks that raised (and were swallowed).
        self.listener_errors = 0
        self.flightrec = FlightRecorder(checkpoint_dir, engine,
                                        epochs=self.entries)
        self.flightrec.adopt_prior_dumps()
        self.flightrec.note("engine-start", config=config)

    def open_log(self) -> None:
        """Open ``events.jsonl`` (once the checkpoint directory exists):
        one handle, flushed per epoch, for the engine's lifetime."""
        self._log = open(self._log_path, "a", encoding="utf-8")

    def close(self) -> None:
        """Close the ``events.jsonl`` handle (idempotent)."""
        if self._log is not None:
            self._log.close()

    def report(self, progress: EpochProgress) -> None:
        """Log, retain, meter and announce one completed epoch."""
        entry = progress.to_json()
        line = json.dumps(entry) + "\n"
        registry = metrics.active()
        if registry is None:
            self._prev_counters = {}
        else:
            apply_metrics(registry, entry)
            delta = self._metrics_delta(registry)
            if delta:
                entry["metricsDelta"] = delta
        with self._lock:
            self._ring.append((progress, entry))
        self._contained(self._append, line)
        for listener in list(self.listeners):
            self._contained(listener, progress)

    def _append(self, line: str) -> None:
        if self._log is not None and not self._log.closed:
            self._log.write(line)
            self._log.flush()

    def _contained(self, callback, arg) -> None:
        try:
            callback(arg)
        except Exception:
            self.listener_errors += 1
            metrics.count("query.listener_errors")

    def _metrics_delta(self, registry) -> dict:
        """Counter deltas since the previous epoch + current gauges."""
        delta, current = {}, {}
        for name, metric in list(registry._metrics.items()):
            if isinstance(metric, Counter):
                current[name] = metric.value
                step = metric.value - self._prev_counters.get(name, 0)
                if step:
                    delta[name] = step
            elif isinstance(metric, Gauge) \
                    and isinstance(metric.value, (int, float)):
                delta[name] = metric.value
        self._prev_counters = current
        return delta

    def entries(self) -> list:
        """The ring's serialized epochs, oldest first (the postmortem's
        ``epochs``)."""
        with self._lock:
            return [entry for _progress, entry in self._ring]

    @property
    def last(self):
        """Most recent epoch progress, or None."""
        return self._ring[-1][0] if self._ring else None

    @property
    def recent(self) -> list:
        """Retained progress history, oldest first."""
        with self._lock:
            return [progress for progress, _entry in self._ring]
