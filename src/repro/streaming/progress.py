"""Progress and monitoring events (§7.4, §2.3's monitoring challenge).

Each completed epoch produces an :class:`EpochProgress` carrying the
metrics the paper lists operators needing: load (rows, rows/s), backlog,
state size, watermarks and timing — plus, when the observability layer
is enabled, per-stage timings, per-operator row counts and
continuous-mode latency percentiles.  ``to_json`` keeps it
loggable as a structured event; empty sections are omitted so
``events.jsonl`` lines stay compact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observability import metrics


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


class ProgressReporter:
    """Keeps a bounded history of epoch progress for a query.

    Listener callbacks are isolated: a raising listener is counted
    (``listener_errors`` here and the ``query.listener_errors`` metric)
    and skipped, never allowed to kill the driver loop — the same
    containment ``on_terminated`` failures already had in ``query.py``.
    """

    def __init__(self, capacity: int = 100):
        self._capacity = capacity
        self._history = []
        self.listeners = []
        #: Count of listener callbacks that raised (and were swallowed).
        self.listener_errors = 0

    def record(self, progress: EpochProgress) -> None:
        """Append progress; notify listeners (their failures contained)."""
        self._history.append(progress)
        if len(self._history) > self._capacity:
            del self._history[: len(self._history) - self._capacity]
        for listener in list(self.listeners):
            try:
                listener(progress)
            except Exception:
                self.listener_errors += 1
                metrics.count("query.listener_errors")

    @property
    def last(self):
        """Most recent epoch progress, or None."""
        return self._history[-1] if self._history else None

    @property
    def recent(self) -> list:
        """Retained progress history, oldest first."""
        return list(self._history)
