"""StreamingQuery: the user's handle on a running query.

Wraps an engine (microbatch or continuous) plus the trigger-driven
driver thread.  Mirrors Spark's handle: ``stop``, ``await_termination``,
``process_all_available``, ``last_progress``/``recent_progress``,
``exception``.  Queries can also be driven synchronously (no thread)
with :meth:`run_epoch` / :meth:`process_all_available`, which is how
most tests and the run-once trigger use the engine (§7.3).
"""

from __future__ import annotations

import threading
import time

from repro.observability import metrics, tracing
from repro.streaming.triggers import AvailableNowTrigger, OnceTrigger


class StreamingQuery:
    """A started streaming query."""

    def __init__(self, engine, trigger, name: str = None, use_thread: bool = True):
        self.engine = engine
        self.trigger = trigger
        self.name = name
        self._stop_event = threading.Event()
        self._terminated = threading.Event()
        self._exception = None
        self._thread = None
        self._listeners = []
        #: Exceptions swallowed while notifying listeners (§7.4: a bad
        #: listener must not take the query down, but must be visible).
        self.listener_errors = 0
        #: Back-reference set by StreamingQueryManager.register so
        #: lifecycle events reach manager-level listeners.
        self._manager = None
        #: Servers started via :meth:`serve_metrics`; closed by stop().
        self._metric_servers = []
        if use_thread:
            self._thread = threading.Thread(
                target=self._run_loop, name=f"query-{name or id(self)}", daemon=True
            )
            self._thread.start()
        else:
            self._terminated.set()

    # ------------------------------------------------------------------
    # Driver loop
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        try:
            if isinstance(self.trigger, OnceTrigger):
                self.engine.run_epoch()
            elif isinstance(self.trigger, AvailableNowTrigger):
                self.engine.run_available()
            else:
                interval = getattr(self.trigger, "interval", 0.0)
                while not self._stop_event.is_set():
                    started = time.monotonic()
                    self.engine.run_epoch()
                    # Sleep out the remainder of the trigger interval;
                    # a long epoch just triggers again immediately
                    # (adaptive batching under backlog, §7.3).
                    remaining = interval - (time.monotonic() - started)
                    if remaining > 0:
                        self._stop_event.wait(remaining)
                    elif interval == 0:
                        self._stop_event.wait(0.001)
        except Exception as exc:  # surfaced via .exception, like Spark
            self._exception = exc
        finally:
            self._terminated.set()
            self._fire_terminated()

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        """True while the query can still make progress: a running driver
        loop, or a manual/synchronous query that has not been stopped."""
        if self._thread is None:
            return not self._stop_event.is_set()
        return not self._terminated.is_set()

    @property
    def exception(self):
        """The exception that terminated the query, if any."""
        return self._exception

    def stop(self) -> None:
        """Ask the driver loop to stop and wait for it."""
        already_stopped = self._stop_event.is_set()
        self._stop_event.set()
        for server in self._metric_servers:
            server.close()
        self._metric_servers = []
        stop_engine = getattr(self.engine, "stop", None)
        if stop_engine is not None:
            stop_engine()
        if self._thread is not None:
            self._thread.join(timeout=30)
        elif not already_stopped:
            self._fire_terminated()

    def await_termination(self, timeout: float = None) -> bool:
        """Block until the query stops (True) or the timeout passes."""
        finished = self._terminated.wait(timeout)
        if self._exception is not None:
            raise self._exception
        return finished

    # ------------------------------------------------------------------
    # Synchronous driving (tests, run-once patterns)
    # ------------------------------------------------------------------
    def run_epoch(self):
        """Synchronously run one epoch (only for thread-less queries)."""
        if self._thread is not None:
            raise RuntimeError("query is driven by its own thread")
        return self.engine.run_epoch()

    def process_all_available(self):
        """Process until the input is drained.

        With a driver thread this polls until the backlog is empty; for
        synchronous queries it drives the engine directly.
        """
        if self._thread is None:
            return self.engine.run_available()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self._exception is not None:
                raise self._exception
            if self._drained():
                return None
            time.sleep(0.01)
        raise TimeoutError("input not drained within 60s")

    def _drained(self) -> bool:
        engine = self.engine
        for name, source in engine.sources.items():
            latest = source.latest_offsets()
            start = engine._start_offsets[name]
            if any(latest[p] > start.get(p, 0) for p in latest):
                return False
        return True

    def add_listener(self, listener) -> None:
        """Attach a listener with optional ``on_progress(progress)`` /
        ``on_query_progress(progress)`` and ``on_terminated(query,
        exception)`` / ``on_query_terminated(query, exception)``
        callbacks (§7.4 monitoring).  Registering the same listener
        twice is a no-op — it will not receive duplicate events.
        """
        if any(existing is listener for existing in self._listeners):
            return
        self._listeners.append(listener)
        on_progress = (getattr(listener, "on_progress", None)
                       or getattr(listener, "on_query_progress", None))
        if on_progress is not None:
            self.engine.progress.listeners.append(on_progress)

    def remove_listener(self, listener) -> None:
        """Detach a listener registered with :meth:`add_listener`."""
        self._listeners = [l for l in self._listeners if l is not listener]
        on_progress = (getattr(listener, "on_progress", None)
                       or getattr(listener, "on_query_progress", None))
        if on_progress is not None:
            reporter = self.engine.progress
            reporter.listeners = [
                cb for cb in reporter.listeners if cb != on_progress
            ]

    def _fire_terminated(self) -> None:
        for listener in self._listeners:
            on_terminated = (getattr(listener, "on_terminated", None)
                             or getattr(listener, "on_query_terminated", None))
            if on_terminated is not None:
                try:
                    on_terminated(self, self._exception)
                except Exception:
                    # Listener failures must not mask the query's fate,
                    # but they must not vanish either (satellite fix:
                    # this path used to swallow silently while the
                    # progress path crashed the epoch).
                    self.listener_errors += 1
                    metrics.count("query.listener_errors")
        if self._manager is not None:
            self._manager._notify_terminated(self)

    def dump_postmortem(self, reason: str = "manual"):
        """Force a flight-recorder dump (§7.4): write the ring buffer of
        recent epochs, events and metric deltas as ``postmortem.json``
        in the checkpoint directory.  Returns the path written, or None
        when the dump failed.
        """
        return self.engine.progress.flightrec.dump(
            reason, error=self._exception, epoch=self.engine.next_epoch,
            force=True)

    def bottleneck(self, window: int = 20) -> dict:
        """Where is the time going?  Attribute recent epochs' wall time
        to its dominant cost — source read, a plan stage, state commit,
        WAL sync, sink, or flusher backpressure.  Returns ``{}`` unless
        observability was active (stage timings are needed).  See
        :mod:`repro.observability.bottleneck` for the cost model.
        """
        from repro.observability import bottleneck as bottleneck_model
        recent = self.engine.progress.recent[-window:] if window else \
            self.engine.progress.recent
        return bottleneck_model.attribute_many(
            (p.stage_timings, p.operator_metrics) for p in recent)

    def serve_metrics(self, port: int = 0, host: str = "127.0.0.1"):
        """Expose the process metrics registry as an OpenMetrics (i.e.
        Prometheus-scrapeable) HTTP endpoint.  Returns the server; its
        ``.url`` is the scrape target, ``port=0`` picks a free port.
        Stopped automatically with the query, or via ``.close()``.
        """
        from repro.observability.serve import MetricsServer
        server = MetricsServer(port=port, host=host)
        self._metric_servers.append(server)
        return server

    def dump_trace(self, path: str, fmt: str = None) -> int:
        """Export the process trace buffer (spans from this query's
        epochs included) to ``path``; returns the span count written.

        ``fmt``: ``"chrome"`` (loads in ``chrome://tracing`` / Perfetto)
        or ``"jsonl"``; inferred from the extension when omitted.
        Returns 0 when tracing is disabled.
        """
        return tracing.dump(path, fmt)

    def metrics_snapshot(self) -> dict:
        """Snapshot of the process metrics registry ({} when disabled)."""
        return metrics.snapshot()

    def explain(self) -> str:
        """Print and return the incremental operator tree the planner
        derived from the declarative query (§5.2)."""
        text = self.engine.plan.root.explain_string()
        print(text)
        return text

    # ------------------------------------------------------------------
    # Monitoring (§7.4)
    # ------------------------------------------------------------------
    @property
    def last_progress(self):
        """Most recent :class:`~repro.streaming.progress.EpochProgress`."""
        return self.engine.progress.last

    @property
    def recent_progress(self) -> list:
        """Retained progress history."""
        return self.engine.progress.recent

    @property
    def status(self) -> dict:
        """Coarse status summary."""
        return {
            "active": self.is_active,
            "next_epoch": getattr(self.engine, "next_epoch", None),
            "state_keys": self.engine.state_store.total_keys()
            if getattr(self.engine, "state_store", None) else 0,
        }
