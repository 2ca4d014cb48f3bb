"""Per-epoch span tracing with JSONL and Chrome trace-event export.

``trace_span(name, **attrs)`` is a context manager producing one span:
a monotonic start offset, a duration, the recording thread, and the
enclosing span (tracked per thread, so spans nest naturally — an
``epoch`` span contains ``stage:*`` spans which contain ``task:*``
spans).

Disabled (the default), ``trace_span`` returns a shared no-op context
manager after a single ``is None`` check — the same cheap-when-off
contract as :mod:`repro.observability.metrics` and ``fault_point``.
Enabled, finished spans land in a bounded ring buffer on the process
tracer; :func:`dump` (surfaced as ``StreamingQuery.dump_trace``)
exports them as JSON-lines or as the Chrome trace-event format that
``chrome://tracing`` / Perfetto load directly.

Enable programmatically (:func:`enable` / :class:`enabled`) or with
``REPRO_TRACE=1`` in the environment (read once at import).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time


class Tracer:
    """Buffers finished spans for one process (bounded ring)."""

    def __init__(self, capacity: int = 100_000):
        self.capacity = capacity
        #: Finished spans, oldest first once the ring wraps.  Appends
        #: are GIL-atomic, so worker threads record without a lock.
        self._spans = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: perf_counter origin: span timestamps are offsets from here.
        self.started_at = time.perf_counter()

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, span: dict) -> None:
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self.capacity:
                del self._spans[: len(self._spans) - self.capacity]

    @property
    def spans(self) -> list:
        """Finished spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def spans_for_epoch(self, epoch: int) -> list:
        """Spans tagged with ``epoch`` (via span attrs), oldest first."""
        return [s for s in self.spans if s.get("args", {}).get("epoch") == epoch]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome(self) -> dict:
        """Chrome trace-event JSON (complete "X" events, µs units)."""
        events = []
        for span in self.spans:
            events.append({
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "ts": span["start_us"],
                "dur": span["duration_us"],
                "pid": os.getpid(),
                "tid": span["tid"],
                "args": dict(span.get("args", {}), span_id=span["id"],
                             parent_id=span["parent"]),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def dump(self, path: str, fmt: str = None) -> int:
        """Write the buffered spans to ``path``; returns the span count.

        ``fmt`` is ``"chrome"`` or ``"jsonl"``; inferred from the file
        extension when omitted (``.jsonl`` -> JSONL, anything else ->
        Chrome trace-event JSON).
        """
        if fmt is None:
            fmt = "jsonl" if path.endswith(".jsonl") else "chrome"
        if fmt not in ("chrome", "jsonl"):
            raise ValueError(f"unknown trace format {fmt!r}")
        spans = self.spans
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            if fmt == "jsonl":
                for span in spans:
                    f.write(json.dumps(span) + "\n")
            else:
                json.dump(self.to_chrome(), f)
        return len(spans)


class _Span:
    """A live span; records itself on exit."""

    __slots__ = ("tracer", "name", "args", "id", "parent", "_start")

    def __init__(self, tracer: Tracer, name: str, args: dict):
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.id = next(tracer._ids)
        stack = tracer._stack()
        self.parent = stack[-1].id if stack else None
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        thread = threading.current_thread()
        tracer.record({
            "name": self.name,
            "id": self.id,
            "parent": self.parent,
            "start_us": (self._start - tracer.started_at) * 1e6,
            "duration_us": (end - self._start) * 1e6,
            "tid": thread.ident,
            "thread": thread.name,
            "args": self.args,
        })


class _NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL_SPAN = _NullSpan()

# ----------------------------------------------------------------------
# Module-level installation
# ----------------------------------------------------------------------
_tracer: Tracer | None = None


def enable(tracer: Tracer = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the process tracer."""
    global _tracer
    if tracer is None:
        tracer = Tracer()
    _tracer = tracer
    return tracer


def disable() -> None:
    """Uninstall the process tracer; ``trace_span`` becomes a no-op."""
    global _tracer
    _tracer = None


def active() -> Tracer | None:
    """The installed tracer, if any."""
    return _tracer


class enabled:
    """``with tracing.enabled() as tracer:`` — scoped enablement."""

    def __init__(self, tracer: Tracer = None):
        self._tracer = tracer

    def __enter__(self) -> Tracer:
        self._previous = _tracer
        return enable(self._tracer)

    def __exit__(self, *exc) -> None:
        global _tracer
        _tracer = self._previous


def trace_span(name: str, **attrs):
    """Context manager for one span (shared no-op when disabled)."""
    if _tracer is None:
        return _NULL_SPAN
    return _Span(_tracer, name, attrs)


def dump(path: str, fmt: str = None) -> int:
    """Export the process tracer's buffer (0 spans when disabled)."""
    if _tracer is None:
        return 0
    return _tracer.dump(path, fmt)


if os.environ.get("REPRO_TRACE", "0") not in ("", "0"):
    enable()
