"""Outside-in span tracing: the harness wraps the engine's public
methods from here, so the engine itself carries no benchmark code.

A span is ``Span(id, name, start, end, parent, epoch, thread, rows)``.
Spans nest per thread (the parent is whatever span that thread had open)
and are kept in memory until the run ends.  A layer's cost is its spans'
*self time* — duration minus the children's durations — so nested layers
(``run_epoch`` > aggregate > join > scan) are never counted twice.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import defaultdict, namedtuple

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "epoch", "thread", "rows")
Span = namedtuple("Span", SPAN_FIELDS)


class Tracer:
    """Records spans while ``enabled``; wrapped calls pass straight
    through (one branch) while it is not, which is what lets a traced
    run interleave untraced control blocks to price its own overhead."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.fsyncs = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def call(self, name, fn, args=(), kwargs=None, epoch=None, rows=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``epoch`` defaults to the enclosing span's; ``rows`` is a number
        or a function ``(result, args)`` evaluated when the call returns."""
        kwargs = kwargs or {}
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._local.__dict__.setdefault("stack", [])
        parent = None
        if stack:
            parent, inherited = stack[-1]
            if epoch is None:
                epoch = inherited
        span_id = next(self._ids)
        stack.append((span_id, epoch))
        count = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            count = rows(result, args) if callable(rows) else rows
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, epoch,
                                   threading.get_ident(), count))

    def wrap(self, owner, attr: str, name, epoch=None, rows=None) -> None:
        """Replace ``owner.attr`` (a class's or an object's method) with
        a span-recording wrapper.  ``epoch``, when given, is a function
        of the call's positional arguments (``self`` first)."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            return tracer.call(
                name, original, args, kwargs,
                epoch=epoch(*args) if epoch is not None else None,
                rows=rows)

        wrapper.__wrapped__ = original
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def count_fsyncs(self) -> None:
        """Count every ``os.fsync`` the process makes while enabled."""
        original = os.fsync
        tracer = self

        def fsync(fd):
            if tracer.enabled:
                tracer.fsyncs += 1
            return original(fd)

        self._undo.append((os, "fsync", original))
        os.fsync = fsync

    def uninstall(self) -> None:
        """Put every wrapped method back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans) -> dict:
    """span id -> duration minus the durations of its direct children."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def busy_by_name(spans) -> dict:
    """span name -> summed self time."""
    own = self_times(spans)
    totals = defaultdict(float)
    for s in spans:
        totals[s.name] += own[s.id]
    return dict(totals)


def rows_by_name(spans) -> dict:
    """span name -> summed ``rows`` attribute.  A span nested directly
    inside one of the same name (a per-partition read inside the whole
    read) is skipped: its rows are already in its parent's."""
    names = {s.id: s.name for s in spans}
    totals = defaultdict(int)
    for s in spans:
        if s.rows is not None and names.get(s.parent) != s.name:
            totals[s.name] += s.rows
    return dict(totals)


def child_rows_by_name(spans) -> dict:
    """span name -> rows its spans *received*, i.e. the summed ``rows``
    of their direct children (for plan nodes: rows in)."""
    names = {s.id: s.name for s in spans}
    totals = defaultdict(int)
    for s in spans:
        if s.rows is not None and s.parent in names:
            totals[names[s.parent]] += s.rows
    return dict(totals)


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
#: Plan-node class -> span name.  The compiled stateless stage and the
#: static join are the ``sql`` layer; everything keyed is ``operators``.
NODE_SPANS = {
    "StatelessOp": "sql.stateless",
    "StreamStaticJoinOp": "sql.static_join",
    "StatefulAggregateOp": "operators.aggregate",
    "StreamStreamJoinOp": "operators.join",
    "WatermarkTrackOp": "operators.watermark",
    "StreamScanOp": "operators.scan",
}


def _rows_out(result, _args):
    return result.num_rows


def install(tracer: Tracer, sink_classes=()) -> None:
    """Wrap the engine's layer boundaries at class level, once per
    process, so engines rebuilt by a restart are traced too."""
    from repro.sources.cdc import ChangeStream
    from repro.sources.kafka import KafkaSource
    from repro.storage import SyncGroup
    from repro.streaming import operators as ops
    from repro.streaming.continuous import ContinuousEngine
    from repro.streaming.microbatch import MicrobatchEngine
    from repro.streaming.state import PendingStateWrite, StateStore
    from repro.streaming.wal import WriteAheadLog

    def version(_self, version, *rest):
        return version

    # An idle poll (no new data) returns None and is recorded with
    # ``rows=None``; the ledger counts those spans as idle time.
    tracer.wrap(MicrobatchEngine, "run_epoch", "engine.run_epoch",
                epoch=lambda engine: engine.next_epoch,
                rows=lambda progress, _args:
                None if progress is None else progress.input_rows)
    tracer.wrap(ContinuousEngine, "pipeline", "continuous.pipeline",
                rows=_rows_out)
    tracer.wrap(KafkaSource, "get_batch", "sources.read", rows=_rows_out)
    tracer.wrap(KafkaSource, "get_partition_batch", "sources.read",
                rows=_rows_out)
    tracer.wrap(ChangeStream, "get_batch", "sources.read", rows=_rows_out)
    for cls_name, span_name in NODE_SPANS.items():
        tracer.wrap(getattr(ops, cls_name), "process", span_name,
                    rows=_rows_out)
    tracer.wrap(StateStore, "commit_all", "state.commit", epoch=version)
    tracer.wrap(StateStore, "prepare_commit_all", "state.prepare",
                epoch=version)
    tracer.wrap(StateStore, "restore_all", "state.restore")
    tracer.wrap(PendingStateWrite, "execute", "state.write",
                epoch=lambda job, *rest: job.version)
    tracer.wrap(WriteAheadLog, "write_offsets", "wal.offsets", epoch=version)
    tracer.wrap(WriteAheadLog, "write_commit", "wal.commit", epoch=version)
    # Pipelined mode defers the WAL's (and the flusher's) fsyncs to
    # group syncs made outside any wrapped WAL method.
    tracer.wrap(SyncGroup, "sync", "storage.sync")
    for cls in sink_classes:
        if "add_batch" in cls.__dict__:
            tracer.wrap(cls, "add_batch", "sinks.write",
                        rows=lambda _result, args: args[2].num_rows)
        if "append_rows" in cls.__dict__:
            tracer.wrap(cls, "append_rows", "sinks.write",
                        rows=lambda _result, args: len(args[1]))
    tracer.count_fsyncs()
