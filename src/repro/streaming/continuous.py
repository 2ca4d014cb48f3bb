"""Continuous processing mode (§6.3).

Instead of scheduling an epoch job per trigger, the engine launches one
*long-lived* worker per input partition.  Each worker blocks on its
partition until a producer appends (``Source.wait_for_data``; sources
with no notifier are polled), polling only around the moment a steady
producer's next append is due, pushes the new records through the
compiled stateless pipeline and writes them to the sink immediately —
latency is a thread wake-up + per-chunk compute, not task-scheduling
overhead, and an idle query costs next to no CPU.  A master thread
periodically snapshots the workers' positions into the write-ahead log
as epochs (§6.3: "the master is not on the critical path"), so rollback
and restart still work; replay after a crash is at-least-once within
the last epoch.

Like the first released version in Spark 2.3, only *map-like* queries
are supported: projections, filters and stream-static joins — no shuffle
(stateful) operators.  The declarative API is what makes this engine
swappable for the microbatch one without changing user queries (the
paper's argument for API/execution separation).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import observability
from repro.observability import metrics, tracing
from repro.observability.metrics import Histogram
from repro.sources.base import POLL_INTERVAL
from repro.streaming import operators as ops
from repro.streaming.incrementalizer import incrementalize
from repro.streaming.operators import EpochContext
from repro.streaming.progress import EpochProgress, EpochReporter, backlog_rows
from repro.streaming.state import StateStore
from repro.streaming.wal import WriteAheadLog
from repro.streaming.watermark import WatermarkTracker
from repro.testing.faults import fault_point

#: Records a worker reads from its partition per chunk, at most.
MAX_CHUNK = 1024
#: Seconds either side of a partition's next expected append (the last
#: one plus the gap before it) in which a caught-up worker waits in
#: short ``POLL_INTERVAL`` slices; outside it, it blocks until an append
#: or ``stop()``.  A thread woken from a long block delivered ~0.15 ms
#: later than one polling (continuous_openloop, 2-vCPU VM), so a steady
#: producer's next append finds the worker awake.
POLL_LEAD = 0.001


class UnsupportedContinuousQueryError(Exception):
    """Raised for queries the continuous engine cannot run (non-map-like)."""


class _PartitionWorker:
    """Long-lived operator instance for one input partition."""

    def __init__(self, engine: "ContinuousEngine", partition: str, start_offset: int):
        self.engine = engine
        self.partition = partition
        self.position = start_offset
        self.rows_written = 0
        self._span_name = f"chunk:{partition}"
        self._thread = threading.Thread(
            target=self._run, name=f"continuous-{partition}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def join(self) -> None:
        """Wake the worker until it exits, for at most 10 s: a wake that
        lands between its stop check and its wait is lost."""
        deadline = time.monotonic() + 10
        while self._thread.is_alive() and time.monotonic() < deadline:
            self.engine.source.wake(self.partition)
            self._thread.join(0.005)

    def _run(self) -> None:
        engine = self.engine
        source = engine.source
        schema = engine.plan.read_schemas.get(engine.source_name)
        last = expected = 0.0
        try:
            while not engine._stop_event.is_set():
                end = source.latest_offsets().get(self.partition, self.position)
                if end <= self.position:
                    ahead = expected - time.monotonic()
                    if ahead > POLL_LEAD:
                        timeout = ahead - POLL_LEAD
                    elif ahead > -POLL_LEAD:
                        timeout = POLL_INTERVAL
                    else:
                        timeout = engine.epoch_interval
                    # An append or stop() (via join) ends the wait early.
                    source.wait_for_data(self.partition, self.position, timeout)
                    continue
                now = time.monotonic()
                expected = now + (now - last) if last else now
                last = now
                hi = min(end, self.position + MAX_CHUNK)
                with tracing.trace_span(self._span_name):
                    batch = source.get_partition_batch(
                        self.partition, self.position, hi, schema)
                    out = engine.pipeline(batch)
                    if out.num_rows:
                        engine.sink.append_batch(out)
                        engine.record_latency(out)
                metrics.count("continuous.chunks")
                metrics.count("continuous.rows_out", out.num_rows)
                self.rows_written += out.num_rows
                self.position = hi
        except Exception as exc:
            # Surface the failure to the query handle instead of dying
            # silently; the paper's model simply relaunches the task, but
            # a deterministic error (bad UDF) must reach the user (§7.1).
            engine._worker_error = exc
            engine._stop_event.set()


class ContinuousEngine:
    """Continuous-mode execution of a map-like streaming query."""

    def __init__(self, plan, sink, output_mode: str, checkpoint_dir: str,
                 epoch_interval: float = 1.0, latency_column: str = None):
        if output_mode != "append":
            raise UnsupportedContinuousQueryError(
                "continuous processing supports append mode only"
            )
        self.sink = sink
        self.output_mode = output_mode
        self.epoch_interval = epoch_interval

        # Continuous workers each own their input partition and run
        # map-like pipelines only, so the state store stays empty.
        self.state_store = StateStore(checkpoint_dir)
        self.plan = incrementalize(plan, output_mode, self.state_store)
        if self.plan.stateful_ops:
            raise UnsupportedContinuousQueryError(
                "continuous processing supports map-like queries only "
                "(no aggregations/joins between streams/stateful ops), "
                "as in Spark 2.3 (§6.3)"
            )
        if len(self.plan.sources) != 1:
            raise UnsupportedContinuousQueryError(
                "continuous processing supports exactly one input stream"
            )
        if not hasattr(sink, "append_rows"):
            raise UnsupportedContinuousQueryError(
                f"sink {type(sink).__name__} does not support continuous "
                "writes (needs append_rows)"
            )
        self.sink.set_key_names(self.plan.key_names)

        self.source_name, descriptor = self.plan.sources[0]
        self.source = descriptor.create()
        self.sources = {self.source_name: self.source}
        self.watermarks = WatermarkTracker(self.plan.watermark_delays)

        #: Per-record event-time -> sink latency (§9.3's headline metric).
        #: Recorded vectorized per chunk against ``latency_column`` (a
        #: ``time.monotonic`` stamp): explicitly
        #: via ``.option("latency_column", ...)``, or auto-detected from
        #: a ``publish_time``/``send_time`` output column while the
        #: observability layer is enabled.  p50/p95/p99 surface through
        #: EpochProgress and the monitor CLI.
        self.latency_histogram = Histogram("continuous.record_latency_seconds")
        self._latency_explicit = latency_column is not None
        names = set(self.plan.root.output_schema.names)
        if latency_column is not None:
            if latency_column not in names:
                raise ValueError(
                    f"latency_column {latency_column!r} is not an output "
                    f"column (have {sorted(names)})"
                )
            self._latency_col = latency_column
        else:
            self._latency_col = next(
                (c for c in ("publish_time", "send_time") if c in names), None)

        #: The epoch reporter (§7.4), as the microbatch engine's: created
        #: before the WAL attaches so a crash during metadata write or
        #: recovery still leaves a postmortem naming the configuration.
        self.progress = EpochReporter(checkpoint_dir, "continuous", config={
            "output_mode": output_mode, "epoch_interval": epoch_interval,
            "latency_column": self._latency_col})

        self._stop_event = threading.Event()
        self._workers = []
        self._master = None
        self._rows_reported = 0
        #: Set by a worker whose pipeline raised; re-raised to callers.
        self._worker_error = None
        self.next_epoch = 0
        #: Pre-bound chunk pipeline over the compiled operators: built
        #: once here, so the per-chunk hot path allocates no
        #: EpochContext and does no operator-tree dispatch (§6.3's
        #: "compiled stateless pipeline").  None -> EpochContext path.
        self._chunk_fn = self._build_chunk_pipeline(self.plan.root)
        self._start_offsets = self.source.initial_offsets()
        try:
            self.wal = WriteAheadLog(checkpoint_dir)
            self.wal.write_metadata(
                {"output_mode": output_mode, "mode": "continuous"})
            self.progress.open_log()
            self._recover()
        except Exception as exc:
            self.progress.flightrec.dump("init-crash", error=exc,
                                         epoch=self.next_epoch)
            self.progress.close()
            raise

    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Resume from the last committed epoch's end offsets."""
        last = self.wal.latest_committed_epoch()
        if last is None:
            return
        entry = self.wal.read_offsets(last)
        self._start_offsets = dict(entry["sources"][self.source_name]["end"])
        self.next_epoch = last + 1

    def _build_chunk_pipeline(self, op):
        """Bind the map-like operator tree into one chunk closure.

        Every supported operator shape gets a direct call path — the
        compiled StatelessOp pipeline, watermark observation, the
        delta-vs-static join — with no per-chunk context object.
        Returns ``None`` for shapes that still need the generic
        EpochContext path (e.g. unions with a static side).
        """
        if isinstance(op, ops.StreamScanOp):
            return lambda batch: batch
        if isinstance(op, ops.StatelessOp):
            inner = self._build_chunk_pipeline(op.child)
            if inner is None:
                return None
            return lambda batch: op.apply(inner(batch))
        if isinstance(op, ops.WatermarkTrackOp):
            inner = self._build_chunk_pipeline(op.child)
            if inner is None:
                return None
            watermarks = self.watermarks
            column = op.column

            def run_watermark(batch):
                batch = inner(batch)
                watermarks.observe_values(column, batch.columns[column])
                return batch

            return run_watermark
        if isinstance(op, ops.StreamStaticJoinOp):
            inner = self._build_chunk_pipeline(op.stream)
            if inner is None:
                return None
            return lambda batch: op.join_delta(inner(batch))
        return None

    def pipeline(self, batch):
        """Run one chunk through the stateless operator tree."""
        if self._chunk_fn is not None:
            return self._chunk_fn(batch)
        ctx = EpochContext(
            epoch_id=self.next_epoch,
            inputs={self.source_name: batch},
            watermarks=self.watermarks,
            processing_time=time.time(),
            output_mode=self.output_mode,
        )
        return self.plan.root.process(ctx)

    def record_latency(self, batch) -> None:
        """Record per-record delivery latency for one written chunk.

        Vectorized (one subtraction + bucket count per chunk); a no-op
        unless a latency column was resolved and either it was explicit
        or the observability layer is enabled — the continuous hot path
        stays untouched when monitoring is off.
        """
        column = self._latency_col
        if column is None or not (
                self._latency_explicit or observability.active()):
            return
        now = time.monotonic()
        lags = now - np.asarray(batch.columns[column], dtype=np.float64)
        self.latency_histogram.record_many(np.maximum(lags, 0.0))
        registry = metrics.active()
        if registry is not None and registry.metric(
                self.latency_histogram.name) is not self.latency_histogram:
            registry.register(self.latency_histogram)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the per-partition workers and the epoch master."""
        for partition in self.source.partitions():
            worker = _PartitionWorker(
                self, partition, self._start_offsets.get(partition, 0)
            )
            self._workers.append(worker)
            worker.start()
        self._master = threading.Thread(
            target=self._master_loop, name="continuous-master", daemon=True
        )
        self._master.start()

    def _master_loop(self) -> None:
        """Periodically snapshot worker positions as committed epochs.

        The master asks for the workers' current positions, logs them as
        the epoch's end offsets, and commits — workers never block on it.
        A failure here (e.g. the WAL write dying) must reach the query
        handle like a worker failure would; before this was captured, a
        master crash killed the thread silently and the query hung with
        epochs no longer being committed.
        """
        try:
            while not self._stop_event.wait(self.epoch_interval):
                self._commit_epoch()
            self._commit_epoch()  # final epoch on shutdown
        except Exception as exc:
            self._worker_error = exc
            self._stop_event.set()

    def _commit_epoch(self) -> None:
        positions = {w.partition: w.position for w in self._workers}
        if all(positions[p] == self._start_offsets.get(p, 0) for p in positions):
            return  # nothing processed since the last epoch
        epoch = self.next_epoch
        trigger_time = time.time()
        started = time.perf_counter()
        with tracing.trace_span("epoch-marker", epoch=epoch):
            fault_point("continuous.commit_epoch", epoch=epoch)
            self.wal.write_offsets(epoch, {
                "sources": {
                    self.source_name: {
                        "start": dict(self._start_offsets), "end": positions
                    }
                },
                "watermarks": self.watermarks.to_json(),
                "trigger_time": trigger_time,
            })
            fault_point("continuous.after_offsets", epoch=epoch)
            self.wal.write_commit(epoch)
        input_rows = sum(
            positions[p] - self._start_offsets.get(p, 0) for p in positions
        )
        self._start_offsets = positions
        self.next_epoch = epoch + 1
        total_written = sum(w.rows_written for w in self._workers)
        output_rows = total_written - self._rows_reported
        self._rows_reported = total_written
        self.progress.report(EpochProgress(
            epoch_id=epoch,
            trigger_time=trigger_time,
            duration_seconds=time.perf_counter() - started,
            input_rows=input_rows,
            output_rows=output_rows,
            backlog_rows=backlog_rows(self.source, positions),
            state_keys=0,
            late_rows_dropped=0,
            latency_percentiles=self.latency_histogram.percentiles_json(),
        ))

    def run_epoch(self):
        """Interval-trigger entry point (no-op: workers run continuously)."""
        self._raise_worker_error()
        return None

    def run_available(self):
        """Block until the source is drained (workers keep running)."""
        while backlog_rows(self.source, {w.partition: w.position
                                         for w in self._workers}):
            self._raise_worker_error()
            time.sleep(0.001)
        self._raise_worker_error()
        return []

    def _raise_worker_error(self) -> None:
        if self._worker_error is not None:
            # Identity-deduped inside the recorder, so the repeated
            # re-raises (run_epoch, run_available, stop) dump once.
            self.progress.flightrec.dump("worker-crash",
                                         error=self._worker_error,
                                         epoch=self.next_epoch)
            raise self._worker_error

    def stop(self) -> None:
        """Stop workers and the master; commits a final epoch."""
        self._stop_event.set()
        for worker in self._workers:
            worker.join()
        if self._master is not None:
            self._master.join(timeout=10)
        self.progress.close()
        self._raise_worker_error()
