"""Microbatch execution engine (§6.1–§6.2).

Each epoch follows Figure 4's protocol exactly:

1. the master picks start/end offsets per source and writes them to the
   write-ahead log *before* processing;
2. the incremental operator tree processes the epoch's new data,
   updating operator state;
3. the (idempotent) sink receives the epoch's output;
4. the commit log records the epoch; state checkpoints to the state
   store (possibly less often than every epoch).

Recovery (:meth:`MicrobatchEngine._recover`) is §6.1 step 4: restore the
newest state checkpoint, replay logged epochs with output disabled to
rebuild state, then re-run the at-most-one uncommitted epoch relying on
sink idempotence.

Adaptive batching (§7.3) falls out of the design: an epoch consumes
*all* data accumulated since the previous one (optionally capped), so a
backlogged query automatically runs larger epochs until it catches up.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from dataclasses import asdict

from repro import observability
from repro.observability import bottleneck as bottleneck_model
from repro.observability import metrics, tracing
from repro.sql.batch import RecordBatch
from repro.sql.types import WEIGHT_COLUMN
from repro.storage import SyncGroup, deferred_fsync
from repro.streaming.config import EngineConfig
from repro.streaming.incrementalizer import incrementalize
from repro.streaming.operators import EpochContext
from repro.streaming.progress import EpochProgress, EpochReporter, backlog_rows
from repro.streaming.state import StateStore, write_checkpoint
from repro.streaming.wal import WriteAheadLog
from repro.streaming.watermark import WatermarkTracker
from repro.testing.faults import fault_point


def _capped_ends(start: dict, latest: dict, budget: int) -> dict:
    """End offsets reading at most ``budget`` records of ``[start,
    latest)``: each partition gets the floor of its backlog's pro-rata
    share (Spark's ``maxOffsetsPerTrigger``), and the records the floors
    leave over go one each to the largest remainders, ties in sorted
    partition order.  A greedy split in partition order would starve the
    later partitions, whose rows then arrive behind the watermark."""
    backlog = {p: max(latest[p] - start.get(p, 0), 0) for p in sorted(latest)}
    total = sum(backlog.values())
    if total <= budget:
        return {p: start.get(p, 0) + n for p, n in backlog.items()}
    take = {p: n * budget // total for p, n in backlog.items()}
    leftover = budget - sum(take.values())
    by_remainder = sorted(backlog, key=lambda p: -(backlog[p] * budget % total))
    for p in by_remainder[:leftover]:
        take[p] += 1
    return {p: start.get(p, 0) + take[p] for p in backlog}


class _AsyncStateFlusher:
    """Background writer for pipelined state checkpoints (§6.1).

    The engine thread captures each epoch's checkpoint synchronously
    (:meth:`StateStore.prepare_commit_all`) and submits the write jobs
    here; this thread runs the engine's one write loop over them
    (:func:`write_checkpoint`) under a shared :class:`SyncGroup`,
    fsyncing the state directories only every
    ``STATE_SYNC_EVERY`` versions (or at drain/stop) — a lagging state
    *file* is always recoverable by WAL replay, so its durability window
    may span a few epochs while the WAL's may not.

    Error contract: the first failure (including an injected
    ``CrashPoint``) permanently halts the flusher, modeling the writer
    dying mid-checkpoint; the engine re-raises it at the next epoch
    boundary, from where it reaches ``StreamingQuery.exception``.
    """

    #: State-directory fsync cadence, in commit batches.  Bounds the
    #: renamed-but-unsynced window to a few versions of replayable
    #: state while cutting steady-state fsyncs per epoch below one.
    STATE_SYNC_EVERY = 8

    def __init__(self, owner):
        self._owner_ref = weakref.ref(owner)
        self.group = SyncGroup()
        self._cv = threading.Condition()
        self._queue = deque()
        self._busy = False
        self._stopping = False
        self._thread = None
        self._error = None
        self._unsynced = 0

    @property
    def error(self):
        return self._error

    def submit(self, version: int, jobs: list) -> None:
        """Queue one version's write jobs (engine thread)."""
        with self._cv:
            if self._error is not None or self._stopping:
                return  # surfaced at the next epoch boundary
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="state-flusher", daemon=True)
                self._thread.start()
            self._queue.append((version, jobs))
            metrics.set_gauge("pipeline.flusher_queue", len(self._queue))
            self._cv.notify_all()

    def drain(self) -> None:
        """Block until every queued job is written (or the flusher
        halted on an error — the caller checks ``error`` after)."""
        with self._cv:
            while (self._queue or self._busy) and self._error is None:
                self._cv.wait(timeout=1.0)

    def stop(self) -> None:
        """Drain, final-sync, and join (idempotent; engine thread)."""
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        if self._error is None:
            self.group.sync()

    def _loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._stopping:
                    self._cv.wait(timeout=5.0)
                    if self._owner_ref() is None and not self._queue:
                        return
                if not self._queue:
                    return  # stopping and drained
                version, jobs = self._queue.popleft()
                self._busy = True
            try:
                with tracing.trace_span("flusher:state-commit",
                                        version=version):
                    write_checkpoint(jobs, self.group)
                self._unsynced += 1
                if self._unsynced >= self.STATE_SYNC_EVERY:
                    self.group.sync()
                    self._unsynced = 0
                with self._cv:
                    self._busy = False
                    metrics.set_gauge("pipeline.flusher_queue",
                                      len(self._queue))
                    metrics.set_gauge("pipeline.flushed_version", version)
                    self._cv.notify_all()
            except BaseException as exc:
                with self._cv:
                    self._error = exc
                    self._busy = False
                    self._queue.clear()
                    self._cv.notify_all()
                return


#: The clock stage timings read, looked up on every phase: replacing it
#: drives a phase's measured seconds without real delays.
phase_clock = time.perf_counter


class _Phase:
    """Span + stage-timing bracket around one epoch phase (§7.4).

    Combines a ``trace_span`` (no-op when tracing is off) with an entry
    in the epoch's ``stage_timings`` dict (skipped when ``timings`` is
    None, i.e. observability disabled) so each phase costs one branch
    plus a null context manager on the disabled path.
    """

    __slots__ = ("name", "timings", "span", "start")

    def __init__(self, name: str, timings):
        self.name = name
        self.timings = timings
        self.span = tracing.trace_span(name)

    def __enter__(self) -> "_Phase":
        self.span.__enter__()
        if self.timings is not None:
            self.start = phase_clock()
        return self

    def __exit__(self, *exc) -> None:
        if self.timings is not None:
            self.timings[self.name] = (
                self.timings.get(self.name, 0.0)
                + phase_clock() - self.start
            )
        self.span.__exit__(*exc)


class MicrobatchEngine:
    """Drives one streaming query in microbatch mode."""

    #: Pipelined mode: WAL group-sync cadence in epochs.  Adjacent
    #: epochs' offsets/commit (and file-sink) fsyncs batch through one
    #: directory-fsync round every this many epochs; idle drains and
    #: stop() always sync, so a query that catches up with its input is
    #: fully durable.  The unsynced window is a renamed-but-unfsynced
    #: WAL suffix — on a real power loss recovery replays from the last
    #: durable prefix and the idempotent sink absorbs re-delivery, the
    #: same contract async state checkpointing already relies on.
    WAL_SYNC_EVERY = 4

    def __init__(self, plan, sink, output_mode: str, checkpoint_dir: str,
                 config: EngineConfig, clock=time.time):
        self.sink = sink
        self.output_mode = output_mode
        self.clock = clock
        #: The resolved knobs this engine runs with (see
        #: :mod:`repro.streaming.config`).
        self.config = config
        #: Pipelined durability: async state flusher + group-commit WAL.
        #: Both modes run one epoch body; ``tests/test_mode_equivalence.py``
        #: checks that they write the same checkpoints and sink output.
        self.pipelined = config.pipeline
        self.state_store = None

        #: The epoch reporter (§7.4).  Created first so even an
        #: init/recovery failure leaves a postmortem behind — one that
        #: names the configuration.
        self.progress = EpochReporter(checkpoint_dir, "microbatch",
                                      config=asdict(config))
        try:
            self._init_engine(plan, sink, output_mode, checkpoint_dir)
        except Exception as exc:
            self.progress.flightrec.dump(
                "init-crash", error=exc,
                epoch=getattr(self, "next_epoch", None))
            self._release()
            raise

    def _init_engine(self, plan, sink, output_mode, checkpoint_dir) -> None:
        """The crash-recorded part of construction: plan compilation, WAL
        attachment and recovery — where injected faults (and real restart
        bugs) can fire before the first epoch ever runs."""
        config = self.config
        self.state_store = StateStore(
            checkpoint_dir, backend=config.state_backend,
            memtable_bytes=config.state_memtable_bytes)
        with tracing.trace_span("plan-compile"):
            self.plan = incrementalize(plan, output_mode, self.state_store)
        self.sink.set_key_names(self.plan.key_names)
        if output_mode not in sink.supported_modes:
            raise ValueError(
                f"sink {type(sink).__name__} does not support output mode "
                f"{output_mode!r} (supports {sink.supported_modes})"
            )

        self.wal = WriteAheadLog(checkpoint_dir)
        existing = self.wal.read_metadata()
        if existing and existing.get("output_mode") not in (None, output_mode):
            raise ValueError(
                f"checkpoint {checkpoint_dir!r} was written by a query in "
                f"{existing['output_mode']!r} mode; restarting it in "
                f"{output_mode!r} mode would corrupt the sink contract "
                "(use a fresh checkpoint directory)"
            )
        self.wal.write_metadata({"output_mode": output_mode})
        self.watermarks = WatermarkTracker(self.plan.watermark_delays)
        self.progress.open_log()

        #: Live sources, created from descriptors ("re-attach" on restart).
        self.sources = {name: desc.create() for name, desc in self.plan.sources}
        self._start_offsets = {
            name: source.initial_offsets() for name, source in self.sources.items()
        }
        self.next_epoch = 0
        #: What ``write_offsets`` / ``write_commit`` / ``deferred_fsync``
        #: take: None makes every write fsync itself (sequential), and
        #: no flusher writes state inline.
        self._wal_group = self._flusher = None
        self._wal_unsynced = 0
        self._async_error_raised = False
        # Recovery runs before the pipelined machinery exists, so it
        # stays fully synchronous in either mode: it runs once, off the
        # hot path, and the engine must not observe a half-flushed
        # checkpoint of its own making.
        self._recover()
        if self.pipelined:
            self._wal_group = SyncGroup()
            self._flusher = _AsyncStateFlusher(self)

    def _release(self) -> None:
        """Close what the engine itself opened: the event-log handle and
        the state handles' run files (idempotent; also the init-failure
        path)."""
        self.progress.close()
        if self.state_store is not None:
            self.state_store.close()

    def stop(self) -> None:
        """Release engine resources (idempotent); called by query.stop.

        In pipelined mode this is the restart barrier: the flusher
        drains every queued state write and the WAL sync group gets its
        final directory fsync — after which the checkpoint on disk is
        indistinguishable from a sequential run's.  A failure captured
        by the flusher that was never seen at an epoch boundary is
        re-raised here (once), so it still reaches
        ``StreamingQuery.exception``.
        """
        async_error = None
        if self.pipelined:
            self._flusher.stop()
            async_error = self._flusher.error
            if async_error is None:
                self._wal_group.sync()
        self._release()
        if async_error is not None and not self._async_error_raised:
            self._async_error_raised = True
            self.progress.flightrec.dump("async-crash", error=async_error,
                                         epoch=self.next_epoch)
            raise async_error

    # ------------------------------------------------------------------
    # Recovery (§6.1 step 4)
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        last = self.wal.latest_logged_epoch()
        if last is None:
            return
        committed = self.wal.is_committed(last)
        target = last if committed else last - 1

        restored = self.state_store.restore_all(target) if target >= 0 else None
        replay_from = 0 if restored is None else restored + 1

        # Rebuild state by replaying logged epochs with output disabled
        # ("loading the old state and running those epochs with the same
        # offsets while disabling output").
        for epoch in range(replay_from, target + 1):
            self._run_logged_epoch(epoch, output_enabled=False)
        if replay_from <= target:
            self._commit_state(target)

        if not committed:
            # At most one epoch may be partially written; re-run it and
            # let the idempotent sink deduplicate.
            self._run_logged_epoch(last, output_enabled=True)
            self.wal.write_commit(last, {"watermarks": self.watermarks.to_json()})
            self._commit_state(last)
        elif replay_from > target:
            # No replay happened; the post-epoch watermark state was
            # recorded in the commit entry.
            commit = self.wal.read_commit(last)
            self.watermarks.load_json(commit.get("watermarks", {}))

        entry = self.wal.read_offsets(last)
        for name, rng in entry["sources"].items():
            self._start_offsets[name] = rng["end"]
        self.next_epoch = last + 1

    def _run_logged_epoch(self, epoch: int, output_enabled: bool) -> None:
        """Re-execute an epoch exactly as logged in the WAL: its offsets
        are read rather than written, and output is on only for the
        epoch that may be partially delivered."""
        entry = self.wal.read_offsets(epoch)
        self.watermarks.load_json(entry.get("watermarks", {}))
        ctx, result = self._process(
            epoch, entry["sources"], entry.get("trigger_time", self.clock()),
            output_enabled)
        self._deliver(ctx, result, entry["sources"])

    def _process(self, epoch: int, ranges: dict, trigger_time: float,
                 output_enabled: bool = True, timings=None):
        """Figure 4's step 2, live or replayed: read the epoch's input
        ranges and run the incremental plan; returns its context and
        result."""
        with _Phase("read-inputs", timings):
            inputs = {
                name: self.sources[name].get_batch(
                    rng["start"], rng["end"], self.plan.read_schemas.get(name))
                for name, rng in ranges.items()
            }
        ctx = EpochContext(
            epoch_id=epoch,
            inputs=inputs,
            watermarks=self.watermarks,
            processing_time=trigger_time,
            output_mode=self.output_mode,
            output_enabled=output_enabled,
            is_first_epoch=epoch == 0,
        )
        with _Phase("process", timings):
            result = self.plan.root.process(ctx)
        return ctx, result

    def _deliver(self, ctx, result, ranges: dict, timings=None):
        """Figure 4's step 3, live or replayed: the idempotent sink write
        when output is on, then the watermarks advance.  Returns the
        epoch's ingest floor, when one was needed.

        End-to-end event-time lag (§7.4) starts at the oldest
        source-ingest timestamp the epoch consumed.  It is announced to
        cascade-aware sinks *before* delivery, so a downstream
        StreamTable can propagate the original (bronze) ingest time;
        trigger time is the fallback floor when no source tracks ingest.
        """
        ingest_floor = None
        if ctx.output_enabled:
            note_ingest = getattr(self.sink, "note_epoch_ingest", None)
            if timings is not None or note_ingest is not None:
                ingest_floor = self._epoch_ingest_floor(ranges)
            if note_ingest is not None:
                note_ingest(ctx.epoch_id, ingest_floor
                            if ingest_floor is not None
                            else ctx.processing_time)
            with _Phase("sink-write", timings), \
                    deferred_fsync(self._wal_group):
                self.sink.add_batch(ctx.epoch_id, result, self.output_mode)
        self.watermarks.advance()
        return ingest_floor

    def _commit_state(self, version: int) -> None:
        """Figure 4's step 4's state checkpoint: prepared on this thread,
        then written by the one write loop — inline, or on the pipelined
        flusher while the next epoch runs."""
        if self._flusher is None:
            write_checkpoint(self.state_store.prepare_commit_all(version))
        else:
            self._flusher.submit(version, self.state_store.prepare_commit_all(
                version, self._flusher.group))

    # ------------------------------------------------------------------
    # Normal epoch execution
    # ------------------------------------------------------------------
    def _available_end_offsets(self) -> dict:
        """End offsets for the next epoch: everything available, or at
        most ``max_records_per_epoch`` records of it per source, split
        across partitions in proportion to their backlogs."""
        max_records = self.config.max_records_per_epoch
        ends = {}
        for name, source in self.sources.items():
            latest = source.latest_offsets()
            if max_records is not None:
                latest = _capped_ends(
                    self._start_offsets[name], latest, max_records)
            ends[name] = latest
        return ends

    def _epoch_ingest_floor(self, ranges: dict):
        """Oldest source-ingest timestamp across this epoch's input
        ranges, or None when no source tracks ingest (the protocol is
        optional: sources expose ``ingest_floor(start, end)``)."""
        floor = None
        for name, source in self.sources.items():
            probe = getattr(source, "ingest_floor", None)
            if probe is None:
                continue
            ts = probe(ranges[name]["start"], ranges[name]["end"])
            if ts is not None and (floor is None or ts < floor):
                floor = ts
        return floor

    def _has_new_data(self, ends: dict) -> bool:
        for name, end in ends.items():
            start = self._start_offsets[name]
            if any(end[p] > start.get(p, 0) for p in end):
                return True
        return False

    def _has_pending_timeouts(self) -> bool:
        now = self.clock()
        return any(op.has_pending_timeout(now) for op in self.plan.stateful_ops)

    def _raise_async_error(self) -> None:
        """Re-raise the flusher's first failure on the engine thread,
        from where it reaches ``StreamingQuery.exception``."""
        if self._flusher is not None and self._flusher.error is not None:
            self._async_error_raised = True
            raise self._flusher.error

    def run_epoch(self):
        """Run one epoch if there is work; returns EpochProgress or None.

        "Work" is new input data or an expired processing-time timeout in
        a stateful operator.  Any failure — the epoch's own, or the
        background flusher's surfacing at this boundary — dumps the
        flight recorder as ``postmortem.json`` before propagating.
        """
        try:
            return self._run_epoch()
        except Exception as exc:
            self.progress.flightrec.dump("epoch-crash", error=exc,
                                         epoch=self.next_epoch)
            raise

    def _run_epoch(self):
        # A background failure surfaces here, at the epoch boundary —
        # the harness treats that like a crash at this point.
        self._raise_async_error()
        ends = self._available_end_offsets()
        if not self._has_new_data(ends) and not self._has_pending_timeouts():
            if self.pipelined:
                # Idle drain: queued state writes complete and the WAL
                # tail (the previous epoch's commit entry) becomes
                # durable now instead of riding the next epoch's group
                # sync, so process_all_available() leaves a fully
                # materialized checkpoint — identical to a sequential
                # engine's.
                self._flusher.drain()
                self._raise_async_error()
                self._wal_group.sync()
            return None

        epoch = self.next_epoch
        with tracing.trace_span("epoch", epoch=epoch):
            progress = self._execute_epoch(epoch, ends)
        self.progress.report(progress)
        return progress

    def _execute_epoch(self, epoch: int, ends: dict) -> EpochProgress:
        """One epoch's Figure-4 protocol, with per-phase instrumentation.

        Pipelined and sequential epochs run the same steps in the same
        rename order; ``self._wal_group`` decides whether each write
        fsyncs itself or defers to the group's next sync.
        """
        trigger_time = self.clock()
        started = time.perf_counter()
        # Stage timings (and per-operator metrics) are only collected
        # while observability is enabled; None keeps every _Phase to a
        # single branch and omits the sections from events.jsonl.
        timings = {} if observability.active() else None
        fault_point("epoch.begin", epoch=epoch)

        # (1) Log the epoch's offsets before touching any data.
        ranges = {
            name: {"start": self._start_offsets[name], "end": ends[name]}
            for name in self.sources
        }
        with _Phase("wal-offsets", timings):
            self.wal.write_offsets(epoch, {
                "sources": ranges,
                "watermarks": self.watermarks.to_json(),
                "trigger_time": trigger_time,
            }, group=self._wal_group)
        fault_point("epoch.after_offsets", epoch=epoch)

        # (2) Read the epoch's new data and run the incremental plan.
        ctx, result = self._process(epoch, ranges, trigger_time,
                                    timings=timings)
        fault_point("epoch.after_process", epoch=epoch)

        # Group-commit barrier: every WAL_SYNC_EVERY epochs, everything
        # renamed since the last sync — offsets and commit entries of
        # the adjacent epochs, lagging sink files — becomes durable
        # through one fsync per touched directory.
        if self.pipelined:
            self._wal_unsynced += 1
            if self._wal_unsynced >= self.WAL_SYNC_EVERY:
                with _Phase("group-sync", timings):
                    self._wal_group.sync()
                self._wal_unsynced = 0

        # (3) Idempotent sink write.
        ingest_floor = self._deliver(ctx, result, ranges, timings)
        fault_point("epoch.after_sink", epoch=epoch)

        # (4) Commit entry, then the state checkpoint.
        with _Phase("wal-commit", timings):
            self.wal.write_commit(
                epoch, {"watermarks": self.watermarks.to_json()},
                group=self._wal_group)
        fault_point("epoch.after_commit", epoch=epoch)
        if epoch % self.config.state_checkpoint_interval == 0:
            with _Phase("state-commit", timings):
                self._commit_state(epoch)
        if self.pipelined and self.config.retain_epochs is not None:
            # Retention scans the on-disk state directory; wait for
            # queued writes so the horizon computation is deterministic.
            with _Phase("flusher-wait", timings):
                self._flusher.drain()
            self._raise_async_error()
        self._enforce_retention(epoch)

        for name, source in self.sources.items():
            source.commit(ends[name])
            self._start_offsets[name] = ends[name]
        self.next_epoch = epoch + 1
        return self._epoch_progress(ctx, result, ranges, timings, ingest_floor,
                                    time.perf_counter() - started)

    def _epoch_progress(self, ctx, result, ranges, timings, ingest_floor,
                        duration) -> EpochProgress:
        """Describe a finished epoch (§7.4); the reporter derives the
        engine's metrics from it.  Nothing here is part of the protocol."""
        event_lag = None
        if timings is not None and ingest_floor is not None:
            event_lag = max(0.0, self.clock() - ingest_floor)
        output_net = None
        if WEIGHT_COLUMN in result.columns:
            output_net = int(result.columns[WEIGHT_COLUMN].sum())
        return EpochProgress(
            epoch_id=ctx.epoch_id,
            trigger_time=ctx.processing_time,
            duration_seconds=duration,
            input_rows=sum(batch.num_rows for batch in ctx.inputs.values()),
            output_rows=result.num_rows,
            # Past this epoch's end offsets, now the next one's start.
            backlog_rows=sum(
                backlog_rows(source, self._start_offsets[name])
                for name, source in self.sources.items()),
            state_keys=self.state_store.total_keys(),
            state_rows=self.state_store.total_rows(),
            late_rows_dropped=ctx.metrics["late_rows_dropped"],
            watermarks={
                c: self.watermarks.current(c)
                for c in self.watermarks.columns
            },
            sources=ranges,
            stage_timings=timings or {},
            operator_metrics=ctx.op_metrics,
            output_rows_net=output_net,
            event_time_lag_seconds=event_lag,
            bottleneck=(bottleneck_model.summary(timings, ctx.op_metrics)
                        if timings else {}),
        )

    def _enforce_retention(self, epoch: int) -> None:
        """GC state checkpoints and WAL entries beyond the rollback
        horizon.  Kept conservative: WAL entries are only purged below
        the oldest version the state store can still restore, so
        recovery and rollback to any retained epoch keep working."""
        if self.config.retain_epochs is None:
            return
        horizon = epoch - self.config.retain_epochs
        if horizon <= 0:
            return
        self.state_store.prune_all(horizon)
        oldest = self.state_store.oldest_restorable_version()
        if oldest is not None:
            self.wal.purge_before(min(horizon, oldest) + 1)
        elif not self.plan.stateful_ops:
            # Stateless queries need no state to replay: WAL retention
            # is bounded by the horizon alone.
            self.wal.purge_before(horizon + 1)

    def run_available(self):
        """Run epochs until the input is drained; returns progress list."""
        results = []
        while True:
            progress = self.run_epoch()
            if progress is None:
                return results
            results.append(progress)

    def empty_result(self) -> RecordBatch:
        """An empty output batch (schema carrier)."""
        return RecordBatch.empty(self.plan.root.output_schema)
