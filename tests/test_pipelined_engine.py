"""Pipelined epoch execution: async state flusher, group-commit WAL.

The sequential engine is the golden reference — pipelined mode must
produce byte-identical checkpoints and sink output across backends,
while doing strictly fewer fsyncs.  Background-thread
failures must surface through the same ``StreamingQuery.exception`` /
raise surfaces a synchronous failure uses.
"""

from __future__ import annotations

import os

import pytest

from repro.observability import metrics
from repro.sinks.file import TransactionalFileSink
from repro.sinks.memory import MemorySink
from repro.sql import functions as F
from repro.sql.session import Session
from repro.sources.memory import MemoryStream
from repro.sql.types import StructType
from repro.streaming.wal import WriteAheadLog
from repro.testing.faults import CrashPoint, Fault, FaultInjector, injected
from repro.testing.harness import checkpoint_fingerprint

from tests.conftest import make_stream, rows_set

SCHEMA = (("k", "string"), ("v", "long"))


def _agg_df(session, stream):
    return (session.read_stream.memory(stream)
            .group_by("k").agg(F.sum("v").alias("total")))


def _drive(query, stream, epochs, rows_per_epoch=3):
    for i in range(epochs):
        stream.add_data([
            {"k": f"k{j % 4}", "v": i * rows_per_epoch + j}
            for j in range(rows_per_epoch)
        ])
        query.process_all_available()


def _run_agg(tmp_path, pipeline, tag, epochs=10, backlog=0, **options):
    """``backlog`` > 0 publishes that many rows up front and drains them
    one record per epoch, so epochs run back to back with no idle drain
    between them; otherwise each epoch is one add-then-drain."""
    session = Session()
    stream = make_stream(SCHEMA)
    cp = str(tmp_path / f"cp-{tag}")
    writer = (_agg_df(session, stream).write_stream.format("memory")
              .query_name(f"q-{tag}").output_mode("update")
              .option("pipeline", pipeline))
    if backlog:
        options["max_records_per_epoch"] = 1
    for key, value in options.items():
        writer = writer.option(key, value)
    query = writer.start(cp)
    if backlog:
        stream.add_data([{"k": f"k{i % 4}", "v": i} for i in range(backlog)])
        query.process_all_available()
        assert query.engine.next_epoch == backlog
    else:
        _drive(query, stream, epochs)
    query.stop()
    return checkpoint_fingerprint(cp), rows_set(query.engine.sink.rows())


class TestByteIdentity:
    """Sink rows and every checkpoint byte match the sequential run."""

    def test_dict_backend(self, tmp_path):
        for backlog in (0, 30):
            fp_off, rows_off = _run_agg(tmp_path, "off", f"seq{backlog}",
                                        backlog=backlog)
            fp_on, rows_on = _run_agg(tmp_path, "on", f"pipe{backlog}",
                                      backlog=backlog)
            assert rows_on == rows_off
            assert fp_on == fp_off

    def test_tiered_backend(self, tmp_path):
        opts = {"state_backend": "tiered", "state_memtable_bytes": 256}
        fp_off, rows_off = _run_agg(tmp_path, "off", "seq", **opts)
        fp_on, rows_on = _run_agg(tmp_path, "on", "pipe", **opts)
        assert rows_on == rows_off
        assert fp_on == fp_off

    def test_file_sink(self, tmp_path):
        """Sink-file fsyncs are also deferred to the group; the table's
        bytes (data + manifests) must still match exactly."""
        results = {}
        for pipeline in ("off", "on"):
            session = Session()
            stream = make_stream(SCHEMA)
            cp = str(tmp_path / f"cp-{pipeline}")
            out = str(tmp_path / f"table-{pipeline}")
            query = (session.read_stream.memory(stream)
                     .where(F.col("v") >= 0)
                     .write_stream.format("file").option("path", out)
                     .option("pipeline", pipeline)
                     .output_mode("append").start(cp))
            _drive(query, stream, 8)
            query.stop()
            results[pipeline] = (
                checkpoint_fingerprint(cp),
                checkpoint_fingerprint(out),
                TransactionalFileSink(out).read_rows(),
            )
        assert results["on"][2] == results["off"][2]
        assert results["on"][0] == results["off"][0]
        assert results["on"][1] == results["off"][1]

    def test_restart_across_modes(self, tmp_path):
        """A checkpoint written pipelined restarts sequentially (and
        vice versa): the on-disk format is mode-independent."""
        session = Session()
        stream = make_stream(SCHEMA)
        cp = str(tmp_path / "cp")
        df = _agg_df(session, stream)
        sink = MemorySink()
        q1 = (df.write_stream.sink(sink).output_mode("update")
              .option("pipeline", "on").start(cp))
        _drive(q1, stream, 5)
        q1.stop()
        q2 = (df.write_stream.sink(sink).output_mode("update")
              .option("pipeline", "off").start(cp))
        _drive(q2, stream, 5)
        q2.stop()
        totals = {r["k"]: r["total"] for r in sink.rows()}
        # _drive restarts its value sequence per run: two runs of 5
        # epochs x 3 rows each contribute v = i*3+j for i in 0..4.
        expected = {}
        for _ in range(2):
            for i in range(5):
                for j in range(3):
                    key = f"k{j % 4}"
                    expected[key] = expected.get(key, 0) + i * 3 + j
        assert totals == expected


class TestFsyncReduction:
    def test_pipelined_epochs_fsync_less(self, tmp_path):
        """The acceptance gate: strictly fewer fsyncs per epoch, via the
        ``storage.fsyncs`` counter over the same stateful workload."""
        counts = {}
        for pipeline in ("off", "on"):
            with metrics.enabled():
                session = Session()
                stream = make_stream(SCHEMA)
                cp = str(tmp_path / f"cp-{pipeline}")
                stream.add_data([{"k": f"k{i % 4}", "v": i}
                                 for i in range(40)])
                query = (_agg_df(session, stream).write_stream
                         .format("memory").query_name(f"f-{pipeline}")
                         .output_mode("update")
                         .option("pipeline", pipeline)
                         .option("max_records_per_epoch", 1).start(cp))
                query.process_all_available()
                query.stop()
                counts[pipeline] = metrics.snapshot().get("storage.fsyncs", 0)
        assert counts["on"] < counts["off"], counts
        # Sequential: >= 2 WAL file fsyncs + 1 state file fsync per
        # epoch.  Pipelined: directory fsyncs amortized over
        # WAL_SYNC_EVERY epochs (plus state-dir rounds) — well under
        # half, not a marginal win.
        assert counts["on"] <= counts["off"] * 0.5, counts


class TestAsyncErrorSurfacing:
    def test_flusher_crash_reaches_query_exception(self, tmp_path):
        session = Session()
        stream = make_stream(SCHEMA)
        cp = str(tmp_path / "cp")
        query = (_agg_df(session, stream).write_stream.format("memory")
                 .query_name("flush-err").output_mode("update")
                 .option("pipeline", "on").start(cp))
        injector = FaultInjector([Fault("state.async_flush_crash")])
        stream.add_data([{"k": "a", "v": 1}])
        with injected(injector):
            with pytest.raises(CrashPoint):
                query.process_all_available()
        assert injector.fired
        # stop() must not re-raise the already-surfaced error, and the
        # checkpoint must recover: the lagging state is replayed.
        query.stop()
        restarted = (_agg_df(session, stream).write_stream.format("memory")
                     .query_name("flush-err-2").output_mode("update")
                     .option("pipeline", "on").start(cp))
        stream.add_data([{"k": "a", "v": 2}])
        restarted.process_all_available()
        restarted.stop()
        totals = {r["k"]: r["total"] for r in restarted.engine.sink.rows()}
        assert totals == {"a": 3}

    def test_flusher_crash_sets_threaded_query_exception(self, tmp_path):
        """Under an interval trigger the error lands on the driver
        thread's loop and must come back out of ``exception``."""
        import time

        session = Session()
        stream = make_stream(SCHEMA)
        cp = str(tmp_path / "cp")
        injector = FaultInjector([Fault("state.async_flush_crash")])
        with injected(injector):
            query = (_agg_df(session, stream).write_stream.format("memory")
                     .query_name("thr-err").output_mode("update")
                     .option("pipeline", "on")
                     .trigger(interval=0.01).start(cp))
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and query.exception is None:
                stream.add_data([{"k": "a", "v": 1}])
                time.sleep(0.02)
        assert isinstance(query.exception, CrashPoint)
        query.stop()


class TestDrainSemantics:
    def test_stop_materializes_state(self, tmp_path):
        """After stop(), no state write may still be queued: the restored
        engine must see the newest committed version."""
        session = Session()
        stream = make_stream(SCHEMA)
        cp = str(tmp_path / "cp")
        query = (_agg_df(session, stream).write_stream.format("memory")
                 .query_name("drain").output_mode("update")
                 .option("pipeline", "on").start(cp))
        _drive(query, stream, 6)
        last = query.engine.next_epoch - 1
        query.stop()
        state_root = os.path.join(cp, "state")
        versions = set()
        for op_dir in os.listdir(state_root):
            for name in os.listdir(os.path.join(state_root, op_dir)):
                if name.endswith((".json", ".jsonl")):
                    versions.add(int(name.split(".")[0]))
        assert last in versions, (last, sorted(versions))

    def test_idle_drain_after_process_all_available(self, tmp_path):
        """process_all_available() alone (no stop) already leaves the
        checkpoint fully materialized — the idle epoch drains."""
        session = Session()
        stream = make_stream(SCHEMA)
        cp = str(tmp_path / "cp")
        query = (_agg_df(session, stream).write_stream.format("memory")
                 .query_name("idle").output_mode("update")
                 .option("pipeline", "on").start(cp))
        _drive(query, stream, 4)
        fp_live = checkpoint_fingerprint(cp)
        query.stop()
        fp_stopped = checkpoint_fingerprint(cp)
        assert {k: v for k, v in fp_live.items() if "events" not in k} == \
               {k: v for k, v in fp_stopped.items() if "events" not in k}


class TestTornGroupCommit:
    def _torn_commit_run(self, tmp_path, pipeline, tag):
        """Tear the newest commit entry mid-write (epoch 0), then
        restart and finish; returns (repaired paths, final totals)."""
        session = Session()
        stream = make_stream(SCHEMA)
        cp = str(tmp_path / f"cp-{tag}")
        sink = MemorySink()
        df = _agg_df(session, stream)

        def build():
            return (df.write_stream.sink(sink).output_mode("update")
                    .option("pipeline", pipeline).start(cp))

        query = build()
        point = ("wal.group_commit_crash" if pipeline == "on"
                 else "storage.fsync")
        injector = FaultInjector([
            Fault(point, occurrence=None, times=1, action="torn",
                  match=lambda ctx: f"commits{os.sep}" in ctx["path"]),
        ])
        stream.add_data([{"k": "a", "v": 1}])
        with injected(injector):
            with pytest.raises(CrashPoint):
                query.process_all_available()
        assert injector.fired
        try:
            query.stop()
        except CrashPoint:
            pass
        restarted = build()
        repaired = list(restarted.engine.wal.repaired)
        for v in (4, 5):
            stream.add_data([{"k": "a", "v": v}])
            restarted.process_all_available()
        restarted.stop()
        totals = {r["k"]: r["total"] for r in sink.rows()}
        return repaired, totals

    def test_torn_newest_commit_quarantined_like_sequential(self, tmp_path):
        """A commit entry torn inside the deferred-fsync window must
        quarantine via repair_torn_tail exactly as the sequential torn
        write does: one repaired commit entry, exactly-once output."""
        rep_seq, totals_seq = self._torn_commit_run(tmp_path, "off", "seq")
        rep_pipe, totals_pipe = self._torn_commit_run(tmp_path, "on", "pipe")
        assert len(rep_seq) == 1 and "commits" in rep_seq[0]
        assert len(rep_pipe) == 1 and "commits" in rep_pipe[0]
        # Epoch 0 (v=1) is re-run after its commit entry was quarantined;
        # the idempotent sink absorbs the redelivery: 1 + 4 + 5.
        assert totals_seq == totals_pipe == {"a": 10}

    def test_torn_offsets_via_group_path(self, tmp_path):
        """Same protocol for the offsets log: the batched write's torn
        tail is treated as never written."""
        session = Session()
        stream = make_stream(SCHEMA)
        cp = str(tmp_path / "cp")
        sink = MemorySink()
        df = _agg_df(session, stream)
        query = (df.write_stream.sink(sink).output_mode("update")
                 .option("pipeline", "on").start(cp))
        injector = FaultInjector([
            Fault("wal.group_commit_crash", occurrence=None, times=1,
                  action="torn",
                  match=lambda ctx: f"offsets{os.sep}" in ctx["path"]),
        ])
        with injected(injector):
            with pytest.raises(CrashPoint):
                stream.add_data([{"k": "a", "v": 1}])
                query.process_all_available()
        try:
            query.stop()
        except CrashPoint:
            pass
        wal = WriteAheadLog(cp)
        assert len(wal.repaired) == 1
        assert wal.logged_epochs() == []


class TestListenerContainment:
    """A raising listener must never take the query down — including in
    the most concurrent configuration (pipelined epochs), where progress
    fires from the driver loop while the async
    flusher can be failing concurrently."""

    def test_listener_errors_contained_pipelined(self, tmp_path):
        session = Session()
        stream = make_stream(SCHEMA)
        cp = str(tmp_path / "cp")
        query = (_agg_df(session, stream).write_stream.format("memory")
                 .query_name("bad-listener").output_mode("update")
                 .option("pipeline", "on")
                 .start(cp))

        class BadListener:
            progress_calls = 0

            def on_progress(self, progress):
                BadListener.progress_calls += 1
                raise RuntimeError("bad on_progress")

            def on_terminated(self, query, exception):
                raise RuntimeError("bad on_terminated")

        query.add_listener(BadListener())
        stream.add_data([{"k": "a", "v": 1}])
        # The listener raised on every epoch, was counted, and the epoch
        # still committed its output.
        query.process_all_available()
        assert BadListener.progress_calls >= 1
        assert query.engine.progress.listener_errors >= 1
        assert {r["k"]: r["total"] for r in query.engine.sink.rows()} == \
            {"a": 1}

        # Now the async flusher dies: the *engine* error must surface to
        # the caller (not be eaten alongside the listener's), and the
        # failing on_terminated must not mask it either.
        injector = FaultInjector([Fault("state.async_flush_crash")])
        stream.add_data([{"k": "a", "v": 2}])
        with injected(injector):
            with pytest.raises(CrashPoint):
                query.process_all_available()
        assert injector.fired
        query.stop()  # already-surfaced error: no re-raise
        assert query.listener_errors >= 1  # on_terminated failures counted

        # The crash left a postmortem naming the flusher's error.
        from repro.observability.flightrec import load_postmortem
        doc = load_postmortem(cp)
        assert doc is not None and doc["crash"]["type"] == "CrashPoint"
