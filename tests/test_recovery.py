"""Fault tolerance: recovery, exactly-once output, rollback, code update
(§6.1, §7.1, §7.2).

A "crash" is modeled by abandoning the engine object and starting a new
query on the same checkpoint directory — exactly what happens when an
application restarts.  The sink object survives (it models the external
system the query writes to).
"""

import os
import threading

import pytest

from repro.sinks.file import TransactionalFileSink
from repro.sinks.memory import MemorySink
from repro.sql import functions as F
from repro.testing.faults import CrashPoint, Fault, FaultInjector, injected

from tests.conftest import make_stream, rows_set, start_memory_query

SCHEMA = (("k", "string"), ("v", "long"))


def counts_df(session, stream):
    return session.read_stream.memory(stream).group_by("k").count()


def restart(session, df, sink, mode, checkpoint):
    """Start a query reusing an existing sink + checkpoint (a restart)."""
    return (df.write_stream.sink(sink).output_mode(mode).start(checkpoint))


class TestRestartContinuesWhereLeftOff:
    def test_offsets_resume(self, session, checkpoint):
        stream = make_stream(SCHEMA)
        df = counts_df(session, stream)
        q1 = start_memory_query(df, "complete", "out", checkpoint)
        stream.add_data([{"k": "a", "v": 1}])
        q1.process_all_available()
        sink = q1.engine.sink

        q2 = restart(session, df, sink, "complete", checkpoint)
        stream.add_data([{"k": "a", "v": 2}])
        q2.process_all_available()
        assert sink.rows() == [{"k": "a", "count": 2}]

    def test_state_restored_across_restart(self, session, checkpoint):
        stream = make_stream(SCHEMA)
        df = counts_df(session, stream)
        q1 = start_memory_query(df, "complete", "out", checkpoint)
        stream.add_data([{"k": "a", "v": 1}, {"k": "b", "v": 1}])
        q1.process_all_available()

        q2 = restart(session, df, q1.engine.sink, "complete", checkpoint)
        assert q2.engine.state_store.total_keys() == 2

    def test_epoch_numbering_continues(self, session, checkpoint):
        stream = make_stream(SCHEMA)
        df = counts_df(session, stream)
        q1 = start_memory_query(df, "complete", "out", checkpoint)
        stream.add_data([{"k": "a", "v": 1}])
        q1.process_all_available()
        q2 = restart(session, df, q1.engine.sink, "complete", checkpoint)
        assert q2.engine.next_epoch == 1


class TestCrashRecovery:
    """Crashes land via named fault points (see repro.testing.faults),
    not hand-edited logs: the injector kills the engine at the exact
    protocol step, the restart is a fresh query on the same checkpoint."""

    def test_uncommitted_epoch_rerun_on_restart(self, session, checkpoint):
        stream = make_stream(SCHEMA)
        df = session.read_stream.memory(stream)
        q0 = start_memory_query(df, "append", "out", checkpoint)
        sink = q0.engine.sink
        stream.add_data([{"k": "a", "v": 1}])
        # Crash with the offsets entry durable but nothing else done
        # (between steps 1 and 2 of Figure 4).
        with injected(FaultInjector([Fault("epoch.after_offsets")])):
            with pytest.raises(CrashPoint):
                q0.process_all_available()
        assert sink.rows() == []  # nothing delivered before the crash

        q1 = restart(session, df, sink, "append", checkpoint)
        # Recovery re-ran the logged epoch during construction.
        assert sink.rows() == [{"k": "a", "v": 1}]
        assert q1.engine.wal.is_committed(0)

    def test_crash_between_sink_and_commit_is_exactly_once(self, session, checkpoint):
        stream = make_stream(SCHEMA)
        df = session.read_stream.memory(stream)
        q0 = start_memory_query(df, "append", "out", checkpoint)
        sink = q0.engine.sink
        stream.add_data([{"k": "a", "v": 1}])
        # Crash after the sink accepted the epoch but before the commit
        # record landed (between steps 3 and 4 of Figure 4).
        with injected(FaultInjector([Fault("epoch.after_sink")])):
            with pytest.raises(CrashPoint):
                q0.process_all_available()
        assert sink.rows() == [{"k": "a", "v": 1}]  # delivered, uncommitted

        q1 = restart(session, df, sink, "append", checkpoint)
        # The idempotent sink deduplicates the re-delivered epoch.
        assert sink.rows() == [{"k": "a", "v": 1}]
        assert q1.engine.wal.is_committed(0)

    def test_recovery_with_aggregate_state_replay(self, session, checkpoint):
        """State checkpoint lags the commit log: recovery must replay
        logged epochs to rebuild state (§6.1 step 4)."""
        stream = make_stream(SCHEMA)
        df = counts_df(session, stream)
        q0 = (df.write_stream.format("memory").query_name("out")
              .output_mode("complete")
              .option("state_checkpoint_interval", 3)  # sparse checkpoints
              .start(checkpoint))
        sink = q0.engine.sink
        for i in range(5):
            stream.add_data([{"k": "a", "v": i}])
            q0.run_epoch()
        assert sink.rows() == [{"k": "a", "count": 5}]

        q1 = restart(session, df, sink, "complete", checkpoint)
        stream.add_data([{"k": "a", "v": 99}])
        q1.process_all_available()
        assert sink.rows() == [{"k": "a", "count": 6}]


class TestPartialStateCommitCrash:
    def test_mid_commit_crash_does_not_double_apply(self, session, checkpoint):
        """A crash between two operators' state commits leaves them at
        different versions; recovery must restore both to a consistent
        base and replay — never double-apply an epoch to one of them."""
        left_schema = (("k", "long"), ("t", "timestamp"), ("l", "string"))
        right_schema = (("k", "long"), ("t2", "timestamp"), ("r", "string"))
        ls = make_stream(left_schema)
        rs = make_stream(right_schema)
        left = session.read_stream.memory(ls).with_watermark("t", "100s")
        right = session.read_stream.memory(rs).with_watermark("t2", "100s")
        df = left.join(right, on="k", within=("t", "t2", "1000s"))

        q0 = start_memory_query(df, "append", "out", checkpoint)
        sink = q0.engine.sink
        ls.add_data([{"k": 1, "t": 1.0, "l": "x"}])
        q0.process_all_available()
        rs.add_data([{"k": 1, "t2": 2.0, "r": "y"}])
        # Crash inside commit_all after the FIRST operator committed
        # epoch 1 and before the second did: the handles are left at
        # different versions.
        injector = FaultInjector([
            Fault("state.commit_all", occurrence=None, times=1,
                  match=lambda ctx: ctx["version"] == 1 and ctx["committed"] == 1),
        ])
        with injected(injector):
            with pytest.raises(CrashPoint):
                q0.process_all_available()
        assert injector.fired  # the partial-commit crash really happened
        assert len(sink.rows()) == 1  # epoch 1's join row was delivered

        q1 = restart(session, df, sink, "append", checkpoint)
        # Both sides were rewound to version 0 and epoch 1 replayed: the
        # buffered rows exist exactly once on each side (a key's rows lie
        # flat in one tuple; an inner join stores no matched flags).
        left_entries = q1.engine.state_store.handle("join-left-0").get((1,))
        right_entries = q1.engine.state_store.handle("join-right-1").get((1,))
        assert len(left_entries) == len(left_schema)
        assert len(right_entries) == len(right_schema)
        # And the sink result is still exactly-once.
        rs.add_data([{"k": 1, "t2": 3.0, "r": "z"}])
        q1.process_all_available()
        assert len(sink.rows()) == 2


class TestExactlyOnceFileOutput:
    def test_file_sink_exactly_once_across_restart(self, session, checkpoint, tmp_path):
        stream = make_stream(SCHEMA)
        df = session.read_stream.memory(stream)
        out_dir = str(tmp_path / "table")
        q0 = (df.write_stream.format("file").option("path", out_dir)
              .output_mode("append").start(checkpoint))
        stream.add_data([{"k": "a", "v": 1}])
        q0.process_all_available()

        # Crash and restart; re-run everything pending.
        q1 = (df.write_stream.format("file").option("path", out_dir)
              .output_mode("append").start(checkpoint))
        stream.add_data([{"k": "b", "v": 2}])
        q1.process_all_available()
        sink = TransactionalFileSink(out_dir)
        assert sink.read_rows() == [{"k": "a", "v": 1}, {"k": "b", "v": 2}]


class TestManualRollback:
    def test_rollback_and_recompute(self, session, checkpoint):
        """§7.2: roll the log back to an epoch, recompute from there."""
        stream = make_stream(SCHEMA)
        df = session.read_stream.memory(stream)
        q0 = start_memory_query(df, "append", "out", checkpoint)
        sink = q0.engine.sink
        for v in range(3):
            stream.add_data([{"k": "a", "v": v}])
            q0.process_all_available()
        assert len(sink.rows()) == 3

        # Administrator decides epochs 1-2 were wrong: roll back.
        q0.engine.wal.rollback_to(0)
        sink.clear()
        sink.add_batch(0, q0.engine.empty_result(), "append")  # keep epoch 0 marker

        q1 = restart(session, df, sink, "append", checkpoint)
        q1.process_all_available()
        # Epochs 1+ recomputed from the retained source data.
        assert [r["v"] for r in sink.rows()] == [1, 2]

    def test_rollback_recomputes_state(self, session, checkpoint):
        stream = make_stream(SCHEMA)
        df = counts_df(session, stream)
        q0 = start_memory_query(df, "complete", "out", checkpoint)
        for _ in range(4):
            stream.add_data([{"k": "a", "v": 1}])
            q0.process_all_available()
        q0.engine.wal.rollback_to(1)

        sink = q0.engine.sink
        sink.clear()
        q1 = restart(session, df, sink, "complete", checkpoint)
        q1.process_all_available()
        # Recomputed: epochs 2,3 re-run on state as of epoch 1.
        assert sink.rows() == [{"k": "a", "count": 4}]


class TestCodeUpdate:
    def test_udf_update_resumes_from_failure(self, session, checkpoint):
        """§7.1: a crashing UDF is fixed and the app restarted; it resumes
        where it left off and uses the new code."""
        stream = make_stream(SCHEMA)

        def buggy(v):
            if v == 2:
                raise ValueError("cannot parse input")
            return v * 10

        def make_df(fn):
            udf = F.udf(fn, "long")
            return (session.read_stream.memory(stream)
                    .select(udf(F.col("v")).alias("v10")))

        q0 = start_memory_query(make_df(buggy), "append", "out", checkpoint)
        sink = q0.engine.sink
        stream.add_data([{"k": "a", "v": 1}])
        q0.process_all_available()
        stream.add_data([{"k": "a", "v": 2}])
        with pytest.raises(ValueError, match="cannot parse"):
            q0.process_all_available()

        # Fix the UDF and restart on the same checkpoint: recovery re-runs
        # the failed epoch with the new code automatically (§2.3).
        fixed_df = make_df(lambda v: v * 10)
        q1 = restart(session, fixed_df, sink, "append", checkpoint)
        assert [r["v10"] for r in sink.rows()] == [10, 20]

    def test_stateful_udf_update_keeps_state(self, session, checkpoint):
        """Stateful operator UDFs can change as long as the state schema
        stays compatible (§7.1)."""
        stream = make_stream(SCHEMA)
        out_schema = (("k", "string"), ("n", "long"))

        def v1(key, rows, state):
            n = state.get_option(0) + sum(1 for _ in rows)
            state.update(n)
            return {"n": n}

        def v2(key, rows, state):  # counts by 10s now, same state schema
            n = state.get_option(0) + 10 * sum(1 for _ in rows)
            state.update(n)
            return {"n": n}

        def make_df(fn):
            return (session.read_stream.memory(stream)
                    .group_by_key("k").map_groups_with_state(fn, out_schema))

        q0 = start_memory_query(make_df(v1), "update", "out", checkpoint)
        sink = q0.engine.sink
        stream.add_data([{"k": "a", "v": 1}])
        q0.process_all_available()

        q1 = restart(session, make_df(v2), sink, "update", checkpoint)
        stream.add_data([{"k": "a", "v": 2}])
        q1.process_all_available()
        assert sink.rows() == [{"k": "a", "n": 11}]  # old state + new logic


class TestWatermarkRecovery:
    def test_watermark_survives_restart(self, session, checkpoint):
        stream = make_stream((("t", "timestamp"), ("k", "string")))
        df = (session.read_stream.memory(stream)
              .with_watermark("t", "10s")
              .group_by(F.window("t", "10s")).count())
        q0 = start_memory_query(df, "append", "out", checkpoint)
        sink = q0.engine.sink
        stream.add_data([{"t": 5.0, "k": "a"}])
        q0.process_all_available()
        stream.add_data([{"t": 30.0, "k": "a"}])
        q0.process_all_available()  # watermark -> 20 after this epoch

        q1 = restart(session, df, sink, "append", checkpoint)
        assert q1.engine.watermarks.current("t") == 20.0
        # The pre-restart window [0,10) emits on the next epoch.
        stream.add_data([{"t": 31.0, "k": "a"}])
        q1.process_all_available()
        assert {(r["window_start"], r["count"]) for r in sink.rows()} == {(0.0, 1)}


class TestFailedStart:
    @pytest.mark.parametrize("backend", ["dict", "tiered"])
    def test_failed_start_releases_event_log_and_run_files(
            self, session, tmp_path, backend):
        """A start() that dies in recovery must leak neither a thread, the
        events.jsonl handle, nor a tiered handle's run descriptors."""
        stream = make_stream((("k", "string"), ("v", "long")))
        df = counts_df(session, stream)
        sink = MemorySink()
        cp = str(tmp_path / "cp")

        def start():
            # A tiny memtable makes the tiered backend spill run files.
            return (df.write_stream.sink(sink).output_mode("update")
                    .option("state_backend", backend)
                    .option("state_memtable_bytes", 64).start(cp))

        # Leave epoch 0 logged but uncommitted: every restart re-runs it
        # and writes its commit entry, which is where the restarts die.
        query = start()
        stream.add_data([{"k": f"k{i % 5}", "v": i} for i in range(30)])
        with injected(FaultInjector([Fault("epoch.after_sink")])):
            with pytest.raises(CrashPoint):
                query.process_all_available()
        query.stop()

        threads = set(threading.enumerate())
        fds = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            with injected(FaultInjector([Fault("wal.commit")])):
                with pytest.raises(CrashPoint):
                    start()
        # Subset, not equality: an earlier test's idle flusher may exit.
        assert set(threading.enumerate()) <= threads
        assert len(os.listdir("/proc/self/fd")) <= fds
