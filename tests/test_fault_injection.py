"""The fault-injection layer itself, and the paths the sweep rides on.

Four concerns:

* the injector's scheduling semantics (occurrence counting, match
  predicates, seed replay, registry enforcement);
* torn-tail repair — a crash may leave the *newest* entry of a log
  truncated-but-visible; every log opener must quarantine it instead of
  crash-looping (the recovery bug the sweep originally exposed);
* the exactly-once checker's own detection power: mutation-style tests
  prove it fails on sinks that silently duplicate or drop rows, and on
  malformed checkpoint directories — a checker that cannot fail proves
  nothing;
* a failed epoch surfacing cleanly, and ``stop``/run-once behavior
  under faults.
"""

import glob
import json
import os

import pytest

from repro.sinks.file import TransactionalFileSink
from repro.sinks.memory import MemorySink
from repro.storage import atomic_write_json
from repro.streaming.query import StreamingQuery
from repro.streaming.state import OperatorStateHandle
from repro.streaming.triggers import ProcessingTimeTrigger
from repro.streaming.wal import WriteAheadLog
from repro.testing.faults import (
    CrashPoint,
    Fault,
    FaultInjector,
    FaultPointError,
    InjectedTaskError,
    active_injector,
    fault_point,
    injected,
)
from repro.testing.harness import (
    ExactlyOnceChecker,
    ExactlyOnceError,
    GoldenRun,
    check_checkpoint_invariants,
    checkpoint_fingerprint,
)

from tests.conftest import make_stream, start_memory_query
from tests.sweep import AGGREGATE_INTO_FILES, Instance

SCHEMA = (("k", "string"), ("v", "long"))


def _truncate_half(path: str) -> None:
    """Tear a file the way a crashed write would: visible, half gone."""
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[: len(data) // 2])


# ======================================================================
# Injector scheduling semantics
# ======================================================================
class TestFaultScheduling:
    def test_unknown_point_rejected(self):
        with pytest.raises(FaultPointError):
            Fault("no.such.point")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            Fault("wal.offsets", action="explode")

    def test_firing_unregistered_name_rejected(self):
        with pytest.raises(FaultPointError):
            FaultInjector().fire("not.registered", {})

    def test_occurrence_counting_and_consumption(self):
        injector = FaultInjector([Fault("wal.offsets", occurrence=2)])
        with injected(injector):
            fault_point("wal.offsets", epoch=0)  # occurrence 0: passes
            fault_point("wal.offsets", epoch=1)  # occurrence 1: passes
            with pytest.raises(CrashPoint):
                fault_point("wal.offsets", epoch=2)
            fault_point("wal.offsets", epoch=3)  # consumed: passes again
        assert injector.fired == [("wal.offsets", 2, "crash")]
        assert injector.pending == []

    def test_match_predicate_filters_context(self):
        injector = FaultInjector([
            Fault("storage.write", occurrence=None,
                  match=lambda ctx: ctx["path"].endswith("target.json")),
        ])
        with injected(injector):
            fault_point("storage.write", path="/a/other.json", tmp_path="/t")
            with pytest.raises(CrashPoint):
                fault_point("storage.write", path="/a/target.json", tmp_path="/t")

    def test_fail_action_is_transient_not_a_crash(self):
        injector = FaultInjector([Fault("epoch.after_process", action="fail")])
        with injected(injector):
            with pytest.raises(InjectedTaskError) as error:
                fault_point("epoch.after_process", epoch=0)
        assert not isinstance(error.value, CrashPoint)

    def test_counts_persist_across_engine_restarts(self, session, checkpoint):
        # One schedule, two query generations: the second fault lands in
        # the *restarted* engine because counting is global.
        stream = make_stream(SCHEMA)
        df = session.read_stream.memory(stream)
        injector = FaultInjector([
            Fault("epoch.begin", occurrence=0),
            Fault("epoch.begin", occurrence=1),
        ])
        stream.add_data([{"k": "a", "v": 1}])
        with injected(injector):
            q0 = start_memory_query(df, "append", "out", checkpoint)
            sink = q0.engine.sink
            with pytest.raises(CrashPoint):
                q0.process_all_available()
            with pytest.raises(CrashPoint):  # fires inside recovery/build
                (df.write_stream.sink(sink).output_mode("append")
                 .start(checkpoint)).process_all_available()
        assert [occ for _, occ, _ in injector.fired] == [0, 1]

    def test_seed_replay_is_deterministic(self):
        a = FaultInjector.from_seed(20260807)
        b = FaultInjector.from_seed(20260807)
        assert a.describe() == b.describe()
        # and seeds genuinely vary the schedule
        schedules = {FaultInjector.from_seed(s).describe() for s in range(30)}
        assert len(schedules) > 5

    def test_no_injector_is_a_noop(self):
        assert active_injector() is None
        fault_point("wal.offsets", epoch=0)  # must not raise

    def test_injected_context_uninstalls(self):
        injector = FaultInjector()
        with injected(injector):
            assert active_injector() is injector
        assert active_injector() is None


# ======================================================================
# Torn-tail repair (the crash-loop recovery bug the sweep exposed)
# ======================================================================
class TestTornTailRepair:
    def test_wal_quarantines_torn_newest_offsets(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.write_offsets(0, {"sources": {}})
        wal.write_offsets(1, {"sources": {}})
        _truncate_half(os.path.join(str(tmp_path), "offsets", "0000000001.json"))
        reopened = WriteAheadLog(str(tmp_path))
        assert len(reopened.repaired) == 1
        assert reopened.logged_epochs() == [0]  # torn entry = never written

    def test_wal_quarantines_torn_newest_commit(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.write_offsets(0, {"sources": {}})
        wal.write_commit(0)
        _truncate_half(os.path.join(str(tmp_path), "commits", "0000000000.json"))
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.committed_epochs() == []
        assert reopened.logged_epochs() == [0]  # epoch 0 is re-run, not lost

    def test_wal_quarantines_torn_metadata(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.write_metadata({"output_mode": "append"})
        _truncate_half(os.path.join(str(tmp_path), "metadata.json"))
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.read_metadata() == {}
        reopened.write_metadata({"output_mode": "append"})  # rewritable again
        assert reopened.read_metadata()["output_mode"] == "append"

    def test_torn_middle_entry_is_not_repaired(self, tmp_path):
        # Only the *newest* entry can be a legitimate crash artifact; a
        # torn older entry is real corruption and must stay visible.
        wal = WriteAheadLog(str(tmp_path))
        for epoch in range(3):
            wal.write_offsets(epoch, {"sources": {}})
        _truncate_half(os.path.join(str(tmp_path), "offsets", "0000000000.json"))
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.repaired == []
        with pytest.raises(ValueError):
            reopened.read_offsets(0)

    def test_state_handle_quarantines_torn_newest_version(self, tmp_path):
        handle = OperatorStateHandle(str(tmp_path / "op"))
        handle.put("a", 1)
        handle.commit(0)
        handle.put("b", 2)
        handle.commit(1)
        (torn,) = [n for n in os.listdir(str(tmp_path / "op"))
                   if n.startswith("0000000001.")]
        _truncate_half(os.path.join(str(tmp_path / "op"), torn))
        fresh = OperatorStateHandle(str(tmp_path / "op"))
        assert len(fresh.repaired) == 1
        assert fresh.restore(1) == 0  # falls back to the intact version
        assert fresh.get("a") == 1 and fresh.get("b") is None

    def test_file_sink_quarantines_torn_newest_manifest(self, tmp_path):
        from repro.sql.batch import RecordBatch
        from repro.sql.types import StructType

        schema = StructType((("v", "long"),))
        sink = TransactionalFileSink(str(tmp_path))
        sink.add_batch(0, RecordBatch.from_rows([{"v": 1}], schema), "append")
        sink.add_batch(1, RecordBatch.from_rows([{"v": 2}], schema), "append")
        _truncate_half(os.path.join(str(tmp_path), "_log", "0000000001.json"))
        reopened = TransactionalFileSink(str(tmp_path))
        assert len(reopened.repaired) == 1
        # The torn version's data files are orphaned and invisible —
        # exactly "uncommitted" under the manifest protocol.
        assert reopened.read_rows() == [{"v": 1}]
        assert reopened.last_committed_epoch() == 0


# ======================================================================
# Checker mutation self-tests: the checker must be able to fail
# ======================================================================
def _golden_123():
    rows = [{"v": 1}, {"v": 2}, {"v": 3}]
    return GoldenRun(
        snapshots=[[], rows[:1], rows[:2], rows],
        final=rows,
    )


class TestCheckerDetectsDuplicates:
    def test_final_duplicate_row_fails(self):
        checker = ExactlyOnceChecker(_golden_123())
        with pytest.raises(ExactlyOnceError, match="duplicate_rows=1"):
            checker.check_final([{"v": 1}, {"v": 2}, {"v": 3}, {"v": 3}])

    def test_unordered_mode_still_catches_duplicates(self):
        checker = ExactlyOnceChecker(_golden_123(), ordered=False)
        with pytest.raises(ExactlyOnceError):
            checker.check_final([{"v": 3}, {"v": 1}, {"v": 2}, {"v": 1}])

    def test_duplicating_sink_is_caught_end_to_end(self, session, checkpoint):
        # A sink whose epoch-dedup is broken: it re-appends the first row
        # of every batch.  The checker must reject its output even though
        # the engine ran fault-free.
        class DuplicatingSink(MemorySink):
            def add_batch(self, epoch_id, batch, mode):
                super().add_batch(epoch_id, batch, mode)
                rows = batch.to_rows()
                if rows:
                    with self._lock:
                        self._rows.append(rows[0])

        stream = make_stream(SCHEMA)
        df = session.read_stream.memory(stream)
        sink = DuplicatingSink()
        query = (df.write_stream.sink(sink).output_mode("append")
                 .start(checkpoint))
        stream.add_data([{"k": "a", "v": 1}, {"k": "b", "v": 2}])
        query.process_all_available()
        checker = ExactlyOnceChecker(GoldenRun(
            snapshots=[[], [{"k": "a", "v": 1}, {"k": "b", "v": 2}]],
            final=[{"k": "a", "v": 1}, {"k": "b", "v": 2}],
        ))
        with pytest.raises(ExactlyOnceError):
            checker.check_final(sink.rows())


class TestCheckerDetectsDrops:
    def test_final_missing_row_fails(self):
        checker = ExactlyOnceChecker(_golden_123())
        with pytest.raises(ExactlyOnceError, match="missing="):
            checker.check_final([{"v": 1}, {"v": 3}])

    def test_intermediate_non_prefix_fails(self):
        checker = ExactlyOnceChecker(_golden_123())
        checker.check_intermediate([{"v": 1}])  # a real prefix: fine
        with pytest.raises(ExactlyOnceError):
            checker.check_intermediate([{"v": 2}])  # a hole is not

    def test_reordering_fails_in_ordered_mode(self):
        checker = ExactlyOnceChecker(_golden_123())
        with pytest.raises(ExactlyOnceError):
            checker.check_final([{"v": 2}, {"v": 1}, {"v": 3}])

    def test_dropping_sink_is_caught_end_to_end(self, session, checkpoint):
        class DroppingSink(MemorySink):
            def add_batch(self, epoch_id, batch, mode):
                before = len(self._rows)
                super().add_batch(epoch_id, batch, mode)
                with self._lock:
                    if len(self._rows) > before:
                        self._rows.pop()  # silently loses the last row

        stream = make_stream(SCHEMA)
        df = session.read_stream.memory(stream)
        sink = DroppingSink()
        query = (df.write_stream.sink(sink).output_mode("append")
                 .start(checkpoint))
        stream.add_data([{"k": "a", "v": 1}, {"k": "b", "v": 2}])
        query.process_all_available()
        checker = ExactlyOnceChecker(GoldenRun(
            snapshots=[[], [{"k": "a", "v": 1}, {"k": "b", "v": 2}]],
            final=[{"k": "a", "v": 1}, {"k": "b", "v": 2}],
        ))
        with pytest.raises(ExactlyOnceError):
            checker.check_final(sink.rows())


class TestAtLeastOnceMode:
    def test_requires_distinct_golden_rows(self):
        golden = GoldenRun(snapshots=[[]], final=[{"v": 1}, {"v": 1}])
        with pytest.raises(ValueError):
            ExactlyOnceChecker(golden, at_least_once=True)

    def test_replayed_duplicates_are_tolerated(self):
        checker = ExactlyOnceChecker(_golden_123(), at_least_once=True)
        checker.check_final([{"v": 1}, {"v": 2}, {"v": 1}, {"v": 2}, {"v": 3}])

    def test_holes_still_fail(self):
        checker = ExactlyOnceChecker(_golden_123(), at_least_once=True)
        with pytest.raises(ExactlyOnceError):
            checker.check_final([{"v": 1}, {"v": 3}])

    def test_invented_rows_still_fail(self):
        checker = ExactlyOnceChecker(_golden_123(), at_least_once=True)
        with pytest.raises(ExactlyOnceError):
            checker.check_final([{"v": 1}, {"v": 2}, {"v": 3}, {"v": 99}])


class TestCheckpointInvariantMutations:
    def _write(self, directory, epoch, payload=None):
        atomic_write_json(os.path.join(directory, f"{epoch:010d}.json"),
                          payload or {"epoch": epoch})

    def test_well_formed_checkpoint_passes(self, tmp_path):
        ckpt = str(tmp_path)
        for sub in ("offsets", "commits"):
            os.makedirs(os.path.join(ckpt, sub))
        self._write(os.path.join(ckpt, "offsets"), 0)
        self._write(os.path.join(ckpt, "offsets"), 1)
        self._write(os.path.join(ckpt, "commits"), 0)
        check_checkpoint_invariants(ckpt)

    def test_commit_without_offsets_fails(self, tmp_path):
        ckpt = str(tmp_path)
        for sub in ("offsets", "commits"):
            os.makedirs(os.path.join(ckpt, sub))
        self._write(os.path.join(ckpt, "commits"), 0)
        with pytest.raises(ExactlyOnceError, match="no offsets entry"):
            check_checkpoint_invariants(ckpt)

    def test_offsets_gap_fails(self, tmp_path):
        ckpt = str(tmp_path)
        os.makedirs(os.path.join(ckpt, "offsets"))
        self._write(os.path.join(ckpt, "offsets"), 0)
        self._write(os.path.join(ckpt, "offsets"), 2)
        with pytest.raises(ExactlyOnceError, match="not contiguous"):
            check_checkpoint_invariants(ckpt)

    def test_two_uncommitted_epochs_fails(self, tmp_path):
        # Figure 4 allows at most ONE partially executed epoch.
        ckpt = str(tmp_path)
        for sub in ("offsets", "commits"):
            os.makedirs(os.path.join(ckpt, sub))
        for epoch in range(3):
            self._write(os.path.join(ckpt, "offsets"), epoch)
        self._write(os.path.join(ckpt, "commits"), 0)
        with pytest.raises(ExactlyOnceError, match="uncommitted"):
            check_checkpoint_invariants(ckpt)

    def test_state_version_ahead_of_log_fails(self, tmp_path):
        ckpt = str(tmp_path)
        os.makedirs(os.path.join(ckpt, "offsets"))
        self._write(os.path.join(ckpt, "offsets"), 1)
        op_dir = os.path.join(ckpt, "state", "agg-0")
        os.makedirs(op_dir)
        atomic_write_json(os.path.join(op_dir, "0000000005.delta.json"), {})
        with pytest.raises(ExactlyOnceError, match="newer"):
            check_checkpoint_invariants(ckpt)

    def test_torn_newest_entry_tolerated_only_when_not_strict(self, tmp_path):
        ckpt = str(tmp_path)
        for sub in ("offsets", "commits"):
            os.makedirs(os.path.join(ckpt, sub))
        self._write(os.path.join(ckpt, "offsets"), 0)
        self._write(os.path.join(ckpt, "offsets"), 1)
        _truncate_half(os.path.join(ckpt, "offsets", "0000000001.json"))
        check_checkpoint_invariants(ckpt, strict=False)  # mid-crash: fine
        with pytest.raises(ExactlyOnceError, match="unreadable"):
            check_checkpoint_invariants(ckpt, strict=True)


# ======================================================================
# A failed epoch
# ======================================================================
def _drive(instance, steps=None):
    query = instance.build()
    try:
        query.process_all_available()
        for step in instance.steps if steps is None else steps:
            step()
            query.process_all_available()
    finally:
        query.stop()
    return query


class TestFailedEpoch:
    def test_failing_epoch_is_a_clean_error(self, tmp_path):
        """An epoch that fails on every attempt surfaces its error through
        ``StreamingQuery.exception`` on a threaded query, with a
        postmortem, without committing the epoch; once the cause clears,
        a restart from the same checkpoint completes byte-identically."""
        instance = Instance(AGGREGATE_INTO_FILES, str(tmp_path / "run"))
        query = instance.build()
        failing, *rest = instance.steps
        always = FaultInjector([Fault("epoch.after_process", occurrence=None,
                                      times=None, action="fail")])
        with injected(always):
            failing()
            # The same engine behind a driver thread, as an interval
            # trigger would run it.
            threaded = StreamingQuery(
                query.engine, ProcessingTimeTrigger(0.01), "failing")
            with pytest.raises(InjectedTaskError):
                threaded.await_termination(timeout=30)
        assert type(threaded.exception) is InjectedTaskError
        threaded.stop()
        # nothing was delivered or committed
        assert instance.read_sink() == []
        assert os.listdir(
            os.path.join(instance.checkpoint, "commits")) == []
        (postmortem,) = glob.glob(
            os.path.join(instance.checkpoint, "postmortem*.json"))
        with open(postmortem, encoding="utf-8") as fh:
            assert "InjectedTaskError" in json.dumps(json.load(fh)["crash"])

        _drive(instance, rest)

        reference = Instance(AGGREGATE_INTO_FILES, str(tmp_path / "reference"))
        _drive(reference)
        assert instance.read_sink() == reference.read_sink()
        assert checkpoint_fingerprint(instance.checkpoint) == \
            checkpoint_fingerprint(reference.checkpoint)


# ======================================================================
# stop() / run-once under faults
# ======================================================================
class TestStopAndRunOnce:
    def test_thread_crash_surfaces_and_run_once_recovers(self, session, checkpoint):
        """A crash inside a threaded query's driver loop must surface via
        ``query.exception``; a run-once restart then redelivers the
        uncommitted epoch exactly once."""
        stream = make_stream(SCHEMA)
        df = session.read_stream.memory(stream)
        sink = MemorySink()
        stream.add_data([{"k": "a", "v": 1}])
        injector = FaultInjector([Fault("epoch.after_sink", occurrence=0)])
        with injected(injector):
            query = (df.write_stream.sink(sink).output_mode("append")
                     .trigger(interval=0.005).start(checkpoint))
            with pytest.raises(CrashPoint):
                query.await_termination(timeout=10)
        assert isinstance(query.exception, CrashPoint)
        # the sink accepted the epoch before the crash, the commit didn't land
        assert sink.rows() == [{"k": "a", "v": 1}]

        restarted = (df.write_stream.sink(sink).output_mode("append")
                     .trigger(once=True).start(checkpoint))
        restarted.await_termination(timeout=10)
        assert sink.rows() == [{"k": "a", "v": 1}]  # idempotent redelivery
        assert restarted.engine.wal.is_committed(0)

    def test_crash_before_sink_write_leaves_no_partial_epoch(self, session, checkpoint):
        stream = make_stream(SCHEMA)
        df = session.read_stream.memory(stream)
        query = start_memory_query(df, "append", "out", checkpoint)
        sink = query.engine.sink
        stream.add_data([{"k": "a", "v": 1}, {"k": "b", "v": 2}])
        injector = FaultInjector([Fault("epoch.after_process", occurrence=0)])
        with injected(injector):
            with pytest.raises(CrashPoint):
                query.process_all_available()
        assert sink.rows() == []  # nothing partial escaped

        restarted = (df.write_stream.sink(sink).output_mode("append")
                     .start(checkpoint))
        restarted.process_all_available()
        assert sink.rows() == [{"k": "a", "v": 1}, {"k": "b", "v": 2}]

    def test_stop_mid_stream_then_restart_continues_cleanly(self, session, checkpoint):
        stream = make_stream(SCHEMA)
        df = session.read_stream.memory(stream)
        query = start_memory_query(df, "append", "out", checkpoint)
        sink = query.engine.sink
        stream.add_data([{"k": "a", "v": 1}])
        query.process_all_available()
        query.stop()
        assert not query.is_active

        stream.add_data([{"k": "b", "v": 2}])  # arrives while down
        restarted = (df.write_stream.sink(sink).output_mode("append")
                     .start(checkpoint))
        restarted.process_all_available()
        assert sink.rows() == [{"k": "a", "v": 1}, {"k": "b", "v": 2}]

    def test_torn_manifest_then_run_once_restart(self, session, checkpoint, tmp_path):
        """Crash tearing the file sink's manifest mid-commit: the run-once
        restart quarantines it and redelivers the epoch exactly once."""
        stream = make_stream(SCHEMA)
        df = session.read_stream.memory(stream)
        out_dir = str(tmp_path / "table")
        query = (df.write_stream.format("file").option("path", out_dir)
                 .output_mode("append").start(checkpoint))
        stream.add_data([{"k": "a", "v": 1}])
        injector = FaultInjector([
            Fault("storage.fsync", occurrence=None, times=1, action="torn",
                  match=lambda ctx: "_log" in ctx["path"]),
        ])
        with injected(injector):
            with pytest.raises(CrashPoint):
                query.process_all_available()

        restarted = (df.write_stream.format("file").option("path", out_dir)
                     .output_mode("append").trigger(once=True)
                     .start(checkpoint))
        restarted.await_termination(timeout=10)
        assert len(restarted.engine.sink.repaired) == 1
        assert TransactionalFileSink(out_dir).read_rows() == [{"k": "a", "v": 1}]
