"""Process-executor correctness: inline ≡ process, byte for byte.

The process pool (``cluster/process_pool.py``) must be *invisible* in
every observable output: for any stateful plan, sink rows and
checkpoint bytes must be identical to the inline executor's, for any
worker count — the driver stays authoritative over all state writes.
On top of that contract, these tests pin the recovery machinery
(worker death → respawn + re-restore; hung worker → deadline kill; a
replacement that dies again → the same retry budget), the option/env
plumbing, the pool's lifecycle (no threads, nothing left behind), and
the per-stage executor report.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.process_pool import ProcessPool, TaskFailure
from repro.sinks.memory import MemorySink
from repro.sql import functions as F
from repro.sql.session import Session
from repro.testing.faults import CrashPoint, Fault, FaultInjector, injected
from repro.testing.harness import checkpoint_fingerprint

from tests.conftest import make_stream

pytestmark = pytest.mark.usefixtures("shm_guard")


# ----------------------------------------------------------------------
# Workloads: one of each stateful operator family
# ----------------------------------------------------------------------
def _run_agg(executor, workers, root, chunks, shards=4):
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    df = _agg_df(stream)
    return _drive(df, stream, None, executor, workers, root, chunks, shards)


def _run_dedup(executor, workers, root, chunks, shards=4):
    session = Session()
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    df = (session.read_stream.memory(stream)
          .with_watermark("t", "5s")
          .drop_duplicates(["k", "t"]))
    return _drive(df, stream, None, executor, workers, root, chunks, shards)


def _run_join(executor, workers, root, chunks, shards=4):
    session = Session()
    ls = make_stream((("k", "long"), ("t", "timestamp"), ("l", "string")))
    rs = make_stream((("k", "long"), ("t2", "timestamp"), ("r", "string")))
    left = Session().read_stream  # noqa: F841 -- keep sessions distinct
    df = (session.read_stream.memory(ls).with_watermark("t", "100s")
          .join(session.read_stream.memory(rs).with_watermark("t2", "100s"),
                on="k", within=("t", "t2", "1000s")))
    return _drive(df, ls, rs, executor, workers, root, chunks, shards)


def _agg_df(stream):
    return (Session().read_stream.memory(stream)
            .with_watermark("t", "5s")
            .group_by(F.window("t", "10s"), F.col("k")).count())


def _start(df, sink, executor, workers, checkpoint, shards=4, **options):
    """Start ``df`` with the executor pinned (the suite also runs under
    ``REPRO_EXECUTOR=process``, so "inline" must be said out loud)."""
    writer = (df.write_stream.sink(sink).output_mode("append")
              .option("num_shards", shards).option("executor", executor)
              .option("num_workers", workers))
    for key, value in options.items():
        writer = writer.option(key, value)
    return writer.start(checkpoint)


def _drive(df, stream, right_stream, executor, workers, root, chunks, shards):
    """Returns ``(sink rows, checkpoint fingerprint, the engine's pool)``
    — the pool (None when inline) keeps its counters after stop()."""
    sink = MemorySink()
    checkpoint = os.path.join(root, "cp")
    query = _start(df, sink, executor, workers, checkpoint, shards)
    pool = query.engine.pool
    try:
        for chunk in chunks:
            if right_stream is not None:
                left_rows = [r for r in chunk if "l" in r]
                right_rows = [r for r in chunk if "r" in r]
                if left_rows:
                    stream.add_data(left_rows)
                if right_rows:
                    right_stream.add_data(right_rows)
            else:
                stream.add_data(chunk)
            query.process_all_available()
    finally:
        query.stop()
    return sink.rows(), checkpoint_fingerprint(checkpoint), pool


_AGG_CHUNKS = [
    [{"k": f"k{i % 5}", "v": i, "t": float((i % 40) + 10 * (i % 3))}
     for i in range(lo, lo + 30)]
    for lo in range(0, 120, 30)
]
_DEDUP_CHUNKS = [
    [{"k": f"k{i % 4}", "v": i, "t": float(i % 25)} for i in range(lo, lo + 20)]
    for lo in range(0, 80, 20)
]
_JOIN_CHUNKS = [
    [{"k": k, "t": float(e), "l": f"l{e}-{k}"} for k in range(e, e + 3)]
    + [{"k": k, "t2": float(e) + 0.5, "r": f"r{e}-{k}"} for k in range(e, e + 3)]
    for e in range(4)
]
_WORKLOADS = {
    "agg": (_run_agg, _AGG_CHUNKS),
    "dedup": (_run_dedup, _DEDUP_CHUNKS),
    "join": (_run_join, _JOIN_CHUNKS),
}


# ----------------------------------------------------------------------
# Inline ≡ process equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(_WORKLOADS))
def test_process_matches_inline(kind, tmp_path):
    run, chunks = _WORKLOADS[kind]
    rows_i, fp_i, _ = run("inline", 2, str(tmp_path / "i"), chunks)
    rows_p, fp_p, pool = run("process", 2, str(tmp_path / "p"), chunks)
    assert rows_i == rows_p
    assert fp_i == fp_p
    assert rows_i  # the workload must actually emit something
    assert pool.stage_reports  # ... and really ran on the pool


def test_checkpoint_invariant_across_worker_counts(tmp_path):
    """Checkpoint bytes may not depend on executor type or worker count."""
    fingerprints = []
    rows = []
    inline_rows, inline_fp, _ = _run_agg(
        "inline", 1, str(tmp_path / "inline"), _AGG_CHUNKS)
    for workers in (1, 2, 4):
        r, fp, _ = _run_agg("process", workers,
                            str(tmp_path / f"w{workers}"), _AGG_CHUNKS)
        fingerprints.append(fp)
        rows.append(r)
    assert all(fp == inline_fp for fp in fingerprints)
    assert all(r == inline_rows for r in rows)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["agg", "dedup", "join"]),
    workers=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_random_plans_inline_process_identical(kind, workers, data, tmp_path):
    """Random stateful plans: inline and process runs are byte-identical."""
    if kind == "join":
        chunks = _JOIN_CHUNKS[:data.draw(st.integers(2, 4), label="epochs")]
    else:
        n_chunks = data.draw(st.integers(2, 4), label="epochs")
        chunks = [
            [
                {
                    "k": f"k{data.draw(st.integers(0, 5))}",
                    "v": i,
                    "t": float(data.draw(st.integers(0, 60))),
                }
                for i in range(data.draw(st.integers(1, 12), label="rows"))
            ]
            for _ in range(n_chunks)
        ]
    run, _ = _WORKLOADS[kind]
    token = f"{kind}-{workers}-{time.monotonic_ns()}"
    rows_i, fp_i, _ = run("inline", workers, str(tmp_path / f"i{token}"), chunks)
    rows_p, fp_p, _ = run("process", workers, str(tmp_path / f"p{token}"), chunks)
    assert rows_i == rows_p
    assert fp_i == fp_p


# ----------------------------------------------------------------------
# Worker-death recovery
# ----------------------------------------------------------------------
def test_injected_worker_crash_respawns_and_completes(tmp_path):
    injector = FaultInjector([
        Fault("worker.crash_mid_task", occurrence=1, action="crash"),
    ])
    with injected(injector):
        rows_p, fp_p, pool = _run_agg(
            "process", 2, str(tmp_path / "p"), _AGG_CHUNKS)
    assert pool.worker_deaths >= 1
    assert injector.fired  # merged back from the worker before it died
    rows_i, fp_i, _ = _run_agg("inline", 2, str(tmp_path / "i"), _AGG_CHUNKS)
    assert rows_p == rows_i
    assert fp_p == fp_i


@pytest.mark.slow
def test_hung_worker_killed_at_deadline_and_respawned(tmp_path):
    injector = FaultInjector([
        Fault("worker.hang", occurrence=2, action="hang", seconds=30.0),
    ])
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    sink = MemorySink()
    query = _start(_agg_df(stream), sink, "process", 2, str(tmp_path / "cp"))
    pool = query.engine.pool
    pool.task_timeout = 0.5  # workers fork on the first stage
    started = time.monotonic()
    try:
        with injected(injector):
            for chunk in _AGG_CHUNKS:
                stream.add_data(chunk)
                query.process_all_available()
    finally:
        query.stop()
    assert pool.worker_deaths >= 1
    # The deadline path, not the 30s sleep, resolved the hang.
    assert time.monotonic() - started < 20.0
    rows_i, _, _ = _run_agg("inline", 2, str(tmp_path / "i"), _AGG_CHUNKS)
    assert sink.rows() == rows_i


def test_externally_killed_worker_respawns(tmp_path):
    """SIGKILL from outside (an OOM killer, say) — not just injected death."""
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    sink = MemorySink()
    query = _start(_agg_df(stream), sink, "process", 2, str(tmp_path / "cp"))
    pool = query.engine.pool
    try:
        stream.add_data(_AGG_CHUNKS[0])
        query.process_all_available()
        victim = next(w for w in pool._workers if w is not None)
        os.kill(victim.proc.pid, signal.SIGKILL)
        victim.proc.join(timeout=5.0)
        for chunk in _AGG_CHUNKS[1:]:
            stream.add_data(chunk)
            query.process_all_available()
    finally:
        query.stop()
    assert pool.worker_deaths >= 1
    rows_i, _, _ = _run_agg("inline", 2, str(tmp_path / "i"), _AGG_CHUNKS)
    assert sink.rows() == rows_i


def _kill_replacements(monkeypatch, how_many, when):
    """Make the next ``how_many`` respawned workers die — ``"restore"``:
    before the restore handshake (the driver's send/recv on the new pipe
    fails); ``"resend"``: right after it, before the stage message is
    re-sent.  Returns the list of replacement pids killed."""
    killed = []

    def kill(handle):
        handle.proc.kill()
        handle.proc.join(timeout=5.0)
        killed.append(handle.proc.pid)

    if when == "restore":
        spawn = ProcessPool._spawn

        def dying_spawn(self, slot):
            handle = spawn(self, slot)
            if len(killed) < how_many:
                kill(handle)
            return handle

        monkeypatch.setattr(ProcessPool, "_spawn", dying_spawn)
    else:
        respawn = ProcessPool._respawn

        def dying_respawn(self, slot):
            handle = respawn(self, slot)
            if len(killed) < how_many:
                kill(handle)
            return handle

        monkeypatch.setattr(ProcessPool, "_respawn", dying_respawn)
    return killed


def _kill_one_worker_after_first_chunk(tmp_path):
    """An agg query on two workers, one chunk in, one worker SIGKILLed:
    the next stage finds exactly one dead worker."""
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    sink = MemorySink()
    query = _start(_agg_df(stream), sink, "process", 2, str(tmp_path / "cp"))
    stream.add_data(_AGG_CHUNKS[0])
    query.process_all_available()
    victim = next(w for w in query.engine.pool._workers if w is not None)
    os.kill(victim.proc.pid, signal.SIGKILL)
    victim.proc.join(timeout=5.0)
    return query, stream, sink


@pytest.mark.parametrize("when", ["restore", "resend"])
def test_replacement_worker_dying_once_spends_the_retry_budget(
        tmp_path, monkeypatch, when):
    """A worker dies, and so does its replacement — during the restore
    handshake, or between it and the re-send.  The second death counts
    against the same per-worker budget and the stage still completes."""
    query, stream, sink = _kill_one_worker_after_first_chunk(tmp_path)
    pool = query.engine.pool
    killed = _kill_replacements(monkeypatch, 1, when)
    try:
        for chunk in _AGG_CHUNKS[1:]:
            stream.add_data(chunk)
            query.process_all_available()
    finally:
        query.stop()
    assert len(killed) == 1
    assert pool.worker_deaths == 2
    rows_i, fp_i, _ = _run_agg("inline", 2, str(tmp_path / "i"), _AGG_CHUNKS)
    assert sink.rows() == rows_i
    assert checkpoint_fingerprint(str(tmp_path / "cp")) == fp_i


@pytest.mark.parametrize("when", ["restore", "resend"])
def test_replacement_worker_dying_always_is_a_task_failure(
        tmp_path, monkeypatch, when):
    """Every replacement dies: the budget runs out and the stage fails
    with TaskFailure naming it — never the pool's internal death signal
    or a raw pipe error."""
    query, stream, _ = _kill_one_worker_after_first_chunk(tmp_path)
    pool = query.engine.pool
    _kill_replacements(monkeypatch, 10**6, when)
    try:
        stream.add_data(_AGG_CHUNKS[1])
        with pytest.raises(TaskFailure) as failure:
            query.process_all_available()
    finally:
        query.stop()
    assert type(failure.value) is TaskFailure
    assert "during stage" in str(failure.value)
    assert pool.worker_deaths == pool.max_retries


# ----------------------------------------------------------------------
# Plumbing and reporting
# ----------------------------------------------------------------------
def _live_pool_workers() -> set:
    """Pids of live pool workers (other tests' unstopped queries under
    ``REPRO_EXECUTOR=process`` included — compare against a baseline)."""
    return {p.pid for p in multiprocessing.active_children()
            if p.name.startswith("repro-pworker-")}


def test_executor_option_builds_owned_process_scheduler(tmp_path):
    """``executor="process"``: the engine builds the pool, the pool starts
    processes and no thread, and stop() leaves no worker behind (the
    module-wide ``shm_guard`` checks /dev/shm)."""
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    threads = set(threading.enumerate())
    workers = _live_pool_workers()
    # Pin num_shards: workers only spawn when a stage has >1 runnable
    # shard, so the assertions below must not depend on REPRO_NUM_SHARDS
    # — nor on REPRO_PIPELINE, whose flusher is the engine's one thread.
    query = _start(_agg_df(stream), MemorySink(), "process", 2,
                   str(tmp_path / "cp"), pipeline="off")
    pool = query.engine.pool
    assert isinstance(pool, ProcessPool)
    assert pool.num_workers == 2
    assert pool.task_timeout == 60.0
    stream.add_data(_AGG_CHUNKS[0])
    query.process_all_available()
    assert len(_live_pool_workers() - workers) == 2
    assert set(threading.enumerate()) == threads
    query.stop()
    assert all(w is None for w in pool._workers)
    assert _live_pool_workers() <= workers


def test_executor_env_variable_plumbing(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "process")
    monkeypatch.setenv("REPRO_NUM_WORKERS", "2")
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    sink = MemorySink()
    query = (_agg_df(stream).write_stream.sink(sink).output_mode("append")
             .start(str(tmp_path / "cp")))
    try:
        assert query.engine.config.executor == "process"
        assert query.engine.pool.num_workers == 2
        stream.add_data(_AGG_CHUNKS[0])
        query.process_all_available()
        assert sink.rows() is not None
    finally:
        query.stop()


@pytest.mark.parametrize("backend", ["dict", "tiered"])
def test_failed_start_releases_scheduler_and_event_log(tmp_path, backend):
    """A start() that dies in recovery must not leak the pool the engine
    built (no worker process, no thread), the events.jsonl handle, nor a
    tiered handle's run descriptors."""
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    df = _agg_df(stream)
    sink = MemorySink()
    cp = str(tmp_path / "cp")
    # Leave epoch 0 logged but uncommitted: every restart re-runs it and
    # writes its commit entry, which is where the restarts below die.
    # (The tiny memtable makes the tiered backend spill to run files.)
    query = _start(df, sink, "inline", 1, cp, shards=1,
                   state_backend=backend, state_memtable_bytes=64)
    stream.add_data(_AGG_CHUNKS[0])
    with injected(FaultInjector([Fault("epoch.after_sink")])):
        with pytest.raises(CrashPoint):
            query.process_all_available()
    query.stop()

    threads = set(threading.enumerate())
    workers = _live_pool_workers()
    fds = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        with injected(FaultInjector([Fault("wal.commit")])):
            with pytest.raises(CrashPoint):
                _start(df, sink, "process", 4, cp,
                       state_backend=backend, state_memtable_bytes=64)
    assert set(threading.enumerate()) == threads
    assert _live_pool_workers() <= workers
    assert len(os.listdir("/proc/self/fd")) <= fds


def test_unknown_executor_rejected(tmp_path):
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    with pytest.raises(ValueError, match="executor"):
        _start(_agg_df(stream), MemorySink(), "thread", 2,
               str(tmp_path / "cp"))


def test_stage_report_carries_executor_stats(tmp_path):
    _, _, pool = _run_agg("process", 2, str(tmp_path / "p"), _AGG_CHUNKS)
    report = pool.last_stage_report
    assert report is not None
    assert report == pool.stage_reports[-1]
    assert not any(key.startswith("specul") for key in report)
    executor = report.get("executor")
    assert executor is not None
    assert executor["type"] == "process"
    assert executor["num_workers"] == 2
    assert executor["ipc_bytes"] > 0
    assert executor["ship_seconds"] >= 0.0
    assert executor["merge_seconds"] >= 0.0
    assert executor["workers"], "per-worker stats missing"
    for stats in executor["workers"]:
        assert 0.0 <= stats["utilization"] <= 1.0
        assert stats["tasks"] >= 0


def _run_agg_with_restart(executor, root):
    """Feed two chunks, stop + rebuild on the same checkpoint, feed the
    rest — the recovery-replay path under the given executor."""
    checkpoint = os.path.join(root, "cp")
    sink = MemorySink()
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    df = _agg_df(stream)

    def run_half(chunks):
        query = _start(df, sink, executor, 2, checkpoint)
        try:
            for chunk in chunks:
                stream.add_data(chunk)
                query.process_all_available()
        finally:
            query.stop()

    run_half(_AGG_CHUNKS[:2])
    run_half(_AGG_CHUNKS[2:])
    return sink.rows(), checkpoint_fingerprint(checkpoint)


def test_process_pool_restart_same_checkpoint(tmp_path):
    """Stop mid-stream, rebuild on the same checkpoint, finish: the
    recovered process run must match the identically-restarted inline
    run, rows and checkpoint bytes both."""
    rows_p, fp_p = _run_agg_with_restart("process", str(tmp_path / "p"))
    rows_i, fp_i = _run_agg_with_restart("inline", str(tmp_path / "i"))
    assert rows_p == rows_i
    assert rows_p
    assert fp_p == fp_i
