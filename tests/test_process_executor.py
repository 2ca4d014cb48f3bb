"""Process-executor correctness: thread ≡ process, byte for byte.

The process pool (``cluster/process_pool.py``) must be *invisible* in
every observable output: for any stateful plan, sink rows and
checkpoint bytes must be identical to the thread executor's, for any
worker count — the driver stays authoritative over all state writes.
On top of that contract, these tests pin the recovery machinery
(worker death → respawn + re-restore; hung worker → deadline kill),
the option/env plumbing, and the per-stage executor report.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.scheduler import TaskScheduler
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
    session = Session()
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    df = (session.read_stream.memory(stream)
          .with_watermark("t", "5s")
          .group_by(F.window("t", "10s"), F.col("k")).count())
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


def _drive(df, stream, right_stream, executor, workers, root, chunks, shards):
    sink = MemorySink()
    checkpoint = os.path.join(root, "cp")
    writer = (df.write_stream.sink(sink).output_mode("append")
              .option("num_shards", shards))
    scheduler = None
    if executor == "process":
        scheduler = TaskScheduler(workers, executor="process",
                                  speculation=False)
    elif executor == "thread":
        scheduler = TaskScheduler(workers, speculation=False)
    if scheduler is not None:
        writer = writer.option("scheduler", scheduler)
    query = writer.start(checkpoint)
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
        if scheduler is not None:
            scheduler.shutdown()
    return sink.rows(), checkpoint_fingerprint(checkpoint), scheduler


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
# Thread ≡ process equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(_WORKLOADS))
def test_process_matches_thread(kind, tmp_path):
    run, chunks = _WORKLOADS[kind]
    rows_t, fp_t, _ = run("thread", 2, str(tmp_path / "t"), chunks)
    rows_p, fp_p, _ = run("process", 2, str(tmp_path / "p"), chunks)
    assert rows_t == rows_p
    assert fp_t == fp_p
    assert rows_t  # the workload must actually emit something


def test_checkpoint_invariant_across_worker_counts(tmp_path):
    """Checkpoint bytes may not depend on executor type or worker count."""
    fingerprints = []
    rows = []
    inline_rows, inline_fp, _ = _run_agg(
        None, 1, str(tmp_path / "inline"), _AGG_CHUNKS)
    for workers in (1, 2, 3):
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
def test_random_plans_thread_process_identical(kind, workers, data, tmp_path):
    """Random stateful plans: thread and process runs are byte-identical."""
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
    rows_t, fp_t, _ = run("thread", workers, str(tmp_path / f"t{token}"), chunks)
    rows_p, fp_p, _ = run("process", workers, str(tmp_path / f"p{token}"), chunks)
    assert rows_t == rows_p
    assert fp_t == fp_p


# ----------------------------------------------------------------------
# Worker-death recovery
# ----------------------------------------------------------------------
def test_injected_worker_crash_respawns_and_completes(tmp_path):
    injector = FaultInjector([
        Fault("worker.crash_mid_task", occurrence=1, action="crash"),
    ])
    with injected(injector):
        rows_p, fp_p, scheduler = _run_agg(
            "process", 2, str(tmp_path / "p"), _AGG_CHUNKS)
    assert scheduler.process_pool.worker_deaths >= 1
    assert injector.fired  # merged back from the worker before it died
    rows_t, fp_t, _ = _run_agg("thread", 2, str(tmp_path / "t"), _AGG_CHUNKS)
    assert rows_p == rows_t
    assert fp_p == fp_t


@pytest.mark.slow
def test_hung_worker_killed_at_deadline_and_respawned(tmp_path):
    injector = FaultInjector([
        Fault("worker.hang", occurrence=2, action="hang", seconds=30.0),
    ])
    sched = TaskScheduler(2, executor="process", speculation=False,
                          task_timeout=0.5)
    session = Session()
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    df = (session.read_stream.memory(stream)
          .with_watermark("t", "5s")
          .group_by(F.window("t", "10s"), F.col("k")).count())
    sink = MemorySink()
    query = (df.write_stream.sink(sink).output_mode("append")
             .option("num_shards", 4).option("scheduler", sched)
             .start(str(tmp_path / "cp")))
    started = time.monotonic()
    try:
        with injected(injector):
            for chunk in _AGG_CHUNKS:
                stream.add_data(chunk)
                query.process_all_available()
    finally:
        query.stop()
        sched.shutdown()
    assert sched.process_pool.worker_deaths >= 1
    # The deadline path, not the 30s sleep, resolved the hang.
    assert time.monotonic() - started < 20.0
    rows_t, _, _ = _run_agg("thread", 2, str(tmp_path / "t"), _AGG_CHUNKS)
    assert sink.rows() == rows_t


def test_externally_killed_worker_respawns(tmp_path):
    """SIGKILL from outside (an OOM killer, say) — not just injected death."""
    sched = TaskScheduler(2, executor="process", speculation=False)
    session = Session()
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    df = (session.read_stream.memory(stream)
          .with_watermark("t", "5s")
          .group_by(F.window("t", "10s"), F.col("k")).count())
    sink = MemorySink()
    query = (df.write_stream.sink(sink).output_mode("append")
             .option("num_shards", 4).option("scheduler", sched)
             .start(str(tmp_path / "cp")))
    try:
        stream.add_data(_AGG_CHUNKS[0])
        query.process_all_available()
        victim = next(w for w in sched.process_pool._workers if w is not None)
        os.kill(victim.proc.pid, signal.SIGKILL)
        victim.proc.join(timeout=5.0)
        for chunk in _AGG_CHUNKS[1:]:
            stream.add_data(chunk)
            query.process_all_available()
    finally:
        query.stop()
        sched.shutdown()
    assert sched.process_pool.worker_deaths >= 1
    rows_t, _, _ = _run_agg("thread", 2, str(tmp_path / "t"), _AGG_CHUNKS)
    assert sink.rows() == rows_t


# ----------------------------------------------------------------------
# Plumbing and reporting
# ----------------------------------------------------------------------
def test_executor_option_builds_owned_process_scheduler(tmp_path):
    session = Session()
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    df = (session.read_stream.memory(stream)
          .with_watermark("t", "5s")
          .group_by(F.window("t", "10s"), F.col("k")).count())
    sink = MemorySink()
    # Pin num_shards: workers only spawn when a stage has >1 runnable
    # shard, so the assertion below must not depend on REPRO_NUM_SHARDS.
    query = (df.write_stream.sink(sink).output_mode("append")
             .option("executor", "process").option("num_workers", 2)
             .option("num_shards", 4)
             .start(str(tmp_path / "cp")))
    engine = query.engine
    assert engine.scheduler is not None
    assert engine.scheduler.executor == "process"
    assert engine.scheduler.num_workers == 2
    assert engine._owns_scheduler
    stream.add_data(_AGG_CHUNKS[0])
    query.process_all_available()
    pool = engine.scheduler.process_pool
    assert any(w is not None for w in pool._workers)
    query.stop()  # owned scheduler: stop() must tear down the pool
    assert all(w is None for w in pool._workers)


def test_executor_env_variable_plumbing(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "process")
    monkeypatch.setenv("REPRO_NUM_WORKERS", "2")
    session = Session()
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    df = (session.read_stream.memory(stream)
          .with_watermark("t", "5s")
          .group_by(F.window("t", "10s"), F.col("k")).count())
    sink = MemorySink()
    query = (df.write_stream.sink(sink).output_mode("append")
             .start(str(tmp_path / "cp")))
    try:
        assert query.engine.scheduler.executor == "process"
        assert query.engine.scheduler.num_workers == 2
        stream.add_data(_AGG_CHUNKS[0])
        query.process_all_available()
        assert sink.rows() is not None
    finally:
        query.stop()


@pytest.mark.parametrize("backend", ["dict", "tiered"])
def test_failed_start_releases_scheduler_and_event_log(tmp_path, backend):
    """A start() that dies in recovery must not leak the scheduler the
    engine built (worker threads), the events.jsonl handle, nor a tiered
    handle's run descriptors."""
    session = Session()
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    df = (session.read_stream.memory(stream)
          .with_watermark("t", "5s")
          .group_by(F.window("t", "10s"), F.col("k")).count())
    sink = MemorySink()
    cp = str(tmp_path / "cp")
    # Leave epoch 0 logged but uncommitted: every restart re-runs it and
    # writes its commit entry, which is where the restarts below die.
    # (The tiny memtable makes the tiered backend spill to run files.)
    query = (df.write_stream.sink(sink).output_mode("append")
             .option("state_backend", backend)
             .option("state_memtable_bytes", 64).start(cp))
    stream.add_data(_AGG_CHUNKS[0])
    with injected(FaultInjector([Fault("epoch.after_sink")])):
        with pytest.raises(CrashPoint):
            query.process_all_available()
    query.stop()

    threads = set(threading.enumerate())
    fds = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        with injected(FaultInjector([Fault("wal.commit")])):
            with pytest.raises(CrashPoint):
                (df.write_stream.sink(sink).output_mode("append")
                 .option("executor", "process").option("num_workers", 4)
                 .option("state_backend", backend)
                 .option("state_memtable_bytes", 64).start(cp))
    # Scheduler threads notice the shutdown at their next 50 ms poll.
    deadline = time.monotonic() + 5.0
    while set(threading.enumerate()) - threads and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not set(threading.enumerate()) - threads
    assert len(os.listdir("/proc/self/fd")) <= fds


def test_unknown_executor_rejected():
    with pytest.raises(ValueError, match="executor"):
        TaskScheduler(2, executor="gpu")


def test_stage_report_carries_executor_stats(tmp_path):
    _, _, scheduler = _run_agg("process", 2, str(tmp_path / "p"), _AGG_CHUNKS)
    report = scheduler.last_stage_report
    assert report is not None
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
    session = Session()
    stream = make_stream((("k", "string"), ("v", "long"), ("t", "timestamp")))
    df = (session.read_stream.memory(stream)
          .with_watermark("t", "5s")
          .group_by(F.window("t", "10s"), F.col("k")).count())

    def run_half(chunks):
        scheduler = TaskScheduler(2, executor=executor, speculation=False)
        query = (df.write_stream.sink(sink).output_mode("append")
                 .option("num_shards", 4)
                 .option("scheduler", scheduler)
                 .start(checkpoint))
        try:
            for chunk in chunks:
                stream.add_data(chunk)
                query.process_all_available()
        finally:
            query.stop()
            scheduler.shutdown()

    run_half(_AGG_CHUNKS[:2])
    run_half(_AGG_CHUNKS[2:])
    return sink.rows(), checkpoint_fingerprint(checkpoint)


def test_process_pool_restart_same_checkpoint(tmp_path):
    """Stop mid-stream, rebuild on the same checkpoint, finish: the
    recovered process run must match the identically-restarted thread
    run, rows and checkpoint bytes both."""
    rows_p, fp_p = _run_agg_with_restart("process", str(tmp_path / "p"))
    rows_t, fp_t = _run_agg_with_restart("thread", str(tmp_path / "t"))
    assert rows_p == rows_t
    assert rows_p
    assert fp_p == fp_t
