"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import time
from types import SimpleNamespace

import pytest
from hypothesis import settings

from repro.sql.session import Session
from repro.sql.types import StructType
from repro.sources.memory import MemoryStream

# ---------------------------------------------------------------------------
# Hypothesis profiles: one knob for how hard property tests try.
#
#   ci      (default) - moderate example counts, what the suite gates on
#   dev     - a handful of examples for fast local iteration
#   nightly - deep search for soak runs
#
# Select with HYPOTHESIS_PROFILE=dev|ci|nightly.  Individual tests should
# NOT carry their own @settings(max_examples=...) — the profile governs —
# except where a test documents a deliberate cost ceiling (process-pool
# tests spawn real worker processes per example).
# ---------------------------------------------------------------------------
settings.register_profile("ci", max_examples=20, deadline=None)
settings.register_profile("dev", max_examples=5, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def _shm_files() -> set:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("repro-")}


@pytest.fixture
def shm_guard():
    """Assert a test leaks no shared-memory segments.

    Checks both this process's live-segment registry and /dev/shm
    itself, so leaks from worker processes (which create nothing, but
    could in a regression) and unreleased SharedBatch encodes all fail
    the owning test rather than poisoning the host until reboot.
    """
    from repro.sql.batch import live_shm_segments

    before = _shm_files()
    yield
    assert live_shm_segments() == [], (
        f"leaked SharedBatch segments: {live_shm_segments()}")
    leaked = _shm_files() - before
    assert not leaked, f"leaked /dev/shm segments: {sorted(leaked)}"


class ShardTaskOp:
    """A stateless stand-in operator for driving a ProcessPool directly:
    the pool only asks an operator for its children, its state handles
    and the named shard-task method."""

    state_aligned = False

    def child_ops(self):
        return []

    def state_handles(self):
        return []

    def square(self, x):
        return x * x

    def nap(self, seconds, value):
        time.sleep(seconds)
        return value

    def stamp(self, seconds):
        """(worker pid, start, end) on the system-wide monotonic clock."""
        started = time.monotonic()
        time.sleep(seconds)
        return os.getpid(), started, time.monotonic()


def bound_pool(num_workers: int = 2, **kwargs):
    """A ProcessPool bound to a one-operator plan: ``(pool, op)``."""
    from repro.cluster.process_pool import ProcessPool

    op = ShardTaskOp()
    pool = ProcessPool(num_workers, **kwargs)
    pool.bind(SimpleNamespace(plan=SimpleNamespace(root=op)))
    return pool, op


def fail_shard(shard: int, times=1):
    """An injector failing ``shard``'s pool task ``times`` times (None:
    always).  Matched by shard, not occurrence: every pool worker counts
    occurrences in its own fork-time copy of the injector."""
    from repro.testing.faults import Fault, FaultInjector

    return FaultInjector([
        Fault("worker.task", occurrence=None, action="fail", times=times,
              match=lambda ctx: ctx["shard"] == shard),
    ])


@pytest.fixture
def op_pool(shm_guard):
    """Two bound workers and their operator; shut down after the test."""
    pool, op = bound_pool()
    yield pool, op
    pool.shutdown()


@pytest.fixture
def session() -> Session:
    return Session()


@pytest.fixture
def checkpoint(tmp_path) -> str:
    return str(tmp_path / "checkpoint")


def make_stream(fields) -> MemoryStream:
    """A MemoryStream with a tuple-spec schema."""
    return MemoryStream(StructType(tuple(fields)))


def rows_set(rows) -> set:
    """Rows as a set of sorted-item tuples for order-insensitive compare."""
    return {tuple(sorted(r.items())) for r in rows}


def start_memory_query(df, mode: str, name: str, checkpoint_dir: str = None, **options):
    """Start a manually driven streaming query into a MemorySink."""
    writer = df.write_stream.format("memory").query_name(name).output_mode(mode)
    for key, value in options.items():
        writer = writer.option(key, value)
    return writer.start(checkpoint_dir)


def framed(kind: str, version: int, *records: str) -> str:
    """The state file the codec writes for these record lines: golden
    tests pin the header and record bytes literally; the trailer's
    digest follows from them."""
    import hashlib

    body = (f'{{"format":"repro-state/1","kind":"{kind}",'
            f'"version":{version}}}\n' + "".join(r + "\n" for r in records))
    digest = hashlib.sha256(body.encode()).hexdigest()
    return body + f'{{"count":{len(records)},"sha256":"{digest}"}}\n'
