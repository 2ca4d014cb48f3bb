"""Operator state reaches disk by one route (§6.1): a handle's
``prepare_commit`` makes a ``PendingStateWrite`` and its ``execute``
writes the file, one operator after another in ``write_checkpoint``.

The sequential engine and recovery run that loop inline, each file
streaming from live state as it is written; the pipelined engine
captures each file on the epoch thread and runs the same loop on its
flusher.  Pinned here: both ways write the same bytes for every kind of
handle, ``state.commit_all`` fires only between two operators' writes,
and a failure inside the inline loop restarts to the fault-free run.
"""

from __future__ import annotations

import os

import pytest

from repro.sql.types import WEIGHT_COLUMN, StructType
from repro.storage import SyncGroup
from repro.streaming.join_state import side_layout
from repro.streaming.state import (
    OperatorStateHandle,
    StateStore,
    write_checkpoint,
)
from repro.streaming.state_lsm import TieredOperatorStateHandle
from repro.testing.faults import (
    Fault,
    FaultInjector,
    InjectedTaskError,
    injected,
)
from repro.testing.harness import canonical, run_golden

from tests import checkpoint_scenarios as corpus
from tests import sweep

BLOCK_SCHEMA = StructType((("k", "long"), ("x", "double"),
                           (WEIGHT_COLUMN, "long")))
BLOCK_LAYOUT = side_layout(BLOCK_SCHEMA, False, 2)


def _jsonl(directory):
    return OperatorStateHandle(directory), lambda i: [i, "v" * (i % 5)]


def _block(directory):
    handle = OperatorStateHandle(directory)
    handle.set_codec(BLOCK_LAYOUT.to_disk, BLOCK_LAYOUT.from_disk,
                     BLOCK_LAYOUT.schema)
    handle.set_row_count(BLOCK_LAYOUT.stride)
    return handle, lambda i: BLOCK_LAYOUT._struct.pack(i, i / 4, 1 + i % 3)


def _tiered(directory):
    # A memtable this small spills and compacts runs between commits.
    return (TieredOperatorStateHandle(directory, memtable_bytes=512),
            lambda i: [i, "v" * (i % 5)])


def _step(handle, value, epoch: int) -> None:
    """One epoch's writes: new keys, overwrites and removes."""
    for i in range(epoch * 40, epoch * 40 + 60):
        handle.put((i % 150,), value(i))
    for i in range(epoch * 7, epoch * 7 + 10):
        handle.remove((i % 150,))


def _files(directory) -> dict:
    found = {}
    for root, _dirs, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, directory)] = f.read()
    return found


@pytest.mark.parametrize("make,kinds", [
    (_jsonl, {"base.jsonl", "delta.jsonl"}),
    (_block, {"base.block", "delta.block"}),
    (_tiered, {"manifest.json", "run", "meta"}),
], ids=["jsonl", "block", "tiered"])
def test_inline_and_captured_commits_write_the_same_files(tmp_path, make,
                                                          kinds):
    """``commit`` streams each version straight from live state; a
    captured ``prepare_commit`` is written one epoch later, as the
    pipelined flusher does, after the next epoch's writes.  Both
    write the same files, bases, deltas and tiered runs alike."""
    inline, value = make(str(tmp_path / "inline"))
    captured, _ = make(str(tmp_path / "captured"))
    group = SyncGroup()
    pending = None
    for version in range(6):
        for handle in (inline, captured):
            _step(handle, value, version)
        if pending is not None:
            pending.execute(group)
        inline.commit(version)
        pending = captured.prepare_commit(version, group)
        pending.capture()
    pending.execute(group)
    group.sync()
    written = _files(tmp_path / "inline")
    assert {path.partition(".")[2] for path in written} == kinds
    assert _files(tmp_path / "captured") == written
    for handle in (inline, captured):
        handle.close()


def _store(directory, operators: int) -> StateStore:
    store = StateStore(directory)
    for op in range(operators):
        store.handle(f"op-{op}").put(("k",), 0)
    return store


@pytest.mark.parametrize("pipelined", [False, True],
                         ids=["sequential", "pipelined"])
@pytest.mark.parametrize("operators", [1, 2])
def test_commit_all_fires_only_between_two_commits(tmp_path, pipelined,
                                                    operators):
    """``state.commit_all`` is the instant some operators hold a
    version and the rest do not: never in a one-operator store, once
    per version after the first operator in a two-operator one."""
    store = _store(str(tmp_path), operators)
    seen = []
    injector = FaultInjector([Fault(
        "state.commit_all", occurrence=None, times=None,
        match=lambda ctx: seen.append(ctx) and False)])
    group = SyncGroup() if pipelined else None
    with injected(injector):
        for version in range(3):
            for handle in store._handles.values():
                handle.put(("k",), version)
            write_checkpoint(store.prepare_commit_all(version, group), group)
    assert [(ctx["version"], ctx["committed"], ctx["total"])
            for ctx in seen] == ([] if operators == 1 else
                                 [(v, 1, 2) for v in range(3)])
    assert store.latest_complete_version() == 2


@pytest.mark.parametrize("fault", [
    Fault("state.commit_all", occurrence=1, action="fail"),
    Fault("state.commit", occurrence=3, action="fail"),
], ids=["between-writes", "second-write"])
def test_failure_in_the_inline_write_loop_restarts_clean(tmp_path, fault):
    """A failure (not a crash) inside the sequential write loop, after
    one operator of a join wrote version 1 and before the other did,
    fails the epoch; a restart on the same checkpoint replays to the
    fault-free run's sink and checkpoint bytes."""
    config = sweep.Config("outer_within_join")
    reference = sweep.Instance(config, str(tmp_path / "reference"))
    golden = run_golden(reference.build, reference.steps,
                        reference.read_sink)

    instance = sweep.Instance(config, str(tmp_path / "run"))
    query = instance.build()
    injector = FaultInjector([fault])
    fed = 0
    with injected(injector), pytest.raises(InjectedTaskError):
        query.process_all_available()
        for step in instance.steps:
            step()
            fed += 1
            query.process_all_available()
    assert injector.fired
    query.stop()
    query = instance.build()
    query.process_all_available()
    for step in instance.steps[fed:]:
        step()
        query.process_all_available()
    query.stop()
    assert canonical(instance.read_sink()) == canonical(golden.final)
    assert (corpus.fingerprint(instance.checkpoint)
            == corpus.fingerprint(reference.checkpoint))
