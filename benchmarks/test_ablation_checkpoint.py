"""Ablation — incremental (delta) vs full-snapshot state checkpoints (§6.1).

Paper: stateful operators "checkpoint their state periodically and
asynchronously to the state store, using incremental checkpoints when
possible", and checkpoints "do not need to happen on every epoch".

Reproduction ablation: a windowed aggregation with many keys where each
epoch touches only a few.  Delta checkpoints write only the touched
keys; base-every-version writes the whole map.  The report also shows
the recovery-time side of the tradeoff.

The engine has no knob for either extreme: the two arms are test-local
subclasses that override the rebase decision.
"""

from __future__ import annotations

import time

import pytest

from repro.streaming.state import OperatorStateHandle

from benchmarks.reporting import emit

NUM_KEYS = 5_000
KEYS_PER_EPOCH = 50
EPOCHS = 30

_results = {}


class _NeverRebase(OperatorStateHandle):
    """Deltas for ever after the first base (unbounded recovery chain)."""

    def _wants_base(self) -> bool:
        return self.last_committed_version is None


class _AlwaysRebase(OperatorStateHandle):
    """A full base at every version (O(state) per commit)."""

    def _wants_base(self) -> bool:
        return True


def _seed(handle):
    for i in range(NUM_KEYS):
        handle.put(("campaign", i), [i, float(i)])


def _run_epochs(handle, start_version: int):
    for epoch in range(EPOCHS):
        for i in range(KEYS_PER_EPOCH):
            key = ("campaign", (epoch * KEYS_PER_EPOCH + i) % NUM_KEYS)
            handle.put(key, [epoch, float(i)])
        handle.commit(start_version + epoch)


@pytest.mark.benchmark(group="ablation-checkpoint")
def test_delta_checkpointing(benchmark, tmp_path):
    def run():
        handle = _NeverRebase(str(tmp_path / f"delta-{time.monotonic_ns()}"))
        _seed(handle)
        handle.commit(0)  # the first commit of a chain is always a base
        _run_epochs(handle, 1)
        return handle

    handle = benchmark.pedantic(run, rounds=3, iterations=1)
    _results["delta_seconds"] = benchmark.stats.stats.min
    _results["delta_handle_dir"] = handle._directory


@pytest.mark.benchmark(group="ablation-checkpoint")
def test_snapshot_every_epoch(benchmark, tmp_path):
    def run():
        handle = _AlwaysRebase(str(tmp_path / f"snap-{time.monotonic_ns()}"))
        _seed(handle)
        handle.commit(0)
        _run_epochs(handle, 1)
        return handle

    benchmark.pedantic(run, rounds=3, iterations=1)
    _results["snapshot_seconds"] = benchmark.stats.stats.min


@pytest.mark.benchmark(group="ablation-checkpoint")
def test_zz_checkpoint_report(benchmark, tmp_path):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    delta = _results["delta_seconds"]
    snapshot = _results["snapshot_seconds"]

    # Recovery cost of the long delta chain (the tradeoff's other side).
    started = time.perf_counter()
    fresh = OperatorStateHandle(_results["delta_handle_dir"])
    fresh.restore(EPOCHS)
    recovery = time.perf_counter() - started
    assert len(fresh) == NUM_KEYS

    emit("ablation_checkpoint", [
        "Ablation: incremental delta vs snapshot-per-epoch checkpoints",
        f"{NUM_KEYS} keys in state, {KEYS_PER_EPOCH} touched per epoch, "
        f"{EPOCHS} epochs",
        f"delta checkpointing:   {delta:.3f}s total",
        f"base every epoch:      {snapshot:.3f}s total "
        f"({snapshot / delta:.1f}x more expensive)",
        f"recovery over the {EPOCHS}-delta chain: {recovery * 1000:.1f} ms",
        "(§6.1: incremental checkpoints keep per-epoch cost proportional "
        "to changed keys; rebasing bounds recovery replay)",
    ])
    assert snapshot > delta * 3
