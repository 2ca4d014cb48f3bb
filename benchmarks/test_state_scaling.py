"""State-scaling ablation — epoch cost is O(delta), not O(total state).

The paper claims each epoch costs "time proportional to new data, never
to the whole stream" (§5.2, §6.1).  This bench grows buffered state to
~50k keys under a constant per-epoch delta and checks that epoch latency
stays flat:

* a windowed aggregation whose watermark lags far behind (state
  accumulates; eviction checks run every epoch), and
* a within-bound stream–stream join (both sides buffer every row).

Before the expiry-indexed eviction + probe-based join, both were linear
in accumulated state (the eviction full-scan and the rebuild of all
buffered rows into RecordBatches each epoch); see
``benchmarks/results/state_scaling.txt`` for the before/after numbers.

Run with ``STATE_SCALING_SMOKE=1`` for a small sanity-gate variant (used
by ``make bench-smoke``): same code paths, tiny sizes, no ratio assert.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import pytest

from repro.sql import functions as F
from repro.sql.session import Session
from repro.sql.types import StructType
from repro.sources.memory import MemoryStream

from benchmarks.reporting import emit

SMOKE = os.environ.get("STATE_SCALING_SMOKE") == "1"
#: (epochs, per-epoch delta) — full mode reaches >50k buffered keys.
AGG_EPOCHS, AGG_KEYS_PER_EPOCH = (8, 250) if SMOKE else (22, 2500)
JOIN_EPOCHS, JOIN_ROWS_PER_EPOCH = (8, 100) if SMOKE else (26, 1000)
#: Tiered-backend run: epochs × new keys/epoch reaches 10M keys in full
#: mode — far beyond what the dict backend's RSS could hold here.
TIERED_EPOCHS, TIERED_KEYS_PER_EPOCH = (6, 5000) if SMOKE else (50, 200_000)
TIERED_OVERWRITES_PER_EPOCH = 200 if SMOKE else 2000
TIERED_MEMTABLE_BYTES = 64 * 1024 * 1024
#: RSS ceiling for the full 10M-key run: the 64MB memtable budget
#: (logical bytes; Python object overhead is ~3x that), per-run bloom
#: filters + sparse indexes (~30MB at 10M keys), and interpreter slack.
#: The dict backend measures ~330 bytes/key (see the emitted report), so
#: 10M keys would need ~3.3GB — this bound is an order of magnitude under.
TIERED_RSS_BOUND = 512 * 1024 * 1024

#: Pre-optimization epoch latencies measured on this container with the
#: full-scan eviction and batch-rebuilding join, same workload shapes:
#: (state keys, epoch ms) samples from the linear-cost baseline.
BEFORE = {
    "aggregate": [(2500, 42.9), (5000, 52.1), (10000, 72.9),
                  (25000, 104.6), (50000, 145.2), (55000, 159.5)],
    "join": [(2000, 47.8), (4000, 73.7), (10000, 159.6),
             (24000, 408.1), (50000, 1069.5), (52000, 1111.8)],
}


def _timed_epochs(stream_feeds, query):
    """Feed one epoch at a time; return [(state_keys, seconds)]."""
    timings = []
    gc.collect()
    gc.disable()
    try:
        for feed in stream_feeds:
            feed()
            started = time.perf_counter()
            query.process_all_available()
            timings.append((
                query.engine.state_store.total_keys(),
                time.perf_counter() - started,
            ))
    finally:
        gc.enable()
    return timings


def run_agg(tmp_path):
    """Windowed count; watermark far behind so state only accumulates."""
    session = Session()
    stream = MemoryStream(StructType((("t", "timestamp"), ("k", "long"))))
    df = session.read_stream.memory(stream).with_watermark("t", "1000000000s")
    counts = df.group_by(F.window("t", "10s"), "k").count()
    query = (counts.write_stream.format("memory").query_name("scaling-agg")
             .output_mode("update").start(str(tmp_path / "agg")))

    def feed(epoch):
        def add():
            stream.add_data([
                {"t": epoch * 10.0, "k": epoch * AGG_KEYS_PER_EPOCH + i}
                for i in range(AGG_KEYS_PER_EPOCH)
            ])
        return add

    return _timed_epochs([feed(e) for e in range(AGG_EPOCHS)], query)


def run_join(tmp_path):
    """Within-bound stream–stream join; every row stays buffered."""
    session = Session()
    ls = MemoryStream(StructType((("k", "long"), ("t", "timestamp"))))
    rs = MemoryStream(StructType((("k", "long"), ("t2", "timestamp"))))
    left = session.read_stream.memory(ls).with_watermark("t", "1000000000s")
    right = session.read_stream.memory(rs).with_watermark("t2", "1000000000s")
    joined = left.join(right, on="k", within=("t", "t2", "5s"))
    query = (joined.write_stream.format("memory").query_name("scaling-join")
             .output_mode("append").start(str(tmp_path / "join")))

    def feed(epoch):
        def add():
            base_key = epoch * JOIN_ROWS_PER_EPOCH
            ls.add_data([{"k": base_key + i, "t": epoch * 10.0}
                         for i in range(JOIN_ROWS_PER_EPOCH)])
            rs.add_data([{"k": base_key + i, "t2": epoch * 10.0 + 1.0}
                         for i in range(JOIN_ROWS_PER_EPOCH)])
        return add

    return _timed_epochs([feed(e) for e in range(JOIN_EPOCHS)], query)


def _window_medians(timings):
    """Median epoch ms over an early window (~1/10 of final state) and a
    late window (final state), skipping warmup epochs."""
    count = len(timings)
    early = [s for _, s in timings[1:5]]
    late = [s for _, s in timings[count - 5:count - 1]]
    return (statistics.median(early) * 1000.0,
            statistics.median(late) * 1000.0)


@pytest.mark.benchmark(group="state-scaling")
def test_epoch_latency_flat_as_state_grows(benchmark, tmp_path):
    results = {}

    def run_both():
        results["agg"] = run_agg(tmp_path)
        results["join"] = run_join(tmp_path)
        return len(results["agg"]) + len(results["join"])

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    agg, join = results["agg"], results["join"]
    agg_early, agg_late = _window_medians(agg)
    join_early, join_late = _window_medians(join)
    agg_growth = agg_late / agg_early
    join_growth = join_late / join_early

    lines = [
        "State scaling: epoch latency vs buffered state (§5.2/§6.1 "
        "delta-proportionality)",
        f"windowed aggregate: +{AGG_KEYS_PER_EPOCH} keys/epoch, "
        f"{AGG_EPOCHS} epochs -> {agg[-1][0]} keys",
        f"stream-stream join (within bound): "
        f"+{2 * JOIN_ROWS_PER_EPOCH} rows/epoch, "
        f"{JOIN_EPOCHS} epochs -> {join[-1][0]} buffered rows",
        "",
        f"{'workload':>12}{'state 1x':>12}{'state 10x':>12}{'growth':>9}",
    ]
    for name, early, late, growth in (
        ("aggregate", agg_early, agg_late, agg_growth),
        ("join", join_early, join_late, join_growth),
    ):
        lines.append(
            f"{name:>12}{early:>10.1f}ms{late:>10.1f}ms{growth:>8.2f}x")
    lines += [
        "",
        "before indexed eviction + probe join (same shapes; full-scan "
        "eviction, buffered state rebuilt per epoch):",
    ]
    for name, samples in BEFORE.items():
        series = ", ".join(f"{keys / 1000:g}k: {ms:.0f}ms"
                           for keys, ms in samples)
        lines.append(f"{name:>12}  {series}")
    lines.append(
        "  (aggregate 5k->50k keys: 2.8x; join 4k->52k rows: 15.1x)")

    emit("state_scaling", lines, data={
        "smoke": SMOKE,
        "aggregate": {"early_ms": agg_early, "late_ms": agg_late,
                      "growth": agg_growth},
        "join": {"early_ms": join_early, "late_ms": join_late,
                 "growth": join_growth},
    })
    if not SMOKE:
        # The acceptance bar: 10x more buffered state, <=1.5x epoch time.
        assert agg_growth <= 1.5, f"aggregate epoch latency grew {agg_growth:.2f}x"
        assert join_growth <= 1.5, f"join epoch latency grew {join_growth:.2f}x"

    # Sanity in both modes: state actually accumulated as designed.
    assert agg[-1][0] == AGG_EPOCHS * AGG_KEYS_PER_EPOCH
    assert join[-1][0] == 2 * JOIN_EPOCHS * JOIN_ROWS_PER_EPOCH


# ----------------------------------------------------------------------
# Tiered backend: 10M keys under a bounded memtable (ISSUE 7 acceptance)
# ----------------------------------------------------------------------
def _rss_bytes() -> int:
    with open("/proc/self/status", encoding="utf-8") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmRSS not found")


def _dict_bytes_per_key(n: int = 200_000) -> float:
    """Measured dict-backend memory per key, for the comparison line."""
    from repro.streaming.state import OperatorStateHandle
    import tempfile

    gc.collect()
    before = _rss_bytes()
    handle = OperatorStateHandle(tempfile.mkdtemp())
    for i in range(n):
        handle.put(i, [i % 7])
    gc.collect()
    per_key = (_rss_bytes() - before) / n
    del handle
    gc.collect()
    return per_key


@pytest.mark.benchmark(group="state-scaling")
def test_tiered_backend_bounded_rss_and_flat_epochs(benchmark, tmp_path):
    """10M+ keys through the tiered handle: RSS stays bounded by the
    memtable budget + fixed probe-structure overhead, per-epoch latency
    stays flat, and each commit writes bytes proportional to the
    epoch's delta — never to total state."""
    from repro.storage import list_files
    from repro.streaming.state_lsm import TieredOperatorStateHandle

    dict_per_key = _dict_bytes_per_key(20_000 if SMOKE else 200_000)
    gc.collect()
    rss_start = _rss_bytes()
    handle = TieredOperatorStateHandle(
        str(tmp_path / "op"), memtable_bytes=TIERED_MEMTABLE_BYTES)
    runs_dir = str(tmp_path / "op" / "runs")
    epochs = []  # (total_keys, seconds, rss, flush_bytes, compact_bytes)

    def run_epochs():
        for epoch in range(TIERED_EPOCHS):
            base = epoch * TIERED_KEYS_PER_EPOCH
            first_seq = handle._next_seq
            started = time.perf_counter()
            for i in range(base, base + TIERED_KEYS_PER_EPOCH):
                handle.put(i, [i % 7])
            for i in range(0, base, max(1, base // TIERED_OVERWRITES_PER_EPOCH or 1)):
                handle.put(i, [-1])
            handle.commit(epoch + 1)
            elapsed = time.perf_counter() - started
            sizes = {
                int(name.split(".")[0]): os.path.getsize(
                    os.path.join(runs_dir, name))
                for name in list_files(runs_dir, ".run")
            }
            flush_bytes = sizes.get(first_seq, 0)
            compact_bytes = sum(b for s, b in sizes.items() if s > first_seq)
            if epoch % 5 == 4:
                handle.prune(epoch + 1)
            gc.collect()
            epochs.append((len(handle), elapsed, _rss_bytes(),
                           flush_bytes, compact_bytes))
        return len(epochs)

    benchmark.pedantic(run_epochs, rounds=1, iterations=1)

    total_keys = TIERED_EPOCHS * TIERED_KEYS_PER_EPOCH
    assert len(handle) == total_keys
    # spot-probe correctness at full size, and time the point lookups
    probe_started = time.perf_counter()
    probes = 2000
    for i in range(0, total_keys, max(1, total_keys // probes)):
        assert handle.get(i) is not None
    probe_us = (time.perf_counter() - probe_started) / probes * 1e6

    rss_delta = max(r for _, _, r, _, _ in epochs) - rss_start
    early = [s for _, s, _, _, _ in epochs[4:9]]
    late = [s for _, s, _, _, _ in epochs[-5:]]
    growth = statistics.median(late) / statistics.median(early)
    flush_early = statistics.median([f for *_, f, _ in epochs[4:9]])
    flush_late = statistics.median([f for *_, f, _ in epochs[-5:]])
    compact_total = sum(c for *_, c in epochs)
    flush_total = sum(f for *_, f, _ in epochs)

    lines = [
        "Tiered state backend: 10M-key run under a 64MB memtable budget",
        f"keys: {total_keys} ({TIERED_KEYS_PER_EPOCH}/epoch x "
        f"{TIERED_EPOCHS} epochs, +{TIERED_OVERWRITES_PER_EPOCH} "
        "overwrites/epoch), values [int]",
        f"peak RSS delta: {rss_delta / 2**20:.0f}MB "
        f"(bound {TIERED_RSS_BOUND / 2**20:.0f}MB; dict backend measured "
        f"{dict_per_key:.0f}B/key -> ~{dict_per_key * total_keys / 2**30:.1f}"
        "GB at this size)",
        f"epoch latency: {statistics.median(early) * 1000:.0f}ms at "
        f"{epochs[4][0] / 1e6:.1f}M keys -> {statistics.median(late) * 1000:.0f}"
        f"ms at {epochs[-1][0] / 1e6:.1f}M keys ({growth:.2f}x)",
        f"commit delta bytes: {flush_early / 2**20:.1f}MB early -> "
        f"{flush_late / 2**20:.1f}MB late (state grew "
        f"{epochs[-1][0] / epochs[4][0]:.0f}x)",
        f"compaction I/O: {compact_total / 2**20:.0f}MB total vs "
        f"{flush_total / 2**20:.0f}MB flushed "
        f"(write amplification {1 + compact_total / max(1, flush_total):.1f}x)",
        f"point probe at full size: {probe_us:.0f}us/get, "
        f"{len(handle._runs)} live runs",
    ]
    emit("state_scaling_tiered", lines, data={
        "smoke": SMOKE,
        "total_keys": total_keys,
        "rss_delta_bytes": rss_delta,
        "dict_bytes_per_key": dict_per_key,
        "epoch_growth": growth,
        "flush_bytes_early": flush_early,
        "flush_bytes_late": flush_late,
        "compaction_bytes": compact_total,
        "probe_us": probe_us,
        "live_runs": len(handle._runs),
    })
    if not SMOKE:
        assert rss_delta < TIERED_RSS_BOUND, (
            f"RSS grew {rss_delta / 2**20:.0f}MB — state is not tiered out"
        )
        # 10x more total state between the early and late windows must
        # not show up in epoch time (no O(total-state) term)...
        assert growth <= 1.8, f"epoch latency grew {growth:.2f}x"
        # ...nor in the bytes a delta commit writes.
        assert flush_late <= 2.0 * flush_early, (
            f"commit bytes grew {flush_late / max(1, flush_early):.1f}x; "
            "snapshots are no longer delta-proportional"
        )
