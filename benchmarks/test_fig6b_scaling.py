"""Figure 6b — Yahoo! benchmark throughput scaling with cluster size (§9.2).

Paper (c3.2xlarge nodes, 8 cores each, one Kafka partition per core):

    1 node   11.5 M records/s
    5 nodes  ~63  M records/s
    10 nodes ~115 M records/s
    20 nodes 225  M records/s   ("scales close to linearly")

Reproduction: the per-core rate of the real Structured Streaming engine
is measured on this machine; multi-node throughput comes from the
calibrated cluster performance model (a laptop cannot host 160 cores —
see DESIGN.md substitutions).  The claim under test is the *shape*:
near-linear scaling, >=85% parallel efficiency at 20 nodes.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.cluster.perfmodel import ClusterPerformanceModel
from repro.sql.session import Session
from repro.workloads.yahoo import structured_streaming_query

from benchmarks.reporting import emit, retract

N = 400_000
NODE_COUNTS = (1, 5, 10, 20)
PAPER_SERIES = {1: 11.5e6, 5: 63e6, 10: 115e6, 20: 225e6}
WORKER_COUNTS = (1, 2, 4, 8)
SWEEP_SHARDS = 8


def _drain(broker, workload) -> int:
    session = Session()
    query = structured_streaming_query(session, broker, "events", workload)
    handle = (query.write_stream.format("memory").query_name("fig6b")
              .output_mode("update").start())
    handle.process_all_available()
    return N


@pytest.mark.benchmark(group="fig6b")
def test_scaling_series(benchmark, columnar_events, workload):
    processed = benchmark.pedantic(
        _drain, args=(columnar_events, workload), rounds=3, iterations=1)
    per_core = processed / benchmark.stats.stats.min
    benchmark.extra_info["per_core_records_per_second"] = per_core

    model = ClusterPerformanceModel(per_core, cores_per_node=8)
    series = model.sweep(NODE_COUNTS)

    lines = [
        "Figure 6b — throughput vs cluster size (Yahoo! benchmark)",
        f"measured per-core rate: {per_core:,.0f} records/s",
        f"{'nodes':>6}{'modeled rec/s':>18}{'speedup':>10}{'paper rec/s':>14}",
    ]
    for nodes, rate in series:
        lines.append(
            f"{nodes:>6}{rate:>15,.0f}/s{model.speedup(nodes):>9.1f}x"
            f"{PAPER_SERIES[nodes]:>13,.0f}/s"
        )
    efficiency = model.speedup(20) / 20
    lines.append(f"parallel efficiency at 20 nodes: {efficiency:.1%} "
                 "(paper: ~98%)")
    emit("fig6b_scaling", lines, data={
        "per_core_records_per_second": per_core,
        "modeled_records_per_second": {str(n): r for n, r in series},
        "paper_records_per_second": {str(n): r
                                     for n, r in PAPER_SERIES.items()},
        "efficiency_at_20_nodes": efficiency,
    })

    # Shape assertions: monotone, near-linear.
    rates = [rate for _n, rate in series]
    assert rates == sorted(rates)
    assert efficiency >= 0.85
    # The paper's 20-vs-1 ratio is 225/11.5 ~ 19.6x.
    assert 16.0 <= model.speedup(20) <= 20.0


# ---------------------------------------------------------------------------
# Measured process-worker sweep over the hash-partitioned epoch (§6.1-§6.2)
# ---------------------------------------------------------------------------

def _drain_partitioned(broker, workload, workers) -> tuple:
    """One full run of the Yahoo pipeline on a ``workers``-process pool;
    returns the epoch wall time and the pool's stage reports."""
    session = Session()
    query = structured_streaming_query(session, broker, "events", workload)
    handle = (query.write_stream.format("memory").query_name("fig6b-sweep")
              .output_mode("update")
              .option("executor", "process")
              .option("num_workers", workers)
              .option("num_shards", SWEEP_SHARDS)
              .start())
    try:
        started = time.perf_counter()
        handle.process_all_available()
        wall = time.perf_counter() - started
        return wall, handle.engine.pool.stage_reports
    finally:
        handle.stop()


@pytest.mark.benchmark(group="fig6b")
def test_worker_sweep_process_executor(benchmark, columnar_events, workload):
    """Measured epoch throughput vs *process*-worker count.

    Unlike the node series above (which must model cluster sizes this
    machine cannot host), the worker sweep is now a real measurement:
    each worker count runs the full Yahoo pipeline on the process
    executor — forked workers, shared-memory input batches, state-delta
    shipping — and reports wall time plus the pool's IPC accounting.
    The ≥1.6x speedup floor at 4 workers only applies on a host that
    actually has ≥4 cores; a 1-core container still runs the sweep and
    records the (flat) measured series.
    """
    smoke = os.environ.get("FIG6B_SMOKE") == "1"
    worker_counts = (1, 2) if smoke else WORKER_COUNTS
    rounds = 1 if smoke else 3
    measured = {}
    reports = {}

    def sweep():
        for workers in worker_counts:
            measured[workers], reports[workers] = min(
                (_drain_partitioned(columnar_events, workload, workers)
                 for _ in range(rounds)),
                key=lambda run: run[0])
        return len(measured)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    def _pool_stats(stage_reports):
        ipc = sum(r.get("executor", {}).get("ipc_bytes", 0)
                  for r in stage_reports)
        ship = sum(r.get("executor", {}).get("ship_seconds", 0.0)
                   for r in stage_reports)
        merge = sum(r.get("executor", {}).get("merge_seconds", 0.0)
                    for r in stage_reports)
        return ipc, ship, merge

    cores = os.cpu_count() or 1
    lines = [
        "Figure 6b (extension) — measured epoch throughput vs process "
        f"workers, hash-partitioned Yahoo! pipeline ({SWEEP_SHARDS} "
        f"shards, {N:,} events/epoch)",
        f"host cores: {cores}"
        + (" (speedup floor applies at >=4 cores only)" if cores < 4 else ""),
        f"{'workers':>8}{'measured ms':>13}{'rec/s':>14}{'speedup':>9}"
        f"{'ipc MB':>9}{'ship ms':>9}",
    ]
    series = {}
    for workers in worker_counts:
        ipc, ship, _merge = _pool_stats(reports[workers])
        speedup = measured[1] / measured[workers]
        series[workers] = {
            "wall_ms": measured[workers] * 1000,
            "records_per_second": N / measured[workers],
            "speedup_vs_1": speedup,
            "ipc_bytes": ipc,
            "ship_seconds": ship,
        }
        lines.append(
            f"{workers:>8}{measured[workers] * 1000:>11.1f}ms"
            f"{N / measured[workers]:>14,.0f}{speedup:>8.2f}x"
            f"{ipc / 1e6:>9.1f}{ship * 1000:>9.1f}"
        )
    at4 = measured[1] / measured[4] if 4 in measured else None
    if at4 is not None:
        lines.append(
            f"4-worker epoch speedup: {at4:.2f}x "
            f"(floor 1.6x, enforced on >=4-core hosts; this host: {cores})")
    # A 1-core host cannot exhibit multicore speedup — its sub-1.0
    # "speedups" are contention artifacts, and recording them into
    # bench_latest.json would read as a scaling regression to anyone
    # diffing snapshots.  Keep the human-readable table, skip the data.
    if cores > 1:
        emit("fig6b_worker_sweep", lines, data={
            "executor": "process",
            "events_per_epoch": N,
            "num_shards": SWEEP_SHARDS,
            "series": series,
        })
    else:
        lines.append("1-core host: series not recorded into "
                     "bench_latest.json (speedups would be meaningless)")
        emit("fig6b_worker_sweep", lines)
        retract("fig6b_worker_sweep")

    benchmark.extra_info["measured_wall_ms"] = {
        w: measured[w] * 1000 for w in worker_counts}
    if at4 is not None:
        benchmark.extra_info["measured_speedup_at_4"] = at4

    # Every run must have actually gone through the pool.
    for workers in worker_counts:
        assert any(
            r.get("executor", {}).get("type") == "process"
            for r in reports[workers]
        ), f"no process stage reports at {workers} workers"
    # The speedup floor is a genuine multicore claim: only a host with
    # >=4 cores can exhibit it (GIL-free processes, but 1 CPU is 1 CPU).
    if cores >= 4 and not smoke:
        assert at4 >= 1.6
        assert measured[2] <= measured[1] * 1.05
