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

import pytest

from repro.sql.session import Session
from repro.workloads.yahoo import structured_streaming_query

from benchmarks.perfmodel import ClusterPerformanceModel
from benchmarks.reporting import emit

N = 400_000
NODE_COUNTS = (1, 5, 10, 20)
PAPER_SERIES = {1: 11.5e6, 5: 63e6, 10: 115e6, 20: 225e6}


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

