"""Ablation — where does the throughput come from? (§9.1)

Paper: "This particular Structured Streaming query is implemented using
just DataFrame operations with no UDF code.  The performance thus comes
solely from Spark SQL's built in execution optimizations, including
storing data in a compact binary format and runtime code generation."

Reproduction ablation, three execution strategies over the *same* Yahoo!
stateless pipeline (filter views → filter in-hour → project ad_id/time):

(a) whole-plan fused — the plan compiled once
    (:mod:`repro.sql.plancompiler`), filters combined into one mask,
    projection applied in the same stage: the whole-stage-codegen
    analogue (§5.3);
(b) per-operator unfused — a plan walk local to this file over the
    same bound kernels (:func:`repro.sql.expressions.bind`), each
    operator materializing its own ``RecordBatch``: vectorized, but
    every filter filters every column it passes along.  It is the
    ablation's baseline, not an engine mode;
(c) interpreted row-at-a-time — ``eval_row`` in a Python loop, the
    execution model the paper's §9.1 comparison systems use per record.

Plus the original expression-level pair isolating just the predicate.
"""

from __future__ import annotations

import pytest

from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql.batch import RecordBatch
from repro.sql.plancompiler import compile_plan
from repro.workloads.yahoo import YAHOO_EVENT_SCHEMA, YahooWorkload

from benchmarks.reporting import emit

N = 200_000

#: Recorded once, when PR 21 deleted the closure compiler (sql/codegen.py):
#: the measurement that showed the closures were not load-bearing.
CLOSURE_NOTE = (
    "Closures vs eval_batch at d8a7eeb (2 cores, 200k rows): numeric "
    "predicate 1887.6 vs 1910.4 us (0.988), event_type=='view' 3572.7 vs "
    "3533.3 us (1.011); <= 0.5 us per call at 4 and 1024 rows.")

_rates = {}


def _pipeline_expression():
    """The benchmark's filter predicate + projection arithmetic."""
    is_view = E.Comparison(E.ColumnRef("event_type"), E.Literal("view"), "==")
    in_hour = E.Comparison(E.ColumnRef("event_time"), E.Literal(3600.0), "<")
    return E.BooleanOp(is_view, in_hour, "and")


def _pipeline_plan():
    """The Yahoo! stateless chain as a user writes it: two ``where``
    calls, then the projection feeding the join/aggregate."""
    scan = L.Scan(YAHOO_EVENT_SCHEMA, None, False, name="events")
    views = L.Filter(
        E.Comparison(E.ColumnRef("event_type"), E.Literal("view"), "=="), scan)
    in_hour = L.Filter(
        E.Comparison(E.ColumnRef("event_time"), E.Literal(3600.0), "<"), views)
    project = L.Project(
        [E.ColumnRef("ad_id"), E.ColumnRef("event_time")], in_hour)
    return project, scan


def _unfused(plan, scan):
    """Compile a Scan/Filter/Project chain operator-at-a-time:
    ``fn(batch) -> RecordBatch`` with one intermediate batch per node."""
    if plan is scan:
        return lambda batch: batch
    child = _unfused(plan.child, scan)
    if isinstance(plan, L.Filter):
        mask = E.bind(plan.condition, plan.child.schema)

        def run_filter(batch):
            batch = child(batch)
            return batch.filter(mask(batch))

        return run_filter
    schema = plan.schema
    exprs = [(field.name, E.bind(expr, plan.child.schema))
             for field, expr in zip(schema, plan.exprs)]

    def run_project(batch):
        batch = child(batch)
        return RecordBatch({name: fn(batch) for name, fn in exprs}, schema)

    return run_project


@pytest.fixture(scope="module")
def event_batch():
    workload = YahooWorkload()
    arrays = workload.event_arrays(N, duration=60.0)
    return RecordBatch.from_columns(YAHOO_EVENT_SCHEMA, **arrays)


@pytest.mark.benchmark(group="ablation-vectorized")
def test_compiled_vectorized_path(benchmark, event_batch):
    expr = _pipeline_expression()
    fn = E.bind(expr, YAHOO_EVENT_SCHEMA)

    def run():
        return int(fn(event_batch).sum())

    matches = benchmark(run)
    assert 0 < matches < N
    _rates["vectorized"] = N / benchmark.stats.stats.min


@pytest.mark.benchmark(group="ablation-vectorized")
def test_interpreted_row_path(benchmark, event_batch):
    expr = _pipeline_expression()
    rows = event_batch.to_rows()

    def run():
        return sum(1 for row in rows if expr.eval_row(row))

    matches = benchmark(run)
    assert 0 < matches < N
    _rates["interpreted"] = N / benchmark.stats.stats.min


@pytest.mark.benchmark(group="ablation-vectorized")
def test_whole_plan_fused_path(benchmark, event_batch):
    plan, scan = _pipeline_plan()
    compiled = compile_plan(plan)  # once, outside the measured region
    overrides = {id(scan): event_batch}

    def run():
        return compiled(overrides).num_rows

    out_rows = benchmark(run)
    assert 0 < out_rows < N
    _rates["fused"] = N / benchmark.stats.stats.min


@pytest.mark.benchmark(group="ablation-vectorized")
def test_per_operator_unfused_path(benchmark, event_batch):
    plan, scan = _pipeline_plan()
    pipeline = _unfused(plan, scan)  # once, outside the measured region

    def run():
        return pipeline(event_batch).num_rows

    out_rows = benchmark(run)
    assert out_rows == compile_plan(plan)({id(scan): event_batch}).num_rows
    _rates["unfused"] = N / benchmark.stats.stats.min


@pytest.mark.benchmark(group="ablation-vectorized")
def test_interpreted_plan_path(benchmark, event_batch):
    plan, _scan = _pipeline_plan()
    cond_views = plan.child.child.condition
    cond_hour = plan.child.condition
    rows = event_batch.to_rows()

    def run():
        out = []
        for row in rows:
            if cond_views.eval_row(row) and cond_hour.eval_row(row):
                out.append((row["ad_id"], row["event_time"]))
        return len(out)

    out_rows = benchmark(run)
    assert 0 < out_rows < N
    _rates["rows"] = N / benchmark.stats.stats.min


@pytest.mark.benchmark(group="ablation-vectorized")
def test_zz_ablation_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    speedup = _rates["vectorized"] / _rates["interpreted"]
    fused_vs_unfused = _rates["fused"] / _rates["unfused"]
    fused_vs_rows = _rates["fused"] / _rates["rows"]
    emit("ablation_vectorized", [
        "Ablation: execution strategies on the Yahoo! stateless pipeline",
        "",
        "Whole pipeline (filter -> filter -> project), rows/s:",
        f"  whole-plan fused (compile once): {_rates['fused']:>14,.0f}",
        f"  per-operator unfused:            {_rates['unfused']:>14,.0f}",
        f"  interpreted rows (eval_row):     {_rates['rows']:>14,.0f}",
        f"  fused vs unfused: {fused_vs_unfused:.1f}x   "
        f"fused vs rows: {fused_vs_rows:.0f}x",
        "",
        "Predicate only, rows/s:",
        f"  vectorized (eval_batch):       {_rates['vectorized']:>14,.0f}",
        f"  interpreted (eval_row loop):   {_rates['interpreted']:>14,.0f}",
        f"  speedup: {speedup:.1f}x — the execution-engine effect §9.1 credits",
        "",
        CLOSURE_NOTE,
    ])
    assert speedup > 5
    assert fused_vs_unfused > 1.0
    assert fused_vs_rows > 5
