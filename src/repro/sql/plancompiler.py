"""Whole-plan compilation: the reproduction's whole-stage code generation.

Spark SQL's Tungsten engine compiles a chain of physical operators into a
single Java method per *stage* — whole-stage code generation — so that at
runtime a batch flows through one fused loop with no per-operator virtual
dispatch (paper §5.3; §9.1 credits this, together with the binary format,
for Structured Streaming's Yahoo!-benchmark margin).  The closest faithful
analogue in pure Python is to compile the *logical plan* once into a tree
of closures over numpy kernels:

* every expression is type-checked and bound to its vectorized
  evaluator (:func:`repro.sql.expressions.bind`) at plan time, never
  per batch;
* every operator's kernel (join probe, group encoding, sort keys, dedup)
  is pre-resolved into the closure, so no ``isinstance`` plan walk happens
  per batch;
* adjacent **stateless** operators — ``scan → filter → project → filter``
  chains — are *fused* into a single stage closure: back-to-back filter
  masks are combined with ``&`` and applied in one pass, and projections
  compose by inlining their expressions (Spark's collapse-project +
  combine-filters, here performed by the compiler), so no intermediate
  ``RecordBatch`` is materialized between them.

``compile_plan(plan)`` returns a :class:`CompiledPlan`; calling it with a
scan-override dict executes the query.  The streaming operators compile
their sub-plans **once at operator construction** and call the compiled
pipeline every epoch — the per-epoch fixed cost of a streaming query is
then only kernel execution over the delta (the complement, for plan-time
work, of the delta-proportional state work in the stateful operators).

Fusion safety: combining filter masks evaluates later predicates on rows
an earlier predicate would have removed.  That is only sound for *total*
expressions (ones that cannot raise on any row — numpy kernels with
errstate suppressed).  Expressions that can raise or have side effects
(UDFs, casts from object columns, scalar functions) act as fusion
barriers: the compiler seals the current stage and starts a new one, so
they always observe exactly the rows sequential execution would feed
them.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql.batch import RecordBatch, selection
from repro.sql.grouping import encode_groups
from repro.sql.optimizer import substitute_columns
from repro.sql.types import StructType
from repro.sql.physical import (
    _coerce,
    dedup_batch,
    join_batches,
    map_groups_batch,
    run_aggregate,
    sort_batch,
)

#: Total count of compile_plan invocations (diagnostics; lifecycle tests
#: assert this does not grow while a compiled query serves epochs).
PLAN_COMPILATIONS = 0

# Expression nodes that are *total*: evaluation cannot raise for any row
# (numpy kernels with errstate suppressed, comparisons that treat a null
# operand as not true, null-tolerant membership and null checks).  Only
# these may be hoisted across a filter boundary when fusing stages;
# everything else (Udf, Cast from object columns, ScalarFunction,
# CaseWhen over unsafe children) is a fusion barrier.
_TOTAL_NODES = (
    E.ColumnRef, E.Literal, E.Alias, E.Arithmetic, E.Comparison,
    E.BooleanOp, E.Not, E.In, E.IsNull, E.Like,
)


def _is_total(expr: E.Expression) -> bool:
    if isinstance(expr, E.CaseWhen):
        return all(_is_total(c) for c in expr.children)
    if not isinstance(expr, _TOTAL_NODES):
        return False
    return all(_is_total(c) for c in expr.children)


class CompiledPlan:
    """A logical plan compiled to a closure tree, executable many times.

    Calling the object runs the pipeline: ``compiled(overrides)`` where
    ``overrides`` maps :class:`~repro.sql.logical.Scan` nodes (by object
    or ``id``) to input batches, exactly like
    :func:`repro.sql.physical.execute`.
    """

    __slots__ = ("_fn", "schema", "plan", "__weakref__")

    def __init__(self, fn, schema, plan):
        self._fn = fn
        self.schema = schema
        self.plan = plan

    def __call__(self, overrides: dict = None) -> RecordBatch:
        return self._fn(overrides or {})


def compile_plan(plan: L.LogicalPlan) -> CompiledPlan:
    """Compile ``plan`` once into a reusable pipeline.

    All plan-tree traversal, expression compilation and kernel resolution
    happens here; the returned object's ``__call__`` does only kernel
    work per invocation.
    """
    global PLAN_COMPILATIONS
    PLAN_COMPILATIONS += 1
    return CompiledPlan(_compile(plan), plan.schema, plan)


_compiled_cache = weakref.WeakKeyDictionary()


def compiled_for(plan: L.LogicalPlan) -> CompiledPlan:
    """Memoizing :func:`compile_plan`: one compilation per plan object.

    Plans are immutable by convention (optimizer rules rebuild nodes), so
    caching by identity is safe; the weak table lets dead plans collect.
    """
    compiled = _compiled_cache.get(plan)
    if compiled is None:
        compiled = compile_plan(plan)
        _compiled_cache[plan] = compiled
    return compiled


# ---------------------------------------------------------------------------
# Node dispatch (plan time only)
# ---------------------------------------------------------------------------

def _compile(plan: L.LogicalPlan):
    """Compile a plan node into ``fn(overrides) -> RecordBatch``."""
    if isinstance(plan, (L.Filter, L.Project)):
        return _compile_stateless_segment(plan)
    if isinstance(plan, L.Scan):
        return _compile_scan(plan)
    if isinstance(plan, L.Aggregate):
        return _compile_aggregate(plan)
    if isinstance(plan, L.Join):
        left_fn = _compile(plan.left)
        right_fn = _compile(plan.right)
        return lambda ov: join_batches(left_fn(ov), right_fn(ov), plan)
    if isinstance(plan, L.Sort):
        child_fn = _compile(plan.child)
        orders = plan.orders
        return lambda ov: sort_batch(child_fn(ov), orders)
    if isinstance(plan, L.Limit):
        child_fn = _compile(plan.child)
        n = plan.n
        return lambda ov: child_fn(ov).slice(0, n)
    if isinstance(plan, L.Deduplicate):
        child_fn = _compile(plan.child)
        subset = plan.subset
        return lambda ov: dedup_batch(child_fn(ov), subset)
    if isinstance(plan, L.Union):
        left_fn = _compile(plan.left)
        right_fn = _compile(plan.right)
        schema = plan.schema
        names = schema.names

        def run_union(ov):
            left = left_fn(ov)
            right = right_fn(ov)
            return RecordBatch.concat([left, right.select(names)], schema)

        return run_union
    if isinstance(plan, L.WithWatermark):
        # Watermarks only affect streaming state management; in batch
        # execution they are a no-op passthrough (§4.3.1).
        return _compile(plan.child)
    if isinstance(plan, L.MapGroupsWithState):
        child_fn = _compile(plan.child)
        return lambda ov: map_groups_batch(plan, child_fn(ov))
    raise NotImplementedError(f"no compiler for {type(plan).__name__}")


def _compile_scan(plan: L.Scan):
    schema = plan.schema

    def run_scan(overrides):
        if plan in overrides or id(plan) in overrides:
            return overrides.get(plan, overrides.get(id(plan)))
        provider = plan.provider
        if provider is None:
            raise RuntimeError(
                f"scan {plan.name!r} has no data (missing override?)")
        return RecordBatch.concat(list(provider.read_batches()), schema)

    return run_scan


def _compile_aggregate(plan: L.Aggregate):
    child_fn = _compile(plan.child)
    grouping = compile_grouping(plan)

    def run_agg(overrides):
        expanded, codes, uniques = grouping(child_fn(overrides))
        return run_aggregate(plan, expanded, codes, uniques)

    return run_agg


def compile_grouping(plan: L.Aggregate):
    """Pre-compile an aggregate's group-key pipeline.

    Returns ``fn(batch) -> (expanded_batch, codes, unique_key_tuples)``:
    the window-expanded batch, dense group codes, and key tuples ordered
    (plain grouping values..., window_start).  All grouping expressions
    compile here, once; the streaming stateful aggregate calls the result
    every epoch with zero expression-compilation cost.
    """
    child_schema = plan.child.schema
    key_fns = [E.bind(g, child_schema) for g in plan.plain_grouping]
    window = plan.window
    if window is not None and window.slide == window.duration:
        return _tumbling_grouping(key_fns, window, child_schema)

    def grouping(batch):
        if window is not None:
            row_idx, starts = window.assign_batch(batch)
            batch = batch.take(row_idx)
            key_arrays = [fn(batch) for fn in key_fns]
            key_arrays.append(starts)
        else:
            key_arrays = [fn(batch) for fn in key_fns]
        codes, uniques = encode_groups(key_arrays)
        return batch, codes, uniques

    return grouping


def _tumbling_grouping(key_fns, window: E.WindowExpr, child_schema):
    """``compile_grouping`` for a tumbling window: every row belongs to
    exactly one window, so the batch is kept as it is (no expansion) and
    the window joins the key as its index ``floor(t / slide)``, which
    ``encode_groups`` can code densely.  A row is kept under the same
    test ``WindowExpr.assign_batch`` applies, so a NaN or infinite time
    is still in no window."""
    time_fn = E.bind(window.time_expr, child_schema)
    slide = window.slide

    def grouping(batch):
        times = np.asarray(time_fn(batch), dtype=np.float64)
        index = np.floor(times / slide)
        keep = index * slide > times - window.duration
        if not keep.all():
            batch = batch.filter(keep)
            index = index[keep]
        key_arrays = [fn(batch) for fn in key_fns]
        key_arrays.append(index)
        codes, uniques = encode_groups(key_arrays, window_slide=slide)
        return batch, codes, uniques

    return grouping


# ---------------------------------------------------------------------------
# Stateless fusion: filter/project chains -> fused stage closures
# ---------------------------------------------------------------------------

def _compile_stateless_segment(top: L.LogicalPlan):
    """Fuse a maximal Filter/Project chain ending at ``top``.

    The chain is split into *stages*.  Within one stage every filter mask
    is an expression over the stage's input schema (filters below a
    projection stay as written; filters above one have the projection
    inlined into them), so the stage runs as: evaluate all masks on the
    input, AND them, apply the combined mask once, then build the output
    columns — one pass, no intermediate batches.  Non-total expressions
    seal the current stage and start a new one (see module docstring).
    """
    nodes = []
    bottom = top
    while isinstance(bottom, (L.Filter, L.Project)):
        nodes.append(bottom)
        bottom = bottom.child
    nodes.reverse()  # bottom-up order
    source_fn = _compile(bottom)

    stages = []  # (mask_exprs, proj or None, in_schema, out_schema)
    in_schema = bottom.schema
    masks = []      # Expressions over in_schema
    proj = None     # list of (output_name, Expression over in_schema)
    sealed_below = bottom  # deepest node already accounted for by stages

    def seal(at_node):
        nonlocal masks, proj, in_schema, sealed_below
        if masks or proj is not None:
            stages.append((masks, proj, in_schema, at_node.schema))
            in_schema = at_node.schema
            masks, proj = [], None
        sealed_below = at_node

    def mapping():
        return None if proj is None else {name: expr for name, expr in proj}

    for node in nodes:
        if isinstance(node, L.Filter):
            cond = node.condition
            inlined = cond if proj is None else substitute_columns(
                cond, mapping())
            if _is_total(inlined):
                masks.append(inlined)
            else:
                # Unsafe predicate: it must see exactly the rows that
                # survive everything below it, so flush what we have and
                # let it open a new stage as its sole (first) mask.
                seal(node.child)
                masks.append(cond)
        else:  # Project
            if proj is not None and any(
                    not _is_total(expr) for _name, expr in proj):
                # Don't duplicate or reorder unsafe projection exprs by
                # inlining them into the next stage's expressions.
                seal(node.child)
            subs = mapping()
            proj = [
                (e.output_name,
                 e if subs is None else substitute_columns(e, subs))
                for e in node.exprs
            ]
    seal(nodes[-1])

    stage_fns = [_compile_stage(*stage) for stage in stages]
    if len(stage_fns) == 1:
        stage = stage_fns[0]
        return lambda overrides: stage(source_fn(overrides))

    def run_segment(overrides):
        batch = source_fn(overrides)
        for stage in stage_fns:
            batch = stage(batch)
        return batch

    return run_segment


def _compile_stage(mask_exprs, proj, in_schema, out_schema):
    """Compile one fused stage into ``fn(batch) -> RecordBatch``."""
    mask_fns = [E.bind(m, in_schema) for m in mask_exprs]
    if proj is None:
        def run_filter(batch):
            mask = np.asarray(mask_fns[0](batch), dtype=bool)
            for fn in mask_fns[1:]:
                mask = mask & np.asarray(fn(batch), dtype=bool)
            return batch.filter(mask)

        return run_filter

    proj_fns = [
        (field.name, E.bind(expr, in_schema), field.data_type)
        for field, (_name, expr) in zip(out_schema, proj)
    ]
    # Only the columns the projection reads survive the combined mask:
    # the stage never materializes filtered versions of untouched input
    # columns (the part of whole-stage fusion per-operator execution
    # cannot do — Filter must filter every column it passes along).
    needed = set()
    for _name, expr in proj:
        needed |= expr.references()
    sub_fields = [f for f in in_schema.fields if f.name in needed]
    sub_schema = StructType(sub_fields) if len(sub_fields) != len(
        in_schema.fields) else in_schema
    sub_names = [f.name for f in sub_fields]

    def stage(batch):
        if mask_fns:
            mask = np.asarray(mask_fns[0](batch), dtype=bool)
            for fn in mask_fns[1:]:
                mask = mask & np.asarray(fn(batch), dtype=bool)
            sel = selection(mask)
            if sub_names and sel is not None:
                batch = RecordBatch(
                    {n: batch.columns[n][sel] for n in sub_names},
                    sub_schema,
                )
            elif sub_schema is not in_schema:
                batch = RecordBatch(
                    {n: batch.columns[n] for n in sub_names}, sub_schema
                ) if sub_names else batch.filter(mask)
        columns = {
            name: _coerce(fn(batch), dtype) for name, fn, dtype in proj_fns
        }
        return RecordBatch(columns, out_schema)

    return stage
