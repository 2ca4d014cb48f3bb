"""Batch physical execution of analyzed logical plans.

This is the "run the same query as a batch job" half of the paper's hybrid
story (§2.2, §7.3): the streaming engine reuses exactly these operators for
each epoch's new data, swapping the aggregate for its stateful incremental
counterpart.

``execute(plan, overrides)`` evaluates a plan to a single
:class:`~repro.sql.batch.RecordBatch`.  ``overrides`` lets callers inject
data for specific scan nodes — the streaming engine uses it to run the
epoch's new input through the plan.

``execute`` compiles each plan once with the whole-plan compiler
(:mod:`repro.sql.plancompiler`, §5.3; memoized by plan identity) and runs
the compiled pipeline; repeated executions of the same plan object pay no
plan-walk or expression-binding cost.  The rest of this module is the
operator kernels the compiler resolves into its closures:
:func:`join_batches`, :func:`sort_batch`, :func:`dedup_batch`,
:func:`run_aggregate`, :func:`map_groups_batch`.
"""

from __future__ import annotations

import numpy as np

from repro.sql import logical as L
from repro.sql.batch import RecordBatch
from repro.sql.grouping import encode_groups
from repro.sql.joins import assemble_join_output, join_indices


def execute(plan: L.LogicalPlan, overrides: dict = None) -> RecordBatch:
    """Evaluate a logical plan, returning one result batch.

    ``overrides`` maps a :class:`~repro.sql.logical.Scan` node (by object
    identity) to a RecordBatch to use as its data.  The plan is compiled
    on first use and the compiled pipeline cached, so calling ``execute``
    repeatedly on one plan object (as the streaming engine does per
    epoch) walks and compiles it only once.
    """
    from repro.sql.plancompiler import compiled_for

    return compiled_for(plan)(overrides or {})


def _coerce(array: np.ndarray, data_type) -> np.ndarray:
    target = data_type.numpy_dtype
    if target is object or array.dtype == object:
        return array
    if array.dtype != target:
        return array.astype(target)
    return array


def join_batches(left: RecordBatch, right: RecordBatch, plan: L.Join) -> RecordBatch:
    """Join two batches per a :class:`~repro.sql.logical.Join` node."""
    from repro.sql.joins import apply_time_bound

    indices = join_indices(left, right, plan.on, plan.how)
    if plan.within is not None:
        indices = apply_time_bound(left, right, plan.how, plan.within, *indices)
    return assemble_join_output(
        left, right, plan.on, plan.how, plan.schema, *indices
    )


def sort_batch(batch: RecordBatch, orders) -> RecordBatch:
    """Stable lexicographic sort of a batch by ``[(name, ascending), ...]``."""
    if batch.num_rows == 0:
        return batch
    # Lexicographic sort: least-significant key first for np.lexsort.
    keys = []
    for name, ascending in reversed(orders):
        col = batch.columns[name]
        if col.dtype == object:
            # Rank-encode object columns so lexsort can handle them.
            _, inverse = np.unique(np.array([str(v) for v in col]), return_inverse=True)
            col = inverse
        keys.append(col if ascending else _descending_key(col))
    order = np.lexsort(keys)
    return batch.take(order)


def _descending_key(col: np.ndarray) -> np.ndarray:
    if col.dtype.kind in "iu":
        # Rank-based key: negating the value itself overflows for
        # np.int64.min and for uint64 values above 2**63.  Ranks are
        # bounded by the row count, so their negation is always safe
        # and lexsort only needs relative order anyway.
        _, inverse = np.unique(col, return_inverse=True)
        return -inverse.astype(np.int64)
    return -col.astype(np.float64)


def dedup_batch(batch: RecordBatch, subset) -> RecordBatch:
    """Drop duplicate rows by ``subset`` keys, keeping first occurrences."""
    if batch.num_rows == 0:
        return batch
    codes, _uniques = encode_groups([batch.columns[n] for n in subset])
    # encode_groups returns dense codes, so return_index yields the first
    # occurrence of every key; sorting restores arrival order.
    _, first_idx = np.unique(codes, return_index=True)
    return batch.take(np.sort(first_idx))


def aggregate_result_batch(plan: L.Aggregate, keys, buffers) -> RecordBatch:
    """Build the aggregate output batch from final (key, buffers) pairs.

    ``keys`` is a list of key tuples (window start last when windowed);
    ``buffers`` is a parallel list of per-aggregate buffer lists.
    """
    schema = plan.schema
    num_plain = len(plan.plain_grouping)
    columns = {}
    for i, g in enumerate(plan.plain_grouping):
        field = schema.fields[i]
        values = [k[i] for k in keys]
        columns[field.name] = _column_from_values(values, field.data_type)
    if plan.window is not None:
        starts = np.array([k[num_plain] for k in keys], dtype=np.float64)
        columns["window_start"] = starts
        columns["window_end"] = starts + plan.window.duration
    agg_offset = num_plain + (2 if plan.window is not None else 0)
    for j, (fn, name) in enumerate(plan.aggregates):
        field = schema.fields[agg_offset + j]
        values = [fn.finish(b[j]) for b in buffers]
        columns[name] = _column_from_values(values, field.data_type)
    return RecordBatch(columns, schema)


def _column_from_values(values, data_type) -> np.ndarray:
    if data_type.numpy_dtype is object:
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return arr
    if any(v is None for v in values):
        return np.array(
            [np.nan if v is None else v for v in values], dtype=np.float64
        )
    return np.asarray(values, dtype=data_type.numpy_dtype)


def run_aggregate(plan: L.Aggregate, expanded: RecordBatch, codes, uniques) -> RecordBatch:
    """Finish a batch aggregate from pre-encoded groups.

    ``expanded``/``codes``/``uniques`` come from
    :func:`repro.sql.plancompiler.compile_grouping`.
    """
    buffers = []
    num_groups = len(uniques)
    partials_per_agg = [
        fn.batch_partials(expanded, codes, num_groups) for fn, _name in plan.aggregates
    ]
    for g in range(num_groups):
        buffers.append([partials[g] for partials in partials_per_agg])
    # Merge with fresh init buffers so finish() semantics match streaming.
    merged = []
    for buf in buffers:
        merged.append([
            fn.merge(fn.init(), partial)
            for (fn, _name), partial in zip(plan.aggregates, buf)
        ])
    return aggregate_result_batch(plan, uniques, merged)


def map_groups_batch(plan: L.MapGroupsWithState, child: RecordBatch) -> RecordBatch:
    """Batch-mode stateful operator: the update function runs once per key
    with all of its rows and fresh state (§4.3.2)."""
    from repro.streaming.stateful import GroupState, normalize_func_output

    key_arrays = [child.columns[n] for n in plan.key_columns]
    out_rows = []
    if child.num_rows:
        codes, uniques = encode_groups(key_arrays)
        rows = child.to_rows()
        grouped = {}
        for code, row in zip(codes.tolist(), rows):
            grouped.setdefault(code, []).append(row)
        for code, group_rows in grouped.items():
            key = uniques[code]
            key_value = key[0] if len(plan.key_columns) == 1 else key
            state = GroupState(watermark=None, processing_time=None)
            result = plan.func(key_value, iter(group_rows), state)
            out_rows.extend(
                normalize_func_output(result, plan.flat, plan.key_columns, key)
            )
    return RecordBatch.from_rows(out_rows, plan.schema)
