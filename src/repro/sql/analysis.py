"""Query analysis: resolution, validation and streaming support checks.

Mirrors §5.1 of the paper: the first planning stage resolves attributes and
types (here, by forcing every node's lazily computed schema) and then checks
that the query can be executed incrementally and that the user's chosen
output mode is valid for this specific query.
"""

from __future__ import annotations

from repro.sql import logical as L
from repro.sql.expressions import AnalysisError
from repro.sql.types import WEIGHT_COLUMN

OUTPUT_MODES = ("append", "update", "complete", "retract")


def analyze(plan: L.LogicalPlan) -> L.LogicalPlan:
    """Resolve and type-check every node in the plan.

    Returns the plan unchanged on success; raises
    :class:`~repro.sql.expressions.AnalysisError` on the first problem.
    """
    for node in plan.collect_nodes():
        node.schema  # forces resolution of every expression in the node
    _check_no_aggregate_under_filter_inputs(plan)
    return plan


def _check_no_aggregate_under_filter_inputs(plan: L.LogicalPlan) -> None:
    """Reject shapes the executor does not support, streaming or not."""
    for node in plan.collect_nodes(L.Sort):
        if not isinstance(node.child, (L.Aggregate, L.Sort, L.Limit)):
            # Sorting raw streams is rejected later (streaming check); for
            # batch we allow sorting anything, so only validate schema here.
            node.schema


def watermarked_columns(plan: L.LogicalPlan) -> dict:
    """Map of column name -> delay seconds for all watermarks in the plan."""
    marks = {}
    for node in plan.collect_nodes(L.WithWatermark):
        marks[node.column] = node.delay
    return marks


def _aggregate_is_event_time_keyed(agg: L.Aggregate) -> bool:
    """True when the aggregate's key includes a watermarked event-time.

    Append mode for aggregates is only allowed in this case: the engine can
    then guarantee a key is final once the watermark passes it (§5.1).
    """
    marks = watermarked_columns(agg.child)
    if not marks:
        return False
    if agg.window is not None:
        return bool(agg.window.time_expr.references() & set(marks))
    return any(g.references() & set(marks) for g in agg.plain_grouping)


class UnsupportedOperationError(AnalysisError):
    """A query shape or query/output-mode combination the incremental
    engine cannot run (§5.1)."""


def check_streaming_supported(plan: L.LogicalPlan, output_mode: str) -> None:
    """Validate a streaming query against §5.1/§5.2's supported set.

    Raises :class:`UnsupportedOperationError` when the query cannot be
    incrementalized or when the output mode is invalid for this query.
    """
    if output_mode not in OUTPUT_MODES:
        raise UnsupportedOperationError(
            f"unknown output mode {output_mode!r}; use one of {OUTPUT_MODES}"
        )
    if not plan.is_streaming:
        raise UnsupportedOperationError("plan has no streaming source")

    aggregates = [n for n in plan.collect_nodes(L.Aggregate) if n.is_streaming]
    if len(aggregates) > 1:
        raise UnsupportedOperationError(
            "streaming queries support at most one aggregation (§5.2)"
        )

    _check_sorts(plan, aggregates, output_mode)
    _check_limits(plan, output_mode)
    _check_joins(plan)
    _check_stateful(plan, output_mode)
    _check_weighted(plan, aggregates, output_mode)
    if output_mode != "retract":
        _check_aggregate_modes(plan, aggregates, output_mode)
    _check_windows_have_watermark_for_append(aggregates, output_mode)


def _check_sorts(plan, aggregates, output_mode: str) -> None:
    sorts = [n for n in plan.collect_nodes(L.Sort) if n.is_streaming]
    if not sorts:
        return
    if output_mode != "complete":
        raise UnsupportedOperationError(
            "sorting a streaming result is only supported in complete mode (§5.2)"
        )
    if not aggregates:
        raise UnsupportedOperationError(
            "sorting is only supported after an aggregation (§5.2)"
        )


def _check_limits(plan, output_mode: str) -> None:
    limits = [n for n in plan.collect_nodes(L.Limit) if n.is_streaming]
    if limits and output_mode != "complete":
        raise UnsupportedOperationError(
            "limit on a streaming query is only supported in complete mode"
        )


def _check_joins(plan) -> None:
    for join in plan.collect_nodes(L.Join):
        left_streaming = join.left.is_streaming
        right_streaming = join.right.is_streaming
        if not (left_streaming or right_streaming):
            continue
        if left_streaming and right_streaming:
            _check_stream_stream_join(join)
        else:
            # Stream-static join: outer side must be the stream, otherwise
            # the engine would have to re-emit static rows as the stream
            # grows, which is not incrementally maintainable.
            if join.how == "left_outer" and not left_streaming:
                raise UnsupportedOperationError(
                    "left_outer join requires the stream on the left side"
                )
            if join.how == "right_outer" and not right_streaming:
                raise UnsupportedOperationError(
                    "right_outer join requires the stream on the right side"
                )


def _check_stream_stream_join(join: L.Join) -> None:
    """§5.2: outer stream-stream joins need a watermarked time bound.

    Without a ``within`` bound, an inner join buffers both sides forever
    (allowed, like Spark, but state is unbounded); an outer join could
    never finalize unmatched rows, so it is rejected.  With a bound, both
    time columns must be watermarked so rows become provably unmatchable.
    """
    if join.within is None:
        if join.how != "inner":
            raise UnsupportedOperationError(
                "outer stream-stream joins require a within=(left_time, "
                "right_time, max_skew) bound on watermarked columns: the "
                "engine can otherwise never know a row will stay "
                "unmatched (§5.2)"
            )
        return
    left_col, right_col, _skew = join.within
    left_marks = watermarked_columns(join.left)
    right_marks = watermarked_columns(join.right)
    if left_col not in left_marks or right_col not in right_marks:
        raise UnsupportedOperationError(
            "the within time columns of a stream-stream join must carry "
            "watermarks (with_watermark) on their respective sides "
            "(§4.3.1, §5.2)"
        )


def plan_is_weighted(plan: L.LogicalPlan) -> bool:
    """True when any streaming scan feeds Z-set (weighted) deltas.

    Weighted-ness is a property of the *sources*: a CDC-style stream
    whose scan schema carries ``__weight__`` makes the whole plan a
    retraction pipeline, regardless of intermediate projections (the
    incrementalizer threads the weight column through those).
    """
    return any(
        node.is_streaming and WEIGHT_COLUMN in node.schema
        for node in plan.collect_nodes(L.Scan)
    )


def _check_weighted(plan, aggregates, output_mode: str) -> None:
    """Validate the weighted (retraction) subset of the operator zoo.

    Weighted deltas flow through stateless maps, retractable aggregates,
    dedup and inner joins; everything whose incremental maintenance
    cannot undo an emitted row is rejected up front.
    """
    weighted = plan_is_weighted(plan)
    if output_mode == "retract" and not weighted:
        raise UnsupportedOperationError(
            "retract output mode requires a weighted (CDC) source whose "
            f"schema carries {WEIGHT_COLUMN!r}; append-only streams use "
            "append/update/complete"
        )
    if not weighted:
        return
    if output_mode not in ("retract", "complete"):
        raise UnsupportedOperationError(
            f"a weighted (retraction) stream supports output modes "
            f"'retract' and 'complete' (with aggregation), not {output_mode!r}: "
            "append/update sinks cannot undo delivered rows"
        )
    for agg in aggregates:
        if agg.window is not None:
            raise UnsupportedOperationError(
                "windowed aggregation over a weighted stream is not "
                "supported; group by plain columns"
            )
        for g in agg.grouping:
            if WEIGHT_COLUMN in g.references():
                raise UnsupportedOperationError(
                    f"cannot group by the reserved {WEIGHT_COLUMN!r} column"
                )
        for fn, name in agg.aggregates:
            if not fn.supports_retract:
                raise UnsupportedOperationError(
                    f"aggregate {name!r} ({fn.func_name}) cannot process "
                    "retractions; only invertible aggregates "
                    "(count/sum/avg) run over weighted streams"
                )
            if WEIGHT_COLUMN in fn.references():
                raise UnsupportedOperationError(
                    f"aggregates may not read the reserved "
                    f"{WEIGHT_COLUMN!r} column"
                )
    for node in plan.collect_nodes(L.Deduplicate):
        if node.is_streaming and WEIGHT_COLUMN in node.subset:
            raise UnsupportedOperationError(
                f"cannot deduplicate by the reserved {WEIGHT_COLUMN!r} column"
            )
    for join in plan.collect_nodes(L.Join):
        if not (join.left.is_streaming and join.right.is_streaming):
            continue
        left_weighted = WEIGHT_COLUMN in join.left.schema
        right_weighted = WEIGHT_COLUMN in join.right.schema
        if not (left_weighted or right_weighted):
            continue
        if join.how != "inner":
            raise UnsupportedOperationError(
                "outer stream-stream joins over weighted streams are not "
                "supported: null-padded rows cannot be retracted soundly"
            )
        if join.within is not None:
            raise UnsupportedOperationError(
                "time-bounded (within=...) stream-stream joins over "
                "weighted streams are not supported: a retraction may "
                "arrive after its row was evicted"
            )
    for node in plan.collect_nodes(L.MapGroupsWithState):
        if node.is_streaming:
            raise UnsupportedOperationError(
                "map_groups_with_state over a weighted stream is not "
                "supported: user state transitions cannot be undone"
            )
    for node in plan.collect_nodes((L.Sort, L.Limit)):
        if node.is_streaming:
            raise UnsupportedOperationError(
                "sort/limit over a weighted stream is not supported"
            )


def _check_stateful(plan, output_mode: str) -> None:
    for node in plan.collect_nodes(L.MapGroupsWithState):
        if not node.is_streaming:
            continue
        if not node.flat and output_mode != "update":
            raise UnsupportedOperationError(
                "map_groups_with_state requires update output mode"
            )
        if node.flat and output_mode == "complete":
            raise UnsupportedOperationError(
                "flat_map_groups_with_state does not support complete mode"
            )


def _check_aggregate_modes(plan, aggregates, output_mode: str) -> None:
    if output_mode == "complete":
        if not aggregates:
            raise UnsupportedOperationError(
                "complete mode requires an aggregation: the engine only "
                "retains state proportional to the result size (§5.1)"
            )
        return
    if output_mode == "append":
        for agg in aggregates:
            if not _aggregate_is_event_time_keyed(agg):
                raise UnsupportedOperationError(
                    "append mode with aggregation requires grouping by a "
                    "watermarked event-time column: the engine can never "
                    "know it has stopped receiving records for a plain key "
                    "(§4.2, §5.1)"
                )


def _check_windows_have_watermark_for_append(aggregates, output_mode: str) -> None:
    if output_mode != "append":
        return
    for agg in aggregates:
        if agg.window is not None and not _aggregate_is_event_time_keyed(agg):
            raise UnsupportedOperationError(
                "windowed aggregation in append mode requires with_watermark "
                "on the window's time column (§4.3.1)"
            )
