"""Incrementalization: static logical plan -> incremental operator tree.

This is the paper's core idea (§1, §5.2): the user writes an ordinary
relational query; this module — not the user — decides where state lives,
which operators emit deltas vs updates, and how watermarks bound state.
Planning proceeds exactly as §5 describes: analysis (resolution + §5.1
support checks), incrementalization (this module) and optimization
(:mod:`repro.sql.optimizer`, run before operator construction so
predicate pushdown etc. apply to streaming automatically, §5.3).
"""

from __future__ import annotations

from repro.sql import logical as L
from repro.sql.analysis import (
    analyze,
    check_streaming_supported,
    plan_is_weighted,
    watermarked_columns,
)
from repro.sql.expressions import AnalysisError
from repro.sql.optimizer import optimize
from repro.sql.types import StructType
from repro.streaming import operators as ops
from repro.streaming.zset import WEIGHT_COLUMN, thread_weights


class IncrementalPlan:
    """The result of incrementalization, ready for an execution engine."""

    def __init__(self, root: ops.IncrementalOp, sources: list, watermark_delays: dict,
                 stateful_ops: list, key_names: list, output_mode: str,
                 read_schemas: dict = None):
        #: Root incremental operator; its per-epoch output feeds the sink.
        self.root = root
        #: [(source_name, SourceDescriptor)] in plan order.
        self.sources = sources
        #: source name -> schema of the only columns the plan reads from
        #: it; a source absent here is read whole.
        self.read_schemas = read_schemas or {}
        #: column -> lateness delay (seconds) for every watermark.
        self.watermark_delays = watermark_delays
        #: Stateful operators (for timeout polling and metrics).
        self.stateful_ops = stateful_ops
        #: Output columns identifying a row, for update-mode sinks.
        self.key_names = key_names
        self.output_mode = output_mode


class _Builder:
    """Stateful tree walk assigning stable ids to sources and operators.

    Ids are deterministic in plan order, so a restarted query (same code,
    same query shape) reattaches to the same WAL source entries and state
    store directories — the basis for code updates that keep state (§7.1).
    """

    def __init__(self, state_store, output_mode: str):
        self._state_store = state_store
        self._output_mode = output_mode
        self.sources = []
        #: source name -> the narrowed schema its scan reads (only for
        #: sources whose consumers reference a strict subset of columns).
        self.read_schemas = {}
        self.stateful_ops = []
        self._op_counter = 0

    def _next_op_id(self, kind: str) -> str:
        op_id = f"{kind}-{self._op_counter}"
        self._op_counter += 1
        return op_id

    def _handle(self, kind: str):
        return self._state_store.handle(self._next_op_id(kind))

    # ------------------------------------------------------------------
    def build(self, plan: L.LogicalPlan, required: set = None) -> ops.IncrementalOp:
        """The operator for ``plan``.  ``required`` names the output
        columns the consumer reads (None: all of them); a source scan
        reads only those, so a column no operator references is never
        decoded or concatenated (§5.3 column pruning, at the read)."""
        if not plan.is_streaming:
            return ops.StaticOp(plan)
        if isinstance(plan, L.Scan):
            name = f"source-{len(self.sources)}"
            self.sources.append((name, plan.provider))
            schema = _read_schema(plan.schema, required)
            if schema is not plan.schema:
                self.read_schemas[name] = schema
            return ops.StreamScanOp(name, schema)
        if isinstance(plan, (L.Project, L.Filter)):
            # Collapse the maximal adjacent Project/Filter chain into ONE
            # StatelessOp, which compiles it as a fused pipeline (§5.3) —
            # one operator boundary per stateless segment, not per node.
            chain = [plan]
            while isinstance(chain[-1].child, (L.Project, L.Filter)) \
                    and chain[-1].child.is_streaming:
                chain.append(chain[-1].child)
            for node in chain:
                if isinstance(node, L.Project):
                    required = set().union(
                        *(e.references() for e in node.exprs))
                elif required is not None:
                    required = required | node.condition.references()
            return ops.StatelessOp(plan, self.build(chain[-1].child, required))
        if isinstance(plan, L.WithWatermark):
            if required is not None:
                required = required | {plan.column}
            return ops.WatermarkTrackOp(
                plan.column, self.build(plan.child, required))
        if isinstance(plan, L.Aggregate):
            return self._build_aggregate(plan)
        if isinstance(plan, L.Join):
            return self._build_join(plan)
        if isinstance(plan, L.Deduplicate):
            return self._build_dedup(plan)
        if isinstance(plan, L.MapGroupsWithState):
            op = ops.MapGroupsWithStateOp(
                plan, self.build(plan.child), self._handle("mgws"),
                watermark_column=_single_watermark_column(plan.child),
            )
            self.stateful_ops.append(op)
            return op
        if isinstance(plan, L.Union):
            left = self.build(plan.left)
            right = self.build(plan.right)
            return ops.UnionOp(
                left, right,
                left_static=not plan.left.is_streaming,
                right_static=not plan.right.is_streaming,
                schema=plan.schema,
            )
        if isinstance(plan, (L.Sort, L.Limit)):
            # Valid only in complete mode (enforced by analysis, §5.1):
            # each epoch's emission is the whole result table, so these
            # apply as ordinary batch operators on it.
            return ops.CompleteModePostOp(plan, self.build(plan.child))
        raise AnalysisError(
            f"cannot incrementalize {type(plan).__name__} (§5.2)"
        )

    # ------------------------------------------------------------------
    def _build_aggregate(self, plan: L.Aggregate) -> ops.IncrementalOp:
        marks = watermarked_columns(plan.child)
        watermark_column = None
        if plan.window is not None:
            referenced = plan.window.time_expr.references() & set(marks)
            watermark_column = next(iter(referenced), None)
        else:
            for g in plan.plain_grouping:
                match = g.references() & set(marks)
                if match and g.references() == match:
                    watermark_column = next(iter(match))
                    break
        op = ops.StatefulAggregateOp(
            plan, self.build(plan.child), self._handle("agg"),
            watermark_column=watermark_column,
            output_mode=self._output_mode,
        )
        self.stateful_ops.append(op)
        return op

    def _build_dedup(self, plan: L.Deduplicate) -> ops.IncrementalOp:
        marks = watermarked_columns(plan.child)
        in_subset = [c for c in plan.subset if c in marks]
        op = ops.StreamingDedupOp(
            plan, self.build(plan.child), self._handle("dedup"),
            watermark_column=in_subset[0] if in_subset else None,
        )
        self.stateful_ops.append(op)
        return op

    def _build_join(self, plan: L.Join) -> ops.IncrementalOp:
        left_streaming = plan.left.is_streaming
        right_streaming = plan.right.is_streaming
        if left_streaming and right_streaming:
            op = ops.StreamStreamJoinOp(
                plan,
                self.build(plan.left),
                self.build(plan.right),
                self._handle("join-left"),
                self._handle("join-right"),
            )
            self.stateful_ops.append(op)
            return op
        if left_streaming:
            return ops.StreamStaticJoinOp(
                plan, self.build(plan.left), ops.StaticOp(plan.right),
                stream_is_left=True,
            )
        return ops.StreamStaticJoinOp(
            plan, self.build(plan.right), ops.StaticOp(plan.left),
            stream_is_left=False,
        )


def _read_schema(schema: StructType, required) -> StructType:
    """``schema`` narrowed to the ``required`` columns (in schema order)
    plus any Z-set weight column; ``schema`` itself when that keeps every
    column, or would keep none (a batch needs a column to count rows)."""
    if required is None:
        return schema
    fields = [f for f in schema.fields
              if f.name in required or f.name == WEIGHT_COLUMN]
    if not fields or len(fields) == len(schema.fields):
        return schema
    return StructType(fields)


def _single_watermark_column(plan: L.LogicalPlan):
    """The (first) watermarked column of a subplan, or None."""
    marks = watermarked_columns(plan)
    return sorted(marks)[0] if marks else None


def _result_key_names(plan: L.LogicalPlan) -> list:
    """Output columns identifying a result row, for update-mode sinks.

    Aggregates are keyed by their grouping columns, stateful operators by
    their key columns; map-like queries have no natural key.
    """
    if isinstance(plan, (L.Sort, L.Limit, L.Filter)):
        return _result_key_names(plan.child)
    if isinstance(plan, L.Aggregate):
        return plan.key_names
    if isinstance(plan, L.MapGroupsWithState):
        return plan.key_columns
    if isinstance(plan, L.Project):
        inner = _result_key_names(plan.child)
        available = [e.output_name for e in plan.exprs]
        return [k for k in inner if k in available]
    return []


def incrementalize(plan: L.LogicalPlan, output_mode: str, state_store,
                   run_optimizer: bool = True) -> IncrementalPlan:
    """Plan a streaming query: analyze, check, optimize, build operators.

    ``state_store`` supplies the keyed state handles for stateful
    operators; the engine commits/restores it around epochs.
    """
    analyze(plan)
    check_streaming_supported(plan, output_mode)
    if run_optimizer:
        plan = optimize(plan)
        analyze(plan)
    if plan_is_weighted(plan):
        plan = thread_weights(plan)
        analyze(plan)
    builder = _Builder(state_store, output_mode)
    root = builder.build(plan)
    return IncrementalPlan(
        root=root,
        sources=builder.sources,
        watermark_delays=dict(watermarked_columns(plan)),
        stateful_ops=builder.stateful_ops,
        key_names=_result_key_names(plan),
        output_mode=output_mode,
        read_schemas=builder.read_schemas,
    )
