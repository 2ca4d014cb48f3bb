"""Logical query plans.

A user's DataFrame program builds a tree of these nodes.  The analyzer
(:mod:`repro.sql.analysis`) resolves and validates the tree, the optimizer
(:mod:`repro.sql.optimizer`) rewrites it, and then either the batch
executor (:mod:`repro.sql.physical`) or the streaming incrementalizer
(:mod:`repro.streaming.incrementalizer`) turns it into physical operators.

Schemas are computed lazily from children so plans can be assembled
bottom-up without a session; resolution errors surface as
:class:`~repro.sql.expressions.AnalysisError` when ``.schema`` is accessed
(normally during analysis).
"""

from __future__ import annotations

import functools

from repro.sql import expressions as E
from repro.sql.batch import promote_nullable
from repro.sql.expressions import AnalysisError
from repro.sql.types import WEIGHT_COLUMN, StructType

JOIN_TYPES = ("inner", "left_outer", "right_outer")


class LogicalPlan:
    """Base class for logical plan nodes."""

    children: tuple = ()

    @property
    def schema(self) -> StructType:
        """Output schema of this node (resolving expressions as needed)."""
        raise NotImplementedError

    @property
    def is_streaming(self) -> bool:
        """True if any leaf below this node is a streaming source."""
        return any(c.is_streaming for c in self.children)

    def with_children(self, children) -> "LogicalPlan":
        """Rebuild this node with new children (used by optimizer rules)."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line description used by ``explain()``."""
        return type(self).__name__

    def explain_string(self, indent: int = 0) -> str:
        """A readable tree rendering of the plan."""
        lines = ["  " * indent + ("+- " if indent else "") + self.describe()]
        for child in self.children:
            lines.append(child.explain_string(indent + 1))
        return "\n".join(lines)

    def collect_nodes(self, node_type=None) -> list:
        """All nodes in the subtree, optionally filtered by type."""
        found = []
        if node_type is None or isinstance(self, node_type):
            found.append(self)
        for child in self.children:
            found.extend(child.collect_nodes(node_type))
        return found


class Scan(LogicalPlan):
    """Leaf node: a batch relation or a streaming source.

    ``provider`` is interpreted by the execution layer:

    * batch — an object with ``read_batches() -> list[RecordBatch]``;
    * streaming — a :class:`repro.sources.base.SourceDescriptor` that the
      streaming engine instantiates into a replayable source.
    """

    def __init__(self, schema: StructType, provider, is_streaming: bool, name: str = "scan"):
        self._schema = schema
        self.provider = provider
        self._is_streaming = is_streaming
        self.name = name

    @property
    def schema(self) -> StructType:
        return self._schema

    @property
    def is_streaming(self) -> bool:
        return self._is_streaming

    def with_children(self, children) -> "Scan":
        assert not children
        return self

    def describe(self) -> str:
        kind = "StreamScan" if self._is_streaming else "Scan"
        return f"{kind} {self.name} {self._schema!r}"


class Project(LogicalPlan):
    """Compute a list of named expressions (SELECT clause)."""

    def __init__(self, exprs, child: LogicalPlan):
        self.exprs = list(exprs)
        self.child = child
        self.children = (child,)
        names = [e.output_name for e in self.exprs]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise AnalysisError(f"duplicate output columns in select: {sorted(duplicates)}")

    @property
    def schema(self) -> StructType:
        child_schema = self.child.schema
        return StructType(tuple(
            (e.output_name, e.data_type(child_schema)) for e in self.exprs
        ))

    def with_children(self, children) -> "Project":
        (child,) = children
        return Project(self.exprs, child)

    def describe(self) -> str:
        return "Project [" + ", ".join(str(e) for e in self.exprs) + "]"


class Filter(LogicalPlan):
    """Keep rows where the boolean condition holds (WHERE clause)."""

    def __init__(self, condition: E.Expression, child: LogicalPlan):
        self.condition = condition
        self.child = child
        self.children = (child,)

    @property
    def schema(self) -> StructType:
        from repro.sql.types import BOOLEAN

        if self.condition.data_type(self.child.schema) != BOOLEAN:
            raise AnalysisError(f"filter condition must be boolean: {self.condition}")
        return self.child.schema

    def with_children(self, children) -> "Filter":
        (child,) = children
        return Filter(self.condition, child)

    def describe(self) -> str:
        return f"Filter [{self.condition}]"


class Aggregate(LogicalPlan):
    """Grouped aggregation, possibly keyed by an event-time window.

    ``grouping`` is a list of expressions; a :class:`~repro.sql.expressions.
    WindowExpr` among them expands into ``window_start`` / ``window_end``
    output columns.  ``aggregates`` is a list of (AggregateFunction, name).
    """

    def __init__(self, grouping, aggregates, child: LogicalPlan):
        self.grouping = list(grouping)
        self.aggregates = [(fn, name) for fn, name in aggregates]
        self.child = child
        self.children = (child,)
        windows = [g for g in self.grouping if isinstance(g, E.WindowExpr)]
        if len(windows) > 1:
            raise AnalysisError("at most one window() expression per groupBy")
        self.window = windows[0] if windows else None
        self.plain_grouping = [g for g in self.grouping if not isinstance(g, E.WindowExpr)]

    # Resolved once per node: the stateful aggregate builds an output
    # batch under this schema every epoch.
    @functools.cached_property
    def schema(self) -> StructType:
        child_schema = self.child.schema
        fields = []
        for g in self.plain_grouping:
            fields.append((g.output_name, g.data_type(child_schema)))
        if self.window is not None:
            self.window.data_type(child_schema)
            fields.append(("window_start", "timestamp"))
            fields.append(("window_end", "timestamp"))
        for fn, name in self.aggregates:
            fields.append((name, fn.data_type(child_schema)))
        return StructType(tuple(fields))

    @property
    def key_names(self) -> list:
        """Names of the output key columns (window columns last)."""
        names = [g.output_name for g in self.plain_grouping]
        if self.window is not None:
            names += ["window_start", "window_end"]
        return names

    def with_children(self, children) -> "Aggregate":
        (child,) = children
        return Aggregate(self.grouping, self.aggregates, child)

    def describe(self) -> str:
        keys = ", ".join(str(g) for g in self.grouping)
        aggs = ", ".join(f"{fn} AS {name}" for fn, name in self.aggregates)
        return f"Aggregate key=[{keys}] agg=[{aggs}]"


class Join(LogicalPlan):
    """Equi-join on named key columns, optionally time-bounded.

    ``on`` is a list of column names present on both sides (emitted once in
    the output, as with Spark's ``df.join(other, on=[...])``).  Supported
    join types follow §5.2: inner, left_outer, right_outer.

    ``within`` — ``(left_time_col, right_time_col, max_skew_seconds)`` —
    adds the event-time join condition ``|left.t - right.t2| <= skew``.
    For stream-stream joins this is what bounds state: a buffered row is
    provably unmatchable (and evictable, or outer-emittable) once the
    other side's watermark passes its time plus the skew (§4.3.1, §5.2:
    "the join condition must involve a watermarked column").
    """

    def __init__(self, left: LogicalPlan, right: LogicalPlan, on, how: str = "inner",
                 within=None):
        if how not in JOIN_TYPES:
            raise AnalysisError(f"unsupported join type {how!r}; use one of {JOIN_TYPES}")
        self.left = left
        self.right = right
        self.on = [on] if isinstance(on, str) else list(on)
        if not self.on:
            raise AnalysisError("join requires at least one key column")
        self.how = how
        if within is not None:
            left_col, right_col, skew = within
            within = (left_col, right_col, E.parse_duration(skew))
        self.within = within
        self.children = (left, right)

    @property
    def schema(self) -> StructType:
        left_schema = self.left.schema
        right_schema = self.right.schema
        if self.within is not None:
            left_col, right_col, _skew = self.within
            if left_col not in left_schema:
                raise AnalysisError(
                    f"within time column {left_col!r} not on the left side")
            if right_col not in right_schema:
                raise AnalysisError(
                    f"within time column {right_col!r} not on the right side")
        for key in self.on:
            if key not in left_schema or key not in right_schema:
                raise AnalysisError(
                    f"join key {key!r} must exist on both sides "
                    f"({left_schema.names} vs {right_schema.names})"
                )
            if left_schema.type_of(key) != right_schema.type_of(key):
                raise AnalysisError(f"join key {key!r} has mismatched types")
        right_rest = [n for n in right_schema.names if n not in self.on]
        if WEIGHT_COLUMN in left_schema and WEIGHT_COLUMN in right_rest:
            # Two weighted sides: the output carries ONE weight column
            # (the product of the sides' multiplicities, computed by the
            # physical join), in the left side's position.
            right_rest.remove(WEIGHT_COLUMN)
        overlap = set(left_schema.names) & set(right_rest)
        if overlap:
            raise AnalysisError(
                f"ambiguous non-key columns present on both join sides: {sorted(overlap)}"
            )
        left_part = left_schema
        right_part = right_schema.select(right_rest)
        if self.how == "left_outer":
            right_part = promote_nullable(right_part)
        elif self.how == "right_outer":
            keys = StructType(tuple(
                (n, left_schema.type_of(n)) for n in left_schema.names if n in self.on
            ))
            non_keys = StructType(tuple(
                (f.name, f.data_type) for f in left_schema if f.name not in self.on
            ))
            left_part = keys.merge(promote_nullable(non_keys))
            # Preserve original left column order.
            left_part = left_part.select(left_schema.names)
        return left_part.merge(right_part)

    def with_children(self, children) -> "Join":
        left, right = children
        return Join(left, right, self.on, self.how, within=self.within)

    def describe(self) -> str:
        label = f"Join {self.how} on={self.on}"
        if self.within is not None:
            left_col, right_col, skew = self.within
            label += f" within=|{left_col} - {right_col}| <= {skew}s"
        return label


class Sort(LogicalPlan):
    """Total ordering of the result (streaming: complete mode only, §5.1)."""

    def __init__(self, orders, child: LogicalPlan):
        # orders: list of (column_name, ascending)
        self.orders = [(name, bool(asc)) for name, asc in orders]
        self.child = child
        self.children = (child,)

    @property
    def schema(self) -> StructType:
        child_schema = self.child.schema
        for name, _asc in self.orders:
            if name not in child_schema:
                raise AnalysisError(f"cannot sort by unknown column {name!r}")
        return child_schema

    def with_children(self, children) -> "Sort":
        (child,) = children
        return Sort(self.orders, child)

    def describe(self) -> str:
        keys = ", ".join(f"{n} {'ASC' if a else 'DESC'}" for n, a in self.orders)
        return f"Sort [{keys}]"


class Limit(LogicalPlan):
    """Keep the first ``n`` rows."""

    def __init__(self, n: int, child: LogicalPlan):
        if n < 0:
            raise AnalysisError("limit must be non-negative")
        self.n = n
        self.child = child
        self.children = (child,)

    @property
    def schema(self) -> StructType:
        return self.child.schema

    def with_children(self, children) -> "Limit":
        (child,) = children
        return Limit(self.n, child)

    def describe(self) -> str:
        return f"Limit {self.n}"


class Deduplicate(LogicalPlan):
    """Drop duplicate rows by a subset of columns (SELECT DISTINCT).

    In streaming this becomes a stateful operator whose state is bounded by
    the watermark when one of the subset columns is watermarked.
    """

    def __init__(self, subset, child: LogicalPlan):
        self.subset = list(subset)
        self.child = child
        self.children = (child,)

    @property
    def schema(self) -> StructType:
        child_schema = self.child.schema
        for name in self.subset:
            if name not in child_schema:
                raise AnalysisError(f"cannot deduplicate by unknown column {name!r}")
        return child_schema

    def with_children(self, children) -> "Deduplicate":
        (child,) = children
        return Deduplicate(self.subset, child)

    def describe(self) -> str:
        return f"Deduplicate {self.subset}"


class Union(LogicalPlan):
    """Concatenation of two relations with identical schemas."""

    def __init__(self, left: LogicalPlan, right: LogicalPlan):
        self.left = left
        self.right = right
        self.children = (left, right)

    @property
    def schema(self) -> StructType:
        if self.left.schema.names != self.right.schema.names:
            raise AnalysisError(
                f"union requires matching schemas: {self.left.schema.names} "
                f"vs {self.right.schema.names}"
            )
        return self.left.schema

    def with_children(self, children) -> "Union":
        left, right = children
        return Union(left, right)


class WithWatermark(LogicalPlan):
    """Declare an event-time column with a lateness threshold (§4.3.1).

    The watermark for column C with delay t is ``max(C) - t`` over all data
    seen so far; it gates state eviction and append-mode emission.
    """

    def __init__(self, column: str, delay, child: LogicalPlan):
        self.column = column
        self.delay = E.parse_duration(delay)
        self.child = child
        self.children = (child,)

    @property
    def schema(self) -> StructType:
        child_schema = self.child.schema
        if self.column not in child_schema:
            raise AnalysisError(f"watermark column {self.column!r} not in schema")
        return child_schema

    def with_children(self, children) -> "WithWatermark":
        (child,) = children
        return WithWatermark(self.column, self.delay, child)

    def describe(self) -> str:
        return f"WithWatermark {self.column} delay={self.delay}s"


class MapGroupsWithState(LogicalPlan):
    """Custom per-key stateful processing (§4.3.2, Figure 3).

    ``func(key, rows, state) -> row-or-rows``: invoked once per key per
    trigger with the new rows for that key and a
    :class:`~repro.streaming.stateful.GroupState`.  ``flat`` distinguishes
    ``flat_map_groups_with_state`` (zero or more output rows per call) from
    ``map_groups_with_state`` (exactly one).
    """

    def __init__(self, key_columns, func, output_schema: StructType,
                 child: LogicalPlan, flat: bool = False,
                 timeout: str = "none"):
        if timeout not in ("none", "processing_time", "event_time"):
            raise AnalysisError(f"unknown timeout conf {timeout!r}")
        self.key_columns = list(key_columns)
        self.func = func
        self._output_schema = output_schema
        self.child = child
        self.flat = flat
        self.timeout = timeout
        self.children = (child,)

    @property
    def schema(self) -> StructType:
        child_schema = self.child.schema
        for name in self.key_columns:
            if name not in child_schema:
                raise AnalysisError(f"grouping column {name!r} not in schema")
        return self._output_schema

    def with_children(self, children) -> "MapGroupsWithState":
        (child,) = children
        return MapGroupsWithState(
            self.key_columns, self.func, self._output_schema, child,
            flat=self.flat, timeout=self.timeout,
        )

    def describe(self) -> str:
        kind = "FlatMapGroupsWithState" if self.flat else "MapGroupsWithState"
        return f"{kind} key={self.key_columns} timeout={self.timeout}"
