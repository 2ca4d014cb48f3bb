"""Catalyst-style rule-based logical optimizer (§5.3).

Rules are plain functions ``plan -> plan-or-None`` (None meaning "no
change") applied bottom-up to a fixed point.  The rule set covers the
optimizations the paper calls out as applying to streaming automatically:
predicate pushdown, projection (column) pruning, expression simplification
and constant folding.
"""

from __future__ import annotations

from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql.batch import RecordBatch
from repro.sql.types import StructType

MAX_ITERATIONS = 20


# ---------------------------------------------------------------------------
# Expression rewriting helpers
# ---------------------------------------------------------------------------

def transform_expression(expr: E.Expression, fn):
    """Rebuild ``expr`` bottom-up, applying ``fn`` to every node.

    ``fn`` receives a node whose children have already been rewritten and
    returns a (possibly new) node.
    """
    rebuilt = _rebuild_with_children(
        expr, [transform_expression(c, fn) for c in expr.children]
    )
    return fn(rebuilt)


def _rebuild_with_children(expr: E.Expression, children):
    """Clone an expression with new children (no-op for leaves)."""
    if not expr.children:
        return expr
    if isinstance(expr, E.Alias):
        return E.Alias(children[0], expr.name)
    if isinstance(expr, E.Arithmetic):
        return E.Arithmetic(children[0], children[1], expr.op)
    if isinstance(expr, E.Comparison):
        return E.Comparison(children[0], children[1], expr.op)
    if isinstance(expr, E.BooleanOp):
        return E.BooleanOp(children[0], children[1], expr.op)
    if isinstance(expr, E.Not):
        return E.Not(children[0])
    if isinstance(expr, E.IsNull):
        return E.IsNull(children[0])
    if isinstance(expr, E.In):
        return E.In(children[0], expr.values)
    if isinstance(expr, E.Like):
        return E.Like(children[0], expr.pattern)
    if isinstance(expr, E.Cast):
        return E.Cast(children[0], expr.dtype)
    if isinstance(expr, E.Udf):
        return E.Udf(expr.func, children, expr.return_type, expr.name)
    if isinstance(expr, E.WindowExpr):
        return E.WindowExpr(children[0], expr.duration, expr.slide)
    if isinstance(expr, E.ScalarFunction):
        return E.ScalarFunction(expr.name, children)
    if isinstance(expr, E.CaseWhen):
        pairs = list(zip(children[:-1:2], children[1:-1:2]))
        return E.CaseWhen(pairs, children[-1])
    if isinstance(expr, E.ApproxCountDistinct):
        return E.ApproxCountDistinct(children[0], expr.precision)
    if isinstance(expr, E.AggregateFunction):
        return type(expr)(children[0])
    return expr


def substitute_columns(expr: E.Expression, mapping: dict) -> E.Expression:
    """Replace column references per ``{name: replacement_expression}``."""

    def replace(node):
        if isinstance(node, E.ColumnRef) and node.name in mapping:
            return mapping[node.name]
        return node

    return transform_expression(expr, replace)


def _is_foldable(expr: E.Expression) -> bool:
    return isinstance(expr, E.Literal) or (
        bool(expr.children)
        and not isinstance(expr, (E.Udf, E.AggregateFunction, E.WindowExpr))
        and all(_is_foldable(c) for c in expr.children)
    )


#: A literal-only subtree reads no column, so it folds to what the
#: production evaluator computes for any one row.
_ONE_ROW = RecordBatch.from_rows([{"_": 0}], StructType((("_", "long"),)))


def fold_constants(expr: E.Expression) -> E.Expression:
    """Evaluate literal-only subtrees at plan time."""

    def fold(node):
        if not isinstance(node, E.Literal) and _is_foldable(node):
            value = node.eval_batch(_ONE_ROW).tolist()[0]
            if value is None or isinstance(value, (bool, int, float, str)):
                return E.Literal(value) if value is not None else node
        return node

    return transform_expression(expr, fold)


def unalias(expr: E.Expression) -> E.Expression:
    """Strip any Alias wrappers."""
    while isinstance(expr, E.Alias):
        expr = expr.child
    return expr


def contains_nondupable(expr: E.Expression) -> bool:
    """True if the expression holds a node unsafe/costly to duplicate
    below other operators (UDFs, windows, aggregates)."""
    if isinstance(expr, (E.Udf, E.WindowExpr, E.AggregateFunction)):
        return True
    return any(contains_nondupable(c) for c in expr.children)


def split_conjuncts(condition: E.Expression) -> list:
    """Flatten a condition into AND-ed conjuncts."""
    if isinstance(condition, E.BooleanOp) and condition.op == "and":
        return split_conjuncts(condition.left) + split_conjuncts(condition.right)
    return [condition]


def join_conjuncts(conjuncts) -> E.Expression:
    """Re-assemble conjuncts into a single AND expression."""
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = E.BooleanOp(result, conjunct, "and")
    return result


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def combine_filters(plan: L.LogicalPlan):
    """Filter(a, Filter(b, x)) -> Filter(a AND b, x)."""
    if isinstance(plan, L.Filter) and isinstance(plan.child, L.Filter):
        merged = E.BooleanOp(plan.child.condition, plan.condition, "and")
        return L.Filter(merged, plan.child.child)
    return None


def simplify_filters(plan: L.LogicalPlan):
    """Drop always-true filters; fold constants inside conditions."""
    if not isinstance(plan, L.Filter):
        return None
    folded = fold_constants(plan.condition)
    if isinstance(folded, E.Literal) and folded.value is True:
        return plan.child
    if folded is not plan.condition:
        return L.Filter(folded, plan.child)
    return None


def push_filter_through_project(plan: L.LogicalPlan):
    """Move a filter below a projection when it only reads pass-through or
    deterministically computable columns."""
    if not (isinstance(plan, L.Filter) and isinstance(plan.child, L.Project)):
        return None
    project = plan.child
    mapping = {}
    for expr in project.exprs:
        target = unalias(expr)
        if contains_nondupable(target):
            continue  # not safe / not cheap to duplicate below
        mapping[expr.output_name] = target
    if not plan.condition.references() <= set(mapping):
        return None
    pushed = substitute_columns(plan.condition, mapping)
    return L.Project(project.exprs, L.Filter(pushed, project.child))


def push_filter_through_join(plan: L.LogicalPlan):
    """Push single-side conjuncts of a filter below an inner join."""
    if not (isinstance(plan, L.Filter) and isinstance(plan.child, L.Join)):
        return None
    join = plan.child
    if join.how != "inner":
        return None
    left_names = set(join.left.schema.names)
    right_names = set(join.right.schema.names)
    remaining, to_left, to_right = [], [], []
    for conjunct in split_conjuncts(plan.condition):
        refs = conjunct.references()
        if refs <= left_names:
            to_left.append(conjunct)
        elif refs <= right_names:
            to_right.append(conjunct)
        else:
            remaining.append(conjunct)
    if not to_left and not to_right:
        return None
    left = L.Filter(join_conjuncts(to_left), join.left) if to_left else join.left
    right = L.Filter(join_conjuncts(to_right), join.right) if to_right else join.right
    new_join = L.Join(left, right, join.on, join.how)
    if remaining:
        return L.Filter(join_conjuncts(remaining), new_join)
    return new_join


def push_filter_through_watermark(plan: L.LogicalPlan):
    """Filters commute with watermark declarations."""
    if isinstance(plan, L.Filter) and isinstance(plan.child, L.WithWatermark):
        wm = plan.child
        return L.WithWatermark(wm.column, wm.delay, L.Filter(plan.condition, wm.child))
    return None


def fold_project_constants(plan: L.LogicalPlan):
    """Constant-fold expressions inside projections."""
    if not isinstance(plan, L.Project):
        return None
    changed = False
    folded_exprs = []
    for expr in plan.exprs:
        folded = fold_constants(expr)
        if str(folded) == str(expr):
            folded_exprs.append(expr)
            continue
        changed = True
        if folded.output_name != expr.output_name:
            folded = E.Alias(unalias(folded), expr.output_name)
        folded_exprs.append(folded)
    if not changed:
        return None
    return L.Project(folded_exprs, plan.child)


def collapse_projects(plan: L.LogicalPlan):
    """Project(Project(x)) -> Project(x) by inlining column definitions."""
    if not (isinstance(plan, L.Project) and isinstance(plan.child, L.Project)):
        return None
    inner = plan.child
    mapping = {}
    for expr in inner.exprs:
        target = unalias(expr)
        if isinstance(target, E.AggregateFunction):
            return None
        mapping[expr.output_name] = target
    rewritten = []
    for expr in plan.exprs:
        name = expr.output_name
        new_body = substitute_columns(unalias(expr), mapping)
        if new_body.output_name == name and isinstance(new_body, E.ColumnRef):
            rewritten.append(new_body)
        else:
            rewritten.append(E.Alias(new_body, name))
    return L.Project(rewritten, inner.child)


def prune_columns(plan: L.LogicalPlan):
    """Insert projections above scans so only needed columns are read.

    Works top-down from nodes whose input requirements are known
    (Project, Aggregate, Filter-on-Project chains).
    """
    if isinstance(plan, (L.Project, L.Aggregate)):
        if isinstance(plan, L.Project):
            if all(isinstance(e, E.ColumnRef) for e in plan.exprs):
                return None  # already a pruning projection
            required = set()
            for expr in plan.exprs:
                required |= expr.references()
        else:
            required = set()
            for g in plan.grouping:
                required |= g.references()
            for fn, _name in plan.aggregates:
                required |= fn.references()
        pruned_child = _prune_into(plan.child, required)
        if pruned_child is not None:
            return plan.with_children((pruned_child,))
    return None


def _prune_into(plan: L.LogicalPlan, required: set):
    """Return a pruned version of ``plan`` producing only ``required``
    columns, or None if no pruning is possible/beneficial."""
    if isinstance(plan, L.Filter):
        child = _prune_into(plan.child, required | plan.condition.references())
        if child is not None:
            return L.Filter(plan.condition, child)
        return None
    if isinstance(plan, L.WithWatermark):
        child = _prune_into(plan.child, required | {plan.column})
        if child is not None:
            return L.WithWatermark(plan.column, plan.delay, child)
        return None
    if isinstance(plan, L.Scan):
        available = plan.schema.names
        keep = [n for n in available if n in required]
        if len(keep) < len(available) and keep:
            return L.Project([E.ColumnRef(n) for n in keep], plan)
        return None
    return None


ALL_RULES = (
    combine_filters,
    simplify_filters,
    push_filter_through_project,
    push_filter_through_join,
    push_filter_through_watermark,
    fold_project_constants,
    collapse_projects,
    prune_columns,
)


def _apply_bottom_up(plan: L.LogicalPlan, rule) -> L.LogicalPlan:
    new_children = tuple(_apply_bottom_up(c, rule) for c in plan.children)
    if any(n is not o for n, o in zip(new_children, plan.children)):
        plan = plan.with_children(new_children)
    replacement = rule(plan)
    return replacement if replacement is not None else plan


def optimize(plan: L.LogicalPlan, rules=ALL_RULES) -> L.LogicalPlan:
    """Apply all rules bottom-up until a fixed point (bounded iterations)."""
    for _round in range(MAX_ITERATIONS):
        before = plan.explain_string()
        for rule in rules:
            plan = _apply_bottom_up(plan, rule)
        if plan.explain_string() == before:
            break
    return plan
