"""Expression AST for the relational engine.

Every expression has one production evaluator and one reference:

* ``eval_batch(batch)`` — vectorized evaluation over a columnar
  :class:`~repro.sql.batch.RecordBatch`: numpy kernels, the
  reproduction's stand-in for Spark SQL's Tungsten execution (§5.3 of
  the paper).  Plans reach it through :func:`bind`, once, at plan time.
* ``eval_row(row)`` — interpreted evaluation on a single dict row.  No
  engine code calls it; it is the independent oracle the tests and the
  vectorized-vs-interpreted ablation benchmark compare ``eval_batch``
  against.

Aggregate functions additionally implement an *incremental buffer*
protocol (init / update / merge / finish plus vectorized per-group
partials) so the streaming engine can maintain running aggregates in the
state store across epochs (§5.2).
"""

from __future__ import annotations

import math
import re

import numpy as np

from repro.sql import types as T
from repro.sql.types import DataType, StructType


class AnalysisError(Exception):
    """Raised when a query fails analysis (unresolved names, bad types,
    or a query/output-mode combination the engine does not support)."""


# ---------------------------------------------------------------------------
# Durations (used by windows, watermarks and timeouts)
# ---------------------------------------------------------------------------

_DURATION_RE = re.compile(
    r"^\s*(\d+(?:\.\d+)?)\s*(ms|milliseconds?|s|secs?|seconds?|m|mins?|minutes?|"
    r"h|hours?|d|days?)\s*$",
    re.IGNORECASE,
)

_DURATION_UNITS = {
    "ms": 0.001, "millisecond": 0.001, "milliseconds": 0.001,
    "s": 1.0, "sec": 1.0, "secs": 1.0, "second": 1.0, "seconds": 1.0,
    "m": 60.0, "min": 60.0, "mins": 60.0, "minute": 60.0, "minutes": 60.0,
    "h": 3600.0, "hour": 3600.0, "hours": 3600.0,
    "d": 86400.0, "day": 86400.0, "days": 86400.0,
}


def parse_duration(value) -> float:
    """Parse a duration into float seconds.

    Accepts numbers (seconds) or strings like ``"10 seconds"``, ``"5 min"``,
    ``"1 hour"`` or ``"250ms"``.
    """
    if isinstance(value, (int, float)):
        return float(value)
    match = _DURATION_RE.match(value)
    if not match:
        raise ValueError(f"cannot parse duration: {value!r}")
    amount, unit = match.groups()
    return float(amount) * _DURATION_UNITS[unit.lower()]


# ---------------------------------------------------------------------------
# Base expression
# ---------------------------------------------------------------------------

class Expression:
    """Base class for all scalar expressions."""

    children: tuple = ()

    def data_type(self, schema: StructType) -> DataType:
        """Resolve and return this expression's output type under ``schema``.

        Raises :class:`AnalysisError` for unresolved names or type errors.
        """
        raise NotImplementedError

    def references(self) -> set:
        """Names of all input columns this expression reads."""
        refs = set()
        for child in self.children:
            refs |= child.references()
        return refs

    def eval_batch(self, batch) -> np.ndarray:
        """Vectorized evaluation returning one array aligned with the batch."""
        raise NotImplementedError

    def eval_row(self, row):
        """Interpreted evaluation on one dict-like row."""
        raise NotImplementedError

    @property
    def output_name(self) -> str:
        """Default column name when this expression appears in a projection."""
        return str(self)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return type(self).__name__.lower()

    # Operator overloads let expressions compose naturally; the public
    # DataFrame API wraps these in `Column` (see repro.sql.dataframe).
    def _binop(self, other, cls, *args):
        return cls(self, _to_expr(other), *args)

    def __add__(self, other):
        return self._binop(other, Arithmetic, "+")

    def __radd__(self, other):
        return Arithmetic(_to_expr(other), self, "+")

    def __sub__(self, other):
        return self._binop(other, Arithmetic, "-")

    def __rsub__(self, other):
        return Arithmetic(_to_expr(other), self, "-")

    def __mul__(self, other):
        return self._binop(other, Arithmetic, "*")

    def __rmul__(self, other):
        return Arithmetic(_to_expr(other), self, "*")

    def __truediv__(self, other):
        return self._binop(other, Arithmetic, "/")

    def __mod__(self, other):
        return self._binop(other, Arithmetic, "%")

    def __eq__(self, other):  # type: ignore[override]
        return self._binop(other, Comparison, "==")

    def __ne__(self, other):  # type: ignore[override]
        return self._binop(other, Comparison, "!=")

    def __lt__(self, other):
        return self._binop(other, Comparison, "<")

    def __le__(self, other):
        return self._binop(other, Comparison, "<=")

    def __gt__(self, other):
        return self._binop(other, Comparison, ">")

    def __ge__(self, other):
        return self._binop(other, Comparison, ">=")

    def __and__(self, other):
        return self._binop(other, BooleanOp, "and")

    def __or__(self, other):
        return self._binop(other, BooleanOp, "or")

    def __invert__(self):
        return Not(self)

    def __hash__(self):  # needed because __eq__ is overloaded
        return id(self)

    def alias(self, name: str) -> "Alias":
        """Name this expression's output column."""
        return Alias(self, name)

    def cast(self, dtype) -> "Cast":
        """Cast to another data type (name or DataType instance)."""
        if isinstance(dtype, str):
            dtype = T.type_from_name(dtype)
        return Cast(self, dtype)

    def is_null(self) -> "IsNull":
        """True where the value is null (None/NaN)."""
        return IsNull(self)

    def is_not_null(self) -> "Not":
        """True where the value is not null."""
        return Not(IsNull(self))

    def isin(self, values) -> "In":
        """True where the value is one of ``values``."""
        return In(self, list(values))


def bind(expr: Expression, schema: StructType):
    """Type-check ``expr`` under ``schema`` and return ``fn(batch) -> array``.

    The one plan-time entry point to vectorized evaluation: unresolved
    columns and type errors raise :class:`AnalysisError` here, not at the
    first batch, and the returned callable does no type resolution.
    """
    expr.data_type(schema)
    return expr.eval_batch


def _to_expr(value) -> Expression:
    """Coerce Python literals (and Column wrappers) into expressions."""
    if isinstance(value, Expression):
        return value
    # Late import to avoid a cycle with repro.sql.dataframe.
    from repro.sql.dataframe import Column

    if isinstance(value, Column):
        return value.expr
    return Literal(value)


# ---------------------------------------------------------------------------
# Leaf expressions
# ---------------------------------------------------------------------------

class ColumnRef(Expression):
    """A reference to an input column by name."""

    def __init__(self, name: str):
        self.name = name

    def data_type(self, schema: StructType) -> DataType:
        if self.name not in schema:
            raise AnalysisError(
                f"cannot resolve column {self.name!r}; available: {schema.names}"
            )
        return schema.type_of(self.name)

    def references(self) -> set:
        return {self.name}

    def eval_batch(self, batch) -> np.ndarray:
        return batch.columns[self.name]

    def eval_row(self, row):
        return row[self.name]

    @property
    def output_name(self) -> str:
        return self.name

    def __str__(self) -> str:
        return self.name


class Literal(Expression):
    """A constant value."""

    def __init__(self, value, dtype: DataType = None):
        self.value = value
        self._dtype = dtype if dtype is not None else (
            T.infer_type(value) if value is not None else T.STRING
        )

    def data_type(self, schema: StructType) -> DataType:
        return self._dtype

    def eval_batch(self, batch) -> np.ndarray:
        if self._dtype.numpy_dtype is object:
            arr = np.empty(batch.num_rows, dtype=object)
            arr[:] = self.value
            return arr
        return np.full(batch.num_rows, self.value, dtype=self._dtype.numpy_dtype)

    def eval_row(self, row):
        return self.value

    def __str__(self) -> str:
        return repr(self.value)


class Alias(Expression):
    """Renames the output of its child; transparent for evaluation."""

    def __init__(self, child: Expression, name: str):
        self.child = child
        self.name = name
        self.children = (child,)

    def data_type(self, schema: StructType) -> DataType:
        return self.child.data_type(schema)

    def eval_batch(self, batch) -> np.ndarray:
        return self.child.eval_batch(batch)

    def eval_row(self, row):
        return self.child.eval_row(row)

    @property
    def output_name(self) -> str:
        return self.name

    def __str__(self) -> str:
        return f"{self.child} AS {self.name}"


# ---------------------------------------------------------------------------
# Scalar operators
# ---------------------------------------------------------------------------

_ARITH_BATCH = {
    "+": np.add, "-": np.subtract, "*": np.multiply,
    "/": np.true_divide, "%": np.mod,
}


def _divide_row(a, b):
    """``a / b`` with the vectorized kernel's IEEE result for ``b == 0``."""
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0 or a != a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


_ARITH_ROW = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b,
    "*": lambda a, b: a * b, "/": _divide_row,
    "%": lambda a, b: a % b,
}


class Arithmetic(Expression):
    """Binary arithmetic over numeric columns."""

    def __init__(self, left: Expression, right: Expression, op: str):
        if op not in _ARITH_BATCH:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        self.left, self.right, self.op = left, right, op
        self.children = (left, right)

    def data_type(self, schema: StructType) -> DataType:
        lt = self.left.data_type(schema)
        rt = self.right.data_type(schema)
        if not isinstance(lt, T.NumericType) or not isinstance(rt, T.NumericType):
            raise AnalysisError(f"arithmetic {self.op!r} requires numeric types, got {lt}, {rt}")
        if self.op == "/":
            return T.DOUBLE
        return T.common_type(lt, rt)

    def eval_batch(self, batch) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return _ARITH_BATCH[self.op](
                self.left.eval_batch(batch), self.right.eval_batch(batch)
            )

    def eval_row(self, row):
        left = self.left.eval_row(row)
        right = self.right.eval_row(row)
        if left is None or right is None:
            return None
        return _ARITH_ROW[self.op](left, right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


_CMP_BATCH = {
    "==": np.equal, "!=": np.not_equal, "<": np.less,
    "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
}
_CMP_ROW = {
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}


def _is_non_null_literal(expr: Expression) -> bool:
    return isinstance(expr, Literal) and expr.value is not None


class Comparison(Expression):
    """Binary comparison producing a boolean column.

    A null (``None``) on either side compares as *not true* under all six
    operators — what SQL's three-valued logic filters on.
    """

    def __init__(self, left: Expression, right: Expression, op: str):
        if op not in _CMP_BATCH:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.left, self.right, self.op = left, right, op
        self.children = (left, right)
        # ``None == x`` is already False for any non-null x, so equality
        # against a non-null literal needs no null pass over the column.
        self._needs_null_pass = not (op == "==" and (
            _is_non_null_literal(left) or _is_non_null_literal(right)))

    def data_type(self, schema: StructType) -> DataType:
        lt = self.left.data_type(schema)
        rt = self.right.data_type(schema)
        both_numeric = isinstance(lt, T.NumericType) and isinstance(rt, T.NumericType)
        if lt != rt and not both_numeric:
            raise AnalysisError(f"cannot compare {lt} with {rt}")
        return T.BOOLEAN

    def eval_batch(self, batch) -> np.ndarray:
        left = self.left.eval_batch(batch)
        right = self.right.eval_batch(batch)
        compare = _CMP_BATCH[self.op]
        if self._needs_null_pass and (
                left.dtype == object or right.dtype == object):
            # Only object arrays hold None; a numeric side is all valid.
            valid = np.not_equal(left, None) & np.not_equal(right, None)
            if not valid.all():
                result = np.zeros(len(valid), dtype=bool)
                result[valid] = compare(left[valid], right[valid])
                return result
        return np.asarray(compare(left, right), dtype=bool)

    def eval_row(self, row):
        left = self.left.eval_row(row)
        right = self.right.eval_row(row)
        if left is None or right is None:
            return False
        return _CMP_ROW[self.op](left, right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class BooleanOp(Expression):
    """Logical AND / OR of boolean expressions."""

    def __init__(self, left: Expression, right: Expression, op: str):
        if op not in ("and", "or"):
            raise ValueError(f"unknown boolean operator {op!r}")
        self.left, self.right, self.op = left, right, op
        self.children = (left, right)

    def data_type(self, schema: StructType) -> DataType:
        for side in (self.left, self.right):
            if side.data_type(schema) != T.BOOLEAN:
                raise AnalysisError(f"{self.op} requires boolean operands")
        return T.BOOLEAN

    def eval_batch(self, batch) -> np.ndarray:
        left = self.left.eval_batch(batch)
        right = self.right.eval_batch(batch)
        return (left & right) if self.op == "and" else (left | right)

    def eval_row(self, row):
        if self.op == "and":
            return bool(self.left.eval_row(row)) and bool(self.right.eval_row(row))
        return bool(self.left.eval_row(row)) or bool(self.right.eval_row(row))

    def __str__(self) -> str:
        return f"({self.left} {self.op.upper()} {self.right})"


class Not(Expression):
    """Logical negation."""

    def __init__(self, child: Expression):
        self.child = child
        self.children = (child,)

    def data_type(self, schema: StructType) -> DataType:
        if self.child.data_type(schema) != T.BOOLEAN:
            raise AnalysisError("NOT requires a boolean operand")
        return T.BOOLEAN

    def eval_batch(self, batch) -> np.ndarray:
        return ~self.child.eval_batch(batch)

    def eval_row(self, row):
        return not self.child.eval_row(row)

    def __str__(self) -> str:
        return f"(NOT {self.child})"


class IsNull(Expression):
    """True where the child is null (None for strings, NaN for doubles)."""

    def __init__(self, child: Expression):
        self.child = child
        self.children = (child,)

    def data_type(self, schema: StructType) -> DataType:
        self.child.data_type(schema)
        return T.BOOLEAN

    def eval_batch(self, batch) -> np.ndarray:
        values = self.child.eval_batch(batch)
        if values.dtype == object:
            return np.array([v is None for v in values], dtype=bool)
        if values.dtype.kind == "f":
            return np.isnan(values)
        return np.zeros(len(values), dtype=bool)

    def eval_row(self, row):
        value = self.child.eval_row(row)
        if value is None:
            return True
        return isinstance(value, float) and math.isnan(value)

    def __str__(self) -> str:
        return f"({self.child} IS NULL)"


class In(Expression):
    """Membership test against a literal set of values."""

    def __init__(self, child: Expression, values: list):
        self.child = child
        self.values = values
        self._value_set = set(values)
        self.children = (child,)

    def data_type(self, schema: StructType) -> DataType:
        self.child.data_type(schema)
        return T.BOOLEAN

    def eval_batch(self, batch) -> np.ndarray:
        values = self.child.eval_batch(batch)
        if values.dtype == object:
            return np.array([v in self._value_set for v in values], dtype=bool)
        return np.isin(values, list(self._value_set))

    def eval_row(self, row):
        return self.child.eval_row(row) in self._value_set

    def __str__(self) -> str:
        return f"({self.child} IN {tuple(self.values)})"


class Like(Expression):
    """SQL ``LIKE`` with ``%`` (any run) and ``_`` (any char) wildcards."""

    def __init__(self, child: Expression, pattern: str):
        self.child = child
        self.pattern = pattern
        regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
        self._regex = re.compile(f"^{regex}$", re.DOTALL)
        self.children = (child,)

    def data_type(self, schema: StructType) -> DataType:
        if not isinstance(self.child.data_type(schema), T.StringType):
            raise AnalysisError("LIKE requires a string operand")
        return T.BOOLEAN

    def eval_batch(self, batch) -> np.ndarray:
        match = self._regex.match
        values = self.child.eval_batch(batch)
        return np.array(
            [v is not None and match(v) is not None for v in values.tolist()],
            dtype=bool,
        )

    def eval_row(self, row):
        value = self.child.eval_row(row)
        return value is not None and self._regex.match(value) is not None

    def __str__(self) -> str:
        return f"({self.child} LIKE {self.pattern!r})"


class Cast(Expression):
    """Type conversion."""

    def __init__(self, child: Expression, dtype: DataType):
        self.child = child
        self.dtype = dtype
        self.children = (child,)

    def data_type(self, schema: StructType) -> DataType:
        self.child.data_type(schema)
        return self.dtype

    def eval_batch(self, batch) -> np.ndarray:
        values = self.child.eval_batch(batch)
        target = self.dtype.numpy_dtype
        if target is object:
            out = np.empty(len(values), dtype=object)
            out[:] = [None if v is None else str(v) for v in values.tolist()]
            return out
        if values.dtype == object:
            caster = float if target is np.float64 else int
            return np.array(
                [caster(v) for v in values], dtype=target
            )
        return values.astype(target)

    def eval_row(self, row):
        value = self.child.eval_row(row)
        if value is None:
            return None
        if self.dtype.numpy_dtype is object:
            return str(value)
        if self.dtype.numpy_dtype is np.float64:
            return float(value)
        if self.dtype.numpy_dtype is np.bool_:
            return bool(value)
        return int(value)

    def __str__(self) -> str:
        return f"CAST({self.child} AS {self.dtype.simple_name})"


class CaseWhen(Expression):
    """SQL CASE WHEN ... THEN ... ELSE ... END."""

    def __init__(self, branches, otherwise: Expression = None):
        self.branches = [(cond, value) for cond, value in branches]
        self.otherwise = otherwise if otherwise is not None else Literal(None)
        self.children = tuple(
            e for pair in self.branches for e in pair
        ) + (self.otherwise,)

    def data_type(self, schema: StructType) -> DataType:
        result = None
        for cond, value in self.branches:
            if cond.data_type(schema) != T.BOOLEAN:
                raise AnalysisError("CASE WHEN conditions must be boolean")
            vt = value.data_type(schema)
            result = vt if result is None else T.common_type(result, vt)
        return result

    def eval_batch(self, batch) -> np.ndarray:
        result = np.array(self.otherwise.eval_batch(batch), copy=True)
        assigned = np.zeros(batch.num_rows, dtype=bool)
        for cond, value in self.branches:
            mask = cond.eval_batch(batch) & ~assigned
            if mask.any():
                result[mask] = value.eval_batch(batch)[mask]
            assigned |= mask
        return result

    def eval_row(self, row):
        for cond, value in self.branches:
            if cond.eval_row(row):
                return value.eval_row(row)
        return self.otherwise.eval_row(row)

    def __str__(self) -> str:
        parts = " ".join(f"WHEN {c} THEN {v}" for c, v in self.branches)
        return f"CASE {parts} ELSE {self.otherwise} END"


class Udf(Expression):
    """A user-defined scalar function applied row-at-a-time.

    UDFs are the escape hatch for logic the engine cannot express; they are
    evaluated with a Python loop even in the vectorized path (as in Spark,
    where Python UDFs break code generation).
    """

    def __init__(self, func, args, return_type: DataType, name: str = None):
        self.func = func
        self.args = [(a if isinstance(a, Expression) else _to_expr(a)) for a in args]
        self.return_type = return_type
        self.name = name or getattr(func, "__name__", "udf")
        self.children = tuple(self.args)

    def data_type(self, schema: StructType) -> DataType:
        for arg in self.args:
            arg.data_type(schema)
        return self.return_type

    def eval_batch(self, batch) -> np.ndarray:
        arg_arrays = [a.eval_batch(batch) for a in self.args]
        results = [self.func(*vals) for vals in zip(*arg_arrays)] if arg_arrays \
            else [self.func() for _ in range(batch.num_rows)]
        if self.return_type.numpy_dtype is object:
            out = np.empty(batch.num_rows, dtype=object)
            out[:] = results
            return out
        return np.asarray(results, dtype=self.return_type.numpy_dtype)

    def eval_row(self, row):
        return self.func(*(a.eval_row(row) for a in self.args))

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


# ---------------------------------------------------------------------------
# Scalar function library (string + math builtins, §5.3's "new SQL
# functionality added to Spark" that streaming leverages automatically)
# ---------------------------------------------------------------------------

def _object_map(fn, *arrays):
    """Apply a Python function element-wise, producing an object array."""
    out = np.empty(len(arrays[0]), dtype=object)
    out[:] = [fn(*vals) for vals in zip(*(a.tolist() for a in arrays))]
    return out


def _null_safe(fn):
    """Wrap a row function so None inputs yield None."""
    def wrapped(*args):
        if any(a is None for a in args):
            return None
        return fn(*args)
    return wrapped


def _type_string(arg_types):
    return T.STRING


def _type_long(arg_types):
    return T.LONG


def _type_double(arg_types):
    return T.DOUBLE


def _type_boolean(arg_types):
    return T.BOOLEAN


def _type_same(arg_types):
    return arg_types[0]


def _require_string(name, arg_types, positions):
    for p in positions:
        if not isinstance(arg_types[p], T.StringType):
            raise AnalysisError(f"{name}() requires string argument {p}")


def _require_numeric(name, arg_types, positions):
    for p in positions:
        if not isinstance(arg_types[p], T.NumericType):
            raise AnalysisError(f"{name}() requires numeric argument {p}")


# name -> (arity, type_fn, row_fn, check_fn). Vectorization for string
# ops is a tight object-array map; numeric ops use numpy ufuncs below.
_SCALAR_FUNCTIONS = {
    "upper": (1, _type_string, _null_safe(str.upper),
              lambda ts: _require_string("upper", ts, [0])),
    "lower": (1, _type_string, _null_safe(str.lower),
              lambda ts: _require_string("lower", ts, [0])),
    "trim": (1, _type_string, _null_safe(str.strip),
             lambda ts: _require_string("trim", ts, [0])),
    "length": (1, _type_long, _null_safe(len),
               lambda ts: _require_string("length", ts, [0])),
    "concat": (2, _type_string, _null_safe(lambda a, b: a + b),
               lambda ts: _require_string("concat", ts, [0, 1])),
    "contains": (2, _type_boolean, _null_safe(lambda s, sub: sub in s),
                 lambda ts: _require_string("contains", ts, [0, 1])),
    "starts_with": (2, _type_boolean, _null_safe(str.startswith),
                    lambda ts: _require_string("starts_with", ts, [0, 1])),
    "ends_with": (2, _type_boolean, _null_safe(str.endswith),
                  lambda ts: _require_string("ends_with", ts, [0, 1])),
    "substring": (3, _type_string,
                  _null_safe(lambda s, start, n: s[int(start):int(start) + int(n)]),
                  lambda ts: _require_string("substring", ts, [0])),
    "split_part": (3, _type_string,
                   _null_safe(lambda s, sep, i: (s.split(sep) + [None] * 99)[int(i)]),
                   lambda ts: _require_string("split_part", ts, [0, 1])),
    "abs": (1, _type_same, _null_safe(abs),
            lambda ts: _require_numeric("abs", ts, [0])),
    "round": (2, _type_double, _null_safe(lambda x, d: float(round(x, int(d)))),
              lambda ts: _require_numeric("round", ts, [0, 1])),
    "floor": (1, _type_long, _null_safe(lambda x: int(math.floor(x))),
              lambda ts: _require_numeric("floor", ts, [0])),
    "ceil": (1, _type_long, _null_safe(lambda x: int(math.ceil(x))),
             lambda ts: _require_numeric("ceil", ts, [0])),
    "sqrt": (1, _type_double, _null_safe(math.sqrt),
             lambda ts: _require_numeric("sqrt", ts, [0])),
    "greatest": (2, _type_same, _null_safe(max),
                 lambda ts: _require_numeric("greatest", ts, [0, 1])),
    "least": (2, _type_same, _null_safe(min),
              lambda ts: _require_numeric("least", ts, [0, 1])),
}

# Numeric functions with true vectorized kernels.
_VECTOR_KERNELS = {
    "abs": np.abs,
    "floor": lambda a: np.floor(a).astype(np.int64),
    "ceil": lambda a: np.ceil(a).astype(np.int64),
    "sqrt": np.sqrt,
    "greatest": np.maximum,
    "least": np.minimum,
}


class ScalarFunction(Expression):
    """A built-in scalar function from the table above."""

    def __init__(self, name: str, args):
        if name not in _SCALAR_FUNCTIONS:
            raise AnalysisError(f"unknown scalar function {name!r}")
        arity = _SCALAR_FUNCTIONS[name][0]
        if len(args) != arity:
            raise AnalysisError(f"{name}() takes {arity} arguments, got {len(args)}")
        self.name = name
        self.args = [_to_expr(a) for a in args]
        self.children = tuple(self.args)

    def data_type(self, schema: StructType) -> DataType:
        arg_types = [a.data_type(schema) for a in self.args]
        _arity, type_fn, _row_fn, check = _SCALAR_FUNCTIONS[self.name]
        check(arg_types)
        return type_fn(arg_types)

    def eval_batch(self, batch) -> np.ndarray:
        arrays = [a.eval_batch(batch) for a in self.args]
        kernel = _VECTOR_KERNELS.get(self.name)
        if kernel is not None and all(a.dtype != object for a in arrays):
            return kernel(*arrays)
        _arity, type_fn, row_fn, _check = _SCALAR_FUNCTIONS[self.name]
        result = _object_map(row_fn, *arrays)
        # Boolean/long-returning string functions come back as object
        # arrays; densify when possible so filters can consume them.  A
        # boolean one always densifies (null is not true): decided by its
        # type, not a sample, so no row's value depends on which other
        # rows share its batch.
        if type_fn is _type_boolean:
            return np.array([bool(v) if v is not None else False
                             for v in result], dtype=bool)
        if len(result):
            sample = next((v for v in result if v is not None), None)
            if isinstance(sample, int) and all(v is not None for v in result):
                return np.array(result.tolist(), dtype=np.int64)
        return result

    def eval_row(self, row):
        row_fn = _SCALAR_FUNCTIONS[self.name][2]
        return row_fn(*(a.eval_row(row) for a in self.args))

    @property
    def output_name(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"

    def __str__(self) -> str:
        return self.output_name


# ---------------------------------------------------------------------------
# Event-time windows (grouping expression; see §4.1 and §4.3.1)
# ---------------------------------------------------------------------------

class WindowExpr(Expression):
    """Assigns rows to fixed (tumbling) or sliding event-time windows.

    Only valid as a grouping expression.  The aggregate operator expands it
    into ``window_start`` / ``window_end`` output columns; with a slide
    shorter than the window size, each row belongs to multiple windows and
    is replicated.
    """

    def __init__(self, time_expr: Expression, duration, slide=None):
        self.time_expr = time_expr
        self.duration = parse_duration(duration)
        self.slide = parse_duration(slide) if slide is not None else self.duration
        if self.slide <= 0 or self.duration <= 0:
            raise ValueError("window duration and slide must be positive")
        if self.slide > self.duration:
            raise ValueError("window slide must not exceed window duration")
        self.children = (time_expr,)

    def data_type(self, schema: StructType) -> DataType:
        tt = self.time_expr.data_type(schema)
        if not isinstance(tt, T.NumericType):
            raise AnalysisError("window() requires a timestamp/numeric column")
        return T.TIMESTAMP

    @property
    def windows_per_record(self) -> int:
        """Max number of windows a single record can belong to."""
        return int(math.ceil(self.duration / self.slide))

    def assign_batch(self, batch):
        """Vectorized window assignment.

        Returns ``(row_indices, window_starts)``: for each (row, window)
        membership pair, the source row index and the window start time.
        """
        times = np.asarray(self.time_expr.eval_batch(batch), dtype=np.float64)
        n = len(times)
        max_start = np.floor(times / self.slide) * self.slide
        all_idx = []
        all_starts = []
        for k in range(self.windows_per_record):
            starts = max_start - k * self.slide
            mask = starts > times - self.duration
            # Tumbling windows (k == 0) always contain their record.
            if mask.all():
                all_idx.append(np.arange(n))
                all_starts.append(starts)
            else:
                idx = np.nonzero(mask)[0]
                all_idx.append(idx)
                all_starts.append(starts[idx])
        return np.concatenate(all_idx), np.concatenate(all_starts)

    def assign_row(self, row) -> list:
        """Row-at-a-time window assignment: list of window start times."""
        time = self.time_expr.eval_row(row)
        max_start = math.floor(time / self.slide) * self.slide
        starts = []
        for k in range(self.windows_per_record):
            start = max_start - k * self.slide
            if start > time - self.duration:
                starts.append(start)
        return starts

    def eval_batch(self, batch):
        raise AnalysisError("window() is only valid as a groupBy expression")

    def eval_row(self, row):
        raise AnalysisError("window() is only valid as a groupBy expression")

    @property
    def output_name(self) -> str:
        return "window"

    def __str__(self) -> str:
        return f"window({self.time_expr}, {self.duration}s, {self.slide}s)"


# ---------------------------------------------------------------------------
# Aggregate functions with an incremental buffer protocol
# ---------------------------------------------------------------------------

class AggregateFunction(Expression):
    """Base class for aggregates.

    The buffer protocol makes aggregates incrementally maintainable: the
    streaming engine stores one JSON-serializable buffer per group in the
    state store and merges per-epoch vectorized partials into it, so each
    trigger costs time proportional to the new data, not the stream so far
    (the incrementalization goal of §5.2).
    """

    #: Short SQL-ish name ("count", "sum", ...).
    func_name = "agg"

    #: True when the aggregate is additive enough to subtract a partial
    #: back out of a buffer (``retract``).  Only such aggregates can run
    #: over weighted (retraction) streams: Count/Sum/Avg qualify, while
    #: Min/Max/First/Last would need the full value history to undo.
    supports_retract = False

    def __init__(self, child: Expression = None):
        self.child = child
        self.children = (child,) if child is not None else ()

    # -- analysis ------------------------------------------------------
    def data_type(self, schema: StructType) -> DataType:
        raise NotImplementedError

    # -- buffer protocol ------------------------------------------------
    def init(self):
        """A fresh, JSON-serializable accumulator buffer."""
        raise NotImplementedError

    def update(self, buffer, value):
        """Fold one value into a buffer (row-at-a-time path)."""
        raise NotImplementedError

    def merge(self, left, right):
        """Merge two buffers (used to fold batch partials into state)."""
        raise NotImplementedError

    def retract(self, buffer, partial):
        """Subtract a partial buffer back out of ``buffer`` (Z-set -1
        rows).  Only meaningful when ``supports_retract`` is True."""
        raise NotImplementedError(
            f"{self.func_name}() cannot retract; it is not incrementally "
            "invertible"
        )

    def finish(self, buffer):
        """Extract the final aggregate value from a buffer."""
        raise NotImplementedError

    #: True when a buffer is a number or a list of numbers that ``merge``
    #: adds and ``retract`` subtracts slot by slot (count, sum, avg):
    #: per-group partials then merge as whole arrays
    #: (:class:`~repro.sql.grouping.PartialTable`).
    additive = False

    def batch_partials(self, batch, codes: np.ndarray, num_groups: int) -> list:
        """Vectorized: one partial buffer per group code for this batch."""
        if self.additive:
            return self.buffers_from_arrays(
                self.partial_arrays(batch, codes, num_groups))
        raise NotImplementedError

    def partial_arrays(self, batch, codes: np.ndarray, num_groups: int,
                       rows: np.ndarray = None) -> list:
        """Additive aggregates: the batch's per-group partials as one array
        per buffer slot, indexed by group code.  ``rows``, when given, is
        ``np.bincount(codes, minlength=num_groups)``, already counted."""
        raise NotImplementedError

    def buffers_from_arrays(self, arrays) -> list:
        """Additive aggregates: the per-group buffers ``partial_arrays``'
        slot arrays stand for."""
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------
    def _values(self, batch) -> np.ndarray:
        return self.child.eval_batch(batch)

    @property
    def output_name(self) -> str:
        if self.child is None:
            return self.func_name
        return f"{self.func_name}({self.child})"

    def __str__(self) -> str:
        return self.output_name


def _valid_mask(values: np.ndarray) -> np.ndarray:
    """True where a value is non-null."""
    if values.dtype == object:
        return np.array([v is not None for v in values], dtype=bool)
    if values.dtype.kind == "f":
        return ~np.isnan(values)
    return np.ones(len(values), dtype=bool)


#: A float64 holds every integer below this magnitude exactly.
_FLOAT_EXACT_INT = 1 << 53


def _integer_sums(values: np.ndarray, codes: np.ndarray, num_groups: int):
    """Per-group sums of integer ``values``, exact: an int64 array while
    every sum stays below 2**53 in magnitude, else Python ints (an object
    array) — so int64 partials add up across parts without leaving int64
    (:class:`~repro.sql.grouping.PartialTable`).

    While ``max |value| x rows`` stays below 2**53 every partial sum is an
    exact double, so one float ``bincount`` serves; up to 2**63 the sums
    accumulate in int64; beyond that, in Python ints.
    """
    if not len(values):
        return np.zeros(num_groups, dtype=np.int64)
    bound = max(-int(values.min()), int(values.max())) * len(values)
    if bound < _FLOAT_EXACT_INT:
        return np.bincount(codes, weights=values,
                           minlength=num_groups).astype(np.int64)
    if bound < 1 << 63:
        totals = np.zeros(num_groups, dtype=np.int64)
        np.add.at(totals, codes, values)
        return totals.astype(object)
    sums = [0] * num_groups
    for code, value in zip(codes.tolist(), values.tolist()):
        sums[code] += value
    totals = np.empty(num_groups, dtype=object)
    totals[:] = sums
    return totals


class Count(AggregateFunction):
    """``count(*)`` when child is None, else ``count(col)`` skipping nulls."""

    func_name = "count"
    supports_retract = True
    additive = True

    def data_type(self, schema: StructType) -> DataType:
        if self.child is not None:
            self.child.data_type(schema)
        return T.LONG

    def init(self):
        return 0

    def update(self, buffer, value):
        if self.child is not None and value is None:
            return buffer
        return buffer + 1

    def merge(self, left, right):
        return left + right

    def retract(self, buffer, partial):
        return buffer - partial

    def finish(self, buffer):
        return buffer

    def partial_arrays(self, batch, codes, num_groups, rows=None):
        if self.child is not None:
            mask = _valid_mask(self._values(batch))
            if not mask.all():
                return [np.bincount(codes[mask], minlength=num_groups)]
        if rows is None:
            rows = np.bincount(codes, minlength=num_groups)
        return [rows]

    def buffers_from_arrays(self, arrays):
        return arrays[0].tolist()

    @property
    def output_name(self) -> str:
        return "count"


class Sum(AggregateFunction):
    """Sum of a numeric column, null-skipping; null (None) for empty groups."""

    func_name = "sum"
    supports_retract = True
    additive = True

    def data_type(self, schema: StructType) -> DataType:
        ct = self.child.data_type(schema)
        if not isinstance(ct, T.NumericType):
            raise AnalysisError(f"sum() requires a numeric column, got {ct}")
        return T.LONG if isinstance(ct, T.IntegralType) else T.DOUBLE

    def init(self):
        return [0, 0]  # [total, count-of-non-null]

    def update(self, buffer, value):
        if value is None:
            return buffer
        return [buffer[0] + value, buffer[1] + 1]

    def merge(self, left, right):
        return [left[0] + right[0], left[1] + right[1]]

    def retract(self, buffer, partial):
        return [buffer[0] - partial[0], buffer[1] - partial[1]]

    def finish(self, buffer):
        return buffer[0] if buffer[1] else None

    def partial_arrays(self, batch, codes, num_groups, rows=None):
        values = np.asarray(self._values(batch))
        mask = _valid_mask(values)
        if not mask.all():
            values, codes, rows = values[mask], codes[mask], None
        if values.dtype.kind in "iu":
            totals = _integer_sums(values, codes, num_groups)
        else:
            totals = np.bincount(codes, weights=values.astype(np.float64),
                                 minlength=num_groups)
        if rows is None:
            rows = np.bincount(codes, minlength=num_groups)
        return [totals, rows]

    def buffers_from_arrays(self, arrays):
        return [[t, c] for t, c in zip(*(a.tolist() for a in arrays))]


class Avg(AggregateFunction):
    """Arithmetic mean, maintained as (sum, count)."""

    func_name = "avg"
    supports_retract = True
    additive = True

    def data_type(self, schema: StructType) -> DataType:
        ct = self.child.data_type(schema)
        if not isinstance(ct, T.NumericType):
            raise AnalysisError(f"avg() requires a numeric column, got {ct}")
        return T.DOUBLE

    def init(self):
        return [0.0, 0]

    def update(self, buffer, value):
        if value is None:
            return buffer
        return [buffer[0] + value, buffer[1] + 1]

    def merge(self, left, right):
        return [left[0] + right[0], left[1] + right[1]]

    def retract(self, buffer, partial):
        return [buffer[0] - partial[0], buffer[1] - partial[1]]

    def finish(self, buffer):
        return buffer[0] / buffer[1] if buffer[1] else None

    def partial_arrays(self, batch, codes, num_groups, rows=None):
        values = np.asarray(self._values(batch), dtype=np.float64)
        mask = _valid_mask(values)
        if not mask.all():
            values, codes, rows = values[mask], codes[mask], None
        if rows is None:
            rows = np.bincount(codes, minlength=num_groups)
        return [np.bincount(codes, weights=values, minlength=num_groups),
                rows]

    def buffers_from_arrays(self, arrays):
        return [[t, c] for t, c in zip(*(a.tolist() for a in arrays))]


class _Extremum(AggregateFunction):
    """Shared implementation for Min and Max."""

    _better = staticmethod(min)

    def data_type(self, schema: StructType) -> DataType:
        return self.child.data_type(schema)

    def init(self):
        return None

    def update(self, buffer, value):
        if value is None:
            return buffer
        if buffer is None:
            return value
        return self._better(buffer, value)

    def merge(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return self._better(left, right)

    def finish(self, buffer):
        return buffer

    def batch_partials(self, batch, codes, num_groups):
        values = self._values(batch)
        partials = [None] * num_groups
        if values.dtype == object:
            better = self._better
            for code, value in zip(codes.tolist(), values.tolist()):
                if value is None:
                    continue
                current = partials[code]
                partials[code] = value if current is None else better(current, value)
            return partials
        mask = _valid_mask(values)
        if not mask.all():
            values, codes = values[mask], codes[mask]
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        sorted_values = values[order]
        boundaries = np.nonzero(np.diff(sorted_codes))[0] + 1
        starts = np.concatenate(([0], boundaries))
        reducer = np.minimum if self._better is min else np.maximum
        if len(sorted_values):
            group_values = reducer.reduceat(sorted_values, starts)
            group_codes = sorted_codes[starts]
            for code, value in zip(group_codes.tolist(), group_values.tolist()):
                partials[code] = value
        return partials


class Min(_Extremum):
    """Minimum value; null-skipping."""

    func_name = "min"
    _better = staticmethod(min)


class Max(_Extremum):
    """Maximum value; null-skipping."""

    func_name = "max"
    _better = staticmethod(max)


class First(AggregateFunction):
    """First non-null value seen for the group (arrival order)."""

    func_name = "first"

    def data_type(self, schema: StructType) -> DataType:
        return self.child.data_type(schema)

    def init(self):
        return [False, None]  # [seen, value]

    def update(self, buffer, value):
        if buffer[0] or value is None:
            return buffer
        return [True, value]

    def merge(self, left, right):
        return left if left[0] else right

    def finish(self, buffer):
        return buffer[1]

    def batch_partials(self, batch, codes, num_groups):
        values = self._values(batch)
        partials = [[False, None] for _ in range(num_groups)]
        for code, value in zip(codes.tolist(), values.tolist()):
            slot = partials[code]
            if not slot[0] and value is not None:
                slot[0] = True
                slot[1] = value
        return partials


class Last(AggregateFunction):
    """Last non-null value seen for the group (arrival order)."""

    func_name = "last"

    def data_type(self, schema: StructType) -> DataType:
        return self.child.data_type(schema)

    def init(self):
        return [False, None]

    def update(self, buffer, value):
        if value is None:
            return buffer
        return [True, value]

    def merge(self, left, right):
        return right if right[0] else left

    def finish(self, buffer):
        return buffer[1]

    def batch_partials(self, batch, codes, num_groups):
        values = self._values(batch)
        partials = [[False, None] for _ in range(num_groups)]
        for code, value in zip(codes.tolist(), values.tolist()):
            if value is not None:
                partials[code] = [True, value]
        return partials


class CountDistinct(AggregateFunction):
    """Exact distinct count, maintained as a sorted value list.

    State grows with distinct values — the same caveat Spark's exact
    count-distinct has in streaming.
    """

    func_name = "count_distinct"

    def data_type(self, schema: StructType) -> DataType:
        self.child.data_type(schema)
        return T.LONG

    def init(self):
        return []

    def update(self, buffer, value):
        if value is None or value in buffer:
            return buffer
        return sorted(buffer + [value])

    def merge(self, left, right):
        return sorted(set(left) | set(right))

    def finish(self, buffer):
        return len(buffer)

    def batch_partials(self, batch, codes, num_groups):
        values = self._values(batch)
        partials = [set() for _ in range(num_groups)]
        for code, value in zip(codes.tolist(), values.tolist()):
            if value is not None:
                partials[code].add(value)
        return [sorted(p) for p in partials]


class ApproxCountDistinct(AggregateFunction):
    """Approximate distinct count with *bounded* state (HyperLogLog).

    Unlike :class:`CountDistinct`, the per-group buffer is a fixed-size
    sketch, so streaming state stays bounded no matter how many distinct
    values arrive — the state-size concern of §4.3.1 solved by sketching
    instead of watermarking.
    """

    func_name = "approx_count_distinct"

    def __init__(self, child: Expression = None, precision: int = 12):
        super().__init__(child)
        self.precision = precision

    def data_type(self, schema: StructType) -> DataType:
        self.child.data_type(schema)
        return T.LONG

    def _sketch(self, registers=None):
        from repro.sql.hll import HyperLogLog

        return HyperLogLog(self.precision, registers)

    def init(self):
        return self._sketch().to_json()

    def update(self, buffer, value):
        if value is None:
            return buffer
        sketch = self._sketch(buffer)
        sketch.add(value)
        return sketch.to_json()

    def merge(self, left, right):
        return self._sketch(left).merge(self._sketch(right)).to_json()

    def finish(self, buffer):
        return self._sketch(buffer).cardinality()

    def batch_partials(self, batch, codes, num_groups):
        from repro.sql.hll import HyperLogLog

        values = self._values(batch)
        sketches = [None] * num_groups
        for code, value in zip(codes.tolist(), values.tolist()):
            if value is None:
                continue
            if sketches[code] is None:
                sketches[code] = HyperLogLog(self.precision)
            sketches[code].add(value)
        return [
            (s.to_json() if s is not None else self.init()) for s in sketches
        ]


class CollectSet(AggregateFunction):
    """Distinct values of a column as a sorted list (bounded-state helper)."""

    func_name = "collect_set"

    def data_type(self, schema: StructType) -> DataType:
        self.child.data_type(schema)
        return T.STRING

    def init(self):
        return []

    def update(self, buffer, value):
        if value is None or value in buffer:
            return buffer
        return sorted(buffer + [value])

    def merge(self, left, right):
        return sorted(set(left) | set(right))

    def finish(self, buffer):
        return buffer

    def batch_partials(self, batch, codes, num_groups):
        values = self._values(batch)
        partials = [set() for _ in range(num_groups)]
        for code, value in zip(codes.tolist(), values.tolist()):
            if value is not None:
                partials[code].add(value)
        return [sorted(p) for p in partials]
