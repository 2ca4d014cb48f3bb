"""Unit tests for the expression AST: the evaluator and its oracle.

Every expression must agree between its vectorized batch path (the only
one the engine runs, bound once per plan by ``E.bind``) and its
interpreted row path (the reference) — that equivalence is itself a key
invariant, checked by ``assert_both_paths``.
"""

import math
import warnings

import numpy as np
import pytest

from repro.sql import expressions as E
from repro.sql import logical as L
from repro.sql import plancompiler
from repro.sql import types as T
from repro.sql.batch import RecordBatch
from repro.sql.expressions import AnalysisError, parse_duration
from repro.sql.types import StructType

SCHEMA = StructType((
    ("i", "long"), ("x", "double"), ("s", "string"), ("flag", "boolean"),
))

ROWS = [
    {"i": 1, "x": 1.5, "s": "aa", "flag": True},
    {"i": 2, "x": -2.0, "s": "bb", "flag": False},
    {"i": 3, "x": 0.0, "s": None, "flag": True},
]

BATCH = RecordBatch.from_rows(ROWS, SCHEMA)


def assert_both_paths(expr, expected, schema=SCHEMA, batch=BATCH, rows=ROWS):
    """Check eval_batch and eval_row produce ``expected`` per row."""
    expr.data_type(schema)
    got_batch = expr.eval_batch(batch)
    got_rows = [expr.eval_row(r) for r in rows]
    for b, r, e in zip(got_batch.tolist(), got_rows, expected):
        if isinstance(e, float):
            assert b == pytest.approx(e)
            assert r == pytest.approx(e)
        else:
            assert b == e
            assert r == e


class TestParseDuration:
    @pytest.mark.parametrize("text,seconds", [
        ("10 seconds", 10.0), ("10s", 10.0), ("1 sec", 1.0),
        ("5 minutes", 300.0), ("5 min", 300.0), ("2m", 120.0),
        ("1 hour", 3600.0), ("2 hours", 7200.0), ("1h", 3600.0),
        ("250ms", 0.25), ("1 day", 86400.0), ("1.5s", 1.5),
    ])
    def test_strings(self, text, seconds):
        assert parse_duration(text) == seconds

    def test_numbers_pass_through(self):
        assert parse_duration(30) == 30.0
        assert parse_duration(1.5) == 1.5

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            parse_duration("soon")


class TestLeaves:
    def test_column_ref(self):
        assert_both_paths(E.ColumnRef("i"), [1, 2, 3])

    def test_column_ref_unresolved(self):
        with pytest.raises(AnalysisError, match="cannot resolve"):
            E.ColumnRef("zzz").data_type(SCHEMA)

    def test_column_ref_references(self):
        assert E.ColumnRef("i").references() == {"i"}

    def test_literal_int(self):
        assert_both_paths(E.Literal(7), [7, 7, 7])

    def test_literal_string(self):
        assert_both_paths(E.Literal("k"), ["k", "k", "k"])

    def test_literal_type_inference(self):
        assert E.Literal(True).data_type(SCHEMA) == T.BOOLEAN
        assert E.Literal(1.5).data_type(SCHEMA) == T.DOUBLE

    def test_alias_transparent(self):
        aliased = E.ColumnRef("i").alias("n")
        assert aliased.output_name == "n"
        assert_both_paths(aliased, [1, 2, 3])


class TestArithmetic:
    def test_add(self):
        assert_both_paths(E.ColumnRef("i") + E.ColumnRef("x"), [2.5, 0.0, 3.0])

    def test_add_literal_coercion(self):
        assert_both_paths(E.ColumnRef("i") + 10, [11, 12, 13])

    def test_radd(self):
        assert_both_paths(1 + E.ColumnRef("i"), [2, 3, 4])

    def test_subtract(self):
        assert_both_paths(E.ColumnRef("i") - 1, [0, 1, 2])

    def test_rsub(self):
        assert_both_paths(10 - E.ColumnRef("i"), [9, 8, 7])

    def test_multiply(self):
        assert_both_paths(E.ColumnRef("i") * 2, [2, 4, 6])

    def test_divide_is_double(self):
        expr = E.ColumnRef("i") / 2
        assert expr.data_type(SCHEMA) == T.DOUBLE
        assert_both_paths(expr, [0.5, 1.0, 1.5])

    def test_mod(self):
        assert_both_paths(E.ColumnRef("i") % 2, [1, 0, 1])

    def test_int_types_stay_integral(self):
        assert (E.ColumnRef("i") + 1).data_type(SCHEMA) == T.LONG

    def test_mixed_widen_to_double(self):
        assert (E.ColumnRef("i") + E.ColumnRef("x")).data_type(SCHEMA) == T.DOUBLE

    def test_string_arithmetic_rejected(self):
        with pytest.raises(AnalysisError, match="numeric"):
            (E.ColumnRef("s") + 1).data_type(SCHEMA)

    def test_null_propagates_in_row_path(self):
        expr = E.ColumnRef("s")
        add = E.Arithmetic(E.Literal(1), E.Literal(None, T.DOUBLE), "+")
        assert add.eval_row({}) is None
        del expr

    def test_divide_by_zero_is_ieee_on_both_paths(self):
        i, x = E.ColumnRef("i"), E.ColumnRef("x")
        assert_both_paths(x / (i - 1), [math.inf, -2.0, 0.0])
        assert_both_paths(x / (1 - i), [math.inf, 2.0, -0.0])
        assert_both_paths((0 - x) / (i - 1), [-math.inf, 2.0, -0.0])
        zero_over_zero = (i - 3) / x
        assert math.isnan(zero_over_zero.eval_row(ROWS[2]))
        assert math.isnan(zero_over_zero.eval_batch(BATCH)[2])
        assert (E.Literal(1) / E.Literal(-0.0)).eval_row({}) == -math.inf


class TestComparison:
    def test_gt(self):
        assert_both_paths(E.ColumnRef("i") > 1, [False, True, True])

    def test_le(self):
        assert_both_paths(E.ColumnRef("x") <= 0, [False, True, True])

    def test_eq_strings(self):
        expr = E.Comparison(E.ColumnRef("s"), E.Literal("aa"), "==")
        assert expr.eval_batch(BATCH).tolist() == [True, False, False]

    def test_ne(self):
        assert_both_paths(E.ColumnRef("i") != 2, [True, False, True])

    @pytest.mark.parametrize("op,expected", [
        ("==", [False, True, False]), ("!=", [True, False, False]),
        ("<", [True, False, False]), ("<=", [True, True, False]),
        (">", [False, False, False]), (">=", [False, True, False]),
    ])
    def test_null_string_is_not_true_under_every_operator(self, op, expected):
        assert_both_paths(
            E.Comparison(E.ColumnRef("s"), E.Literal("bb"), op), expected)

    def test_null_on_the_right_is_not_true_either(self):
        assert_both_paths(E.Literal("bb") > E.ColumnRef("s"),
                          [True, False, False])
        assert_both_paths(E.Literal("bb") != E.ColumnRef("s"),
                          [True, False, False])

    def test_null_equals_null_is_not_true(self):
        s = E.ColumnRef("s")
        assert_both_paths(E.Comparison(s, s, "=="), [True, True, False])
        assert_both_paths(E.Comparison(s, E.Literal(None), "=="),
                          [False, False, False])

    def test_cross_numeric_allowed(self):
        (E.ColumnRef("i") < E.ColumnRef("x")).data_type(SCHEMA)

    def test_string_vs_numeric_rejected(self):
        with pytest.raises(AnalysisError, match="compare"):
            (E.ColumnRef("s") < E.ColumnRef("i")).data_type(SCHEMA)

    def test_result_is_boolean(self):
        assert (E.ColumnRef("i") > 0).data_type(SCHEMA) == T.BOOLEAN


class TestBooleanOps:
    def test_and(self):
        expr = E.ColumnRef("flag") & (E.ColumnRef("i") > 1)
        assert_both_paths(expr, [False, False, True])

    def test_or(self):
        expr = E.ColumnRef("flag") | (E.ColumnRef("i") > 2)
        assert_both_paths(expr, [True, False, True])

    def test_not(self):
        assert_both_paths(~E.ColumnRef("flag"), [False, True, False])

    def test_non_boolean_operand_rejected(self):
        with pytest.raises(AnalysisError):
            (E.ColumnRef("i") & E.ColumnRef("flag")).data_type(SCHEMA)
        with pytest.raises(AnalysisError):
            E.Not(E.ColumnRef("i")).data_type(SCHEMA)


class TestNullChecks:
    def test_is_null_on_strings(self):
        assert_both_paths(E.ColumnRef("s").is_null(), [False, False, True])

    def test_is_not_null(self):
        assert_both_paths(E.ColumnRef("s").is_not_null(), [True, True, False])

    def test_is_null_on_nan_double(self):
        schema = StructType((("x", "double"),))
        batch = RecordBatch.from_columns(schema, x=np.array([1.0, np.nan]))
        expr = E.IsNull(E.ColumnRef("x"))
        assert expr.eval_batch(batch).tolist() == [False, True]
        assert expr.eval_row({"x": float("nan")}) is True

    def test_is_null_on_int_always_false(self):
        assert E.IsNull(E.ColumnRef("i")).eval_batch(BATCH).tolist() == [False] * 3


class TestIn:
    def test_numeric(self):
        assert_both_paths(E.ColumnRef("i").isin([1, 3]), [True, False, True])

    def test_strings(self):
        expr = E.ColumnRef("s").isin(["bb"])
        assert expr.eval_batch(BATCH).tolist() == [False, True, False]


class TestCast:
    def test_int_to_double(self):
        expr = E.ColumnRef("i").cast("double")
        assert expr.data_type(SCHEMA) == T.DOUBLE
        assert_both_paths(expr, [1.0, 2.0, 3.0])

    def test_double_to_long_truncates(self):
        schema = StructType((("x", "double"),))
        batch = RecordBatch.from_columns(schema, x=np.array([1.9, -1.9]))
        expr = E.ColumnRef("x").cast("long")
        assert expr.eval_batch(batch).tolist() == [1, -1]

    def test_to_string(self):
        expr = E.ColumnRef("i").cast("string")
        assert expr.eval_batch(BATCH).tolist() == ["1", "2", "3"]

    def test_string_to_double(self):
        schema = StructType((("s", "string"),))
        batch = RecordBatch.from_rows([{"s": "2.5"}], schema)
        assert E.ColumnRef("s").cast("double").eval_batch(batch).tolist() == [2.5]

    def test_row_path_none(self):
        assert E.Cast(E.ColumnRef("s"), T.DOUBLE).eval_row({"s": None}) is None


class TestCaseWhen:
    def test_basic_branches(self):
        expr = E.CaseWhen(
            [(E.ColumnRef("i") > 2, E.Literal(100)),
             (E.ColumnRef("i") > 1, E.Literal(50))],
            E.Literal(0),
        )
        assert_both_paths(expr, [0, 50, 100])

    def test_first_match_wins(self):
        expr = E.CaseWhen(
            [(E.ColumnRef("flag"), E.Literal(1)),
             (E.ColumnRef("i") > 0, E.Literal(2))],
            E.Literal(3),
        )
        assert_both_paths(expr, [1, 2, 1])

    def test_non_boolean_condition_rejected(self):
        with pytest.raises(AnalysisError):
            E.CaseWhen([(E.ColumnRef("i"), E.Literal(1))]).data_type(SCHEMA)


class TestUdf:
    def test_batch_and_row_agree(self):
        udf = E.Udf(lambda a, b: a * 10 + int(b), [E.ColumnRef("i"), E.ColumnRef("x")], T.LONG)
        assert_both_paths(udf, [11, 18, 30])

    def test_string_returning_udf(self):
        udf = E.Udf(lambda s: (s or "?").upper(), [E.ColumnRef("s")], T.STRING)
        assert udf.eval_batch(BATCH).tolist() == ["AA", "BB", "?"]

    def test_references(self):
        udf = E.Udf(lambda a: a, [E.ColumnRef("i")], T.LONG)
        assert udf.references() == {"i"}


class TestWindowExpr:
    def test_tumbling_assignment(self):
        w = E.WindowExpr(E.ColumnRef("t"), 10.0)
        schema = StructType((("t", "timestamp"),))
        batch = RecordBatch.from_columns(schema, t=np.array([0.0, 9.99, 10.0, 25.0]))
        idx, starts = w.assign_batch(batch)
        assert idx.tolist() == [0, 1, 2, 3]
        assert starts.tolist() == [0.0, 0.0, 10.0, 20.0]

    def test_sliding_assignment_membership_count(self):
        w = E.WindowExpr(E.ColumnRef("t"), 10.0, 5.0)
        assert w.windows_per_record == 2
        schema = StructType((("t", "timestamp"),))
        batch = RecordBatch.from_columns(schema, t=np.array([7.0]))
        idx, starts = w.assign_batch(batch)
        assert sorted(starts.tolist()) == [0.0, 5.0]

    def test_assign_row_matches_assign_batch(self):
        w = E.WindowExpr(E.ColumnRef("t"), 30.0, 10.0)
        schema = StructType((("t", "timestamp"),))
        for t in [0.0, 3.3, 10.0, 29.9, 31.0, 100.5]:
            batch = RecordBatch.from_columns(schema, t=np.array([t]))
            _idx, starts = w.assign_batch(batch)
            assert sorted(starts.tolist()) == sorted(w.assign_row({"t": t}))

    def test_slide_must_not_exceed_duration(self):
        with pytest.raises(ValueError):
            E.WindowExpr(E.ColumnRef("t"), 10.0, 20.0)

    def test_not_evaluable_directly(self):
        w = E.WindowExpr(E.ColumnRef("t"), 10.0)
        with pytest.raises(AnalysisError):
            w.eval_row({"t": 1.0})

    def test_requires_numeric_column(self):
        w = E.WindowExpr(E.ColumnRef("s"), 10.0)
        with pytest.raises(AnalysisError):
            w.data_type(SCHEMA)


class TestBind:
    """The plan-time entry point: type-check once, then pure kernels."""

    def test_alias_is_transparent(self):
        fn = E.bind((E.ColumnRef("i") + 1).alias("j"), SCHEMA)
        assert fn(BATCH).tolist() == [2, 3, 4]

    def test_unresolved_column_fails_at_bind_time(self):
        with pytest.raises(AnalysisError, match="cannot resolve"):
            E.bind(E.ColumnRef("zzz") + 1, SCHEMA)

    def test_type_error_fails_at_bind_time(self):
        with pytest.raises(AnalysisError, match="numeric"):
            E.bind(E.ColumnRef("s") + 1, SCHEMA)

    def test_non_boolean_filter_condition_rejected_at_plan_compile(self):
        scan = L.Scan(SCHEMA, None, False, name="input")
        with pytest.raises(AnalysisError, match="boolean"):
            plancompiler.compile_plan(L.Filter(E.ColumnRef("i") + 1, scan))

    def test_bound_callable_reusable_across_batches(self):
        fn = E.bind(E.ColumnRef("i") * 10, SCHEMA)
        other = RecordBatch.from_rows(
            [{"i": 9, "x": 0.0, "s": "z", "flag": False}], SCHEMA)
        assert fn(BATCH).tolist() == [10, 20, 30]
        assert fn(other).tolist() == [90]

    def test_division_emits_no_numpy_warning(self):
        fn = E.bind(E.ColumnRef("i") / E.ColumnRef("x"), SCHEMA)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fn(BATCH).tolist()[:2] == [pytest.approx(2 / 3), -1.0]

    @pytest.mark.parametrize("expr,expected", [
        (E.ColumnRef("i"), [1, 2, 3]),
        (E.Literal(7), [7, 7, 7]),
        (E.Literal("k"), ["k", "k", "k"]),
        (E.ColumnRef("i") + E.ColumnRef("x"), [2.5, 0.0, 3.0]),
        (E.ColumnRef("i") * 2 - 1, [1, 3, 5]),
        (E.ColumnRef("i") > 1, [False, True, True]),
        ((E.ColumnRef("i") > 1) & E.ColumnRef("flag"), [False, False, True]),
        ((E.ColumnRef("i") > 2) | E.ColumnRef("flag"), [True, False, True]),
        (~E.ColumnRef("flag"), [False, True, False]),
        (E.ColumnRef("i").isin([1, 3]), [True, False, True]),
        (E.ColumnRef("s").isin(["aa"]), [True, False, False]),
    ])
    def test_bound_matches_expected_and_row_oracle(self, expr, expected):
        assert E.bind(expr, SCHEMA)(BATCH).tolist() == expected
        assert [expr.eval_row(r) for r in ROWS] == expected

    def test_null_check_and_cast_bind_like_any_other_node(self):
        # The closure compiler covered 7 node types and fell back for the
        # rest; there is no second tier now.
        assert E.bind(E.IsNull(E.ColumnRef("s")), SCHEMA)(BATCH).tolist() \
            == [False, False, True]
        assert E.bind(E.Cast(E.ColumnRef("i"), T.DOUBLE), SCHEMA)(
            BATCH).dtype == np.float64

    def test_compound_expression_equals_row_oracle(self):
        expr = ((E.ColumnRef("i") * 3 + E.ColumnRef("x")) > 4) & \
            ~E.ColumnRef("s").is_null()
        assert E.bind(expr, SCHEMA)(BATCH).tolist() == \
            [bool(expr.eval_row(r)) for r in ROWS]


class TestExpressionMisc:
    def test_str_forms(self):
        expr = (E.ColumnRef("i") + 1) > 2
        assert "i" in str(expr) and ">" in str(expr)

    def test_hash_is_identity(self):
        a = E.ColumnRef("i")
        assert hash(a) == id(a)

    def test_output_name_defaults(self):
        assert E.ColumnRef("x").output_name == "x"
        assert E.Count(None).output_name == "count"
        assert E.Sum(E.ColumnRef("x")).output_name == "sum(x)"
