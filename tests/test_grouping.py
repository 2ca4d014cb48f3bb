"""Unit tests for group encoding (repro.sql.grouping)."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.sql.grouping import _encode_dense, _encode_structured, encode_groups


class TestSingleNumericKey:
    def test_codes_and_uniques(self):
        codes, uniques = encode_groups([np.array([5, 3, 5, 7])])
        assert len(uniques) == 3
        decoded = [uniques[c] for c in codes]
        assert decoded == [(5,), (3,), (5,), (7,)]

    def test_float_keys(self):
        codes, uniques = encode_groups([np.array([1.5, 1.5, 2.5])])
        assert len(uniques) == 2
        assert codes[0] == codes[1] != codes[2]


class TestMultipleNumericKeys:
    def test_composite_keys(self):
        a = np.array([1, 1, 2, 1])
        b = np.array([10.0, 20.0, 10.0, 10.0])
        codes, uniques = encode_groups([a, b])
        assert len(uniques) == 3
        assert codes[0] == codes[3]
        assert codes[0] != codes[1] != codes[2]

    def test_unique_tuples_match_rows(self):
        a = np.array([7, 8])
        b = np.array([1.0, 2.0])
        codes, uniques = encode_groups([a, b])
        assert set(uniques) == {(7, 1.0), (8, 2.0)}


class TestObjectKeys:
    def test_string_keys(self):
        codes, uniques = encode_groups([np.array(["x", "y", "x"], dtype=object)])
        assert [uniques[c] for c in codes] == [("x",), ("y",), ("x",)]

    def test_mixed_string_numeric(self):
        s = np.array(["a", "a", "b"], dtype=object)
        n = np.array([1, 2, 1])
        codes, uniques = encode_groups([s, n])
        assert len(uniques) == 3
        assert uniques[codes[0]] == ("a", 1)

    def test_first_seen_order_for_object_path(self):
        codes, uniques = encode_groups([np.array(["z", "a", "z"], dtype=object)])
        assert uniques == [("z",), ("a",)]


class TestEdgeCases:
    def test_empty_input(self):
        codes, uniques = encode_groups([np.empty(0, dtype=np.int64)])
        assert len(codes) == 0
        assert uniques == []

    def test_no_arrays_raises(self):
        with pytest.raises(ValueError):
            encode_groups([])

    def test_codes_are_dense(self):
        codes, uniques = encode_groups([np.array([100, 200, 100, 300])])
        assert set(codes.tolist()) == {0, 1, 2}
        assert len(uniques) == 3


# ---------------------------------------------------------------------------
# Dense path: exactly the codes and key tuples of the sorting encoder
# ---------------------------------------------------------------------------

_INT_POOLS = {
    "small": (np.int64, st.integers(-6, 6)),
    "wide": (np.int64, st.integers(-2**62, 2**62)),
    "int64": (np.int64, st.sampled_from(
        [-2**63, -2**63 + 1, -1, 0, 2**63 - 2, 2**63 - 1])),
    "int64_high": (np.int64, st.integers(2**63 - 6, 2**63 - 1)),
    "uint64_max": (np.uint64, st.integers(2**64 - 6, 2**64 - 1)),
    "bool": (np.bool_, st.booleans()),
}
#: Only beside another key: a lone float column takes ``np.unique``,
#: which (unlike the structured oracle) merges NaNs.  -0.0 and 0.0 are
#: one group on every path (the row hash folds the sign).
_FLOATS = st.sampled_from([float("nan"), -2.5, 1.5, 3.0, 0.0, -0.0])


@st.composite
def key_columns(draw):
    """``(key arrays, window index or None, slide)`` over ``n`` rows."""
    n = draw(st.integers(1, 25))
    columns = []
    for _ in range(draw(st.integers(0, 3))):
        kinds = list(_INT_POOLS) + (["float"] if columns else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "float":
            columns.append(np.array(
                draw(st.lists(_FLOATS, min_size=n, max_size=n))))
        else:
            dtype, values = _INT_POOLS[kind]
            columns.append(np.array(
                draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype))
    slide = draw(st.sampled_from([0.1, 1.0, 2.5, 10.0]))
    index = None
    if not columns or draw(st.booleans()):
        base = draw(st.sampled_from([0, -3, 2**52 - 4, -2**52 + 1, 10**6]))
        index = np.array(
            draw(st.lists(st.integers(base, base + 5), min_size=n, max_size=n)),
            dtype=np.float64)
    return columns, index, slide


@given(key_columns())
@example(([np.array([5, 3, 5, 7])], None, 1.0))
@example(([np.array([2**64 - 1, 0], dtype=np.uint64)], None, 1.0))
@example(([np.array([-1, 2**62]), np.array([0, -(2**62)])], None, 1.0))
@example(([np.array([1, 1, 2]), np.array([np.nan, np.nan, 1.5])], None, 1.0))
@example(([np.array([3, 1, 3])], np.array([4.0, -2.0, 4.0]), 0.1))
def test_encoder_equals_the_structured_oracle(case):
    columns, index, slide = case
    if index is None:
        codes, uniques = encode_groups(columns)
        oracle = _encode_structured(columns, len(columns[0]))
    else:
        codes, uniques = encode_groups(columns + [index], window_slide=slide)
        oracle = _encode_structured(columns + [index * slide], len(index))
    assert codes.tolist() == oracle[0].tolist()
    assert [tuple(map(_typed, key)) for key in uniques] == \
        [tuple(map(_typed, key)) for key in oracle[1]]


def _typed(value):
    """A key value with its type; NaN made comparable."""
    return type(value), "nan" if value != value else value


class TestDensePath:
    def test_taken_for_bounded_integers_and_window_indexes(self):
        campaign = np.array([7, 3, 7, 9])
        index = np.array([10.0, 10.0, 11.0, 10.0])
        codes, uniques = _encode_dense([campaign, index], 4, 10.0)
        assert codes.tolist() == [1, 0, 2, 3]
        assert uniques == [(3, 100.0), (7, 100.0), (7, 110.0), (9, 100.0)]

    @pytest.mark.parametrize("arrays, slide", [
        ([np.array([0, 2**40]), np.array([0, 2**40])], None),  # range product
        ([np.array([0.5, 1.5])], None),                        # float key
        ([np.array([1.0, np.nan])], 10.0),                     # NaN index
        ([np.array([2.0**53, 1.0])], 10.0),                    # inexact index
        ([np.array([-0.0, 1.0])], 10.0),                       # signed zero
    ])
    def test_declined_where_only_the_sorting_path_is_exact(self, arrays, slide):
        assert _encode_dense(arrays, len(arrays[0]), slide) is None

    def test_signed_zero_window_groups_as_its_starts_do(self):
        # -0.0 and 0.0 starts are one value, one state key and one hash:
        # one group, whichever sign came first.
        keys = np.array([1, 1, 1])
        index = np.array([-0.0, 0.0, -0.0])
        codes, uniques = encode_groups([keys, index], window_slide=10.0)
        assert codes.tolist() == [0, 0, 0]
        assert repr(uniques) == "[(1, -0.0)]"


class TestPartialTable:
    """Partials merged part by part equal one pass over the rows."""

    @staticmethod
    def _fold(parts, aggregates, key_fn=None):
        from repro.sql.batch import RecordBatch
        from repro.sql.grouping import PartialTable
        from repro.sql.types import StructType

        schema = StructType((("k", "double"), ("v", "long")))
        table = PartialTable(aggregates, count_rows=True, key_fn=key_fn)
        for rows in parts:
            batch = RecordBatch.from_rows(
                [{"k": k, "v": v} for k, v in rows], schema)
            codes, uniques = encode_groups([batch.columns["k"]])
            table.add(batch, codes, uniques)
        return dict(zip(table.keys, zip(table.counts().tolist(),
                                        *table.buffers())))

    def test_integer_sums_stay_exact_past_int64_across_parts(self):
        # 1 100 parts of 2 x (2**52 - 1): each int64 partial is exact,
        # their total passes 2**62 and, past 1 024 parts, int64 itself.
        from repro.sql import expressions as E

        value = 2**52 - 1
        parts = [[(1.0, value), (1.0, value)] for _ in range(1100)]
        [(_rows, total)] = self._fold(
            parts, [E.Sum(E.ColumnRef("v"))]).values()
        assert total == [2 * 1100 * value, 2200]

    def test_first_and_last_follow_part_order(self):
        from repro.sql import expressions as E

        got = self._fold(
            [[(1.0, 1), (2.0, 5)], [(1.0, 2)], [(2.0, 6), (1.0, 3)]],
            [E.First(E.ColumnRef("v")), E.Last(E.ColumnRef("v"))])
        assert got == {(1.0,): (3, [True, 1], [True, 3]),
                       (2.0,): (2, [True, 5], [True, 6])}

    def test_null_keys_of_several_parts_are_one_group(self):
        from repro.sql import expressions as E
        from repro.sql.grouping import shared_nan

        parts = [[(None, 1), (2.0, 1)], [(None, 4)], [(None, 5), (2.0, 2)]]
        got = self._fold(parts, [E.Count(None)], key_fn=shared_nan)
        counts = sorted((rows, n) for rows, n in got.values())
        assert counts == [(2, 2), (3, 3)]
