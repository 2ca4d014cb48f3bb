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
#: which (unlike the structured oracle) merges NaNs.  No zeros: the
#: sorting encoders already disagree on how -0.0 and 0.0 group.
_FLOATS = st.sampled_from([float("nan"), -2.5, 1.5, 3.0])


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
        keys = np.array([1, 1, 1])
        index = np.array([-0.0, 0.0, -0.0])
        codes, uniques = encode_groups([keys, index], window_slide=10.0)
        assert codes.tolist() == [0, 1, 0]
        assert repr(uniques) == "[(1, -0.0), (1, 0.0)]"
