"""Unit tests for the join kernels (repro.sql.joins).

The vectorized unique-build-side fast path and the general hash path
must produce identical results — both are exercised explicitly.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.sql import logical as L
from repro.sql.batch import RecordBatch
from repro.sql.joins import UniqueKeyIndex, execute_join, hash_join, join_indices
from repro.sql.types import StructType
from repro.streaming import operators as ops

LEFT_SCHEMA = StructType((("k", "long"), ("lv", "string")))
RIGHT_SCHEMA = StructType((("k", "long"), ("rv", "double")))


def left_batch(rows):
    return RecordBatch.from_rows(rows, LEFT_SCHEMA)


def right_batch(rows):
    return RecordBatch.from_rows(rows, RIGHT_SCHEMA)


LEFT = left_batch([
    {"k": 1, "lv": "a"}, {"k": 2, "lv": "b"}, {"k": 3, "lv": "c"}, {"k": 1, "lv": "d"},
])
RIGHT_UNIQUE = right_batch([{"k": 1, "rv": 1.0}, {"k": 3, "rv": 3.0}, {"k": 9, "rv": 9.0}])
RIGHT_DUPED = right_batch([{"k": 1, "rv": 1.0}, {"k": 1, "rv": 1.5}, {"k": 3, "rv": 3.0}])


def pairs(left, right, on, how):
    li, ri, lu, ru = join_indices(left, right, on, how)
    if li is None:  # every left row matched once, in order
        li = np.arange(left.num_rows)
    return sorted(zip(li.tolist(), ri.tolist())), sorted(lu.tolist()), sorted(ru.tolist())


class TestInner:
    def test_unique_build_side(self):
        matched, lu, ru = pairs(LEFT, RIGHT_UNIQUE, ["k"], "inner")
        assert matched == [(0, 0), (2, 1), (3, 0)]
        assert lu == [] and ru == []

    def test_duplicate_build_side(self):
        matched, _, _ = pairs(LEFT, RIGHT_DUPED, ["k"], "inner")
        assert matched == [(0, 0), (0, 1), (2, 2), (3, 0), (3, 1)]

    def test_fast_and_hash_paths_agree(self):
        lk = LEFT.columns["k"]
        fast = UniqueKeyIndex.build(RIGHT_UNIQUE, ["k"]).join(lk, "inner", "right")
        slow = hash_join(LEFT, RIGHT_UNIQUE, ["k"], "inner")
        assert sorted(zip(fast[0].tolist(), fast[1].tolist())) == \
            sorted(zip(slow[0].tolist(), slow[1].tolist()))

    def test_empty_left(self):
        matched, _, _ = pairs(left_batch([]), RIGHT_UNIQUE, ["k"], "inner")
        assert matched == []

    def test_empty_right_uses_hash_path(self):
        matched, _, _ = pairs(LEFT, right_batch([]), ["k"], "inner")
        assert matched == []


class TestOuter:
    def test_left_outer_unmatched(self):
        matched, lu, ru = pairs(LEFT, RIGHT_UNIQUE, ["k"], "left_outer")
        assert lu == [1]  # k=2 has no match
        assert ru == []

    def test_right_outer_unmatched(self):
        matched, lu, ru = pairs(LEFT, RIGHT_UNIQUE, ["k"], "right_outer")
        assert lu == []
        assert ru == [2]  # k=9 has no match

    def test_left_outer_null_padding(self):
        out = execute_join(LEFT, RIGHT_UNIQUE, ["k"], "left_outer")
        rows = {(r["k"], r["lv"]): r["rv"] for r in out.to_rows()}
        assert rows[(2, "b")] is None
        assert rows[(1, "a")] == 1.0

    def test_right_outer_null_padding(self):
        out = execute_join(LEFT, RIGHT_UNIQUE, ["k"], "right_outer")
        by_k = {}
        for r in out.to_rows():
            by_k.setdefault(r["k"], []).append(r)
        assert by_k[9][0]["lv"] is None
        assert by_k[9][0]["rv"] == 9.0

    def test_left_outer_on_duplicate_build(self):
        out = execute_join(LEFT, RIGHT_DUPED, ["k"], "left_outer")
        assert out.num_rows == 6  # 5 matches + 1 unmatched left


class TestOutputAssembly:
    def test_join_key_appears_once(self):
        out = execute_join(LEFT, RIGHT_UNIQUE, ["k"], "inner")
        assert out.schema.names == ["k", "lv", "rv"]

    def test_composite_key(self):
        ls = StructType((("a", "long"), ("b", "string"), ("x", "long")))
        rs = StructType((("a", "long"), ("b", "string"), ("y", "long")))
        left = RecordBatch.from_rows(
            [{"a": 1, "b": "p", "x": 10}, {"a": 1, "b": "q", "x": 11}], ls)
        right = RecordBatch.from_rows([{"a": 1, "b": "p", "y": 20}], rs)
        out = execute_join(left, right, ["a", "b"], "inner")
        assert out.to_rows() == [{"a": 1, "b": "p", "x": 10, "y": 20}]

    def test_string_keys_take_hash_path(self):
        ls = StructType((("k", "string"), ("x", "long")))
        rs = StructType((("k", "string"), ("y", "long")))
        left = RecordBatch.from_rows([{"k": "a", "x": 1}, {"k": "b", "x": 2}], ls)
        right = RecordBatch.from_rows([{"k": "a", "y": 9}], rs)
        out = execute_join(left, right, ["k"], "inner")
        assert out.to_rows() == [{"k": "a", "x": 1, "y": 9}]

    def test_outer_promotes_int_to_nullable_double(self):
        ls = StructType((("k", "long"), ("x", "long")))
        rs = StructType((("k", "long"), ("y", "long")))
        left = RecordBatch.from_rows([{"k": 1, "x": 1}, {"k": 2, "x": 2}], ls)
        right = RecordBatch.from_rows([{"k": 1, "y": 5}], rs)
        out = execute_join(left, right, ["k"], "left_outer")
        y_by_k = {r["k"]: r["y"] for r in out.to_rows()}
        assert y_by_k[1] == 5.0
        assert y_by_k[2] is None


# ---------------------------------------------------------------------------
# Index path vs a nested-loop oracle, row order included
# ---------------------------------------------------------------------------

_KEY_POOLS = {
    "dense": ("long", st.integers(-6, 6)),
    "sparse": ("long", st.integers(-6, 6).map(lambda k: k * 1_000_003)),
    "int64_low": ("long", st.integers(-2**63, -2**63 + 6)),
    "int64_high": ("long", st.integers(2**63 - 7, 2**63 - 1)),
    "int64_both": ("long", st.sampled_from([-2**63, -1, 0, 2**63 - 1])),
    "double_nan": ("double", st.sampled_from([float("nan"), -1.0, 2.5, 7.0])),
}


@st.composite
def join_sides(draw):
    """``(stream rows, static rows, key type)``: static keys unique or not."""
    key_type, keys = _KEY_POOLS[draw(st.sampled_from(sorted(_KEY_POOLS)))]
    stream = draw(st.lists(keys, max_size=12))
    static = draw(st.lists(keys, max_size=8, unique=draw(st.booleans())))
    return stream, static, key_type


def _side(keys, key_type, value_column, value):
    schema = StructType((("k", key_type), (value_column,
                         "string" if value_column == "lv" else "double")))
    return RecordBatch.from_rows(
        [{"k": k, value_column: value(i)} for i, k in enumerate(keys)], schema)


def nested_loop_join(left: RecordBatch, right: RecordBatch, how: str) -> list:
    """Reference rows: matched pairs in (left row, right row) order, then
    the outer side's unmatched rows in row order; NaN matches nothing."""
    lrows, rrows = left.to_rows(), right.to_rows()
    out, left_hit, right_hit = [], set(), set()
    for i, lrow in enumerate(lrows):
        for j, rrow in enumerate(rrows):
            if lrow["k"] is not None and lrow["k"] == rrow["k"]:
                out.append({"k": lrow["k"], "lv": lrow["lv"], "rv": rrow["rv"]})
                left_hit.add(i)
                right_hit.add(j)
    if how == "left_outer":
        out += [{"k": r["k"], "lv": r["lv"], "rv": None}
                for i, r in enumerate(lrows) if i not in left_hit]
    if how == "right_outer":
        out += [{"k": r["k"], "lv": None, "rv": r["rv"]}
                for j, r in enumerate(rrows) if j not in right_hit]
    return out


def _static_join_op(stream: RecordBatch, static: RecordBatch, how: str,
                    stream_is_left: bool):
    static_plan = L.Scan(static.schema, _Provider(static), False)
    stream_plan = ops.make_placeholder(stream.schema)
    left, right = ((stream_plan, static_plan) if stream_is_left
                   else (static_plan, stream_plan))
    return ops.StreamStaticJoinOp(
        L.Join(left, right, ["k"], how),
        ops.StreamScanOp("stream", stream.schema), ops.StaticOp(static_plan),
        stream_is_left=stream_is_left)


class _Provider:
    def __init__(self, batch):
        self._batch = batch

    def read_batches(self):
        return [self._batch]


def _rows(batch: RecordBatch) -> list:
    return [{n: row[n] for n in ("k", "lv", "rv")} for row in batch.to_rows()]


@given(join_sides(), st.sampled_from(["inner", "left_outer", "right_outer"]))
@example(([1, 5, 1, 9], [1, 9, 4], "long"), "left_outer")
@example(([2**63 - 1, -2**63], [-2**63, 2**63 - 1], "long"), "right_outer")
@example(([3, 3], [3, 3, 4], "long"), "inner")
@example(([float("nan"), 2.5], [2.5, float("nan")], "double"), "right_outer")
@example(([], [1, 2], "long"), "right_outer")
@example(([1, 2], [], "long"), "left_outer")
def test_joins_equal_the_nested_loop_oracle(sides, how):
    stream_keys, static_keys, key_type = sides
    for stream_is_left in (True, False):
        stream = _side(stream_keys, key_type, *(
            ("lv", lambda i: f"s{i}") if stream_is_left
            else ("rv", lambda i: i + 0.5)))
        static = _side(static_keys, key_type, *(
            ("rv", lambda i: i + 0.5) if stream_is_left
            else ("lv", lambda i: f"t{i}")))
        left, right = (stream, static) if stream_is_left else (static, stream)
        expected = nested_loop_join(left, right, how)
        # The streaming operator (static side indexed once) ...
        op = _static_join_op(stream, static, how, stream_is_left)
        got = op.join_delta(stream)
        assert _rows(got) == (expected if stream.num_rows else [])
        # ... and the batch kernel (right side indexed per call).
        assert _rows(execute_join(left, right, ["k"], how)) == expected


class TestUniqueKeyIndex:
    @pytest.mark.parametrize("keys, dtype", [
        ([1, 2, 1], np.int64),              # duplicate
        ([1.0, float("nan")], np.float64),  # NaN
        (["a", "b"], object),               # object
    ])
    def test_declines_keys_the_hash_path_serves(self, keys, dtype):
        batch = RecordBatch(
            {"k": np.array(keys, dtype=dtype)}, StructType((("k", "long"),)))
        assert UniqueKeyIndex.build(batch, ["k"]) is None

    def test_dense_and_sorted_lookups_agree(self):
        keys = np.array([40, -3, 7, 12], dtype=np.int64)
        dense = UniqueKeyIndex(keys, np.argsort(keys, kind="stable"))
        probe = np.array([7, 41, -3, -4, 12, 40], dtype=np.int64)
        assert dense.lookup(probe).tolist() == [2, -1, 1, -1, 3, 0]
        assert dense.lookup(probe.astype(np.float64)).tolist() == \
            [2, -1, 1, -1, 3, 0]
