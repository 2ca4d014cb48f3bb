"""Unit tests for the aggregate buffer protocol.

The protocol is what makes aggregates incrementally maintainable (§5.2):
``merge(finish)`` over arbitrary partial splits must equal a single-shot
aggregation, and buffers must round-trip through JSON (they live in the
state store).
"""

import json

import numpy as np
import pytest

from repro.sql import expressions as E
from repro.sql.batch import RecordBatch
from repro.sql.expressions import AnalysisError
from repro.sql.types import StructType

SCHEMA = StructType((("k", "long"), ("v", "double"), ("s", "string")))


def batch_of(values, strings=None):
    n = len(values)
    strings = strings if strings is not None else [f"s{i}" for i in range(n)]
    return RecordBatch.from_rows(
        [{"k": 0, "v": v, "s": s} for v, s in zip(values, strings)], SCHEMA
    )


def run_buffer(agg, values):
    buf = agg.init()
    for v in values:
        buf = agg.update(buf, v)
    return agg.finish(buf)


class TestCount:
    def test_count_star_counts_rows(self):
        agg = E.Count(None)
        assert run_buffer(agg, [1, None, 3]) == 3

    def test_count_column_skips_nulls(self):
        agg = E.Count(E.ColumnRef("v"))
        assert run_buffer(agg, [1, None, 3]) == 2

    def test_merge(self):
        agg = E.Count(None)
        assert agg.merge(2, 3) == 5

    def test_batch_partials(self):
        agg = E.Count(None)
        batch = batch_of([1.0, 2.0, 3.0])
        codes = np.array([0, 1, 0])
        assert agg.batch_partials(batch, codes, 2) == [2, 1]

    def test_batch_partials_skip_null_values(self):
        agg = E.Count(E.ColumnRef("s"))
        batch = batch_of([1.0, 2.0], strings=["x", None])
        codes = np.array([0, 0])
        assert agg.batch_partials(batch, codes, 1) == [1]

    def test_result_type(self):
        assert E.Count(None).data_type(SCHEMA).simple_name == "long"


class TestSum:
    def test_simple(self):
        assert run_buffer(E.Sum(E.ColumnRef("v")), [1, 2, 3.5]) == 6.5

    def test_empty_group_is_null(self):
        assert run_buffer(E.Sum(E.ColumnRef("v")), []) is None
        assert run_buffer(E.Sum(E.ColumnRef("v")), [None]) is None

    def test_merge_associative(self):
        agg = E.Sum(E.ColumnRef("v"))
        left = agg.update(agg.init(), 2)
        right = agg.update(agg.init(), 3)
        assert agg.finish(agg.merge(left, right)) == 5

    def test_int_sum_type(self):
        schema = StructType((("v", "long"),))
        assert E.Sum(E.ColumnRef("v")).data_type(schema).simple_name == "long"

    def test_double_sum_type(self):
        assert E.Sum(E.ColumnRef("v")).data_type(SCHEMA).simple_name == "double"

    def test_batch_partials_with_nan(self):
        agg = E.Sum(E.ColumnRef("v"))
        batch = RecordBatch.from_columns(
            SCHEMA, k=np.zeros(3, dtype=np.int64),
            v=np.array([1.0, np.nan, 2.0]),
            s=np.array(["a", "b", "c"], dtype=object),
        )
        partials = agg.batch_partials(batch, np.array([0, 0, 0]), 1)
        assert agg.finish(partials[0]) == 3.0

    def test_non_numeric_rejected(self):
        with pytest.raises(AnalysisError):
            E.Sum(E.ColumnRef("s")).data_type(SCHEMA)

    @pytest.mark.parametrize("values", [
        [2**53, 1],                 # past a double's integers
        [2**62, 3],
        [2**62, 2**62 + 1, -2**62],  # a running sum past int64
        [-2**63, 2**63 - 1, 5],
        list(range(-3, 40)),        # the float-exact fast path
    ])
    def test_long_sum_is_exact_in_batch_and_streaming(self, values):
        """Integral input sums in integers, never through doubles: the
        batch kernel and the streaming fold share it."""
        from repro.sql import functions as F
        from repro.sql.session import Session
        from tests.conftest import make_stream, start_memory_query

        schema = StructType((("k", "long"), ("v", "long")))
        rows = [{"k": 1, "v": v} for v in values]
        batch = Session().create_dataframe(rows, schema) \
            .group_by("k").agg(F.sum("v").alias("s")).collect()
        assert [r["s"] for r in batch] == [sum(values)]
        stream = make_stream((("k", "long"), ("v", "long")))
        query = start_memory_query(
            Session().read_stream.memory(stream).group_by("k")
            .agg(F.sum("v").alias("s")), "complete", "exact_sum")
        for epoch in (rows, [{"k": 1, "v": -1}]):  # and across epochs
            stream.add_data(epoch)
            query.process_all_available()
        assert [r["s"] for r in query.engine.sink.rows()] == [sum(values) - 1]
        query.stop()

    def test_integer_partials_stay_integers(self):
        schema = StructType((("v", "long"),))
        batch = RecordBatch.from_columns(
            schema, v=np.array([2**62, 2**62, 7], dtype=np.int64))
        partials = E.Sum(E.ColumnRef("v")).batch_partials(
            batch, np.array([0, 0, 1]), 2)
        assert partials == [[2**63, 2], [7, 1]]
        assert all(type(total) is int for total, _count in partials)


class TestAvg:
    def test_simple(self):
        assert run_buffer(E.Avg(E.ColumnRef("v")), [1, 2, 3]) == 2.0

    def test_nulls_ignored(self):
        assert run_buffer(E.Avg(E.ColumnRef("v")), [2, None, 4]) == 3.0

    def test_empty_is_null(self):
        assert run_buffer(E.Avg(E.ColumnRef("v")), []) is None

    def test_merge(self):
        agg = E.Avg(E.ColumnRef("v"))
        left = [6.0, 2]
        right = [4.0, 2]
        assert agg.finish(agg.merge(left, right)) == 2.5

    def test_batch_partials(self):
        agg = E.Avg(E.ColumnRef("v"))
        batch = batch_of([2.0, 4.0, 9.0])
        partials = agg.batch_partials(batch, np.array([0, 0, 1]), 2)
        assert agg.finish(partials[0]) == 3.0
        assert agg.finish(partials[1]) == 9.0


class TestMinMax:
    def test_min(self):
        assert run_buffer(E.Min(E.ColumnRef("v")), [3, 1, 2]) == 1

    def test_max(self):
        assert run_buffer(E.Max(E.ColumnRef("v")), [3, 1, 2]) == 3

    def test_empty_is_null(self):
        assert run_buffer(E.Min(E.ColumnRef("v")), []) is None

    def test_nulls_skipped(self):
        assert run_buffer(E.Min(E.ColumnRef("v")), [None, 5, None]) == 5

    def test_merge_with_none_sides(self):
        agg = E.Max(E.ColumnRef("v"))
        assert agg.merge(None, 3) == 3
        assert agg.merge(3, None) == 3
        assert agg.merge(2, 3) == 3

    def test_batch_partials_numeric(self):
        agg = E.Min(E.ColumnRef("v"))
        batch = batch_of([5.0, 1.0, 3.0, 2.0])
        partials = agg.batch_partials(batch, np.array([0, 0, 1, 1]), 2)
        assert partials == [1.0, 2.0]

    def test_batch_partials_strings(self):
        agg = E.Max(E.ColumnRef("s"))
        batch = batch_of([0.0, 0.0, 0.0], strings=["b", "c", "a"])
        partials = agg.batch_partials(batch, np.array([0, 0, 1]), 2)
        assert partials == ["c", "a"]

    def test_batch_partials_group_without_values(self):
        agg = E.Min(E.ColumnRef("v"))
        batch = batch_of([1.0])
        partials = agg.batch_partials(batch, np.array([1]), 2)
        assert partials[0] is None
        assert partials[1] == 1.0

    def test_result_type_follows_input(self):
        assert E.Min(E.ColumnRef("s")).data_type(SCHEMA).simple_name == "string"
        assert E.Max(E.ColumnRef("v")).data_type(SCHEMA).simple_name == "double"


class TestCollectSet:
    def test_distinct_sorted(self):
        assert run_buffer(E.CollectSet(E.ColumnRef("s")), ["b", "a", "b"]) == ["a", "b"]

    def test_merge_unions(self):
        agg = E.CollectSet(E.ColumnRef("s"))
        assert agg.merge(["a"], ["b", "a"]) == ["a", "b"]

    def test_batch_partials(self):
        agg = E.CollectSet(E.ColumnRef("s"))
        batch = batch_of([0.0, 0.0, 0.0], strings=["x", "y", "x"])
        assert agg.batch_partials(batch, np.array([0, 0, 0]), 1) == [["x", "y"]]


class TestJsonSerializableBuffers:
    """Buffers live in the JSON state store: they must round-trip."""

    @pytest.mark.parametrize("agg,values", [
        (E.Count(None), [1, 2]),
        (E.Sum(E.ColumnRef("v")), [1.5, 2.5]),
        (E.Avg(E.ColumnRef("v")), [1.0, 3.0]),
        (E.Min(E.ColumnRef("v")), [4.0, 2.0]),
        (E.Max(E.ColumnRef("s")), ["a", "b"]),
        (E.CollectSet(E.ColumnRef("s")), ["a", "b", "a"]),
    ])
    def test_roundtrip(self, agg, values):
        buf = agg.init()
        for v in values:
            buf = agg.update(buf, v)
        restored = json.loads(json.dumps(buf))
        assert agg.finish(restored) == agg.finish(buf)


class TestPartialSplitEquivalence:
    """merge(partials of any split) == single-shot aggregation."""

    @pytest.mark.parametrize("agg_factory", [
        lambda: E.Count(None),
        lambda: E.Sum(E.ColumnRef("v")),
        lambda: E.Avg(E.ColumnRef("v")),
        lambda: E.Min(E.ColumnRef("v")),
        lambda: E.Max(E.ColumnRef("v")),
    ])
    @pytest.mark.parametrize("split", [1, 2, 3, 7])
    def test_split_equivalence(self, agg_factory, split):
        values = [5.0, 1.0, 4.0, 4.0, 2.0, 8.0, 0.5]
        agg = agg_factory()
        expected = run_buffer(agg, values)
        merged = agg.init()
        for i in range(0, len(values), split):
            chunk = values[i:i + split]
            partial = agg.init()
            for v in chunk:
                partial = agg.update(partial, v)
            merged = agg.merge(merged, partial)
        assert agg.finish(merged) == expected
