"""Unit tests for columnar record batches (repro.sql.batch)."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.sql import batch as batch_module
from repro.sql.batch import RecordBatch, promote_nullable, selection
from repro.sql.row import Row
from repro.sql.types import DoubleType, StructType

SCHEMA = StructType((("id", "long"), ("name", "string"), ("score", "double")))

ROWS = [
    {"id": 1, "name": "a", "score": 1.5},
    {"id": 2, "name": "b", "score": 2.5},
    {"id": 3, "name": None, "score": 3.5},
]


@pytest.fixture
def batch() -> RecordBatch:
    return RecordBatch.from_rows(ROWS, SCHEMA)


class TestConstruction:
    def test_from_rows_roundtrip(self, batch):
        assert batch.to_rows() == ROWS

    def test_column_dtypes(self, batch):
        assert batch.column("id").dtype == np.int64
        assert batch.column("score").dtype == np.float64
        assert batch.column("name").dtype == object

    def test_empty(self):
        empty = RecordBatch.empty(SCHEMA)
        assert empty.num_rows == 0
        assert empty.to_rows() == []

    def test_from_columns_coerces(self):
        batch = RecordBatch.from_columns(
            SCHEMA, id=[1, 2], name=["x", "y"], score=np.array([1, 2]),
        )
        assert batch.column("score").dtype == np.float64
        assert batch.num_rows == 2

    def test_schema_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            RecordBatch({"id": np.array([1])}, SCHEMA)

    def test_missing_row_field_becomes_null(self):
        schema = StructType((("a", "string"),))
        batch = RecordBatch.from_rows([{}], schema)
        assert batch.to_rows() == [{"a": None}]


class TestConcat:
    def test_concat_two(self, batch):
        combined = RecordBatch.concat([batch, batch])
        assert combined.num_rows == 6

    def test_concat_skips_empty(self, batch):
        combined = RecordBatch.concat([RecordBatch.empty(SCHEMA), batch])
        assert combined.num_rows == 3

    def test_concat_all_empty_keeps_schema(self):
        combined = RecordBatch.concat([RecordBatch.empty(SCHEMA)])
        assert combined.schema == SCHEMA

    def test_concat_nothing_requires_schema(self):
        assert RecordBatch.concat([], SCHEMA).num_rows == 0
        with pytest.raises(ValueError):
            RecordBatch.concat([])

    def test_concat_single_returns_same_object(self, batch):
        assert RecordBatch.concat([batch]) is batch


class TestTransforms:
    def test_select_subset_and_order(self, batch):
        out = batch.select(["score", "id"])
        assert out.schema.names == ["score", "id"]
        assert out.to_rows()[0] == {"score": 1.5, "id": 1}

    def test_rename(self, batch):
        out = batch.rename({"id": "ident"})
        assert out.schema.names == ["ident", "name", "score"]
        assert out.column("ident")[0] == 1

    def test_with_column_add(self, batch):
        out = batch.with_column("flag", np.array([True, False, True]),
                                StructType((("x", "boolean"),)).type_of("x"))
        assert out.schema.names[-1] == "flag"
        assert out.num_rows == 3

    def test_with_column_replace_keeps_position(self, batch):
        out = batch.with_column("score", np.array([0.0, 0.0, 0.0]), DoubleType())
        assert out.schema.names == SCHEMA.names
        assert out.column("score").sum() == 0

    def test_filter(self, batch):
        out = batch.filter(np.array([True, False, True]))
        assert [r["id"] for r in out.to_rows()] == [1, 3]

    def test_filter_all_true_returns_same(self, batch):
        assert batch.filter(np.ones(3, dtype=bool)) is batch

    def test_take_with_repeats(self, batch):
        out = batch.take(np.array([2, 0, 0]))
        assert [r["id"] for r in out.to_rows()] == [3, 1, 1]

    def test_slice(self, batch):
        assert [r["id"] for r in batch.slice(1, 3).to_rows()] == [2, 3]

    def test_len(self, batch):
        assert len(batch) == 3


class TestNullHandling:
    def test_nan_becomes_none_in_rows(self):
        schema = StructType((("x", "double"),))
        batch = RecordBatch.from_columns(schema, x=np.array([1.0, np.nan]))
        assert batch.to_rows() == [{"x": 1.0}, {"x": None}]

    def test_none_string_survives(self, batch):
        assert batch.to_rows()[2]["name"] is None


# ---------------------------------------------------------------------------
# Column-at-a-time to_rows against the per-element conversion
# ---------------------------------------------------------------------------

def per_element_rows(batch: RecordBatch) -> list:
    """The oracle: one ``_pyvalue`` per cell, as ``to_rows`` used to."""
    names = batch.schema.names
    cols = [batch.columns[n] for n in names]
    return [Row(zip(names, (RecordBatch._pyvalue(c[i]) for c in cols)))
            for i in range(batch.num_rows)]


def _object_column(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


#: Objects an object column may hold: strings, None, numpy scalars
#: (a NaN one among them) and Python numbers.
object_values = st.one_of(
    st.none(), st.text(max_size=3),
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=True),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(allow_nan=True).map(np.float64),
    st.booleans().map(np.bool_),
)


@st.composite
def typed_columns(draw):
    n = draw(st.integers(0, 12))
    cells = lambda strategy: draw(st.lists(strategy, min_size=n, max_size=n))
    return {
        "i": np.array(cells(st.integers(-2**63, 2**63 - 1)), dtype=np.int64),
        "u": np.array(cells(st.integers(0, 2**64 - 1)), dtype=np.uint64),
        "f": np.array(cells(st.floats(allow_nan=True)), dtype=np.float64),
        "h": np.array(cells(st.floats(width=32, allow_nan=True)),
                      dtype=np.float32),
        "b": np.array(cells(st.booleans()), dtype=bool),
        "o": _object_column(cells(object_values)),
    }


def _same_cells(got: list, want: list) -> bool:
    """Row lists equal cell by cell, type included (``-0.0`` keeps its
    sign; an object column's float NaN is still a NaN)."""
    if len(got) != len(want):
        return False
    for g_row, w_row in zip(got, want):
        if list(g_row) != list(w_row):
            return False
        for name in w_row:
            g, w = g_row[name], w_row[name]
            if type(g) is not type(w):
                return False
            if isinstance(w, float):
                if repr(g) != repr(w):
                    return False
            elif g != w:
                return False
    return True


@given(columns=typed_columns())
@example(columns={"i": np.array([2**62]), "u": np.array([2**64 - 1], np.uint64),
                  "f": np.array([-0.0]), "h": np.array([np.nan], np.float32),
                  "b": np.array([True]),
                  "o": _object_column([np.float64("nan")])})
def test_to_rows_equals_the_per_element_conversion(columns):
    types = {"i": "long", "u": "long", "f": "double", "h": "double",
             "b": "boolean", "o": "string"}
    batch = RecordBatch(columns, StructType(tuple(types.items())))
    assert _same_cells(batch.to_rows(), per_element_rows(batch))
    assert all(isinstance(row, Row) for row in batch.to_rows())


def test_to_rows_of_an_empty_batch_is_empty():
    assert RecordBatch.empty(SCHEMA).to_rows() == []
    assert RecordBatch({}, StructType(())).to_rows() == []


# ---------------------------------------------------------------------------
# Selection vectors: index and mask paths agree
# ---------------------------------------------------------------------------

def _mixed_batch(n: int) -> RecordBatch:
    schema = StructType((("o", "string"), ("f", "double"), ("b", "boolean")))
    return RecordBatch({
        "o": _object_column([None if i % 3 == 0 else f"s{i}" for i in range(n)]),
        "f": np.where(np.arange(n) % 4 == 0, np.nan, np.arange(n) * 0.5),
        "b": np.arange(n) % 2 == 0,
    }, schema)


@pytest.mark.parametrize("kept", [0, 4, 5, 6, 10])
def test_filter_by_index_and_by_mask_agree(kept, monkeypatch):
    n = 10
    batch = _mixed_batch(n)
    mask = np.zeros(n, dtype=bool)
    mask[np.random.default_rng(kept).permutation(n)[:kept]] = True
    want = {name: array[mask] for name, array in batch.columns.items()}
    # Share 1.0 forces the index path and 0.0 the mask path (an empty
    # selection is an index either way).
    for share, by_index in ((1.0, True), (0.0, kept == 0)):
        monkeypatch.setattr(batch_module, "INDEX_GATHER_MAX_SHARE", share)
        sel = selection(mask)
        if kept == n:
            assert sel is None
        else:
            assert (sel.dtype != bool) == by_index
        out = batch.filter(mask)
        assert out.num_rows == kept
        for name, array in want.items():
            got = out.columns[name]
            assert got.dtype == array.dtype
            assert _same_cells([{"v": v} for v in got.tolist()],
                               [{"v": v} for v in array.tolist()]), name


def test_selection_gathers_by_index_up_to_half():
    """The crossover is ``INDEX_GATHER_MAX_SHARE`` of the rows: half (5 of
    10) by index, one more by mask, all of them not at all."""
    for kept, kind in ((0, "index"), (4, "index"), (5, "index"),
                       (6, "mask"), (10, None)):
        mask = np.arange(10) < kept
        sel = selection(mask)
        got = None if sel is None else ("mask" if sel.dtype == bool else "index")
        assert got == kind, kept


# ---------------------------------------------------------------------------
# Chunked batches
# ---------------------------------------------------------------------------

class TestChunked:
    def test_chunks_are_the_parts_until_columns_is_read(self, batch):
        parts = [batch, batch.slice(0, 1)]
        chunked = RecordBatch.chunked(parts, SCHEMA)
        assert chunked.num_rows == 4
        assert chunked.chunks() == parts
        assert chunked.columns["id"].tolist() == [1, 2, 3, 1]
        # Reading the columns concatenated the parts once and let them go.
        assert chunked.chunks() == [chunked]
        assert chunked.to_rows() == ROWS + ROWS[:1]

    def test_a_plain_batch_is_its_own_only_chunk(self, batch):
        assert batch.chunks() == [batch]

    def test_chunked_rows_equal_the_concatenation(self, batch):
        parts = [batch.slice(2, 3), RecordBatch.empty(SCHEMA), batch]
        assert RecordBatch.chunked(parts, SCHEMA).to_rows() == \
            RecordBatch.concat(parts).to_rows()


class TestPromoteNullable:
    def test_long_promoted_to_double(self):
        promoted = promote_nullable(StructType((("a", "long"), ("b", "string"))))
        assert isinstance(promoted.type_of("a"), DoubleType)
        assert promoted.type_of("b").simple_name == "string"

    def test_all_nullable(self):
        promoted = promote_nullable(StructType((("a", "long", False),)))
        assert promoted.field("a").nullable
