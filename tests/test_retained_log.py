"""The one retained columnar log behind MemoryStream, ChangeStream and
StreamTable (``sources.base.RetainedLogSource``).

Each source used to keep a list of row dicts and rebuild a batch from a
slice of it every epoch; the reference answers below are computed that
way, from the rows the test itself appended.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bus.broker import TopicPartition
from repro.sources.base import ingest_floor_from_segments
from repro.sources.cdc import ChangeStream
from repro.sources.memory import MemoryStream
from repro.sql.batch import RecordBatch
from repro.sql.types import StructType
from repro.streaming.stream_table import StreamTable
from repro.streaming.zset import WEIGHT_COLUMN, weighted_schema

FIELDS = (("k", "string"), ("n", "long"), ("x", "double"))
SCHEMA = StructType(FIELDS)

appends = st.lists(st.integers(0, 7), min_size=1, max_size=12)


def make_rows(first: int, count: int) -> list:
    return [{"k": f"k{i % 3}", "n": i, "x": i / 2} for i in range(first, first + count)]


def as_dicts(batch: RecordBatch) -> list:
    names = batch.schema.names
    return [dict(zip(names, values))
            for values in zip(*(batch.columns[n].tolist() for n in names))]


def linear_ingest_floor(segments, start, end):
    """The scan ``ingest_floor_from_segments`` was before it bisected."""
    floor, previous = None, 0
    for upto, ingest_time in segments:
        if previous < end and upto > start and end > start \
                and ingest_time is not None:
            floor = ingest_time if floor is None else min(floor, ingest_time)
        previous = upto
    return floor


def every_cut(total: int):
    return [(lo, hi) for lo in range(total + 1) for hi in range(lo, total + 1)]


def check_reads(source, expected_rows, segments):
    """Every ``[start, end)`` of the source against the row-list answer,
    twice (a retained range replays identically)."""
    total = len(expected_rows)
    assert source.latest_offsets() == {"0": total}
    for lo, hi in every_cut(total):
        for _replay in range(2):
            batch = source.get_batch({"0": lo}, {"0": hi})
            assert batch.schema.names == source.schema.names
            assert as_dicts(batch) == expected_rows[lo:hi]
        assert source.get_partition_batch("0", lo, hi).num_rows == hi - lo
        assert source.ingest_floor({"0": lo}, {"0": hi}) == \
            linear_ingest_floor(segments, lo, hi)
    assert source.ingest_floor({}, {"0": total}) == \
        linear_ingest_floor(segments, 0, total)


@given(sizes=appends)
def test_memory_stream_reads_equal_row_list(sizes):
    stream = MemoryStream(FIELDS)
    expected, segments = [], []
    for i, size in enumerate(sizes):
        rows = make_rows(len(expected), size)
        stream.add_data(rows, ingest_time=100.0 - i)
        expected.extend(rows)
        if size:
            segments.append((len(expected), 100.0 - i))
    assert stream.create() is stream and stream.partitions() == ["0"]
    check_reads(stream, expected, segments)


@given(ops=st.lists(st.tuples(st.sampled_from(["insert", "delete", "update"]),
                              st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=10))
def test_change_stream_reads_equal_row_list(ops):
    stream = ChangeStream(FIELDS)
    assert stream.schema == weighted_schema(SCHEMA)
    expected, segments = [], []
    for i, (op, a, b) in enumerate(ops):
        old, new = make_rows(10 * i, a), make_rows(10 * i + 5, b)
        if op == "update":
            stream.update(old, new, ingest_time=float(i))
            stamped = [(old, -1), (new, 1)]
        else:
            getattr(stream, op)(old, ingest_time=float(i))
            stamped = [(old, 1 if op == "insert" else -1)]
        before = len(expected)
        for rows, weight in stamped:
            expected.extend({**row, WEIGHT_COLUMN: weight} for row in rows)
        if len(expected) > before:
            # An update's two halves are one segment with one stamp.
            segments.append((len(expected), float(i)))
    assert stream._ingest == segments
    check_reads(stream, expected, segments)


@given(sizes=appends, redeliver=st.sets(st.integers(0, 11)))
def test_stream_table_reads_equal_row_list(sizes, redeliver):
    table = StreamTable("t")
    table.bind_schema(SCHEMA, "append")
    expected, segments = [], []
    for epoch, size in enumerate(sizes):
        rows = make_rows(len(expected), size)
        batch = RecordBatch.from_rows(rows, SCHEMA)
        stamp = None if epoch % 3 == 2 else 50.0 + epoch
        if stamp is not None:
            table.note_epoch_ingest(epoch, stamp)
        table.add_batch(epoch, batch, "append")
        if epoch in redeliver:  # recovery delivers a committed epoch again
            table.note_epoch_ingest(epoch, -1.0)
            table.add_batch(epoch, RecordBatch.from_rows(
                make_rows(999, 2), SCHEMA), "append")
        expected.extend(rows)
        if size and stamp is not None:
            segments.append((len(expected), stamp))
    assert table.last_committed_epoch() == len(sizes) - 1
    check_reads(table, expected, segments)


@given(ends=st.lists(st.integers(1, 5), max_size=10),
       stamps=st.lists(st.one_of(st.none(), st.floats(0, 100)), min_size=10,
                       max_size=10))
def test_ingest_floor_bisection_equals_the_scan(ends, stamps):
    segments, total = [], 0
    for size, stamp in zip(ends, stamps):
        total += size
        segments.append((total, stamp))
    for lo, hi in every_cut(total + 2):
        assert ingest_floor_from_segments(segments, lo, hi) == \
            linear_ingest_floor(segments, lo, hi)


class _CountingList(list):
    """A chunk list that counts the elements looked at."""

    looked_at = 0

    def __getitem__(self, index):
        self.looked_at += 1
        return list.__getitem__(self, index)


def test_a_read_visits_its_own_chunks_however_many_are_retained():
    """Epoch N's read must not cost N: the first chunk is bisected to."""
    batch = RecordBatch.from_rows(make_rows(0, 4), SCHEMA)
    looked_at = {}
    for retained in (10, 1000):
        log = TopicPartition("t", 0)
        for _ in range(retained):
            log.append_batch(batch)
        log._chunks = _CountingList(log._chunks)
        end = log.end_offset
        assert log.read_columnar(end - 6, end, SCHEMA).num_rows == 6
        assert len(list(log._chunk_ranges(end - 6, end))) == 2
        looked_at[retained] = log._chunks.looked_at
    # 100x the chunks: a few more bisection probes, not 100x the scan.
    assert looked_at[1000] <= looked_at[10] + 2 * 10


class TestValidationAtAppend:
    def test_uncoercible_row_raises_when_appended(self):
        stream = MemoryStream(FIELDS)
        with pytest.raises((TypeError, ValueError)):
            stream.add_data([{"k": "a", "n": "not a number", "x": 1.0}])
        with pytest.raises((TypeError, ValueError)):
            stream.add_data([{"k": "a", "x": 1.0}])  # a long cannot be null
        changes = ChangeStream(FIELDS)
        with pytest.raises((TypeError, ValueError)):
            changes.insert([{"k": "a", "n": None, "x": 1.0}])
        with pytest.raises((TypeError, ValueError)):
            changes.update([{"k": "a", "n": 1, "x": 1.0}],
                           [{"k": "a", "n": "x", "x": 1.0}])
        # Nothing of a rejected call was appended.
        assert stream.latest_offsets() == changes.latest_offsets() == {"0": 0}

    def test_explicit_weight_is_rejected(self):
        changes = ChangeStream(FIELDS)
        for call in (changes.insert, changes.delete):
            with pytest.raises(ValueError, match=WEIGHT_COLUMN):
                call([{"k": "a", "n": 1, "x": 1.0, WEIGHT_COLUMN: 1}])
        with pytest.raises(ValueError, match=WEIGHT_COLUMN):
            changes.update([], [{"k": "a", "n": 1, "x": 1.0, WEIGHT_COLUMN: 1}])
        with pytest.raises(ValueError, match=WEIGHT_COLUMN):
            ChangeStream(FIELDS + ((WEIGHT_COLUMN, "long"),))
        assert changes.latest_offsets() == {"0": 0}

    def test_caller_mutation_after_append_does_not_reach_the_stream(self):
        stream, changes = MemoryStream(FIELDS), ChangeStream(FIELDS)
        rows = make_rows(0, 3)
        stream.add_data(rows)
        changes.insert(rows)
        rows[0]["n"] = 999
        rows.append({"k": "late", "n": 7, "x": 0.0})
        assert stream.get_batch({}, {"0": 3}).columns["n"].tolist() == [0, 1, 2]
        assert changes.get_batch({}, {"0": 3}).columns["n"].tolist() == [0, 1, 2]

    def test_empty_appends_add_nothing(self):
        stream, changes = MemoryStream(FIELDS), ChangeStream(FIELDS)
        stream.add_data([])
        changes.insert([])
        changes.update([], [])
        assert stream.latest_offsets() == changes.latest_offsets() == {"0": 0}
        assert stream.ingest_floor({}, {"0": 0}) is None
        assert stream.get_batch({}, {"0": 0}).num_rows == 0


def test_change_stream_retains_columns_not_row_dicts():
    """20 000 three-long rows: 32 B/row of column data (three values and
    a weight) plus one chunk — a stamped dict per row was 184 B/row."""
    rows = [{"order_id": i, "cust": i % 977, "amount": i % 1000}
            for i in range(20_000)]
    stream = ChangeStream((("order_id", "long"), ("cust", "long"),
                           ("amount", "long")))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stream.insert(rows)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(rows) <= 64
    batch = stream.get_batch({}, {"0": 20_000})
    assert int(np.sum(batch.columns["amount"])) == sum(r["amount"] for r in rows)
    assert batch.columns[WEIGHT_COLUMN].tolist() == [1] * 20_000
