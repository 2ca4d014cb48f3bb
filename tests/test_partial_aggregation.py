"""Partial aggregation per source partition (§5.2, §6.1).

Over a chunked (multi-partition) read, ``StatefulAggregateOp`` drives its
row-local subtree — stage, stream–static join, watermark tracker — once
per part, reduces each part to per-group partials and merges those into
one epoch table; the epoch's rows are never concatenated.  These tests
pin that the result equals a one-partition read of the same rows in
partition order, that no survivor concat runs, and the working set of a
four-partition Yahoo epoch.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tracemalloc

import pytest

from repro.bus import Broker
from repro.sql import functions as F
from repro.sql.batch import RecordBatch
from repro.sql.session import Session
from repro.workloads.yahoo import (
    YAHOO_EVENT_SCHEMA,
    YahooWorkload,
    structured_streaming_query,
)

from tests.conftest import make_stream, start_memory_query

SCHEMA = (("k", "string"), ("n", "long"), ("v", "double"), ("t", "timestamp"))


def _events(epoch: int) -> list:
    """One epoch's rows: three keys, a NaN key and value, a row late
    from the second epoch on (the watermark trails by 5 s)."""
    base = 10.0 * epoch
    rows = [
        {"k": k, "n": 2**53 + i, "v": float(i) if i % 5 else float("nan"),
         "t": base + (i * 7 % 13)}
        for i, k in enumerate(["a", "b", "c", None] * 6)
    ]
    if epoch:
        rows.append({"k": "a", "n": 1, "v": 1.0, "t": base - 30.0})
    return rows


def _run(build, partitions: int, epochs, mode="update", **options):
    """Feed each epoch's rows round-robin over ``partitions`` kafka-sim
    partitions; returns (per-epoch late rows, sink rows, query)."""
    broker = Broker()
    topic = broker.create_topic("events", partitions)
    df = build(Session().read_stream.kafka(broker, "events", SCHEMA))
    query = start_memory_query(df, mode, f"parts_{partitions}", **options)
    late = []
    for rows in epochs:
        for p in range(partitions):
            topic.publish_to(p, rows[p::partitions])
        query.process_all_available()
        late.append(query.last_progress.late_rows_dropped)
    return late, query.engine.sink.rows(), query


def _in_partition_order(epochs, partitions: int) -> list:
    """The rows a chunked read of ``partitions`` parts yields, in order."""
    return [[row for p in range(partitions) for row in rows[p::partitions]]
            for rows in epochs]


def _windowed(df):
    return (df.with_watermark("t", "5 seconds")
            .filter(F.col("n") > 0)
            .group_by(F.col("k"), F.window(F.col("t"), "10 seconds"))
            .agg(F.count().alias("rows"), F.sum("n").alias("total"),
                 F.avg("v").alias("mean"), F.min("v").alias("lo"),
                 F.max("t").alias("hi"), F.first("n").alias("head"),
                 F.last("v").alias("tail"),
                 F.count_distinct("n").alias("distinct")))


def _keyed(row) -> tuple:
    return tuple(sorted((k, repr(v)) for k, v in row.items()))


def test_per_part_fold_equals_a_one_partition_read():
    """Three parts folded one at a time give the rows, exact long sums,
    ``first``/``last`` and late counts of one partition holding the same
    rows in partition order (NaN keys and values included)."""
    epochs = [_events(e) for e in range(3)]
    late, rows, query = _run(_windowed, 3, epochs)
    query.stop()
    want_late, want_rows, query = _run(
        _windowed, 1, _in_partition_order(epochs, 3))
    query.stop()
    assert late == want_late and sum(late) == 2
    assert sorted(map(_keyed, rows)) == sorted(map(_keyed, want_rows))
    assert any(r["total"] > 2**53 * 2 and r["total"] % 2 for r in rows)


def test_a_null_double_key_read_in_several_parts_is_one_group():
    """NaN keys from different parts are one group, as the state store's
    key encoding makes them (and as one pass over the rows would)."""
    _late, rows, query = _run(
        lambda df: df.group_by("v").agg(F.count().alias("rows")), 3,
        [_events(0)] * 2, mode="complete")
    query.stop()
    nulls = [r["rows"] for r in rows if r["v"] is None]
    assert nulls == [10]
    assert sum(r["rows"] for r in rows) == 48


@pytest.mark.parametrize("grouping, rows, counts", [
    # A multi-column key with a null double: the sorting encoder gives
    # each NaN row its own code, and all share one state key.
    (lambda: ["k", "v"],
     [{"k": 1, "v": None, "t": 0.0}, {"k": 1, "v": 2.0, "t": 0.0},
      {"k": 1, "v": None, "t": 0.0}], [1, 2]),
    # -0.0 and 0.0 window indexes code apart but are one dict key.
    (lambda: ["k", F.window(F.col("t"), "10 seconds")],
     [{"k": 1, "v": 0.0, "t": 0.0}, {"k": 1, "v": 0.0, "t": -0.0},
      {"k": 1, "v": 0.0, "t": 3.0}], [3]),
], ids=["null_double_in_key", "signed_zero_window"])
def test_groups_equal_as_keys_fold_together(grouping, rows, counts):
    """Codes the encoder tells apart but the fold cannot (a null double
    in a multi-column key, a signed zero) merge into one group: no row
    is lost to a second group written under the same key."""
    stream = make_stream((("k", "long"), ("v", "double"), ("t", "timestamp")))
    query = start_memory_query(
        Session().read_stream.memory(stream).group_by(*grouping())
        .agg(F.count().alias("n")), "complete", "same_key")
    stream.add_data(rows)
    query.process_all_available()
    assert sorted(r["n"] for r in query.engine.sink.rows()) == counts
    query.stop()


def _record_concats(monkeypatch) -> list:
    """Row counts of every ``RecordBatch.concat`` that joins two or more
    non-empty batches, or reads a chunked batch's ``columns``."""
    joined = []
    concat, columns = RecordBatch.concat.__func__, RecordBatch.columns.fget

    def spying_concat(cls, batches, schema=None):
        batches = list(batches)
        if sum(1 for b in batches if b.num_rows) > 1:
            joined.append([b.num_rows for b in batches])
        return concat(cls, batches, schema)

    def spying_columns(batch):
        if batch._columns is None:
            joined.append([part.num_rows for part in batch.chunks()])
        return columns(batch)

    monkeypatch.setattr(RecordBatch, "concat", classmethod(spying_concat))
    monkeypatch.setattr(RecordBatch, "columns", property(spying_columns))
    return joined


def test_an_aggregate_over_the_scan_reads_part_by_part(monkeypatch):
    """A plain grouped count: the pruning stage and the aggregate run per
    part, and nothing joins the parts."""
    joined = _record_concats(monkeypatch)
    _late, rows, query = _run(
        lambda df: df.group_by("k").agg(F.count().alias("rows")), 2,
        [_events(0)], mode="complete")
    query.stop()
    assert joined == []
    assert sorted((r["k"] is None, r["k"], r["rows"]) for r in rows) == [
        (False, "a", 6), (False, "b", 6), (False, "c", 6), (True, None, 6)]


def _yahoo_epochs(partitions: int, events: int):
    """A started Yahoo query and a function publishing one more epoch of
    ``events`` columnar events over ``partitions`` partitions."""
    workload = YahooWorkload(seed=3)
    broker = Broker()
    topic = broker.create_topic("events", partitions)
    query = start_memory_query(
        structured_streaming_query(Session(), broker, "events", workload),
        "update", "yahoo_parts")
    published = []

    def epoch():
        arrays = workload.event_arrays(
            events, start_time=2.5 * len(published), duration=4.5)
        published.append(arrays)
        for p in range(partitions):
            topic.publish_batch_to(p, RecordBatch.from_columns(
                YAHOO_EVENT_SCHEMA,
                **{name: a[p::partitions] for name, a in arrays.items()}))
        return query.run_epoch()

    return query, epoch


def test_a_chunked_yahoo_epoch_concatenates_no_survivors(monkeypatch):
    """Stage, static join and watermark run once per part under the
    aggregate: no ``RecordBatch.concat`` joins two non-empty batches."""
    query, epoch = _yahoo_epochs(4, 4000)
    epoch()
    joined = _record_concats(monkeypatch)
    progress = epoch()
    query.stop()
    assert progress.input_rows == 4000
    assert joined == []


def _heap_tool():
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "tools", "heap_by_layer.py")
    spec = importlib.util.spec_from_file_location("heap_by_layer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_heap_tool_deep_bytes_reads_the_handle_dict(tmp_path):
    """``make heap``'s per-handle table reads the handle's one dict; an
    older checkout's handle, one dict per shard, reads to the same value
    bytes.  Nothing else calls ``deep_bytes``, so this is its check."""
    from types import SimpleNamespace

    from repro.streaming.state import OperatorStateHandle

    deep_bytes = _heap_tool().deep_bytes
    handle = OperatorStateHandle(str(tmp_path / "op"))
    for key in ("a", "b", "c"):
        handle.put((key,), [key * 3, 2.5])
    keys, values = deep_bytes(handle)
    assert keys == sys.getsizeof(handle.data) + sum(
        map(sys.getsizeof, handle.data))
    # Three lists, three strings and one shared float.
    assert values == sum(
        sys.getsizeof(v) + sys.getsizeof(v[0]) for v in handle.data.values()
    ) + sys.getsizeof(2.5)
    items = list(handle.data.items())
    older = SimpleNamespace(_shards=[SimpleNamespace(data=dict(items[:1])),
                                     SimpleNamespace(data=dict(items[1:]))])
    assert deep_bytes(older)[1] == values


def test_a_four_partition_yahoo_epoch_working_set():
    """The bench's Yahoo epoch (200 k events over four partitions) peaks
    at most 2.5 MB traced above its starting live bytes (3.6 MB when the
    survivors were concatenated and grouped in one pass)."""
    query, epoch = _yahoo_epochs(4, 200_000)
    for _ in range(3):  # warm: the window table and state reach size
        epoch()
    watch = _heap_tool().EpochWatch()
    watch.install(query.engine)
    tracemalloc.start(1)
    try:
        for _ in range(2):
            epoch()
    finally:
        tracemalloc.stop()
        query.stop()
    size, owner = max(watch.epochs)
    assert size <= 2.5 * (1 << 20), (size, owner)
