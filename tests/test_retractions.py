"""Retraction (Z-set) semantics end to end.

Unit tests for the weighted delivery/apply paths, the CDC source and
stream-table plumbing, plus the golden cascade contract: one fixed
bronze -> silver -> gold run whose sink rows and WAL bytes are
invariant to the state backend (dict vs tiered), and whose
pure-retraction epoch replays byte-identically after a crash at the
sink delivery.
"""

from __future__ import annotations

import os

import pytest

from repro.sinks.memory import MemorySink
from repro.sources.cdc import ChangeStream
from repro.sql import functions as F
from repro.sql.batch import RecordBatch
from repro.sql.session import Session
from repro.sql.types import StructType
from repro.streaming.stream_table import StreamTable
from repro.streaming.zset import WEIGHT_COLUMN, apply_zset, weighted_schema
from repro.testing.faults import CrashPoint, Fault, FaultInjector, injected
from repro.testing.harness import checkpoint_fingerprint
from repro.testing.oracle import canonical_rows

CDC_SCHEMA = StructType((("k", "string"), ("v", "long")))


# ----------------------------------------------------------------------
# Z-set application primitives
# ----------------------------------------------------------------------
def test_apply_zset_delete_on_zero_forgets_insertion_slot():
    rows = [
        {"k": "a"}, {"k": "b"},
        {"k": "a", WEIGHT_COLUMN: -1},
        {"k": "a"},  # re-insert after zero: re-registers at the end
    ]
    assert apply_zset(rows) == [{"k": "b"}, {"k": "a"}]


def test_apply_zset_rejects_negative_multiplicity():
    with pytest.raises(ValueError, match="negative multiplicity"):
        apply_zset([{"k": "x", WEIGHT_COLUMN: -1}])


def test_memory_sink_nets_epoch_delta_before_applying():
    """A -1/+1 pair for the same row within one epoch (a join's bilinear
    expansion emits these in either order) must apply atomically."""
    sink = MemorySink()
    schema = weighted_schema(CDC_SCHEMA)
    sink.add_batch(0, RecordBatch.from_rows(
        [{"k": "a", "v": 1, WEIGHT_COLUMN: 1}], schema), "retract")
    sink.add_batch(1, RecordBatch.from_rows(
        [{"k": "a", "v": 2, WEIGHT_COLUMN: -1},
         {"k": "a", "v": 2, WEIGHT_COLUMN: 1},
         {"k": "a", "v": 2, WEIGHT_COLUMN: 1}], schema), "retract")
    assert sink.rows() == [{"k": "a", "v": 1}, {"k": "a", "v": 2}]
    # Idempotent re-delivery after recovery: same epoch is a no-op.
    sink.add_batch(1, RecordBatch.from_rows(
        [{"k": "a", "v": 2, WEIGHT_COLUMN: 1}], schema), "retract")
    assert sink.rows() == [{"k": "a", "v": 1}, {"k": "a", "v": 2}]


def test_memory_sink_rejects_over_retraction():
    sink = MemorySink()
    schema = weighted_schema(CDC_SCHEMA)
    with pytest.raises(ValueError, match="never received"):
        sink.add_batch(0, RecordBatch.from_rows(
            [{"k": "a", "v": 1, WEIGHT_COLUMN: -1}], schema), "retract")


# ----------------------------------------------------------------------
# CDC source and stream-table plumbing
# ----------------------------------------------------------------------
def test_change_stream_rejects_explicit_weights():
    cdc = ChangeStream(CDC_SCHEMA)
    with pytest.raises(ValueError, match="must not carry"):
        cdc.insert([{"k": "a", "v": 1, WEIGHT_COLUMN: 1}])
    with pytest.raises(ValueError, match="must not contain"):
        ChangeStream((("k", "string"), (WEIGHT_COLUMN, "long")))


def test_read_stream_table_requires_a_started_writer():
    session = Session()
    with pytest.raises(KeyError, match="no stream table"):
        session.read_stream_table("nope")
    session.stream_tables["pending"] = StreamTable("pending")
    with pytest.raises(ValueError, match="no schema yet"):
        session.read_stream_table("pending")


# ----------------------------------------------------------------------
# Weighted operators through real queries
# ----------------------------------------------------------------------
def _start_retract(df, sink, checkpoint):
    return (df.write_stream.sink(sink).output_mode("retract")
            .start(str(checkpoint)))


def test_weighted_aggregate_updates_and_group_disappearance(tmp_path):
    session = Session()
    cdc = ChangeStream(CDC_SCHEMA)
    df = (session.read_stream.cdc(cdc)
          .group_by("k").agg(F.sum("v").alias("s")))
    sink = MemorySink()
    query = _start_retract(df, sink, tmp_path / "ck")
    cdc.insert([{"k": "a", "v": 5}, {"k": "b", "v": 3}])
    query.process_all_available()
    assert canonical_rows(sink.rows()) == canonical_rows(
        [{"k": "a", "s": 5}, {"k": "b", "s": 3}])
    cdc.update([{"k": "a", "v": 5}], [{"k": "a", "v": 7}])
    cdc.delete([{"k": "b", "v": 3}])
    query.process_all_available()
    query.stop()
    assert canonical_rows(sink.rows()) == canonical_rows([{"k": "a", "s": 7}])


def test_weighted_dedup_promotes_next_surviving_row(tmp_path):
    session = Session()
    cdc = ChangeStream(CDC_SCHEMA)
    df = session.read_stream.cdc(cdc).drop_duplicates(["k"])
    sink = MemorySink()
    query = _start_retract(df, sink, tmp_path / "ck")
    cdc.insert([{"k": "a", "v": 1}, {"k": "a", "v": 2}])
    query.process_all_available()
    assert sink.rows() == [{"k": "a", "v": 1}]
    cdc.delete([{"k": "a", "v": 1}])
    query.process_all_available()
    query.stop()
    assert sink.rows() == [{"k": "a", "v": 2}]


def test_weighted_dedup_retracts_a_row_holding_a_null_double(tmp_path):
    """A null double cell is NaN in its column, which never equals
    itself: the delete must still find the row it retracts."""
    session = Session()
    cdc = ChangeStream(StructType((("k", "string"), ("v", "double"))))
    df = session.read_stream.cdc(cdc).drop_duplicates(["k"])
    sink = MemorySink()
    query = _start_retract(df, sink, tmp_path / "ck")
    cdc.insert([{"k": "a", "v": None}])
    query.process_all_available()
    assert sink.rows() == [{"k": "a", "v": None}]
    cdc.delete([{"k": "a", "v": None}])
    query.process_all_available()
    query.stop()
    assert sink.rows() == []


def test_weighted_dedup_keeps_one_row_per_null_double_key(tmp_path):
    """Rows whose double key is null share one key, as in batch
    ``drop_duplicates``; deleting the representative promotes the next
    null-key row."""
    session = Session()
    schema = StructType((("k", "double"), ("v", "long")))
    rows = [{"k": None, "v": 1}, {"k": None, "v": 2}, {"k": 1.0, "v": 3}]
    cdc = ChangeStream(schema)
    df = session.read_stream.cdc(cdc).drop_duplicates(["k"])
    sink = MemorySink()
    query = _start_retract(df, sink, tmp_path / "ck")
    cdc.insert(rows)
    query.process_all_available()
    assert canonical_rows(sink.rows()) == canonical_rows(
        session.create_dataframe(rows, schema).drop_duplicates(["k"])
        .collect())
    cdc.delete(rows[:1])
    query.process_all_available()
    query.stop()
    assert canonical_rows(sink.rows()) == canonical_rows(
        session.create_dataframe(rows[1:], schema).drop_duplicates(["k"])
        .collect())


# ----------------------------------------------------------------------
# The golden cascade: bytes invariant to the state backend
# ----------------------------------------------------------------------
def _cascade_steps():
    """One chunk per epoch; chunk 2 is deletes-only (a pure retraction
    epoch in both stages' WALs)."""
    return [
        lambda cdc: cdc.insert([{"k": "a", "v": 5}, {"k": "b", "v": 3}]),
        lambda cdc: cdc.insert([{"k": "a", "v": 2}, {"k": "c", "v": 7}]),
        lambda cdc: cdc.delete([{"k": "a", "v": 5}, {"k": "b", "v": 3}]),
        lambda cdc: cdc.update([{"k": "c", "v": 7}], [{"k": "c", "v": 9}]),
        lambda cdc: cdc.insert([{"k": "b", "v": 1}]),
    ]


GOLDEN_FINAL = [{"k": "a", "total": 2}, {"k": "c", "total": 9},
                {"k": "b", "total": 1}]


def _build_cascade(root, *, backend="dict"):
    session = Session()
    cdc = ChangeStream(CDC_SCHEMA)
    silver = (session.read_stream.cdc(cdc)
              .filter(F.col("v") > 0).select("k", "v"))
    sink = MemorySink()
    ck1 = os.path.join(root, "ck-silver")
    ck2 = os.path.join(root, "ck-gold")

    def start():
        upstream = (silver.write_stream.to_table("silver")
                    .output_mode("retract").start(ck1))
        writer = (session.read_stream_table("silver")
                  .group_by("k").agg(F.sum("v").alias("total"))
                  .write_stream.sink(sink).output_mode("retract"))
        if backend == "tiered":
            writer = (writer.option("state_backend", "tiered")
                      .option("state_memtable_bytes", 256))
        return upstream, writer.start(ck2)

    return cdc, sink, ck1, ck2, start


def _run_cascade(root, **kwargs):
    cdc, sink, ck1, ck2, start = _build_cascade(root, **kwargs)
    upstream, downstream = start()
    try:
        for step in _cascade_steps():
            step(cdc)
            upstream.process_all_available()
            downstream.process_all_available()
    finally:
        upstream.stop()
        downstream.stop()
    return sink.rows(), checkpoint_fingerprint(ck1), checkpoint_fingerprint(ck2)


def _wal_part(fingerprint):
    return {k: v for k, v in fingerprint.items() if not k.startswith("state/")}


def test_cascade_bytes_invariant_to_state_backend(tmp_path):
    rows_d, fp1_d, fp2_d = _run_cascade(str(tmp_path / "dict"))
    rows_t, fp1_t, fp2_t = _run_cascade(str(tmp_path / "tiered"),
                                        backend="tiered")
    assert canonical_rows(rows_d) == canonical_rows(GOLDEN_FINAL)
    assert canonical_rows(rows_t) == canonical_rows(rows_d)
    # State file formats differ by design; every WAL byte must not.
    assert fp1_t == fp1_d
    assert _wal_part(fp2_t) == _wal_part(fp2_d)


def test_retraction_epoch_replays_byte_identically(tmp_path):
    """Crash the downstream stage at the sink delivery of the
    deletes-only epoch; after restart the replayed epoch must leave the
    same checkpoint bytes and sink rows as a run that never crashed."""
    rows_clean, fp1_clean, fp2_clean = _run_cascade(str(tmp_path / "clean"))

    cdc, sink, ck1, ck2, start = _build_cascade(str(tmp_path / "crashed"))
    injector = FaultInjector([Fault(
        "sink.add_batch", occurrence=None, action="crash",
        match=lambda ctx: ctx.get("sink") == "memory" and ctx.get("epoch") == 2,
    )])
    steps = _cascade_steps()
    crashes = 0
    with injected(injector):
        upstream, downstream = start()
        fed = 0
        while True:
            try:
                upstream.process_all_available()
                downstream.process_all_available()
                if fed == len(steps):
                    break
                steps[fed](cdc)
                fed += 1
            except CrashPoint:
                crashes += 1
                try:
                    downstream.stop()
                except CrashPoint:
                    pass
                upstream, downstream = start()
        upstream.stop()
        downstream.stop()
    assert crashes == 1
    assert canonical_rows(sink.rows()) == canonical_rows(rows_clean)
    assert checkpoint_fingerprint(ck1) == fp1_clean
    assert checkpoint_fingerprint(ck2) == fp2_clean
