"""−0.0 and 0.0 are one state key (§3.2: the streamed result equals the
batch result, whatever the epoch boundaries).

``-0.0 == 0.0`` and the batch engine groups, deduplicates and joins
them as one value, so a stateful operator must too when the two arrive
in different epochs: ``encode_key`` writes −0.0 as ``0.0``, and the
stable hash that places records on partitions agrees.  A dict-backend checkpoint written before that
re-keys on restore.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.sql.batch import stable_hash_arrays, stable_hash_key
from repro.sources import ChangeStream
from repro.sql.session import Session
from repro.sql.types import StructType
from repro.streaming import state as state_module
from repro.streaming.state import encode_key
from repro.testing.oracle import canonical_rows

from tests.conftest import framed, make_stream, start_memory_query

SCHEMA = (("k", "double"), ("v", "long"))


def test_signed_zeros_encode_and_hash_as_one_key():
    assert encode_key(-0.0) == encode_key(0.0) == "0.0"
    assert encode_key((-0.0, "a")) == '[0.0, "a"]'
    assert encode_key((True, -0.0)) == "[true, 0.0]"
    assert stable_hash_key((-0.0,)) == stable_hash_key((0.0,))
    assert (stable_hash_arrays([np.array([-0.0, 0.0])])[0]
            == stable_hash_arrays([np.array([0.0])])[0])


def _two_epochs(build, mode, first, second, **options):
    """Stream ``first`` then ``second`` as two epochs; returns the sink's
    rows and the batch query's over both."""
    stream = make_stream(SCHEMA)
    query = start_memory_query(build(Session().read_stream.memory(stream)),
                               mode, "zeros", **options)
    for rows in (first, second):
        stream.add_data(rows)
        query.process_all_available()
    streamed = query.engine.sink.rows()
    query.stop()
    batch = build(Session().create_dataframe(first + second, SCHEMA))
    return streamed, batch.collect()


def test_complete_count_is_one_group():
    streamed, batch = _two_epochs(
        lambda df: df.group_by("k").count(), "complete",
        [{"k": -0.0, "v": 1}], [{"k": 0.0, "v": 2}])
    assert [row["count"] for row in streamed] == [2]
    assert canonical_rows(streamed) == canonical_rows(batch)


def test_dedup_keeps_one_row():
    streamed, batch = _two_epochs(
        lambda df: df.drop_duplicates(["k"]), "append",
        [{"k": -0.0, "v": 1}], [{"k": 0.0, "v": 2}])
    assert len(streamed) == len(batch) == 1


def test_join_matches_across_epochs():
    session = Session()
    left, right = make_stream(SCHEMA), make_stream((("k", "double"),
                                                     ("w", "long")))
    query = start_memory_query(
        session.read_stream.memory(left).join(
            session.read_stream.memory(right), on="k"),
        "append", "zeros-join")
    left.add_data([{"k": -0.0, "v": 1}, {"k": -0.0, "v": 2}])
    query.process_all_available()
    right.add_data([{"k": 0.0, "w": 1}, {"k": 0.0, "w": 2}])
    query.process_all_available()
    assert len(query.engine.sink.rows()) == 4   # the batch join's pairs
    query.stop()


def test_legacy_negative_zero_key_is_rekeyed_on_restore(tmp_path):
    """A checkpoint written before −0.0 folded holds the key ``[-0.0]``;
    the dict backend restores it as ``[0.0]``, so a later 0.0 row joins
    its group, and the next commit moves the key on disk."""
    checkpoint = str(tmp_path / "ckpt")
    stream = make_stream(SCHEMA)
    df = Session().read_stream.memory(stream).group_by("k").count()

    def start(sink=None):
        writer = (df.write_stream.output_mode("complete")
                  .option("state_backend", "dict"))
        writer = (writer.sink(sink) if sink is not None
                  else writer.format("memory").query_name("legacy"))
        return writer.start(checkpoint)

    query = start()
    stream.add_data([{"k": -0.0, "v": 1}])
    query.process_all_available()
    query.stop()
    # What the previous encoding wrote for that epoch.
    state = os.path.join(checkpoint, "state", "agg-0")
    with open(os.path.join(state, "0000000000.base.jsonl"), "w",
              encoding="utf-8") as f:
        f.write(framed("base", 0, '["[-0.0]",[1]]'))

    query = start(query.engine.sink)
    stream.add_data([{"k": 0.0, "v": 2}])
    query.process_all_available()
    assert [row["count"] for row in query.engine.sink.rows()] == [2]
    query.stop()
    with open(os.path.join(state, "0000000001.delta.jsonl"),
              encoding="utf-8") as f:
        assert f.read().splitlines()[1:3] == ['["[-0.0]"]', '["[0.0]",[2]]']


def test_only_a_chain_with_a_json_file_is_scanned(tmp_path, monkeypatch):
    """Block files postdate −0.0's folding, so a restore that replays
    only block files (a packed weighted dedup) skips the scan for
    ``-0.0`` keys; a JSONL chain (an aggregate) is still scanned."""
    scanned = []
    scan = state_module._rekey_negative_zeros
    monkeypatch.setattr(state_module, "_rekey_negative_zeros",
                        lambda merged: scanned.append(len(merged))
                        or scan(merged))
    cdc = ChangeStream(StructType(SCHEMA))
    source = Session().read_stream.cdc(cdc)
    for name, df, mode, suffix in (
            ("dedup", source.drop_duplicates(["k"]), "retract", ".block"),
            ("agg", source.group_by("k").count(), "complete", ".jsonl")):
        checkpoint = str(tmp_path / name)
        for restart in range(2):
            query = start_memory_query(df, mode, name, checkpoint,
                                       state_backend="dict")
            cdc.insert([{"k": -0.0, "v": restart}, {"k": 1.0, "v": 1}])
            query.process_all_available()
            query.stop()
        state_dir = glob.glob(os.path.join(checkpoint, "state", "*"))[0]
        assert all(f.endswith(suffix) for f in os.listdir(state_dir))
    assert scanned == [2]  # the aggregate's one restore: 0.0 and 1.0
