"""Golden tests pinning the on-disk state-checkpoint format byte-for-byte.

The expiry-indexed eviction, probe-based join, and interned-key cache are
pure in-memory structures: the base/delta files they produce must stay
byte-identical so old checkpoints restore and mixed old/new restarts
agree.  Any drift here is a recovery break, not a formatting nit.

The pins moved once, deliberately, with the record-framed codec
(``repro.streaming.statefile``): compact one-line-per-key files with a
header and a count+digest trailer replaced the pretty-printed
``snapshot``/``delta`` documents, bases are placed by the size-triggered
rebase rule instead of every tenth version (files this small all weigh
the 4 KiB floor, so bases and deltas alternate), and an inner join no
longer flips — or re-checkpoints — matched flags it never reads.
``tests/test_state_durability.py`` pins that the old documents still
restore.
"""

from __future__ import annotations

import json
import os

from repro.sql import functions as F

from tests.conftest import framed, make_stream, start_memory_query


AGG_GOLDEN = {
    "agg-0/0000000000.base.jsonl": framed(
        "base", 0, '["[\\"a\\", 0.0]",[1]]', '["[\\"b\\", 0.0]",[1]]'),
    "agg-0/0000000002.delta.jsonl": framed(
        "delta", 2, '["[\\"a\\", 0.0]",[2]]', '["[\\"c\\", 200.0]",[1]]'),
    # Epoch 3 evicted a/b; version 4 is a base, so they are simply absent.
    "agg-0/0000000004.base.jsonl": framed(
        "base", 4, '["[\\"c\\", 200.0]",[1]]', '["[\\"d\\", 210.0]",[2]]'),
}

JOIN_GOLDEN = {
    "join-left-0/0000000000.base.jsonl": framed(
        "base", 0, '["[1]",[[[1,1.0,"x"],false]]]'),
    # The right row matched, but an inner join keeps no matched flags:
    # the left side did not change, its delta is empty.
    "join-left-0/0000000001.delta.jsonl": framed("delta", 1),
    "join-left-0/0000000002.base.jsonl": framed(
        "base", 2, '["[1]",[[[1,1.0,"x"],false]]]',
        '["[2]",[[[2,3.0,"z"],false]]]'),
    "join-right-1/0000000000.base.jsonl": framed("base", 0),
    "join-right-1/0000000001.delta.jsonl": framed(
        "delta", 1, '["[1]",[[[1,2.0,"y"],false]]]'),
    "join-right-1/0000000002.base.jsonl": framed(
        "base", 2, '["[1]",[[[1,2.0,"y"],false]]]'),
}


def read_state_files(checkpoint: str) -> dict:
    state_dir = os.path.join(checkpoint, "state")
    found = {}
    for op in sorted(os.listdir(state_dir)):
        op_dir = os.path.join(state_dir, op)
        for name in sorted(os.listdir(op_dir)):
            path = os.path.join(op_dir, name)
            if os.path.isdir(path):
                continue  # the tiered backend's runs/ directory
            with open(path, encoding="utf-8") as f:
                found[f"{op}/{name}"] = f.read()
    return found


# Both golden queries pin ``state_backend`` to the dict engine: these
# bytes ARE the dict format, and must not drift even when the suite
# runs under REPRO_STATE_BACKEND=tiered.  The tiered manifest/run
# format has its own golden in tests/test_state_tiered.py.


def test_windowed_agg_checkpoint_bytes(session, checkpoint):
    stream = make_stream([("t", "timestamp"), ("k", "string")])
    df = session.read_stream.memory(stream).with_watermark("t", "100s")
    counts = df.group_by(F.window("t", "10s"), "k").count()
    query = start_memory_query(counts, "update", "golden-agg", checkpoint,
                               state_checkpoint_interval=2,
                               state_backend="dict")
    epochs = [
        [{"t": 1.0, "k": "a"}, {"t": 2.0, "k": "b"}],
        [{"t": 5.0, "k": "a"}],
        [{"t": 200.0, "k": "c"}],   # advances the watermark past window 0
        [{"t": 210.0, "k": "d"}],   # epoch 3: a/b evicted, checkpoint at 4
        [{"t": 211.0, "k": "d"}],
    ]
    for rows in epochs:
        stream.add_data(rows)
        query.process_all_available()

    assert read_state_files(checkpoint) == AGG_GOLDEN


# ---------------------------------------------------------------------------
# Z-set (retraction) state kinds
# ---------------------------------------------------------------------------
# Weighted aggregate state is ``[live_count, buffers]`` and weighted
# dedup state is ``[total, [[count, row], ...]]``: both are pinned here
# in the dict backend's base/delta files and in the tiered backend's
# sorted runs, so a retraction query's checkpoint restores across
# engine versions and backends.

ZSET_AGG_GOLDEN = {
    "agg-0/0000000000.base.jsonl": framed(
        "base", 0, '["[\\"a\\"]",[1,[[5,1],1]]]', '["[\\"b\\"]",[1,[[3,1],1]]]'),
    # Epoch 1's delete of b lands as a tombstone line; a's live count
    # and [sum, count] buffers advance additively.
    "agg-0/0000000002.delta.jsonl": framed(
        "delta", 2, '["[\\"a\\"]",[2,[[7,2],2]]]', '["[\\"b\\"]"]',
        '["[\\"c\\"]",[1,[[7,1],1]]]'),
    "agg-0/0000000004.base.jsonl": framed(
        "base", 4, '["[\\"a\\"]",[1,[[2,1],1]]]', '["[\\"c\\"]",[2,[[8,2],2]]]'),
}

ZSET_DEDUP_GOLDEN = {
    # Key "a" holds two distinct live rows (the stored row keeps its
    # weight slot, canonically 1); "b" one.
    "dedup-0/0000000000.base.jsonl": framed(
        "base", 0, '["[\\"a\\"]",[2,[[1,["a",1,1]],[1,["a",2,1]]]]]',
        '["[\\"b\\"]",[1,[[1,["b",9,1]]]]]'),
    # Deleting a's representative promotes the survivor; b disappears.
    "dedup-0/0000000002.delta.jsonl": framed(
        "delta", 2, '["[\\"a\\"]",[1,[[1,["a",2,1]]]]]', '["[\\"b\\"]"]'),
    "dedup-0/0000000004.base.jsonl": framed(
        "base", 4, '["[\\"a\\"]",[1,[[1,["a",2,1]]]]]'),
}

ZSET_TIERED_RUNS_GOLDEN = {
    "agg-0/runs/00000000.run": framed(
        "run", 0, '["[\\"a\\"]",[1,[[5,1],1]]]', '["[\\"b\\"]",[1,[[3,1],1]]]'),
    # b's delete becomes a tombstone line in the next sorted run.
    "agg-0/runs/00000001.run": framed(
        "run", 1, '["[\\"a\\"]",[2,[[7,2],2]]]', '["[\\"b\\"]"]',
        '["[\\"c\\"]",[1,[[7,1],1]]]'),
    "agg-0/runs/00000002.run": framed(
        "run", 2, '["[\\"a\\"]",[1,[[2,1],1]]]', '["[\\"c\\"]",[2,[[8,2],2]]]'),
}


def _weighted_agg_query(checkpoint, backend):
    from repro.sources import ChangeStream
    from repro.sql.session import Session
    from repro.sql.types import StructType

    session = Session()
    cdc = ChangeStream(StructType((("k", "string"), ("v", "long"))))
    df = (session.read_stream.cdc(cdc).group_by("k")
          .agg(F.sum("v").alias("s"), F.count().alias("n")))
    query = (df.write_stream.format("memory").query_name("golden-zset")
             .output_mode("retract")
             .option("state_checkpoint_interval", 2)
             .option("state_backend", backend)
             .start(checkpoint))
    return cdc, query


def _run_weighted_agg_epochs(cdc, query):
    epochs = [
        lambda: cdc.insert([{"k": "a", "v": 5}, {"k": "b", "v": 3}]),
        lambda: (cdc.delete([{"k": "b", "v": 3}]),
                 cdc.insert([{"k": "a", "v": 2}])),
        lambda: cdc.insert([{"k": "c", "v": 7}]),
        lambda: cdc.delete([{"k": "a", "v": 5}]),
        lambda: cdc.insert([{"k": "c", "v": 1}]),
    ]
    for step in epochs:
        step()
        query.process_all_available()


def test_weighted_agg_checkpoint_bytes(checkpoint):
    cdc, query = _weighted_agg_query(checkpoint, "dict")
    _run_weighted_agg_epochs(cdc, query)
    assert read_state_files(checkpoint) == ZSET_AGG_GOLDEN
    assert sorted(query.engine.sink.rows(), key=lambda r: r["k"]) == [
        {"k": "a", "s": 2, "n": 1}, {"k": "c", "s": 8, "n": 2}]


def test_weighted_dedup_checkpoint_bytes(session, checkpoint):
    from repro.sources import ChangeStream
    from repro.sql.types import StructType

    cdc = ChangeStream(StructType((("k", "string"), ("v", "long"))))
    df = session.read_stream.cdc(cdc).drop_duplicates(["k"])
    query = (df.write_stream.format("memory").query_name("golden-dd")
             .output_mode("retract")
             .option("state_checkpoint_interval", 2)
             .option("state_backend", "dict")
             .start(checkpoint))
    epochs = [
        lambda: cdc.insert([{"k": "a", "v": 1}, {"k": "a", "v": 2},
                            {"k": "b", "v": 9}]),
        lambda: cdc.delete([{"k": "a", "v": 1}]),
        lambda: cdc.delete([{"k": "b", "v": 9}]),
        lambda: cdc.insert([{"k": "a", "v": 2}]),
        lambda: cdc.delete([{"k": "a", "v": 2}]),
    ]
    for step in epochs:
        step()
        query.process_all_available()
    assert read_state_files(checkpoint) == ZSET_DEDUP_GOLDEN
    assert query.engine.sink.rows() == [{"k": "a", "v": 2}]


def test_weighted_agg_tiered_checkpoint_bytes(checkpoint):
    """The tiered backend spells the same Z-set values into sorted runs,
    with deletes as tombstones; manifests reference runs by content
    hash, so pinning run bytes pins the whole restore chain."""
    cdc, query = _weighted_agg_query(checkpoint, "tiered")
    _run_weighted_agg_epochs(cdc, query)
    state_dir = os.path.join(checkpoint, "state")
    found = {}
    for root, _dirs, files in os.walk(state_dir):
        for name in files:
            if name.endswith(".run"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as f:
                    found[os.path.relpath(path, state_dir)] = f.read()
    assert found == ZSET_TIERED_RUNS_GOLDEN
    with open(os.path.join(state_dir, "agg-0", "0000000004.manifest.json"),
              encoding="utf-8") as f:
        manifest = json.load(f)
    # The manifest pins each run by the digest in the run's own trailer.
    hashes = [
        json.loads(ZSET_TIERED_RUNS_GOLDEN[f"agg-0/runs/{seq:08d}.run"]
                   .splitlines()[-1])["sha256"]
        for seq in range(3)
    ]
    assert [run["sha256"] for run in manifest["runs"]] == hashes


def test_weighted_state_restores_across_backends(session, checkpoint):
    """dict -> tiered -> dict: each restart reads the previous backend's
    checkpoint (shared directory), keeps retracting, and lands on the
    same result table — for a JSONL aggregate and for a packed dedup,
    whose dict checkpoints are block files."""
    from repro.sources import ChangeStream
    from repro.sql.session import Session
    from repro.sql.types import StructType

    cdc = ChangeStream(StructType((("k", "string"), ("v", "long"))))

    def start(backend, sink=None):
        sess = Session()
        df = (sess.read_stream.cdc(cdc).group_by("k")
              .agg(F.sum("v").alias("s"), F.count().alias("n")))
        writer = df.write_stream.output_mode("retract")
        writer = (writer.sink(sink) if sink is not None
                  else writer.format("memory").query_name("xb"))
        return writer.option("state_backend", backend).start(checkpoint)

    query = start("dict")
    sink = query.engine.sink
    cdc.insert([{"k": "a", "v": 5}, {"k": "b", "v": 3}, {"k": "a", "v": 1}])
    query.process_all_available()
    query.stop()

    query = start("tiered", sink)
    cdc.delete([{"k": "a", "v": 5}])
    cdc.insert([{"k": "c", "v": 4}])
    query.process_all_available()
    query.stop()

    query = start("dict", sink)
    cdc.delete([{"k": "b", "v": 3}])
    cdc.insert([{"k": "a", "v": 10}])
    query.process_all_available()
    query.stop()

    assert sorted(sink.rows(), key=lambda r: r["k"]) == [
        {"k": "a", "s": 11, "n": 2}, {"k": "c", "s": 4, "n": 1}]

    # A packed weighted dedup's dict checkpoints are block files: the
    # tiered backend restores that chain into its memtable, and the dict
    # backend the chain the tiered one left.
    numeric = ChangeStream(StructType((("k", "long"), ("v", "double"))))
    packed = os.path.join(checkpoint, "packed")

    def start_dedup(backend, sink=None):
        df = Session().read_stream.cdc(numeric).drop_duplicates(["k"])
        writer = df.write_stream.output_mode("retract")
        writer = (writer.sink(sink) if sink is not None
                  else writer.format("memory").query_name("xb-dedup"))
        return writer.option("state_backend", backend).start(packed)

    query = start_dedup("dict")
    sink = query.engine.sink
    numeric.insert([{"k": 1, "v": 0.5}, {"k": 1, "v": 2.5},
                    {"k": 2, "v": -1.0}])
    query.process_all_available()
    query.stop()
    assert any(name.endswith(".block") for name in
               os.listdir(os.path.join(packed, "state", "dedup-0")))

    query = start_dedup("tiered", sink)
    numeric.delete([{"k": 1, "v": 0.5}])
    numeric.insert([{"k": 3, "v": 4.0}])
    query.process_all_available()
    query.stop()

    query = start_dedup("dict", sink)
    numeric.delete([{"k": 2, "v": -1.0}])
    numeric.insert([{"k": 2, "v": 7.0}])
    query.process_all_available()
    query.stop()

    assert sorted(sink.rows(), key=lambda r: r["k"]) == [
        {"k": 1, "v": 2.5}, {"k": 2, "v": 7.0}, {"k": 3, "v": 4.0}]


def test_stream_stream_join_checkpoint_bytes(session, checkpoint):
    ls = make_stream([("k", "long"), ("t", "timestamp"), ("l", "string")])
    rs = make_stream([("k", "long"), ("t2", "timestamp"), ("r", "string")])
    left = session.read_stream.memory(ls).with_watermark("t", "10s")
    right = session.read_stream.memory(rs).with_watermark("t2", "10s")
    joined = left.join(right, on="k")
    query = start_memory_query(joined, "append", "golden-join", checkpoint,
                               state_backend="dict")

    ls.add_data([{"k": 1, "t": 1.0, "l": "x"}])
    query.process_all_available()
    rs.add_data([{"k": 1, "t2": 2.0, "r": "y"}])
    query.process_all_available()
    ls.add_data([{"k": 2, "t": 3.0, "l": "z"}])
    query.process_all_available()

    assert read_state_files(checkpoint) == JOIN_GOLDEN
