"""Hash-partitioned parallel epoch execution (§6.1–§6.2).

The partitioned execution layer must be *invisible* in every observable
output: sink rows, checkpoint bytes, and recovery behaviour may not
depend on the shard count.  These tests pin that contract:

* the vectorized hash kernel agrees with its scalar path row-for-row;
* N-shard execution produces byte-identical sink output and checkpoint files to single-shard
  execution;
* a checkpoint written at N shards restores exactly at M shards
  (state rescaling via deterministic key re-hashing);
* hypothesis drives random batches/keys/shard counts through the same
  invariants.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sql import functions as F
from repro.sql.batch import (
    RecordBatch,
    hash_partition,
    partition_by_assignment,
    shard_assignments,
    shard_of_key,
    stable_hash_key,
    stable_hash_value,
)
from repro.sql.types import StructType
from repro.streaming.state import OperatorStateHandle, encode_key

from tests.conftest import make_stream, rows_set, start_memory_query
from tests.test_checkpoint_format import read_state_files


# ---------------------------------------------------------------------------
# Hash kernel
# ---------------------------------------------------------------------------

hashable_values = st.one_of(
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(max_size=12),
    st.none(),
)


class TestHashKernel:
    @given(st.lists(hashable_values, min_size=1, max_size=4))
    def test_scalar_matches_vectorized(self, key):
        """The per-key scalar hash and the columnar batch hash agree —
        state rescaling (scalar) and epoch partitioning (vector) must
        route every key identically."""
        arrays = []
        for v in key:
            if isinstance(v, bool):
                arrays.append(np.array([v], dtype=bool))
            elif isinstance(v, int):
                arrays.append(np.array([v], dtype=np.int64))
            elif isinstance(v, float):
                arrays.append(np.array([v], dtype=np.float64))
            else:
                arrays.append(np.array([v], dtype=object))
        assign = shard_assignments(arrays, 7)
        assert int(assign[0]) == shard_of_key(tuple(key), 7)

    def test_hash_is_stable_across_calls(self):
        assert stable_hash_key(("a", 1.5)) == stable_hash_key(("a", 1.5))
        assert stable_hash_value("x") != stable_hash_value("y")

    def test_partition_covers_every_row_exactly_once(self):
        batch = RecordBatch.from_rows(
            [{"k": i % 5, "v": float(i)} for i in range(97)],
            StructType((("k", "long"), ("v", "double"))),
        )
        parts, indices = hash_partition(batch, ["k"], 4)
        assert sum(p.num_rows for p in parts) == batch.num_rows
        together = np.sort(np.concatenate(indices))
        assert together.tolist() == list(range(97))
        # Same key never lands in two shards.
        for part in parts:
            for k in np.unique(part.columns["k"]):
                home = shard_of_key((int(k),), 4)
                assert parts[home].num_rows > 0

    def test_single_shard_assignment_is_all_zero(self):
        assign = shard_assignments([np.arange(10)], 1)
        assert not assign.any()

    def test_partition_by_assignment_roundtrip(self):
        batch = RecordBatch.from_rows(
            [{"k": i} for i in range(10)], StructType((("k", "long"),)))
        assign = np.array([i % 3 for i in range(10)], dtype=np.int64)
        parts, indices = partition_by_assignment(batch, assign, 3)
        for shard, idx in enumerate(indices):
            assert (assign[idx] == shard).all()


# ---------------------------------------------------------------------------
# Pipeline equivalence: sink rows + checkpoint bytes shard-invariant
# ---------------------------------------------------------------------------

AGG_EPOCHS = [
    [{"t": float(i), "k": f"k{i % 7}"} for i in range(40)],
    [{"t": 40.0 + i, "k": f"k{i % 5}"} for i in range(25)],
    [{"t": 200.0, "k": "late-watermark-push"}],
    [{"t": 205.0 + i, "k": f"k{i % 3}"} for i in range(9)],
]


def run_windowed_agg(session_cls, checkpoint, num_shards, epochs=AGG_EPOCHS,
                     **options):
    """``options`` are further writer options."""
    session = session_cls()
    stream = make_stream([("t", "timestamp"), ("k", "string")])
    df = session.read_stream.memory(stream).with_watermark("t", "50s")
    counts = df.group_by(F.window("t", "10s"), "k").count()
    # The state-file byte comparisons pin the dict backend: tiered run
    # files are cut wherever the memtable happens to fill, and per-shard
    # arrival order moves those boundaries — by design, only the dict
    # delta/snapshot format is byte-identical across shard counts.  (The
    # tiered format's own determinism golden — replay produces the same
    # runs — lives in tests/test_state_tiered.py.)
    options = {"num_shards": num_shards, "state_backend": "dict", **options}
    query = start_memory_query(counts, "update", "parteq", checkpoint,
                               **options)
    outputs = []
    for rows in epochs:
        stream.add_data(rows)
        query.process_all_available()
        outputs.append(list(query.engine.sink.rows()))
    query.stop()
    return outputs


class TestShardCountInvariance:
    def _reference(self, tmp_path):
        from repro.sql.session import Session

        ref_dir = str(tmp_path / "ref")
        out = run_windowed_agg(Session, ref_dir, 1)
        return out, read_state_files(ref_dir)

    @pytest.mark.parametrize("num_shards", [2, 3, 4, 8])
    def test_agg_output_and_checkpoint_bytes(self, tmp_path, num_shards):
        from repro.sql.session import Session

        ref_out, ref_files = self._reference(tmp_path)
        shard_dir = str(tmp_path / f"s{num_shards}")
        out = run_windowed_agg(Session, shard_dir, num_shards)
        assert out == ref_out
        assert read_state_files(shard_dir) == ref_files

    @pytest.mark.parametrize("weighted", [False, True])
    def test_agg_checkpoint_fingerprint_at_1_and_4_shards(
            self, tmp_path, weighted):
        """The whole durable checkpoint (WAL entries + state files), not
        only the state files, is shard-count-invariant for append input
        and for weighted (retraction) input alike."""
        from repro.sources import ChangeStream
        from repro.sql.session import Session
        from repro.testing.harness import checkpoint_fingerprint

        def run_weighted(checkpoint, num_shards):
            cdc = ChangeStream(StructType((("k", "string"), ("v", "long"))))
            df = (Session().read_stream.cdc(cdc).group_by("k")
                  .agg(F.count().alias("n"), F.sum("v").alias("s")))
            query = (df.write_stream.format("memory").query_name("fp")
                     .output_mode("retract")
                     .option("num_shards", num_shards)
                     .option("state_backend", "dict").start(checkpoint))
            rows = [{"k": f"k{i % 9}", "v": i} for i in range(30)]
            cdc.insert(rows)
            query.process_all_available()
            cdc.delete(rows[::2])         # k0's rows all go: a tombstone
            cdc.delete([r for r in rows[1::2] if r["k"] == "k0"])
            cdc.insert([{"k": "k9", "v": 1}])
            query.process_all_available()
            out = list(query.engine.sink.rows())
            query.stop()
            return out

        run = (run_weighted if weighted else
               lambda checkpoint, n: run_windowed_agg(Session, checkpoint, n))
        outs = {n: run(str(tmp_path / f"fp{n}"), n) for n in (1, 4)}
        assert outs[1] == outs[4] and outs[1]
        assert (checkpoint_fingerprint(str(tmp_path / "fp1"))
                == checkpoint_fingerprint(str(tmp_path / "fp4")))

    def test_agg_with_scheduler_matches_serial(self, tmp_path):
        """Shard-task execution (4 shards, one task per shard) produces
        exactly the serial single-shard bytes."""
        from repro.observability import tracing
        from repro.sql.session import Session

        ref_out, ref_files = self._reference(tmp_path)
        par_dir = str(tmp_path / "par")
        with tracing.enabled() as tracer:
            out = run_windowed_agg(Session, par_dir, 4)
        assert out == ref_out
        assert read_state_files(par_dir) == ref_files
        # The fold really split: the delta is partitioned by window start,
        # and more than one shard task ran.
        shards = {span["name"] for span in tracer.spans
                  if span["name"].startswith("task:agg:shard")}
        assert len(shards) > 1

    def test_dedup_invariant(self, tmp_path):
        from repro.sql.session import Session

        def run(num_shards):
            session = Session()
            stream = make_stream([("k", "long"), ("t", "timestamp")])
            df = (session.read_stream.memory(stream)
                  .with_watermark("t", "10s").drop_duplicates(["k"]))
            query = start_memory_query(
                df, "append", "dedup", str(tmp_path / f"d{num_shards}"),
                num_shards=num_shards, state_backend="dict")
            outputs = []
            for rows in [
                [{"k": i % 6, "t": float(i)} for i in range(20)],
                [{"k": i % 11, "t": 20.0 + i} for i in range(22)],
                [{"k": 99, "t": 100.0}],
            ]:
                stream.add_data(rows)
                query.process_all_available()
                outputs.append(list(query.engine.sink.rows()))
            query.stop()
            return outputs, read_state_files(str(tmp_path / f"d{num_shards}"))

        ref = run(1)
        for n in (2, 5):
            assert run(n) == ref

    def test_join_invariant(self, tmp_path):
        from repro.sql.session import Session

        def run(num_shards):
            session = Session()
            ls = make_stream([("k", "long"), ("t", "timestamp"), ("l", "string")])
            rs = make_stream([("k", "long"), ("t2", "timestamp"), ("r", "string")])
            left = session.read_stream.memory(ls).with_watermark("t", "30s")
            right = session.read_stream.memory(rs).with_watermark("t2", "30s")
            joined = left.join(right, on="k")
            query = start_memory_query(
                joined, "append", "join", str(tmp_path / f"j{num_shards}"),
                num_shards=num_shards, state_backend="dict")
            outputs = []
            steps = [
                (ls, [{"k": i % 8, "t": float(i), "l": f"l{i}"} for i in range(16)]),
                (rs, [{"k": i % 8, "t2": float(i), "r": f"r{i}"} for i in range(12)]),
                (ls, [{"k": 3, "t": 20.0, "l": "again"}]),
                (rs, [{"k": 99, "t2": 100.0, "r": "expire"}]),
            ]
            for stream, rows in steps:
                stream.add_data(rows)
                query.process_all_available()
                outputs.append(list(query.engine.sink.rows()))
            query.stop()
            return outputs, read_state_files(str(tmp_path / f"j{num_shards}"))

        ref = run(1)
        for n in (2, 4):
            assert run(n) == ref


# ---------------------------------------------------------------------------
# State rescaling: restore an N-shard checkpoint at M shards
# ---------------------------------------------------------------------------

class TestStateRescaling:
    @pytest.mark.parametrize("n,m", [(1, 4), (4, 1), (3, 5), (8, 2)])
    def test_handle_rescale_exact(self, tmp_path, n, m):
        src = OperatorStateHandle(str(tmp_path / "h"), num_shards=n)
        src.set_expiry(lambda key, value: value["v"])
        for i in range(50):
            src.put((f"k{i}", i % 3), {"v": float(i)})
        src.commit(0)

        dst = OperatorStateHandle(str(tmp_path / "h"), num_shards=m)
        dst.restore(0)
        dst.set_expiry(lambda key, value: value["v"])
        assert sorted(dst.items()) == sorted(src.items())
        assert dst.next_expiry() == src.next_expiry()
        assert dst.pop_expired(25.0) == src.pop_expired(25.0)

    @pytest.mark.parametrize("n,m", [(1, 4), (4, 2), (2, 8)])
    def test_query_restart_rescaled(self, tmp_path, n, m):
        """Stop a query running at N shards, restart the same checkpoint
        at M shards: continued output matches an uninterrupted 1-shard
        run over the full input."""
        from repro.sql.session import Session

        first, rest = AGG_EPOCHS[:2], AGG_EPOCHS[2:]
        # The reference also restarts at the split (the memory sink is
        # reborn empty on restart); only the shard count differs.
        ref_dir = str(tmp_path / "ref")
        run_windowed_agg(Session, ref_dir, 1, epochs=first)
        ref_cont = run_windowed_agg(Session, ref_dir, 1, epochs=rest)

        rescale_dir = str(tmp_path / "rescale")
        run_windowed_agg(Session, rescale_dir, n, epochs=first)
        out = run_windowed_agg(Session, rescale_dir, m, epochs=rest)
        assert out == ref_cont
        assert read_state_files(rescale_dir) == read_state_files(ref_dir)


# ---------------------------------------------------------------------------
# Property-based: random batches / keys / shard counts
# ---------------------------------------------------------------------------

keys = st.sampled_from(["a", "b", "c", "d", "e", "f"])
rows = st.builds(lambda k, t: {"k": k, "t": float(t)},
                 keys, st.integers(min_value=0, max_value=120))
epoch_lists = st.lists(st.lists(rows, min_size=0, max_size=25),
                       min_size=1, max_size=4)


@pytest.mark.slow
@given(epochs=epoch_lists,
       n=st.integers(min_value=2, max_value=8),
       m=st.integers(min_value=1, max_value=8))
def test_property_shard_and_rescale_equivalence(tmp_path_factory, epochs, n, m):
    """For random inputs and shard counts: N-shard output == 1-shard
    output, and an N-shard checkpoint restored at M shards continues
    identically to a 1-shard checkpoint restored at 1 shard."""
    from repro.sql.session import Session

    tmp = tmp_path_factory.mktemp("prop")

    def run(directory, num_shards, eps):
        return run_windowed_agg(Session, str(tmp / directory), num_shards,
                                epochs=eps)

    ref = run("reffull", 1, epochs)
    assert run("shard", n, epochs) == ref
    assert (read_state_files(str(tmp / "shard"))
            == read_state_files(str(tmp / "reffull")))

    split = max(1, len(epochs) // 2)
    run("ref", 1, epochs[:split])
    ref_cont = run("ref", 1, epochs[split:])
    run("rescale", n, epochs[:split])
    continued = run("rescale", m, epochs[split:])
    assert continued == ref_cont
    assert (read_state_files(str(tmp / "rescale"))
            == read_state_files(str(tmp / "ref")))


# ---------------------------------------------------------------------------
# run_op_shard_tasks, the one dispatcher
# ---------------------------------------------------------------------------

class _SquareOp:
    def square(self, x):
        return x * x


def test_run_shard_tasks_orders_and_skips_none():
    from repro.observability import tracing
    from repro.streaming.operators import EpochContext, run_op_shard_tasks
    from repro.streaming.watermark import WatermarkTracker

    ctx = EpochContext(epoch_id=0, inputs={}, watermarks=WatermarkTracker({}),
                       processing_time=0.0, output_mode="append")
    payloads = [(i,) for i in range(5)]
    payloads[2] = None
    with tracing.enabled() as tracer:
        results = run_op_shard_tasks(ctx, ("t", 1), _SquareOp(), "square",
                                     payloads)
    assert results == [0, 1, None, 9, 16]
    # One task span per runnable shard, none for the empty one.
    names = [span["name"] for span in tracer.spans
             if span["name"].startswith("task:")]
    assert sorted(names) == [f"task:t:shard{i}" for i in (0, 1, 3, 4)]


# ---------------------------------------------------------------------------
# Shard tasks name their shard: get_many / apply under a shard index
# ---------------------------------------------------------------------------

class TestShardOwnedAccess:
    @pytest.mark.parametrize("tiered", [False, True])
    def test_wrong_shard_raises_instead_of_forking_the_key(self, tmp_path, tiered):
        from repro.streaming.state_lsm import TieredOperatorStateHandle

        make = TieredOperatorStateHandle if tiered else OperatorStateHandle
        handle = make(str(tmp_path / "h"), num_shards=4)
        key = ("k7", 1)
        enc = encode_key(key)
        own = handle.shard_index(key)
        other = (own + 1) % 4
        handle.apply([(enc, key, "v1")], [], shard=own)
        for attempt in ([(enc, key, "v2")], []), ([], [(enc, key)]):
            with pytest.raises(ValueError, match="belongs to shard"):
                handle.apply(*attempt, shard=other)
        # One life, in the shard its hash routes to — where a restore
        # (which re-routes every key) will look for it.
        assert len(handle) == 1 and handle.get(key) == "v1"
        assert handle.get_many([enc], [key], shard=own) == ["v1"]
        assert handle.get_many([enc], [key], shard=other) == [None]
        assert handle.get_many([enc], [key]) == ["v1"]
        # An update of a key the shard already holds is not re-hashed.
        handle.shard_index = None
        handle.apply([(enc, key, "v3")], [], shard=own)
        assert handle.get_many([enc], [key], shard=own) == ["v3"]
        handle.close()

    def test_aligned_operator_applies_under_the_task_shard(self, tmp_path):
        """An aligned operator's shard tasks write under their own index
        (dedup: state key == partition key), and every key they write
        does route there."""
        from repro.sql.session import Session
        from repro.streaming.state import OperatorStateHandle as Handle

        seen = []
        real_apply = Handle.apply

        def apply(self, puts, removes, shard=None):
            seen.append((shard, [self.shard_index(k) for _, k, _ in puts]))
            real_apply(self, puts, removes, shard)

        stream = make_stream((("k", "string"), ("t", "double")))
        df = Session().read_stream.memory(stream).drop_duplicates(["k"])
        query = start_memory_query(
            df, "append", "owned", str(tmp_path / "ckpt"), num_shards=4)
        Handle.apply = apply
        try:
            stream.add_data([{"k": f"k{i}", "t": float(i)} for i in range(40)])
            query.process_all_available()
        finally:
            Handle.apply = real_apply
            query.stop()
        assert len(seen) > 1
        assert all(shard is not None and set(routed) <= {shard}
                   for shard, routed in seen)
