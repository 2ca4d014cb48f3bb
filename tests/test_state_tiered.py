"""Tiered (LSM) state backend: equivalence with the dict backend,
on-disk format goldens, and crash-window determinism.

The equivalence property is the backend's contract: any sequence of
``put``/``remove``/``pop_expired`` (with commits and restores into
fresh handles interleaved) observes identical state through either
backend.  One asymmetry is inherent and canonicalized away here: a
spilled value round-trips through JSON (tuples become lists) *earlier*
than the dict backend's (which round-trips at its first restore), so
comparisons go through a JSON canonicalization — the same equivalence
class every caller already must respect to survive a restart.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage import read_json
from repro.streaming.state import OperatorStateHandle, StateStore
from repro.streaming.state_lsm import (
    COMPACT_FANIN,
    TOMBSTONE,
    SortedRun,
    TieredOperatorStateHandle,
    _bloom_hash,
    _MISS,
)
from repro.testing.faults import CrashPoint, Fault, FaultInjector, injected
from repro.testing.oracle import canonical_rows

from tests.conftest import framed, make_stream, rows_set, start_memory_query


def canon(value):
    return json.loads(json.dumps(value, sort_keys=True))


def tiered(directory, budget=256):
    return TieredOperatorStateHandle(str(directory), memtable_bytes=budget)


# ----------------------------------------------------------------------
# Point lookups, spill, and the probe structures
# ----------------------------------------------------------------------
def test_spill_and_probe_through_runs(tmp_path):
    h = tiered(tmp_path / "op", budget=300)
    for i in range(120):
        h.put(("k", i), {"n": i})
    assert len(h._runs) > 1, "budget never forced a spill"
    for i in range(120):
        assert h.get(("k", i)) == {"n": i}
    assert h.get(("k", 999)) is None
    assert len(h) == 120
    assert sorted(h.keys()) == sorted(("k", i) for i in range(120))


def test_remove_masks_spilled_value(tmp_path):
    h = tiered(tmp_path / "op", budget=200)
    for i in range(40):
        h.put(i, [i])
    h.remove(3)
    assert h.get(3) is None and not h.contains(3)
    assert len(h) == 39
    assert 3 not in dict(h.items())
    h.remove(3)  # idempotent: no double-decrement
    assert len(h) == 39
    h.put(3, [99])  # re-put over a tombstone
    assert h.get(3) == [99] and len(h) == 40


def test_overwrite_newest_run_wins(tmp_path):
    h = tiered(tmp_path / "op", budget=200)
    for round_ in range(3):
        for i in range(25):
            h.put(i, {"round": round_, "i": i})
    assert len(h) == 25
    assert all(h.get(i)["round"] == 2 for i in range(25))


def test_sorted_run_probe_structures(tmp_path):
    items = [(json.dumps(f"key{i:04d}"), {"v": i}) for i in range(500)]
    run = SortedRun.create(str(tmp_path), 0, items)
    assert run.count == 500
    assert len(run._index_keys) == 500 // 64 + 1  # sparse, not per-key
    for encoded, value in items:
        assert run.get(encoded, *_bloom_hash(encoded)) == value
    missing = json.dumps("nope")
    assert run.get(missing, *_bloom_hash(missing)) is _MISS
    # fences reject without touching the bloom or the file
    below = json.dumps("aaa")
    assert run.get(below, *_bloom_hash(below)) is _MISS
    assert [k for k, _ in run.scan()] == [k for k, _ in items]
    run.close()


def test_bloom_filter_has_no_false_negatives(tmp_path):
    items = [(json.dumps([i, "x" * (i % 7)]), i) for i in range(1000)]
    run = SortedRun.create(str(tmp_path), 0, sorted(items))
    hits = sum(run._bloom_contains(*_bloom_hash(e)) for e, _ in items)
    assert hits == len(items)
    absent = [json.dumps([i, "absent"]) for i in range(2000, 4000)]
    false_pos = sum(run._bloom_contains(*_bloom_hash(e)) for e in absent)
    assert false_pos < len(absent) * 0.05  # ~0.15% expected at 14 bits/key
    run.close()


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
def test_compaction_bounds_run_count_and_preserves_state(tmp_path):
    h = tiered(tmp_path / "op", budget=180)
    for i in range(300):
        h.put(i % 60, {"v": i})
    assert len(h._runs) < COMPACT_FANIN * 4, (
        f"{len(h._runs)} runs survived; compaction never bounded the set"
    )
    assert len(h) == 60
    assert all(h.get(k) == {"v": max(i for i in range(300) if i % 60 == k)}
               for k in range(60))


def test_compaction_drops_tombstones_only_at_oldest_run(tmp_path):
    h = tiered(tmp_path / "op", budget=150)
    for i in range(40):
        h.put(i, [i])
    for i in range(40):
        h.remove(i)
    for i in range(100, 160):
        h.put(i, [i])  # churn to force full-depth compactions
    assert len(h) == 60
    assert all(h.get(i) is None for i in range(40))
    # once every merge reached the oldest run, no tombstone survives
    if len(h._runs) == 1:
        assert all(v is not TOMBSTONE for _, v in h._runs[0].scan())


# ----------------------------------------------------------------------
# Commit / restore / prune
# ----------------------------------------------------------------------
def test_commit_cost_tracks_delta_not_total_state(tmp_path):
    h = tiered(tmp_path / "op", budget=10_000)
    for i in range(500):
        h.put(i, [i])
    first = h.commit(1)
    h.put(0, [-1])
    second = h.commit(2)
    assert first["keys_written"] == 500
    assert second["keys_written"] == 1
    # the delta commit reuses every earlier run file untouched
    m1 = read_json(str(tmp_path / "op" / "0000000001.manifest.json"))
    m2 = read_json(str(tmp_path / "op" / "0000000002.manifest.json"))
    reused = {(r["seq"], r["sha256"]) for r in m1["runs"]}
    assert reused <= {(r["seq"], r["sha256"]) for r in m2["runs"]}
    new_runs = [r for r in m2["runs"]
                if (r["seq"], r["sha256"]) not in reused]
    assert sum(r["count"] for r in new_runs) == 1


def test_restore_and_prune_keeps_referenced_runs(tmp_path):
    h = tiered(tmp_path / "op", budget=250)
    for i in range(80):
        h.put(("u", i), {"n": i})
    h.commit(1)
    for i in range(40):
        h.remove(("u", i))
    h.commit(2)

    h5 = tiered(tmp_path / "op", budget=250)
    assert h5.restore(2) == 2
    assert len(h5) == 40
    assert h5.get(("u", 70)) == {"n": 70} and h5.get(("u", 10)) is None
    # rollback to version 1 still possible before pruning
    h1 = tiered(tmp_path / "op", budget=10_000)
    assert h1.restore(1) == 1 and len(h1) == 80

    h5.prune(2)
    manifest = read_json(str(tmp_path / "op" / "0000000002.manifest.json"))
    on_disk = {int(n.split(".")[0])
               for n in os.listdir(tmp_path / "op" / "runs")
               if n.endswith(".run")}
    assert on_disk == {r["seq"] for r in manifest["runs"]}
    assert not os.path.exists(tmp_path / "op" / "0000000001.manifest.json")
    h6 = tiered(tmp_path / "op", budget=250)
    assert h6.restore(2) == 2 and len(h6) == 40


def _content_digest(path) -> str:
    """SHA-256 of a run's header and records (everything its trailer
    line vouches for), which must equal the digest in that trailer."""
    lines = path.read_bytes().splitlines(keepends=True)
    digest = hashlib.sha256(b"".join(lines[:-1])).hexdigest()
    assert json.loads(lines[-1])["sha256"] == digest
    return digest


def test_manifest_sha_matches_run_file_contents(tmp_path):
    h = tiered(tmp_path / "op", budget=200)
    for i in range(50):
        h.put(i, {"v": i})
    h.commit(7)
    manifest = read_json(str(tmp_path / "op" / "0000000007.manifest.json"))
    assert manifest["runs"], "commit produced no runs"
    for entry in manifest["runs"]:
        path = tmp_path / "op" / "runs" / f"{entry['seq']:08d}.run"
        assert _content_digest(path) == entry["sha256"]


def test_one_apply_seals_by_its_set_of_writes(tmp_path):
    """The same puts and removes in another order seal the same runs:
    a grouped aggregate's per-part fold and its concatenated fold write
    one epoch's keys in different orders and must agree byte for byte."""
    from repro.streaming.state import encode_key

    digests = []
    for name, order in (("fwd", 1), ("rev", -1)):
        h = tiered(tmp_path / name, budget=200)
        h.apply([(encode_key(i), i, {"v": i}) for i in range(8)], [])
        h.commit(0)
        puts = [(encode_key(i), i, {"v": -i}) for i in range(4, 40)]
        removes = [(encode_key(i), i) for i in range(3)]
        h.apply(puts[::order], removes[::order])
        h.commit(1)
        assert len(h._runs) > 2, "budget never sealed inside the apply"
        digests.append([(entry["seq"], entry["sha256"]) for entry in read_json(
            str(tmp_path / name / "0000000001.manifest.json"))["runs"]])
    assert digests[0] == digests[1]


def test_tiered_reads_dict_checkpoints_and_vice_versa(tmp_path):
    hd = OperatorStateHandle(str(tmp_path / "op"))
    for i in range(30):
        hd.put(i, i * 2)
    hd.commit(2)            # snapshot
    hd.put(1, -1)
    hd.remove(2)
    hd.commit(3)            # delta
    ht = tiered(tmp_path / "op", budget=150)
    assert ht.restore(3) == 3
    assert ht.get(1) == -1 and ht.get(2) is None and len(ht) == 29
    ht.put(99, [1])         # spills the inherited legacy state
    ht.commit(4)
    # ...and the dict backend still restores its own older versions
    hd2 = OperatorStateHandle(str(tmp_path / "op"))
    assert hd2.restore(3) == 3 and hd2.get(1) == -1 and len(hd2) == 29


def test_store_backend_selection(tmp_path):
    store = StateStore(str(tmp_path / "a"), backend="tiered",
                       memtable_bytes=123)
    handle = store.handle("op")
    assert isinstance(handle, TieredOperatorStateHandle)
    assert handle.memtable_bytes == 123
    assert not isinstance(StateStore(str(tmp_path / "c")).handle("op"),
                          TieredOperatorStateHandle)
    with pytest.raises(ValueError):
        StateStore(str(tmp_path / "d"), backend="rocksdb")


# ----------------------------------------------------------------------
# Crash windows
# ----------------------------------------------------------------------
def _fill(handle, n=60):
    for i in range(n):
        handle.put(i, {"v": i})


def _checkpoint_bytes(directory):
    out = {}
    for root, _dirs, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            out[os.path.relpath(path, directory)] = open(path, "rb").read()
    return out


def test_flush_crash_recovers_byte_identical(tmp_path):
    golden_dir, crash_dir = tmp_path / "golden", tmp_path / "crash"
    golden = tiered(golden_dir, budget=200)
    _fill(golden)
    golden.commit(1)

    crashed = tiered(crash_dir, budget=200)
    with injected(FaultInjector([Fault("state.flush_crash", occurrence=2)])):
        with pytest.raises(CrashPoint):
            _fill(crashed)
    # restart: orphaned runs are GC'd at construction, replay reproduces
    # the same flush boundaries, and the commit lands byte-identical
    restarted = tiered(crash_dir, budget=200)
    restarted.restore(restarted.latest_version())
    _fill(restarted)
    restarted.commit(1)
    assert _checkpoint_bytes(crash_dir) == _checkpoint_bytes(golden_dir)


def test_compaction_crash_recovers_byte_identical(tmp_path):
    golden_dir, crash_dir = tmp_path / "golden", tmp_path / "crash"
    golden = tiered(golden_dir, budget=150)
    _fill(golden, 80)
    golden.commit(1)

    crashed = tiered(crash_dir, budget=150)
    with injected(FaultInjector([Fault("state.compaction_crash",
                                       occurrence=1)])):
        with pytest.raises(CrashPoint):
            _fill(crashed, 80)
    restarted = tiered(crash_dir, budget=150)
    restarted.restore(restarted.latest_version())
    _fill(restarted, 80)
    restarted.commit(1)
    assert _checkpoint_bytes(crash_dir) == _checkpoint_bytes(golden_dir)


# ----------------------------------------------------------------------
# On-disk format golden (any drift here is a recovery break)
# ----------------------------------------------------------------------
TIERED_RUNS_GOLDEN = {
    "runs/00000000.run": framed("run", 0, '["\\"a\\"",[1]]', '["\\"b\\"",[2]]'),
    "runs/00000001.run": framed("run", 1, '["\\"c\\"",[3]]'),
    # commit 2's run: one overwrite plus one tombstone line for "b"
    "runs/00000002.run": framed("run", 2, '["\\"a\\"",[9]]', '["\\"b\\""]'),
}


def _manifest(live: int, next_seq: int, *runs) -> str:
    """A manifest pinning ``(seq, count)`` runs by their trailer digest."""
    return json.dumps({
        "kind": "manifest", "live_keys": live, "live_rows": live,
        "next_seq": next_seq,
        "runs": [
            {"seq": seq, "count": count, "sha256": json.loads(
                TIERED_RUNS_GOLDEN[f"runs/{seq:08d}.run"]
                .splitlines()[-1])["sha256"]}
            for seq, count in runs],
    }, indent=2, sort_keys=True)


TIERED_GOLDEN = {
    "0000000001.manifest.json": _manifest(3, 2, (0, 2), (1, 1)),
    "0000000002.manifest.json": _manifest(2, 3, (0, 2), (1, 1), (2, 2)),
    **TIERED_RUNS_GOLDEN,
}


def test_tiered_checkpoint_format_golden(tmp_path):
    h = tiered(tmp_path / "op", budget=220)
    h.put("a", [1])
    h.put("b", [2])
    h.put("c", [3])
    h.commit(1)
    h.put("a", [9])
    h.remove("b")
    h.commit(2)
    found = {}
    for root, _dirs, files in os.walk(tmp_path / "op"):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, tmp_path / "op")
            if rel.endswith(".meta"):
                continue  # derived from the .run bytes (sha is pinned)
            found[rel] = open(path, encoding="utf-8").read()
    assert found == TIERED_GOLDEN
    meta = read_json(str(tmp_path / "op" / "runs" / "00000000.meta"))
    assert meta["count"] == 2 and meta["index_keys"] == ['"a"']
    assert meta["min_key"] == '"a"' and meta["max_key"] == '"b"'
    assert meta["sha256"] == _content_digest(
        tmp_path / "op" / "runs" / "00000000.run")


# ----------------------------------------------------------------------
# Property: dict and tiered backends are observationally identical
# ----------------------------------------------------------------------
KEYS = st.one_of(
    st.integers(0, 15),
    st.tuples(st.sampled_from(["u", "v"]), st.integers(0, 6)),
)
VALUES = st.fixed_dictionaries({
    "t": st.integers(0, 50),
    "payload": st.lists(st.integers(-5, 5), max_size=3),
})
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, VALUES),
        st.tuples(st.just("remove"), KEYS),
        st.tuples(st.just("pop"), st.integers(0, 50)),
        st.tuples(st.just("cycle")),
    ),
    min_size=5, max_size=60,
)


def _expiry(_key, value):
    return value["t"]


@given(ops=OPS, budget=st.integers(64, 600))
def test_dict_and_tiered_observationally_identical(ops, budget,
                                                   tmp_path_factory):
    root = tmp_path_factory.mktemp("equiv")
    dict_h = OperatorStateHandle(str(root / "dict"))
    tier_h = tiered(root / "tier", budget=budget)
    dict_h.set_expiry(_expiry)
    tier_h.set_expiry(_expiry)
    version = 0
    for op in ops:
        if op[0] == "put":
            dict_h.put(op[1], op[2])
            tier_h.put(op[1], op[2])
        elif op[0] == "remove":
            dict_h.remove(op[1])
            tier_h.remove(op[1])
        elif op[0] == "pop":
            assert canon(dict_h.pop_expired(op[1])) == \
                canon(tier_h.pop_expired(op[1]))
        else:  # commit + reopen in fresh handles
            version += 1
            dict_h.commit(version)
            tier_h.commit(version)
            dict_h = OperatorStateHandle(str(root / "dict"))
            tier_h = tiered(root / "tier", budget=budget)
            dict_h.set_expiry(_expiry)
            tier_h.set_expiry(_expiry)
            assert dict_h.restore(version) == tier_h.restore(version)
        assert len(dict_h) == len(tier_h)
    assert canon(sorted(dict_h.items(), key=lambda kv: str(kv[0]))) == \
        canon(sorted(tier_h.items(), key=lambda kv: str(kv[0])))
    assert canon(dict_h.next_expiry()) == canon(tier_h.next_expiry())


# ----------------------------------------------------------------------
# Engine-level: identical sink output across backends
# ----------------------------------------------------------------------
def _drive_agg(backend, checkpoint, budget=None):
    stream = make_stream([("t", "timestamp"), ("k", "string")])
    from repro.sql.session import Session
    from repro.sql import functions as F

    session = Session()
    df = (session.read_stream.memory(stream).with_watermark("t", "20s")
          .group_by(F.window("t", "10s"), "k").count())
    options = {"state_backend": backend}
    if budget is not None:
        options["state_memtable_bytes"] = budget
    query = start_memory_query(df, "append", f"bk-{backend}", checkpoint,
                               **options)
    for chunk in range(6):
        stream.add_data([
            {"t": float(chunk * 10 + j), "k": f"k{j % 4}"}
            for j in range(8)
        ])
        query.process_all_available()
    return query


def test_engine_sink_output_identical_across_backends(tmp_path):
    queries = {
        backend: _drive_agg(backend, str(tmp_path / backend), budget)
        for backend, budget in (("dict", None), ("tiered", 256))
    }
    sinks = {}
    for backend, query in queries.items():
        sinks[backend] = rows_set(query.engine.sink.rows())
        query.stop()
    assert sinks["dict"] == sinks["tiered"]
    assert sinks["dict"], "workload emitted nothing; test is vacuous"


def _fds_under(directory) -> list:
    """Open descriptors of this process that point below ``directory``."""
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # the listing's own descriptor, already closed
        if target.startswith(str(directory)):
            found.append(target)
    return found


def test_stop_closes_spilled_run_descriptors(tmp_path):
    checkpoint = tmp_path / "cp"
    query = _drive_agg("tiered", str(checkpoint), 2048)
    handles = query.engine.state_store._handles.values()
    assert any(h._runs for h in handles), "budget never forced a spill"
    assert _fds_under(checkpoint), "no run descriptor held; test is vacuous"
    query.stop()
    assert _fds_under(checkpoint) == []
    query.stop()  # close is idempotent


# ----------------------------------------------------------------------
# A weighted join that cancels a whole key, through the join's codec
# ----------------------------------------------------------------------
CANCEL_EPOCHS = [
    # Nine left keys overflow the 2048 B memtable mid-epoch: run 0 is
    # a spill, run 1 the commit's seal.
    lambda left, right: (
        left.insert([{"k": "a", "v": 1}, {"k": "a", "v": 2}]
                    + [{"k": k, "v": 9} for k in "bcdefgh"]),
        right.insert([{"k": "a", "w": 10}, {"k": "b", "w": 20}])),
    # "a" is read back out of run 0.
    lambda left, right: left.insert([{"k": "a", "v": 3}]),
    # Every row of "a" is deleted: the key is removed while its value
    # lives in run 2, so run 3 holds its tombstone.
    lambda left, right: left.delete(
        [{"k": "a", "v": 1}, {"k": "a", "v": 2}, {"k": "a", "v": 3}]),
    lambda left, right: (right.insert([{"k": "a", "w": 11}]),
                         left.insert([{"k": "b", "v": 5}])),
    lambda left, right: left.insert([{"k": "a", "v": 4}]),
]

CANCEL_RUNS_GOLDEN = {
    "00000000.run": framed(
        "run", 0, '["[\\"a\\"]",[[["a",1,1],false],[["a",2,1],false]]]',
        *(f'["[\\"{k}\\"]",[[["{k}",9,1],false]]]' for k in "bcde")),
    "00000001.run": framed(
        "run", 1,
        *(f'["[\\"{k}\\"]",[[["{k}",9,1],false]]]' for k in "fgh")),
    "00000002.run": framed(
        "run", 2, '["[\\"a\\"]",[[["a",1,1],false],[["a",2,1],false],'
                  '[["a",3,1],false]]]'),
    "00000003.run": framed("run", 3, '["[\\"a\\"]"]'),
}


def _run_cancelling_join(checkpoint, backend, restart_backend=None):
    """The sink table of CANCEL_EPOCHS through a weighted inner join on
    ``backend`` (2048 B memtable), restarted before epoch 3 onto
    ``restart_backend`` when one is given."""
    from repro.sources import ChangeStream
    from repro.sql.session import Session
    from repro.sql.types import StructType

    left = ChangeStream(StructType((("k", "string"), ("v", "long"))))
    right = ChangeStream(StructType((("k", "string"), ("w", "long"))))

    def start(backend, sink=None):
        session = Session()
        joined = session.read_stream.cdc(left).join(
            session.read_stream.cdc(right), on="k")
        writer = (joined.write_stream.output_mode("retract")
                  .option("state_backend", backend)
                  .option("state_memtable_bytes", 2048))
        writer = (writer.sink(sink) if sink is not None
                  else writer.format("memory").query_name("cancel"))
        return writer.start(checkpoint)

    query = start(backend)
    sink = query.engine.sink
    for epoch, step in enumerate(CANCEL_EPOCHS):
        if epoch == 3 and restart_backend is not None:
            query.stop()
            query = start(restart_backend, sink)
        step(left, right)
        query.process_all_available()
    query.stop()
    return sink.rows()


def test_weighted_join_cancelling_a_key_pins_runs_and_restarts(tmp_path):
    """The join's flat values cross the tiered backend's spill, run read
    and remove paths through its codec: the run files hold the nested
    records byte for byte, the cancelled key's tombstone included, and
    a restart onto the dict backend reaches the uninterrupted table."""
    checkpoint = tmp_path / "switch"
    switched = _run_cancelling_join(str(checkpoint), "tiered", "dict")
    runs_dir = checkpoint / "state" / "join-left-0" / "runs"
    runs = {name: (runs_dir / name).read_text(encoding="utf-8")
            for name in sorted(os.listdir(runs_dir)) if name.endswith(".run")}
    assert runs == CANCEL_RUNS_GOLDEN
    expected = [{"k": "b", "v": 9, "w": 20}, {"k": "b", "v": 5, "w": 20},
                {"k": "a", "v": 4, "w": 10}, {"k": "a", "v": 4, "w": 11}]
    assert canonical_rows(switched) == canonical_rows(expected)
    for backend in ("dict", "tiered"):
        assert canonical_rows(_run_cancelling_join(
            str(tmp_path / backend), backend)) == canonical_rows(expected)
