"""Tests for the write-ahead log and versioned state store (§6.1)."""

import os

import pytest

from repro.streaming.state import OperatorStateHandle, StateStore, decode_key, encode_key
from repro.streaming.wal import WriteAheadLog


class TestWriteAheadLog:
    @pytest.fixture
    def wal(self, tmp_path):
        return WriteAheadLog(str(tmp_path / "ckpt"))

    def test_empty_log(self, wal):
        assert wal.latest_logged_epoch() is None
        assert wal.latest_committed_epoch() is None
        assert wal.logged_epochs() == []

    def test_offsets_roundtrip(self, wal):
        entry = {"sources": {"s": {"start": {"0": 0}, "end": {"0": 5}}}}
        wal.write_offsets(0, entry)
        read = wal.read_offsets(0)
        assert read["sources"] == entry["sources"]
        assert read["epoch"] == 0

    def test_commit_tracking(self, wal):
        wal.write_offsets(0, {"sources": {}})
        assert not wal.is_committed(0)
        wal.write_commit(0)
        assert wal.is_committed(0)
        assert wal.latest_committed_epoch() == 0

    def test_commit_extra_payload(self, wal):
        wal.write_commit(1, {"watermarks": {"watermarks": {"t": 5.0}}})
        assert wal.read_commit(1)["watermarks"]["watermarks"]["t"] == 5.0

    def test_latest_logged_vs_committed(self, wal):
        wal.write_offsets(0, {"sources": {}})
        wal.write_commit(0)
        wal.write_offsets(1, {"sources": {}})
        assert wal.latest_logged_epoch() == 1
        assert wal.latest_committed_epoch() == 0

    def test_rollback_removes_later_entries(self, wal):
        for epoch in range(4):
            wal.write_offsets(epoch, {"sources": {}})
            wal.write_commit(epoch)
        wal.rollback_to(1)
        assert wal.logged_epochs() == [0, 1]
        assert wal.committed_epochs() == [0, 1]

    def test_rollback_to_beginning(self, wal):
        wal.write_offsets(0, {"sources": {}})
        wal.rollback_to(-1)
        assert wal.logged_epochs() == []

    def test_metadata_written_once(self, wal):
        wal.write_metadata({"output_mode": "append"})
        wal.write_metadata({"output_mode": "complete"})
        assert wal.read_metadata()["output_mode"] == "append"

    def test_entries_are_human_readable_json(self, wal, tmp_path):
        wal.write_offsets(0, {"sources": {"s": {"start": {"0": 0}, "end": {"0": 2}}}})
        path = os.path.join(str(tmp_path / "ckpt"), "offsets", "0000000000.json")
        with open(path) as f:
            text = f.read()
        assert '"epoch": 0' in text  # pretty-printed, inspectable (§7.2)


class TestKeyEncoding:
    @pytest.mark.parametrize("key", ["a", 5, 2.5, ("a", 1), (1.0, 2.0, "x"), True])
    def test_roundtrip(self, key):
        assert decode_key(encode_key(key)) == key

    def test_tuples_become_canonical(self):
        assert encode_key(("a", 1)) == '["a", 1]'


class TestOperatorStateHandle:
    @pytest.fixture
    def handle(self, tmp_path):
        return OperatorStateHandle(str(tmp_path / "op"))

    def test_put_get_remove(self, handle):
        handle.put("k", {"n": 1})
        assert handle.get("k") == {"n": 1}
        assert handle.contains("k")
        handle.remove("k")
        assert handle.get("k") is None
        assert len(handle) == 0

    def test_items_decode_keys(self, handle):
        handle.put(("a", 1), 10)
        assert list(handle.items()) == [(("a", 1), 10)]
        assert list(handle.keys()) == [("a", 1)]

    def test_get_default(self, handle):
        assert handle.get("missing", 42) == 42

    def test_commit_restore_roundtrip(self, handle, tmp_path):
        handle.put("a", 1)
        handle.commit(0)
        handle.put("b", 2)
        handle.commit(1)
        fresh = OperatorStateHandle(str(tmp_path / "op"))
        fresh.restore(1)
        assert fresh.get("a") == 1 and fresh.get("b") == 2

    def test_restore_earlier_version(self, handle, tmp_path):
        handle.put("a", 1)
        handle.commit(0)
        handle.put("a", 2)
        handle.commit(1)
        fresh = OperatorStateHandle(str(tmp_path / "op"))
        fresh.restore(0)
        assert fresh.get("a") == 1

    def test_deltas_record_removals(self, handle, tmp_path):
        handle.put("a", 1)
        handle.put("b", 2)
        handle.commit(0)
        handle.remove("a")
        handle.commit(1)
        fresh = OperatorStateHandle(str(tmp_path / "op"))
        fresh.restore(1)
        assert fresh.get("a") is None and fresh.get("b") == 2

    def test_rebase_rule_produces_bases(self, handle, tmp_path):
        # Tiny files all weigh MIN_FILE_WEIGHT, so one delta already
        # outweighs its base: bases and deltas alternate.
        for version in range(7):
            handle.put(f"k{version}", version)
            handle.commit(version)
        names = sorted(os.listdir(str(tmp_path / "op")))
        assert [n.split(".")[1] for n in names] == [
            "base", "delta", "base", "delta", "base", "delta", "base"]

    def test_restore_uses_nearest_snapshot_plus_deltas(self, handle, tmp_path):
        for version in range(7):
            handle.put(f"k{version}", version)
            handle.commit(version)
        fresh = OperatorStateHandle(str(tmp_path / "op"))
        restored = fresh.restore(5)
        assert restored == 5
        assert fresh.get("k5") == 5
        assert fresh.get("k6") is None

    def test_restore_none_gives_empty(self, handle):
        handle.put("a", 1)
        assert handle.restore(None) is None
        assert len(handle) == 0

    def test_restore_returns_floor_version(self, handle, tmp_path):
        handle.put("a", 1)
        handle.commit(2)
        fresh = OperatorStateHandle(str(tmp_path / "op"))
        assert fresh.restore(7) == 2  # newest checkpoint <= 7

    def test_sparse_versions_replay_correctly(self, handle, tmp_path):
        # Checkpoint intervals > 1 produce version gaps; deltas are
        # relative to the previous commit, so restore still works.
        handle.put("a", 1)
        handle.commit(0)
        handle.put("b", 2)
        handle.put("c", 3)
        handle.commit(4)  # gap: versions 1-3 never committed
        fresh = OperatorStateHandle(str(tmp_path / "op"))
        assert fresh.restore(4) == 4
        assert fresh.get("c") == 3

    def test_commit_metrics(self, handle):
        handle.put("a", 1)
        metrics = handle.commit(1)  # version 1: delta
        assert metrics["keys_written"] == 1
        assert metrics["num_keys"] == 1


class TestExpiryIndex:
    """The heap-backed expiry index behind watermark eviction."""

    @pytest.fixture
    def handle(self, tmp_path):
        handle = OperatorStateHandle(str(tmp_path / "op"))
        handle.set_expiry(lambda _key, value: value)
        return handle

    def test_pop_expired_returns_only_due_keys(self, handle):
        handle.put("a", 5.0)
        handle.put("b", 10.0)
        handle.put("c", 1.0)
        popped = handle.pop_expired(5.0)
        assert sorted(popped) == [("a", 5.0), ("c", 1.0)]
        assert handle.next_expiry() == 10.0
        # Popped keys stay in the store until the caller removes them.
        assert handle.get("a") == 5.0

    def test_overwrite_supersedes_old_expiry(self, handle):
        handle.put("a", 1.0)
        handle.put("a", 100.0)  # stale heap entry for 1.0 remains
        assert handle.pop_expired(50.0) == []
        assert handle.next_expiry() == 100.0

    def test_removed_keys_never_pop(self, handle):
        handle.put("a", 1.0)
        handle.remove("a")
        assert handle.next_expiry() is None
        assert handle.pop_expired(1e9) == []

    def test_none_expiry_unindexes(self, handle):
        handle.put("a", 2.0)
        handle.set_expiry(lambda _key, value: None if value < 0 else value)
        handle.put("a", -1.0)
        assert handle.next_expiry() is None

    def test_reindex_defers_without_dirtying(self, handle):
        handle.put("a", 3.0)
        handle.commit(0)
        assert handle.pop_expired(3.0) == [("a", 3.0)]
        handle.reindex("a")
        assert handle.next_expiry() == 3.0
        # reindex is index-only: the next delta must be empty.
        metrics = handle.commit(1)
        assert metrics["keys_written"] == 0

    def test_restore_rebuilds_index(self, handle, tmp_path):
        handle.put("a", 1.0)
        handle.put("b", 7.0)
        handle.commit(0)
        fresh = OperatorStateHandle(str(tmp_path / "op"))
        fresh.set_expiry(lambda _key, value: value)
        fresh.restore(0)
        assert fresh.next_expiry() == 1.0
        assert fresh.pop_expired(2.0) == [("a", 1.0)]

    def test_key_cache_distinguishes_equal_hash_types(self, tmp_path):
        # 1, 1.0 and True hash identically but encode differently; the
        # interned-key cache must not alias them.
        handle = OperatorStateHandle(str(tmp_path / "op"))
        handle.put(1, "int")
        handle.put(1.0, "float")
        handle.put(True, "bool")
        handle.put((1,), "int-tuple")
        handle.put((1.0,), "float-tuple")
        assert handle.get(1) == "int"
        assert handle.get(1.0) == "float"
        assert handle.get(True) == "bool"
        assert handle.get((1,)) == "int-tuple"
        assert handle.get((1.0,)) == "float-tuple"
        assert len(handle) == 5


class TestStateStore:
    def test_handles_are_cached(self, tmp_path):
        store = StateStore(str(tmp_path))
        assert store.handle("agg-0") is store.handle("agg-0")

    def test_commit_and_restore_all(self, tmp_path):
        store = StateStore(str(tmp_path))
        store.handle("a").put("x", 1)
        store.handle("b").put("y", 2)
        store.commit_all(0)

        fresh = StateStore(str(tmp_path))
        fresh.handle("a")
        fresh.handle("b")
        assert fresh.restore_all(0) == 0
        assert fresh.handle("a").get("x") == 1
        assert fresh.handle("b").get("y") == 2

    def test_restore_all_empty_when_no_checkpoints(self, tmp_path):
        store = StateStore(str(tmp_path))
        store.handle("a")
        assert store.restore_all(5) is None

    def test_total_keys(self, tmp_path):
        store = StateStore(str(tmp_path))
        store.handle("a").put("x", 1)
        store.handle("b").put("y", 2)
        store.handle("b").put("z", 3)
        assert store.total_keys() == 3

    def test_latest_complete_version(self, tmp_path):
        store = StateStore(str(tmp_path))
        store.handle("a").put("x", 1)
        store.commit_all(0)
        store.handle("a").put("x", 2)
        store.commit_all(1)
        assert store.latest_complete_version() == 1
