"""Tests for the write-ahead log and versioned state store (§6.1)."""

import json
import math
import os
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.streaming.state import OperatorStateHandle, StateStore, decode_key, encode_key
from repro.streaming.state_lsm import TieredOperatorStateHandle
from repro.streaming.wal import WriteAheadLog

#: Everything a state key is made of, and what it is not supposed to be
#: made of but must still encode as ``json.dumps`` does.
KEY_VALUES = st.one_of(
    st.integers(-2**70, 2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    st.sampled_from(['quo"te', "back\\slash", "\x00\x1f\x7f", "é☃\U0001f600",
                     "\ud800", "a\udfffb"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308]),
)


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

    @given(key=st.one_of(KEY_VALUES, st.lists(KEY_VALUES, max_size=4).map(tuple)))
    @example(key=(2**63, -2**63 - 1))
    @example(key=(float("inf"), float("-inf"), float("nan")))
    @example(key=("\ud800", 'a"b\\c\n'))
    @example(key=(1, [2, "x"]))  # nested: not a key any operator builds
    @example(key=())
    @example(key=(-0.0, True, -0.0))
    @example(key=-0.0)
    def test_hand_encoder_is_json_dumps(self, key):
        """The on-disk key format is ``json.dumps`` with a float ``-0.0``
        written as ``0.0`` (one key, as the two are one value); the
        hand-written encoder must produce it byte for byte."""
        flat = key if isinstance(key, tuple) else (key,)
        folded = [v + 0.0 if type(v) is float else v for v in flat]
        want = json.dumps(folded if isinstance(key, tuple) else folded[0])
        assert encode_key(key) == want
        # Round trip: wherever it held with json.dumps (nan never equals
        # itself; a nested list comes back as a list inside a tuple too).
        if not any(isinstance(v, float) and math.isnan(v) for v in flat):
            assert decode_key(encode_key(key)) == key


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

    def test_equal_hash_types_are_distinct_keys(self, tmp_path):
        # 1, 1.0 and True hash and compare equal in Python but encode
        # differently: they are three keys (five with the tuples), in
        # memory and through commit + restore, on both backends.
        for make in (OperatorStateHandle, TieredOperatorStateHandle):
            directory = str(tmp_path / make.__name__)
            handle = make(directory)
            handle.put(1, "int")
            handle.put(1.0, "float")
            handle.apply([(encode_key(k), k, v) for k, v in (
                (True, "bool"), ((1,), "int-tuple"))], [])
            handle.put((1.0,), "float-tuple")
            restored = make(directory)
            handle.commit(0)
            restored.restore(0)
            for view in (handle, restored):
                assert view.get(1) == "int"
                assert view.get(1.0) == "float"
                assert view.get(True) == "bool"
                keys = [(1,), (1.0,), (True,)]
                assert view.get_many(list(map(encode_key, keys))) == [
                    "int-tuple", "float-tuple", None]
                assert len(view) == 5
                assert {type(k): v for k, v in view.items()
                        if not isinstance(k, tuple)} == {
                    int: "int", float: "float", bool: "bool"}
            handle.close()
            restored.close()


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


class TestKeyMemory:
    """The handle keeps nothing per key beside the key's ``data`` entry: a
    per-key side structure (say, a cache of encoded keys, ~250 B a key)
    would show here."""

    KEYS = 20_000

    def _committed(self, make) -> tuple:
        """``(handle, bytes it holds per key)`` after put + commit."""
        keys = [(i,) for i in range(100_000, 100_000 + self.KEYS)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            handle = make()
            for key in keys:
                handle.put(key, 1)  # a shared small int: no value cost
            handle.commit(0)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return handle, held / self.KEYS

    def test_dict_handle_holds_an_encoded_key_and_a_slot(self, tmp_path):
        # Measured 78 B/key (a 7-digit JSON string + its dict slot).
        handle, per_key = self._committed(
            lambda: OperatorStateHandle(str(tmp_path / "op")))
        assert len(handle) == self.KEYS
        assert per_key <= 200

    def test_tiered_handle_holds_nothing_outside_its_memtable(self, tmp_path):
        # Committed keys live in a run: what stays in memory is the
        # run's bloom bits and sparse index, measured 9 B/key.
        handle, per_key = self._committed(
            lambda: TieredOperatorStateHandle(str(tmp_path / "op")))
        assert len(handle) == self.KEYS
        assert not (handle.data or handle.dirty or handle.expiry)
        assert per_key <= 32
        keys = [(100_000,), (5,)]
        assert handle.get_many(list(map(encode_key, keys))) == [1, None]
        handle.close()
