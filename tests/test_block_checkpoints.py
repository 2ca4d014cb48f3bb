"""Block state files: a packed handle's checkpoints in binary frames.

A handle whose codec declares a row schema (a packed join side or
weighted dedup, ``join_state._PackedSideLayout``) checkpoints its
values as they are, in ``<version>.{base,delta}.block`` files
(``repro.streaming.statefile``).  Pinned here: the files replay to the
live state across frame boundaries and tombstones; a torn, cut or
flipped block is quarantined on open and the restart falls back to the
previous version; a chain mixing a JSONL base and block deltas restores
on both backends, from handles and from a parent's checkpoint (the
corpus label 6204af2, ``tests/checkpoint_scenarios.py``); a block
restores only into its own row schema; ``describe`` reports format,
schema and key count.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.sql.types import WEIGHT_COLUMN, StructType
from repro.streaming import statefile
from repro.streaming.join_state import side_layout
from repro.streaming.state import OperatorStateHandle, encode_key
from repro.streaming.state_lsm import TieredOperatorStateHandle
from repro.testing.oracle import canonical_rows
from repro.tools.checkpoint import describe_checkpoint

from tests import checkpoint_scenarios as corpus

NAN = float("nan")
SCHEMA = StructType((("k", "long"), ("x", "double"), (WEIGHT_COLUMN, "long"),
                     ("ok", "boolean")))


def block_records(path: str, schema) -> list:
    """``(encoded key, value or TOMBSTONE)`` of a block file, in key
    order, each value packed rows of ``schema``."""
    return [(key, statefile.TOMBSTONE if count < 0 else value)
            for keys, counts, values in statefile._block_frames(path, schema)
            for key, count, value in zip(keys, counts.tolist(), values)]


def _layout(schema=SCHEMA, tracked=False):
    return side_layout(schema, tracked, schema.names.index(WEIGHT_COLUMN))


def _handle(directory, layout=None, backend=OperatorStateHandle, schema=True):
    """A handle with ``layout``'s codec, its row schema declared unless
    ``schema`` is false (the codec a tree before block files had)."""
    layout = layout or _layout()
    handle = backend(str(directory))
    handle.set_codec(layout.to_disk, layout.from_disk,
                     layout.schema if schema else None)
    handle.set_row_count(layout.stride)
    return handle


def _value(layout, *rows) -> bytes:
    return b"".join(layout._struct.pack(*row) for row in rows)


def _put(handle, layout, k, *rows):
    handle.put((k,), _value(layout, *rows))


def _state(handle) -> dict:
    return {key: value for key, value in handle.items()}


def _files(directory) -> list:
    return sorted(n for n in os.listdir(directory)
                  if n.endswith(statefile.SUFFIXES))


def test_block_chain_replays_to_the_live_state(tmp_path):
    """Three frames' worth of keys, rows of one to three per key, then a
    delta with puts and tombstones: each version restores byte for byte,
    and each file replays (``apply_file``) to what it recorded."""
    layout = _layout()
    handle = _handle(tmp_path, layout)
    n = 2 * statefile.FRAME_KEYS + 5
    for k in range(n):
        rows = [(k, k * 0.5 if k % 7 else NAN, 1 + k % 3, k % 2 == 0)
                for _ in range(1 + k % 3)]
        _put(handle, layout, k, *rows)
    assert handle.commit(0)["kind"] == statefile.BASE_BLOCK
    at_zero = _state(handle)
    for k in range(0, n, 3):
        handle.remove((k,))
    _put(handle, layout, n + 1, (n + 1, -0.0, -2, True))
    _put(handle, layout, 1, (1, 2.0 ** 60, 1, False))
    assert handle.commit(1)["kind"] == statefile.DELTA_BLOCK
    at_one = _state(handle)
    assert _files(tmp_path) == ["0000000000.base.block",
                                "0000000001.delta.block"]
    with open(tmp_path / "0000000000.base.block", "rb") as f:
        assert f.readline() == (statefile.encode(
            {"format": statefile.FORMAT, "kind": "base",
             "schema": layout.schema.header(), "version": 0})
            + "\n").encode()
    # Three frames: two full, one of five keys.
    frames = list(statefile._frames(str(tmp_path / "0000000000.base.block")))
    assert [struct.unpack_from("<I", p)[0] for p in frames[1:]] == [
        statefile.FRAME_KEYS, statefile.FRAME_KEYS, 5]
    assert statefile.record_count(
        str(tmp_path / "0000000001.delta.block")) == len(range(0, n, 3)) + 2

    for version, expected in ((0, at_zero), (1, at_one)):
        restored = _handle(tmp_path, layout)
        assert restored.restore(version) == version
        assert restored.data == {encode_key(k): v
                                 for k, v in expected.items()}
        assert restored.rows == sum(map(len, expected.values())) // \
            layout.stride
    merged = {}
    for name in _files(tmp_path):
        statefile.apply_file(str(tmp_path / name), merged,
                             schema=layout.schema)
    assert merged == {encode_key(k): v for k, v in at_one.items()}


def test_outer_join_flags_and_empty_files_round_trip(tmp_path):
    """A matched flag is a row field like any other, and a commit with
    nothing to write is a frameless block."""
    schema = StructType((("k", "long"), ("t", "timestamp")))
    layout = side_layout(schema, True, None)
    assert layout.schema.header() == {
        "names": ["k", "t", "__matched__"], "fields": ["<i8", "<f8", "|b1"],
        "struct": "<qd?"}
    handle = _handle(tmp_path, layout)
    handle.commit(0)
    _put(handle, layout, 3, (3, 1.5, True), (3, 2.5, False))
    handle.commit(1)
    restored = _handle(tmp_path, layout)
    restored.restore(1)
    assert _state(restored) == {(3,): _value(layout, (3, 1.5, True),
                                             (3, 2.5, False))}
    assert statefile.record_count(str(tmp_path / "0000000000.base.block")) == 0


def test_frame_integers_widen_past_one_byte(tmp_path):
    """A key of 300 characters and one of 70 000 rows take two- and
    four-byte integers in their frame; a delta of only tombstones holds
    no rows."""
    layout = _layout()
    handle = _handle(tmp_path, layout)
    long_key = ("k" * 300, 1)
    handle.put(long_key, _value(layout, (1, 0.5, 1, True)))
    _put(handle, layout, 2, *[(2, i / 8, 1, i % 2 == 0)
                              for i in range(70_000)])
    handle.commit(0)
    (_header, payload), = [list(statefile._frames(
        str(tmp_path / "0000000000.base.block")))]
    assert struct.unpack_from("<IIBB", payload) == (2, 70_001, 2, 4)
    restored = _handle(tmp_path, layout)
    restored.restore(0)
    assert restored.data == handle.data
    handle.remove(long_key)
    handle.remove((2,))
    handle.commit(1)
    restored = _handle(tmp_path, layout)
    restored.restore(1)
    assert restored.data == {} and restored.rows == 0


def _cut_mid_frame(data: bytes) -> bytes:
    return data[:len(data) // 2]


def _no_trailer(data: bytes) -> bytes:
    return data[:data.rindex(b"\n{") + 1]


def _flipped(data: bytes) -> bytes:
    at = data.index(b"\n") + 40  # inside the first frame
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


@pytest.mark.parametrize("damage", [_cut_mid_frame, _no_trailer, _flipped])
def test_damaged_block_is_quarantined_and_restart_falls_back(tmp_path,
                                                             damage):
    layout = _layout()
    handle = _handle(tmp_path, layout)
    for k in range(50):
        _put(handle, layout, k, (k, 0.25 * k, 1, True))
    handle.commit(0)
    at_zero = _state(handle)
    for k in range(25):
        _put(handle, layout, k, (k, -1.0, 2, False), (k, 1.0, 1, True))
    handle.commit(1)
    newest = tmp_path / "0000000001.delta.block"
    damaged = damage(newest.read_bytes())
    newest.write_bytes(damaged)
    with pytest.raises(ValueError):
        statefile.verify(str(newest))

    reopened = _handle(tmp_path, layout)
    assert reopened.repaired == [str(newest)]
    assert _files(tmp_path) == ["0000000000.base.block"]
    assert reopened.restore(1) == 0
    assert _state(reopened) == at_zero


def test_block_needs_its_own_row_schema(tmp_path):
    layout = _layout()
    handle = _handle(tmp_path, layout)
    _put(handle, layout, 1, (1, 1.0, 1, True))
    handle.commit(0)
    other = _layout(StructType((("k", "long"), ("x", "long"),
                                (WEIGHT_COLUMN, "long"), ("ok", "boolean"))))
    for schema in (other.schema, None):
        with pytest.raises(ValueError, match="cannot restore"):
            statefile.apply_file(str(tmp_path / "0000000000.base.block"), {},
                                 schema=schema)
    with pytest.raises(ValueError, match="cannot restore"):
        _handle(tmp_path, other).restore(0)


@pytest.mark.parametrize("backend", [OperatorStateHandle,
                                     TieredOperatorStateHandle])
def test_mixed_chain_restores(tmp_path, backend):
    """A JSONL base (the codec of a tree before block files), then a
    block delta: the chain restores on either backend to the state the block
    writer held, its JSONL records crossing the codec as they apply."""
    layout = _layout()
    legacy = _handle(tmp_path, layout, schema=False)
    for k in range(10):
        _put(legacy, layout, k, (k, k / 4, 1, k % 2 == 0))
    legacy.commit(0)
    writer = _handle(tmp_path, layout)
    assert writer.restore(0) == 0
    writer.remove((3,))
    _put(writer, layout, 4, (4, 1.0, 2, False), (4, NAN, -1, True))
    _put(writer, layout, 11, (11, -0.0, 1, True))
    assert writer.commit(1)["kind"] == statefile.DELTA_BLOCK
    assert _files(tmp_path) == ["0000000000.base.jsonl",
                                "0000000001.delta.block"]
    restored = _handle(tmp_path, layout, backend)
    assert restored.restore(1) == 1
    assert _state(restored) == _state(writer)
    assert restored.rows == writer.rows
    if backend is TieredOperatorStateHandle:
        # The restored memtable weighs what the same puts weigh (values
        # sized in their JSON form), so its spill points replay alike.
        fresh = _handle(tmp_path / "fresh", layout, backend)
        for key, value in _state(writer).items():
            fresh.put(key, value)
        assert restored._mem_bytes == fresh._mem_bytes
        fresh.close()
    restored.close()


@pytest.mark.parametrize("backend", ["dict", "tiered"])
def test_parent_jsonl_base_then_block_delta_restarts(tmp_path, backend):
    """A query restarted on the parent's dedup checkpoint (JSONL, ending
    on a base) writes a block delta; restarted again — on the dict or
    the tiered backend — it restores that mixed chain and reaches the
    uninterrupted run's table."""
    scenario = corpus.SCENARIOS["weighted_numeric_dedup"]
    parent = corpus.materialize(
        corpus.load_label("6204af2")["weighted_numeric_dedup"],
        tmp_path / "parent")
    sources, plan, sink = corpus.write_first_half(scenario, tmp_path / "own")
    queries = corpus.start(plan, scenario.mode, parent,
                           {"state_backend": "dict"}, sink=sink)
    corpus.drive(sources, queries, scenario.second[:1])
    corpus.stop(queries)
    state = parent / "state" / "dedup-0"
    assert _files(state)[-2:] == ["0000000002.base.jsonl",
                                  "0000000003.delta.block"]
    queries = corpus.start(plan, scenario.mode, parent,
                           {"state_backend": backend}, sink=sink)
    corpus.drive(sources, queries, scenario.second[1:])
    corpus.stop(queries)

    reference = corpus.run_whole(scenario, tmp_path / "ref")
    assert sink.rows()
    assert canonical_rows(sink.rows()) == canonical_rows(reference)


def test_describe_reports_format_schema_and_keys(tmp_path):
    corpus.write_first_half(corpus.SCENARIOS["weighted_numeric_dedup"],
                            tmp_path)
    described = describe_checkpoint(str(tmp_path))["state"]["dedup-0"]
    assert described["format"] == "block"
    assert described["row_schema"] == {
        "names": ["k", "v", WEIGHT_COLUMN], "fields": ["<i8", "<f8", "<i8"],
        "struct": "<qdq"}
    assert described["keys_at_last_snapshot"] == 3
