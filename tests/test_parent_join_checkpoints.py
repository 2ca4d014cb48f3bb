"""Checkpoints of packed handles written before their state files were
binary blocks.

``tests/data/parent_join_checkpoints.json`` holds, per scenario, the
checkpoint directory (WAL entries + state files, dict backend) that
commit 3d3ee08 wrote after the scenario's first epochs.  Every side
here is all fixed-width, so the current code holds it packed where that
commit held flat tuples.  ``tests/data/parent_packed_dedup_checkpoint.json``
holds the same for a weighted dedup over fixed-width columns, written
by commit 6204af2, the last tree to checkpoint packed handles as JSONL.

As in ``tests/test_parent_checkpoints.py``, each test checks that the
current code writes the same bytes for the same epochs, and that a
query restarted on the parent's files continues to the same sink table
as an uninterrupted run.  The current code writes a packed handle's
state as block files where the parents wrote JSONL, so those files are
compared with ``tests/data/block_checkpoint_pins.json`` instead, pins
this tree wrote; every WAL file and every other state file is still
compared with the parent's.

Regenerate (only if a format change is deliberate) with the writing
tree on the path: ``PYTHONPATH=<3d3ee08>/src:. python
tests/test_parent_join_checkpoints.py`` (the join fixture),
``PYTHONPATH=<6204af2>/src:. python tests/test_parent_join_checkpoints.py
dedup`` (the dedup fixture) and ``PYTHONPATH=src:. python
tests/test_parent_join_checkpoints.py pins`` (the block pins).
"""

from __future__ import annotations

import base64
import json
import os
import sys

import pytest

from repro.sources import ChangeStream
from repro.sql.session import Session
from repro.sql.types import StructType
from repro.streaming import statefile
from repro.testing.harness import checkpoint_fingerprint
from repro.testing.oracle import canonical_rows

from tests.conftest import make_stream
from tests.test_parent_checkpoints import _drive, _durable_files, _start

DATA = os.path.join(os.path.dirname(__file__), "data")
FIXTURE = os.path.join(DATA, "parent_join_checkpoints.json")
DEDUP_FIXTURE = os.path.join(DATA, "parent_packed_dedup_checkpoint.json")
PINS = os.path.join(DATA, "block_checkpoint_pins.json")
NAN = float("nan")


def _weighted_numeric_join():
    session = Session()
    left = ChangeStream(StructType((("k", "long"), ("x", "double"))))
    right = ChangeStream(StructType((("k", "long"), ("ok", "boolean"))))
    df = session.read_stream.cdc(left).join(
        session.read_stream.cdc(right), on="k")
    return [left, right], df


def _outer_within_join():
    session = Session()
    left = make_stream((("k", "long"), ("t", "timestamp"), ("v", "long")))
    right = make_stream((("k", "long"), ("t2", "timestamp"), ("w", "double")))
    df = (session.read_stream.memory(left).with_watermark("t", "10s")
          .join(session.read_stream.memory(right).with_watermark("t2", "10s"),
                on="k", how="left_outer", within=("t", "t2", "5s")))
    return [left, right], df


def _del(**row):
    return {**row, "__weight__": -1}


#: name -> (builder, output mode, epochs before the restart, epochs
#: after); an epoch is one row list per source.
SCENARIOS = {
    "weighted_numeric_join": (_weighted_numeric_join, "retract", [
        [[{"k": 1, "x": 1.5}, {"k": 1, "x": NAN}, {"k": 2, "x": -0.0}],
         [{"k": 1, "ok": True}]],
        [[_del(k=2, x=-0.0), {"k": 1, "x": 2 ** 60}],
         [{"k": 2, "ok": False}, {"k": 3, "ok": True}]],
    ], [
        [[_del(k=1, x=NAN), {"k": 3, "x": 0.25}], [_del(k=1, ok=True)]],
        [[{"k": 2, "x": 7.0}], [{"k": 1, "ok": False}]],
    ]),
    "outer_within_join": (_outer_within_join, "append", [
        [[{"k": 1, "t": 1.0, "v": 10}, {"k": 2, "t": 2.0, "v": 20}],
         [{"k": 1, "t2": 3.0, "w": 0.5}]],
        [[{"k": 3, "t": 30.0, "v": 30}], [{"k": 4, "t2": 31.0, "w": -1.0}]],
    ], [
        # The watermark passes the first rows: 2 evicts unmatched.
        [[{"k": 4, "t": 60.0, "v": 40}], [{"k": 3, "t2": 61.0, "w": 2.0}]],
        [[{"k": 5, "t": 90.0, "v": 50}], [{"k": 5, "t2": 91.0, "w": 3.0}]],
    ]),
}


def _weighted_numeric_dedup():
    cdc = ChangeStream(StructType((("k", "long"), ("v", "double"))))
    return [cdc], Session().read_stream.cdc(cdc).drop_duplicates(["k"])


#: The dedup fixture's scenario, in ``SCENARIOS``' shape.  Its first
#: half ends on a base (versions 0 and 2), so one more epoch after a
#: restart writes a block delta on the parent's JSONL base.
DEDUP_SCENARIOS = {
    "weighted_numeric_dedup": (_weighted_numeric_dedup, "retract", [
        [[{"k": 1, "v": 1.5}, {"k": 1, "v": NAN}, {"k": 2, "v": -0.0},
          {"k": 3, "v": 2.0}, {"k": 1, "v": 1.5}]],
        # 1.5 down to one live copy; 3's only row leaves: a tombstone.
        [[_del(k=1, v=1.5), _del(k=3, v=2.0), {"k": 4, "v": 2 ** 60}]],
        # The representative goes: NaN is promoted.
        [[_del(k=1, v=1.5)]],
    ], [
        [[{"k": 3, "v": 7.0}, _del(k=2, v=0.0), {"k": 2, "v": -1.0}]],
        [[{"k": 1, "v": 1.5}, _del(k=1, v=NAN)]],
        [[_del(k=4, v=2 ** 60), {"k": 5, "v": 0.5}]],
    ]),
}
ALL_SCENARIOS = {**SCENARIOS, **DEDUP_SCENARIOS}


def _write_first_half(name, checkpoint):
    """Run a scenario's pre-restart epochs; returns (sources, df, sink)."""
    build, mode, first, _second = ALL_SCENARIOS[name]
    sources, df = build()
    query = _start(df, mode, checkpoint, state_backend="dict")
    _drive(sources, query, first)
    query.stop()
    return sources, df, query.engine.sink


def parent_checkpoint(name, directory):
    """Write a scenario's parent checkpoint files under ``directory``."""
    fixture = FIXTURE if name in SCENARIOS else DEDUP_FIXTURE
    with open(fixture, encoding="utf-8") as f:
        parent_files = json.load(f)[name]
    for relative, text in parent_files.items():
        path = directory / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return directory


def _block_files(checkpoint) -> dict:
    """A checkpoint's block files, by path under it."""
    return {path: data for path, data in
            checkpoint_fingerprint(str(checkpoint)).items()
            if path.endswith(statefile.BLOCK_SUFFIX)}


def assert_parent_bytes(own, parent, name) -> None:
    """``own``, written by this tree, holds the parent's bytes: every
    WAL file and JSON/JSONL state file the parent's, and a block file
    (a packed handle's version the parent wrote as JSONL) its pin."""
    mine = checkpoint_fingerprint(str(own))
    blocks = {path: mine.pop(path) for path in _block_files(own)}
    moved = {path[:-len(statefile.BLOCK_SUFFIX)] + ".jsonl" for path in blocks}
    theirs = checkpoint_fingerprint(str(parent))
    assert moved <= set(theirs)
    assert mine == {path: data for path, data in theirs.items()
                    if path not in moved}
    with open(PINS, encoding="utf-8") as f:
        pins = json.load(f)[name]
    assert blocks, "no block file: the pins are vacuous"
    assert blocks == {path: base64.b64decode(data)
                      for path, data in pins.items()}


def _restart_matches_uninterrupted(tmp_path, name, parent_dir):
    sources, df, sink = _write_first_half(name, tmp_path / "own")
    assert_parent_bytes(tmp_path / "own", parent_dir, name)

    _build, mode, first, second = ALL_SCENARIOS[name]
    query = _start(df, mode, parent_dir, sink=sink)
    _drive(sources, query, second)
    query.stop()

    ref_sources, ref_df = ALL_SCENARIOS[name][0]()
    reference = _start(ref_df, mode, tmp_path / "ref")
    _drive(ref_sources, reference, first + second)
    reference.stop()
    assert sink.rows(), "scenario ends with an empty table; test is vacuous"
    assert canonical_rows(sink.rows()) == canonical_rows(
        reference.engine.sink.rows())


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_parent_join_checkpoint_bytes_and_restart(tmp_path, name):
    _restart_matches_uninterrupted(
        tmp_path, name, parent_checkpoint(name, tmp_path / "parent"))


@pytest.mark.parametrize("name", list(DEDUP_SCENARIOS))
def test_parent_packed_dedup_checkpoint_bytes_and_restart(tmp_path, name):
    _restart_matches_uninterrupted(
        tmp_path, name, parent_checkpoint(name, tmp_path / "parent"))


def _write(path, fixture) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(fixture, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    import tempfile

    what = sys.argv[1] if len(sys.argv) > 1 else "join"
    scenarios = {"join": SCENARIOS, "dedup": DEDUP_SCENARIOS,
                 "pins": ALL_SCENARIOS}[what]
    fixture = {}
    for scenario in scenarios:
        with tempfile.TemporaryDirectory() as directory:
            _write_first_half(scenario, directory)
            fixture[scenario] = (
                {path: base64.b64encode(data).decode("ascii")
                 for path, data in _block_files(directory).items()}
                if what == "pins" else _durable_files(directory))
    _write({"join": FIXTURE, "dedup": DEDUP_FIXTURE, "pins": PINS}[what],
           fixture)
