"""Join checkpoints written before join sides were packed.

``tests/data/parent_join_checkpoints.json`` holds, per scenario, the
checkpoint directory (WAL entries + state files, dict backend) that
commit 3d3ee08 wrote after the scenario's first epochs.  Every side
here is all fixed-width, so the current code holds it packed where that
commit held flat tuples.  As in ``tests/test_parent_checkpoints.py``,
each test checks that the current code writes the same bytes for the
same epochs, and that a query restarted on the parent's files continues
to the same sink table as an uninterrupted run.

Regenerate (only if a format change is deliberate) with the old tree on
the path: ``PYTHONPATH=<old>/src:. python tests/test_parent_join_checkpoints.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.sources import ChangeStream
from repro.sql.session import Session
from repro.sql.types import StructType
from repro.testing.harness import checkpoint_fingerprint
from repro.testing.oracle import canonical_rows

from tests.conftest import make_stream
from tests.test_parent_checkpoints import _drive, _durable_files, _start

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "parent_join_checkpoints.json")
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


def _write_first_half(name, checkpoint):
    """Run a scenario's pre-restart epochs; returns (sources, df, sink)."""
    build, mode, first, _second = SCENARIOS[name]
    sources, df = build()
    query = _start(df, mode, checkpoint, state_backend="dict")
    _drive(sources, query, first)
    query.stop()
    return sources, df, query.engine.sink


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_parent_join_checkpoint_bytes_and_restart(tmp_path, name):
    with open(FIXTURE, encoding="utf-8") as f:
        parent_files = json.load(f)[name]
    parent_dir = tmp_path / "parent"
    for relative, text in parent_files.items():
        path = parent_dir / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    sources, df, sink = _write_first_half(name, tmp_path / "own")
    assert (checkpoint_fingerprint(str(tmp_path / "own"))
            == checkpoint_fingerprint(str(parent_dir)))

    _build, mode, first, second = SCENARIOS[name]
    query = _start(df, mode, parent_dir, sink=sink)
    _drive(sources, query, second)
    query.stop()

    ref_sources, ref_df = SCENARIOS[name][0]()
    reference = _start(ref_df, mode, tmp_path / "ref")
    _drive(ref_sources, reference, first + second)
    reference.stop()
    assert sink.rows(), "scenario ends with an empty table; test is vacuous"
    assert canonical_rows(sink.rows()) == canonical_rows(
        reference.engine.sink.rows())


if __name__ == "__main__":
    import tempfile

    fixture = {}
    for scenario in SCENARIOS:
        with tempfile.TemporaryDirectory() as directory:
            _write_first_half(scenario, directory)
            fixture[scenario] = _durable_files(directory)
    with open(FIXTURE, "w", encoding="utf-8") as f:
        json.dump(fixture, f, indent=1, sort_keys=True)
        f.write("\n")
