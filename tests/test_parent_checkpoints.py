"""Checkpoints written by the commit before the one-fold refactor.

``tests/data/parent_checkpoints.json`` holds, per scenario, the
checkpoint directory (WAL entries + state files, dict backend) that
commit 78dc07e wrote after the scenario's first epochs.  Each test
checks two things against it: the current code writes the same bytes
for the same epochs, and a query restarted on the parent's files
continues to the same sink table as an uninterrupted run.

Regenerate (only if a format change is deliberate) with the old tree on
the path: ``PYTHONPATH=<old>/src:. python tests/test_parent_checkpoints.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.sources import ChangeStream
from repro.sql import functions as F
from repro.sql.session import Session
from repro.sql.types import StructType
from repro.testing.harness import checkpoint_fingerprint
from repro.testing.oracle import canonical_rows, feed

from tests.conftest import make_stream

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "parent_checkpoints.json")
KV = StructType((("k", "string"), ("v", "long")))


def _windowed_update():
    stream = make_stream([("t", "timestamp"), ("k", "string")])
    df = (Session().read_stream.memory(stream).with_watermark("t", "100s")
          .group_by(F.window("t", "10s"), "k").count())
    return [stream], df


def _weighted_agg():
    cdc = ChangeStream(KV)
    df = (Session().read_stream.cdc(cdc).group_by("k")
          .agg(F.sum("v").alias("s"), F.count().alias("n")))
    return [cdc], df


def _weighted_dedup():
    cdc = ChangeStream(KV)
    return [cdc], Session().read_stream.cdc(cdc).drop_duplicates(["k"])


def _weighted_join():
    session = Session()
    left = ChangeStream(KV)
    right = ChangeStream(StructType((("k", "string"), ("w", "long"))))
    df = session.read_stream.cdc(left).join(
        session.read_stream.cdc(right), on="k")
    return [left, right], df


def _del(**row):
    return {**row, "__weight__": -1}


#: name -> (builder, output mode, epochs before the restart, epochs
#: after); an epoch is one row list per source.
SCENARIOS = {
    "windowed_update": (_windowed_update, "update", [
        [[{"t": 1.0, "k": "a"}, {"t": 2.0, "k": "b"}]],
        [[{"t": 5.0, "k": "a"}]],
        [[{"t": 200.0, "k": "c"}]],     # watermark passes window 0
        [[{"t": 210.0, "k": "d"}]],     # a/b evicted
    ], [
        [[{"t": 211.0, "k": "d"}, {"t": 3.0, "k": "a"}]],  # a is late now
        [[{"t": 330.0, "k": "e"}]],
        [[{"t": 331.0, "k": "e"}]],
    ]),
    "weighted_agg": (_weighted_agg, "retract", [
        [[{"k": "a", "v": 5}, {"k": "b", "v": 3}]],
        [[_del(k="b", v=3), {"k": "a", "v": 2}]],
        [[{"k": "c", "v": 7}]],
    ], [
        [[_del(k="a", v=5), {"k": "b", "v": 4}]],
        [[_del(k="c", v=7)]],
    ]),
    "weighted_dedup": (_weighted_dedup, "retract", [
        [[{"k": "a", "v": 1}, {"k": "a", "v": 2}, {"k": "b", "v": 9}]],
        [[_del(k="a", v=1), _del(k="b", v=9)]],  # promotion + a tombstone
    ], [
        [[{"k": "b", "v": 8}, {"k": "a", "v": 3}]],
        [[_del(k="a", v=2)]],
    ]),
    "weighted_join": (_weighted_join, "retract", [
        [[{"k": "a", "v": 1}, {"k": "b", "v": 2}], [{"k": "a", "w": 10}]],
        # b's only left row cancels: the key leaves state as a tombstone.
        [[_del(k="b", v=2), {"k": "a", "v": 3}], [{"k": "c", "w": 30}]],
        [[], [{"k": "b", "w": 20}]],
    ], [
        [[{"k": "c", "v": 4}], [_del(k="a", w=10)]],
        [[_del(k="a", v=1)], [{"k": "a", "w": 11}]],
    ]),
}


def _drive(sources, query, epochs) -> None:
    for epoch in epochs:
        for source, rows in zip(sources, epoch):
            feed(source, rows)
        query.process_all_available()


def _start(df, mode, checkpoint, sink=None, **options):
    writer = df.write_stream.output_mode(mode)
    writer = (writer.sink(sink) if sink is not None
              else writer.format("memory").query_name("parent-ckpt"))
    for key, value in options.items():
        writer = writer.option(key, value)
    return writer.start(str(checkpoint))


def _write_first_half(name, checkpoint):
    """Run a scenario's pre-restart epochs; returns (sources, df, sink)."""
    build, mode, first, _second = SCENARIOS[name]
    sources, df = build()
    query = _start(df, mode, checkpoint, state_backend="dict")
    _drive(sources, query, first)
    query.stop()
    return sources, df, query.engine.sink


def _durable_files(checkpoint) -> dict:
    found = {}
    for root, _dirs, files in os.walk(checkpoint):
        for name in files:
            path = os.path.join(root, name)
            relative = os.path.relpath(path, checkpoint)
            if relative.split(os.sep)[0] in ("offsets", "commits", "state") \
                    or relative == "metadata.json":
                with open(path, encoding="utf-8") as f:
                    found[relative] = f.read()
    return found


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_parent_checkpoint_bytes_and_restart(tmp_path, name):
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
