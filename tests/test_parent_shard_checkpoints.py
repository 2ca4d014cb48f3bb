"""Checkpoints written at four state shards, before shards were removed.

``tests/data/parent_shard_checkpoints.json`` holds, per scenario of
``tests/test_parent_checkpoints.py``, the checkpoint directory (WAL
entries + state files, dict backend) that commit 4b1f73b wrote after
the scenario's first epochs with ``num_shards=4`` — the last tree that
split keyed state into shards.  Each test checks that the current code,
which keeps one state dict per operator, writes the same bytes for the
same epochs, and that a query restarted on the parent's files continues
to the same sink table as an uninterrupted run: a checkpoint records no
partition count.

Tiered run files are cut where the memtable fills, which depended on
per-shard arrival order, so the fixture stays on the dict backend.

Regenerate (only if a format change is deliberate) with that tree on
the path — the current one refuses ``num_shards``:
``PYTHONPATH=<old>/src:. python tests/test_parent_shard_checkpoints.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.testing.harness import checkpoint_fingerprint
from repro.testing.oracle import canonical_rows

from tests.test_parent_checkpoints import (
    SCENARIOS,
    _drive,
    _durable_files,
    _start,
    _write_first_half,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "parent_shard_checkpoints.json")


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_four_shard_checkpoint_bytes_and_restart(tmp_path, name):
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
    for scenario, (build, mode, first, _second) in SCENARIOS.items():
        with tempfile.TemporaryDirectory() as directory:
            scenario_sources, scenario_df = build()
            query = _start(scenario_df, mode, directory,
                           state_backend="dict", num_shards=4)
            _drive(scenario_sources, query, first)
            query.stop()
            fixture[scenario] = _durable_files(directory)
    with open(FIXTURE, "w", encoding="utf-8") as f:
        json.dump(fixture, f, indent=1, sort_keys=True)
        f.write("\n")
