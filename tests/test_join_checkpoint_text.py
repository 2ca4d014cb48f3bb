"""A packed join side's JSONL checkpoint records round-trip to their
bytes.

Wherever a packed side's state is JSON — the tiered backend's runs, and
the files of a tree before block checkpoints — each record is
``encode([key, to_disk(value)])``.  The record lines of the corpus label
3d3ee08, which a tree before packed sides wrote, must come back byte
for byte through the packed layout: ``from_disk`` then ``to_disk``.
"""

from __future__ import annotations

import json

from repro.sql.types import WEIGHT_COLUMN, StructType
from repro.storage import bind_encoder
from repro.streaming import statefile
from repro.streaming.join_state import side_layout

from tests.checkpoint_scenarios import load_label


def test_parent_fixture_records_round_trip_to_their_bytes():
    """Every packed join record line the parent wrote into the corpus
    (its ``NaN`` and ``1.152921504606847e+18`` cells among them) comes
    back from the packed layout byte for byte."""
    scenario = load_label("3d3ee08")["weighted_numeric_join"]
    layouts = {
        "left": side_layout(StructType((("k", "long"), ("x", "double"),
                                        (WEIGHT_COLUMN, "long"))),
                            False, 2),
        "right": side_layout(StructType((("k", "long"), ("ok", "boolean"),
                                         (WEIGHT_COLUMN, "long"))),
                             False, 2),
    }
    encode = bind_encoder(statefile.encode)
    seen = set()
    for path, data in scenario.items():
        if not path.startswith("state/") or not path.endswith(".jsonl"):
            continue
        layout = layouts["left" if "join-left" in path else "right"]
        for line in data.decode().splitlines()[1:-1]:
            record = json.loads(line)
            if len(record) == 1:
                continue
            key, entries = record
            value = layout.from_disk(entries)
            assert encode([key, layout.to_disk(value)]) == line
            seen.update(cell for row, _ in entries for cell in row
                        if isinstance(cell, float))
    assert any(c != c for c in seen) and 1.152921504606847e+18 in seen
