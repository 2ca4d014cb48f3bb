"""A packed join side's checkpoint text, written in bulk, is the text
the generic encoder writes.

``_PackedSideLayout.disk_text`` turns a list of packed values into the
JSON of each value's nested ``[[row, matched], ...]`` records a column
at a time; ``StateFileWriter.chunks`` frames those texts as record
lines.  Both must be byte for byte ``encode([key, to_disk(value)])``,
the line every other value gets — pinned here over the three packed
types with their extremes, with and without a matched flag, one and
several rows a value, tombstones between live records, and the cells
of the corpus label 3d3ee08, which a tree before packed sides wrote.
"""

from __future__ import annotations

import json
import struct

from hypothesis import example, given, strategies as st

from repro.sql.types import WEIGHT_COLUMN, StructType
from repro.storage import bind_encoder
from repro.streaming import statefile
from repro.streaming.join_state import _PackedSideLayout, side_layout
from repro.streaming.statefile import TOMBSTONE, StateFileWriter

from tests.checkpoint_scenarios import load_label

NAN = float("nan")
INF = float("inf")
CELLS = {
    "long": st.sampled_from([0, 1, -1, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1,
                             -(2 ** 63), 2 ** 63 - 1]) | st.integers(
                                 -(2 ** 63), 2 ** 63 - 1),
    "double": st.sampled_from([0.0, -0.0, NAN, INF, -INF, 5e-324, 1.5,
                               2.0 ** 53 - 1, 2.0 ** 53 + 2,
                               1.152921504606847e+18]) | st.floats(),
    "boolean": st.booleans(),
}


@st.composite
def packed_values(draw):
    """``(layout, values)``: a packed side and a list of its values."""
    types = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1,
                          max_size=4))
    weight = draw(st.none() | st.integers(0, len(types)))
    if weight is not None:
        types.insert(weight, "long")
    names = [WEIGHT_COLUMN if i == weight else f"c{i}"
             for i in range(len(types))]
    layout = side_layout(StructType(tuple(zip(names, types))),
                         draw(st.booleans()), weight)
    row = st.tuples(*[CELLS[t] for t in types])
    entry = st.tuples(row, st.booleans() if layout.tracked
                      else st.just(False))
    values = draw(st.lists(st.lists(entry, min_size=1, max_size=3),
                           max_size=8))
    return layout, [layout.from_disk(json.loads(json.dumps(entries)))
                    for entries in values]


def _lines(records) -> list:
    encode = bind_encoder(statefile.encode)
    return [encode([k]) + "\n" if v is TOMBSTONE else encode([k, v]) + "\n"
            for k, v in records]


@given(spec=packed_values(), tombstones=st.lists(st.booleans(),
                                                 max_size=8))
@example(spec=(side_layout(StructType((("k", "long"), ("x", "double"))),
                           False, None),
               [struct.pack("<qd", 1, NAN),
                struct.pack("<qdqd", 2 ** 60, 2.0 ** 60, -1, -0.0)]),
         tombstones=[False, True])
def test_bulk_text_is_the_encoders_text(spec, tombstones):
    layout, values = spec
    assert isinstance(layout, _PackedSideLayout)
    encode = bind_encoder(statefile.encode)
    assert layout.disk_text(values) == [
        encode(layout.to_disk(value)) for value in values]

    # Framed as a file, tombstones between the live records: the same
    # bytes, sizes and digest as the generic path over to_disk records.
    records = []
    for i, value in enumerate(values):
        if i < len(tombstones) and tombstones[i]:
            records.append((f"[{i}, 0]", TOMBSTONE))
        records.append((f"[{i}]", value))
    bulk, generic = StateFileWriter("base", 3), StateFileWriter("base", 3)
    text = "".join(bulk.chunks(records, text=layout.disk_text))
    expected = "".join(generic.chunks(
        [(k, v if v is TOMBSTONE else layout.to_disk(v))
         for k, v in records]))
    assert text == expected
    assert (bulk.bytes, bulk.count, bulk.sha256) == (
        generic.bytes, generic.count, generic.sha256)
    assert text.splitlines(keepends=True)[1:-1] == _lines(
        [(k, v if v is TOMBSTONE else layout.to_disk(v))
         for k, v in records])


def test_parent_fixture_records_round_trip_to_their_bytes():
    """Every packed join record line the parent wrote into the corpus
    (its ``NaN`` and ``1.152921504606847e+18`` cells among them) comes
    back from ``disk_text`` byte for byte."""
    scenario = load_label("3d3ee08")["weighted_numeric_join"]
    layouts = {
        "left": side_layout(StructType((("k", "long"), ("x", "double"),
                                        (WEIGHT_COLUMN, "long"))),
                            False, 2),
        "right": side_layout(StructType((("k", "long"), ("ok", "boolean"),
                                         (WEIGHT_COLUMN, "long"))),
                             False, 2),
    }
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
            [value_text] = layout.disk_text([layout.from_disk(entries)])
            assert "[" + json.dumps(key) + "," + value_text + "]" == line
            seen.update(cell for row, _ in entries for cell in row
                        if isinstance(cell, float))
    assert any(c != c for c in seen) and 1.152921504606847e+18 in seen
