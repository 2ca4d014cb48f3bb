"""State durability proportional to the live delta (§6.1).

Three properties of the default state path, each pinned here:

* a weighted join side's state is the *integral* of its input Z-set —
  consolidated by row identity, so it tracks live rows, not history —
  and the join's output stays equal to the batch join;
* bases are placed by a size-triggered rule that is a pure function of
  the state directory: crash-replay repeats its decisions, write
  amplification stays ≤ 2 and the chain's file count is bounded;
* every state file is one record-framed stream whose trailer lets a
  torn newest file be recognised and quarantined.

A join side's in-memory state is immutable tuples, which the collector
stops tracking and JSON writes exactly as the lists a restore decodes;
the boundary between the two is pinned here too.
"""

from __future__ import annotations

import gc
import json
import os
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from repro.observability import metrics
from repro.sources import ChangeStream
from repro.sql.session import Session
from repro.sql.types import StructType
from repro.streaming import join_state, operators, statefile
from repro.streaming.join_state import _SideLayout
from repro.streaming.operators import StreamStreamJoinOp
from repro.streaming.state import MIN_FILE_WEIGHT, OperatorStateHandle
from repro.streaming.state_lsm import TieredOperatorStateHandle
from repro.testing.oracle import batch_recompute, canonical_rows

from tests.test_join_layouts import write_back

# ----------------------------------------------------------------------
# Join state = integral of the input Z-set
# ----------------------------------------------------------------------
LEFT = (("k", "string"), ("v", "long"))
RIGHT = (("k", "string"), ("w", "long"))
NAN = float("nan")
#: name -> (left schema, right schema, key domain, left value domain).
#: String keys take the flat tuple layout; the all-numeric sides are
#: packed, and their domains hold −0.0 beside 0.0 (one key, one value)
#: and a NaN (one null): rows the state must consolidate as equal.
JOIN_SCHEMAS = {
    "string": (LEFT, RIGHT, "ab", (0, 1, 2)),
    "numeric": ((("k", "double"), ("v", "double")),
                (("k", "double"), ("w", "long")),
                (0.0, -0.0, 1.0), (0.0, -0.0, NAN, 1.5)),
}


@st.composite
def cdc_history(draw, value_name, keys="ab", values=(0, 1, 2), max_ops=18):
    """A valid CDC history over a *tiny* row domain, so the interesting
    shapes are the common case: insert → delete → re-insert of the same
    row, duplicate rows (multiplicity 2), and updates that change
    nothing (a -1/+1 pair of one row).  Chunked into epochs."""
    live, ops = [], []
    for _ in range(draw(st.integers(0, max_ops))):
        kind = draw(st.sampled_from(["insert", "insert", "delete", "noop"]))
        if kind == "insert" or not live:
            row = {"k": draw(st.sampled_from(keys)),
                   value_name: draw(st.sampled_from(values))}
            live.append(row)
            ops.append(dict(row))
        elif kind == "delete":
            victim = live.pop(draw(st.integers(0, len(live) - 1)))
            ops.append({**victim, "__weight__": -1})
        else:  # an update whose new image equals the old one
            row = live[draw(st.integers(0, len(live) - 1))]
            ops.append({**row, "__weight__": -1})
            ops.append(dict(row))
    chunks = []
    while ops:
        take = draw(st.integers(1, 5))
        chunks.append(ops[:take])
        ops = ops[take:]
    return chunks


def _feed(stream, rows):
    """One epoch's ops; a -1/+1 pair of the same row goes in as one
    ``update`` so both halves share the epoch."""
    for row in rows:
        data = {k: v for k, v in row.items() if k != "__weight__"}
        if row.get("__weight__", 1) == 1:
            stream.insert([data])
        else:
            stream.delete([data])


def _distinct_live_rows(chunks) -> int:
    """Live rows, −0.0 equal to 0.0 and the domain's one NaN to itself."""
    net = Counter()
    for chunk in chunks:
        for row in chunk:
            data = tuple(sorted(
                (k, v) for k, v in row.items() if k != "__weight__"))
            net[data] += row.get("__weight__", 1)
    return sum(1 for count in net.values() if count)


@given(history=st.data(), restart_at=st.integers(0, 8),
       schema=st.sampled_from(sorted(JOIN_SCHEMAS)))
def test_join_state_is_the_integral_of_its_input(tmp_path_factory, history,
                                                 restart_at, schema):
    left_schema, right_schema, keys, values = JOIN_SCHEMAS[schema]
    left_chunks = history.draw(cdc_history("v", keys, values), label="left")
    right_chunks = history.draw(cdc_history("w", keys), label="right")
    epochs = max(len(left_chunks), len(right_chunks))
    checkpoint = str(tmp_path_factory.mktemp("integral") / "ckpt")

    left = ChangeStream(StructType(left_schema))
    right = ChangeStream(StructType(right_schema))

    def start(sink=None):
        session = Session()
        joined = session.read_stream.cdc(left).join(
            session.read_stream.cdc(right), on="k")
        writer = joined.write_stream.output_mode("retract")
        writer = (writer.sink(sink) if sink is not None
                  else writer.format("memory").query_name("integral"))
        return writer.start(checkpoint)

    query = start()
    sink = query.engine.sink
    for i in range(epochs):
        if i < len(left_chunks):
            _feed(left, left_chunks[i])
        if i < len(right_chunks):
            _feed(right, right_chunks[i])
        if i == restart_at:
            query = start(sink)     # abandon the engine mid-run
        query.process_all_available()
        fed = (_distinct_live_rows(left_chunks[:i + 1])
               + _distinct_live_rows(right_chunks[:i + 1]))
        assert query.engine.state_store.total_rows() == fed
        if query.last_progress is not None:
            assert query.last_progress.state_rows == fed
    streamed = sink.rows()
    query.stop()

    live_left = batch_recompute(lambda df: df, left_schema, left_chunks)
    live_right = batch_recompute(lambda df: df, right_schema, right_chunks)
    session = Session()
    expected = (session.create_dataframe(live_left, left_schema)
                .join(session.create_dataframe(live_right, right_schema),
                      on="k")
                .collect()) if live_left and live_right else []
    assert canonical_rows(streamed) == canonical_rows(expected)


def test_consolidate_nets_weights_and_keeps_negatives():
    # The join kernel's write-back of one key of a weighted side: three
    # columns, the weight last, and no matched flags (an inner join
    # keeps none; analysis refuses an outer join over a weighted stream).
    layout = _SideLayout(3, False, 2)
    stored = ("a", 1, 1, "a", 2, 1)
    new = [("a", 1, -1), ("a", 1, 1), ("a", 2, 1), ("a", 3, -1)]
    # a/1: +1 -1 +1 = 1; a/2: multiplicity 2; a/3: a delete ahead of
    # its insert stays.
    assert write_back(layout, stored, new) == (
        "a", 1, 1, "a", 2, 2, "a", 3, -1)
    # The insert arriving in a later epoch nets the negative row away,
    # and one netting against two rows leaves one.
    held = ("a", 1, 1, "a", 3, -1)
    assert write_back(layout, held, [("a", 3, 1)]) == ("a", 1, 1)
    assert write_back(layout, held, [("a", 3, 1), ("a", 3, 1)]) == (
        "a", 1, 1, "a", 3, 1)
    # A merge that nets to the stored rows writes nothing.
    assert write_back(layout, stored, [("a", 2, 1), ("a", 2, -1)]) is None
    # A key netting to nothing is removed.
    assert write_back(_SideLayout(2, False, 1), ("x", 1), [("x", -1)]) == ()
    # Nothing merges: the stored rows, then the new ones.
    assert write_back(layout, stored, [("a", 3, 1)]) == stored + (
        "a", 3, 1)
    # The append-only path never merges.
    assert write_back(_SideLayout(3, False, None), stored, new) == (
        stored + tuple(cell for row in new for cell in row))


CELLS = st.one_of(st.integers(), st.floats(), st.text(max_size=3),
                  st.none())


@given(width=st.integers(1, 4), tracked=st.booleans(), data=st.data())
def test_side_codec_round_trips_the_nested_records(width, tracked, data):
    """A join side's value codec maps the nested ``[[row, matched], ...]``
    records a checkpoint holds to the flat layout and back to the same
    JSON bytes; an inner join (no flags stored) writes every row
    unmatched."""
    records = data.draw(st.lists(st.tuples(
        st.lists(CELLS, min_size=width, max_size=width),
        st.booleans() if tracked else st.just(False))))
    layout = _SideLayout(width, tracked, None)
    value = layout.from_disk(json.loads(json.dumps(records)))
    assert type(value) is tuple
    assert layout.rows(value) == len(records)
    assert len(value) == len(records) * (width + tracked)
    assert json.dumps(layout.to_disk(value)) == json.dumps(records)


@pytest.mark.parametrize("right_weighted", [True, False])
def test_multiplicity_two_is_emitted_as_unit_rows(tmp_path, right_weighted):
    """Two identical live rows consolidate to one entry of weight 2; a
    row joining it later still reaches the sink as two +1 rows — also
    when only one side of the join is a CDC stream."""
    from tests.conftest import make_stream

    left = ChangeStream(StructType(LEFT))
    right = ChangeStream(StructType(RIGHT)) if right_weighted \
        else make_stream(RIGHT)
    session = Session()
    right_df = (session.read_stream.cdc(right) if right_weighted
                else session.read_stream.memory(right))
    joined = session.read_stream.cdc(left).join(right_df, on="k")
    query = (joined.write_stream.format("memory").query_name("twice")
             .output_mode("retract").start(str(tmp_path / "ckpt")))
    left.insert([{"k": "a", "v": 1}, {"k": "a", "v": 1}])
    query.process_all_available()
    assert query.engine.state_store.total_rows() == 1
    if right_weighted:
        right.insert([{"k": "a", "w": 7}])
    else:
        right.add_data([{"k": "a", "w": 7}])
    progress = query.process_all_available()[-1]
    assert (progress.output_rows, progress.output_rows_net) == (2, 2)
    assert query.engine.sink.rows() == [{"k": "a", "v": 1, "w": 7}] * 2
    left.delete([{"k": "a", "v": 1}])
    query.process_all_available()
    assert query.engine.sink.rows() == [{"k": "a", "v": 1, "w": 7}]
    query.stop()


def test_cancelled_key_leaves_state_as_a_tombstone(tmp_path):
    left = ChangeStream(StructType(LEFT))
    right = ChangeStream(StructType(RIGHT))
    session = Session()
    joined = session.read_stream.cdc(left).join(
        session.read_stream.cdc(right), on="k")
    query = (joined.write_stream.format("memory").query_name("gone")
             .output_mode("retract").option("state_backend", "dict")
             .start(str(tmp_path / "ckpt")))
    left.insert([{"k": "a", "v": 1}])
    right.insert([{"k": "a", "w": 7}])
    query.process_all_available()
    left.delete([{"k": "a", "v": 1}])
    query.process_all_available()
    assert query.engine.sink.rows() == []
    assert query.engine.state_store.total_rows() == 1   # the right row
    with open(tmp_path / "ckpt" / "state" / "join-left-0"
              / "0000000001.delta.jsonl", encoding="utf-8") as f:
        assert f.read().splitlines()[1] == '["[\\"a\\"]"]'
    # A right row arriving now meets no buffered left row: the cancelled
    # pair is never emitted at all.
    right.insert([{"k": "a", "w": 8}])
    progress = query.process_all_available()
    assert progress[-1].output_rows == 0
    query.stop()


def test_state_rows_gauge_and_event(tmp_path):
    left = ChangeStream(StructType(LEFT))
    right = ChangeStream(StructType(RIGHT))
    session = Session()
    joined = session.read_stream.cdc(left).join(
        session.read_stream.cdc(right), on="k")
    with metrics.enabled() as registry:
        query = (joined.write_stream.format("memory").query_name("rows")
                 .output_mode("retract").start(str(tmp_path / "ckpt")))
        left.insert([{"k": "a", "v": 1}, {"k": "a", "v": 2}])
        right.insert([{"k": "a", "w": 7}])
        progress = query.process_all_available()[-1]
        query.stop()
        assert registry.snapshot()["state.rows"] == 3
    # Two join keys' worth of state, three buffered rows.
    assert (progress.state_keys, progress.state_rows) == (2, 3)
    assert progress.to_json()["stateRows"] == 3


# ----------------------------------------------------------------------
# Immutable join state: restored lists vs written tuples, GC, footprint
# ----------------------------------------------------------------------
def _state_tree(checkpoint) -> dict:
    """Every file under a checkpoint's ``state/``, runs included."""
    root = os.path.join(checkpoint, "state")
    found = {}
    for directory, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, root)] = f.read()
    return found


def _records_written_at(tree: dict, operator: str, version: int) -> list:
    """Record lines ``operator`` wrote for ``version``: its delta file's
    (dict backend), or the runs its manifest added (tiered)."""
    prefix = f"{operator}/{version:010d}."
    if prefix + "delta.jsonl" in tree:
        files = [tree[prefix + "delta.jsonl"]]
    else:
        def runs(v):
            doc = json.loads(tree[f"{operator}/{v:010d}.manifest.json"])
            return {run["seq"] for run in doc["runs"]}
        files = [tree[f"{operator}/runs/{seq:08d}.run"]
                 for seq in sorted(runs(version) - runs(version - 1))]
    return [line for data in files for line in data.splitlines()[1:-1]]


RESTORE_EPOCHS = [
    lambda left, right: (left.insert([{"k": "a", "v": 1}, {"k": "b", "v": 2}]),
                         right.insert([{"k": "a", "w": 7}])),
    lambda left, right: left.insert([{"k": "a", "v": 3}]),
    lambda left, right: right.insert([{"k": "b", "w": 8}]),
    # Epoch 3, first after the restart: a -1/+1 pair of one stored row
    # nets key "a" back to the entries it already has.
    lambda left, right: left.update([{"k": "a", "v": 1}], [{"k": "a", "v": 1}]),
    lambda left, right: right.insert([{"k": "a", "w": 9}]),
]


@pytest.mark.parametrize("backend", ["dict", "tiered"])
def test_restored_join_state_nets_to_no_write(tmp_path, backend):
    """Restored state comes back through the join's value codec as the
    flat tuple the join writes: an epoch that nets a restored key back
    to its rows writes no record for it, and the restarted run's
    checkpoint bytes equal an uninterrupted run's."""
    trees, outputs = [], []
    for restart_at in (None, 3):
        checkpoint = str(tmp_path / f"restart-{restart_at}")
        left = ChangeStream(StructType(LEFT))
        right = ChangeStream(StructType(RIGHT))

        def start(sink=None):
            session = Session()
            joined = session.read_stream.cdc(left).join(
                session.read_stream.cdc(right), on="k")
            writer = (joined.write_stream.output_mode("retract")
                      .option("state_backend", backend)
                      .option("state_memtable_bytes", 2048))
            writer = (writer.sink(sink) if sink is not None
                      else writer.format("memory").query_name("boundary"))
            return writer.start(checkpoint)

        query = start()
        sink = query.engine.sink
        for epoch, step in enumerate(RESTORE_EPOCHS):
            if epoch == restart_at:
                query.stop()
                query = start(sink)
            step(left, right)
            query.process_all_available()
            if epoch == restart_at:
                join = next(op for op in query.engine.plan.stateful_ops
                            if isinstance(op, StreamStreamJoinOp))
                # The boundary is real: "a" was read back from disk,
                # two rows of (k, v, weight) laid flat.
                assert join._left_state.get(("a",)) == (
                    "a", 1, 1, "a", 3, 1)
        query.stop()
        tree = _state_tree(checkpoint)
        assert _records_written_at(tree, "join-left-0", 3) == []
        trees.append(tree)
        outputs.append(sink.rows())
    assert trees[0] == trees[1]
    assert outputs[0] == outputs[1]


def _start_join(source: str, how: str, checkpoint: str):
    """``(left, right, add, query)``: a dict-backend stream–stream join
    over append (``MemoryStream``, watermarked, ``within``-bounded) or
    CDC input; ``add`` names the streams' append method."""
    from tests.conftest import make_stream, start_memory_query

    left_fields = (("k", "long"), ("t", "double"), ("v", "long"))
    right_fields = (("k", "long"), ("t2", "double"), ("w", "long"))
    session = Session()
    if source == "cdc":
        left = ChangeStream(StructType(left_fields))
        right = ChangeStream(StructType(right_fields))
        df = session.read_stream.cdc(left).join(
            session.read_stream.cdc(right), on="k", how=how)
        query = (df.write_stream.format("memory").query_name("gc-cdc")
                 .output_mode("retract").option("state_backend", "dict")
                 .start(checkpoint))
        return left, right, "insert", query
    left, right = make_stream(left_fields), make_stream(right_fields)
    df = (session.read_stream.memory(left).with_watermark("t", "100s")
          .join(session.read_stream.memory(right).with_watermark("t2", "100s"),
                on="k", how=how, within=("t", "t2", "50s")))
    query = start_memory_query(df, "append", f"gc-{how}", checkpoint,
                               state_backend="dict")
    return left, right, "add_data", query


class TestJoinStateFootprint:
    # Outer joins over CDC input are rejected by the analyzer.
    @pytest.mark.parametrize("source, how", [
        ("append", "inner"), ("append", "left_outer"), ("cdc", "inner")])
    def test_stored_join_values_are_not_gc_tracked(self, tmp_path, source,
                                                   how):
        """No stored join value is tracked by the collector, flags
        flipped or not: these all-numeric sides pack a key's rows into
        one bytes object, which the collector never tracks (a flat tuple
        of atomic values leaves it after one pass).  Only an outer join
        stores matched flags."""
        left, right, add, query = _start_join(source, how,
                                              str(tmp_path / "ckpt"))
        epochs = [
            ([{"k": 1, "t": 1.0, "v": 10}, {"k": 2, "t": 2.0, "v": 20}], []),
            ([], [{"k": 1, "t2": 1.5, "w": 7}]),
            ([{"k": 1, "t": 3.0, "v": 11}], [{"k": 3, "t2": 3.0, "w": 9}]),
        ]
        for left_rows, right_rows in epochs:
            for stream, rows in ((left, left_rows), (right, right_rows)):
                if rows:
                    getattr(stream, add)(rows)
            query.process_all_available()
        join = next(op for op in query.engine.plan.stateful_ops
                    if isinstance(op, StreamStreamJoinOp))
        gc.collect()
        values = [(layout, value) for state, layout in (
            (join._left_state, join._left_layout),
            (join._right_state, join._right_layout))
            for _key, value in state.items()]
        flags = [matched for layout, value in values if layout.tracked
                 for _row, matched in layout.to_disk(value)]
        query.stop()
        assert len(values) == 4
        assert sum(layout.rows(value) for layout, value in values) == 5
        assert [v for _layout, v in values if gc.is_tracked(v)] == []
        # The outer join flipped flags (new values); the inner keeps none.
        assert len(flags) == (5 if how == "left_outer" else 0)
        assert any(flags) == (how == "left_outer")

    @staticmethod
    def _retained_per_row(tmp_path, orders_schema, make_order) -> float:
        """Traced bytes the join's two modules hold per buffered row
        after 20 000 CDC rows, two per key, join the state."""
        rows = 20_000
        orders = ChangeStream(StructType(orders_schema))
        customers = ChangeStream(StructType((("cust", "long"),
                                             ("region", "long"))))
        session = Session()
        df = session.read_stream.cdc(orders).join(
            session.read_stream.cdc(customers), on="cust")
        query = (df.write_stream.format("memory").query_name("footprint")
                 .output_mode("retract").option("state_backend", "dict")
                 .start(str(tmp_path / "ckpt")))
        load = [make_order(i) for i in range(rows)]
        orders.insert(load[:10])          # first epoch: plan warm-up
        query.process_all_available()
        tracemalloc.start()
        try:
            orders.insert(load[10:])
            query.process_all_available()
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, module.__file__)
                 for module in (operators, join_state)])
        finally:
            tracemalloc.stop()
        assert query.engine.state_store.total_rows() == rows
        query.stop()
        held = sum(stat.size for stat in snapshot.statistics("filename"))
        return held / (rows - 10)

    def test_buffered_cdc_rows_retain_little(self, tmp_path):
        """20 000 buffered three-``long`` CDC rows, two per key: a key's
        two rows (and weights) are one 97-byte bytes object, ~49 B a row.
        The flat tuple measured 148, one tuple per row inside a tuple of
        ``(row, matched)`` entries 250, the list form 316."""
        assert self._retained_per_row(
            tmp_path,
            (("order_id", "long"), ("cust", "long"), ("amount", "long")),
            lambda i: {"order_id": 10**6 + i, "cust": 10**5 + i // 2,
                       "amount": 1000 + i}) <= 64

    def test_buffered_double_and_boolean_rows_retain_little(self, tmp_path):
        """A ``double`` and a ``boolean`` column pack too: 8 + 8 + 1 + 8
        bytes a row, two rows per 83-byte value."""
        assert self._retained_per_row(
            tmp_path,
            (("cust", "long"), ("amount", "double"), ("paid", "boolean")),
            lambda i: {"cust": 10**5 + i // 2, "amount": i / 4,
                       "paid": i % 3 == 0}) <= 64


# ----------------------------------------------------------------------
# The rebase rule
# ----------------------------------------------------------------------
def _chain(directory) -> dict:
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def _apply(handle, step, version):
    for key, size in step:
        if size:
            handle.put(key, "x" * size)
        else:
            handle.remove(key)
    handle.commit(version)


churn_steps = st.lists(
    st.lists(st.tuples(st.integers(0, 30),
                       st.sampled_from([0, 0, 40, 400, 3000])),
             min_size=0, max_size=6),
    min_size=2, max_size=25)


@given(steps=churn_steps, crash_after=st.integers(0, 24))
def test_rebase_decisions_survive_a_crash_between_any_two_commits(
        tmp_path_factory, steps, crash_after):
    root = tmp_path_factory.mktemp("rebase")
    straight = OperatorStateHandle(str(root / "straight"))
    crashed = OperatorStateHandle(str(root / "crashed"))
    for version, step in enumerate(steps):
        _apply(straight, step, version)
        _apply(crashed, step, version)
        if version == crash_after:
            # Process death: a new handle knows only what is on disk.
            crashed = OperatorStateHandle(str(root / "crashed"))
            assert crashed.restore(version) == version
    assert _chain(root / "straight") == _chain(root / "crashed")


def test_rebase_bounds_write_amplification_and_chain_length(tmp_path):
    handle = OperatorStateHandle(str(tmp_path / "op"))
    weights = {statefile.BASE: [], statefile.DELTA: []}
    longest_chain = chain = 0
    for version in range(200):
        # Up to ~120 KB of live state, ~6 KB rewritten per commit.
        for i in range(12):
            handle.put((version * 7 + i * 13) % 240, "v" * 500)
        handle.remove((version * 11) % 240)
        report = handle.commit(version)
        weights[report["kind"]].append(max(report["bytes"], MIN_FILE_WEIGHT))
        chain = chain + 1 if report["kind"] == statefile.DELTA else 0
        longest_chain = max(longest_chain, chain)
    bases, deltas = weights[statefile.BASE], weights[statefile.DELTA]
    assert len(bases) > 3, "the rule never rebased"
    # A base is written only once the deltas since the previous base
    # outweigh that base, so the bases telescope against the deltas:
    # everything ever written <= 2x the delta bytes + the newest base.
    assert sum(bases) + sum(deltas) <= 2 * sum(deltas) + bases[-1]
    # A chain never outgrows its base by more than one delta, and every
    # delta weighs >= MIN_FILE_WEIGHT: the file count is bounded too.
    assert longest_chain <= max(bases) // MIN_FILE_WEIGHT + 1
    fresh = OperatorStateHandle(str(tmp_path / "op"))
    assert fresh.restore(199) == 199
    assert dict(fresh.items()) == dict(handle.items())
    # ...which is also what bounds recovery: restore replayed at most
    # one base's weight of deltas (plus the delta that tipped it).
    assert (fresh._base_weight, fresh._delta_weight) == \
        (handle._base_weight, handle._delta_weight)
    assert fresh._delta_weight < fresh._base_weight + max(deltas)


def test_rerun_after_rollback_replaces_a_stale_base(tmp_path):
    """A re-run may decide differently than the run that left newer
    files behind; a stale base of the same version must not survive to
    anchor a later restore."""
    handle = OperatorStateHandle(str(tmp_path / "op"))
    handle.put("a", "x" * 10_000)
    kinds = [handle.commit(0)["kind"]]
    for version in range(1, 5):               # small deltas: 4 KiB each
        handle.put(f"k{version}", version)
        kinds.append(handle.commit(version)["kind"])
    assert [k.split(".")[0] for k in kinds] == [
        "base", "delta", "delta", "delta", "base"]

    rolled = OperatorStateHandle(str(tmp_path / "op"))
    assert rolled.restore(1) == 1
    rolled.put("big", "y" * 11_000)           # version 2 now outweighs
    assert rolled.commit(2)["kind"] == statefile.DELTA
    rolled.put("c", 3)
    assert rolled.commit(3)["kind"] == statefile.BASE
    rolled.put("d", 4)
    assert rolled.commit(4)["kind"] == statefile.DELTA
    names = sorted(os.listdir(tmp_path / "op"))
    assert [n.split(".")[0] for n in names] == [
        f"{v:010d}" for v in range(5)], "one file per version"
    fresh = OperatorStateHandle(str(tmp_path / "op"))
    assert fresh.restore(4) == 4
    assert dict(fresh.items()) == {
        "a": "x" * 10_000, "k1": 1, "big": "y" * 11_000, "c": 3, "d": 4}


# ----------------------------------------------------------------------
# The framed codec: torn tails, chunk boundaries
# ----------------------------------------------------------------------
def _three_commits(directory):
    handle = OperatorStateHandle(str(directory))
    for version in range(3):
        handle.put(("k", version), {"n": version})
        handle.commit(version)
    return sorted(os.listdir(directory))


@pytest.mark.parametrize("damage", ["truncate", "wrong-count", "wrong-digest",
                                    "no-trailer"])
def test_torn_newest_state_file_is_quarantined(tmp_path, damage):
    names = _three_commits(tmp_path / "op")
    path = tmp_path / "op" / names[-1]
    lines = path.read_bytes().splitlines(keepends=True)
    trailer = json.loads(lines[-1])
    if damage == "truncate":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif damage == "no-trailer":
        path.write_bytes(b"".join(lines[:-1]))
    else:
        if damage == "wrong-count":
            trailer["count"] += 1
        else:
            trailer["sha256"] = "0" * 64
        path.write_bytes(b"".join(lines[:-1])
                         + json.dumps(trailer).encode() + b"\n")
    reopened = OperatorStateHandle(str(tmp_path / "op"))
    assert reopened.repaired == [str(path)]
    assert reopened.restore(2) == 1      # falls back; the WAL replays 2
    assert dict(reopened.items()) == {("k", 0): {"n": 0}, ("k", 1): {"n": 1}}


def test_torn_older_state_file_is_real_corruption(tmp_path):
    names = _three_commits(tmp_path / "op")
    path = tmp_path / "op" / names[0]
    path.write_bytes(path.read_bytes()[:40])
    reopened = OperatorStateHandle(str(tmp_path / "op"))
    assert reopened.repaired == []
    with pytest.raises(ValueError):
        reopened.restore(0)


@given(values=st.lists(st.one_of(st.none(), st.integers(), st.text(max_size=8),
                                 st.lists(st.integers(), max_size=3)),
                       max_size=12),
       chunk=st.integers(1, 64))
def test_framed_reader_is_chunking_invariant(values, chunk):
    records = [(json.dumps([i]), statefile.TOMBSTONE if v is None else v)
               for i, v in enumerate(values)]
    records.sort(key=lambda r: r[0])
    writer = statefile.StateFileWriter("delta", 3)
    data = "".join(writer.chunks(records)).encode("ascii")
    assert writer.bytes == len(data)
    pieces = [data[i:i + chunk] for i in range(0, len(data), chunk)]
    assert list(statefile.read_records(pieces)) == records
    with pytest.raises(ValueError):
        list(statefile.read_records([data[:writer.records_end]]))


def _file_text(value, version=1) -> str:
    """One state file holding ``value`` under key ``[1]``."""
    return "".join(statefile.StateFileWriter("delta", version)
                   .chunks([("[1]", value)]))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=4)),
    max_leaves=12)


@given(value=json_values)
@example(value=[-0.0, 1e16, 2 ** 70, -(2 ** 64), float("nan"), float("inf"),
                float("-inf"), "é€\U0001f600\x00", ((1, [2.5]), False),
                {"b": 1, "a": (2, ["ü"]), "": None}])
def test_file_encoder_line_equals_encode(value):
    """Each file binds its C encoder once; its lines are byte for byte
    :func:`statefile.encode`'s (``sort_keys``, ASCII, NaN/Infinity, a
    tuple as a list)."""
    lines = _file_text(value).splitlines()
    assert lines[1] == statefile.encode(["[1]", value])
    assert lines[1].isascii()


def test_file_encoder_without_the_c_encoder(monkeypatch):
    value = {"z": [1, (2.5, None)], "a": "é", "n": float("nan")}
    expected = _file_text(value)
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert statefile._file_encoder() is statefile.encode
    assert _file_text(value) == expected


def test_file_encoder_checks_cycles_and_starts_clean_per_file():
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        _file_text(loop)
    # A TypeError part-way through a file leaves the failed value's
    # marker in that file's encoder; the next file's encoder is fresh,
    # so the same (now encodable) list is not mistaken for a cycle.
    value = [[object()]]
    with pytest.raises(TypeError):
        _file_text(value, 2)
    value[0] = [1]
    assert _file_text(value, 3).splitlines()[1] == '["[1]",[[1]]]'


# ----------------------------------------------------------------------
# Legacy read: checkpoints written before the framed codec
# ----------------------------------------------------------------------
# Literal files as the previous format wrote them (pretty-printed
# ``json.dumps(..., indent=2, sort_keys=True)`` documents; bare sorted
# JSONL runs with a pretty-printed sidecar).  Restore-only: never written.
LEGACY_DICT_CHAIN = {
    "0000000000.snapshot.json": (
        '{\n  "data": {\n    "[\\"a\\"]": [\n      [\n        [\n'
        '          "a",\n          1,\n          1\n        ],\n'
        '        false\n      ]\n    ],\n    "[\\"b\\"]": [\n      [\n'
        '        [\n          "b",\n          2,\n          1\n        ],\n'
        '        false\n      ],\n      [\n        [\n          "b",\n'
        '          3,\n          1\n        ],\n        false\n      ]\n'
        # ...and one 9 KB value, so the snapshot outweighs the two legacy
        # deltas and the next commit extends this chain with a delta.
        '    ],\n    "[\\"pad\\"]": "' + "p" * 9000 + '"\n'
        '  },\n  "kind": "snapshot"\n}'),
    "0000000001.delta.json": (
        '{\n  "kind": "delta",\n  "puts": {\n    "[\\"c\\"]": [\n      [\n'
        '        [\n          "c",\n          4,\n          1\n        ],\n'
        '        false\n      ]\n    ]\n  },\n  "removes": [\n'
        '    "[\\"a\\"]"\n  ]\n}'),
    "0000000003.delta.json": (
        '{\n  "kind": "delta",\n  "puts": {\n    "[\\"b\\"]": [\n      [\n'
        '        [\n          "b",\n          2,\n          1\n        ],\n'
        '        true\n      ]\n    ]\n  },\n  "removes": []\n}'),
}
LEGACY_DICT_STATE = {
    ("b",): [[["b", 2, 1], True]],
    ("c",): [[["c", 4, 1], False]],
    ("pad",): "p" * 9000,
}

LEGACY_TIERED = {
    "0000000001.manifest.json": (
        '{\n  "kind": "manifest",\n  "live_keys": 2,\n  "next_seq": 2,\n'
        '  "runs": [\n    {\n      "count": 2,\n      "seq": 0,\n'
        '      "sha256": "f773c5c06eb1258b87d429ec331dcf2179023da23c73532e'
        '31406a1b032ab062"\n    },\n    {\n      "count": 2,\n'
        '      "seq": 1,\n      "sha256": "285763cfe3547d0b0520b5a891b1ad55'
        '6fddb46e450303c406dc68247cfd7479"\n    }\n  ]\n}'),
    "runs/00000000.meta": (
        '{\n  "bloom": "214809428010a404",\n  "bloom_m": 64,\n'
        '  "bytes": 94,\n  "count": 2,\n  "index_every": 64,\n'
        '  "index_keys": [\n    "[\\"a\\"]"\n  ],\n  "index_offsets": [\n'
        '    0\n  ],\n  "max_key": "[\\"b\\"]",\n  "min_key": "[\\"a\\"]",\n'
        '  "sha256": "f773c5c06eb1258b87d429ec331dcf2179023da23c73532e31406'
        'a1b032ab062"\n}'),
    "runs/00000000.run": (
        '["[\\"a\\"]", [[["a", 1, 1], false]]]\n'
        '["[\\"b\\"]", [[["b", 2, 1], false], [["b", 3, 1], false]]]\n'),
    "runs/00000001.meta": (
        '{\n  "bloom": "0358800284286400",\n  "bloom_m": 64,\n'
        '  "bytes": 48,\n  "count": 2,\n  "index_every": 64,\n'
        '  "index_keys": [\n    "[\\"a\\"]"\n  ],\n  "index_offsets": [\n'
        '    0\n  ],\n  "max_key": "[\\"c\\"]",\n  "min_key": "[\\"a\\"]",\n'
        '  "sha256": "285763cfe3547d0b0520b5a891b1ad556fddb46e450303c406dc6'
        '8247cfd7479"\n}'),
    "runs/00000001.run": (
        '["[\\"a\\"]"]\n["[\\"c\\"]", [[["c", 4, 1], false]]]\n'),
}


def _materialize(directory, files):
    for name, text in files.items():
        path = os.path.join(directory, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


@pytest.mark.parametrize("backend", ["dict", "tiered"])
def test_legacy_dict_chain_restores_on_both_backends(tmp_path, backend):
    directory = str(tmp_path / "op")
    _materialize(directory, LEGACY_DICT_CHAIN)
    make = (OperatorStateHandle if backend == "dict"
            else lambda d: TieredOperatorStateHandle(d, memtable_bytes=10_000))
    handle = make(directory)
    assert handle.repaired == []
    assert handle.restore(9) == 3
    assert dict(handle.items()) == LEGACY_DICT_STATE
    assert len(handle) == 3
    assert handle.oldest_restorable_version() == 0
    older = make(directory)
    assert older.restore(2) == 1            # any retained version
    assert older.get(("b",)) == [[["b", 2, 1], False], [["b", 3, 1], False]]
    # Continue: new commits are written in the current format only, and
    # the mixed chain (legacy snapshot + legacy deltas + framed delta)
    # keeps restoring.
    handle.put(("d",), [[["d", 5, 1], False]])
    handle.commit(4)
    written = set(os.listdir(directory)) - set(LEGACY_DICT_CHAIN) - {"runs"}
    assert written == ({"0000000004.delta.jsonl"} if backend == "dict"
                       else {"0000000004.manifest.json"})
    again = make(directory)
    assert again.restore(4) == 4
    assert dict(again.items()) == {
        **LEGACY_DICT_STATE, ("d",): [[["d", 5, 1], False]]}


def test_legacy_tiered_runs_restore_and_compact_forward(tmp_path):
    directory = str(tmp_path / "op")
    _materialize(directory, LEGACY_TIERED)
    handle = TieredOperatorStateHandle(directory, memtable_bytes=10_000)
    handle.set_row_count(1)
    assert handle.restore(1) == 1
    assert handle.get(("a",)) is None       # tombstoned in run 1
    assert handle.get(("b",)) == [[["b", 2, 1], False], [["b", 3, 1], False]]
    # No live_rows in an old manifest: recounted from the runs.
    assert (len(handle), handle.rows) == (2, 3)
    assert dict(handle.items()) == {
        ("b",): [[["b", 2, 1], False], [["b", 3, 1], False]],
        ("c",): [[["c", 4, 1], False]],
    }
    # New runs are framed; a compaction merging old and new reads both.
    for version in range(2, 6):
        handle.put(("n", version), [[["n", version, 1], False]])
        handle.commit(version)
    again = TieredOperatorStateHandle(directory, memtable_bytes=10_000)
    assert again.restore(5) == 5
    assert len(again) == 6 and again.get(("c",)) == [[["c", 4, 1], False]]
    assert again.get(("a",)) is None
