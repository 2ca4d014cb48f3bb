"""Null and NaN join keys in a stream–stream join.

A key holding a null or NaN matches no row, not even one with the same
key.  An inner join therefore drops such delta rows before they are
buffered — held, they could never produce output, and with no
``within`` bound nothing would ever evict them.  An outer join still
buffers them, to emit them null-padded once the watermark passes —
every one of them, also when two null keys group apart but share one
state key.

The corpus label 9fff8e5 holds the checkpoint of an inner join that
still buffered null keys (scenario ``nan_key_join`` of
``tests/checkpoint_scenarios.py``): ``[NaN]`` rows sit in its state, and
a query restarted on it must continue to the uninterrupted run's table.
"""

from __future__ import annotations

from repro.sql.session import Session
from repro.testing.oracle import canonical_rows

from tests import checkpoint_scenarios as corpus
from tests.conftest import make_stream, start_memory_query

NAN = float("nan")


def _double_key_join(how="inner", within=None):
    session = Session()
    left = make_stream((("k", "double"), ("t", "timestamp"), ("v", "long")))
    right = make_stream((("k", "double"), ("t2", "timestamp"),
                         ("w", "long")))
    left_df = session.read_stream.memory(left)
    right_df = session.read_stream.memory(right)
    if within is not None:
        left_df = left_df.with_watermark("t", "5s")
        right_df = right_df.with_watermark("t2", "5s")
    return [left, right], left_df.join(right_df, on="k", how=how,
                                       within=within)


def test_inner_join_buffers_no_null_key_rows():
    (left, right), df = _double_key_join()
    query = start_memory_query(df, "append", "null-keys")
    left.add_data([{"k": None, "t": 1.0, "v": i} for i in range(1000)]
                  + [{"k": NAN, "t": 1.0, "v": -1},
                     {"k": 1.0, "t": 1.0, "v": 7}])
    right.add_data([{"k": 1.0, "t2": 1.0, "w": 3},
                    {"k": NAN, "t2": 1.0, "w": 4}])
    query.process_all_available()
    assert query.engine.state_store.total_rows() == 2
    assert query.engine.sink.rows() == [{"k": 1.0, "t": 1.0, "v": 7,
                                         "t2": 1.0, "w": 3}]
    query.stop()


def test_outer_join_still_emits_null_key_rows_at_eviction():
    (left, right), df = _double_key_join("left_outer", ("t", "t2", "2s"))
    query = start_memory_query(df, "append", "null-outer")
    left.add_data([{"k": NAN, "t": 1.0, "v": 1}, {"k": 2.0, "t": 1.0, "v": 2}])
    right.add_data([{"k": NAN, "t2": 1.0, "w": 9}])
    query.process_all_available()
    assert query.engine.state_store.total_rows() == 3
    left.add_data([{"k": 5.0, "t": 30.0, "v": 5}])
    right.add_data([{"k": 6.0, "t2": 30.0, "w": 6}])
    query.process_all_available()
    left.add_data([{"k": 5.0, "t": 31.0, "v": 5}])
    query.process_all_available()
    rows = query.engine.sink.rows()
    # The sink reads a NaN key back as null.
    assert sorted((r["v"], r["k"], r["w"]) for r in rows) == [
        (1, None, None), (2, 2.0, None)]
    query.stop()


def test_outer_join_keeps_both_rows_of_a_two_column_nan_key():
    """Two rows whose ``(double, string)`` key holds a NaN group apart
    (a NaN never equals another) but share one state key, ``[NaN,
    "x"]``: both are buffered, and both come out null-padded."""
    session = Session()
    left = make_stream((("a", "double"), ("b", "string"),
                        ("t", "timestamp"), ("v", "long")))
    right = make_stream((("a", "double"), ("b", "string"),
                         ("t2", "timestamp"), ("w", "long")))
    df = (session.read_stream.memory(left).with_watermark("t", "5s")
          .join(session.read_stream.memory(right).with_watermark("t2", "5s"),
                on=["a", "b"], how="left_outer", within=("t", "t2", "2s")))
    query = start_memory_query(df, "append", "nan-pair")
    left.add_data([{"a": NAN, "b": "x", "t": 1.0, "v": 1},
                   {"a": NAN, "b": "x", "t": 1.0, "v": 2}])
    query.process_all_available()
    assert query.engine.state_store.total_rows() == 2
    left.add_data([{"a": 5.0, "b": "y", "t": 30.0, "v": 5}])
    right.add_data([{"a": 6.0, "b": "y", "t2": 30.0, "w": 6}])
    query.process_all_available()
    left.add_data([{"a": 5.0, "b": "y", "t": 31.0, "v": 7}])
    query.process_all_available()  # the watermarks evict the NaN rows
    assert sorted(r["v"] for r in query.engine.sink.rows()) == [1, 2]
    query.stop()


def test_parent_checkpoint_with_nan_key_rows_restarts(tmp_path):
    scenario = corpus.SCENARIOS["nan_key_join"]
    files = corpus.load_label("9fff8e5")["nan_key_join"]
    assert any(b'["[NaN]"' in data for path, data in files.items()
               if path.startswith("state/"))
    sources, plan, sink = corpus.write_first_half(scenario, tmp_path / "own")
    queries = corpus.start(plan, scenario.mode,
                           corpus.materialize(files, tmp_path / "parent"),
                           scenario.restart_options(), sink=sink)
    corpus.drive(sources, queries, scenario.second)
    corpus.stop(queries)

    reference = corpus.run_whole(scenario, tmp_path / "ref")
    assert len(sink.rows()) == 6
    assert canonical_rows(sink.rows()) == canonical_rows(reference)
