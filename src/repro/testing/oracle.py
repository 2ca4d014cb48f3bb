"""Differential oracle: incremental execution must equal batch recompute.

The paper's correctness story (§4.2, prefix consistency) says a
streaming query's result is always the batch query applied to a prefix
of the input — no matter how that prefix was chunked into epochs, where
the engine crashed and restarted, or (with retraction deltas) in what
order inserts and deletes arrived.  This module turns that statement
into an executable check:

* :func:`check_differential` runs one query (or a cascade of queries
  chained through stream tables) epoch by epoch over a chunked input
  changelog, optionally killing and restarting every engine between
  chunks, then replays the *entire* concatenated input through the
  batch engine and asserts the two results are the same multiset.
* For weighted (CDC) input the batch side first nets the changelog with
  :func:`repro.streaming.zset.apply_zset` — the live rows a database
  table would hold after applying every insert/update/delete.
* With ``partitions``, append-only input goes to a kafka-sim topic of
  that many partitions instead, each row to the partition its
  ``__partition__`` field names, so an epoch reads a chunked batch
  (one part per non-empty partition); the batch side reads each
  chunk's rows in that same partition order.

Tests supply only the query builder and the input chunks; the oracle
owns sessions, checkpoints, restarts, and row canonicalization (numpy
scalars, float rounding) so property-based suites can drive it straight
from hypothesis strategies.
"""

from __future__ import annotations

import os
from collections import Counter

from repro.bus import Broker, Topic
from repro.sql.session import Session
from repro.sql.types import StructType, WEIGHT_COLUMN, hashable_value
from repro.sources.cdc import ChangeStream
from repro.sources.memory import MemoryStream
from repro.streaming.zset import apply_zset

#: Decimal places kept when comparing float cells: wide enough to catch
#: real bugs, forgiving of incremental-vs-batch summation order.
FLOAT_PLACES = 6
#: Row field naming the kafka-sim partition an oracle input row goes to.
PARTITION_KEY = "__partition__"


def canonical_rows(rows, float_places: int = FLOAT_PLACES) -> Counter:
    """Rows as a multiset of canonical (column, value) tuples."""
    return Counter(
        tuple(sorted((k, canonical_value(v, float_places)) for k, v in row.items()))
        for row in rows
    )


def canonical_value(value, float_places: int = FLOAT_PLACES):
    """One cell folded to a hashable, dtype- and rounding-insensitive form."""
    value = hashable_value(value)
    if isinstance(value, float):
        return hashable_value(round(value, float_places))
    if isinstance(value, tuple):
        return tuple(canonical_value(v, float_places) for v in value)
    return value


def feed(stream, rows) -> None:
    """Push one chunk of (possibly weighted) row dicts into a source.

    Rows may carry ``__weight__`` (+1/-1, missing means +1) when the
    stream is a :class:`ChangeStream`, and ``__partition__`` (missing
    means 0) when it is a kafka-sim :class:`~repro.bus.Topic`; plain
    sources take rows as-is.
    """
    if isinstance(stream, Topic):
        placed = [[] for _ in stream.partitions]
        for row in rows:
            data = dict(row)
            placed[data.pop(PARTITION_KEY, 0)].append(data)
        for partition, data in enumerate(placed):
            if data:
                stream.publish_to(partition, data)
        return
    if not isinstance(stream, ChangeStream):
        stream.add_data([dict(r) for r in rows])
        return
    for row in rows:
        weight = int(row.get(WEIGHT_COLUMN, 1))
        data = {k: v for k, v in row.items() if k != WEIGHT_COLUMN}
        if weight == 1:
            stream.insert([data])
        elif weight == -1:
            stream.delete([data])
        else:
            raise ValueError(f"bad weight {weight} in oracle input row {row!r}")


def check_differential(builders, schema, chunks, workdir, *,
                       weighted: bool = True, output_mode: str = None,
                       restart_after=(), options=None,
                       float_places: int = FLOAT_PLACES,
                       partitions: int = None) -> list:
    """Assert incremental == batch for a query or cascade; return rows.

    ``builders`` is one callable ``df -> df`` or a list of them: with
    several, stage ``i`` publishes to a stream table that stage ``i+1``
    reads (each stage has its own checkpoint), which is the cascading
    materialized-view path.  ``chunks`` is a list of row-dict lists;
    after feeding chunk ``i`` every stage processes all available input,
    and if ``i`` is in ``restart_after`` every engine is abandoned and
    restarted from its checkpoint first (crash-recovery differential).
    ``weighted`` selects a CDC source (rows may carry ``__weight__``)
    versus a plain append-only memory source; ``partitions`` an
    append-only kafka-sim topic of that many partitions (rows may carry
    ``__partition__``).

    The batch oracle nets the full concatenated changelog (weighted
    case) and runs the composed builders through the batch engine; the
    streamed sink contents must match as a multiset.
    """
    if callable(builders):
        builders = [builders]
    schema = schema if isinstance(schema, StructType) else StructType(tuple(schema))
    if output_mode is None:
        output_mode = "retract" if weighted else "append"
    options = dict(options or {})

    session = Session()
    if partitions:
        if weighted:
            raise ValueError("a partitioned oracle input is append-only")
        broker = Broker()
        stream = broker.create_topic("oracle", partitions)
        reader = session.read_stream.kafka(broker, "oracle", schema)
    elif weighted:
        stream = ChangeStream(schema)
        reader = session.read_stream.cdc(stream)
    else:
        stream = MemoryStream(schema)
        reader = session.read_stream.memory(stream)

    # Build the stage DataFrames; stage i>0 reads stage i-1's table.
    # Upstream stages must publish before downstream ones can bind their
    # schema, so start stage 0 first, then 1, ...
    stage_dfs, queries = [], []
    sink = None

    def start_stage(index, resume_sink=None):
        df = stage_dfs[index]
        last = index == len(builders) - 1
        writer = df.write_stream
        if last:
            if resume_sink is not None:
                writer = writer.sink(resume_sink)
            else:
                writer = writer.format("memory").query_name("oracle")
            writer = writer.output_mode(output_mode)
        else:
            stage_mode = "retract" if weighted else "append"
            writer = writer.to_table(f"oracle_stage_{index}").output_mode(stage_mode)
        for key, value in options.items():
            writer = writer.option(key, value)
        checkpoint = os.path.join(str(workdir), f"oracle-ckpt-{index}")
        return writer.start(checkpoint)

    for index, build in enumerate(builders):
        if index == 0:
            stage_dfs.append(build(reader))
        else:
            stage_dfs.append(build(session.read_stream_table(f"oracle_stage_{index - 1}")))
        query = start_stage(index)
        queries.append(query)
        query.process_all_available()  # bind downstream table schemas
    sink = queries[-1].engine.sink

    restart_after = set(restart_after)
    for i, chunk in enumerate(chunks):
        feed(stream, chunk)
        if i in restart_after:
            # Crash: abandon every engine, restart on the same checkpoints.
            queries = [
                start_stage(index, resume_sink=sink if index == len(builders) - 1 else None)
                for index in range(len(builders))
            ]
        for query in queries:
            query.process_all_available()
    # One more pass so late cross-stage deltas drain fully.
    for query in queries:
        query.process_all_available()
    streamed = sink.rows()
    for query in queries:
        query.stop()

    expected = batch_recompute(builders, schema, chunks, weighted=weighted)
    got, want = (canonical_rows(streamed, float_places),
                 canonical_rows(expected, float_places))
    assert got == want, (
        f"incremental != batch\n  streamed: {sorted(got.items())}\n"
        f"  expected: {sorted(want.items())}"
    )
    return streamed


def batch_recompute(builders, schema, chunks, *, weighted: bool = True) -> list:
    """The batch oracle: net the changelog, run the composed query."""
    if callable(builders):
        builders = [builders]
    # An epoch reads its partitions in order, each in publish order.
    all_rows = [row for chunk in chunks for row in sorted(
        chunk, key=lambda row: row.get(PARTITION_KEY, 0))]
    live = apply_zset(all_rows) if weighted else [
        {k: v for k, v in row.items() if k != PARTITION_KEY}
        for row in all_rows
    ]
    session = Session()
    df = session.create_dataframe(live, schema)
    for build in builders:
        df = build(df)
    return df.collect()
