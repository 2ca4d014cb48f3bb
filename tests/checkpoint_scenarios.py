"""The checkpoint-compatibility corpus: its scenarios and labels (§7.2).

A *scenario* is a query with fixed input: the epochs before a restart
and the epochs after it, the output mode and the state backend.  A
*label* holds the checkpoint files one tree wrote for its scenarios
after their first epochs: ``tests/data/checkpoints/<label>.json`` maps
scenario -> path -> file, a ``.block`` file or any other that is not
UTF-8 as ``{"base64": ...}`` and text as it is.  ``index.json`` there lists
the labels oldest first, each with the commit of the tree that wrote
it (the label's name where the tool wrote it).

``tests/test_checkpoint_corpus.py`` restarts every scenario on every
label's files and compares what the current tree writes with them
(``tests/sweep.py`` crashes every scenario in the fault sweep);
``tools/checkpoint_corpus.py write <label>`` (``make corpus
LABEL=<label>``) writes a label with whichever ``repro`` is importable.
A deliberate change to a scenario's files is a :class:`Bump` on its
entry plus the label the changing tree writes (docs/state_store.md,
*Compatibility corpus*).
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from repro.sources import ChangeStream
from repro.sql import functions as F
from repro.sql.session import Session
from repro.sql.types import StructType
from repro.testing.harness import checkpoint_fingerprint
from repro.testing.oracle import feed

from tests.conftest import make_stream

CORPUS = os.path.join(os.path.dirname(__file__), "data", "checkpoints")
INDEX = os.path.join(CORPUS, "index.json")
#: The tiered scenarios' memtable budget: small enough that every
#: scenario spills to sorted runs and compacts.
MEMTABLE_BYTES = 64
NAN = float("nan")
KV = (("k", "string"), ("v", "long"))


@dataclass(frozen=True)
class Bump:
    """A deliberate change to a scenario's files.  ``commit`` names the
    label the changing tree wrote; ``files`` is a glob over checkpoint
    paths that matches the files before and after the change."""

    commit: str
    files: str
    reason: str


@dataclass(frozen=True)
class Scenario:
    """``build()`` returns ``(sources, plan)``: ``plan`` is a streaming
    DataFrame, or a list of stages, each a DataFrame or a function
    returning one, where every stage but the last publishes to the
    stream table ``stage<i>`` and has its own checkpoint ``stage<i>/``.
    An epoch is one row list per source."""

    build: Callable
    mode: str
    backend: str
    first: list
    second: list
    bumps: tuple = ()

    def options(self) -> dict:
        """The options its label is written with: the backend is always
        set, so ``REPRO_STATE_BACKEND`` cannot change what a label
        holds."""
        if self.backend == "tiered":
            return {"state_backend": "tiered",
                    "state_memtable_bytes": MEMTABLE_BYTES}
        return {"state_backend": self.backend}

    def restart_options(self) -> dict:
        """The options a restart and the reference run take: a dict
        checkpoint restarts on the environment's backend (the tiered
        one loads dict chains), a tiered one on the tiered backend."""
        return self.options() if self.backend == "tiered" else {}


# ---------------------------------------------------------------------------
# Running a scenario
# ---------------------------------------------------------------------------
def start(plan, mode, root, options, sink=None, trigger=None) -> list:
    """Start a plan's stages on checkpoints under ``root``; the last
    stage writes to ``sink`` (a new memory sink when None) under
    ``trigger`` (``DataStreamWriter.trigger`` keywords; manual when
    None)."""
    stages = plan if isinstance(plan, list) else [plan]
    queries = []
    for i, stage in enumerate(stages):
        df = stage() if callable(stage) else stage
        writer = df.write_stream
        if i < len(stages) - 1:
            writer = writer.to_table(f"stage{i}").output_mode("retract")
        else:
            writer = writer.output_mode(mode)
            writer = (writer.sink(sink) if sink is not None
                      else writer.format("memory").query_name("corpus"))
            if trigger is not None:
                writer = writer.trigger(**trigger)
        for key, value in options.items():
            writer = writer.option(key, value)
        checkpoint = (root if len(stages) == 1
                      else os.path.join(root, f"stage{i}"))
        queries.append(writer.start(str(checkpoint)))
    return queries


def drive(sources, queries, epochs) -> None:
    for epoch in epochs:
        for source, rows in zip(sources, epoch):
            feed(source, rows)
        for query in queries:
            query.process_all_available()


def stop(queries) -> None:
    for query in queries:
        query.stop()


def write_first_half(scenario: Scenario, root):
    """Run a scenario's pre-restart epochs under ``root``; returns
    ``(sources, plan, sink)`` for a restart to continue with."""
    sources, plan = scenario.build()
    queries = start(plan, scenario.mode, root, scenario.options())
    drive(sources, queries, scenario.first)
    stop(queries)
    return sources, plan, queries[-1].engine.sink


def run_whole(scenario: Scenario, root) -> list:
    """The sink table of an uninterrupted run over every epoch."""
    sources, plan = scenario.build()
    queries = start(plan, scenario.mode, root, scenario.restart_options())
    drive(sources, queries, scenario.first + scenario.second)
    stop(queries)
    return queries[-1].engine.sink.rows()


def fingerprint(root) -> dict:
    """``checkpoint_fingerprint`` over a scenario's checkpoints."""
    stages = sorted(n for n in os.listdir(root) if n.startswith("stage"))
    if not stages:
        return checkpoint_fingerprint(str(root))
    return {f"{stage}/{path}": data for stage in stages
            for path, data in checkpoint_fingerprint(
                os.path.join(root, stage)).items()}


def durable_files(root) -> dict:
    """The files a restart reads under ``root``, by path: metadata, WAL
    and state (tiered runs included), not event logs."""
    found = {}
    for directory, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            parts = os.path.relpath(path, root).split(os.sep)
            inner = parts[1:] if parts[0].startswith("stage") else parts
            if inner[0] in ("offsets", "commits", "state") \
                    or inner == ["metadata.json"]:
                with open(path, "rb") as f:
                    found["/".join(parts)] = f.read()
    return found


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------
def label_index() -> list:
    """``[{"label", "commit", ...}]``, oldest first."""
    with open(INDEX, encoding="utf-8") as f:
        return json.load(f)


def label_path(label: str) -> str:
    return os.path.join(CORPUS, f"{label}.json")


def load_label(label: str) -> dict:
    """scenario -> path -> file bytes."""
    with open(label_path(label), encoding="utf-8") as f:
        stored = json.load(f)
    return {name: {path: (base64.b64decode(value["base64"])
                          if isinstance(value, dict) else value.encode())
                   for path, value in files.items()}
            for name, files in stored.items()}


def _text(path: str, data: bytes):
    """A file's text, or None for a block or any other binary file."""
    if path.endswith(".block"):
        return None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return None


def encode_files(files: dict) -> dict:
    """A label's JSON form of path -> file bytes."""
    encoded = {}
    for path, data in files.items():
        text = _text(path, data)
        encoded[path] = (text if text is not None else
                         {"base64": base64.b64encode(data).decode("ascii")})
    return encoded


def materialize(files: dict, root):
    """Write a label's files for one scenario under ``root``."""
    for relative, data in files.items():
        path = os.path.join(root, relative)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            f.write(data)
    return root


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------
def _del(**row):
    return {**row, "__weight__": -1}


def _windowed_count(delay):
    stream = make_stream([("t", "timestamp"), ("k", "string")])
    df = (Session().read_stream.memory(stream).with_watermark("t", delay)
          .group_by(F.window("t", "10s"), "k").count())
    return [stream], df


def _weighted_agg():
    cdc = ChangeStream(StructType(KV))
    df = (Session().read_stream.cdc(cdc).group_by("k")
          .agg(F.sum("v").alias("s"), F.count().alias("n")))
    return [cdc], df


def _weighted_dedup(schema):
    cdc = ChangeStream(StructType(schema))
    return [cdc], Session().read_stream.cdc(cdc).drop_duplicates(["k"])


def _weighted_join(left_schema, right_schema):
    session = Session()
    left = ChangeStream(StructType(left_schema))
    right = ChangeStream(StructType(right_schema))
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


def _double_key_join():
    session = Session()
    left = make_stream((("k", "double"), ("t", "timestamp"), ("v", "long")))
    right = make_stream((("k", "double"), ("t2", "timestamp"),
                         ("w", "long")))
    df = session.read_stream.memory(left).join(
        session.read_stream.memory(right), on="k")
    return [left, right], df


def _append_dedup():
    stream = make_stream([("t", "timestamp"), ("k", "string"), ("v", "long")])
    df = (Session().read_stream.memory(stream).with_watermark("t", "10s")
          .drop_duplicates(["k", "t"]))
    return [stream], df


def _sessions(key, rows, state):
    """Counts and sums a user's events; a user idle past the watermark
    by 10 s times out, and one reaching 100 is dropped."""
    if state.has_timed_out:
        state.remove()
        return {"events": -1, "total": -1}
    rows = list(rows)
    events, total = state.get_option([0, 0])
    events, total = events + len(rows), total + sum(r["v"] for r in rows)
    if total >= 100:
        state.remove()
    else:
        state.update([events, total])
        state.set_timeout_timestamp(max(r["t"] for r in rows) + 10.0)
    return {"events": events, "total": total}


def _map_groups_with_state():
    stream = make_stream([("t", "timestamp"), ("user", "string"),
                          ("v", "long")])
    df = (Session().read_stream.memory(stream).with_watermark("t", "0s")
          .group_by_key("user")
          .map_groups_with_state(_sessions, (("user", "string"),
                                             ("events", "long"),
                                             ("total", "long")),
                                 timeout="event_time"))
    return [stream], df


def _stateless():
    stream = make_stream([("v", "long")])
    df = (Session().read_stream.memory(stream).where(F.col("v") > 0)
          .select((F.col("v") * 10).alias("x")))
    return [stream], df


def _cascade():
    """CDC rows, filtered into a stream table (stage 0), summed per key
    downstream (stage 1)."""
    session = Session()
    cdc = ChangeStream(StructType(KV))
    silver = session.read_stream.cdc(cdc).filter(F.col("v") > 0)
    return [cdc], [silver, lambda: (session.read_stream_table("stage0")
                                    .group_by("k")
                                    .agg(F.sum("v").alias("total")))]


#: f5efb45 wrote packed handles' state as binary blocks, where earlier
#: trees wrote JSONL.
_BLOCKS = "packed join sides and weighted dedup checkpoint as .block files"

_WINDOWED_APPEND = ([
    [[{"t": 1.0, "k": "a"}, {"t": 2.0, "k": "b"}, {"t": 12.0, "k": "a"}]],
    [[{"t": 25.0, "k": "c"}, {"t": 3.0, "k": "b"}]],   # window 0 closes
    [[{"t": 4.0, "k": "a"}, {"t": 31.0, "k": "a"}]],   # 4.0 is late
], [
    [[{"t": 33.0, "k": "a"}, {"t": 45.0, "k": "d"}]],
    [[{"t": 70.0, "k": "e"}]],
])
_APPEND_DEDUP = ([
    [[{"t": 1.0, "k": "a", "v": 1}, {"t": 1.0, "k": "a", "v": 2},
      {"t": 2.0, "k": "b", "v": 3}]],
    [[{"t": 1.0, "k": "a", "v": 4}, {"t": 20.0, "k": "c", "v": 5}]],
], [
    [[{"t": 2.0, "k": "b", "v": 6}, {"t": 20.0, "k": "c", "v": 7},
      {"t": 21.0, "k": "c", "v": 8}]],   # b's row is late: dropped
    [[{"t": 40.0, "k": "d", "v": 9}, {"t": 21.0, "k": "c", "v": 10}]],
])
_SESSIONS = ([
    [[{"t": 1.0, "user": "u1", "v": 5}, {"t": 2.0, "user": "u2", "v": 50}]],
    [[{"t": 3.0, "user": "u2", "v": 60}, {"t": 4.0, "user": "u1", "v": 1}]],
], [
    [[{"t": 30.0, "user": "u3", "v": 7}]],   # u1 times out
    [[{"t": 31.0, "user": "u2", "v": 2}, {"t": 32.0, "user": "u3", "v": 1}]],
])
_CASCADE = ([
    [[{"k": "a", "v": 1}, {"k": "b", "v": 5}, {"k": "c", "v": -1}]],
    [[{"k": "a", "v": 2}, _del(k="b", v=5)]],
], [
    [[{"k": "c", "v": 9}, _del(k="a", v=1)]],
    [[{"k": "b", "v": 1}]],
])

#: Its rows are distinct: the continuous engine's at-least-once check
#: needs distinct output rows.
_STATELESS = ([
    [[{"v": v} for v in range(-2, 10)]],
    [[{"v": v} for v in range(10, 20)]],
], [
    [[{"v": v} for v in range(20, 30)]],
])
#: Its third epoch deletes only, so both stages log a pure retraction
#: delta in that epoch.
_CASCADE_DELETES = ([
    [[{"k": "a", "v": 5}, {"k": "b", "v": 3}, {"k": "x", "v": -1}]],
    [[{"k": "a", "v": 2}, {"k": "c", "v": 7}]],
], [
    [[_del(k="a", v=5), _del(k="b", v=3)]],
    [[_del(k="c", v=7), {"k": "c", "v": 9}]],
    [[{"k": "b", "v": 1}]],
])

#: name -> scenario.  The first eight came from fixtures that each
#: tree's own test wrote; their inputs are unchanged.
SCENARIOS = {
    "windowed_update": Scenario(partial(_windowed_count, "100s"),
                                "update", "dict", [
        [[{"t": 1.0, "k": "a"}, {"t": 2.0, "k": "b"}]],
        [[{"t": 5.0, "k": "a"}]],
        [[{"t": 200.0, "k": "c"}]],     # watermark passes window 0
        [[{"t": 210.0, "k": "d"}]],     # a/b evicted
    ], [
        [[{"t": 211.0, "k": "d"}, {"t": 3.0, "k": "a"}]],  # a is late now
        [[{"t": 330.0, "k": "e"}]],
        [[{"t": 331.0, "k": "e"}]],
    ]),
    "weighted_agg": Scenario(_weighted_agg, "retract", "dict", [
        [[{"k": "a", "v": 5}, {"k": "b", "v": 3}]],
        [[_del(k="b", v=3), {"k": "a", "v": 2}]],
        [[{"k": "c", "v": 7}]],
    ], [
        [[_del(k="a", v=5), {"k": "b", "v": 4}]],
        [[_del(k="c", v=7)]],
    ]),
    "weighted_dedup": Scenario(partial(_weighted_dedup, KV), "retract",
                               "dict", [
        [[{"k": "a", "v": 1}, {"k": "a", "v": 2}, {"k": "b", "v": 9}]],
        [[_del(k="a", v=1), _del(k="b", v=9)]],  # promotion + a tombstone
    ], [
        [[{"k": "b", "v": 8}, {"k": "a", "v": 3}]],
        [[_del(k="a", v=2)]],
    ]),
    "weighted_join": Scenario(partial(
        _weighted_join, KV, (("k", "string"), ("w", "long"))), "retract",
        "dict", [
        [[{"k": "a", "v": 1}, {"k": "b", "v": 2}], [{"k": "a", "w": 10}]],
        # b's only left row cancels: the key leaves state as a tombstone.
        [[_del(k="b", v=2), {"k": "a", "v": 3}], [{"k": "c", "w": 30}]],
        [[], [{"k": "b", "w": 20}]],
    ], [
        [[{"k": "c", "v": 4}], [_del(k="a", w=10)]],
        [[_del(k="a", v=1)], [{"k": "a", "w": 11}]],
    ]),
    "weighted_numeric_join": Scenario(
        partial(_weighted_join, (("k", "long"), ("x", "double")),
                (("k", "long"), ("ok", "boolean"))), "retract", "dict", [
            [[{"k": 1, "x": 1.5}, {"k": 1, "x": NAN}, {"k": 2, "x": -0.0}],
             [{"k": 1, "ok": True}]],
            [[_del(k=2, x=-0.0), {"k": 1, "x": 2 ** 60}],
             [{"k": 2, "ok": False}, {"k": 3, "ok": True}]],
        ], [
            [[_del(k=1, x=NAN), {"k": 3, "x": 0.25}], [_del(k=1, ok=True)]],
            [[{"k": 2, "x": 7.0}], [{"k": 1, "ok": False}]],
        ], bumps=(Bump("f5efb45", "state/join-*", _BLOCKS),)),
    "outer_within_join": Scenario(_outer_within_join, "append", "dict", [
        [[{"k": 1, "t": 1.0, "v": 10}, {"k": 2, "t": 2.0, "v": 20}],
         [{"k": 1, "t2": 3.0, "w": 0.5}]],
        [[{"k": 3, "t": 30.0, "v": 30}], [{"k": 4, "t2": 31.0, "w": -1.0}]],
    ], [
        # The watermark passes the first rows: 2 evicts unmatched.
        [[{"k": 4, "t": 60.0, "v": 40}], [{"k": 3, "t2": 61.0, "w": 2.0}]],
        [[{"k": 5, "t": 90.0, "v": 50}], [{"k": 5, "t2": 91.0, "w": 3.0}]],
    ], bumps=(Bump("f5efb45", "state/join-*", _BLOCKS),)),
    # Its first half ends on a base (versions 0 and 2).
    "weighted_numeric_dedup": Scenario(
        partial(_weighted_dedup, (("k", "long"), ("v", "double"))),
        "retract", "dict", [
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
        ], bumps=(Bump("f5efb45", "state/dedup-*", _BLOCKS),)),
    # 9fff8e5 still buffered NaN and null keys in an inner join: its
    # label holds ``[NaN]`` rows in both sides' state.
    "nan_key_join": Scenario(_double_key_join, "append", "dict", [
        [[{"k": NAN, "t": 1.0, "v": 1}, {"k": None, "t": 1.0, "v": 2},
          {"k": 1.0, "t": 1.0, "v": 3}],
         [{"k": NAN, "t2": 1.0, "w": 10}, {"k": 1.0, "t2": 1.0, "w": 11}]],
        [[{"k": 2.0, "t": 2.0, "v": 4}, {"k": NAN, "t": 2.0, "v": 5}],
         [{"k": None, "t2": 2.0, "w": 12}]],
    ], [
        [[{"k": NAN, "t": 3.0, "v": 6}, {"k": 1.0, "t": 3.0, "v": 7}],
         [{"k": 2.0, "t2": 3.0, "w": 13}, {"k": NAN, "t2": 3.0, "w": 14}]],
        [[{"k": 2.0, "t": 4.0, "v": 8}], [{"k": 1.0, "t2": 4.0, "w": 15}]],
    ], bumps=(Bump("f5efb45", "state/join-*", _BLOCKS),)),
    **{f"{name}_{backend}": Scenario(build, mode, backend, *epochs)
       for backend in ("dict", "tiered")
       for name, build, mode, epochs in (
           ("windowed_append", partial(_windowed_count, "10s"), "append",
            _WINDOWED_APPEND),
           ("append_dedup", _append_dedup, "append", _APPEND_DEDUP),
           ("map_groups_with_state", _map_groups_with_state, "update",
            _SESSIONS),
           ("cascade", _cascade, "retract", _CASCADE))},
}
#: A map-like query, the one shape the continuous engine runs, and a
#: cascade with a deletes-only epoch.
SCENARIOS.update({
    "stateless": Scenario(_stateless, "append", "dict", *_STATELESS),
    "cascade_deletes": Scenario(_cascade, "retract", "dict",
                                *_CASCADE_DELETES),
})
#: The tiered backend, its memtable spilling, under an aggregate, a
#: dedup and a join of each input kind.
SCENARIOS.update({
    f"{name}_tiered": replace(SCENARIOS[name], backend="tiered", bumps=())
    for name in ("weighted_agg", "weighted_numeric_dedup",
                 "weighted_numeric_join", "outer_within_join")})
