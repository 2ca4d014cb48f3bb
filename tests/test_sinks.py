"""Tests for sinks: the idempotence and atomicity contracts (§3, §6.1)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro import storage
from repro.bus import Broker
from repro.sinks.console import ConsoleSink
from repro.sinks.file import TransactionalFileSink, encode_jsonl
from repro.sinks.foreach import ForeachSink
from repro.sinks.kafka import KafkaSink, reset_transaction_registry
from repro.sinks.memory import MemorySink
from repro.sql.batch import RecordBatch
from repro.sql.types import StructType
from repro.storage import list_files

SCHEMA = StructType((("k", "string"), ("n", "long")))


def batch(rows):
    return RecordBatch.from_rows(rows, SCHEMA)


class TestMemorySink:
    def test_append_accumulates(self):
        sink = MemorySink()
        sink.add_batch(0, batch([{"k": "a", "n": 1}]), "append")
        sink.add_batch(1, batch([{"k": "b", "n": 2}]), "append")
        assert len(sink.rows()) == 2

    def test_duplicate_epoch_ignored(self):
        sink = MemorySink()
        sink.add_batch(0, batch([{"k": "a", "n": 1}]), "append")
        sink.add_batch(0, batch([{"k": "a", "n": 1}]), "append")
        assert len(sink.rows()) == 1

    def test_complete_replaces(self):
        sink = MemorySink()
        sink.add_batch(0, batch([{"k": "a", "n": 1}, {"k": "b", "n": 1}]), "complete")
        sink.add_batch(1, batch([{"k": "a", "n": 2}]), "complete")
        assert sink.rows() == [{"k": "a", "n": 2}]

    def test_update_merges_by_key(self):
        sink = MemorySink()
        sink.set_key_names(["k"])
        sink.add_batch(0, batch([{"k": "a", "n": 1}, {"k": "b", "n": 1}]), "update")
        sink.add_batch(1, batch([{"k": "a", "n": 5}]), "update")
        rows = {r["k"]: r["n"] for r in sink.rows()}
        assert rows == {"a": 5, "b": 1}

    def test_last_committed_epoch(self):
        sink = MemorySink()
        assert sink.last_committed_epoch() is None
        sink.add_batch(3, batch([]), "append")
        assert sink.last_committed_epoch() == 3

    def test_append_rows_continuous_path(self):
        sink = MemorySink()
        sink.append_rows([{"k": "x", "n": 1}])
        assert sink.rows() == [{"k": "x", "n": 1}]

    def test_clear(self):
        sink = MemorySink()
        sink.add_batch(0, batch([{"k": "a", "n": 1}]), "append")
        sink.clear()
        assert sink.rows() == []
        assert sink.last_committed_epoch() is None


class TestTransactionalFileSink:
    def test_append_and_read_back(self, tmp_path):
        sink = TransactionalFileSink(str(tmp_path / "out"))
        sink.add_batch(0, batch([{"k": "a", "n": 1}]), "append")
        sink.add_batch(1, batch([{"k": "b", "n": 2}]), "append")
        assert sink.read_rows() == [{"k": "a", "n": 1}, {"k": "b", "n": 2}]

    def test_idempotent_epoch_rewrite(self, tmp_path):
        sink = TransactionalFileSink(str(tmp_path / "out"))
        sink.add_batch(0, batch([{"k": "a", "n": 1}]), "append")
        sink.add_batch(0, batch([{"k": "a", "n": 999}]), "append")
        assert sink.read_rows() == [{"k": "a", "n": 1}]

    def test_complete_mode_replaces(self, tmp_path):
        sink = TransactionalFileSink(str(tmp_path / "out"))
        sink.add_batch(0, batch([{"k": "a", "n": 1}]), "complete")
        sink.add_batch(1, batch([{"k": "a", "n": 2}]), "complete")
        assert sink.read_rows() == [{"k": "a", "n": 2}]

    def test_orphan_data_files_invisible(self, tmp_path):
        directory = str(tmp_path / "out")
        sink = TransactionalFileSink(directory)
        sink.add_batch(0, batch([{"k": "a", "n": 1}]), "append")
        # A data file without a manifest (simulating a crash mid-epoch).
        with open(os.path.join(directory, "part-00099-000.jsonl"), "w") as f:
            f.write('{"k": "ghost", "n": 0}\n')
        assert sink.read_rows() == [{"k": "a", "n": 1}]

    def test_large_batch_splits_files(self, tmp_path):
        sink = TransactionalFileSink(str(tmp_path / "out"), rows_per_file=2)
        sink.add_batch(0, batch([{"k": str(i), "n": i} for i in range(5)]), "append")
        manifest = sink.committed_manifests()[0]
        assert len(manifest["files"]) == 3
        assert len(sink.read_rows()) == 5

    def test_rows_for_epoch(self, tmp_path):
        sink = TransactionalFileSink(str(tmp_path / "out"))
        sink.add_batch(0, batch([{"k": "a", "n": 1}]), "append")
        sink.add_batch(1, batch([{"k": "b", "n": 2}]), "append")
        assert sink.rows_for_epoch(1) == [{"k": "b", "n": 2}]
        assert sink.rows_for_epoch(42) == []

    def test_remove_epochs_after_rollback(self, tmp_path):
        sink = TransactionalFileSink(str(tmp_path / "out"))
        for epoch in range(3):
            sink.add_batch(epoch, batch([{"k": str(epoch), "n": epoch}]), "append")
        removed = sink.remove_epochs_after(0)
        assert removed == 2
        assert sink.read_rows() == [{"k": "0", "n": 0}]
        assert sink.last_committed_epoch() == 0

    def test_add_batch_reads_no_old_manifest(self, tmp_path, monkeypatch):
        """Epoch N must not parse N manifests to learn it is new: each
        manifest is read at most once per sink instance, and the
        writer's own not at all."""
        from repro.sinks import file as file_sink

        reads = []
        real_read = file_sink.read_json
        monkeypatch.setattr(
            file_sink, "read_json", lambda path: reads.append(path) or real_read(path))
        directory = str(tmp_path / "out")
        first = TransactionalFileSink(directory, writer_id="a")
        for epoch in range(30):
            first.add_batch(epoch, batch([{"k": "a", "n": epoch}]), "append")
        assert reads == []
        # A second instance (a restart) indexes the log once...
        second = TransactionalFileSink(directory, writer_id="a")
        assert second.last_committed_epoch() == 29
        indexed = len(reads)
        assert 30 <= indexed <= 31
        # ...then new epochs cost nothing, a redelivery one confirming read.
        for epoch in range(30, 40):
            second.add_batch(epoch, batch([{"k": "a", "n": epoch}]), "append")
        assert len(reads) == indexed
        second.add_batch(35, batch([{"k": "a", "n": 999}]), "append")
        assert len(reads) == indexed + 1
        assert len(second.read_rows()) == 40

    def test_index_honours_other_instances(self, tmp_path):
        """Another writer's commits, the same writer's commits through
        another instance, and its rollback are all seen by an instance
        that already indexed the log."""
        directory = str(tmp_path / "out")
        mine = TransactionalFileSink(directory, writer_id="a")
        mine.add_batch(0, batch([{"k": "a", "n": 0}]), "append")
        TransactionalFileSink(directory, writer_id="b").add_batch(
            0, batch([{"k": "b", "n": 0}]), "append")
        twin = TransactionalFileSink(directory, writer_id="a")
        twin.add_batch(1, batch([{"k": "a", "n": 1}]), "append")
        mine.add_batch(1, batch([{"k": "a", "n": 999}]), "append")  # twin's
        mine.add_batch(2, batch([{"k": "a", "n": 2}]), "append")
        assert [m["version"] for m in mine.committed_manifests()] == [0, 1, 2, 3]
        assert twin.remove_epochs_after(0) == 2
        assert mine.last_committed_epoch() == 0
        assert mine.rows_for_epoch(2) == []
        mine.add_batch(1, batch([{"k": "a", "n": 11}]), "append")
        assert mine.read_rows() == [
            {"k": "a", "n": 0}, {"k": "b", "n": 0}, {"k": "a", "n": 11}]

    def test_read_batch(self, tmp_path):
        sink = TransactionalFileSink(str(tmp_path / "out"))
        sink.add_batch(0, batch([{"k": "a", "n": 1}]), "append")
        out = sink.read_batch(SCHEMA)
        assert out.num_rows == 1

    def test_empty_epoch_still_commits(self, tmp_path):
        sink = TransactionalFileSink(str(tmp_path / "out"))
        sink.add_batch(0, batch([]), "append")
        assert sink.last_committed_epoch() == 0
        assert sink.read_rows() == []

    def test_no_temp_files_left(self, tmp_path):
        directory = str(tmp_path / "out")
        sink = TransactionalFileSink(directory)
        sink.add_batch(0, batch([{"k": "a", "n": 1}]), "append")
        assert not [n for n in os.listdir(directory) if n.startswith(".tmp")]

    def test_part_file_bytes_are_pinned(self, tmp_path):
        """Golden bytes: each line is ``json.dumps`` of the row (", " and
        ": ", ASCII escapes, NaN as null, Infinity), split at
        ``rows_per_file``."""
        directory = str(tmp_path / "out")
        schema = StructType((("k", "string"), ("n", "long"), ("x", "double"),
                             ("ok", "boolean"), ("__weight__", "long")))
        out = RecordBatch.from_columns(
            schema, k=np.array(["a", 'q"\u00e9\n', None], dtype=object),
            n=np.array([1, -2**63, 2**62]), x=np.array([0.1, np.nan, -np.inf]),
            ok=np.array([True, False, True]), __weight__=np.array([1, -1, 1]))
        TransactionalFileSink(directory, rows_per_file=2).add_batch(
            0, out, "append")
        files = {}
        for name in list_files(directory, ".jsonl"):
            with open(os.path.join(directory, name), encoding="utf-8") as f:
                files[name] = f.read()
        assert files == {
            "part-00000-000.jsonl":
                '{"k": "a", "n": 1, "x": 0.1, "ok": true, "__weight__": 1}\n'
                '{"k": "q\\"\\u00e9\\n", "n": -9223372036854775808, '
                '"x": null, "ok": false, "__weight__": -1}\n',
            "part-00000-001.jsonl":
                '{"k": null, "n": 4611686018427387904, "x": -Infinity, '
                '"ok": true, "__weight__": 1}\n',
        }

    def test_reads_decode_each_part_file_in_one_call(self, tmp_path,
                                                     monkeypatch):
        """One ``json.loads`` per part file, so a file's rows share their
        key strings instead of each holding private copies."""
        sink = TransactionalFileSink(str(tmp_path / "out"), rows_per_file=3)
        sink.add_batch(0, batch([{"k": str(i), "n": i} for i in range(5)]),
                       "append")
        sink.add_batch(1, batch([{"k": "z", "n": 9}]), "append")
        calls = []
        loads = json.loads

        def spy(text, **kw):
            calls.append(text)
            return loads(text, **kw)

        monkeypatch.setattr(storage.json, "loads", spy)
        rows = sink.read_rows()
        data_calls = [c for c in calls if c.startswith("[")]  # not manifests
        assert len(data_calls) == 3  # two part files for epoch 0, one for 1
        assert [r["n"] for r in rows] == [0, 1, 2, 3, 4, 9]
        first, second = (list(r) for r in rows[:2])
        assert all(a is b for a, b in zip(first, second))
        assert sink.read_batch(SCHEMA).column("n").tolist() == [0, 1, 2, 3, 4, 9]


# Column-wise encoding against the rows it replaces
_strings = st.text(max_size=4)
#: What an object column may hold: strings (escapes, non-BMP), None,
#: numpy scalars, Python numbers and JSON containers.
_objects = st.one_of(
    st.none(), _strings, st.integers(-2**70, 2**70),
    st.floats(allow_nan=True), st.booleans(),
    st.floats(allow_nan=True).map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.lists(st.one_of(st.none(), _strings, st.integers()), max_size=2),
)


def _object_column(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


@st.composite
def typed_batches(draw):
    n = draw(st.integers(0, 8))
    cells = lambda strategy: draw(st.lists(strategy, min_size=n, max_size=n))
    columns = {
        "i": np.array(cells(st.integers(-2**63, 2**63 - 1)), dtype=np.int64),
        "f": np.array(cells(st.floats(allow_nan=True)), dtype=np.float64),
        "b": np.array(cells(st.booleans()), dtype=bool),
        "o": _object_column(cells(_objects)),
    }
    types = {"i": "long", "f": "double", "b": "boolean", "o": "string"}
    names = draw(st.lists(st.text(min_size=1, max_size=3), min_size=4,
                          max_size=4, unique=True))
    order = draw(st.permutations(list(columns)))
    schema = StructType(tuple((names[i], types[c]) for i, c in enumerate(order)))
    return RecordBatch({names[i]: columns[c] for i, c in enumerate(order)},
                       schema)


@given(out=typed_batches())
@example(out=RecordBatch.from_columns(
    StructType((("50%", "double"), ("\u00e9", "string"), ("n", "long"))),
    **{"50%": np.array([-0.0, np.inf, np.nan, 1e16, 5e-324]),
       "\u00e9": _object_column(["%s", None, np.float64("nan"), "\U0001f600",
                             2**70]),
       "n": np.array([2**63 - 1, -2**63, 0, 7, -1])}))
def test_encode_jsonl_is_json_dumps_of_each_row(out):
    assert encode_jsonl(out) == "".join(
        json.dumps(row) + "\n" for row in out.to_rows())


def test_encode_jsonl_raises_as_json_dumps_does():
    schema = StructType((("o", "string"),))
    with pytest.raises(TypeError, match="not JSON serializable"):
        encode_jsonl(RecordBatch({"o": _object_column([object()])}, schema))
    assert encode_jsonl(RecordBatch.empty(schema)) == ""
    assert encode_jsonl(RecordBatch({}, StructType(()))) == ""


class TestKafkaSink:
    def setup_method(self):
        reset_transaction_registry()

    def test_publish_and_dedupe(self):
        broker = Broker()
        sink = KafkaSink(broker, "out", query_id="q1")
        sink.add_batch(0, batch([{"k": "a", "n": 1}]), "append")
        sink.add_batch(0, batch([{"k": "a", "n": 1}]), "append")  # replay
        topic = broker.topic("out")
        assert topic.total_records() == 1

    def test_dedupe_survives_new_sink_instance(self):
        # Models transactional markers living in the external bus.
        broker = Broker()
        KafkaSink(broker, "out", query_id="q1").add_batch(
            0, batch([{"k": "a", "n": 1}]), "append")
        KafkaSink(broker, "out", query_id="q1").add_batch(
            0, batch([{"k": "a", "n": 1}]), "append")
        assert broker.topic("out").total_records() == 1

    def test_different_queries_do_not_collide(self):
        broker = Broker()
        KafkaSink(broker, "out", query_id="q1").add_batch(0, batch([{"k": "a", "n": 1}]), "append")
        KafkaSink(broker, "out", query_id="q2").add_batch(0, batch([{"k": "a", "n": 1}]), "append")
        assert broker.topic("out").total_records() == 2

    def test_partitioned_publish(self):
        broker = Broker()
        broker.create_topic("out", 4)
        sink = KafkaSink(broker, "out", query_id="q", partition_key="k")
        sink.add_batch(0, batch([{"k": str(i), "n": i} for i in range(20)]), "append")
        assert broker.topic("out").total_records() == 20

    def test_partitioned_publish_is_the_same_in_every_process(self):
        """A key's partition may not depend on the process's str-hash
        salt: a restarted query must keep publishing a key where it did."""
        code = (
            "import json\n"
            "from repro.bus import Broker\n"
            "from repro.sinks.kafka import KafkaSink\n"
            "from repro.sql.batch import RecordBatch\n"
            "from repro.sql.types import StructType\n"
            "broker = Broker()\n"
            "broker.create_topic('out', 4)\n"
            "rows = [{'k': 'key-%d' % i, 'n': i} for i in range(24)]\n"
            "KafkaSink(broker, 'out', 'q', partition_key='k').add_batch(\n"
            "    0, RecordBatch.from_rows(rows, StructType(\n"
            "        (('k', 'string'), ('n', 'long')))), 'append')\n"
            "topic = broker.topic('out')\n"
            "print(json.dumps([[r['n'] for r in p.read(0, p.end_offset)]\n"
            "                  for p in topic.partitions]))\n")
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(storage.__file__)))
        placements = {
            subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True,
                text=True, env={**os.environ, "PYTHONHASHSEED": salt,
                                "PYTHONPATH": src}).stdout
            for salt in ("1", "2", "3")}
        assert len(placements) == 1
        by_partition = json.loads(placements.pop())
        assert sorted(n for p in by_partition for n in p) == list(range(24))
        assert all(p == sorted(p) for p in by_partition)  # order kept

    def test_last_committed_epoch(self):
        broker = Broker()
        sink = KafkaSink(broker, "out", query_id="q1")
        assert sink.last_committed_epoch() is None
        sink.add_batch(2, batch([]), "append")
        assert sink.last_committed_epoch() == 2


class TestForeachSink:
    def test_callback_per_epoch(self):
        calls = []
        sink = ForeachSink(lambda e, rows, mode: calls.append((e, rows, mode)))
        sink.add_batch(0, batch([{"k": "a", "n": 1}]), "append")
        assert calls == [(0, [{"k": "a", "n": 1}], "append")]

    def test_duplicate_epoch_suppressed(self):
        calls = []
        sink = ForeachSink(lambda e, rows, mode: calls.append(e))
        sink.add_batch(0, batch([]), "append")
        sink.add_batch(0, batch([]), "append")
        assert calls == [0]

    def test_continuous_path_marks_epoch(self):
        calls = []
        sink = ForeachSink(lambda e, rows, mode: calls.append(e))
        sink.append_rows([{"k": "a", "n": 1}])
        assert calls == [-1]


class TestAppendBatch:
    """The continuous engine writes batches; a sink whose contract is rows
    gets them through the base class's one conversion (a sink overriding
    ``append_batch`` is in ``tests/test_continuous.py``)."""

    def test_default_feeds_append_rows(self):
        sink = MemorySink()
        sink.append_batch(batch([{"k": "a", "n": 1}, {"k": "b", "n": 2}]))
        assert sink.rows() == [{"k": "a", "n": 1}, {"k": "b", "n": 2}]


class TestConsoleSink:
    def test_prints_rows(self, capsys):
        sink = ConsoleSink(max_rows=1)
        sink.add_batch(0, batch([{"k": "a", "n": 1}, {"k": "b", "n": 2}]), "append")
        out = capsys.readouterr().out
        assert "epoch 0" in out
        assert "a" in out and "b" not in out.split("\n")[1]

    def test_duplicate_epoch_silent(self, capsys):
        sink = ConsoleSink()
        sink.add_batch(0, batch([]), "append")
        capsys.readouterr()
        sink.add_batch(0, batch([]), "append")
        assert capsys.readouterr().out == ""
