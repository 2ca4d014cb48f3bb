"""Tests for sinks: the idempotence and atomicity contracts (§3, §6.1)."""

import os

import pytest

from repro.bus import Broker
from repro.sinks.console import ConsoleSink
from repro.sinks.file import TransactionalFileSink
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
