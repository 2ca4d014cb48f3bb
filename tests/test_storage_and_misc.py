"""Tests for filesystem helpers, rows utilities, and foreach_batch."""

import json
import os
import threading

import pytest
from hypothesis import given, strategies as st

from repro.sql import functions as F
from repro.sql.row import Row, rows_equal_unordered
from repro.storage import (
    atomic_write_json,
    atomic_write_text,
    list_files,
    read_json,
    read_jsonl,
    write_jsonl,
)

from tests.conftest import make_stream, start_memory_query


class TestAtomicWrites:
    def test_write_and_read_text(self, tmp_path):
        path = str(tmp_path / "sub" / "file.txt")
        atomic_write_text(path, "hello")
        with open(path) as f:
            assert f.read() == "hello"

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = str(tmp_path / "f.txt")
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        with open(path) as f:
            assert f.read() == "two"

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_text(str(tmp_path / "f.txt"), "x")
        assert [n for n in os.listdir(tmp_path) if n.startswith(".tmp")] == []

    def test_json_roundtrip(self, tmp_path):
        path = str(tmp_path / "d.json")
        atomic_write_json(path, {"a": [1, 2], "b": None})
        assert read_json(path) == {"a": [1, 2], "b": None}

    def test_json_is_pretty_printed(self, tmp_path):
        path = str(tmp_path / "d.json")
        atomic_write_json(path, {"epoch": 3})
        with open(path) as f:
            assert '"epoch": 3' in f.read()

    def test_jsonl_roundtrip(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        rows = [{"a": 1}, {"a": 2}]
        write_jsonl(path, rows)
        assert read_jsonl(path) == rows

    def test_jsonl_skips_blank_lines(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        with open(path, "w") as f:
            f.write('{"a": 1}\n\n{"a": 2}\n')
        assert read_jsonl(path) == [{"a": 1}, {"a": 2}]

    @pytest.mark.parametrize("text, rows", [
        ("", []),
        (" \n\n", []),
        ('{"a": 1}', [{"a": 1}]),
        ('{"a": 1}\r\n{"a": 2}\r\n', [{"a": 1}, {"a": 2}]),
        ('  {"a": 1}  \n\t{"a": 2}\n   \n', [{"a": 1}, {"a": 2}]),
        ('{"a": "x\u2028y"}\n[1]\n"s"\n', [{"a": "x\u2028y"}, [1], "s"]),
    ])
    def test_jsonl_reads_what_a_line_at_a_time_reads(self, tmp_path, text,
                                                     rows):
        path = str(tmp_path / "rows.jsonl")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        assert read_jsonl(path) == rows

    @pytest.mark.parametrize("text", [
        '{"a": 1}, {"a": 2}\n',        # two values on one line
        '{"a": 1}\n{"a":\n 2}\n',     # one value over two lines
        '{"a": 1}\n{"a": 2\n',         # a torn last line
        '{"a": 1}\n]\n',
    ])
    def test_jsonl_rejects_a_line_that_is_not_one_value(self, tmp_path, text):
        path = str(tmp_path / "rows.jsonl")
        with open(path, "w") as f:
            f.write(text)
        with pytest.raises(ValueError):
            read_jsonl(path)

    @given(rows=st.lists(st.dictionaries(
        st.text(max_size=3),
        st.one_of(st.none(), st.text(max_size=3), st.integers(),
                  st.floats(allow_nan=False), st.lists(st.integers(),
                                                       max_size=2)),
        max_size=3), max_size=6), ascii_only=st.booleans())
    def test_jsonl_file_decode_equals_per_line_decode(self, tmp_path_factory,
                                                      rows, ascii_only):
        path = str(tmp_path_factory.mktemp("jsonl") / "rows.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write("".join(json.dumps(row, ensure_ascii=ascii_only) + "\n"
                            for row in rows))
        with open(path, encoding="utf-8") as f:
            oracle = [json.loads(line) for line in f if line.strip()]
        assert read_jsonl(path) == oracle == rows

    def test_concurrent_writers_leave_consistent_file(self, tmp_path):
        path = str(tmp_path / "f.txt")

        def write(i):
            for _ in range(20):
                atomic_write_text(path, f"writer-{i}" * 100)

        threads = [threading.Thread(target=write, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with open(path) as f:
            content = f.read()
        # Never a torn write: the file is exactly one writer's output.
        assert any(content == f"writer-{i}" * 100 for i in range(4))


class TestListFiles:
    def test_missing_directory_is_empty(self, tmp_path):
        assert list_files(str(tmp_path / "nope")) == []

    def test_sorted_and_filtered(self, tmp_path):
        for name in ("b.json", "a.json", "c.txt", ".hidden.json"):
            (tmp_path / name).write_text("{}")
        assert list_files(str(tmp_path), ".json") == ["a.json", "b.json"]


class TestRow:
    def test_attribute_access(self):
        row = Row(a=1, b="x")
        assert row.a == 1
        assert row.b == "x"

    def test_missing_attribute(self):
        with pytest.raises(AttributeError):
            Row(a=1).zzz

    def test_equals_plain_dict(self):
        assert Row(a=1) == {"a": 1}

    def test_repr(self):
        assert repr(Row(a=1)) == "Row(a=1)"

    def test_rows_equal_unordered(self):
        assert rows_equal_unordered(
            [{"a": 1}, {"a": 2}], [{"a": 2}, {"a": 1}])
        assert not rows_equal_unordered([{"a": 1}], [{"a": 2}])


class TestForeachBatch:
    def test_receives_dataframe_per_epoch(self, session):
        stream = make_stream((("v", "long"),))
        received = []

        def handle(df, epoch_id):
            received.append((epoch_id, df.agg(F.sum("v").alias("s")).collect()))

        query = (session.read_stream.memory(stream).write_stream
                 .foreach_batch(handle).output_mode("append").start())
        stream.add_data([{"v": 1}, {"v": 2}])
        query.process_all_available()
        stream.add_data([{"v": 10}])
        query.process_all_available()
        assert received == [(0, [{"s": 3}]), (1, [{"s": 10}])]

    def test_idempotent_per_epoch(self, session):
        stream = make_stream((("v", "long"),))
        calls = []
        query = (session.read_stream.memory(stream).write_stream
                 .foreach_batch(lambda df, e: calls.append(e))
                 .output_mode("append").start())
        stream.add_data([{"v": 1}])
        query.process_all_available()
        query.engine.sink.add_batch(0, query.engine.empty_result(), "append")
        assert calls == [0]

    def test_can_write_to_multiple_tables(self, session, tmp_path):
        """The foreachBatch pattern: fan one epoch out to several sinks."""
        from repro.sinks.file import TransactionalFileSink

        stream = make_stream((("v", "long"),))
        evens_dir = str(tmp_path / "evens")
        odds_dir = str(tmp_path / "odds")

        def fan_out(df, epoch_id):
            df.where(F.col("v") % 2 == 0).write.json(evens_dir)
            df.where(F.col("v") % 2 == 1).write.json(odds_dir)

        query = (session.read_stream.memory(stream).write_stream
                 .foreach_batch(fan_out).output_mode("append").start())
        stream.add_data([{"v": 1}, {"v": 2}, {"v": 3}])
        query.process_all_available()
        assert len(TransactionalFileSink(evens_dir).read_rows()) == 1
        assert len(TransactionalFileSink(odds_dir).read_rows()) == 2
