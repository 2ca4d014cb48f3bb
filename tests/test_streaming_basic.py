"""End-to-end microbatch streaming: the incremental query model (§4).

These tests drive queries synchronously (manual trigger) through a
MemorySink, checking the core promise: results match running the same
static query on the prefix of input seen so far.
"""

import pytest

from repro.bus import Broker
from repro.sql import functions as F
from repro.sql.expressions import AnalysisError

from tests.conftest import make_stream, rows_set, start_memory_query


class TestMapOnlyQueries:
    def test_select_where_append(self, session):
        stream = make_stream((("v", "long"),))
        df = (session.read_stream.memory(stream)
              .where(F.col("v") % 2 == 0)
              .select((F.col("v") * 10).alias("v10")))
        query = start_memory_query(df, "append", "out")
        stream.add_data([{"v": 1}, {"v": 2}, {"v": 3}, {"v": 4}])
        query.process_all_available()
        assert [r["v10"] for r in query.engine.sink.rows()] == [20, 40]

    def test_deltas_accumulate_across_epochs(self, session):
        stream = make_stream((("v", "long"),))
        df = session.read_stream.memory(stream)
        query = start_memory_query(df, "append", "out")
        stream.add_data([{"v": 1}])
        query.process_all_available()
        stream.add_data([{"v": 2}])
        query.process_all_available()
        assert [r["v"] for r in query.engine.sink.rows()] == [1, 2]

    def test_epoch_with_no_data_skipped(self, session):
        stream = make_stream((("v", "long"),))
        query = start_memory_query(session.read_stream.memory(stream), "append", "out")
        assert query.run_epoch() is None
        stream.add_data([{"v": 1}])
        assert query.run_epoch() is not None
        assert query.run_epoch() is None

    def test_udf_in_streaming_query(self, session):
        stream = make_stream((("s", "string"),))
        shout = F.udf(lambda s: s.upper(), "string")
        df = session.read_stream.memory(stream).select(shout(F.col("s")).alias("u"))
        query = start_memory_query(df, "append", "out")
        stream.add_data([{"s": "hi"}])
        query.process_all_available()
        assert query.engine.sink.rows() == [{"u": "HI"}]


class TestStreamStaticIntegration:
    def test_join_stream_with_static_table(self, session):
        stream = make_stream((("k", "long"), ("v", "double")))
        static = session.create_dataframe(
            [{"k": 1, "name": "one"}, {"k": 2, "name": "two"}],
            (("k", "long"), ("name", "string")))
        df = session.read_stream.memory(stream).join(static, on="k")
        query = start_memory_query(df, "append", "out")
        stream.add_data([{"k": 1, "v": 0.5}, {"k": 3, "v": 0.7}])
        query.process_all_available()
        assert query.engine.sink.rows() == [{"k": 1, "v": 0.5, "name": "one"}]

    def test_left_outer_stream_static(self, session):
        stream = make_stream((("k", "long"), ("v", "double")))
        static = session.create_dataframe(
            [{"k": 1, "name": "one"}], (("k", "long"), ("name", "string")))
        df = session.read_stream.memory(stream).join(static, on="k", how="left_outer")
        query = start_memory_query(df, "append", "out")
        stream.add_data([{"k": 1, "v": 0.5}, {"k": 3, "v": 0.7}])
        query.process_all_available()
        names = {r["k"]: r["name"] for r in query.engine.sink.rows()}
        assert names == {1: "one", 3: None}

    def test_union_stream_with_static_emits_static_once(self, session):
        stream = make_stream((("v", "long"),))
        static = session.create_dataframe([{"v": 100}], (("v", "long"),))
        df = session.read_stream.memory(stream).union(static)
        query = start_memory_query(df, "append", "out")
        stream.add_data([{"v": 1}])
        query.process_all_available()
        stream.add_data([{"v": 2}])
        query.process_all_available()
        values = sorted(r["v"] for r in query.engine.sink.rows())
        assert values == [1, 2, 100]

    def test_union_two_streams(self, session):
        a = make_stream((("v", "long"),))
        b = make_stream((("v", "long"),))
        df = session.read_stream.memory(a).union(session.read_stream.memory(b))
        query = start_memory_query(df, "append", "out")
        a.add_data([{"v": 1}])
        b.add_data([{"v": 2}])
        query.process_all_available()
        assert sorted(r["v"] for r in query.engine.sink.rows()) == [1, 2]


class TestMemorySinkViews:
    def test_query_name_registers_temp_view(self, session):
        stream = make_stream((("v", "long"),))
        query = start_memory_query(session.read_stream.memory(stream), "append", "tbl")
        stream.add_data([{"v": 7}])
        query.process_all_available()
        assert session.table("tbl").collect() == [{"v": 7}]

    def test_view_sees_consistent_snapshots(self, session):
        stream = make_stream((("v", "long"),))
        query = start_memory_query(session.read_stream.memory(stream), "append", "tbl")
        stream.add_data([{"v": 1}])
        query.process_all_available()
        first = session.table("tbl").count_rows()
        stream.add_data([{"v": 2}])
        query.process_all_available()
        assert first == 1
        assert session.table("tbl").count_rows() == 2

    def test_interactive_sql_over_stream_output(self, session):
        stream = make_stream((("k", "string"), ("v", "long")))
        df = session.read_stream.memory(stream).group_by("k").sum("v")
        query = start_memory_query(df, "complete", "sums")
        stream.add_data([{"k": "a", "v": 1}, {"k": "a", "v": 2}])
        query.process_all_available()
        out = session.sql("SELECT * FROM sums WHERE k = 'a'").collect()
        assert out[0]["sum(v)"] == 3


class TestBatchStreamingParity:
    """The same code runs as a batch job (§7.3): results must agree."""

    ROWS = [
        {"k": "a", "v": 1.0}, {"k": "b", "v": 2.0},
        {"k": "a", "v": 3.0}, {"k": "c", "v": 4.0},
    ]

    def _apply(self, df):
        return df.where(F.col("v") > 1).group_by("k").agg(
            F.count().alias("n"), F.sum("v").alias("s"))

    def test_same_transformation_both_ways(self, session):
        batch_df = self._apply(session.create_dataframe(
            self.ROWS, (("k", "string"), ("v", "double"))))
        expected = rows_set(batch_df.collect())

        stream = make_stream((("k", "string"), ("v", "double")))
        query = start_memory_query(
            self._apply(session.read_stream.memory(stream)), "complete", "out")
        for row in self.ROWS:  # one epoch per row: any chunking works
            stream.add_data([row])
            query.process_all_available()
        assert rows_set(query.engine.sink.rows()) == expected


class TestWriterValidation:
    def test_complete_without_aggregate_rejected(self, session):
        stream = make_stream((("v", "long"),))
        df = session.read_stream.memory(stream)
        with pytest.raises(Exception, match="complete"):
            start_memory_query(df, "complete", "out")

    def test_unknown_format_rejected(self, session):
        stream = make_stream((("v", "long"),))
        df = session.read_stream.memory(stream)
        with pytest.raises(AnalysisError, match="unknown sink"):
            df.write_stream.format("nope").start()

    def test_file_sink_needs_path(self, session):
        stream = make_stream((("v", "long"),))
        df = session.read_stream.memory(stream)
        with pytest.raises(AnalysisError, match="path"):
            df.write_stream.format("file").start()

    def test_file_sink_rejects_update_mode(self, session, tmp_path):
        stream = make_stream((("k", "string"), ("v", "long")))
        df = session.read_stream.memory(stream).group_by("k").count()
        writer = (df.write_stream.format("file")
                  .option("path", str(tmp_path / "o")).output_mode("update"))
        with pytest.raises(ValueError, match="does not support"):
            writer.start()

    def test_exactly_one_trigger(self, session):
        stream = make_stream((("v", "long"),))
        df = session.read_stream.memory(stream)
        with pytest.raises(ValueError, match="exactly one"):
            df.write_stream.trigger(interval=1, once=True)


class TestProgressReporting:
    def test_progress_metrics(self, session):
        stream = make_stream((("v", "long"),))
        query = start_memory_query(session.read_stream.memory(stream), "append", "out")
        stream.add_data([{"v": 1}, {"v": 2}])
        progress = query.run_epoch()
        assert progress.input_rows == 2
        assert progress.output_rows == 2
        assert progress.backlog_rows == 0
        assert progress.input_rows_per_second > 0
        assert query.last_progress is progress
        assert query.recent_progress == [progress]

    def test_progress_json_shape(self, session):
        stream = make_stream((("v", "long"),))
        query = start_memory_query(session.read_stream.memory(stream), "append", "out")
        stream.add_data([{"v": 1}])
        payload = query.run_epoch().to_json()
        for key in ("epoch", "numInputRows", "inputRowsPerSecond", "sources"):
            assert key in payload

    def test_listener_invoked(self, session):
        stream = make_stream((("v", "long"),))
        query = start_memory_query(session.read_stream.memory(stream), "append", "out")
        seen = []
        query.engine.progress.listeners.append(lambda p: seen.append(p.epoch_id))
        stream.add_data([{"v": 1}])
        query.process_all_available()
        assert seen == [0]

    def test_max_records_per_epoch_caps_batch(self, session):
        stream = make_stream((("v", "long"),))
        query = start_memory_query(
            session.read_stream.memory(stream), "append", "out",
            max_records_per_epoch=2)
        stream.add_data([{"v": i} for i in range(5)])
        progresses = query.process_all_available()
        assert [p.input_rows for p in progresses] == [2, 2, 1]


class TestCappedEpochs:
    """``max_records_per_epoch`` splits its budget across partitions by
    backlog, so a capped epoch never leaves a partition behind."""

    def test_a_capped_epoch_advances_every_partition(self, session):
        # Four partitions, each with event times 0..999 s, a 10 s
        # watermark and a cap of 400: a greedy split gave epoch 0 only
        # partition 0's first 400 rows, which put the watermark at 389 s
        # and dropped most of the other partitions' rows as late.
        broker = Broker()
        topic = broker.create_topic("events", 4)
        for p in range(4):
            topic.publish_to(p, [{"t": float(t), "p": p} for t in range(1000)])
        df = (session.read_stream
              .kafka(broker, "events", (("t", "timestamp"), ("p", "long")))
              .with_watermark("t", "10 seconds")
              .group_by(F.window(F.col("t"), "10 seconds"))
              .agg(F.count().alias("n")))
        query = start_memory_query(df, "update", "capped",
                                   max_records_per_epoch=400)
        progresses = query.process_all_available()
        assert sum(p.late_rows_dropped for p in progresses) == 0
        assert [p.input_rows for p in progresses] == [400] * 10
        for progress in progresses:
            (ranges,) = progress.sources.values()
            assert {p: ranges["end"][p] - ranges["start"].get(p, 0)
                    for p in ranges["end"]} == {p: 100 for p in "0123"}
        counts = {r["window_start"]: r["n"] for r in query.engine.sink.rows()}
        assert counts == {float(w): 40 for w in range(0, 1000, 10)}
        query.stop()


@pytest.mark.parametrize("latest, budget, expected", [
    # Pro rata by backlog; the floors leave nothing over.
    ({"0": 1000, "1": 1000}, 400, {"0": 200, "1": 200}),
    # Equal remainders: the leftover goes in sorted partition order.
    ({"0": 1, "1": 1, "2": 1}, 2, {"0": 1, "1": 1, "2": 0}),
    # Largest remainder first: 9.9 -> 10, 0.099 -> 0.
    ({"0": 100, "1": 1}, 10, {"0": 10, "1": 0}),
    # Under the cap: everything available.
    ({"0": 3, "1": 2}, 10, {"0": 3, "1": 2}),
])
def test_capped_ends_split_the_budget_by_backlog(latest, budget, expected):
    from repro.streaming.microbatch import _capped_ends

    start = {"0": 0}
    assert _capped_ends(start, latest, budget) == expected
    assert sum(expected.values()) == min(budget, sum(latest.values()))
