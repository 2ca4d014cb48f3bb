"""Moderate-scale integration tests: the full engine against a naive
reference at sizes where vectorization bugs (masking, window expansion,
group encoding) would show up."""

import numpy as np
import pytest

from repro.bus import Broker
from repro.sql import functions as F
from repro.workloads.yahoo import WINDOW_SECONDS, YahooWorkload, structured_streaming_query

from tests.conftest import make_stream, start_memory_query

N = 60_000


class TestYahooAtScale:
    def test_update_mode_counts_match_reference(self, session):
        workload = YahooWorkload(seed=42)
        broker = Broker()
        rows = workload.event_rows(N, duration=120.0)
        workload.publish(broker, "events", rows, partitions=4)
        query = structured_streaming_query(session, broker, "events", workload)
        handle = (query.write_stream.format("memory").query_name("scale")
                  .output_mode("update").start())
        handle.process_all_available()
        got = {(r["campaign_id"], r["window_start"]): r["count"]
               for r in handle.engine.sink.rows()}
        assert got == workload.reference_counts(rows)

    def test_incremental_chunks_match_one_shot(self, session):
        """Chunked delivery (many epochs) equals single-epoch delivery."""
        workload = YahooWorkload(seed=43)
        rows = workload.event_rows(20_000, duration=60.0)

        def run(chunk_size):
            broker = Broker()
            broker.create_topic("events", 2)
            query = structured_streaming_query(session, broker, "events", workload)
            handle = (query.write_stream.format("memory")
                      .query_name(f"chunk{chunk_size}")
                      .output_mode("update").start())
            for start in range(0, len(rows), chunk_size):
                workload.publish(broker, "events", rows[start:start + chunk_size],
                                 partitions=2)
                handle.process_all_available()
            return {(r["campaign_id"], r["window_start"]): r["count"]
                    for r in handle.engine.sink.rows()}

        assert run(20_000) == run(1_700)


class TestSlidingWindowsAtScale:
    def test_sliding_counts_match_reference(self, session):
        rng = np.random.default_rng(11)
        times = rng.uniform(0, 500, 30_000)
        size, slide = 30.0, 10.0

        reference = {}
        for t in times:
            max_start = np.floor(t / slide) * slide
            start = max_start
            while start > t - size:
                reference[start] = reference.get(start, 0) + 1
                start -= slide

        stream = make_stream((("t", "timestamp"),))
        df = (session.read_stream.memory(stream)
              .group_by(F.window("t", size, slide)).count())
        query = start_memory_query(df, "complete", "slide")
        stream.add_data([{"t": float(t)} for t in times])
        query.process_all_available()
        got = {r["window_start"]: r["count"] for r in query.engine.sink.rows()}
        assert got == reference


class TestManyKeysManyEpochs:
    @pytest.mark.slow
    def test_high_cardinality_aggregation(self, session):
        rng = np.random.default_rng(12)
        stream = make_stream((("k", "long"), ("v", "double")))
        df = (session.read_stream.memory(stream)
              .group_by("k").agg(F.count().alias("n"), F.sum("v").alias("s")))
        query = start_memory_query(df, "complete", "hc")

        expected_n = {}
        expected_s = {}
        for _epoch in range(10):
            ks = rng.integers(0, 5_000, 3_000)
            vs = rng.uniform(-1, 1, 3_000)
            stream.add_data([
                {"k": int(k), "v": float(v)} for k, v in zip(ks, vs)])
            for k, v in zip(ks.tolist(), vs.tolist()):
                expected_n[k] = expected_n.get(k, 0) + 1
                expected_s[k] = expected_s.get(k, 0.0) + v
            query.process_all_available()

        rows = query.engine.sink.rows()
        assert len(rows) == len(expected_n)
        for row in rows:
            assert row["n"] == expected_n[row["k"]]
            assert row["s"] == pytest.approx(expected_s[row["k"]])

    def test_state_store_checkpoints_scale(self, session, checkpoint):
        stream = make_stream((("k", "long"),))
        df = session.read_stream.memory(stream).group_by("k").count()
        query = (df.write_stream.format("memory").query_name("big")
                 .output_mode("update").start(checkpoint))
        for epoch in range(8):
            stream.add_data([{"k": epoch * 1_000 + i} for i in range(1_000)])
            query.process_all_available()
        assert query.engine.state_store.total_keys() == 8_000

        # A fresh engine restores all 8k keys from snapshot + deltas.
        q2 = (df.write_stream.sink(query.engine.sink)
              .output_mode("update").start(checkpoint))
        assert q2.engine.state_store.total_keys() == 8_000
