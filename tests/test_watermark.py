"""Tests for watermark semantics (§4.3.1)."""

import json

import numpy as np
import pytest

from repro.sql import functions as F
from repro.sql.session import Session
from repro.streaming.watermark import WatermarkTracker

from tests.conftest import make_stream, start_memory_query


class TestBasicSemantics:
    def test_unset_until_data_seen(self):
        tracker = WatermarkTracker({"t": 10.0})
        assert tracker.current("t") is None

    def test_max_minus_delay(self):
        tracker = WatermarkTracker({"t": 10.0})
        tracker.observe("t", 100.0)
        tracker.advance()
        assert tracker.current("t") == 90.0

    def test_takes_effect_only_after_advance(self):
        # The watermark for epoch N comes from data in epochs < N.
        tracker = WatermarkTracker({"t": 10.0})
        tracker.observe("t", 100.0)
        assert tracker.current("t") is None
        tracker.advance()
        assert tracker.current("t") == 90.0

    def test_monotonic_under_out_of_order_data(self):
        tracker = WatermarkTracker({"t": 10.0})
        tracker.observe("t", 100.0)
        tracker.advance()
        tracker.observe("t", 50.0)  # late data must not move it back
        tracker.advance()
        assert tracker.current("t") == 90.0

    def test_max_observation_wins_within_epoch(self):
        tracker = WatermarkTracker({"t": 5.0})
        tracker.observe("t", 30.0)
        tracker.observe("t", 20.0)
        tracker.advance()
        assert tracker.current("t") == 25.0

    def test_unknown_column_ignored(self):
        tracker = WatermarkTracker({"t": 5.0})
        tracker.observe("other", 100.0)
        tracker.advance()
        assert tracker.current("t") is None

    def test_columns_listing(self):
        tracker = WatermarkTracker({"b": 1.0, "a": 2.0})
        assert tracker.columns == ["a", "b"]


class TestGlobalMinimum:
    def test_none_when_no_watermarks(self):
        assert WatermarkTracker({}).global_minimum() is None

    def test_none_until_all_columns_seen(self):
        tracker = WatermarkTracker({"a": 1.0, "b": 1.0})
        tracker.observe("a", 10.0)
        tracker.advance()
        assert tracker.global_minimum() is None

    def test_minimum_across_columns(self):
        tracker = WatermarkTracker({"a": 1.0, "b": 1.0})
        tracker.observe("a", 10.0)
        tracker.observe("b", 5.0)
        tracker.advance()
        assert tracker.global_minimum() == 4.0


class TestPersistence:
    def test_json_roundtrip(self):
        tracker = WatermarkTracker({"t": 10.0})
        tracker.observe("t", 100.0)
        tracker.advance()
        tracker.observe("t", 120.0)  # un-advanced observation persists too

        restored = WatermarkTracker({"t": 10.0})
        restored.load_json(tracker.to_json())
        assert restored.current("t") == 90.0
        restored.advance()
        assert restored.current("t") == 110.0

    def test_backlog_robustness(self):
        # §4.3.1: if processing falls behind, the watermark stalls with
        # the data actually seen, so nothing within the threshold drops.
        tracker = WatermarkTracker({"t": 10.0})
        tracker.observe("t", 50.0)
        tracker.advance()
        before = tracker.current("t")
        for _ in range(5):  # idle epochs with no new data
            tracker.advance()
        assert tracker.current("t") == before


class TestNullEventTimes:
    """A null (NaN) event time carries no time: the watermark follows the
    epoch's non-null maximum, and an all-null epoch observes nothing."""

    @staticmethod
    def windowed_count(tmp_path):
        stream = make_stream((("t", "timestamp"),))
        df = (Session().read_stream.memory(stream)
              .with_watermark("t", "1 second")
              .group_by(F.window(F.col("t"), "10 seconds"))
              .agg(F.count().alias("n")))
        return stream, start_memory_query(
            df, "append", "null_times", str(tmp_path))

    @staticmethod
    def epoch(stream, query, times):
        stream.add_data([{"t": t} for t in times])
        query.process_all_available()
        watermarks = query.engine.watermarks
        # A NaN maximum would reach the WAL as a bare ``NaN`` token.
        json.dumps(watermarks.to_json(), allow_nan=False)
        return watermarks.current("t")

    def test_all_null_first_epoch_does_not_freeze_the_watermark(self, tmp_path):
        stream, query = self.windowed_count(tmp_path)
        assert self.epoch(stream, query, [None]) is None
        assert [self.epoch(stream, query, [t]) for t in (15.0, 25.0, 35.0)] \
            == [14.0, 24.0, 34.0]
        # The watermark of the t=35 epoch (24) finalized [10, 20); the null
        # row belongs to no window.
        assert [(r["window_start"], r["n"]) for r in query.engine.sink.rows()] \
            == [(10.0, 1)]
        query.stop()

    def test_null_beside_real_times_keeps_the_epoch_maximum(self, tmp_path):
        stream, query = self.windowed_count(tmp_path)
        assert self.epoch(stream, query, [15.0]) == 14.0
        assert self.epoch(stream, query, [25.0, None]) == 24.0
        assert self.epoch(stream, query, [None, 26.0, None]) == 25.0
        query.stop()

    @pytest.mark.parametrize("no_time", [None, float("nan"), float("inf")])
    def test_a_row_without_a_finite_time_leaves_the_watermark(
            self, tmp_path, no_time):
        """An infinite time lands in no window, like a null one, and must
        not move the watermark either: at +inf every later row would be
        late and the count would stay at its first row."""
        stream = make_stream((("t", "timestamp"),))
        df = (Session().read_stream.memory(stream)
              .with_watermark("t", "10 seconds")
              .group_by(F.window(F.col("t"), "10 seconds"))
              .agg(F.count().alias("n")))
        query = start_memory_query(df, "update", "no_time", str(tmp_path))
        late = []
        for times in ([1.0, no_time], [5.0], [6.0]):
            stream.add_data([{"t": t} for t in times])
            query.process_all_available()
            late.append(query.last_progress.late_rows_dropped)
        assert late == [0, 0, 0]
        rows = query.engine.sink.rows()
        assert [(r["window_start"], r["n"]) for r in rows] == [(0.0, 3)]
        json.dumps(query.engine.watermarks.to_json(), allow_nan=False)
        query.stop()

    def test_tracker_takes_the_max_over_non_null_values(self):
        tracker = WatermarkTracker({"t": 1.0})
        tracker.observe_values("t", np.array([np.nan, np.nan]))
        tracker.observe_values("t", np.array([], dtype=np.float64))
        tracker.advance()
        assert tracker.current("t") is None
        tracker.observe_values("t", np.array([3.0, np.nan, 5.0]))
        tracker.advance()
        assert tracker.current("t") == 4.0
        tracker.observe_values("t", np.array([np.inf, 7.0, -np.inf]))
        tracker.observe("t", float("inf"))
        tracker.advance()
        assert tracker.current("t") == 6.0
