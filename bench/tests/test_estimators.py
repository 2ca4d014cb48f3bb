import numpy as np
import pytest

import estimators as est


def test_block_median_shrugs_off_a_slow_burst():
    # 12 blocks at 100 rec/s; a burst halves the rate of two of them.
    blocks = [est.Block(records=100, wall_s=1.0) for _ in range(12)]
    blocks[4].wall_s = blocks[5].wall_s = 2.0
    assert est.end_to_end(blocks)["e2e.records_per_s"] == 100.0
    whole_run = sum(b.records for b in blocks) / sum(b.wall_s for b in blocks)
    assert whole_run == pytest.approx(85.7, abs=0.1)  # what a mean would say


def test_block_statistics():
    block = est.Block(records=2_000_000, wall_s=4.0, cpu_s=1.0,
                      latencies_ms=[1.0, 2.0, 3.0, 100.0])
    assert block.records_per_s == 500_000
    assert block.cpu_s_per_mrec == 0.5
    assert block.latency_ms_p50 == 2.5
    assert est.end_to_end([block, est.Block()])["e2e.latency_ms_p50"] == 2.5


def test_percentile_and_empty_inputs():
    assert est.percentile([1, 2, 3, 4, 5], 50) == 3
    assert est.percentile(range(101), 99) == 99
    assert est.percentile([], 50) == 0.0
    assert est.block_median([]) == 0.0
    assert est.block_median([3.0, 1.0, 2.0]) == 2.0


def test_spread_is_iqr_over_median():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, q2, q3 = est.quartiles(values)
    assert (q1, q2, q3) == (11.75, 14.5, 17.25)
    assert est.spread(values) == pytest.approx(5.5 / 14.5)


def test_worse_by_respects_direction():
    assert est.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert est.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert est.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)


def test_open_loop_latency_counts_from_the_due_time():
    due = est.due_times(10.0, 0.01, 4)
    assert due.tolist() == pytest.approx([10.0, 10.01, 10.02, 10.03])
    # The generator stalled: ticks 1 and 2 went out late, tick 3 never
    # completed.  Latency still starts at the due time, so the stall is
    # charged to the ticks it delayed.
    sent = np.array([10.0, 10.025, 10.026, 10.03])
    completed = np.array([10.004, 10.030, 10.031, np.nan])
    assert est.lateness_ms(due, sent).tolist() == pytest.approx(
        [0.0, 15.0, 6.0, 0.0])
    assert est.due_latency_ms(due, completed).tolist() == pytest.approx(
        [4.0, 20.0, 11.0])


def test_a_schedule_the_generator_did_not_keep_fails_its_late_ticks():
    tick_ms = 5.0
    # 12 blocks of 300 ticks.  One 285 ms pause of the whole process
    # delays 57 ticks of block 4 by 285, 280, ... 5 ms: over 1 % of the
    # run, but one block only, so the schedule still counts as kept.
    blocks = [np.full(300, 0.3) for _ in range(12)]
    blocks[4][100:157] = np.arange(285.0, 0.0, -5.0)
    assert est.percentile(np.concatenate(blocks), 99) > tick_ms
    assert est.schedule_lateness_ms(blocks) == pytest.approx(0.3)
    assert est.late_ticks(blocks, tick_ms) == 0
    # A generator that is 6 ms late on 2 % of the ticks of every block
    # did not offer the load it claims; those ticks are failed.
    for block in blocks:
        block[:6] = 6.0
    assert est.schedule_lateness_ms(blocks) == pytest.approx(6.0)
    assert est.late_ticks(blocks, tick_ms) == 12 * 6 + 56
    assert est.late_ticks([], tick_ms) == 0
