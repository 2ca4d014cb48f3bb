import pytest

import ledger
from estimators import Block
from spans import Span


def span(span_id, name, start, end, parent=None, epoch=None, thread=1):
    return Span(span_id, name, start, end, parent, epoch, thread, None)


def test_epoch_file_bytes_picks_files_by_leading_epoch(tmp_path):
    (tmp_path / "offsets").mkdir()
    (tmp_path / "offsets" / "0000000007.json").write_text("x" * 7)
    (tmp_path / "offsets" / "0000000008.json").write_text("x" * 8)
    (tmp_path / "part-00007-000.jsonl").write_text("x" * 70)
    (tmp_path / "metadata.json").write_text("x" * 1000)
    assert ledger.epoch_file_bytes(str(tmp_path), {7}) == 77
    assert ledger.epoch_file_bytes(str(tmp_path), {8, 9}) == 8


def test_state_commit_is_split_into_deltas_and_snapshots():
    spans = [
        span(0, "state.commit", 0.0, 0.5, epoch=10),              # snapshot
        span(1, "state.commit", 1.0, 1.1, epoch=11),
        span(2, "state.prepare", 2.0, 2.1, epoch=12),             # pipelined:
        span(3, "state.write", 2.3, 2.5, epoch=12, thread=2),     # two parts
    ]
    deltas, snapshots = ledger.state_commit_ms(spans)
    assert sorted(deltas) == pytest.approx([100.0, 300.0])
    assert snapshots == pytest.approx([500.0])
    assert ledger.flusher_wait_s(spans) == pytest.approx(0.2)


def test_overhead_ratio_compares_block_medians():
    traced = [Block(records=1_000_000, cpu_s=c) for c in (1.1, 1.1, 9.0)]
    control = [Block(records=1_000_000, cpu_s=1.0)]
    assert ledger.overhead_ratio(traced, control) == pytest.approx(1.1)
    assert ledger.overhead_ratio(traced, []) == 0.0
