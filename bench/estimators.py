"""Robust estimators the benchmark reports (numpy + stdlib only).

Every gated timing is a *median over blocks* of a per-block statistic:
the timed window is cut into equal blocks of fixed work, the statistic
(rate, p50 latency, CPU per record) is taken inside each block, and the
median across blocks is reported.  A slow burst — the sibling core
waking up, a gen-2 GC pass — lands in one or two blocks and moves the
median of a dozen blocks very little, where it would move a whole-run
mean in proportion to its length.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100, linear interpolation); 0.0 if empty."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, q))


def block_median(per_block) -> float:
    """Median of the per-block statistics; 0.0 when there are no blocks."""
    per_block = list(per_block)
    return float(statistics.median(per_block)) if per_block else 0.0


def quartiles(values) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile range as a share of the median — the driver's
    run-to-run noise measure for one metric."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative = better)."""
    if first == 0:
        return float("inf") if second != first else 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def due_times(first_due: float, interval: float, ticks: int) -> np.ndarray:
    """Open-loop schedule: tick ``k`` is due at ``first_due + k*interval``,
    whatever happened to the ticks before it."""
    return first_due + interval * np.arange(ticks, dtype=np.float64)


def lateness_ms(due: np.ndarray, sent: np.ndarray) -> np.ndarray:
    """How late the generator sent each tick (ms, never negative)."""
    return np.maximum(np.asarray(sent) - np.asarray(due), 0.0) * 1000.0


def schedule_lateness_ms(lateness_by_block) -> float:
    """How late the generator ran: the block median of each block's
    99th-percentile lateness.  One stall of the whole process (this host
    pauses for ~0.3 s every few minutes) lands in one or two blocks and
    leaves it alone; a generator that cannot keep its schedule is late
    in every block."""
    return block_median(percentile(block, 99) for block in lateness_by_block)


def late_ticks(lateness_by_block, tick_ms: float) -> int:
    """Ticks to count as failed because the generator fell behind its
    schedule: none while ``schedule_lateness_ms`` is within one tick,
    otherwise every tick sent more than one tick late."""
    lateness_by_block = [np.asarray(b, dtype=np.float64)
                         for b in lateness_by_block]
    if schedule_lateness_ms(lateness_by_block) <= tick_ms:
        return 0
    return sum(int(np.sum(block > tick_ms)) for block in lateness_by_block)


def due_latency_ms(due: np.ndarray, completed: np.ndarray) -> np.ndarray:
    """Open-loop latency: from the moment a tick was *due* — not from
    when a stalled generator got round to sending it — to the return of
    the sink call that emitted its result.  Uncompleted ticks (NaN
    completion) are dropped here and counted as failures by the caller."""
    latency = (np.asarray(completed) - np.asarray(due)) * 1000.0
    return latency[~np.isnan(latency)]


@dataclass
class Block:
    """What one block of the timed window measured."""

    records: int = 0
    #: Engine wall seconds: time inside ``run_epoch`` (closed loop) or
    #: the block's span of the schedule (open loop).
    wall_s: float = 0.0
    #: Process CPU seconds over the block, every thread included.
    cpu_s: float = 0.0
    latencies_ms: list = field(default_factory=list)

    @property
    def records_per_s(self) -> float:
        return self.records / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def cpu_s_per_mrec(self) -> float:
        return self.cpu_s / self.records * 1e6 if self.records else 0.0

    @property
    def latency_ms_p50(self) -> float:
        return percentile(self.latencies_ms, 50)


def end_to_end(blocks) -> dict:
    """The three block-median end-to-end timings of a run."""
    blocks = [b for b in blocks if b.records]
    return {
        "e2e.records_per_s": block_median(b.records_per_s for b in blocks),
        "e2e.latency_ms_p50": block_median(b.latency_ms_p50 for b in blocks),
        "e2e.cpu_s_per_mrec": block_median(b.cpu_s_per_mrec for b in blocks),
    }
