"""Triggers: when the engine computes a new increment (§4, §7.3).

* :class:`ProcessingTimeTrigger` — fire every ``interval`` seconds (the
  microbatch default);
* :class:`OnceTrigger` — run exactly one epoch over available data, then
  stop: the "run-once" trigger behind the paper's discontinuous-
  processing cost savings (§7.3);
* :class:`AvailableNowTrigger` — run epochs until the input is drained,
  then stop (batch backfill with streaming semantics);
* :class:`ContinuousTrigger` — use the continuous processing engine
  (§6.3) with the given epoch-coordination interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sql.expressions import parse_duration


@dataclass(frozen=True)
class ProcessingTimeTrigger:
    """Fire an epoch every ``interval`` seconds (0 = as fast as possible)."""

    interval: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "interval", parse_duration(self.interval))


@dataclass(frozen=True)
class ManualTrigger:
    """No automatic firing: the caller drives epochs synchronously via
    ``StreamingQuery.run_epoch`` / ``process_all_available``.  The writer
    default — convenient for tests and deterministic pipelines."""


@dataclass(frozen=True)
class OnceTrigger:
    """Run a single epoch over all currently available data, then stop."""


@dataclass(frozen=True)
class AvailableNowTrigger:
    """Run epochs until no new data is available, then stop (the
    writer's ``max_records_per_epoch`` option caps each epoch)."""


@dataclass(frozen=True)
class ContinuousTrigger:
    """Continuous processing (§6.3) with this epoch interval (seconds)."""

    epoch_interval: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "epoch_interval", parse_duration(self.epoch_interval))
