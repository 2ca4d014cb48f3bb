"""Engine configuration, resolved once per query.

:meth:`EngineConfig.resolve` is the only place under ``repro.streaming``
that reads the environment: each knob is taken from the writer's
``.option()``, else from its ``REPRO_*`` variable, else from the
default.  The engine and the state store receive plain values and
never look again, so the configuration a query ran with is one object —
the one its flight recorder notes at ``engine-start``.

``REPRO_METRICS`` / ``REPRO_TRACE`` are not here: they switch
process-wide instrumentation on at import time and belong to
``repro.observability``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.streaming.state import BACKENDS, DEFAULT_MEMTABLE_BYTES


def _as_bool(value) -> bool:
    if isinstance(value, str):
        return value.strip().lower() in ("on", "1", "true", "yes")
    return bool(value)


def _at_least_one(value) -> int:
    return max(1, int(value))


#: Knob -> (converter, environment variable or None).
_KNOBS = {
    "max_records_per_epoch": (int, None),
    "state_checkpoint_interval": (_at_least_one, None),
    "retain_epochs": (int, None),
    "state_backend": (str, "REPRO_STATE_BACKEND"),
    "state_memtable_bytes": (_at_least_one, "REPRO_STATE_MEMTABLE_BYTES"),
    "pipeline": (_as_bool, "REPRO_PIPELINE"),
}
ENV_VARS = {name: var for name, (_, var) in _KNOBS.items() if var}

_NO_PROCESS_EXECUTOR = (
    "the process executor was removed: each operator runs one task per "
    "epoch on the engine thread")
#: Writer option -> (environment variable or None, why it is rejected).
#: Refused by name rather than ignored, so a stale script or CI variable
#: cannot silently run something other than what it asked for.
REMOVED_KNOBS = {
    "scheduler": (None, "the 'scheduler' option (a caller-built thread "
                  "pool) was removed: each operator runs one task per "
                  "epoch on the engine thread"),
    "executor": ("REPRO_EXECUTOR", _NO_PROCESS_EXECUTOR),
    "num_workers": ("REPRO_NUM_WORKERS", _NO_PROCESS_EXECUTOR),
    "num_shards": ("REPRO_NUM_SHARDS", "state shards were removed: each "
                   "keyed operator keeps one state dict, and a checkpoint "
                   "records no partition count"),
}


@dataclass(frozen=True)
class EngineConfig:
    """The microbatch engine's knobs (see docs/execution_modes.md)."""

    #: Cap on records one epoch consumes across a source's partitions,
    #: at least 1; None = everything available (adaptive batching, §7.3).
    max_records_per_epoch: int = None
    #: Checkpoint operator state every this many epochs.
    state_checkpoint_interval: int = 1
    #: Keep at least this many recent epochs of WAL + state for manual
    #: rollback (§7.2); None = retain everything.
    retain_epochs: int = None
    #: ``"dict"`` (in memory) or ``"tiered"`` (LSM memtable + runs).
    state_backend: str = "dict"
    #: Tiered backend: memtable budget before a spill to a sorted run.
    state_memtable_bytes: int = DEFAULT_MEMTABLE_BYTES
    #: Pipelined durability: async state flush + group-commit WAL.
    pipeline: bool = False

    def __post_init__(self):
        cap = self.max_records_per_epoch
        if cap is not None and cap < 1:
            raise ValueError(
                f"max_records_per_epoch must be at least 1, got {cap}: a "
                "cap below 1 would never read a record")
        if self.state_backend not in BACKENDS:
            raise ValueError(
                f"unknown state backend {self.state_backend!r}; "
                f"expected one of {BACKENDS}")

    @classmethod
    def resolve(cls, options: dict, environ=None) -> "EngineConfig":
        """``.option()`` > ``REPRO_*`` > default, for every knob.

        None and the empty string count as unset (CI passes empty
        variables on the legs that do not use them).  A set variable of
        a removed knob raises.
        """
        environ = os.environ if environ is None else environ
        for variable, message in REMOVED_KNOBS.values():
            if variable is not None and environ.get(variable):
                raise ValueError(f"{variable} is set: {message}")
        given = {}
        for name, (convert, variable) in _KNOBS.items():
            value = options.get(name)
            if value in (None, "") and variable is not None:
                value = environ.get(variable)
            if value not in (None, ""):
                given[name] = convert(value)
        return cls(**given)
