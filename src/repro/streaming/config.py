"""Engine configuration, resolved once per query.

:meth:`EngineConfig.resolve` is the only place under ``repro.streaming``
and ``repro.cluster`` that reads the environment: each knob is taken
from the writer's ``.option()``, else from its ``REPRO_*`` variable,
else from the default.  The engine, the state store and the worker pool
receive plain values and never look again, so the configuration a query
ran with is one object — the one its flight recorder notes at
``engine-start``.

``REPRO_METRICS`` / ``REPRO_TRACE`` are not here: they switch
process-wide instrumentation on at import time and belong to
``repro.observability``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.streaming.state import BACKENDS, DEFAULT_MEMTABLE_BYTES

EXECUTORS = ("inline", "process")


def _as_bool(value) -> bool:
    if isinstance(value, str):
        return value.strip().lower() in ("on", "1", "true", "yes")
    return bool(value)


def _at_least_one(value) -> int:
    return max(1, int(value))


def _default_workers() -> int:
    return min(4, os.cpu_count() or 1)


#: Knob -> (converter, environment variable or None).
_KNOBS = {
    "max_records_per_epoch": (int, None),
    "state_checkpoint_interval": (_at_least_one, None),
    "retain_epochs": (int, None),
    "num_shards": (_at_least_one, "REPRO_NUM_SHARDS"),
    "state_backend": (str, "REPRO_STATE_BACKEND"),
    "state_memtable_bytes": (_at_least_one, "REPRO_STATE_MEMTABLE_BYTES"),
    "pipeline": (_as_bool, "REPRO_PIPELINE"),
    "executor": (str, "REPRO_EXECUTOR"),
    "num_workers": (_at_least_one, "REPRO_NUM_WORKERS"),
}
ENV_VARS = {name: var for name, (_, var) in _KNOBS.items() if var}


@dataclass(frozen=True)
class EngineConfig:
    """The microbatch engine's knobs (see docs/execution_modes.md)."""

    #: Cap on records one epoch consumes across a source's partitions;
    #: None = everything available (adaptive batching, §7.3).
    max_records_per_epoch: int = None
    #: Checkpoint operator state every this many epochs.
    state_checkpoint_interval: int = 1
    #: Keep at least this many recent epochs of WAL + state for manual
    #: rollback (§7.2); None = retain everything.
    retain_epochs: int = None
    #: Hash-partition count for operator state and epoch tasks (§6.2).
    #: Checkpoints are shard-count independent, so a query may restart
    #: at a different count.
    num_shards: int = 1
    #: ``"dict"`` (in memory) or ``"tiered"`` (LSM memtable + runs).
    state_backend: str = "dict"
    #: Tiered backend: memtable budget before a spill to a sorted run.
    state_memtable_bytes: int = DEFAULT_MEMTABLE_BYTES
    #: Pipelined durability: async state flush + group-commit WAL.
    pipeline: bool = False
    #: ``"inline"`` (shard tasks on the engine thread) or ``"process"``
    #: (the engine builds and owns a forked worker pool).
    executor: str = "inline"
    #: Process executor: worker count.
    num_workers: int = field(default_factory=_default_workers)

    def __post_init__(self):
        if self.state_backend not in BACKENDS:
            raise ValueError(
                f"unknown state backend {self.state_backend!r}; "
                f"expected one of {BACKENDS}")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of "
                f"{EXECUTORS}")

    @classmethod
    def resolve(cls, options: dict, environ=None) -> "EngineConfig":
        """``.option()`` > ``REPRO_*`` > default, for every knob.

        None and the empty string count as unset (CI passes empty
        variables on the legs that do not use them).
        """
        environ = os.environ if environ is None else environ
        given = {}
        for name, (convert, variable) in _KNOBS.items():
            value = options.get(name)
            if value in (None, "") and variable is not None:
                value = environ.get(variable)
            if value not in (None, ""):
                given[name] = convert(value)
        config = cls(**given)
        if "num_shards" not in given and config.executor == "process":
            # One shard per worker so a process pool has work to spread.
            config = replace(config, num_shards=config.num_workers)
        return config
