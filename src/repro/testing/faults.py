"""Deterministic fault injection for crash-consistency testing.

The durability and execution hot paths (storage, WAL, state store,
engines, sinks) call :func:`fault_point` at *named* crash
sites.  With no injector installed the call is a single ``is None``
check, so production overhead is negligible.  Tests install a
:class:`FaultInjector` whose *schedule* decides, per named point and
firing occurrence, whether to

* **crash** — raise :class:`CrashPoint`, modeling the process dying at
  that instant (the test harness then "restarts" by building a fresh
  engine on the same checkpoint directory);
* **torn** — at a storage point, rename a *truncated* copy of the
  in-flight file into place and then crash, modeling a torn write that
  became visible (the ALICE-style case a pure rename protocol only
  prevents when the filesystem keeps its ordering promises);
* **drop** — delete the in-flight temp file and crash, so the write
  never becomes visible;
* **fail** — raise a transient :class:`InjectedTaskError` (a normal
  exception, not a crash), modeling an operation that fails while the
  process survives.

Schedules are either explicit lists of :class:`Fault` entries or drawn
from a seed (:meth:`FaultInjector.from_seed`), so every failure run is
replayable from its seed alone.

This module must stay dependency-free (stdlib only): it is imported by
the lowest layers of the engine (``repro.storage``) and anything heavier
would create import cycles.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Every named fault point in the codebase.  ``fault_point`` rejects
#: unknown names, so this dict is the single source of truth the sweep
#: enumerates; adding an instrumentation site without registering it
#: here is an error.
REGISTRY = {
    # storage.py -- the atomic-write primitive every durable artifact uses
    "storage.write": "temp file content written+flushed, before fsync",
    "storage.fsync": "temp file fsynced, before rename into place",
    "storage.rename": "destination file visible, before returning",
    # streaming/wal.py -- offset log protocol steps
    "wal.offsets": "about to write an epoch's offsets entry",
    "wal.commit": "about to write an epoch's commit entry",
    "wal.group_commit_crash": "pipelined: WAL entry in flight, fsync deferred",
    # streaming/state.py -- versioned state checkpoints
    "state.commit": "about to write one operator's delta/snapshot",
    "state.commit_all": "between two operators' writes of one version",
    # ... and pipelined mode's flusher, in the same write loop
    "state.async_flush_crash": "flusher about to execute a queued state write",
    # streaming/state_lsm.py -- tiered backend flush/compaction windows
    "state.flush_crash": "tiered: memtable sealed, before the run file write",
    "state.compaction_crash": "tiered: about to merge a tier's sorted runs",
    # sinks -- idempotent output delivery
    "sink.add_batch": "sink asked to deliver an epoch's output",
    # tests/sweep.py's stage adapter, which drives a cascade's stage
    # queries in order: fired between an upstream query's commits (into
    # a stream table) and the next stage consuming them, the window where
    # a crash leaves the cascade stages out of step.
    "cascade.between_stages": "upstream epochs committed, downstream not driven",
    # streaming/microbatch.py -- epoch boundaries (Figure 4 steps)
    "epoch.begin": "epoch chosen, nothing durable yet",
    "epoch.after_offsets": "offsets durable, before reading input",
    "epoch.after_process": "plan executed, before the sink write",
    "epoch.after_sink": "sink accepted the epoch, before the commit entry",
    "epoch.after_commit": "commit entry durable, before state checkpoint",
    # streaming/continuous.py -- epoch-marker handling on the master
    "continuous.commit_epoch": "master about to log an epoch's offsets",
    "continuous.after_offsets": "offsets logged, before the commit entry",
}

#: Points where a crash models process death: every registered point.
CRASHABLE_POINTS = tuple(sorted(REGISTRY))

_ACTIONS = ("crash", "torn", "drop", "fail")


class CrashPoint(Exception):
    """The injected process-death signal.

    Deliberately an ``Exception`` (not ``BaseException``): it flows
    through the same surfaces real failures use — ``StreamingQuery
    .exception``, the continuous engine's worker-error slot — and the
    harness asserts it comes back out of each of them.
    """


class InjectedTaskError(RuntimeError):
    """A transient injected failure (retryable, not a process crash)."""


class FaultPointError(ValueError):
    """An instrumentation site used a name missing from ``REGISTRY``."""


@dataclass
class Fault:
    """One schedule entry: fire ``action`` at a point's n-th firing.

    ``occurrence`` counts firings of ``point`` *globally across
    restarts* (the injector outlives engine rebuilds within one
    harness run); ``None`` matches any occurrence.  ``match`` is an
    optional predicate over the fault point's context kwargs (e.g.
    ``lambda ctx: "offsets" in ctx["path"]``).  ``times`` bounds how
    often the entry may trigger (``None`` = unlimited — only sensible
    for transient ``fail`` actions, or a crash loop never terminates).
    """

    point: str
    occurrence: int | None = 0
    action: str = "crash"
    match: callable = None
    times: int | None = 1
    triggered: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.point not in REGISTRY:
            raise FaultPointError(
                f"unknown fault point {self.point!r}; known: {sorted(REGISTRY)}"
            )
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")

    def wants(self, count: int, ctx: dict) -> bool:
        if self.times is not None and self.triggered >= self.times:
            return False
        if self.occurrence is not None and self.occurrence != count:
            return False
        if self.match is not None and not self.match(ctx):
            return False
        return True


class FaultInjector:
    """Executes a fault schedule against the named points.

    Thread-safe: fault points fire from the engine thread and the
    continuous workers/master.  ``counts`` (firings per point) and
    ``fired`` (faults actually triggered) persist across engine
    restarts, which is what lets one schedule place crashes in
    *recovery* code paths too.
    """

    def __init__(self, faults=(), seed=None):
        self.faults = list(faults)
        self.seed = seed
        self.counts = {}
        self.fired = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def from_seed(cls, seed: int, points=CRASHABLE_POINTS,
                  max_faults: int = 3, max_occurrence: int = 8) -> "FaultInjector":
        """A random multi-crash schedule, fully determined by ``seed``."""
        rng = random.Random(seed)
        faults = []
        for _ in range(rng.randint(1, max_faults)):
            point = rng.choice(list(points))
            if point in ("storage.fsync", "storage.write"):
                action = rng.choice(["crash", "torn", "drop"])
            else:
                action = "crash"
            faults.append(Fault(point, rng.randint(0, max_occurrence), action))
        return cls(faults, seed=seed)

    def describe(self) -> str:
        """Replay instructions, embedded in every harness failure."""
        schedule = ", ".join(
            f"{f.point}@{f.occurrence}:{f.action}" for f in self.faults
        )
        seed = f" seed={self.seed}" if self.seed is not None else ""
        return f"FaultInjector({schedule}){seed}"

    @property
    def pending(self) -> list:
        """Schedule entries that can still trigger."""
        return [
            f for f in self.faults
            if f.times is None or f.triggered < f.times
        ]

    # ------------------------------------------------------------------
    def fire(self, name: str, ctx: dict) -> None:
        if name not in REGISTRY:
            raise FaultPointError(f"unregistered fault point {name!r}")
        with self._lock:
            count = self.counts.get(name, 0)
            self.counts[name] = count + 1
            chosen = None
            for fault in self.faults:
                if fault.point == name and fault.wants(count, ctx):
                    fault.triggered += 1
                    chosen = fault
                    break
            if chosen is not None:
                self.fired.append((name, count, chosen.action))
        if chosen is not None:
            self._execute(chosen, name, count, ctx)

    def _execute(self, fault: Fault, name: str, count: int, ctx: dict) -> None:
        tag = f"injected {fault.action} at {name}#{count}"
        if fault.action == "fail":
            raise InjectedTaskError(tag)
        if fault.action == "torn":
            self._tear(ctx)
        elif fault.action == "drop":
            tmp_path = ctx.get("tmp_path")
            if tmp_path and os.path.exists(tmp_path):
                os.unlink(tmp_path)
        raise CrashPoint(tag)

    @staticmethod
    def _tear(ctx: dict) -> None:
        """Make a truncated version of the in-flight file *visible*."""
        tmp_path, path = ctx.get("tmp_path"), ctx.get("path")
        if not tmp_path or not path or not os.path.exists(tmp_path):
            return  # no file in flight here: plain crash
        with open(tmp_path, "rb") as f:
            content = f.read()
        with open(tmp_path, "wb") as f:
            f.write(content[: max(1, len(content) // 2)])
        os.replace(tmp_path, path)


# ----------------------------------------------------------------------
# Global installation
# ----------------------------------------------------------------------
_active: FaultInjector | None = None


def install(injector: FaultInjector) -> None:
    """Make ``injector`` the process-wide active injector."""
    global _active
    _active = injector


def uninstall() -> None:
    """Deactivate fault injection."""
    global _active
    _active = None


def active_injector() -> FaultInjector | None:
    """The currently installed injector, if any."""
    return _active


@contextmanager
def injected(injector: FaultInjector):
    """Install ``injector`` for the duration of a with-block."""
    install(injector)
    try:
        yield injector
    finally:
        uninstall()


def fault_point(name: str, **ctx) -> None:
    """Fire a named fault point (no-op unless an injector is installed)."""
    if _active is not None:
        _active.fire(name, ctx)
