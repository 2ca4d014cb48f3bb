"""Crash-restart harness and exactly-once checker.

The methodology follows ALICE-style crash-consistency testing and
Jepsen-style history checking: instead of hand-picking crash sites, the
sweep enumerates every registered fault point, kills the query there,
restarts it from its checkpoint, and machine-checks the paper's §3.2/§5
guarantee — the sink must contain exactly the fault-free ("golden")
run's output, with no duplicates and no holes, and every intermediate
sink snapshot must correspond to a prefix of the input (§4.1 prefix
consistency).

A "crash" abandons the engine object and rebuilds one on the same
checkpoint directory, exactly what an application restart does; the
sink and the sources survive, modeling the external systems.
"""

from __future__ import annotations

import json
import os

from repro.storage import list_files, read_json
from repro.streaming import statefile
from repro.testing.faults import CrashPoint, FaultInjector


class ExactlyOnceError(AssertionError):
    """The exactly-once guarantee (or a checkpoint invariant) was violated."""


def canonical(rows) -> tuple:
    """Rows as a tuple of canonical JSON strings (order-preserving)."""
    return tuple(json.dumps(row, sort_keys=True) for row in rows)


def dedup_first(rows) -> list:
    """Rows with every repeat of an earlier row removed (order kept)."""
    seen = set()
    out = []
    for encoded in canonical(rows):
        if encoded not in seen:
            seen.add(encoded)
            out.append(encoded)
    return out


class GoldenRun:
    """The fault-free reference: sink snapshots after each drive step."""

    def __init__(self, snapshots: list, final: list):
        #: Sink contents after 0, 1, ... steps (lists of row dicts).
        self.snapshots = snapshots
        self.final = final
        #: The run's :func:`checkpoint_fingerprint`, where a caller
        #: compares a faulted run's bytes with it.
        self.fingerprint = None


def run_golden(build, steps, read_sink) -> GoldenRun:
    """Run the workload with no faults, recording per-step snapshots.

    ``build()`` starts a fresh query, ``steps`` are callables that feed
    one chunk of input each, ``read_sink()`` returns the sink's current
    rows.  Must be called with no injector installed.
    """
    query = build()
    query.process_all_available()
    snapshots = [read_sink()]
    for step in steps:
        step()
        query.process_all_available()
        snapshots.append(read_sink())
    query.stop()
    final = read_sink()
    snapshots.append(final)
    return GoldenRun(snapshots, final)


class CrashReport:
    """What happened during one faulted run."""

    def __init__(self, injector: FaultInjector):
        self.injector = injector
        self.crashes = []

    @property
    def num_crashes(self) -> int:
        return len(self.crashes)


def run_with_crashes(build, steps, *, injector, read_sink=None, checker=None,
                     checkpoint_dir=None, max_restarts=25) -> CrashReport:
    """Drive a workload to completion through injected crashes.

    Runs the same ``build``/``steps`` protocol as :func:`run_golden`;
    whenever a :class:`CrashPoint` escapes (from the engine, a recovery
    pass inside ``build``, or the final ``stop``), the query is
    abandoned and rebuilt on the same checkpoint directory.  After every
    crash the sink must still be prefix-consistent and the checkpoint
    directory well-formed (when ``checker``/``checkpoint_dir`` are
    given).  The caller is responsible for installing ``injector``
    (see :func:`repro.testing.faults.injected`); it is passed here so
    failure messages carry the replay seed/schedule.
    """
    report = CrashReport(injector)
    fed = 0
    while True:
        query = None
        try:
            query = build()
            query.process_all_available()
            while fed < len(steps):
                steps[fed]()
                fed += 1
                query.process_all_available()
            query.stop()
            return report
        except CrashPoint as crash:
            report.crashes.append(str(crash))
            if query is not None:
                _quiet_stop(query)
            context = (
                f"after crash #{report.num_crashes} ({crash}) with "
                f"{injector.describe()}"
            )
            if checker is not None and read_sink is not None:
                checker.check_intermediate(read_sink(), context=context)
            if checkpoint_dir is not None:
                check_checkpoint_invariants(
                    checkpoint_dir, strict=False, context=context)
            if report.num_crashes > max_restarts:
                raise ExactlyOnceError(
                    f"query did not complete within {max_restarts} restarts; "
                    f"{injector.describe()}; crashes={report.crashes}"
                )


def _quiet_stop(query) -> None:
    """Release a crashed query's resources; a crash during the stop
    itself (e.g. the continuous master's final commit) is already
    recorded, not a new failure."""
    try:
        query.stop()
    except CrashPoint:
        pass


class ExactlyOnceChecker:
    """Compares a faulted run's sink against the golden run.

    ``ordered=True`` (append-style sinks) compares row sequences
    exactly; ``ordered=False`` (update/complete tables) compares
    multisets.  ``at_least_once=True`` checks the continuous engine's
    documented guarantee instead (§6.3): replay after a crash may
    duplicate rows from the last uncommitted epoch, but dropping those
    duplicates must reproduce the golden sequence exactly — no holes,
    no reordering, no rows that never existed.  That mode requires the
    workload's golden rows to be distinct.
    """

    def __init__(self, golden: GoldenRun, ordered: bool = True,
                 at_least_once: bool = False):
        self.golden = golden
        self.ordered = ordered
        self.at_least_once = at_least_once
        self._final = canonical(golden.final)
        if at_least_once and len(set(self._final)) != len(self._final):
            raise ValueError(
                "at-least-once checking needs distinct golden rows "
                "(give workload rows unique ids)"
            )
        if ordered:
            self._snapshots = {canonical(s) for s in golden.snapshots}
        else:
            self._snapshots = {
                frozenset(canonical(s)) for s in golden.snapshots
            }

    # ------------------------------------------------------------------
    def check_intermediate(self, rows, context: str = "") -> None:
        """The sink after a crash must be a golden prefix (§4.1)."""
        if self.at_least_once:
            deduped = dedup_first(rows)
            if tuple(deduped) != self._final[: len(deduped)]:
                raise ExactlyOnceError(
                    f"continuous sink is not an in-order prefix of the "
                    f"golden run after deduplication {context}: "
                    f"got {deduped[:6]}..., want prefix of {self._final[:6]}..."
                )
            return
        snapshot = canonical(rows) if self.ordered else frozenset(canonical(rows))
        if snapshot not in self._snapshots:
            raise ExactlyOnceError(
                f"sink snapshot matches no golden prefix {context}: "
                f"{len(rows)} rows, golden snapshot sizes "
                f"{[len(s) for s in self.golden.snapshots]}"
            )

    def check_final(self, rows, context: str = "") -> None:
        """The completed run must equal the golden run exactly."""
        if self.at_least_once:
            deduped = tuple(dedup_first(rows))
            if deduped != self._final:
                raise ExactlyOnceError(
                    f"continuous sink (deduplicated) differs from golden "
                    f"{context}: {self._diff(deduped)}"
                )
            extras = set(canonical(rows)) - set(self._final)
            if extras:
                raise ExactlyOnceError(
                    f"continuous sink invented rows absent from the golden "
                    f"run {context}: {sorted(extras)[:5]}"
                )
            return
        got = canonical(rows)
        want = self._final
        if not self.ordered:
            got, want = tuple(sorted(got)), tuple(sorted(want))
        if got != want:
            raise ExactlyOnceError(
                f"final sink differs from golden run {context}: "
                f"{self._diff(got, want)}"
            )

    def _diff(self, got, want=None) -> str:
        want = self._final if want is None else want
        missing = [r for r in want if r not in got]
        extra = [r for r in got if r not in want]
        dupes = len(got) - len(set(got))
        return (
            f"{len(got)} rows vs {len(want)} golden; "
            f"missing={missing[:4]} extra={extra[:4]} duplicate_rows={dupes}"
        )


# ----------------------------------------------------------------------
# Checkpoint-directory invariants
# ----------------------------------------------------------------------
def _read_dir(directory: str, strict: bool, problems: list, label: str,
              suffix=".json", read=read_json) -> dict:
    """Parse every log entry; a torn *newest* entry is tolerated
    unless strict (it is the legitimate artifact of a crash and will be
    quarantined on the next restart)."""
    entries = {}
    names = list_files(directory, suffix)
    for i, name in enumerate(names):
        path = os.path.join(directory, name)
        try:
            entries[int(name.split(".")[0])] = read(path)
        except (ValueError, OSError):
            if strict or i != len(names) - 1:
                problems.append(f"{label}: unreadable entry {name}")
    return entries


def check_checkpoint_invariants(checkpoint_dir: str, strict: bool = True,
                                context: str = "") -> None:
    """Assert the checkpoint directory is a state recovery can run from.

    * offsets entries are contiguous epochs, each readable JSON;
    * every commit entry has a matching offsets entry (a commit is only
      written after its offsets entry is durable);
    * at most the newest logged epoch is uncommitted (Figure 4: at most
      one partially executed epoch);
    * every state checkpoint file is readable and its version is no
      newer than the newest logged epoch (state commits follow the WAL
      commit of the same epoch).

    With ``strict=False`` (mid-crash), the newest entry of each log may
    be torn — that is the one artifact a crash is allowed to leave.
    """
    problems = []
    offsets = _read_dir(os.path.join(checkpoint_dir, "offsets"),
                        strict, problems, "offsets")
    commits = _read_dir(os.path.join(checkpoint_dir, "commits"),
                        strict, problems, "commits")

    epochs = sorted(offsets)
    if epochs and epochs != list(range(epochs[0], epochs[-1] + 1)):
        problems.append(f"offsets epochs not contiguous: {epochs}")
    for epoch in sorted(commits):
        if epoch not in offsets:
            problems.append(f"commit {epoch} has no offsets entry")
    uncommitted = [e for e in epochs if e not in commits]
    if any(e != epochs[-1] for e in uncommitted):
        problems.append(
            f"uncommitted epochs {uncommitted} are not limited to the "
            f"newest logged epoch {epochs[-1] if epochs else None}"
        )

    state_dir = os.path.join(checkpoint_dir, "state")
    if os.path.isdir(state_dir):
        for operator in sorted(os.listdir(state_dir)):
            versions = _read_dir(os.path.join(state_dir, operator),
                                 strict, problems, f"state/{operator}",
                                 statefile.SUFFIXES, statefile.verify)
            if versions and epochs and max(versions) > epochs[-1]:
                problems.append(
                    f"state/{operator} version {max(versions)} is newer "
                    f"than the newest logged epoch {epochs[-1]}"
                )
    if problems:
        raise ExactlyOnceError(
            f"checkpoint invariants violated {context}: " + "; ".join(problems)
        )


def checkpoint_fingerprint(checkpoint_dir: str) -> dict:
    """Deterministic content map of a checkpoint's durable artifacts.

    Used to assert recovery paths leave checkpoint *bytes* unchanged.
    ``trigger_time`` (wall clock) is dropped from offsets entries and
    ``events.jsonl`` (timings) is excluded; everything else must match
    to the byte across equivalent runs.
    """
    fingerprint = {}
    for sub in ("offsets", "commits"):
        directory = os.path.join(checkpoint_dir, sub)
        for name in list_files(directory, ".json"):
            entry = read_json(os.path.join(directory, name))
            entry.pop("trigger_time", None)
            fingerprint[f"{sub}/{name}"] = json.dumps(entry, sort_keys=True)
    state_dir = os.path.join(checkpoint_dir, "state")
    if os.path.isdir(state_dir):
        for operator in sorted(os.listdir(state_dir)):
            op_dir = os.path.join(state_dir, operator)
            for name in list_files(op_dir, statefile.SUFFIXES):
                with open(os.path.join(op_dir, name), "rb") as f:
                    fingerprint[f"state/{operator}/{name}"] = f.read()
    return fingerprint
