"""The fault sweep's matrix, generated from the corpus registry (§3.2, §6.1).

A *config* runs one scenario of ``tests/checkpoint_scenarios.py`` with a
pipeline mode, a sink and an engine.  With the scenario's state backend,
input kind (append or CDC) and stage count, these are the config's six
*dimensions*.  Every option is set explicitly, so a CI leg's ``REPRO_*``
variables cannot change what a config runs.  :func:`configs` enumerates
the space: every scenario with ``pipeline`` off and on, into a memory
sink and, in append or complete mode, the transactional file sink; and
every append-mode scenario once on the continuous engine (which takes no
engine knob and refuses a query that is not map-like: :func:`measure`
drops the configs it refuses).

Nothing declares where a fault point fires.  :func:`measure` runs each
config's golden (fault-free) run under an injector with an empty
schedule; its ``counts`` say which points fire there, and how often.  A
*cell* is a (point, config) pair.  :func:`plan_cells` walks a point's
configs nearest the defaults first and takes each one that adds a
(dimension, value) the point fires under to those its earlier cells
cover; then every scenario no cell runs goes to the point with the
fewest cells that fires in it.  A cell schedules the point's occurrence
0 with its early action and the golden run's middle occurrence with its
later one, and both must fire.  Targeted cells ride on measured configs:
state block files crashed, torn and crashed once visible, the replayed
bytes equal to the golden run's; and the deletes-only epoch's WAL commit
entry torn in each stage of a cascade.
"""

from __future__ import annotations

import functools
import glob
import json
import os
from dataclasses import dataclass
from typing import NamedTuple

from repro.sinks.file import TransactionalFileSink
from repro.sinks.memory import MemorySink
from repro.sources import ChangeStream
from repro.streaming.continuous import UnsupportedContinuousQueryError
from repro.testing.faults import (
    REGISTRY,
    Fault,
    FaultInjector,
    fault_point,
    injected,
)
from repro.testing.harness import (
    ExactlyOnceChecker,
    GoldenRun,
    check_checkpoint_invariants,
    run_golden,
    run_with_crashes,
)
from repro.testing.oracle import feed

from tests import checkpoint_scenarios as corpus

#: Each dimension's default value; :func:`configs` lists the configs
#: with the fewest other values first.
DEFAULTS = {"backend": "dict", "input": "append", "stages": 1,
            "pipeline": "off", "sink": "memory", "engine": "microbatch"}
#: The continuous engine's epoch interval (seconds): longer than any
#: run, so the master commits one epoch, at stop, and a continuous
#: golden run's counts repeat exactly.
CONTINUOUS_INTERVAL = 60.0

#: (action at the point's first scheduled occurrence, at the later one).
_ACTIONS_FOR_POINT = {
    "storage.fsync": ("torn", "torn"),
    "storage.write": ("crash", "drop"),
    # Tear the WAL entry inside the deferred-fsync window: the batched
    # path's torn newest entry must quarantine exactly like the
    # sequential path's (repair_torn_tail on reopen).
    "wal.group_commit_crash": ("torn", "crash"),
}
#: The block cells' action at a state block file's write and rename.
_BLOCK_ACTIONS = {"storage.write": "torn", "storage.rename": "crash"}


@functools.lru_cache(maxsize=None)
def _shape(name: str) -> tuple:
    """A scenario's (input kind, stage count)."""
    sources, plan = corpus.SCENARIOS[name].build()
    cdc = any(isinstance(source, ChangeStream) for source in sources)
    return ("cdc" if cdc else "append",
            len(plan) if isinstance(plan, list) else 1)


@dataclass(frozen=True)
class Config:
    """A registry scenario and the pipeline mode, sink and engine it
    runs with."""

    scenario: str
    pipeline: str = "off"
    sink: str = "memory"
    engine: str = "microbatch"

    @property
    def dims(self) -> dict:
        kind, stages = _shape(self.scenario)
        return {"backend": corpus.SCENARIOS[self.scenario].backend,
                "input": kind, "stages": stages, "pipeline": self.pipeline,
                "sink": self.sink, "engine": self.engine}

    def options(self) -> dict:
        return {**corpus.SCENARIOS[self.scenario].options(),
                "pipeline": self.pipeline}

    def __str__(self):
        return (f"{self.scenario}[pipeline={self.pipeline}, "
                f"sink={self.sink}, engine={self.engine}]")


#: The windowed append aggregate into the transactional file sink: WAL,
#: state, storage and file-sink manifests in one single-stage query.
AGGREGATE_INTO_FILES = Config("windowed_append_dict", sink="file")


def configs() -> list:
    """Every config, those nearest the defaults first (in registry order
    among equals)."""
    space = []
    for name, scenario in corpus.SCENARIOS.items():
        for pipeline in ("off", "on"):
            space.append(Config(name, pipeline))
            if scenario.mode in ("append", "complete"):
                space.append(Config(name, pipeline, "file"))
        if scenario.mode == "append":
            space.append(Config(name, engine="continuous"))
    return sorted(space, key=lambda config: sum(
        value != DEFAULTS[dim] for dim, value in config.dims.items()))


class Stages:
    """A cascade's stage queries behind the harness's one-query protocol.

    The harness calls ``process_all_available()`` / ``stop()`` on a
    single handle; this adapter fans each call out to the stages in
    dependency order, firing ``cascade.between_stages`` before each
    downstream stage: the window where the upstream query has committed
    epochs into the stream table that the downstream query has not yet
    consumed.
    """

    def __init__(self, queries):
        self.queries = queries

    def process_all_available(self):
        upstream, *downstream = self.queries
        upstream.process_all_available()
        for stage, query in enumerate(downstream, 1):
            try:
                fault_point("cascade.between_stages", stage=stage)
            except Exception as exc:
                # The crash lands *between* the stages, outside either
                # engine's own dump path; the upstream recorder owns the
                # epochs just committed into the stream table, so it
                # writes the postmortem for this window.
                upstream.engine.progress.flightrec.dump(
                    "cascade-crash", error=exc,
                    epoch=upstream.engine.next_epoch, force=True)
                raise
            query.process_all_available()
            upstream = query

    def stop(self):
        error = None
        for query in self.queries:
            try:
                query.stop()
            except Exception as exc:
                error = error or exc
        if error is not None:
            raise error


class Instance:
    """One config under ``root``: fresh sources, sink and checkpoints.

    ``build()`` starts the query on the same checkpoints each time, as a
    restart does (a :class:`Stages` adapter for a cascade); the sources
    and a memory sink survive restarts, modeling the external systems,
    and the file sink is opened anew (it reads its manifests again).
    ``checkpoints`` lists each stage's checkpoint, the last stage last.
    """

    def __init__(self, config: Config, root: str):
        self.config = config
        self.scenario = corpus.SCENARIOS[config.scenario]
        self.sources, self.plan = self.scenario.build()
        self.checkpoint = os.path.join(root, "checkpoint")
        self.table = os.path.join(root, "table")
        stages = _shape(config.scenario)[1]
        self.checkpoints = ([self.checkpoint] if stages == 1 else
                            [os.path.join(self.checkpoint, f"stage{i}")
                             for i in range(stages)])
        self.memory = MemorySink()
        epochs = self.scenario.first + self.scenario.second
        self.steps = [functools.partial(self._feed, epoch)
                      for epoch in epochs]
        self.ordered = config.sink == "file"
        self.at_least_once = config.engine == "continuous"

    def _feed(self, epoch):
        for source, rows in zip(self.sources, epoch):
            feed(source, rows)

    def build(self):
        sink = (TransactionalFileSink(self.table)
                if self.config.sink == "file" else self.memory)
        trigger = ({"continuous": CONTINUOUS_INTERVAL}
                   if self.config.engine == "continuous" else None)
        queries = corpus.start(self.plan, self.scenario.mode,
                               self.checkpoint, self.config.options(),
                               sink=sink, trigger=trigger)
        return queries[0] if len(queries) == 1 else Stages(queries)

    def read_sink(self):
        if self.config.sink == "file":
            return TransactionalFileSink(self.table).read_rows()
        return self.memory.rows()


class Measured(NamedTuple):
    """A config's golden run and its firings per point."""

    golden: GoldenRun
    counts: dict


def measure(root: str) -> dict:
    """config -> :class:`Measured`, for every config an engine runs.

    Each golden run records its checkpoint's ``corpus.fingerprint`` as
    ``golden.fingerprint``.
    """
    measured = {}
    for i, config in enumerate(configs()):
        instance = Instance(config, os.path.join(root, str(i)))
        injector = FaultInjector()
        try:
            with injected(injector):
                golden = run_golden(instance.build, instance.steps,
                                    instance.read_sink)
        except UnsupportedContinuousQueryError:
            continue
        golden.fingerprint = corpus.fingerprint(instance.checkpoint)
        measured[config] = Measured(golden, dict(injector.counts))
    return measured


@dataclass(frozen=True)
class Cell:
    """A point, a config and what to schedule there: ``faults`` holds
    ``(occurrence, action, match)`` triples."""

    point: str
    config: Config
    faults: tuple
    same_bytes: bool = False

    @property
    def targeted(self) -> bool:
        """A block or torn-commit cell rather than a middle-occurrence one."""
        return self.same_bytes or any(match is not None
                                      for _, _, match in self.faults)

    def schedule(self) -> list:
        return [Fault(self.point, occurrence, action, match)
                for occurrence, action, match in self.faults]

    def __str__(self):
        once = ", fires once in its golden run" if len(self.faults) == 1 \
            else ""
        return f"({self.point}, {self.config}{once})"


def _middle_cell(point: str, config: Config, count: int) -> Cell:
    early, later = _ACTIONS_FOR_POINT.get(point, ("crash", "crash"))
    faults = ((0, early, None),)
    if count > 1:  # a point firing once gets one fault
        faults += ((count // 2, later, None),)
    return Cell(point, config, faults)


def _match_block(min_version: int):
    """Predicate for a write of a state block file of ``min_version``
    or newer."""
    def match(ctx):
        name = os.path.basename(ctx.get("path", ""))
        return (name.endswith(".block")
                and int(name.partition(".")[0]) >= min_version)
    return match


def _match_wal_commit(stage_dir: str, epoch: int):
    """Predicate for the fsync of one stage's WAL commit entry."""
    suffix = os.path.join(stage_dir, "commits", f"{epoch:010d}.json")
    return lambda ctx: ctx.get("path", "").endswith(suffix)


def _block_cells(measured) -> list:
    """On the first config whose checkpoint holds state block files: a
    crash before a state commit, and a block torn while in flight and a
    crash once one is visible, at the first block and at the middle
    version of those the golden run wrote."""
    for config, (golden, counts) in measured.items():
        versions = sorted({int(path.rpartition("/")[2].partition(".")[0])
                           for path in golden.fingerprint
                           if path.endswith(".block")})
        if versions:
            break
    else:
        return []
    middle = versions[len(versions) // 2]
    cells = [Cell("state.commit", config,
                  _middle_cell("state.commit", config,
                               counts["state.commit"]).faults, True)]
    for point, action in _BLOCK_ACTIONS.items():
        cells.append(Cell(point, config, tuple(
            (None, action, _match_block(version))
            for version in (versions[0], middle)), True))
    return cells


def _deletes_only(epoch) -> bool:
    rows = [row for source_rows in epoch for row in source_rows]
    return bool(rows) and all(row.get("__weight__") == -1 for row in rows)


def _cascade_cells(measured) -> list:
    """On the first multi-stage config whose input has a deletes-only
    epoch: that epoch's WAL commit entry torn first in the upstream
    stage's checkpoint, then (after recovery replays it) in the
    downstream stage's.  Both reopens must quarantine the torn tail and
    the idempotent sinks absorb the re-delivered retractions."""
    for config in measured:
        scenario = corpus.SCENARIOS[config.scenario]
        epochs = scenario.first + scenario.second
        deletes = [i for i, epoch in enumerate(epochs) if _deletes_only(epoch)]
        if config.dims["stages"] > 1 and deletes:
            break
    else:
        return []
    return [Cell("storage.fsync", config, tuple(
        (None, "torn", _match_wal_commit(f"stage{stage}", deletes[0]))
        for stage in range(config.dims["stages"])))]


def plan_cells(measured) -> dict:
    """point -> [Cell] for every registered point (empty where no config
    fires it)."""
    cells = {}
    for point in REGISTRY:
        covered = set()
        cells[point] = []
        for config, (_golden, counts) in measured.items():
            pairs = set(config.dims.items())
            if counts.get(point) and not pairs <= covered:
                covered |= pairs
                cells[point].append(
                    _middle_cell(point, config, counts[point]))
    for cell in _block_cells(measured) + _cascade_cells(measured):
        cells[cell.point].append(cell)
    crashed = {cell.config.scenario for point in cells
               for cell in cells[point]}
    for name in corpus.SCENARIOS:
        if name in crashed:
            continue
        firing = [(len(cells[point]), point, config)
                  for config, (_golden, counts) in measured.items()
                  if config.scenario == name
                  for point in REGISTRY if counts.get(point)]
        if firing:
            _, point, config = min(firing, key=lambda item: item[0])
            cells[point].append(_middle_cell(
                point, config, measured[config].counts[point]))
    return cells

#: The hand-kept matrix this generator replaced (32 cells, at most one per
#: point and engine mode), keyed by its old ``(point, mode)`` ids: the
#: dimensions its bespoke workload ran under, in :data:`DEFAULTS` order,
#: and whether it was a targeted cell.  :func:`old_cells` finds each among
#: the generated cells, so a generator change that loses one fails it.
_AGG = ("dict", "append", 1, "off", "file", "microbatch")
_JOIN = ("dict", "append", 1, "off", "memory", "microbatch")
_MAP = ("dict", "append", 1, "off", "memory", "continuous")
_CASCADE = ("dict", "cdc", 2, "off", "memory", "microbatch")
OLD_CELLS = {
    ("cascade.between_stages", "cascade"): (_CASCADE, False),
    ("continuous.after_offsets", "continuous"): (_MAP, False),
    ("continuous.commit_epoch", "continuous"): (_MAP, False),
    ("epoch.after_commit", "microbatch"): (_AGG, False),
    ("epoch.after_offsets", "microbatch"): (_AGG, False),
    ("epoch.after_process", "microbatch"): (_AGG, False),
    ("epoch.after_sink", "microbatch"): (_AGG, False),
    ("epoch.begin", "microbatch"): (_AGG, False),
    ("sink.add_batch", "microbatch"): (_JOIN, False),
    ("sink.add_batch", "cascade"): (_CASCADE, False),
    ("state.async_flush_crash", "microbatch"): (
        ("dict", "append", 1, "on", "memory", "microbatch"), False),
    ("state.commit", "microbatch"): (_JOIN, False),
    ("state.commit", "cascade"): (_CASCADE, False),
    ("state.commit", "packed"): (_JOIN, True),
    ("state.commit_all", "microbatch"): (_JOIN, False),
    ("state.compaction_crash", "microbatch"): (
        ("tiered", "append", 1, "off", "file", "microbatch"), False),
    ("state.flush_crash", "microbatch"): (
        ("tiered", "append", 1, "off", "file", "microbatch"), False),
    ("storage.fsync", "microbatch"): (_AGG, False),
    ("storage.fsync", "continuous"): (_MAP, False),
    ("storage.fsync", "cascade"): (_CASCADE, True),
    ("storage.rename", "microbatch"): (_AGG, False),
    ("storage.rename", "continuous"): (_MAP, False),
    ("storage.rename", "packed"): (_JOIN, True),
    ("storage.write", "microbatch"): (_AGG, False),
    ("storage.write", "continuous"): (_MAP, False),
    ("storage.write", "packed"): (_JOIN, True),
    ("wal.commit", "microbatch"): (_AGG, False),
    ("wal.commit", "continuous"): (_MAP, False),
    ("wal.commit", "cascade"): (_CASCADE, False),
    ("wal.group_commit_crash", "microbatch"): (
        ("dict", "append", 1, "on", "file", "microbatch"), False),
    ("wal.offsets", "microbatch"): (_AGG, False),
    ("wal.offsets", "continuous"): (_MAP, False),
}


def old_cells(cells) -> dict:
    """(point, mode) -> the first generated cell of ``point`` with the old
    cell's dimensions and kind, or None where the matrix has none."""
    return {key: next((cell for cell in cells[key[0]]
                       if tuple(cell.config.dims.values()) == dims
                       and cell.targeted == targeted), None)
            for key, (dims, targeted) in OLD_CELLS.items()}


def check_postmortems(checkpoint_dirs, context: str = "") -> int:
    """Assert that a crashed cell left parseable flight-recorder dumps.

    Every ``postmortem*.json`` under the cell's checkpoints must parse,
    carry the current schema version, and be internally consistent: the
    crashed epoch follows the last recorded epoch by at most one (the
    epoch that was executing when the crash hit).  Returns the number of
    postmortems found; at least one is required.
    """
    from repro.observability import flightrec

    found = 0
    for directory in checkpoint_dirs:
        pattern = os.path.join(directory, "postmortem*.json")
        for path in sorted(glob.glob(pattern)):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            assert doc.get("version") == flightrec.SCHEMA_VERSION, \
                f"unexpected postmortem schema in {path} {context}"
            assert doc.get("reason"), f"postmortem {path} has no reason"
            epochs = [entry.get("epoch") for entry in doc.get("epochs", ())]
            crash = doc.get("crash")
            if crash is not None and epochs:
                assert crash["epoch"] - epochs[-1] in (0, 1), (
                    f"postmortem {path} {context}: crashed epoch "
                    f"{crash['epoch']} does not follow last recorded "
                    f"epoch {epochs[-1]}")
            found += 1
    assert found, f"no postmortem written by crashed cell {context}"
    return found


def run_cell(cell: Cell, root: str, golden: GoldenRun):
    """Run one sweep cell against its config's golden run; returns the
    harness's crash report."""
    instance = Instance(cell.config, root)
    faults = cell.schedule()
    injector = FaultInjector(faults)
    checker = ExactlyOnceChecker(
        golden, ordered=instance.ordered,
        at_least_once=instance.at_least_once)
    with injected(injector):
        report = run_with_crashes(
            instance.build, instance.steps,
            injector=injector,
            read_sink=instance.read_sink,
            checker=checker,
            checkpoint_dir=instance.checkpoints[-1],
        )
    checker.check_final(instance.read_sink(), context=f"in sweep cell {cell}")
    for directory in instance.checkpoints:
        check_checkpoint_invariants(
            directory, strict=True, context=f"after completed cell {cell}")
    if cell.same_bytes:
        # A crash-replay rewrites every block byte for byte.
        assert corpus.fingerprint(instance.checkpoint) == golden.fingerprint, (
            f"{cell}: the replayed checkpoint's bytes differ from the "
            "fault-free run's")
    if report.num_crashes:
        # Every genuine crash must have left a flight-recorder dump
        # (torn/drop/fail actions that the query absorbed need not).
        check_postmortems(instance.checkpoints, context=str(cell))
    unfired = [fault for fault in faults if not fault.triggered]
    assert not unfired, (
        f"{cell}: scheduled faults never fired: {unfired}; "
        f"{injector.describe()}, counts {injector.counts}")
    return report
