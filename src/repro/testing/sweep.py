"""Fault-sweep driver: every fault point × engine mode.

Each *cell* of the sweep runs one workload with a schedule that crashes
the query at a specific named fault point (twice: an early and a later
occurrence), restarts it from its checkpoint until it completes, and
checks the exactly-once guarantee against a cached golden run.  Rows
per workload are deliberately small so the full matrix stays in CI's
budget; depth comes from *where* the crashes land, not data volume.

Workloads are chosen per point so the point actually fires:

* ``agg``  — windowed aggregation with a watermark into the
  transactional file sink (microbatch; WAL + state + storage + file
  manifests);
* ``join`` — stream-stream join with two state operators into a memory
  sink (microbatch; multi-operator ``commit_all`` and the memory sink's
  idempotence);
* ``packed`` — a left outer stream-stream join whose sides are all
  fixed-width (``long``/``timestamp``/``double``), so both handles
  checkpoint binary block files: cells crash before a state commit,
  tear a block file and crash after one becomes visible, and the
  crash-replayed checkpoint must hold the fault-free run's bytes;
* ``map``  — stateless filter/project on the continuous engine
  (at-least-once within the last epoch, §6.3);
* ``cascade`` — a two-stage materialized-view chain: a CDC change
  stream (with retractions) through a stateless stage into a stream
  table, consumed by a grouped aggregation into a memory sink.  Cells
  crash between the stages' commits and tear a pure-retraction epoch's
  WAL commit entry in either stage's checkpoint.
"""

from __future__ import annotations

import os

from repro.sinks.file import TransactionalFileSink
from repro.sinks.memory import MemorySink
from repro.sql import functions as F
from repro.sql.session import Session
from repro.sql.types import StructType
from repro.sources.cdc import ChangeStream
from repro.sources.memory import MemoryStream
from repro.testing.faults import (
    REGISTRY,
    Fault,
    FaultInjector,
    fault_point,
    injected,
)
from repro.testing.harness import (
    ExactlyOnceChecker,
    check_checkpoint_invariants,
    checkpoint_fingerprint,
    run_golden,
    run_with_crashes,
)

#: Points that can fire on each engine (the continuous engine never
#: checkpoints state, batches to sinks, or schedules epoch tasks; the
#: cascade point only fires in the two-stage cascade drive wrapper).
MICROBATCH_POINTS = tuple(sorted(set(REGISTRY) - {
    "continuous.commit_epoch", "continuous.after_offsets",
    "cascade.between_stages",
}))
CONTINUOUS_POINTS = (
    "storage.write", "storage.fsync", "storage.rename",
    "wal.offsets", "wal.commit",
    "continuous.commit_epoch", "continuous.after_offsets",
)
#: Points that only fire on the tiered state backend; their cells run
#: the workload with ``state_backend=tiered`` and a memtable budget so
#: small that every epoch spills runs and compacts.
TIERED_POINTS = ("state.flush_crash", "state.compaction_crash")
TIERED_MEMTABLE_BYTES = 256
#: Points that only fire in pipelined mode; their cells force
#: ``pipeline=on`` so the async flusher and the group-commit WAL window
#: actually exist.  (Under REPRO_PIPELINE=1 every microbatch cell runs
#: pipelined anyway; these cells keep the coverage on the default
#: sequential CI legs too.)
PIPELINE_POINTS = ("state.async_flush_crash", "wal.group_commit_crash")
#: Cells run on the two-stage cascade workload (CDC retractions through
#: a stream table into a downstream aggregation): the dedicated
#: between-stages point plus the commit/delivery points where a crash
#: can leave the stages out of step.
CASCADE_POINTS = (
    "cascade.between_stages", "wal.commit", "state.commit",
    "sink.add_batch", "storage.fsync",
)
#: Cells run on the packed join workload, whose state files are blocks:
#: a crash before an operator's commit, a block torn while in flight,
#: and a crash once a block is visible.
PACKED_POINTS = ("state.commit", "storage.write", "storage.rename")
#: The packed cells' later fault lands on a block of this version or
#: newer (the first on the first block written).
PACKED_LATER_VERSION = 3
#: The cascade workload's pure-retraction chunk (deletes only) lands in
#: this epoch of *both* stages' WALs; the storage.fsync cascade cell
#: tears its commit entry in each.
CASCADE_RETRACTION_EPOCH = 2

#: (action at the point's first scheduled occurrence, at the later one).
_ACTIONS_FOR_POINT = {
    "storage.fsync": ("torn", "torn"),
    "storage.write": ("crash", "drop"),
    # Tear the WAL entry inside the deferred-fsync window: the batched
    # path's torn newest entry must quarantine exactly like the
    # sequential path's (repair_torn_tail on reopen).
    "wal.group_commit_crash": ("torn", "crash"),
}
#: The later occurrence probed in each cell (the first is always 0).
LATER_OCCURRENCE = 4


def sweep_cells():
    """Yield every (point, engine_mode) cell of the matrix."""
    for point in sorted(REGISTRY):
        if point in MICROBATCH_POINTS:
            yield (point, "microbatch")
        if point in CONTINUOUS_POINTS:
            yield (point, "continuous")
        if point in CASCADE_POINTS:
            yield (point, "cascade")
        if point in PACKED_POINTS:
            yield (point, "packed")


def _match_wal_commit(stage_dir: str, epoch: int):
    """Predicate for the fsync of one stage's WAL commit entry."""
    suffix = os.path.join(stage_dir, "commits", f"{epoch:010d}.json")
    return lambda ctx: ctx.get("path", "").endswith(suffix)


def _match_block(min_version: int):
    """Predicate for a write of a state block file of ``min_version``
    or newer."""
    def match(ctx):
        name = os.path.basename(ctx.get("path", ""))
        return (name.endswith(".block")
                and int(name.partition(".")[0]) >= min_version)
    return match


def schedule_for(point: str, mode: str = "microbatch") -> list:
    if mode == "packed" and point != "state.commit":
        action = "torn" if point == "storage.write" else "crash"
        return [Fault(point, occurrence=None, action=action,
                      match=_match_block(version))
                for version in (0, PACKED_LATER_VERSION)]
    if mode == "cascade" and point == "storage.fsync":
        # Tear the pure-retraction epoch's WAL commit entry, first in
        # the upstream stage's checkpoint, then (after recovery replays
        # it) in the downstream stage's: both reopens must quarantine
        # the torn tail and the idempotent sinks must absorb the
        # re-delivered retractions.
        return [
            Fault("storage.fsync", occurrence=None, action="torn",
                  match=_match_wal_commit("checkpoint-stage1",
                                          CASCADE_RETRACTION_EPOCH)),
            Fault("storage.fsync", occurrence=None, action="torn",
                  match=_match_wal_commit("checkpoint-stage2",
                                          CASCADE_RETRACTION_EPOCH)),
        ]
    early, later = _ACTIONS_FOR_POINT.get(point, ("crash", "crash"))
    return [
        Fault(point, occurrence=0, action=early),
        Fault(point, occurrence=LATER_OCCURRENCE, action=later),
    ]


class WorkloadInstance:
    """One materialized workload: fresh streams/sinks/checkpoint dir.

    ``extra_checkpoints`` lists further checkpoint directories (a
    cascade's other stages) whose invariants are checked once the run
    completes; ``checkpoint_dir`` is also checked after every crash.
    """

    def __init__(self, build, steps, read_sink, checkpoint_dir,
                 ordered=True, at_least_once=False, extra_checkpoints=()):
        self.build = build
        self.steps = steps
        self.read_sink = read_sink
        self.checkpoint_dir = checkpoint_dir
        self.ordered = ordered
        self.at_least_once = at_least_once
        self.extra_checkpoints = list(extra_checkpoints)


class _CascadeQuery:
    """Drives a two-stage cascade behind the harness's one-query protocol.

    The harness calls ``process_all_available()`` / ``stop()`` on a
    single handle; this wrapper fans each call out to both stages in
    dependency order, firing ``cascade.between_stages`` in the window
    where the upstream query has committed epochs into the stream table
    that the downstream query has not yet consumed.
    """

    def __init__(self, upstream, downstream):
        self.upstream = upstream
        self.downstream = downstream

    def process_all_available(self):
        self.upstream.process_all_available()
        try:
            fault_point("cascade.between_stages", stage="silver")
        except Exception as exc:
            # The crash lands *between* the stages, outside either
            # engine's own dump path; the upstream recorder owns the
            # epochs just committed into the stream table, so it writes
            # the postmortem for this window.
            rec = getattr(self.upstream.engine, "flightrec", None)
            if rec is not None:
                rec.dump("cascade-crash", error=exc,
                         epoch=getattr(self.upstream.engine,
                                       "next_epoch", None),
                         force=True)
            raise
        self.downstream.process_all_available()

    def stop(self):
        try:
            self.upstream.stop()
        finally:
            self.downstream.stop()


def agg_workload(root: str, tiered: bool = False,
                 pipelined: bool = False) -> WorkloadInstance:
    """Windowed count into the transactional file sink.  ``tiered=True``
    runs the LSM state backend with a tiny memtable budget, so flush
    and compaction windows open on every epoch."""
    session = Session()
    stream = MemoryStream(StructType((("k", "string"), ("v", "long"),
                                      ("t", "timestamp"))))
    df = (session.read_stream.memory(stream)
          .with_watermark("t", "5s")
          .group_by(F.window("t", "10s")).count())
    checkpoint = os.path.join(root, "checkpoint")
    out_dir = os.path.join(root, "table")

    def build():  # fresh file sink per restart (reads manifests anew)
        writer = df.write_stream.format("file").option("path", out_dir)
        if tiered:
            writer = (writer.option("state_backend", "tiered")
                      .option("state_memtable_bytes", TIERED_MEMTABLE_BYTES))
        if pipelined:
            writer = writer.option("pipeline", "on")
        return writer.output_mode("append").start(checkpoint)

    def read_sink():
        return TransactionalFileSink(out_dir).read_rows()

    chunks = [
        [{"k": "a", "v": i, "t": float(t)} for i, t in enumerate((1, 2, 3))],
        [{"k": "b", "v": i, "t": float(t)} for i, t in enumerate((12, 14))],
        [{"k": "c", "v": i, "t": float(t)} for i, t in enumerate((23, 24, 25, 26))],
        [{"k": "d", "v": 0, "t": 50.0}],
        [{"k": "e", "v": 0, "t": 90.0}],
    ]
    steps = [lambda rows=rows: stream.add_data(rows) for rows in chunks]
    return WorkloadInstance(build, steps, read_sink, checkpoint)


def _join_workload(root: str, pipelined: bool = False) -> WorkloadInstance:
    session = Session()
    ls = MemoryStream(StructType((("k", "long"), ("t", "timestamp"),
                                  ("l", "string"))))
    rs = MemoryStream(StructType((("k", "long"), ("t2", "timestamp"),
                                  ("r", "string"))))
    left = session.read_stream.memory(ls).with_watermark("t", "100s")
    right = session.read_stream.memory(rs).with_watermark("t2", "100s")
    df = left.join(right, on="k", within=("t", "t2", "1000s"))
    checkpoint = os.path.join(root, "checkpoint")
    sink = MemorySink()  # survives restarts (models the external system)

    def build():
        writer = df.write_stream.sink(sink)
        if pipelined:
            writer = writer.option("pipeline", "on")
        return writer.output_mode("append").start(checkpoint)

    steps = []
    for i in range(4):
        rows_l = [{"k": k, "t": float(i), "l": f"l{i}-{k}"} for k in (i, i + 1)]
        rows_r = [{"k": k, "t2": float(i) + 0.5, "r": f"r{i}-{k}"} for k in (i, i + 1)]
        steps.append(lambda rows=rows_l: ls.add_data(rows))
        steps.append(lambda rows=rows_r: rs.add_data(rows))
    return WorkloadInstance(build, steps, read_sink=sink.rows,
                            checkpoint_dir=checkpoint, ordered=False)


def _packed_join_workload(root: str) -> WorkloadInstance:
    """A left outer join within 5 s whose sides hold only fixed-width
    columns, into a memory sink: each side's state is packed rows (an
    outer join's matched flag included), checkpointed as block files;
    the watermark evicts the early rows, unmatched ones null-padded."""
    session = Session()
    ls = MemoryStream(StructType((("k", "long"), ("t", "timestamp"),
                                  ("x", "double"))))
    rs = MemoryStream(StructType((("k", "long"), ("t2", "timestamp"),
                                  ("y", "double"))))
    left = session.read_stream.memory(ls).with_watermark("t", "10s")
    right = session.read_stream.memory(rs).with_watermark("t2", "10s")
    df = left.join(right, on="k", how="left_outer", within=("t", "t2", "5s"))
    checkpoint = os.path.join(root, "checkpoint")
    sink = MemorySink()  # survives restarts (models the external system)

    def build():
        return (df.write_stream.sink(sink).option("state_backend", "dict")
                .output_mode("append").start(checkpoint))

    steps = []
    for i in range(5):
        t = 20.0 * i
        rows_l = [{"k": k, "t": t + k, "x": k * 0.5 - i}
                  for k in (i, i + 1, i + 2)]
        rows_r = [{"k": k, "t2": t + k + 1.0, "y": -0.0 if k % 2 else k * 1.5}
                  for k in (i + 1, i + 3)]
        steps.append(lambda rows=rows_l: ls.add_data(rows))
        steps.append(lambda rows=rows_r: rs.add_data(rows))
    return WorkloadInstance(build, steps, read_sink=sink.rows,
                            checkpoint_dir=checkpoint, ordered=False)


def _map_workload(root: str) -> WorkloadInstance:
    session = Session()
    stream = MemoryStream(StructType((("v", "long"),)))
    df = (session.read_stream.memory(stream)
          .where(F.col("v") > 0)
          .select((F.col("v") * 10).alias("x")))
    checkpoint = os.path.join(root, "checkpoint")
    sink = MemorySink()

    def build():
        return (df.write_stream.sink(sink)
                .output_mode("append")
                .trigger(continuous=0.03).start(checkpoint))

    chunks = [list(range(1 + 10 * c, 11 + 10 * c)) for c in range(3)]
    steps = [
        lambda vs=vs: stream.add_data([{"v": v} for v in vs]) for vs in chunks
    ]
    return WorkloadInstance(build, steps, read_sink=sink.rows,
                            checkpoint_dir=checkpoint, at_least_once=True)


def _cascade_workload(root: str) -> WorkloadInstance:
    """CDC bronze -> stateless silver stage into a stream table ->
    downstream grouped sum into a memory sink, both stages in retract
    mode with their own checkpoints.  Chunk ``CASCADE_RETRACTION_EPOCH``
    is deletes-only, so that epoch of both stages' WALs carries a pure
    retraction delta (the torn-commit cell targets it by path)."""
    session = Session()
    cdc = ChangeStream(StructType((("k", "string"), ("v", "long"))))
    silver = (session.read_stream.cdc(cdc)
              .filter(F.col("v") >= 0)
              .select("k", "v"))
    ck1 = os.path.join(root, "checkpoint-stage1")
    ck2 = os.path.join(root, "checkpoint-stage2")
    sink = MemorySink()  # survives restarts (models the external system)

    def build():
        upstream = (silver.write_stream.to_table("sweep_silver")
                    .output_mode("retract")
                    .start(ck1))
        downstream = (session.read_stream_table("sweep_silver")
                      .group_by("k").agg(F.sum("v").alias("total"))
                      .write_stream.sink(sink)
                      .output_mode("retract")
                      .start(ck2))
        return _CascadeQuery(upstream, downstream)

    # One chunk per epoch (the {"x": -1} row is dropped by the silver
    # filter and never reaches the table); chunk 2 is deletes-only.
    steps = [
        lambda: cdc.insert([{"k": "a", "v": 5}, {"k": "b", "v": 3},
                            {"k": "x", "v": -1}]),
        lambda: cdc.insert([{"k": "a", "v": 2}, {"k": "c", "v": 7}]),
        lambda: cdc.delete([{"k": "a", "v": 5}, {"k": "b", "v": 3}]),
        lambda: cdc.update([{"k": "c", "v": 7}], [{"k": "c", "v": 9}]),
        lambda: cdc.insert([{"k": "b", "v": 1}]),
    ]
    return WorkloadInstance(build, steps, read_sink=sink.rows,
                            checkpoint_dir=ck2, ordered=False,
                            extra_checkpoints=[ck1])


def make_workload(point: str, mode: str, root: str) -> WorkloadInstance:
    os.makedirs(root, exist_ok=True)
    if mode == "continuous":
        return _map_workload(root)
    if mode == "cascade":
        return _cascade_workload(root)
    if mode == "packed":
        return _packed_join_workload(root)
    if point in TIERED_POINTS:
        return agg_workload(root, tiered=True)
    if point == "state.async_flush_crash":
        # Two stateful operators, so one flusher batch holds multiple
        # jobs and a crash can land between them.
        return _join_workload(root, pipelined=True)
    if point in PIPELINE_POINTS:
        return agg_workload(root, pipelined=True)
    if point.startswith(("state.", "sink.")):
        return _join_workload(root)
    return agg_workload(root)


def _golden_key(point: str, mode: str):
    if mode == "continuous":
        return ("map", mode)
    if mode in ("cascade", "packed"):
        return (mode, mode)
    if point in TIERED_POINTS:
        return ("agg-tiered", mode)
    if point == "state.async_flush_crash":
        return ("join-pipelined", mode)
    if point in PIPELINE_POINTS:
        return ("agg-pipelined", mode)
    if point.startswith(("state.", "sink.")):
        return ("join", mode)
    return ("agg", mode)


def check_postmortems(checkpoint_dirs, context: str = "") -> int:
    """Assert that a crashed cell left parseable flight-recorder dumps.

    Every ``postmortem*.json`` under the cell's checkpoints must parse,
    carry the current schema version, and be internally consistent: the
    crashed epoch follows the last recorded epoch by at most one (the
    epoch that was executing when the crash hit).  Returns the number of
    postmortems found; at least one is required.
    """
    import glob
    import json

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


def run_sweep_cell(point: str, mode: str, root: str,
                   golden_cache: dict) -> dict:
    """Run one sweep cell; returns coverage info for the caller.

    ``golden_cache`` maps workload identity to its GoldenRun so the
    fault-free reference is computed once per workload, not per cell.
    """
    key = _golden_key(point, mode)
    if key not in golden_cache:
        golden_instance = make_workload(point, mode,
                                        os.path.join(root, "golden"))
        golden_cache[key] = run_golden(
            golden_instance.build, golden_instance.steps,
            golden_instance.read_sink)
        golden_cache[key].fingerprint = checkpoint_fingerprint(
            golden_instance.checkpoint_dir)

    instance = make_workload(point, mode, os.path.join(root, "run"))
    injector = FaultInjector(schedule_for(point, mode))
    checker = ExactlyOnceChecker(
        golden_cache[key], ordered=instance.ordered,
        at_least_once=instance.at_least_once)
    with injected(injector):
        report = run_with_crashes(
            instance.build, instance.steps,
            injector=injector,
            read_sink=instance.read_sink,
            checker=checker,
            checkpoint_dir=instance.checkpoint_dir,
        )
    checker.check_final(
        instance.read_sink(),
        context=f"in sweep cell ({point}, {mode})")
    for directory in [instance.checkpoint_dir, *instance.extra_checkpoints]:
        check_checkpoint_invariants(
            directory, strict=True,
            context=f"after completed cell ({point}, {mode})")
    if mode == "packed":
        # A crash-replay rewrites every block byte for byte.
        assert checkpoint_fingerprint(instance.checkpoint_dir) == \
            golden_cache[key].fingerprint, (
                f"({point}, {mode}): the replayed checkpoint's bytes differ "
                "from the fault-free run's")
    if report.num_crashes:
        # Every genuine crash must have left a flight-recorder dump
        # (torn/drop/fail actions that the query absorbed need not).
        check_postmortems(
            [instance.checkpoint_dir, *instance.extra_checkpoints],
            context=f"({point}, {mode})")
    return {
        "point": point,
        "mode": mode,
        "crashes": report.num_crashes,
        "fired": dict(injector.counts),
        "triggered": list(injector.fired),
    }
