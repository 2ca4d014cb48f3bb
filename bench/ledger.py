"""The per-layer ledger: what a traced run reports, layer by layer.

Everything here is derived from the spans the harness recorded around
the engine's public methods, the progress events the query emitted, the
files the run left in its checkpoint, and the generator's own clock —
nothing is read from inside the engine.  Layer times are self times, so
the layers partition ``run_epoch`` wall time and what is left over is
reported as ``engine.unattributed_share`` instead of being hidden.
"""

from __future__ import annotations

import os
import re
from collections import defaultdict

import spans as sp
from estimators import block_median, end_to_end, percentile

#: Default ``snapshot_interval`` of the state store (the harness leaves
#: engine retention options alone): versions divisible by it are full
#: snapshots, the rest deltas.
SNAPSHOT_INTERVAL = 10

SQL_SPANS = ("sql.stateless", "sql.static_join")
OPERATOR_SPANS = ("operators.aggregate", "operators.join",
                  "operators.watermark", "operators.scan")
STATE_SPANS = ("state.commit", "state.prepare", "state.write")
WAL_SPANS = ("wal.offsets", "wal.commit", "storage.sync")

_EPOCH_IN_NAME = re.compile(r"\d+")


def epoch_file_bytes(directory: str, epochs) -> int:
    """Bytes of the files under ``directory`` that belong to ``epochs``.
    WAL entries, state checkpoints, manifests and sink part files all
    lead their name with the epoch (version) number."""
    total = 0
    for root, _dirs, files in os.walk(directory):
        for name in files:
            match = _EPOCH_IN_NAME.search(name)
            if match and int(match.group()) in epochs:
                total += os.path.getsize(os.path.join(root, name))
    return total


def state_commit_ms(spans) -> tuple:
    """(delta epochs' ms, snapshot epochs' ms): per epoch, the time its
    state checkpoint took wherever it ran (engine thread or flusher)."""
    per_epoch = defaultdict(float)
    for s in spans:
        if s.name in STATE_SPANS and s.epoch is not None:
            per_epoch[s.epoch] += (s.end - s.start) * 1000.0
    deltas = [ms for e, ms in per_epoch.items() if e % SNAPSHOT_INTERVAL]
    snapshots = [ms for e, ms in per_epoch.items() if e % SNAPSHOT_INTERVAL == 0]
    return deltas, snapshots


def flusher_wait_s(spans) -> float:
    """How long captured state checkpoints sat in the flusher's queue:
    per epoch, first ``state.write`` start minus ``state.prepare`` end."""
    prepared, written = {}, {}
    for s in spans:
        if s.name == "state.prepare":
            prepared[s.epoch] = s.end
        elif s.name == "state.write":
            written[s.epoch] = min(s.start, written.get(s.epoch, s.start))
    return sum(max(written[e] - prepared[e], 0.0)
               for e in written if e in prepared)


def layer_metrics(workload, blocks, tracer) -> dict:
    """Every ``per_layer`` metric of BENCHMARK.json for one traced run
    (0 where a layer took no part in the workload)."""
    window = tracer.spans[:workload.window_spans]
    after = tracer.spans[workload.window_spans:]
    busy = sp.busy_by_name(window)
    rows = sp.rows_by_name(window)
    rows_in = sp.child_rows_by_name(window)

    # Idle polls (run_epoch with nothing to do) carry rows=None; they
    # show up in engine.idle_s through the wall clock instead.
    epochs = [s for s in window
              if s.name == "engine.run_epoch" and s.rows is not None]
    # One offsets entry per epoch (or continuous epoch marker).
    epoch_ids = {s.epoch for s in window if s.name == "wal.offsets"}
    epoch_wall = sum(s.end - s.start for s in epochs)
    own = sp.self_times(window)
    loop_self = sum(own[s.id] for s in epochs)
    epoch_ms = [(s.end - s.start) * 1000.0 for s in epochs]
    with_read = {s.parent for s in window if s.name == "sources.read"}
    prefetch_hits = sum(1 for s in epochs if s.id not in with_read)
    pipelined = bool(epochs) and workload.engine_options()["pipelined"]

    traced = [b for b, on in zip(blocks, workload.block_traced) if on]
    control = [b for b, on in zip(blocks, workload.block_traced) if not on]
    traced_wall = sum(b.wall_s for b in traced)
    logged = [e for e in workload.log.entries if e["epoch"] in epoch_ids] \
        if epochs else workload.log.entries
    deltas, snapshots = state_commit_ms(window)
    latencies = [ms for b in blocks for ms in b.latencies_ms]
    checkpoint = os.path.join(workload.workdir, "checkpoint")

    values = {
        "bus.publish_busy_s": busy.get("bus.publish", 0.0),
        "bus.records_published": rows.get("bus.publish", 0),
        "bus.gen_late_ms_p99": workload.gen_late_ms_p99,
        "sources.read_busy_s": busy.get("sources.read", 0.0),
        "sources.rows_read": rows.get("sources.read", 0),
        "sources.backlog_rows_max": max(
            (e["backlog_rows"] for e in logged), default=0),
        "sql.stateless_self_s": busy.get("sql.stateless", 0.0),
        "sql.static_join_self_s": busy.get("sql.static_join", 0.0),
        "sql.rows_in": sum(rows_in.get(n, 0) for n in SQL_SPANS),
        "sql.rows_out": sum(rows.get(n, 0) for n in SQL_SPANS),
        "operators.aggregate_self_s": busy.get("operators.aggregate", 0.0),
        "operators.join_self_s": busy.get("operators.join", 0.0),
        "operators.watermark_self_s": busy.get("operators.watermark", 0.0),
        "operators.rows_in": sum(rows_in.get(n, 0) for n in OPERATOR_SPANS),
        "operators.rows_out": sum(
            rows.get(n, 0) for n in OPERATOR_SPANS if n != "operators.scan"),
        "operators.late_rows_dropped": sum(
            e["late_rows_dropped"] for e in logged),
        "state.commit_busy_s": sum(busy.get(n, 0.0) for n in STATE_SPANS),
        "state.delta_ms_p50": percentile(deltas, 50),
        "state.snapshot_ms_p50": percentile(snapshots, 50),
        "state.commit_bytes": epoch_file_bytes(
            os.path.join(checkpoint, "state"), epoch_ids),
        "state.keys_max": max((e["state_keys"] for e in logged), default=0),
        "state.restore_s": sum(
            s.end - s.start for s in after if s.name == "state.restore"),
        "wal.write_busy_s": sum(busy.get(n, 0.0) for n in WAL_SPANS),
        "wal.entries": sum(
            1 for s in window if s.name in ("wal.offsets", "wal.commit")),
        "wal.bytes": epoch_file_bytes(
            os.path.join(checkpoint, "offsets"), epoch_ids)
        + epoch_file_bytes(os.path.join(checkpoint, "commits"), epoch_ids),
        "storage.fsyncs": workload.window_fsyncs,
        "sinks.add_batch_busy_s": busy.get("sinks.write", 0.0),
        "sinks.rows_written": rows.get("sinks.write", 0),
        "sinks.bytes_written": epoch_file_bytes(
            os.path.join(workload.workdir, "table"), epoch_ids),
        "engine.epochs": len(epochs),
        "engine.epoch_ms_p50": percentile(epoch_ms, 50),
        "engine.epoch_ms_p95": percentile(epoch_ms, 95),
        "engine.loop_self_s": loop_self,
        "engine.unattributed_share": loop_self / epoch_wall if epoch_wall else 0.0,
        "engine.idle_s": max(traced_wall - epoch_wall, 0.0) if epochs else 0.0,
        "engine.restart_ms_p50": percentile(workload.restart_ms, 50),
        "pipeline.flusher_wait_s": flusher_wait_s(window),
        "pipeline.prefetch_hit_ratio":
            prefetch_hits / len(epochs) if pipelined else 0.0,
        "continuous.pipeline_busy_s": busy.get("continuous.pipeline", 0.0),
        "continuous.marker_ms_p50": 0.0 if epochs else percentile(
            [e["duration_s"] * 1000.0 for e in logged], 50),
        "continuous.rows": rows.get("continuous.pipeline", 0),
        # The end-to-end timings, from the untraced control blocks.
        **end_to_end(control),
        "e2e.latency_ms_p95": percentile(latencies, 95),
        "e2e.latency_ms_p99": percentile(latencies, 99),
        "e2e.latency_samples": len(latencies),
        "trace.overhead_ratio": overhead_ratio(traced, control),
        "trace.spans": len(tracer.spans),
    }
    return values


def overhead_ratio(traced, control) -> float:
    """CPU per record in traced blocks over that in the untraced
    control blocks of the same run (block medians)."""
    base = block_median(b.cpu_s_per_mrec for b in control if b.records)
    cost = block_median(b.cpu_s_per_mrec for b in traced if b.records)
    return cost / base if base else 0.0
