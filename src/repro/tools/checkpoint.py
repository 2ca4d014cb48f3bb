"""Checkpoint inspection and manual-rollback tooling (§7.2).

The paper stores the write-ahead log "in human-readable JSON format that
administrators can use to restart [an application] from an arbitrary
point".  This module is the administrator's side of that workflow:

* :func:`describe_checkpoint` — summarize a query's checkpoint: epochs,
  commit status, per-source offsets, watermarks, state-store versions
  and sizes, and per operator its newest state file's format (``block``,
  ``jsonl``, the tiered backend's ``manifest`` or the legacy ``json``)
  with a block's row schema;
* :func:`rollback_checkpoint` — discard epochs after a chosen point so
  the next restart recomputes from that prefix.

Also usable as a CLI::

    python -m repro.tools.checkpoint describe <checkpoint-dir>
    python -m repro.tools.checkpoint rollback <checkpoint-dir> <epoch>
"""

from __future__ import annotations

import json
import os
import sys

from repro.storage import list_files, read_json
from repro.streaming import statefile
from repro.streaming.state_lsm import MANIFEST
from repro.streaming.wal import WriteAheadLog


def describe_checkpoint(checkpoint_dir: str) -> dict:
    """Summarize a checkpoint directory as a JSON-friendly dict."""
    wal = WriteAheadLog(checkpoint_dir)
    logged = wal.logged_epochs()
    committed = set(wal.committed_epochs())

    epochs = []
    for epoch in logged:
        entry = wal.read_offsets(epoch)
        epochs.append({
            "epoch": epoch,
            "committed": epoch in committed,
            "sources": entry.get("sources", {}),
            "watermarks": entry.get("watermarks", {}).get("watermarks", {}),
            "trigger_time": entry.get("trigger_time"),
        })

    state = {}
    state_dir = os.path.join(checkpoint_dir, "state")
    if os.path.isdir(state_dir):
        for operator in sorted(os.listdir(state_dir)):
            op_dir = os.path.join(state_dir, operator)
            if not os.path.isdir(op_dir):
                continue
            checkpoints = list_files(op_dir, statefile.SUFFIXES)
            versions = sorted({
                int(name.split(".")[0]) for name in checkpoints
            })
            # Newest full copy of the state: a tiered manifest (its live
            # key count), a base of a current format (count in its
            # trailer) or a legacy snapshot.
            anchors = [n for n in checkpoints if n.partition(".")[2]
                       in statefile.BASE_KINDS + (MANIFEST,)]
            latest_keys = None
            if anchors:
                path = os.path.join(op_dir, anchors[-1])
                kind = anchors[-1].partition(".")[2]
                latest_keys = (
                    read_json(path)["live_keys"] if kind == MANIFEST
                    else len(read_json(path)["data"])
                    if kind == statefile.LEGACY_BASE
                    else statefile.record_count(path))
            # The newest file's format; a block's header holds the rows'
            # schema (names, numpy fields, struct format).
            newest = checkpoints[-1] if checkpoints else ""
            file_format = ("manifest" if newest.endswith(MANIFEST)
                           else newest.rpartition(".")[2] or None)
            state[operator] = {
                "versions": versions,
                "num_checkpoints": len(checkpoints),
                "keys_at_last_snapshot": latest_keys,
                "format": file_format,
                "row_schema": statefile.read_header(
                    os.path.join(op_dir, newest)).get("schema")
                if file_format == "block" else None,
            }

    return {
        "checkpoint_dir": checkpoint_dir,
        "metadata": wal.read_metadata(),
        "num_epochs": len(logged),
        "latest_epoch": logged[-1] if logged else None,
        "latest_committed": wal.latest_committed_epoch(),
        "uncommitted": [e for e in logged if e not in committed],
        "epochs": epochs,
        "state": state,
    }


def rollback_checkpoint(checkpoint_dir: str, epoch: int) -> dict:
    """Roll the checkpoint back to ``epoch`` (§7.2 manual rollback).

    All log entries after ``epoch`` are discarded; the next query started
    on this checkpoint recomputes from that prefix.  Returns a summary of
    what was removed.  State checkpoints are left in place — restore
    picks the right version, newer ones are unused, and the re-run
    replaces them version by version.
    """
    wal = WriteAheadLog(checkpoint_dir)
    logged = wal.logged_epochs()
    if epoch >= 0 and epoch not in logged:
        raise ValueError(
            f"epoch {epoch} not found in the log (epochs: {logged})"
        )
    removed = [e for e in logged if e > epoch]
    wal.rollback_to(epoch)
    return {"rolled_back_to": epoch, "epochs_removed": removed}


def main(argv=None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) >= 2 and argv[0] == "describe":
        print(json.dumps(describe_checkpoint(argv[1]), indent=2))
        return 0
    if len(argv) >= 3 and argv[0] == "rollback":
        print(json.dumps(rollback_checkpoint(argv[1], int(argv[2])), indent=2))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
