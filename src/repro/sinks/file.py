"""Transactional file sink: atomic, idempotent multi-file commits.

Models the Databricks Delta pattern the paper describes for sinks that
cannot natively commit multiple writers atomically (§6.1 footnote 3): data
files are invisible until a per-version JSON manifest appears in
``_log/``, and readers reconstruct the table purely from manifests.

Multiple writers (a streaming query plus batch backfills, §7.3) can share
one table: each *table version* manifest records which writer committed
it and that writer's epoch number, so re-delivering an epoch after
recovery is idempotent per writer while versions stay globally ordered.

Layout::

    <dir>/part-<version>-<n>.jsonl   data files (JSON-lines)
    <dir>/_log/<version>.json        manifest: files + mode + writer id/epoch

A data file's line is ``json.dumps(row)`` of one output row.  The sink
never builds those rows: :func:`encode_jsonl` writes the same bytes a
column at a time, and a reader decodes each file in one call
(:func:`repro.storage.read_jsonl`).
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.sinks.base import Sink
from repro.sql.batch import RecordBatch, pylist
from repro.sql.types import StructType
from repro.storage import (
    atomic_write_json,
    atomic_write_text,
    bind_encoder,
    list_files,
    read_json,
    read_jsonl,
    repair_torn_tail,
)
from repro.testing.faults import fault_point

#: ``json.dumps``'s own encoder: ", " and ": " separators, ASCII, NaN
#: and Infinity allowed.
_DUMPS = json.JSONEncoder()
_escape = json.encoder.encode_basestring_ascii


def _json_column(array: np.ndarray, encode) -> list:
    """Each value of a column as ``json.dumps`` writes it in a row of
    ``to_rows()`` (NaN as ``null``): numeric and boolean columns by one
    ``tolist`` and a C ``repr`` per value, other columns through
    ``encode``."""
    kind = array.dtype.kind
    if kind in "iu":
        return list(map(int.__repr__, array.tolist()))
    if kind == "b":
        return ["true" if v else "false" for v in array.tolist()]
    if kind == "f":
        texts = list(map(float.__repr__, array.tolist()))
        for i in np.flatnonzero(~np.isfinite(array)).tolist():
            v = array[i]
            texts[i] = "null" if v != v else (
                "Infinity" if v > 0 else "-Infinity")
        return texts
    return [_escape(v) if isinstance(v, str) else encode(v)
            for v in pylist(array)]


def encode_jsonl(batch: RecordBatch) -> str:
    """``batch`` as one JSON line per row, byte for byte
    ``"".join(json.dumps(row) + "\n" for row in batch.to_rows())``, built
    a column at a time: every value is encoded once, by one C encoder
    bound for the file, and each line is one format of its row's texts."""
    encode = bind_encoder(_DUMPS.encode)
    template = "{" + ", ".join(
        _escape(name).replace("%", "%%") + ": %s"
        for name in batch.schema.names) + "}\n"
    columns = [_json_column(batch.columns[name], encode)
               for name in batch.schema.names]
    return "".join(map(template.__mod__, zip(*columns)))


class TransactionalFileSink(Sink):
    """Exactly-once file output via a manifest commit log."""

    supported_modes = ("append", "complete")

    def __init__(self, directory: str, rows_per_file: int = 100_000,
                 writer_id: str = "default"):
        self.directory = directory
        self._log_dir = os.path.join(directory, "_log")
        self._rows_per_file = rows_per_file
        self.writer_id = writer_id
        os.makedirs(self._log_dir, exist_ok=True)
        self.key_names = []
        #: A torn newest manifest (crash mid-commit) would otherwise make
        #: every read and write die on unreadable JSON; removing it
        #: leaves that version's data files orphaned and invisible,
        #: which is the manifest protocol's definition of "uncommitted".
        self.repaired = repair_torn_tail(self._log_dir)
        #: This writer's epoch -> version (see ``_index_new_manifests``).
        self._epoch_versions = {}
        self._indexed_upto = -1

    # ------------------------------------------------------------------
    # Manifest log access
    # ------------------------------------------------------------------
    def _manifest_path(self, version: int) -> str:
        return os.path.join(self._log_dir, f"{version:010d}.json")

    def committed_manifests(self) -> list:
        """All committed manifests, oldest version first."""
        return [
            read_json(os.path.join(self._log_dir, name))
            for name in list_files(self._log_dir, ".json")
        ]

    def _index_new_manifests(self) -> None:
        """List the log and index what is new in it; ``_indexed_upto``
        ends at the latest table version (-1: empty log).  A manifest
        is parsed once per instance, this writer's own never, so an
        epoch reads none however long the log.  A log ending before
        the last indexed version was rolled back: rebuild the index."""
        names = list_files(self._log_dir, ".json")
        versions = [int(os.path.splitext(name)[0]) for name in names]
        if not versions or versions[-1] < self._indexed_upto:
            self._epoch_versions.clear()
            self._indexed_upto = -1
        for version, name in zip(versions, names):
            if version > self._indexed_upto:
                manifest = read_json(os.path.join(self._log_dir, name))
                if manifest.get("writer") == self.writer_id:
                    self._epoch_versions.setdefault(manifest["epoch"], version)
                self._indexed_upto = version

    def _manifest_for_epoch(self, epoch_id: int):
        """This writer's manifest for an epoch, or None.  An index hit
        is confirmed by reading that one manifest, so an epoch another
        instance rolled back does not pass for committed."""
        self._index_new_manifests()
        version = self._epoch_versions.get(epoch_id)
        if version is None:
            return None
        try:
            manifest = read_json(self._manifest_path(version))
        except FileNotFoundError:
            manifest = {}
        if manifest.get("writer") == self.writer_id and \
                manifest.get("epoch") == epoch_id:
            return manifest
        del self._epoch_versions[epoch_id]
        return None

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def add_batch(self, epoch_id: int, batch: RecordBatch, mode: str) -> None:
        fault_point("sink.add_batch", epoch=epoch_id, sink="file")
        if self._manifest_for_epoch(epoch_id) is not None:
            return  # this writer already committed this epoch: idempotent
        version = self._indexed_upto + 1  # one past the latest listed
        num_rows = batch.num_rows
        files = []
        for i, start in enumerate(range(0, max(num_rows, 1), self._rows_per_file)):
            part = batch.slice(start, start + self._rows_per_file)
            name = f"part-{version:05d}-{i:03d}.jsonl"
            atomic_write_text(os.path.join(self.directory, name),
                              encode_jsonl(part))
            files.append(name)
        # The manifest write is the commit point: one atomic rename makes
        # all of the version's files visible at once.
        atomic_write_json(self._manifest_path(version), {
            "version": version,
            "writer": self.writer_id,
            "epoch": epoch_id,
            "mode": mode,
            "files": files,
            "num_rows": num_rows,
        })
        self._epoch_versions[epoch_id] = version
        self._indexed_upto = version
        self._count_commit(num_rows)

    def last_committed_epoch(self):
        """Highest epoch this *writer* committed, or None."""
        self._index_new_manifests()
        for epoch_id in sorted(self._epoch_versions, reverse=True):
            if self._manifest_for_epoch(epoch_id) is not None:
                return epoch_id
        return None

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def read_rows(self, as_of_epoch: int = None, as_of_version: int = None) -> list:
        """Reconstruct the committed table from manifests only.

        Complete-mode manifests replace everything before them; append
        manifests accumulate.  Uncommitted (orphan) data files are
        ignored, which is what makes partially written epochs invisible.

        Time travel: ``as_of_version`` reads the table as of a table
        version; ``as_of_epoch`` as of this writer's epoch.
        """
        rows = []
        for manifest in self.committed_manifests():
            if as_of_version is not None and manifest["version"] > as_of_version:
                break
            if as_of_epoch is not None and \
                    manifest.get("writer") == self.writer_id and \
                    manifest["epoch"] > as_of_epoch:
                break
            if manifest["mode"] == "complete":
                rows = []
            for name in manifest["files"]:
                rows.extend(read_jsonl(os.path.join(self.directory, name)))
        return rows

    def read_batch(self, schema: StructType) -> RecordBatch:
        """The committed table as a RecordBatch."""
        return RecordBatch.from_rows(self.read_rows(), schema)

    def rows_for_epoch(self, epoch_id: int) -> list:
        """Rows committed by one of this writer's epochs (for rollback
        inspection: 'find which files were written in a particular
        epoch', §7.2)."""
        manifest = self._manifest_for_epoch(epoch_id)
        if manifest is None:
            return []
        rows = []
        for name in manifest["files"]:
            rows.extend(read_jsonl(os.path.join(self.directory, name)))
        return rows

    def remove_epochs_after(self, epoch_id: int) -> int:
        """Delete this writer's manifests for epochs newer than
        ``epoch_id`` (manual rollback, §7.2).  Returns the count removed."""
        removed = 0
        for manifest in self.committed_manifests():
            if manifest.get("writer") == self.writer_id and \
                    manifest["epoch"] > epoch_id:
                os.unlink(self._manifest_path(manifest["version"]))
                removed += 1
        return removed
