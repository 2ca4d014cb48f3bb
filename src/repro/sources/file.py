"""Directory-watching file source: the paper's quickstart scenario (§4.1).

New JSON-lines files continually appear in a directory; the source treats
the sorted file listing as a single-partition log whose offset is the
number of files.  Files must be added atomically (write-then-rename, as
:func:`repro.storage.write_jsonl` does) and never modified — the same
assumptions Spark's file source makes.
"""

from __future__ import annotations

import os

from repro.sql.batch import RecordBatch
from repro.sql.types import StructType
from repro.sources.base import Source, SourceDescriptor
from repro.storage import list_files, read_jsonl

PARTITION = "files"


class FileStreamSource(Source):
    """Replayable source over a growing directory of JSON-lines files."""

    def __init__(self, directory: str, schema: StructType, suffix: str = ".jsonl"):
        self._directory = directory
        self.schema = schema
        self._suffix = suffix

    def _listing(self) -> list:
        return list_files(self._directory, self._suffix)

    def partitions(self) -> list:
        return [PARTITION]

    def initial_offsets(self) -> dict:
        return {PARTITION: 0}

    def latest_offsets(self) -> dict:
        return {PARTITION: len(self._listing())}

    def get_partition_batch(self, partition: str, start: int, end: int,
                            schema: StructType = None) -> RecordBatch:
        rows = []
        for name in self._listing()[start:end]:
            rows.extend(read_jsonl(os.path.join(self._directory, name)))
        return RecordBatch.from_rows(rows, schema or self.schema)


class FileSourceDescriptor(SourceDescriptor):
    """Recipe for watching a directory of JSON-lines files."""

    name = "file"

    def __init__(self, directory: str, schema: StructType, suffix: str = ".jsonl"):
        self.directory = directory
        self.schema = schema
        self.suffix = suffix

    def create(self) -> FileStreamSource:
        return FileStreamSource(self.directory, self.schema, self.suffix)
