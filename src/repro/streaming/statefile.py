"""The one on-disk codec for keyed operator state (§6.1).

Dict-backend bases and deltas and the tiered backend's sorted runs are
all the same **record-framed** file::

    {"format":"repro-state/1","kind":"delta","version":7}
    ["[\\"a\\", 0.0]",[2]]
    ["[\\"b\\", 0.0]"]
    {"count":2,"sha256":"…"}

* a **header** line (format tag, kind, version — a run's sequence
  number for the tiered backend);
* one compact line per key, **sorted by encoded key**:
  ``[key, value]`` for a live entry, ``[key]`` — a tombstone — for a
  removed one;
* a **trailer** line with the record count and the SHA-256 of every
  byte before it.  Under the atomic-write protocol only the newest file
  of a directory can be torn, and a torn file has lost its trailer (or
  the trailer disagrees with what precedes it), which is how
  :func:`verify` lets ``repair_torn_tail`` recognise one without
  decoding a single record.

State values are schema-free JSON (nested entries, user
``map_groups_with_state`` state; a tuple encodes exactly as a list), so
lines are encoded by one module-level C-accelerated
:class:`json.JSONEncoder` — compact separators, ``sort_keys`` for
canonical bytes, ASCII-only output so a line's length in characters is
its length in bytes — whose C encoder each file binds once.  Files are produced
as a stream of bounded chunks (:class:`StateFileWriter`) and consumed
the same way (:func:`read_batches`): neither a whole-document string
nor a decoded copy of a whole file ever exists.

Checkpoints written before this format — pretty-printed
``<version>.snapshot.json`` / ``<version>.delta.json`` documents — stay
*readable* through :func:`apply_file`; they are never written.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
from contextlib import contextmanager
from itertools import islice
from json.encoder import encode_basestring_ascii as _encode_str

from repro.storage import bind_encoder, read_json

FORMAT = "repro-state/1"

#: File kinds: the part of a checkpoint file's name after its version,
#: ``<version:010d>.<kind>``.  The first two are written; the legacy
#: pair is restore-only.
BASE = "base.jsonl"
DELTA = "delta.jsonl"
LEGACY_BASE = "snapshot.json"
LEGACY_DELTA = "delta.json"
#: Kinds holding full state / changes since the previous commit, in
#: order of preference when one version has both formats (a rolled-back
#: legacy chain re-committed by this code).
BASE_KINDS = (BASE, LEGACY_BASE)
DELTA_KINDS = (DELTA, LEGACY_DELTA)
#: Suffixes of every file a state directory's version log may hold.
SUFFIXES = (".json", ".jsonl")

#: Lines buffered per written chunk / bytes per read.
_CHUNK_LINES = 512
_READ_BYTES = 1 << 20

#: The codec's one encoder: canonical, compact, ASCII-only, C-accelerated
#: (``indent=`` would switch the stdlib to its pure-Python encoder).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
encode = _ENCODER.encode


def _file_encoder():
    """:func:`encode` with its C encoder bound once for one file."""
    return bind_encoder(encode)


class _Tombstone:
    """Sentinel value marking a removed key in a record stream."""

    __slots__ = ()

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<tombstone>"


TOMBSTONE = _Tombstone()


class StateFileWriter:
    """Frames a sorted record stream; knows its size once consumed.

    ``chunks(records)`` yields the file's text in bounded pieces for
    :func:`repro.storage.atomic_write_stream`; afterwards ``count``,
    ``bytes`` (whole file), ``records_end`` (offset of the trailer) and
    ``sha256`` (of everything before the trailer — the digest tiered
    manifests pin) describe what was written.
    """

    __slots__ = ("kind", "version", "count", "bytes", "records_end",
                 "sha256")

    def __init__(self, kind: str, version: int):
        self.kind = kind
        self.version = version
        self.count = 0
        self.bytes = 0
        self.records_end = 0
        self.sha256 = None

    def chunks(self, records, observe=None, text=None):
        """Yield the framed file for ``(encoded_key, value)`` pairs in
        key order (``value is TOMBSTONE`` for a removed key).

        ``observe(encoded_key, offset)`` is called with the byte offset
        each record line starts at (the tiered backend builds its sparse
        index and bloom filter from it).  ``text(values)``, a value
        codec's bulk form, returns the JSON text ``encode`` would write
        for each value of a list; with it the records hold values that
        are not yet JSON, and reach ``text`` a chunk at a time.
        """
        digest = hashlib.sha256()
        encode = _file_encoder()
        header = encode({"format": FORMAT, "kind": self.kind,
                         "version": self.version}) + "\n"
        offset = len(header)
        count = 0
        head = header
        records = iter(records)
        while True:
            block = list(islice(records, _CHUNK_LINES))
            if not block:
                break
            if text is None:
                lines = [encode([encoded]) + "\n" if value is TOMBSTONE
                         else encode([encoded, value]) + "\n"
                         for encoded, value in block]
            else:
                lines = _text_lines(block, text)
            if observe is None:
                offset += sum(map(len, lines))
            else:
                for (encoded, _value), line in zip(block, lines):
                    observe(encoded, offset)
                    offset += len(line)
            count += len(block)
            chunk = head + "".join(lines)
            head = ""
            digest.update(chunk.encode("ascii"))
            yield chunk
        digest.update(head.encode("ascii"))
        self.count = count
        self.records_end = offset
        self.sha256 = digest.hexdigest()
        trailer = encode({"count": count, "sha256": self.sha256}) + "\n"
        self.bytes = offset + len(trailer)
        yield head + trailer


def _text_lines(block, text) -> list:
    """Record lines of ``block`` with live values written by ``text``:
    byte for byte ``encode([key, value])``, the key being one ASCII JSON
    string."""
    live = [value for _encoded, value in block if value is not TOMBSTONE]
    if len(live) == len(block):
        return list(map("[{},{}]\n".format,
                        map(_encode_str, [encoded for encoded, _ in block]),
                        text(live)))
    texts = iter(text(live))
    return ["[" + _encode_str(encoded) + "]\n" if value is TOMBSTONE
            else "[" + _encode_str(encoded) + "," + next(texts) + "]\n"
            for encoded, value in block]


@contextmanager
def paused_gc():
    """Pause the cyclic collector while a file is decoded.

    Decoded JSON is acyclic, yet every few hundred containers it
    allocates trigger a collection that re-walks the (large) live heap:
    measured on a 38 k-key join side, 132 ms of a 142 ms restore.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def file_chunks(path: str):
    """A file's bytes in bounded chunks."""
    with open(path, "rb") as f:
        while True:
            chunk = f.read(_READ_BYTES)
            if not chunk:
                return
            yield chunk


def _decode_lines(block: bytes) -> list:
    """Decode newline-terminated record lines in one C call."""
    if not block:
        return []
    return json.loads(b"[" + block[:-1].replace(b"\n", b",") + b"]")


def read_batches(chunks, framed: bool = True):
    """Decode a record-framed byte stream into lists of raw records
    (``[key, value]`` or ``[key]``), checking the frame as it goes.

    Raises ``ValueError`` if the header is missing or foreign, or the
    trailer is absent or disagrees with the records' count or digest.
    ``framed=False`` reads the bare sorted-JSONL runs the tiered backend
    wrote before this format (their digest lives in the run's sidecar).
    """
    digest = hashlib.sha256()
    count = 0
    leftover = b""
    seen_header = not framed
    trailer = None
    for chunk in chunks:
        if trailer is not None:
            raise ValueError("state file continues past its trailer")
        block = leftover + chunk
        cut = block.rfind(b"\n") + 1
        block, leftover = block[:cut], block[cut:]
        if not block:
            continue
        if not seen_header:
            end = block.find(b"\n") + 1
            header = json.loads(block[:end])
            if not isinstance(header, dict) or header.get("format") != FORMAT:
                raise ValueError(f"not a {FORMAT} state file")
            digest.update(block[:end])
            block = block[end:]
            seen_header = True
        if framed:
            # Records start with "[", so the only "{" line after the
            # header is the trailer.
            at = 0 if block.startswith(b"{") else block.find(b"\n{") + 1
            if at or block.startswith(b"{"):
                trailer, block = block[at:], block[:at]
            digest.update(block)
        docs = _decode_lines(block)
        count += len(docs)
        if docs:
            yield docs
    if leftover:
        raise ValueError("state file ends mid-line")
    if framed:
        if trailer is None:
            raise ValueError("state file has no trailer")
        doc = json.loads(trailer)
        if not isinstance(doc, dict) or doc.get("count") != count \
                or doc.get("sha256") != digest.hexdigest():
            raise ValueError(
                "state file trailer does not match its records")


def read_records(chunks, framed: bool = True):
    """Stream ``(encoded_key, value_or_TOMBSTONE)`` in key order."""
    for docs in read_batches(chunks, framed):
        for doc in docs:
            yield doc[0], (doc[1] if len(doc) > 1 else TOMBSTONE)


def _tail(path: str) -> tuple:
    """``(trailer_doc, trailer_offset)`` of a framed file, from its last
    bytes alone; ``ValueError`` if it does not end in a trailer line."""
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        f.seek(max(0, size - 256))
        tail = f.read()
    if not tail.endswith(b"\n"):
        raise ValueError("state file ends mid-line")
    start = tail.rfind(b"\n", 0, len(tail) - 1) + 1
    doc = json.loads(tail[start:])
    if not isinstance(doc, dict) or "count" not in doc:
        raise ValueError("state file has no trailer")
    return doc, size - (len(tail) - start)


def record_count(path: str) -> int:
    """Records in a framed file, read from its trailer."""
    return _tail(path)[0]["count"]


def verify(path: str) -> None:
    """Raise ``ValueError``/``OSError`` unless ``path`` is an intact
    state file of either format.

    Framed files are checked against their trailer (count and digest)
    without decoding any record; legacy documents by parsing them.
    """
    if not path.endswith(".jsonl"):
        read_json(path)
        return
    trailer, remaining = _tail(path)
    digest = hashlib.sha256()
    lines = 0
    for chunk in file_chunks(path):
        chunk = chunk[:remaining]
        remaining -= len(chunk)
        digest.update(chunk)
        lines += chunk.count(b"\n")
        if not remaining:
            break
    # ``lines`` counts the header too.
    if trailer.get("count") != lines - 1 \
            or trailer.get("sha256") != digest.hexdigest():
        raise ValueError("state file trailer does not match its records")


def apply_file(path: str, merged: dict) -> None:
    """Replay one checkpoint file of a base+delta chain onto ``merged``
    (encoded key -> value), whichever format it was written in."""
    if path.endswith(".jsonl"):
        for docs in read_batches(file_chunks(path)):
            try:
                merged.update(docs)  # all [key, value] pairs: one C call
            except ValueError:
                # A tombstone stopped the update part-way; replaying the
                # batch in order from its start lands on the same state.
                for doc in docs:
                    if len(doc) > 1:
                        merged[doc[0]] = doc[1]
                    else:
                        merged.pop(doc[0], None)
        return
    doc = read_json(path)
    if doc["kind"] == "snapshot":
        merged.update(doc["data"])
    else:
        merged.update(doc["puts"])
        for encoded in doc["removes"]:
            merged.pop(encoded, None)
