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

A handle whose values are packed rows — its codec declares a
:class:`RowSchema` — writes its dict-backend bases and deltas as
**block** files (``<version>.base.block`` / ``.delta.block``) instead:
the same header line, which also records the row schema, then
length-prefixed binary frames of at most :data:`FRAME_KEYS` keys in
encoded-key order, then a newline and the same trailer (the key count,
and the SHA-256 of every byte before the trailer).  A frame is::

    <Q     bytes in the frame after this length
    <IIBB  keys n, rows r, widths a and b (1, 2 or 4 bytes)
    n key lengths, a bytes each (unsigned)
    n rows per key plus one (0: a tombstone), b bytes each
    the n encoded keys' ASCII bytes, back to back
    one buffer per row field, r cells each, in the schema's order

so commit writes it from the in-memory values with one ``b"".join``
and one ``frombuffer``, and restore cuts it back into per-key values
without decoding a record.  A chain may mix the formats (a JSONL base
followed by block deltas): :func:`apply_file` reads each file as what
it is.

Checkpoints written before this format — pretty-printed
``<version>.snapshot.json`` / ``<version>.delta.json`` documents — stay
*readable* through :func:`apply_file`; they are never written.
"""

from __future__ import annotations

import gc
import json
import os
import struct
from contextlib import contextmanager
from itertools import islice, repeat

import numpy as np

from repro.storage import bind_encoder, read_json

FORMAT = "repro-state/1"

#: File kinds: the part of a checkpoint file's name after its version,
#: ``<version:010d>.<kind>``.  The first four are written; the legacy
#: pair is restore-only.
BASE = "base.jsonl"
DELTA = "delta.jsonl"
BASE_BLOCK = "base.block"
DELTA_BLOCK = "delta.block"
LEGACY_BASE = "snapshot.json"
LEGACY_DELTA = "delta.json"
#: Kinds holding full state / changes since the previous commit, in
#: order of preference when one version has several formats (a
#: rolled-back legacy chain re-committed by this code).
BASE_KINDS = (BASE_BLOCK, BASE, LEGACY_BASE)
DELTA_KINDS = (DELTA_BLOCK, DELTA, LEGACY_DELTA)
#: Suffixes of every file a state directory's version log may hold.
SUFFIXES = (".json", ".jsonl", ".block")
BLOCK_SUFFIX = ".block"
#: Keys per frame of a block file: bounds what commit and restore hold.
FRAME_KEYS = 4096
_FRAME_LENGTH = struct.Struct("<Q")
_FRAME_HEAD = struct.Struct("<IIBB")
#: Widths (bytes) a frame's per-key integers may take: the narrowest
#: that holds the frame's largest.
_WIDTHS = {1: np.dtype("u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4")}

#: Lines buffered per written chunk / bytes per read.
_CHUNK_LINES = 512
_READ_BYTES = 1 << 20

#: The codec's one encoder: canonical, compact, ASCII-only, C-accelerated
#: (``indent=`` would switch the stdlib to its pure-Python encoder).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
encode = _ENCODER.encode


def _sha256():
    """A fresh sha256 for one file's trailer.  hashlib is imported here,
    at a process's first state file, not with this module: importing it
    loads the OpenSSL library, which a query that keeps no state never
    needs."""
    from hashlib import sha256

    return sha256()


def _file_encoder():
    """:func:`encode` with its C encoder bound once for one file."""
    return bind_encoder(encode)


class _Tombstone:
    """Sentinel value marking a removed key in a record stream."""

    __slots__ = ()

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<tombstone>"


TOMBSTONE = _Tombstone()


class RowSchema:
    """The declared row format of a value codec whose in-memory values
    are packed rows, a key's rows back to back: ``names`` (the columns
    the fields stand for), ``dtype`` (a structured little-endian numpy
    dtype without padding, fields ``f0`` … in row order) and ``struct``
    (the :mod:`struct` format of one row).  A block file's header
    records :meth:`header`; the file restores only into a handle that
    declares the same schema."""

    __slots__ = ("names", "dtype", "struct")

    def __init__(self, names, dtype, struct_format: str):
        self.names = tuple(names)
        self.dtype = dtype
        self.struct = struct_format

    def header(self) -> dict:
        """The schema as a block file's header records it."""
        return {"names": list(self.names),
                "fields": [self.dtype[i].str for i in range(len(self.dtype))],
                "struct": self.struct}


class StateFileWriter:
    """Frames a sorted record stream; knows its size once consumed.

    ``chunks(records)`` yields the file's text in bounded pieces for
    :func:`repro.storage.atomic_write_stream` (``block_chunks`` a block
    file's bytes, a frame at a time); afterwards ``count``,
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

    def chunks(self, records, observe=None):
        """Yield the framed file for ``(encoded_key, value)`` pairs in
        key order (``value is TOMBSTONE`` for a removed key).

        ``observe(encoded_key, offset)`` is called with the byte offset
        each record line starts at (the tiered backend builds its sparse
        index and bloom filter from it).
        """
        digest = _sha256()
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
            lines = [encode([encoded]) + "\n" if value is TOMBSTONE
                     else encode([encoded, value]) + "\n"
                     for encoded, value in block]
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

    def block_chunks(self, keys, data: dict, schema: RowSchema):
        """Yield the block file (see the module docstring) for the
        sorted encoded ``keys``: the header, one frame per
        :data:`FRAME_KEYS` keys, the trailer.  ``data`` maps a key to
        its value, packed rows of ``schema``, read as the frames are; a
        key it lacks was removed (a tombstone)."""
        digest = _sha256()
        header = (encode({"format": FORMAT, "kind": self.kind,
                          "schema": schema.header(),
                          "version": self.version}) + "\n").encode("ascii")
        digest.update(header)
        offset = len(header)
        yield header
        for start in range(0, len(keys), FRAME_KEYS):
            part = keys[start:start + FRAME_KEYS]
            # A frame's buffers go out one by one, never joined: a copy
            # of the whole frame would double what a commit holds.
            for buffer in _frame(part, list(map(data.get, part,
                                                repeat(TOMBSTONE))),
                                 schema.dtype):
                digest.update(buffer)
                offset += len(buffer)
                yield buffer
        digest.update(b"\n")
        self.count = len(keys)
        self.records_end = offset + 1
        self.sha256 = digest.hexdigest()
        trailer = encode({"count": self.count, "sha256": self.sha256}) + "\n"
        self.bytes = self.records_end + len(trailer)
        yield b"\n" + trailer.encode("ascii")


def _narrow(values) -> tuple:
    """``(width, bytes)`` of non-negative integers in the narrowest of
    :data:`_WIDTHS` that holds them all."""
    top = int(values.max()) if len(values) else 0
    width = 1 if top <= 0xFF else 2 if top <= 0xFFFF else 4
    return width, values.astype(_WIDTHS[width]).tobytes()


def _frame(keys, values, dtype) -> list:
    """The buffers of one length-prefixed frame of ``keys`` and their
    ``values``: the keys' lengths and bytes, each key's rows plus one
    (0 for a tombstone), then the live values' rows as one buffer per
    field."""
    live = ([value for value in values if value is not TOMBSTONE]
            if TOMBSTONE in values else values)
    rows = np.fromiter(map(len, live), np.int64, len(live)) // dtype.itemsize
    if len(live) == len(values):
        counts = rows + 1
    else:
        counts = np.zeros(len(values), np.int64)
        counts[np.fromiter((value is not TOMBSTONE for value in values),
                           bool, len(values))] = rows + 1
    key_width, lengths = _narrow(
        np.fromiter(map(len, keys), np.int64, len(keys)))
    count_width, counts = _narrow(counts)
    table = np.frombuffer(b"".join(live), dtype)
    parts = [_FRAME_HEAD.pack(len(keys), len(table), key_width, count_width),
             lengths, counts, "".join(keys).encode("ascii")]
    parts += [table[name].tobytes() for name in dtype.names]
    return [_FRAME_LENGTH.pack(sum(map(len, parts))), *parts]


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
    digest = _sha256()
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
            _header(block[:end])
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


def _header(line: bytes) -> dict:
    """A state file's decoded header line."""
    header = json.loads(line)
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} state file")
    return header


def read_header(path: str) -> dict:
    """The header of a framed or block file (a block's records the row
    schema under ``"schema"``)."""
    with open(path, "rb") as f:
        return _header(f.readline())


def _frames(path: str):
    """A block file's header, then each frame's payload, the frames
    walked up to the trailer and checked against it (key count and
    digest) once the last is read.  Raises ``ValueError`` if the file
    is cut, mid-frame or before its trailer, or a byte of it changed.
    Holds one frame at a time."""
    trailer, end = _tail(path)
    digest = _sha256()
    count = 0
    with open(path, "rb") as f:
        line = f.readline()
        digest.update(line)
        yield _header(line)
        at = len(line)
        # The frames end one byte before the trailer, at a newline.
        while at + _FRAME_LENGTH.size <= end - 1:
            prefix = f.read(_FRAME_LENGTH.size)
            (size,) = _FRAME_LENGTH.unpack(prefix)
            at += _FRAME_LENGTH.size
            if size < _FRAME_HEAD.size or at + size > end - 1:
                raise ValueError("state file ends mid-frame")
            payload = f.read(size)
            digest.update(prefix)
            digest.update(payload)
            count += _FRAME_HEAD.unpack_from(payload)[0]
            at += size
            yield payload
        if at != end - 1 or f.read(1) != b"\n":
            raise ValueError("state file ends mid-frame")
        digest.update(b"\n")
    if trailer.get("count") != count \
            or trailer.get("sha256") != digest.hexdigest():
        raise ValueError("state file trailer does not match its records")


def _decode_frame(payload: bytes, dtype) -> tuple:
    """``(keys, rows per key, values)`` of one frame: the keys cut from
    their bytes, the values — packed rows, ``b""`` for a tombstone —
    cut from the rows the field buffers rebuild."""
    n, r, key_width, count_width = _FRAME_HEAD.unpack_from(payload)
    if key_width not in _WIDTHS or count_width not in _WIDTHS:
        raise ValueError("state file frame has an unknown integer width")
    at = _FRAME_HEAD.size
    lengths = np.frombuffer(payload, _WIDTHS[key_width], n, at)
    at += key_width * n
    counts = np.frombuffer(payload, _WIDTHS[count_width], n,
                           at).astype(np.int64) - 1
    at += count_width * n
    bounds = [0, *np.cumsum(lengths, dtype=np.int64).tolist()]
    text = payload[at:at + bounds[-1]].decode("ascii")
    at += bounds[-1]
    table = np.empty(r, dtype)
    for name in dtype.names:
        field = dtype.fields[name][0]
        table[name] = np.frombuffer(payload, field, r, at)
        at += r * field.itemsize
    sizes = np.maximum(counts, 0)
    if at != len(payload) or int(sizes.sum()) != r:
        raise ValueError("state file frame does not match its rows")
    keys = list(map(text.__getitem__, map(slice, bounds, bounds[1:])))
    raw = table.tobytes()
    cuts = [0, *np.cumsum(sizes * dtype.itemsize).tolist()]
    values = list(map(raw.__getitem__, map(slice, cuts, cuts[1:])))
    return keys, counts, values


def _block_frames(path: str, schema):
    """:func:`_decode_frame` of each frame of a block file, whose header
    must record ``schema``."""
    frames = _frames(path)
    recorded = next(frames).get("schema")
    if schema is None or recorded != schema.header():
        raise ValueError(
            f"{path}: state rows of schema {recorded} cannot restore into "
            f"an operator whose schema is "
            f"{None if schema is None else schema.header()}")
    for payload in frames:
        yield _decode_frame(payload, schema.dtype)


def record_count(path: str) -> int:
    """Records in a framed file, read from its trailer."""
    return _tail(path)[0]["count"]


def verify(path: str) -> None:
    """Raise ``ValueError``/``OSError`` unless ``path`` is an intact
    state file of any format.

    Framed and block files are checked against their trailer (count
    and digest) without decoding any record; legacy documents by
    parsing them.
    """
    if path.endswith(BLOCK_SUFFIX):
        for _ in _frames(path):
            pass
        return
    if not path.endswith(".jsonl"):
        read_json(path)
        return
    trailer, remaining = _tail(path)
    digest = _sha256()
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


def apply_file(path: str, merged: dict, from_disk=None,
               schema: RowSchema = None) -> None:
    """Replay one checkpoint file of a base+delta chain onto ``merged``
    (encoded key -> in-memory value), whichever format it was written
    in.  A JSON record becomes an in-memory value through ``from_disk``
    (a handle's value codec; None keeps it as decoded) as it is applied;
    a block file holds in-memory values already, packed rows of
    ``schema``, which its header must record."""
    if path.endswith(BLOCK_SUFFIX):
        for keys, counts, values in _block_frames(path, schema):
            merged.update(zip(keys, values))
            # A file holds each key once: a tombstone's b"" goes again.
            for i in np.flatnonzero(counts < 0).tolist():
                merged.pop(keys[i], None)
        return
    if path.endswith(".jsonl"):
        for docs in read_batches(file_chunks(path)):
            if from_disk is not None:
                docs = [[doc[0], from_disk(doc[1])] if len(doc) > 1 else doc
                        for doc in docs]
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
    puts = doc["data" if doc["kind"] == "snapshot" else "puts"]
    if from_disk is not None:
        puts = {encoded: from_disk(value) for encoded, value in puts.items()}
    merged.update(puts)
    if doc["kind"] != "snapshot":
        for encoded in doc["removes"]:
            merged.pop(encoded, None)
