"""Columnar record batches: the engine's in-memory data format.

``RecordBatch`` plays the role of Spark's Tungsten rows: a compact format
that the compiled (vectorized) operators work on directly.  Each column is a
numpy array; numeric and boolean columns use native dtypes, strings use
object arrays.  The per-record baseline engines never use this module —
that difference is exactly the performance mechanism the paper attributes
its Yahoo!-benchmark advantage to (§9.1).

Null handling: strings may be ``None`` inside object arrays and doubles may
be NaN; integer and boolean columns are non-nullable.  Operators that can
introduce nulls into numeric columns (outer joins) promote them to double.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.sql.types import DataType, DoubleType, StructType

#: A boolean mask keeping at most this share of its rows is applied to
#: two or more arrays as one ``np.flatnonzero`` plus a gather per array;
#: above it, as the mask itself.  Measured on 200k rows of three columns
#: (int64, float64, object), random masks: 10 % kept 2.25 ms by mask vs
#: 0.58 ms by index, 33 % 3.67 vs 0.72, 50 % 4.50 vs 1.00, 60 % 4.54 vs
#: 1.18, 90 % 2.07 vs 3.54.  A clustered mask (one run of survivors)
#: favours the mask at every share (33 %: 0.65 vs 0.92 ms), so the
#: crossover is set below the random-mask one (between 60 and 90 %).
#: Measured on a 2-core Xeon VM, numpy 2.4.
INDEX_GATHER_MAX_SHARE = 0.5


def selection(mask: np.ndarray):
    """How to apply a boolean ``mask`` to arrays of its length: ``None``
    when every row survives, the survivors' positions when at most
    :data:`INDEX_GATHER_MAX_SHARE` of them do, else the mask itself.
    Either selector indexes an array (``array[sel]``) to the same rows."""
    kept = np.count_nonzero(mask)
    if kept == len(mask):
        return None
    if kept <= len(mask) * INDEX_GATHER_MAX_SHARE:
        return np.flatnonzero(mask)
    return mask


def _column_array(values, data_type: DataType) -> np.ndarray:
    """Build a numpy column of the right dtype from an iterable of values."""
    if data_type.numpy_dtype is object:
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return arr
    return np.asarray(values, dtype=data_type.numpy_dtype)


def pylist(array: np.ndarray) -> list:
    """A column as natural Python values, NaN as None: one ``tolist``,
    and a per-element pass only where one can change a value."""
    if array.dtype == object:
        return [RecordBatch._pyvalue(v) for v in array.tolist()]
    values = array.tolist()
    if array.dtype.kind == "f" and np.isnan(array).any():
        return [None if v != v else v for v in values]
    return values


class RecordBatch:
    """An immutable-by-convention columnar chunk of rows with a schema.

    Columns are numpy arrays of equal length stored in a dict keyed by
    column name.  Mutating a batch's arrays in place is not supported;
    operators always build new batches.

    A *chunked* batch (:meth:`chunked`) is a source read's per-partition
    parts kept apart: row-local work runs per part (:meth:`chunks`), and
    ``columns`` concatenates them only when something reads it.
    """

    __slots__ = ("_columns", "_parts", "schema", "num_rows")

    def __init__(self, columns: dict, schema: StructType):
        self._columns = columns
        self._parts = None
        self.schema = schema
        self.num_rows = len(next(iter(columns.values()))) if columns else 0
        if set(columns) != set(schema.names):
            raise ValueError(
                f"column/schema mismatch: {sorted(columns)} vs {schema.names}"
            )

    @property
    def columns(self) -> dict:
        """Column name -> array.  A chunked batch concatenates its parts
        here, once, and releases them: :meth:`chunks` is then ``[self]``."""
        columns = self._columns
        if columns is None:
            columns = self._columns = RecordBatch.concat(
                self._parts, self.schema).columns
            self._parts = None
        return columns

    def chunks(self) -> list:
        """The batch as row-ordered parts: a chunked batch's per-partition
        parts, else ``[self]``."""
        return self._parts or [self]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, schema: StructType) -> "RecordBatch":
        """An empty batch with the given schema."""
        cols = {
            f.name: np.empty(0, dtype=f.data_type.numpy_dtype) for f in schema
        }
        return cls(cols, schema)

    @classmethod
    def from_rows(cls, rows, schema: StructType) -> "RecordBatch":
        """Build a batch from an iterable of dict-like rows."""
        rows = list(rows)
        cols = {}
        for field in schema:
            values = [row.get(field.name) for row in rows]
            cols[field.name] = _column_array(values, field.data_type)
        return cls(cols, schema)

    @classmethod
    def from_columns(cls, schema: StructType, **named_arrays) -> "RecordBatch":
        """Build a batch from keyword numpy arrays, coercing dtypes."""
        cols = {}
        for field in schema:
            arr = named_arrays[field.name]
            if field.data_type.numpy_dtype is object:
                if not (isinstance(arr, np.ndarray) and arr.dtype == object):
                    out = np.empty(len(arr), dtype=object)
                    out[:] = list(arr)
                    arr = out
            else:
                arr = np.asarray(arr, dtype=field.data_type.numpy_dtype)
            cols[field.name] = arr
        return cls(cols, schema)

    @classmethod
    def concat(cls, batches, schema: StructType = None) -> "RecordBatch":
        """Concatenate batches that share a schema."""
        batches = list(batches)
        batches = [b for b in batches if b.num_rows > 0] or batches[:1]
        if not batches:
            if schema is None:
                raise ValueError("cannot concat zero batches without a schema")
            return cls.empty(schema)
        schema = batches[0].schema
        if len(batches) == 1:
            return batches[0]
        cols = {
            name: np.concatenate([b.columns[name] for b in batches])
            for name in schema.names
        }
        return cls(cols, schema)

    @classmethod
    def chunked(cls, parts, schema: StructType) -> "RecordBatch":
        """One batch over ``parts`` (batches of ``schema``, in row order)
        that keeps them apart until ``columns`` is read."""
        batch = cls.__new__(cls)
        batch._columns = None
        batch._parts = list(parts)
        batch.schema = schema
        batch.num_rows = sum(part.num_rows for part in batch._parts)
        return batch

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Return the column array for ``name``."""
        return self.columns[name]

    def to_rows(self) -> list:
        """Materialize as a list of :class:`repro.sql.row.Row`."""
        from repro.sql.row import Row

        names = self.schema.names
        cols = [pylist(self.columns[n]) for n in names]
        return [Row(zip(names, values)) for values in zip(*cols)]

    @staticmethod
    def _pyvalue(value):
        """Convert a numpy scalar to the natural Python value."""
        if isinstance(value, np.generic):
            value = value.item()
        if isinstance(value, float) and value != value:  # NaN -> None
            return None
        return value

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def select(self, names) -> "RecordBatch":
        """Keep only the named columns, in the given order."""
        schema = self.schema.select(names)
        return RecordBatch({n: self.columns[n] for n in names}, schema)

    def rename(self, mapping: dict) -> "RecordBatch":
        """Rename columns according to ``{old: new}``."""
        fields = []
        cols = {}
        for field in self.schema:
            new = mapping.get(field.name, field.name)
            fields.append((new, field.data_type, field.nullable))
            cols[new] = self.columns[field.name]
        return RecordBatch(cols, StructType(tuple(fields)))

    def with_column(self, name: str, array: np.ndarray, data_type: DataType) -> "RecordBatch":
        """Return a batch with one column added or replaced."""
        cols = dict(self.columns)
        cols[name] = array
        if name in self.schema:
            fields = tuple(
                (f.name, data_type if f.name == name else f.data_type)
                for f in self.schema
            )
            schema = StructType(fields)
        else:
            schema = self.schema.add(name, data_type)
        return RecordBatch(cols, schema)

    def filter(self, mask: np.ndarray) -> "RecordBatch":
        """Keep only the rows where ``mask`` is True."""
        sel = selection(mask)
        return self if sel is None else self.take(sel)

    def take(self, indices: np.ndarray) -> "RecordBatch":
        """Gather rows by integer position (repeats allowed), or by a
        :func:`selection`."""
        cols = {n: a[indices] for n, a in self.columns.items()}
        return RecordBatch(cols, self.schema)

    def slice(self, start: int, stop: int) -> "RecordBatch":
        """Rows in ``[start, stop)``."""
        cols = {n: a[start:stop] for n, a in self.columns.items()}
        return RecordBatch(cols, self.schema)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return f"RecordBatch({self.num_rows} rows, {self.schema!r})"


# ---------------------------------------------------------------------------
# Stable hashing and hash partitioning (record placement by key)
# ---------------------------------------------------------------------------
#
# The bus places a keyed record on a topic partition by its key, and the
# Kafka sink places each output row the same way, so one key's records
# always share a partition.  Two requirements shape the hash:
#
# * **stable across processes and runs** — a restarted producer must
#   place a key where the records before the crash went (so Python's
#   randomized ``hash()`` is out);
# * **computable both vectorized and per-key** — the sink hashes whole
#   key columns at once (:func:`stable_hash_arrays`), while the bus
#   hashes one key at a time (:func:`stable_hash_key`); the two MUST
#   agree bit-for-bit.
#
# Numeric columns go through a splitmix64 finalizer on their 64-bit
# patterns; strings (the object-dtype slow path) use a truncated blake2b.

_MASK64 = (1 << 64) - 1
_HASH_SEED = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_NONE_SENTINEL = 0x6E756C6C  # b'null'


def _mix64_scalar(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_A)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_B)
    z ^= z >> np.uint64(31)
    return z


def stable_hash_value(value) -> int:
    """64-bit hash of a single key value; stable across runs.

    Must agree with the per-dtype vectorized paths in
    :func:`stable_hash_arrays`: ints/bools hash their two's-complement
    bits, floats their IEEE-754 bits (−0.0 as 0.0, one key with 0.0 as
    :func:`repro.streaming.state.encode_key` makes it), strings a
    truncated blake2b digest.
    """
    if isinstance(value, (bool, int, np.integer)):
        return _mix64_scalar(int(value) & _MASK64)
    if isinstance(value, (float, np.floating)):
        bits = int.from_bytes(struct.pack("<d", float(value) + 0.0), "little")
        return _mix64_scalar(bits)
    if value is None:
        return _mix64_scalar(_NONE_SENTINEL)
    text = value if isinstance(value, str) else repr(value)
    digest = (_blake2b or lazy_blake2b())(
        text.encode("utf-8"), digest_size=8).digest()
    return _mix64_scalar(int.from_bytes(digest, "little"))


_blake2b = None


def lazy_blake2b():
    """``hashlib.blake2b``, imported at the first call and bound once per
    process: importing hashlib loads the OpenSSL library, which a process
    that hashes no string never needs."""
    global _blake2b
    if _blake2b is None:
        from hashlib import blake2b as _blake2b
    return _blake2b


def _hash_column(arr: np.ndarray, n: int) -> np.ndarray:
    if arr.dtype == object:
        return np.fromiter(
            (stable_hash_value(v) for v in arr.tolist()),
            dtype=np.uint64, count=n,
        )
    if arr.dtype.kind == "f":
        bits = (np.asarray(arr, dtype=np.float64) + 0.0).view(np.uint64)
    elif arr.dtype.kind == "b":
        bits = arr.astype(np.uint64)
    else:
        bits = np.ascontiguousarray(arr, dtype=np.int64).view(np.uint64)
    return _mix64_array(bits)


def stable_hash_arrays(arrays) -> np.ndarray:
    """Combined row hashes of parallel key columns (vectorized).

    ``result[i]`` equals ``stable_hash_key(tuple(a[i] for a in arrays))``
    for every row — the agreement the bus and the Kafka sink rely on.
    """
    arrays = [np.asarray(a) for a in arrays]
    n = len(arrays[0])
    h = np.full(n, _HASH_SEED, dtype=np.uint64)
    for i, arr in enumerate(arrays):
        ch = _hash_column(arr, n)
        ch += np.uint64(i + 1)
        h = _mix64_array(h ^ ch)
    return h


def stable_hash_key(values) -> int:
    """Combined hash of one key tuple (scalar twin of
    :func:`stable_hash_arrays`)."""
    if not isinstance(values, (tuple, list)):
        values = (values,)
    h = _HASH_SEED
    for i, value in enumerate(values):
        ch = (stable_hash_value(value) + i + 1) & _MASK64
        h = _mix64_scalar(h ^ ch)
    return h


def shard_of_key(values, num_shards: int) -> int:
    """The partition of ``num_shards`` a key tuple belongs to (0 when
    there is only one)."""
    if num_shards <= 1:
        return 0
    return stable_hash_key(values) % num_shards


def shard_assignments(arrays, num_shards: int) -> np.ndarray:
    """Per-row partition ids for parallel key columns."""
    hashes = stable_hash_arrays(arrays)
    return (hashes % np.uint64(num_shards)).astype(np.int64)


def partition_by_assignment(batch: "RecordBatch", assign: np.ndarray,
                            num_shards: int) -> tuple:
    """Split ``batch`` into per-partition sub-batches by precomputed ids.

    Returns ``(sub_batches, row_indices)``; ``row_indices[s]`` maps each
    of partition ``s``'s rows back to its position in ``batch`` (row
    order within a partition is preserved).
    """
    parts = []
    indices = []
    for s in range(num_shards):
        idx = np.flatnonzero(assign == s)
        indices.append(idx)
        parts.append(batch.take(idx))
    return parts, indices


def promote_nullable(schema: StructType) -> StructType:
    """Promote non-nullable numeric columns to double so they can hold NaN.

    Used by outer joins, which pad unmatched rows with nulls.
    """
    fields = []
    for f in schema:
        dtype = f.data_type
        if dtype.numpy_dtype is not object and not isinstance(dtype, DoubleType):
            dtype = DoubleType()
        fields.append((f.name, dtype, True))
    return StructType(tuple(fields))
