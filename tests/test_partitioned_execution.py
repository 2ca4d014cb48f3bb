"""The stable hash kernel that places keyed records on partitions.

The bus routes a keyed record to a topic partition one key at a time
(:func:`shard_of_key`), and the Kafka sink routes whole key columns at
once (:func:`shard_assignments` + :func:`partition_by_assignment`); the
two paths must agree row for row, so one key's records always share a
partition.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro.sql.batch import (
    RecordBatch,
    partition_by_assignment,
    shard_assignments,
    shard_of_key,
    stable_hash_key,
    stable_hash_value,
)
from repro.sql.types import StructType


# ---------------------------------------------------------------------------
# Hash kernel
# ---------------------------------------------------------------------------

hashable_values = st.one_of(
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(max_size=12),
    st.none(),
)


class TestHashKernel:
    @given(st.lists(hashable_values, min_size=1, max_size=4))
    def test_scalar_matches_vectorized(self, key):
        """The per-key scalar hash and the columnar batch hash agree —
        the bus (scalar) and the Kafka sink (vector) must route every
        key identically."""
        arrays = []
        for v in key:
            if isinstance(v, bool):
                arrays.append(np.array([v], dtype=bool))
            elif isinstance(v, int):
                arrays.append(np.array([v], dtype=np.int64))
            elif isinstance(v, float):
                arrays.append(np.array([v], dtype=np.float64))
            else:
                arrays.append(np.array([v], dtype=object))
        assign = shard_assignments(arrays, 7)
        assert int(assign[0]) == shard_of_key(tuple(key), 7)

    def test_hash_is_stable_across_calls(self):
        assert stable_hash_key(("a", 1.5)) == stable_hash_key(("a", 1.5))
        assert stable_hash_value("x") != stable_hash_value("y")

    def test_partition_covers_every_row_exactly_once(self):
        batch = RecordBatch.from_rows(
            [{"k": i % 5, "v": float(i)} for i in range(97)],
            StructType((("k", "long"), ("v", "double"))),
        )
        assign = shard_assignments([batch.columns["k"]], 4)
        parts, indices = partition_by_assignment(batch, assign, 4)
        assert sum(p.num_rows for p in parts) == batch.num_rows
        together = np.sort(np.concatenate(indices))
        assert together.tolist() == list(range(97))
        # Same key never lands in two partitions.
        for part in parts:
            for k in np.unique(part.columns["k"]):
                home = shard_of_key((int(k),), 4)
                assert parts[home].num_rows > 0

    def test_single_shard_assignment_is_all_zero(self):
        assign = shard_assignments([np.arange(10)], 1)
        assert not assign.any()

    def test_partition_by_assignment_roundtrip(self):
        batch = RecordBatch.from_rows(
            [{"k": i} for i in range(10)], StructType((("k", "long"),)))
        assign = np.array([i % 3 for i in range(10)], dtype=np.int64)
        parts, indices = partition_by_assignment(batch, assign, 3)
        for shard, idx in enumerate(indices):
            assert (assign[idx] == shard).all()
