"""HyperLogLog sketches for approximate distinct counting.

Exact distinct counts need state proportional to the number of distinct
values — exactly the kind of unbounded state §4.3.1 warns about.  A
HyperLogLog sketch gives a fixed-size, mergeable summary, which is why
analytical engines (Spark's ``approx_count_distinct`` included) ship
one; the streaming engine can keep one small sketch per group in the
state store forever.

Implementation: classic Flajolet–Fu­sy–Gandouet–Meunier HLL with the
standard small-range (linear counting) correction.  Registers are a
plain list of small ints, so sketches serialize to JSON like every
other aggregation buffer.
"""

from __future__ import annotations

import math

from repro.sql.batch import lazy_blake2b


class HyperLogLog:
    """A fixed-size sketch supporting add / merge / cardinality."""

    def __init__(self, precision: int = 12, registers=None):
        if not 4 <= precision <= 16:
            raise ValueError("precision must be in [4, 16]")
        self.precision = precision
        self.num_registers = 1 << precision
        self.registers = list(registers) if registers is not None \
            else [0] * self.num_registers
        if len(self.registers) != self.num_registers:
            raise ValueError("register count does not match precision")
        self._alpha = self._alpha_for(self.num_registers)

    @staticmethod
    def _alpha_for(m: int) -> float:
        if m == 16:
            return 0.673
        if m == 32:
            return 0.697
        if m == 64:
            return 0.709
        return 0.7213 / (1 + 1.079 / m)

    # ------------------------------------------------------------------
    def _hash(self, value) -> int:
        digest = lazy_blake2b()(
            repr(value).encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    def add(self, value) -> None:
        """Fold one value into the sketch."""
        h = self._hash(value)
        index = h >> (64 - self.precision)
        rest = h & ((1 << (64 - self.precision)) - 1)
        # Position of the leftmost 1-bit in the remaining bits.
        rank = (64 - self.precision) - rest.bit_length() + 1
        if rank > self.registers[index]:
            self.registers[index] = rank

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Union of two sketches (register-wise max); returns a new one."""
        if other.precision != self.precision:
            raise ValueError("cannot merge sketches of different precision")
        merged = [max(a, b) for a, b in zip(self.registers, other.registers)]
        return HyperLogLog(self.precision, merged)

    def cardinality(self) -> int:
        """The estimated number of distinct values added."""
        m = self.num_registers
        raw = self._alpha * m * m / sum(2.0 ** -r for r in self.registers)
        if raw <= 2.5 * m:
            zeros = self.registers.count(0)
            if zeros:
                return int(round(m * math.log(m / zeros)))  # linear counting
        return int(round(raw))

    @property
    def relative_error(self) -> float:
        """The sketch's standard error (~1.04 / sqrt(m))."""
        return 1.04 / math.sqrt(self.num_registers)

    # ------------------------------------------------------------------
    def to_json(self) -> list:
        """JSON-serializable form (the register list)."""
        return self.registers

    @classmethod
    def from_json(cls, registers, precision: int = 12) -> "HyperLogLog":
        return cls(precision, registers)
