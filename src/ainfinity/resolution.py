"""Truncated polynomial rings, free-module maps, and the cyclic resolution.

The ground ring is R = F_p[a]/(a^q) for a prime p and exponent q >= 3.
Maps between free R-modules are matrices of ring elements; flattening
such a map replaces each entry by the q x q multiplication matrix of the
entry, giving the underlying F_p-linear map on coefficient vectors.

`build_cyclic_resolution` produces the one resolution the package works
with (`PeriodicResolution`): the period-2 truncated free resolution of
the ground field with every module R and differentials alternating
between multiplication by a and by a^(q-1); d_1, whose image is the
kernel of R -> k (evaluation at a = 0), is multiplication by a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .ff_linalg import PrimeField, _frozen


@dataclass(frozen=True)
class TruncatedPolyAlgebra:
    """R = F_p[a]/(a^q), with q >= 3."""

    p: int
    q: int
    field: PrimeField = None  # derived from p, set in __post_init__

    def __post_init__(self):
        if self.q < 3:
            raise InvalidParameter(f"truncation exponent q={self.q} must be >= 3")
        object.__setattr__(self, "field", PrimeField(self.p))

    def element(self, coeffs) -> "AlgebraElement":
        coeffs = self.field.array(coeffs)
        if coeffs.shape != (self.q,):
            raise DimensionMismatch(f"need {self.q} coefficients, got {coeffs.shape}")
        return AlgebraElement(self, coeffs)

    def zero(self) -> "AlgebraElement":
        return self.element(np.zeros(self.q, dtype=np.int64))

    def one(self) -> "AlgebraElement":
        return self.scalar(1)

    def scalar(self, c: int) -> "AlgebraElement":
        coeffs = np.zeros(self.q, dtype=np.int64)
        coeffs[0] = c % self.p
        return self.element(coeffs)

    def alpha(self, power: int = 1, coeff: int = 1) -> "AlgebraElement":
        """coeff * a^power, which is zero once power >= q."""
        coeffs = np.zeros(self.q, dtype=np.int64)
        if 0 <= power < self.q:
            coeffs[power] = coeff % self.p
        return self.element(coeffs)


class AlgebraElement:
    """Element of R, stored as the length-q coefficient vector of 1, a, ..., a^(q-1)."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: TruncatedPolyAlgebra, coeffs: np.ndarray):
        self.algebra = algebra
        self.coeffs = _frozen(coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.algebra == other.algebra
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.algebra, self.coeffs.tobytes()))

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.algebra, (self.coeffs + other.coeffs) % self.algebra.p)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.algebra, (self.coeffs - other.coeffs) % self.algebra.p)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, (-self.coeffs) % self.algebra.p)

    def scale(self, c: int) -> "AlgebraElement":
        return AlgebraElement(self.algebra, (self.coeffs * (int(c) % self.algebra.p)) % self.algebra.p)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        # Truncated polynomial product: a^i * a^j = 0 once i + j >= q.
        full = np.convolve(self.coeffs, other.coeffs)
        return AlgebraElement(self.algebra, full[: self.algebra.q] % self.algebra.p)

    def mult_matrix(self) -> np.ndarray:
        """q x q matrix of multiplication by this element on coefficient vectors."""
        q = self.algebra.q
        m = np.zeros((q, q), dtype=np.int64)
        for j in range(q):
            if self.coeffs[j]:
                idx = np.arange(q - j)
                m[idx + j, idx] = self.coeffs[j]
        return m

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(int(c)))
            else:
                pw = "a" if i == 1 else f"a^{i}"
                terms.append(pw if c == 1 else f"{int(c)}*{pw}")
        return " + ".join(terms)


class AlgebraMap:
    """R-linear map between free R-modules, as a target_rank x source_rank
    matrix of ring elements acting on column vectors."""

    __slots__ = ("algebra", "entries")

    def __init__(self, algebra: TruncatedPolyAlgebra, entries: np.ndarray):
        # entries has shape (target_rank, source_rank, q)
        self.algebra = algebra
        entries = algebra.field.array(entries)
        if entries.ndim != 3 or entries.shape[2] != algebra.q:
            raise DimensionMismatch(f"bad entry tensor shape {entries.shape}")
        self.entries = _frozen(entries)

    @classmethod
    def zero(cls, algebra: TruncatedPolyAlgebra, target_rank: int, source_rank: int) -> "AlgebraMap":
        return cls(algebra, np.zeros((target_rank, source_rank, algebra.q), dtype=np.int64))

    @classmethod
    def identity(cls, algebra: TruncatedPolyAlgebra, rank: int) -> "AlgebraMap":
        e = np.zeros((rank, rank, algebra.q), dtype=np.int64)
        for i in range(rank):
            e[i, i, 0] = 1
        return cls(algebra, e)

    @classmethod
    def from_element(cls, elem: AlgebraElement) -> "AlgebraMap":
        """Rank-1 map: multiplication by a single ring element."""
        return cls(elem.algebra, elem.coeffs.reshape(1, 1, -1))

    @property
    def target_rank(self) -> int:
        return self.entries.shape[0]

    @property
    def source_rank(self) -> int:
        return self.entries.shape[1]

    def entry(self, i: int, j: int) -> AlgebraElement:
        return AlgebraElement(self.algebra, self.entries[i, j])

    def is_zero(self) -> bool:
        return not np.any(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraMap)
            and self.algebra == other.algebra
            and self.entries.shape == other.entries.shape
            and bool(np.array_equal(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.algebra, self.entries.shape, self.entries.tobytes()))

    def __add__(self, other: "AlgebraMap") -> "AlgebraMap":
        self._check_same_shape(other)
        return AlgebraMap(self.algebra, (self.entries + other.entries) % self.algebra.p)

    def __sub__(self, other: "AlgebraMap") -> "AlgebraMap":
        self._check_same_shape(other)
        return AlgebraMap(self.algebra, (self.entries - other.entries) % self.algebra.p)

    def __neg__(self) -> "AlgebraMap":
        return AlgebraMap(self.algebra, (-self.entries) % self.algebra.p)

    def scale(self, c: int) -> "AlgebraMap":
        return AlgebraMap(self.algebra, (self.entries * (int(c) % self.algebra.p)) % self.algebra.p)

    def _check_same_shape(self, other: "AlgebraMap"):
        if self.entries.shape != other.entries.shape:
            raise DimensionMismatch(f"{self.entries.shape} vs {other.entries.shape}")

    def compose(self, other: "AlgebraMap") -> "AlgebraMap":
        """self after other (matrix product over R)."""
        if self.source_rank != other.target_rank:
            raise DimensionMismatch(
                f"compose {self.entries.shape} after {other.entries.shape}"
            )
        q = self.algebra.q
        t, s = self.target_rank, other.source_rank
        out = np.zeros((t, s, q), dtype=np.int64)
        for i in range(t):
            for k in range(s):
                acc = np.zeros(2 * q - 1, dtype=np.int64)
                for j in range(self.source_rank):
                    a = self.entries[i, j]
                    b = other.entries[j, k]
                    if a.any() and b.any():
                        acc += np.convolve(a, b)
                out[i, k] = acc[:q] % self.algebra.p
        return AlgebraMap(self.algebra, out)

    def flatten(self) -> np.ndarray:
        """Underlying F_p-matrix, shape (q*target_rank, q*source_rank)."""
        q = self.algebra.q
        t, s = self.target_rank, self.source_rank
        out = np.zeros((q * t, q * s), dtype=np.int64)
        for i in range(t):
            for j in range(s):
                out[i * q:(i + 1) * q, j * q:(j + 1) * q] = self.entry(i, j).mult_matrix()
        return out

    def coords(self) -> np.ndarray:
        """Coefficient vector of the map in the Hom-space basis, length t*s*q."""
        return self.entries.reshape(-1).copy()

    @classmethod
    def from_coords(cls, algebra: TruncatedPolyAlgebra, target_rank: int,
                    source_rank: int, coords: np.ndarray) -> "AlgebraMap":
        return cls(algebra, np.asarray(coords, dtype=np.int64).reshape(
            target_rank, source_rank, algebra.q))

    def __repr__(self):
        rows = [[repr(self.entry(i, j)) for j in range(self.source_rank)]
                for i in range(self.target_rank)]
        return f"AlgebraMap({rows})"


class PeriodicResolution:
    """The period-2 truncated free resolution of the ground field over R.

    Every module X_0 .. X_L is R itself, and d_n : X_n -> X_(n-1) for
    1 <= n <= L is multiplication by a for odd n and by a^(q-1) for even
    n, so d_1, whose image is the kernel of R -> k, is multiplication
    by a.  The two maps kill each other, which the constructor checks
    once; the sequence is exact because the kernel of each map is the
    image of the other.
    """

    __slots__ = ("algebra", "length", "_mult_a", "_mult_a_top")

    period = 2

    def __init__(self, algebra: TruncatedPolyAlgebra, length: int):
        if length < 2:
            raise InvalidParameter(f"length={length} must be >= 2")
        self.algebra = algebra
        self.length = length
        self._mult_a = AlgebraMap.from_element(algebra.alpha(1))
        self._mult_a_top = AlgebraMap.from_element(algebra.alpha(algebra.q - 1))
        if not self._mult_a.compose(self._mult_a_top).is_zero():
            raise InvalidParameter("d o d != 0")

    def differential(self, n: int) -> AlgebraMap:
        if not 1 <= n <= self.length:
            raise InvalidParameter(f"differential index {n} outside 1..{self.length}")
        return self._mult_a if n % 2 else self._mult_a_top


def build_cyclic_resolution(p: int, q: int, length: int) -> PeriodicResolution:
    """The period-2 resolution of k over F_p[a]/(a^q), positions 0..length."""
    return PeriodicResolution(TruncatedPolyAlgebra(p, q), length)
