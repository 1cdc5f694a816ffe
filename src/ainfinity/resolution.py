"""Truncated polynomial rings, their elements, and the cyclic resolution.

The ground ring is R = F_p[a]/(a^q) for a prime p and exponent q >= 3.
Every module of the resolution is R, and an R-linear map R -> R is
multiplication by one ring element, so one type (`AlgebraMap`) is both
the element and the map: it holds the element's q coefficients, composes
by the truncated polynomial product, and its `mult_matrix` is the q x q
F_p-matrix of multiplication on coefficient vectors.

`build_cyclic_resolution` produces the one resolution the package works
with (`PeriodicResolution`): the period-2 truncated free resolution of
the ground field with every module R and differentials alternating
between multiplication by a and by a^(q-1); d_1, whose image is the
kernel of R -> k (evaluation at a = 0), is multiplication by a.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .ff_linalg import PrimeField, _frozen


@dataclass(frozen=True)
class TruncatedPolyAlgebra:
    """R = F_p[a]/(a^q), with q >= 3."""

    p: int
    q: int
    field: PrimeField = dataclasses.field(init=False)  # derived from p

    def __post_init__(self):
        if self.q < 3:
            raise InvalidParameter(f"truncation exponent q={self.q} must be >= 3")
        object.__setattr__(self, "field", PrimeField(self.p))

    def element(self, coeffs) -> "AlgebraMap":
        coeffs = self.field.array(coeffs)
        if coeffs.shape != (self.q,):
            raise DimensionMismatch(f"need {self.q} coefficients, got {coeffs.shape}")
        return AlgebraMap(self, coeffs)

    def zero(self) -> "AlgebraMap":
        return self.element(np.zeros(self.q, dtype=np.int64))

    def one(self) -> "AlgebraMap":
        return self.scalar(1)

    def scalar(self, c: int) -> "AlgebraMap":
        coeffs = np.zeros(self.q, dtype=np.int64)
        coeffs[0] = c % self.p
        return self.element(coeffs)

    def alpha(self, power: int = 1, coeff: int = 1) -> "AlgebraMap":
        """coeff * a^power, which is zero once power >= q."""
        coeffs = np.zeros(self.q, dtype=np.int64)
        if 0 <= power < self.q:
            coeffs[power] = coeff % self.p
        return self.element(coeffs)


class AlgebraMap:
    """Element r of R, as the length-q coefficient vector of 1, a, ...,
    a^(q-1), and the R-linear map R -> R that multiplies by r.

    Build elements through `TruncatedPolyAlgebra.element`, which reduces
    and checks the coefficients; the arithmetic below keeps them reduced.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: TruncatedPolyAlgebra, coeffs: np.ndarray):
        self.algebra = algebra
        self.coeffs = _frozen(coeffs)

    @property
    def entries(self) -> np.ndarray:
        """Read-only (1, 1, q) view of the coefficients: the map as a 1 x 1
        matrix of ring elements, the layout structure files store."""
        return self.coeffs.reshape(1, 1, -1)

    def is_zero(self) -> bool:
        # count_nonzero costs a fraction of ndarray.any on q-vectors
        return not np.count_nonzero(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraMap)
            and (self.algebra is other.algebra or self.algebra == other.algebra)
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.algebra, self.coeffs.tobytes()))

    def __add__(self, other: "AlgebraMap") -> "AlgebraMap":
        return AlgebraMap(self.algebra, (self.coeffs + other.coeffs) % self.algebra.p)

    def __sub__(self, other: "AlgebraMap") -> "AlgebraMap":
        return AlgebraMap(self.algebra, (self.coeffs - other.coeffs) % self.algebra.p)

    def __neg__(self) -> "AlgebraMap":
        return AlgebraMap(self.algebra, (-self.coeffs) % self.algebra.p)

    def scale(self, c: int) -> "AlgebraMap":
        return AlgebraMap(self.algebra, (self.coeffs * (int(c) % self.algebra.p)) % self.algebra.p)

    def compose(self, other: "AlgebraMap") -> "AlgebraMap":
        """self after other: the truncated product, a^i * a^j = 0 once i + j >= q."""
        full = np.convolve(self.coeffs, other.coeffs)
        return AlgebraMap(self.algebra, full[:self.algebra.q] % self.algebra.p)

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
        self._mult_a = algebra.alpha(self.exponent(1))
        self._mult_a_top = algebra.alpha(self.exponent(2))
        if not self._mult_a.compose(self._mult_a_top).is_zero():
            raise InvalidParameter("d o d != 0")

    def exponent(self, n: int) -> int:
        """The e with d_n multiplication by a^e: 1 for odd n, q - 1 for even n."""
        if not 1 <= n <= self.length:
            raise InvalidParameter(f"differential index {n} outside 1..{self.length}")
        return 1 if n % 2 else self.algebra.q - 1

    def differential(self, n: int) -> AlgebraMap:
        if not 1 <= n <= self.length:
            raise InvalidParameter(f"differential index {n} outside 1..{self.length}")
        return self._mult_a if n % 2 else self._mult_a_top


def build_cyclic_resolution(p: int, q: int, length: int) -> PeriodicResolution:
    """The period-2 resolution of k over F_p[a]/(a^q), positions 0..length."""
    return PeriodicResolution(TruncatedPolyAlgebra(p, q), length)
