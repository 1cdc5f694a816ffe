"""Truncated polynomial rings, their elements, and the cyclic resolution.

The ground ring is R = F_p[a]/(a^q) for a prime p and exponent q >= 3.
Every module of the resolution is R, and an R-linear map R -> R is
multiplication by one ring element, so one type (`AlgebraMap`) is both
the element and the map: it holds the element's nonzero terms c*a^e,
composes by the truncated product of those terms, moves them by powers of
a (`shift`), and its `mult_matrix` is the q x q F_p-matrix of
multiplication on coefficient vectors.

`build_cyclic_resolution` produces the one resolution the package works
with (`PeriodicResolution`): the period-2 truncated free resolution of
the ground field with every module R and differentials alternating
between multiplication by a and by a^(q-1); d_1, whose image is the
kernel of R -> k (evaluation at a = 0), is multiplication by a.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .ff_linalg import PrimeField


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

    def _reduce(self, c) -> int:
        """An integer coefficient (python or numpy, of any size) mod p."""
        try:
            return operator.index(c) % self.p
        except TypeError:
            raise InvalidParameter(f"coefficient {c!r} is not an integer") from None

    def element(self, coeffs) -> "AlgebraMap":
        """The element sum_i coeffs[i] * a^i of q integer coefficients."""
        values = coeffs.tolist() if isinstance(coeffs, np.ndarray) else coeffs
        if not isinstance(values, (list, tuple)) or len(values) != self.q:
            raise DimensionMismatch(f"need {self.q} coefficients, got {coeffs!r}")
        reduced = [self._reduce(c) for c in values]
        return AlgebraMap(self, tuple([(e, c) for e, c in enumerate(reduced) if c]))

    def zero(self) -> "AlgebraMap":
        return AlgebraMap(self, ())

    def one(self) -> "AlgebraMap":
        return self.scalar(1)

    def scalar(self, c: int) -> "AlgebraMap":
        return self.alpha(0, c)

    def alpha(self, power: int = 1, coeff: int = 1) -> "AlgebraMap":
        """coeff * a^power, which is zero once power >= q."""
        c = self._reduce(coeff)
        return AlgebraMap(self, ((power, c),) if c and 0 <= power < self.q else ())


def _canonical(algebra: TruncatedPolyAlgebra, acc: dict) -> "AlgebraMap":
    """The element with coefficient acc[e] (any integer) at a^e."""
    p = algebra.p
    terms = []
    for e in sorted(acc):
        c = acc[e] % p
        if c:
            terms.append((e, c))
    return AlgebraMap(algebra, tuple(terms))


class AlgebraMap:
    """Element r of R, and the R-linear map R -> R that multiplies by r.

    `terms` holds r's nonzero terms: a tuple of (exponent, coeff) pairs of
    python ints, exponents increasing in [0, q) and each coeff in [1, p).
    Almost every component the engine builds is one monomial c*a^e, so the
    arithmetic walks terms, not q-vectors.  `coeffs`, `entries` and
    `mult_matrix` are dense numpy views, built on each call for the
    flattened path and the tests.

    Build elements through `TruncatedPolyAlgebra`, which reduces and checks
    the coefficients; the arithmetic below keeps the terms canonical.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: TruncatedPolyAlgebra, terms: tuple):
        self.algebra = algebra
        self.terms = terms

    def dense(self) -> list:
        """The q coefficients of 1, a, ..., a^(q-1), as python ints."""
        row = [0] * self.algebra.q
        for e, c in self.terms:
            row[e] = c
        return row

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only length-q coefficient vector of 1, a, ..., a^(q-1)."""
        v = np.array(self.dense(), dtype=np.int64)
        v.flags.writeable = False
        return v

    @property
    def entries(self) -> np.ndarray:
        """Read-only (1, 1, q) view of the coefficients: the map as a 1 x 1
        matrix of ring elements, the layout structure files store."""
        return self.coeffs.reshape(1, 1, -1)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraMap)
            and self.terms == other.terms
            and (self.algebra is other.algebra or self.algebra == other.algebra)
        )

    def __hash__(self):
        return hash((self.algebra, self.terms))

    def __add__(self, other: "AlgebraMap") -> "AlgebraMap":
        return self._plus(other, 1)

    def __sub__(self, other: "AlgebraMap") -> "AlgebraMap":
        return self._plus(other, -1)

    def _plus(self, other: "AlgebraMap", sign: int) -> "AlgebraMap":
        """self + sign * other, for sign = 1 or -1."""
        if not other.terms:
            return self
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + sign * c
        return _canonical(self.algebra, acc)

    def __neg__(self) -> "AlgebraMap":
        return self.scale(-1)

    def scale(self, c: int) -> "AlgebraMap":
        p = self.algebra.p
        c = self.algebra._reduce(c)
        if not c:
            return AlgebraMap(self.algebra, ())
        return AlgebraMap(self.algebra, tuple([(e, x * c % p) for e, x in self.terms]))

    def shift(self, k: int) -> "AlgebraMap":
        """a^k times this element for k >= 0, which drops the terms pushed
        to a^q or above.  For k < 0 the terms below a^(-k) are dropped and
        the rest move down -k places: the canonical h with a^(-k) h = self
        when self has no term below a^(-k)."""
        q = self.algebra.q
        return AlgebraMap(self.algebra,
                          tuple([(e + k, c) for e, c in self.terms if 0 <= e + k < q]))

    def compose(self, other: "AlgebraMap") -> "AlgebraMap":
        """self after other: the truncated product, a^i * a^j = 0 once i + j >= q."""
        q = self.algebra.q
        acc = {}
        for i, c in self.terms:
            for j, d in other.terms:
                if i + j >= q:
                    break
                acc[i + j] = acc.get(i + j, 0) + c * d
        return _canonical(self.algebra, acc)

    def mult_matrix(self) -> np.ndarray:
        """q x q matrix of multiplication by this element on coefficient vectors."""
        q = self.algebra.q
        m = np.zeros((q, q), dtype=np.int64)
        idx = np.arange(q)
        for j, c in self.terms:
            m[idx[j:], idx[:q - j]] = c
        return m

    def __repr__(self):
        if not self.terms:
            return "0"
        out = []
        for i, c in self.terms:
            if i == 0:
                out.append(str(c))
            else:
                pw = "a" if i == 1 else f"a^{i}"
                out.append(pw if c == 1 else f"{c}*{pw}")
        return " + ".join(out)


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
