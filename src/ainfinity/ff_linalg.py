"""Exact dense linear algebra over prime fields.

Matrices are 2-d numpy int64 arrays, reduced mod p on the way in. Every
operation is pure and deterministic; in particular `solve_array` always
returns the canonical solution with zeros in all non-pivot coordinates,
so identical inputs give identical outputs.  The higher modules keep
their own coordinate layouts and pass raw arrays and vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter


# All arithmetic is exact int64 numpy.  The longest dot product is
# `EndomorphismAlgebra.d_matrix(g) @ coords`, with inner dimension
# K = q * (L - g + 1); its K x K matrix caps K far below 2^31 in any run
# that fits in memory, and then p < 2^16 keeps K * (p - 1)^2 < 2^63.
MODULUS_BOUND = 2 ** 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic context for the field with p elements.

    Elements are plain python/numpy integers in [0, p); the context owns
    the modulus. The bound MODULUS_BOUND, then primality, are checked once
    here: a huge p costs no trial division.
    """

    p: int

    def __post_init__(self):
        if self.p >= MODULUS_BOUND:
            raise InvalidParameter(
                f"modulus {self.p} is not below {MODULUS_BOUND}, the bound for "
                "exact int64 arithmetic")
        if not is_prime(self.p):
            raise InvalidParameter(f"modulus {self.p} is not prime")


def rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of `a` mod p and its pivot columns."""
    r = np.array(a, dtype=np.int64) % p
    rows, cols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        r[row] = (r[row] * pow(int(r[row, col]), p - 2, p)) % p
        other = np.nonzero(r[:, col])[0]
        other = other[other != row]
        if other.size:
            r[other] = (r[other] - np.outer(r[other, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, pivots


def solve_array(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """Canonical solution of a x = b mod p, or None when inconsistent.

    Canonical means: non-pivot coordinates are zero.  One solve against
    `SolveContext`, which owns the elimination.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"solve with shapes {a.shape} and {b.shape}")
    return SolveContext(a, p).solve(b)


class SolveContext:
    """Repeated canonical solves against one fixed matrix.

    Eliminates [m | I] once; afterwards each solve is a single matrix-vector
    product plus a consistency check, giving the canonical solution
    (non-pivot coordinates zero).
    """

    def __init__(self, m: np.ndarray, p: int):
        m = np.asarray(m, dtype=np.int64) % p
        self.p = p
        self.cols = m.shape[1]
        aug = np.concatenate([m, np.eye(m.shape[0], dtype=np.int64)], axis=1)
        r, pivots = rref_array(aug, p)
        self.pivots = [c for c in pivots if c < self.cols]
        self.rank = len(self.pivots)
        self.reduced = r[: self.rank, : self.cols]
        self.transform = r[:, self.cols:]

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        y = (self.transform @ (np.asarray(b, dtype=np.int64) % self.p)) % self.p
        if np.any(y[self.rank:]):
            return None
        x = np.zeros(self.cols, dtype=np.int64)
        for i, c in enumerate(self.pivots):
            x[c] = y[i]
        return x
