"""Exact linear algebra over prime fields: pinned examples and properties."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ainfinity.errors import DimensionMismatch, InvalidParameter
from ainfinity.ff_linalg import PrimeField, SolveContext, rref_array, solve_array
from oracle import kernel_basis_array, rank_array

PRIMES = [2, 3, 5, 7]


@st.composite
def matrices(draw, max_dim=5):
    """(p, a) with `a` a 2-d array of entries in [0, p)."""
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return p, np.array(data, dtype=np.int64)


def is_rref(arr, pivots):
    """Structural reduced row-echelon predicate, independent of the solver."""
    rows, cols = arr.shape
    last = -1
    for i, c in enumerate(pivots):
        if c <= last:
            return False
        last = c
        if arr[i, c] != 1:
            return False
        if any(arr[r, c] != 0 for r in range(rows) if r != i):
            return False
        if any(arr[i, cc] != 0 for cc in range(c)):
            return False
    if np.any(arr[len(pivots):]):
        return False
    return True


def in_row_space(p, basis_matrix, vector):
    sol = solve_array(basis_matrix.T % p, vector % p, p)
    return sol is not None


def apply(a, v, p):
    return (a @ np.array(v, dtype=np.int64)) % p


class TestRref:
    def test_identity_over_f2(self):
        m = np.eye(2, dtype=np.int64)
        r, pivots = rref_array(m, 2)
        assert np.array_equal(r, m)
        assert pivots == [0, 1]

    def test_hand_reduction_f5(self):
        # oracle: result is in RREF form and spans the same row space
        m = np.array([[1, 2], [2, 4]])
        r, pivots = rref_array(m, 5)
        assert r.tolist() == [[1, 2], [0, 0]]
        assert pivots == [0]
        assert is_rref(r, pivots)
        for row in m:
            assert in_row_space(5, r, row)
        for row in r:
            assert in_row_space(5, m, row)

    def test_zero_matrix(self):
        r, pivots = rref_array(np.zeros((3, 3), dtype=np.int64), 3)
        assert not np.any(r)
        assert pivots == []

    @given(matrices())
    def test_idempotent(self, pm):
        p, m = pm
        r, _ = rref_array(m, p)
        r2, _ = rref_array(r, p)
        assert np.array_equal(r, r2)

    @given(matrices())
    def test_shape_predicate(self, pm):
        p, m = pm
        r, pivots = rref_array(m, p)
        assert is_rref(r, pivots)


class TestSolve:
    def test_identity(self):
        m = np.eye(3, dtype=np.int64)
        assert solve_array(m, [1, 5, 6], 7).tolist() == [1, 5, 6]

    def test_no_solution(self):
        assert solve_array(np.zeros((2, 2), dtype=np.int64), [1, 0], 3) is None

    def test_canonical_pick_f3(self):
        # oracle: enumerate all 9 candidate vectors
        m = np.array([[1, 1], [0, 0]])
        b = np.array([2, 0])
        solutions = [v for v in itertools.product(range(3), repeat=2)
                     if np.array_equal(apply(m, v, 3), b)]
        assert len(solutions) == 3
        got = solve_array(m, b, 3)
        assert got.tolist() == [2, 0]
        assert tuple(got.tolist()) in solutions
        assert got[1] == 0  # free coordinate pinned to zero

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_array(np.zeros((2, 2), dtype=np.int64), [1, 0, 0], 3)

    @given(matrices(), st.data())
    def test_consistency(self, pm, data):
        p, m = pm
        b = np.array(data.draw(st.lists(st.integers(0, p - 1),
                                        min_size=m.shape[0], max_size=m.shape[0])))
        x = solve_array(m, b, p)
        if x is not None:
            assert np.array_equal(apply(m, x, p), b % p)
        else:
            aug = np.concatenate([m, b.reshape(-1, 1)], axis=1)
            assert rank_array(aug, p) > rank_array(m, p)

    @given(matrices(), st.data())
    def test_solve_context_matches(self, pm, data):
        # against one elimination of [m | b], read off at the pivots
        p, m = pm
        ctx = SolveContext(m, p)
        b = np.array(data.draw(st.lists(st.integers(0, p - 1),
                                        min_size=m.shape[0], max_size=m.shape[0])))
        r, pivots = rref_array(np.concatenate([m, b.reshape(-1, 1)], axis=1), p)
        if m.shape[1] in pivots:
            assert ctx.solve(b) is None and solve_array(m, b, p) is None
        else:
            expected = np.zeros(m.shape[1], dtype=np.int64)
            for i, c in enumerate(pivots):
                expected[c] = r[i, -1]
            assert np.array_equal(ctx.solve(b), expected)
            assert np.array_equal(solve_array(m, b, p), expected)


class TestKernel:
    def test_identity_kernel_empty(self):
        assert kernel_basis_array(np.eye(3, dtype=np.int64), 2) == []

    def test_f2_symmetry_forced(self):
        m = np.array([[1, 1]])
        assert [v.tolist() for v in kernel_basis_array(m, 2)] == [[1, 1]]

    def test_f5_brute_force(self):
        # oracle: enumerate all 25 vectors
        m = np.array([[1, 2], [2, 4]])
        null = {v for v in itertools.product(range(5), repeat=2)
                if not np.any(apply(m, v, 5))}
        basis = kernel_basis_array(m, 5)
        assert [v.tolist() for v in basis] == [[3, 1]]
        spanned = {tuple((c * basis[0]) % 5) for c in range(5)}
        assert spanned == null

    @given(matrices())
    def test_kernel_vectors_annihilate(self, pm):
        p, m = pm
        for v in kernel_basis_array(m, p):
            assert not np.any(apply(m, v, p))

    @given(matrices())
    def test_rank_nullity(self, pm):
        p, m = pm
        assert rank_array(m, p) + len(kernel_basis_array(m, p)) == m.shape[1]


class TestPrimeField:
    @pytest.mark.parametrize("n", [0, 1, 4, 6, 9, 15])
    def test_rejects_composites(self, n):
        with pytest.raises(InvalidParameter):
            PrimeField(n)
