"""Truncated polynomial algebras and the cyclic resolution builder."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SWEEP
from oracle import rank_array
from ainfinity.errors import DimensionMismatch, InvalidParameter
from ainfinity.ff_linalg import PrimeField
from ainfinity.resolution import TruncatedPolyAlgebra, build_cyclic_resolution


class TestAlgebraElement:
    def test_truncation_kills_high_powers(self):
        alg = TruncatedPolyAlgebra(3, 4)
        assert alg.alpha(2).compose(alg.alpha(2)).is_zero()
        assert alg.alpha(3).compose(alg.alpha(1)).is_zero()
        assert alg.alpha(1).compose(alg.alpha(2)) == alg.alpha(3)

    def test_mult_matrix_rank_of_top_power(self):
        # multiplication by a^(q-1) has one-dimensional image
        for p, q in [(2, 4), (3, 3), (5, 5)]:
            alg = TruncatedPolyAlgebra(p, q)
            m = alg.alpha(q - 1).mult_matrix()
            assert rank_array(m, p) == 1

    def test_q_lower_bound(self):
        with pytest.raises(InvalidParameter):
            TruncatedPolyAlgebra(2, 2)

    def test_field_is_derived_not_accepted(self):
        # a passed field was discarded: (3, 4, PrimeField(5)) had field F_3
        assert TruncatedPolyAlgebra(3, 4).field == PrimeField(3)
        with pytest.raises(TypeError):
            TruncatedPolyAlgebra(3, 4, PrimeField(5))
        with pytest.raises(TypeError):
            TruncatedPolyAlgebra(3, 4, field=PrimeField(3))


@st.composite
def composable_maps(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    q = draw(st.integers(3, 5))
    alg = TruncatedPolyAlgebra(p, q)
    coeffs = st.lists(st.integers(0, p - 1), min_size=q, max_size=q)
    return alg.element(draw(coeffs)), alg.element(draw(coeffs))


class TestAlgebraMap:
    @given(composable_maps())
    def test_flatten_functorial(self, pair):
        f, g = pair
        p = f.algebra.p
        lhs = f.compose(g).mult_matrix()
        rhs = (f.mult_matrix() @ g.mult_matrix()) % p
        assert np.array_equal(lhs, rhs)

    def test_composition_associative_and_bilinear(self):
        rng = np.random.default_rng(31)
        alg = TruncatedPolyAlgebra(3, 4)

        def rand_map():
            return alg.element(rng.integers(0, 3, size=4))

        for _ in range(20):
            f, g, h = rand_map(), rand_map(), rand_map()
            assert f.compose(g).compose(h) == f.compose(g.compose(h))
            g2 = rand_map()
            assert f.compose(g + g2) == f.compose(g) + f.compose(g2)
            assert (f + rand_map()).compose(g).entries.shape == (1, 1, 4)
            c = int(rng.integers(0, 3))
            assert f.compose(g.scale(c)) == f.compose(g).scale(c)
            assert f.scale(c).compose(g) == f.compose(g).scale(c)

    def test_identity_neutral(self):
        alg = TruncatedPolyAlgebra(2, 4)
        ident = alg.one()
        f = alg.alpha(1) + alg.alpha(2, coeff=3) + alg.scalar(1)
        assert ident.compose(f) == f
        assert f.compose(ident) == f


# the dense reference: an element is its list of q coefficients in [0, p)
TERM_PRIMES = [2, 3, 7, 65521]
TERM_EXPONENTS = [3, 5, 24]


@st.composite
def coefficient_lists(draw, p, q):
    """q coefficients in [0, p): a few monomials, or dense."""
    if draw(st.booleans()):
        coeffs = [0] * q
        for e in draw(st.lists(st.integers(0, q - 1), max_size=3)):
            coeffs[e] = draw(st.integers(1, p - 1))
        return coeffs
    return draw(st.lists(st.integers(0, p - 1), min_size=q, max_size=q))


@st.composite
def coefficient_pairs(draw):
    p = draw(st.sampled_from(TERM_PRIMES))
    q = draw(st.sampled_from(TERM_EXPONENTS))
    return (TruncatedPolyAlgebra(p, q),
            draw(coefficient_lists(p, q)), draw(coefficient_lists(p, q)))


def dense_repr(coeffs):
    parts = []
    for i, c in enumerate(coeffs):
        if c:
            power = "" if i == 0 else ("a" if i == 1 else f"a^{i}")
            parts.append(str(c) if not power else power if c == 1 else f"{c}*{power}")
    return " + ".join(parts) or "0"


def assert_dense(x, coeffs):
    """x is the element with these coefficients, and its terms are canonical."""
    p, q = x.algebra.p, x.algebra.q
    exponents = [e for e, _ in x.terms]
    assert exponents == sorted(set(exponents))
    assert all(type(e) is int and 0 <= e < q for e in exponents)
    assert all(type(c) is int and 1 <= c < p for _, c in x.terms)
    assert x.coeffs.tolist() == coeffs
    assert x.is_zero() == (not any(coeffs))
    assert repr(x) == dense_repr(coeffs)


class TestTerms:
    @given(coefficient_pairs(), st.integers(-2 ** 70, 2 ** 70))
    def test_arithmetic_matches_dense(self, data, c):
        alg, u, v = data
        p, q = alg.p, alg.q
        x, y = alg.element(u), alg.element(v)
        assert_dense(x, u)
        assert_dense(x.compose(y), (np.convolve(u, v)[:q] % p).tolist())
        assert_dense(x + y, [(a + b) % p for a, b in zip(u, v)])
        assert_dense(x - y, [(a - b) % p for a, b in zip(u, v)])
        assert_dense(-x, [-a % p for a in u])
        assert_dense(x.scale(c), [a * c % p for a in u])

    @given(coefficient_pairs(), st.integers(-30, 30))
    def test_shift_matches_dense(self, data, k):
        # a^k x for k >= 0; for k < 0, x moved down -k places
        alg, u, _ = data
        q = alg.q
        assert_dense(alg.element(u).shift(k),
                     [u[i - k] if 0 <= i - k < q else 0 for i in range(q)])

    @given(coefficient_pairs())
    def test_equal_elements_hash_equal(self, data):
        alg, u, v = data
        x, y = alg.element(u), alg.element(v)
        assert alg.element(x.coeffs) == x
        assert (x == y) == (u == v)
        total = x + y - y
        assert total == x and hash(total) == hash(x)
        assert x.entries.shape == (1, 1, alg.q)
        assert not x.coeffs.flags.writeable

    def test_element_reduces_integers_of_any_size(self):
        alg = TruncatedPolyAlgebra(3, 4)
        assert alg.element([2 ** 70, 0, 0, 0]) == alg.scalar(2 ** 70 % 3)
        assert alg.element([-(2 ** 70), 0, 0, 0]) == alg.scalar(-(2 ** 70) % 3)
        big = np.array([2 ** 63 + 1, 0, 4, 0], dtype=np.uint64)
        assert alg.element(big) == alg.scalar((2 ** 63 + 1) % 3) + alg.alpha(2)
        assert alg.element([np.int64(-1), np.int8(5), 0, 0]) == (
            alg.scalar(2) + alg.alpha(1, coeff=2))

    @pytest.mark.parametrize("coeffs", [
        [0.5, 1.7, 0, 0], [1.0, 0, 0, 0], np.array([1.0, 0, 0, 0]), ["1", 0, 0, 0]])
    def test_element_rejects_non_integers(self, coeffs):
        with pytest.raises(InvalidParameter, match="not an integer"):
            TruncatedPolyAlgebra(3, 4).element(coeffs)

    @pytest.mark.parametrize("coeffs", [[1, 0, 0], [0] * 5, 7])
    def test_element_needs_q_coefficients(self, coeffs):
        with pytest.raises(DimensionMismatch):
            TruncatedPolyAlgebra(3, 4).element(coeffs)


class TestBuilder:
    def test_differential_pattern_2_4_6(self):
        res = build_cyclic_resolution(2, 4, 6)
        got = [res.differential(n) for n in range(1, 7)]
        alg = res.algebra
        assert got == [alg.alpha(1), alg.alpha(3), alg.alpha(1),
                       alg.alpha(3), alg.alpha(1), alg.alpha(3)]

    def test_dd_zero_by_truncation(self):
        res = build_cyclic_resolution(3, 3, 8)
        for n in range(2, 9):
            assert res.differential(n - 1).compose(res.differential(n)).is_zero()

    @pytest.mark.parametrize("p,q,length", [(2, 2, 6), (4, 4, 6), (2, 4, 1)])
    def test_invalid_parameters(self, p, q, length):
        with pytest.raises(InvalidParameter):
            build_cyclic_resolution(p, q, length)

    @pytest.mark.parametrize("p,q", SWEEP + [(7, 4)])
    def test_homology_vanishes_internally(self, p, q):
        # exactness by the dimension count ker d_n = im d_(n+1) through the
        # flattened differentials (d o d = 0 is checked above)
        res = build_cyclic_resolution(p, q, 6)
        for n in range(1, 6):
            ker = q - rank_array(res.differential(n).mult_matrix(), p)
            im = rank_array(res.differential(n + 1).mult_matrix(), p)
            assert ker == im
