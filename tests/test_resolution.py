"""Truncated polynomial algebras and the cyclic resolution builder."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SWEEP
from ainfinity.errors import InvalidParameter
from ainfinity.ff_linalg import rank_array
from ainfinity.resolution import (AlgebraMap, TruncatedPolyAlgebra,
                                  build_cyclic_resolution)


class TestAlgebraElement:
    def test_truncation_kills_high_powers(self):
        alg = TruncatedPolyAlgebra(3, 4)
        assert (alg.alpha(2) * alg.alpha(2)).is_zero()
        assert (alg.alpha(3) * alg.alpha(1)).is_zero()
        assert (alg.alpha(1) * alg.alpha(2)) == alg.alpha(3)

    def test_mult_matrix_rank_of_top_power(self):
        # multiplication by a^(q-1) has one-dimensional image
        for p, q in [(2, 4), (3, 3), (5, 5)]:
            alg = TruncatedPolyAlgebra(p, q)
            m = alg.alpha(q - 1).mult_matrix()
            assert rank_array(m, p) == 1

    def test_q_lower_bound(self):
        with pytest.raises(InvalidParameter):
            TruncatedPolyAlgebra(2, 2)


@st.composite
def composable_maps(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    q = draw(st.integers(3, 5))
    alg = TruncatedPolyAlgebra(p, q)
    a, b, c = (draw(st.integers(1, 2)) for _ in range(3))
    f = AlgebraMap(alg, draw(_entries(a, b, q, p)))
    g = AlgebraMap(alg, draw(_entries(b, c, q, p)))
    return f, g


def _entries(t, s, q, p):
    return st.lists(
        st.lists(st.lists(st.integers(0, p - 1), min_size=q, max_size=q),
                 min_size=s, max_size=s),
        min_size=t, max_size=t).map(lambda d: np.array(d, dtype=np.int64))


class TestAlgebraMap:
    @given(composable_maps())
    def test_flatten_functorial(self, pair):
        f, g = pair
        p = f.algebra.p
        lhs = f.compose(g).flatten()
        rhs = (f.flatten() @ g.flatten()) % p
        assert np.array_equal(lhs, rhs)

    def test_composition_associative_and_bilinear(self):
        rng = np.random.default_rng(31)
        alg = TruncatedPolyAlgebra(3, 4)

        def rand_map(t, s):
            return AlgebraMap(alg, rng.integers(0, 3, size=(t, s, 4)))

        for _ in range(20):
            f, g, h = rand_map(2, 2), rand_map(2, 1), rand_map(1, 2)
            assert f.compose(g).compose(h) == f.compose(g.compose(h))
            g2 = rand_map(2, 1)
            assert f.compose(g + g2) == f.compose(g) + f.compose(g2)
            assert (f + rand_map(2, 2)).compose(g).entries.shape == (2, 1, 4)
            c = int(rng.integers(0, 3))
            assert f.compose(g.scale(c)) == f.compose(g).scale(c)
            assert f.scale(c).compose(g) == f.compose(g).scale(c)

    def test_identity_neutral(self):
        alg = TruncatedPolyAlgebra(2, 4)
        ident = AlgebraMap.identity(alg, 2)
        f = AlgebraMap(alg, [[alg.alpha(1).coeffs, alg.alpha(2).coeffs],
                             [alg.one().coeffs, alg.zero().coeffs]])
        assert ident.compose(f) == f
        assert f.compose(ident) == f


class TestBuilder:
    def test_differential_pattern_2_4_6(self):
        res = build_cyclic_resolution(2, 4, 6)
        got = [res.differential(n).entry(0, 0) for n in range(1, 7)]
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
            ker = q - rank_array(res.differential(n).flatten(), p)
            im = rank_array(res.differential(n + 1).flatten(), p)
            assert ker == im
