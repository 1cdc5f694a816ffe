"""Endomorphism dg-algebra: differential, composition, homology, homotopies."""

import numpy as np
import pytest

import oracle
from ainfinity.endo_dga import EndomorphismAlgebra, GradedEndomorphism, HomologyClass
from ainfinity.errors import (DimensionMismatch, InvalidParameter, NotABoundary,
                              NotACycle, NotPeriodic, TruncationTooShort)
from ainfinity.ff_linalg import solve_array
from ainfinity.resolution import TruncatedPolyAlgebra, build_cyclic_resolution


def make_algebra(p, q, length=24, f1_mode="paper"):
    return EndomorphismAlgebra(build_cyclic_resolution(p, q, length), f1_mode)


@pytest.fixture(scope="module", params=[(2, 4), (3, 3), (5, 5)])
def algebra(request):
    p, q = request.param
    return make_algebra(p, q)


class TestDifferential:
    def test_generators_are_cocycles(self, algebra):
        assert algebra.differential(algebra.rep_x()).is_zero()
        assert algebra.differential(algebra.rep_y()).is_zero()

    def test_identity_chain_map(self, algebra):
        assert algebra.differential(algebra.identity()).is_zero()

    def test_against_flattened_matrices(self, algebra):
        # matrix-level oracle: (Df)_n = d f_n - (-1)^g f_(n-1) d_n on the
        # flattened components, computed with plain numpy products
        res = algebra.resolution
        p = algebra.p
        q = algebra.q
        alg = res.algebra
        m = 2
        h = algebra.from_element_pattern(
            1, alg.alpha(q - 1 - m, coeff=-1), alg.zero())
        dh = algebra.differential(h)
        for n in range(2, res.length + 1):
            lhs = dh.component(n).mult_matrix()
            rhs = (res.differential(n - 1).mult_matrix() @ h.component(n).mult_matrix()
                   + h.component(n - 1).mult_matrix() @ res.differential(n).mult_matrix()) % p
            assert np.array_equal(lhs, rhs)

    def test_cached_differential_matches_recomputation(self, algebra):
        rng = np.random.default_rng(29)
        f = oracle.random_endomorphism(algebra, rng, 1)
        first = f.differential()
        assert f.differential() is first  # cached on the element
        assert first == algebra.differential(f)  # and agrees with a fresh run

    def test_dd_zero_randomized(self, algebra):
        rng = np.random.default_rng(7)
        for degree in (0, 1, 2, 3):
            for _ in range(10):
                f = oracle.random_endomorphism(algebra, rng, degree)
                assert algebra.differential(algebra.differential(f)).is_zero()

    def test_leibniz_randomized(self, algebra):
        rng = np.random.default_rng(11)
        for (dg, dh) in [(1, 1), (1, 2), (2, 2), (0, 3)]:
            for _ in range(10):
                f = oracle.random_endomorphism(algebra, rng, dg)
                g = oracle.random_endomorphism(algebra, rng, dh)
                lhs = algebra.differential(algebra.compose(f, g))
                sign = -1 if dg % 2 else 1
                rhs = (algebra.compose(algebra.differential(f), g)
                       + algebra.compose(f, algebra.differential(g)).scale(sign))
                assert lhs == rhs


class TestComponents:
    @pytest.mark.parametrize("p,q", [(5, 4), (3, 6)])
    def test_component_of_another_ring_rejected(self, p, q):
        algebra = make_algebra(3, 4)
        with pytest.raises(DimensionMismatch):
            algebra.from_components(1, {2: TruncatedPolyAlgebra(p, q).one()})

    @pytest.mark.parametrize("build", [GradedEndomorphism, EndomorphismAlgebra.from_components],
                             ids=["constructor", "from_components"])
    def test_public_routes_check_every_component(self, build):
        # the engine's own results skip these checks; the public routes keep them
        algebra = make_algebra(3, 4, length=10)
        one = algebra.resolution.algebra.one()
        for position in (0, 11):
            with pytest.raises(InvalidParameter,
                               match=rf"^component position {position} outside \[1, 10\]$"):
                build(algebra, 1, {position: one})
        with pytest.raises(DimensionMismatch,
                           match=r"^component at 2 lies in F_5\[a\]/\(a\^4\), "
                                 r"not in F_3\[a\]/\(a\^4\)$"):
            build(algebra, 1, {2: TruncatedPolyAlgebra(5, 4).one()})

    def test_engine_results_drop_zero_components(self, algebra):
        # a^(q-1) o a^(q-1) and f - f vanish; nothing zero is stored
        alg = algebra.resolution.algebra
        top = algebra.from_element_pattern(1, alg.alpha(alg.q - 1), alg.alpha(alg.q - 1))
        assert algebra.compose(top, top).components == {}
        assert (top - top).components == {}
        assert top.scale(algebra.p).components == {}
        assert all(m.terms for m in algebra.differential(top).components.values())


class TestFlattenedCoordinates:
    """The window-global coordinates: f_n's q-vector at offset q*(n - g)."""

    @pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (5, 5), (3, 9), (7, 4)])
    def test_round_trip_and_d_matrix(self, p, q):
        algebra = make_algebra(p, q, length=12)
        rng = np.random.default_rng(10 * p + q)
        for degree in range(0, 6):
            dmat = algebra.d_matrix(degree)
            # every entry is written already reduced mod p
            assert 0 <= dmat.min() and dmat.max() < p
            for _ in range(5):
                f = oracle.random_endomorphism(algebra, rng, degree)
                v = algebra.coords_of(f)
                assert oracle.from_coords(algebra, degree, v) == f
                assert np.array_equal((dmat @ v) % p,
                                      algebra.coords_of(f.differential()))


def reference_compose(algebra, f, g):
    """f o g by the per-position rule at every window position."""
    comps = {n: f.component(n - g.degree).compose(g.component(n))
             for n in range(f.degree + g.degree, algebra.resolution.length + 1)}
    return algebra.from_components(f.degree + g.degree, comps)


#: every prime the engine is tested over, with q = 3 (where a^(q-1) = a^2,
#: so both differentials are short shifts) beside longer rings
SPARSE_RINGS = [(2, 3), (2, 5), (3, 3), (3, 8), (5, 3), (5, 4), (7, 3), (7, 6)]


class TestSparseElements:
    """The differential as coefficient shifts over stored positions, and
    composition over g's stored components, against window-wide oracles."""

    @pytest.mark.parametrize("p,q", SPARSE_RINGS)
    def test_differential_is_the_d_matrix(self, p, q):
        algebra = make_algebra(p, q, length=11)
        rng = np.random.default_rng(7 * p + q)
        for degree in range(0, 5):
            dmat = algebra.d_matrix(degree)
            for support in oracle.sparse_supports(algebra, rng, degree):
                f = oracle.sparse_endomorphism(algebra, rng, degree, support)
                df = algebra.differential(f)
                assert df.degree == degree + 1
                assert np.array_equal((dmat @ algebra.coords_of(f)) % p,
                                      algebra.coords_of(df)), (degree, support)

    @pytest.mark.parametrize("p,q", SPARSE_RINGS)
    def test_compose_is_the_per_position_product(self, p, q):
        algebra = make_algebra(p, q, length=11)
        rng = np.random.default_rng(11 * p + q)
        for df, dg in [(0, 0), (1, 1), (1, 2), (2, 1), (3, 2), (0, 4)]:
            f_supports = oracle.sparse_supports(algebra, rng, df)
            g_supports = oracle.sparse_supports(algebra, rng, dg)
            for f_support, g_support in zip(f_supports, g_supports[::-1]):
                f = oracle.sparse_endomorphism(algebra, rng, df, f_support)
                g = oracle.sparse_endomorphism(algebra, rng, dg, g_support)
                assert algebra.compose(f, g) == reference_compose(algebra, f, g)
                assert algebra.compose(g, f) == reference_compose(algebra, g, f)

    def test_even_supports_compose_to_zero(self):
        # (f o g)_n = f_(n-1) o g_n: two degree-1 maps stored at even
        # positions only, as every f_n(x, ..., x) is, meet nowhere
        algebra = make_algebra(5, 4, length=11)
        rng = np.random.default_rng(3)
        f = oracle.sparse_endomorphism(algebra, rng, 1, range(2, 12, 2))
        g = oracle.sparse_endomorphism(algebra, rng, 1, range(2, 12, 2))
        assert algebra.compose(f, g).is_zero()
        assert reference_compose(algebra, f, g).is_zero()

    @pytest.mark.parametrize("p,q", SPARSE_RINGS)
    def test_only_the_top_coefficient_is_nonzero(self, p, q):
        ring = TruncatedPolyAlgebra(p, q)
        top = ring.alpha(q - 1, coeff=p - 1)
        assert not top.is_zero()
        assert ring.zero().is_zero()
        algebra = make_algebra(p, q, length=8)
        f = algebra.from_components(1, {2: top, 3: ring.zero()})
        assert list(f.components) == [2]
        # d_1 o f_2 and f_2 o d_3 multiply a^(q-1) by a: the one coefficient
        # shifts out, so the differential of f is zero
        assert algebra.differential(f).is_zero()


class TestCompose:
    def test_eta_squared_all_identities(self, algebra):
        eta = algebra.rep_y()
        square = algebra.compose(eta, eta)
        assert square.degree == 4
        one = algebra.resolution.algebra.one()
        for n in square.position_range():
            assert square.component(n) == one

    def test_identity_neutral(self, algebra):
        rng = np.random.default_rng(3)
        f = oracle.random_endomorphism(algebra, rng, 2)
        assert algebra.compose(algebra.identity(), f) == f
        assert algebra.compose(f, algebra.identity()) == f

    def test_xi_squared_components(self, algebra):
        # componentwise product of the alternating pieces shifted by one:
        # (a^(q-2)) * 1 with opposite signs, so -a^(q-2) everywhere
        # (in characteristic two this is the plain a^(q-2) picture)
        alg = algebra.resolution.algebra
        q = algebra.q
        xi = algebra.rep_x()
        square = algebra.compose(xi, xi)
        expected = alg.alpha(q - 2, coeff=-1)
        for n in square.position_range():
            assert square.component(n) == expected

    def test_eta_commutes_with_periodic_maps(self, algebra):
        # literal component equality, not just up to homotopy
        eta = algebra.rep_y()
        for g in (algebra.rep_x(), algebra.identity(), algebra.rep_y()):
            assert algebra.compose(eta, g) == algebra.compose(g, eta)


class TestHomology:
    def test_degree_zero_is_identity_class(self, algebra):
        assert algebra.homology_basis(0) == algebra.identity()

    def test_degree_one_and_two_representatives(self, algebra):
        assert algebra.homology_basis(1) == algebra.rep_x()
        assert algebra.homology_basis(2) == algebra.rep_y()

    def test_higher_representatives_are_x_e_y_j(self, algebra):
        xi, eta = algebra.rep_x(), algebra.rep_y()
        y_power = algebra.identity()
        for j in range(0, 4):
            assert algebra.homology_basis(2 * j) == y_power
            assert algebra.homology_basis(2 * j + 1) == algebra.compose(xi, y_power)
            y_power = algebra.compose(eta, y_power)

    def test_dimensions_are_one(self, algebra):
        # the one representative per degree rests on this
        for degree in range(0, 7):
            assert oracle.homology_dimension(algebra, degree) == 1

    def test_class_of_generators(self, algebra):
        assert algebra.class_of(algebra.rep_x()).coords == (1,)
        assert algebra.class_of(algebra.rep_y()).coords == (1,)

    def test_boundaries_vanish(self, algebra):
        rng = np.random.default_rng(23)
        for degree in (0, 1, 2):
            h = oracle.random_endomorphism(algebra, rng, degree)
            boundary = algebra.differential(h)
            assert algebra.class_of(boundary).is_zero()

    def test_xi_squared_is_a_boundary(self, algebra):
        square = algebra.compose(algebra.rep_x(), algebra.rep_x())
        assert algebra.class_of(square).is_zero()
        h = algebra.nullhomotopy(square)
        assert algebra.differential(h) == square

    def test_ring_relations(self, algebra):
        # the product on classes follows exterior(x) (x) k[y]
        xi, eta = algebra.rep_x(), algebra.rep_y()
        xy = algebra.class_of(algebra.compose(xi, eta))
        yx = algebra.class_of(algebra.compose(eta, xi))
        assert xy.degree == 3 and xy.coords == (1,)
        assert yx == xy
        y2 = algebra.class_of(algebra.compose(eta, eta))
        assert y2.degree == 4 and y2.coords == (1,)

    def test_section_property(self, algebra):
        for degree in range(0, 6):
            rep = algebra.homology_basis(degree)
            assert algebra.class_of(rep) == HomologyClass(degree, 1)

    def test_one_cached_representative_per_degree(self, algebra):
        for degree in range(0, 6):
            assert algebra.homology_basis(degree) is algebra.homology_basis(degree)

    def test_not_a_cycle_raises(self, algebra):
        rng = np.random.default_rng(5)
        f = oracle.random_endomorphism(algebra, rng, 1)
        if algebra.differential(f).is_zero():  # pragma: no cover
            pytest.skip("randomly drew a cycle")
        with pytest.raises(NotACycle):
            algebra.class_of(f)

    def test_truncation_guard(self):
        algebra = make_algebra(2, 4, length=6)
        with pytest.raises(TruncationTooShort):
            algebra.class_of(algebra.rep_y().scale(1))


class TestLocalClassRead:
    """The O(1) class read of the cyclic family against the flattened oracle."""

    @pytest.mark.parametrize("f1_mode", ["paper", "auto"])
    @pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (5, 5), (3, 9), (7, 4)])
    def test_matches_flattened_oracle(self, p, q, f1_mode):
        algebra = make_algebra(p, q, length=16, f1_mode=f1_mode)
        rng = np.random.default_rng(1000 * p + q)
        for degree in range(0, 8):
            rep = algebra.homology_basis(degree)
            for _ in range(3):
                c = int(rng.integers(0, p))
                f = rep.scale(c)
                if degree > 0:
                    h = oracle.random_endomorphism(algebra, rng, degree - 1)
                    f = f + algebra.differential(h)
                local = algebra.class_of(f)
                assert local == oracle.flattened_class_of(algebra, f)
                assert local.coords == (c,)


class TestAutoSection:
    """"auto" is "paper" with x -> -x; the echelon section of the oracle,
    computed in every degree, stays the reference."""

    @pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 12])
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_composites_match_the_echelon_reference(self, p, q):
        for length in (14, 16):
            auto = make_algebra(p, q, length=length, f1_mode="auto")
            paper = make_algebra(p, q, length=length)
            # every degree g with L - g >= 5, the stability margin
            for degree in range(1, length - 4):
                rep = auto.homology_basis(degree)
                assert oracle.echelon_reps(auto, degree) == [rep], (length, degree)
                assert rep == paper.homology_basis(degree).scale((-1) ** degree), \
                    (length, degree)


def reference_nullhomotopy(algebra, f):
    """Per-position canonical solves with freshly built operators; raises
    NotABoundary at the first position without a solution."""
    res = algebra.resolution
    p, q = algebra.p, algebra.q
    g = f.degree - 1
    sign = -1 if g % 2 else 1

    def op(k):
        # composing with d_k on either side multiplies by it (R is commutative)
        return res.differential(k).mult_matrix()

    n0 = g + 1
    joint = np.concatenate([(-sign * op(n0)) % p, op(1)], axis=1)
    x = solve_array(joint, f.component(n0).coeffs, p)
    if x is None:
        raise NotABoundary(f"no homotopy at position {n0}")
    comps = {g: res.algebra.element(x[:q]), n0: res.algebra.element(x[q:])}
    prev = x[q:]
    for n in range(n0 + 1, res.length + 1):
        rhs = (f.component(n).coeffs + sign * (op(n) @ prev)) % p
        x = solve_array(op(n - g), rhs, p)
        if x is None:
            raise NotABoundary(f"no homotopy at position {n}")
        comps[n] = res.algebra.element(x)
        prev = x
    return algebra.from_components(g, comps)


class TestNullhomotopy:
    @pytest.mark.parametrize("q", [3, 4, 5, 9])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_shift_solves_match_fresh_solves(self, p, q):
        algebra = make_algebra(p, q, length=16)
        rng = np.random.default_rng(10 * p + q)
        for degree in range(1, 8):
            for _ in range(2):
                w = oracle.random_endomorphism(algebra, rng, degree - 1)
                boundary = algebra.differential(w)
                h = algebra.nullhomotopy(boundary)
                assert h == reference_nullhomotopy(algebra, boundary)
                assert algebra.differential(h) == boundary

    @pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (5, 5), (3, 9), (7, 4)])
    def test_non_cycle_fails_where_the_reference_does(self, p, q):
        # a boundary perturbed at one position: the shift solve refuses it
        # at the first position where the per-position matrix solve finds
        # no solution, and solves it exactly as that solve does otherwise
        algebra = make_algebra(p, q, length=12)
        rng = np.random.default_rng(1000 + 10 * p + q)
        failed_at = set()
        for degree in range(1, 5):
            for n in range(degree, algebra.resolution.length + 1):
                w = oracle.random_endomorphism(algebra, rng, degree - 1)
                f = (algebra.differential(w)
                     + oracle.sparse_endomorphism(algebra, rng, degree, [n]))
                try:
                    expected = reference_nullhomotopy(algebra, f)
                except NotABoundary as exc:
                    with pytest.raises(NotABoundary) as got:
                        algebra.nullhomotopy(f)
                    assert str(got.value) == str(exc)
                    failed_at.add((degree, int(str(exc).rsplit(" ", 1)[1]) - degree))
                else:
                    assert algebra.nullhomotopy(f) == expected
        # the refusals reach past the joint bottom equation, at both parities
        assert {(d, k % 2) for d, k in failed_at if k > 0} >= {
            (d, e) for d in range(1, 5) for e in (0, 1)}

    @pytest.mark.parametrize("f1_mode", ["paper", "auto"])
    @pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (5, 5), (3, 9), (7, 4)])
    def test_exact_solve_rejects_every_non_boundary(self, p, q, f1_mode):
        # no class read guards the solve: it alone must refuse every
        # nonzero class, whatever boundary is added, and every non-cycle
        algebra = make_algebra(p, q, length=16, f1_mode=f1_mode)
        rng = np.random.default_rng(100 * p + q)
        for degree in range(1, 8):
            rep = algebra.homology_basis(degree)
            for c in range(1, p):
                h = oracle.random_endomorphism(algebra, rng, degree - 1)
                with pytest.raises(NotABoundary):
                    algebra.nullhomotopy(rep.scale(c) + algebra.differential(h))
            f = oracle.random_endomorphism(algebra, rng, degree)
            assert not f.differential().is_zero()
            with pytest.raises(NotABoundary):
                algebra.nullhomotopy(f)

    def test_zero_gives_zero(self, algebra):
        # returned without a solve; the full per-position solve agrees
        for degree in range(1, 7):
            h = algebra.nullhomotopy(algebra.zero(degree))
            assert h.is_zero() and h.degree == degree - 1
            assert h == reference_nullhomotopy(algebra, algebra.zero(degree))

    def test_q4_pattern(self):
        algebra = make_algebra(2, 4)
        alg = algebra.resolution.algebra
        square = algebra.compose(algebra.rep_x(), algebra.rep_x())
        h = algebra.nullhomotopy(square)
        for n in h.position_range():
            expected = alg.alpha(1, coeff=-1) if n % 2 == 0 else alg.zero()
            assert h.component(n) == expected

    def test_roundtrip_randomized(self, algebra):
        rng = np.random.default_rng(17)
        for degree in (1, 2):
            for _ in range(8):
                w = oracle.random_endomorphism(algebra, rng, degree)
                boundary = algebra.differential(w)
                h = algebra.nullhomotopy(boundary)
                assert algebra.differential(h) == boundary

    def test_nonboundary_rejected(self, algebra):
        with pytest.raises(NotABoundary):
            algebra.nullhomotopy(algebra.rep_x())


class TestPeriodicCompact:
    def test_eta_compacts(self, algebra):
        compact = algebra.periodic_compact(algebra.rep_y())
        assert compact.period == 2
        assert compact.expand(algebra) == algebra.rep_y()

    def test_homotopy_pattern_compacts(self, algebra):
        alg = algebra.resolution.algebra
        q = algebra.q
        h = algebra.from_element_pattern(1, alg.alpha(q - 3, coeff=-1), alg.zero())
        compact = algebra.periodic_compact(h)
        assert compact.expand(algebra) == h

    def test_perturbed_component_rejected(self, algebra):
        res = algebra.resolution
        alg = res.algebra
        comps = {n: alg.one() for n in range(2, res.length + 1)}
        comps[5] = alg.alpha(1)
        f = algebra.from_components(2, comps)
        with pytest.raises(NotPeriodic):
            algebra.periodic_compact(f)

    def test_missing_component_against_a_stored_one_rejected(self, algebra):
        # a missing position is zero, so it differs from the stored one()
        # two positions on either side of it
        res = algebra.resolution
        alg = res.algebra
        comps = {n: alg.one() for n in range(2, res.length + 1) if n != 5}
        f = algebra.from_components(2, comps)
        assert 5 not in f.components and f.component(7) == alg.one()
        with pytest.raises(NotPeriodic, match="positions 3 and 5"):
            algebra.periodic_compact(f)

    def test_zero_map_compacts_to_zero_blocks(self, algebra):
        zero = algebra.zero(1)
        compact = algebra.periodic_compact(zero)
        assert compact.blocks == (algebra.resolution.algebra.zero(),) * 2
        assert compact.expand(algebra) == zero

    def test_window_too_short(self):
        algebra = make_algebra(2, 4, length=12)
        f = algebra.from_element_pattern(
            10, algebra.resolution.algebra.one(), algebra.resolution.algebra.one())
        with pytest.raises(TruncationTooShort):
            algebra.periodic_compact(f)
