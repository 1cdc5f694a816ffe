"""Independent identity verification: residuals, failure reporting."""

import numpy as np
import pytest

import oracle
from conftest import computed_record
from ainfinity.endo_dga import HomologyClass
from ainfinity.errors import UnresolvableValue
from ainfinity.kadeishvili import (AInfinityRecord, X, Y, insertion_sign,
                                   monomial_degree, monomial_of_degree,
                                   split_sign)
from ainfinity.stasheff import (check_morphism, check_structure,
                                verify_structure)


class TestMorphismIdentity:
    def test_arity_one_checks_cycle_choice(self, record_2_4):
        rec, _ = record_2_4
        assert check_morphism(rec, 1, (X,)).is_zero()
        assert check_morphism(rec, 1, ((1, 2),)).is_zero()

    def test_arity_two_is_the_defining_equation(self, record_2_4, record_3_3):
        # D f_2(x,x) = f_1(x) f_1(x) - f_1(x^2), rearranged to a residual
        for rec, _ in (record_2_4, record_3_3):
            algebra = rec.algebra
            xi = algebra.rep_x()
            lhs = algebra.differential(rec.f_table[(X, X)])
            rhs = algebra.compose(xi, xi) - rec.f1_of_class(rec.m_table[(X, X)])
            assert lhs == rhs
            assert check_morphism(rec, 2, (X, X)).is_zero()

    def test_all_basis_tuples_through_window(self, record_3_3):
        rec, _ = record_3_3
        for n in range(1, 7):
            assert check_morphism(rec, n, (X,) * n).is_zero()

    def test_mixed_tuples(self, record_3_3):
        rec, _ = record_3_3
        for key in [(Y, X, X), (X, (1, 1), X), ((0, 1), X, X, X)]:
            assert check_morphism(rec, len(key), key).is_zero()


class TestStructureIdentity:
    def test_arity_two_trivial(self, record_2_4):
        rec, _ = record_2_4
        assert check_structure(rec, 2, (X, X)).is_zero()

    def test_surviving_terms_cancel_at_q_plus_one(self):
        # at arity q+1 exactly two terms survive: the inner m_q composed
        # into each arity-2 slot; they are individually nonzero
        rec, _ = computed_record(5, 5)
        p, q = rec.algebra.p, 5
        key = (X,) * (q + 1)
        inner = rec.resolve_product(key[:q])
        assert not inner.is_zero()
        left = rec.resolve_product(((0, 1), X)).scale(inner.coords[0], p)
        right = rec.resolve_product((X, (0, 1))).scale(inner.coords[0], p)
        assert not left.is_zero() and not right.is_zero()
        sign_left = (-1) ** (0 + q * 1)
        sign_right = -((-1) ** ((2 - q) * 1))
        combined = left.scale(sign_left, p).add(right.scale(sign_right, p), p)
        assert combined.is_zero()
        assert check_structure(rec, q + 1, key).is_zero()

    def test_unit_free_basis_tuples(self, record_3_3):
        rec, _ = record_3_3
        for n in range(2, 7):
            assert check_structure(rec, n, (X,) * n).is_zero()

    def test_mixed_tuples(self, record_2_4):
        rec, _ = record_2_4
        for key in [(Y, X, X), (X, Y, X, X), ((1, 1), X, X, X)]:
            assert check_structure(rec, len(key), key).is_zero()


class TestVerifier:
    def test_full_reports_pass(self, record_2_4, record_3_3):
        for rec, _ in (record_2_4, record_3_3):
            report = verify_structure(rec)
            assert report.passed
            assert report.first_failure is None

    def test_detects_corruption_with_location(self):
        base, _ = computed_record(3, 3, max_arity=6)
        rec = AInfinityRecord(base.algebra, mode="reduced")
        rec.compute_structure(6)
        rec.f_table[(X, X)] = rec.f_table[(X, X)].scale(2)
        report = verify_structure(rec, 6)
        assert not report.passed
        failure = report.first_failure
        assert failure.arity == 2
        assert failure.key == (X, X)
        assert failure.identity == "morphism"
        assert "convention" in (report.convention_hint or "")

    def test_unresolvable_beyond_open_window(self):
        rec, summary = computed_record(2, 4, max_arity=3)
        assert summary.halted_at is None
        with pytest.raises(UnresolvableValue):
            check_structure(rec, 8, (X,) * 8)

    def test_halting_soundness_past_the_window(self, record_3_3):
        # after complete-at-t, the zero-extended structure still satisfies
        # both identity families through arity 2t (beyond what was computed)
        rec, summary = record_3_3
        t = summary.halted_at
        assert t == 4
        for n in range(max(summary.computed_arities) + 1, 2 * t + 1):
            assert check_structure(rec, n, (X,) * n).is_zero()
            assert check_morphism(rec, n, (X,) * n).is_zero()


class TestAlternativeChoices:
    @pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (5, 5)])
    def test_identities_hold_for_any_valid_homotopy(self, p, q):
        # adding a periodic cocycle to f_2 is a different legitimate choice
        # in the inductive step; the identities and the arity-q product
        # class must survive it
        base, _ = computed_record(p, q)
        rec = AInfinityRecord(base.algebra, mode="reduced")
        rec.compute_arity(2)
        rec.f_table[(X, X)] = rec.f_table[(X, X)] + base.algebra.rep_x()
        assert rec.recheck()
        rec.compute_structure(2 * q)
        assert verify_structure(rec, 2 * q).passed
        assert rec.m_table[(X,) * q] == base.m_table[(X,) * q]


class TestPsiCycleGuard:
    def test_corrupted_memo_raises(self):
        from ainfinity.errors import PsiNotCycle
        base, _ = computed_record(2, 4, max_arity=4)
        rec = AInfinityRecord(base.algebra, mode="reduced")
        rec.compute_structure(3)
        # splice a non-cycle component into f_2, making Psi_3 a non-cycle
        value = rec.f_table[(X, X)]
        alg = rec.algebra.resolution.algebra
        junk = dict(value.components)
        junk[6] = alg.one()
        rec.f_table[(X, X)] = rec.algebra.from_components(1, junk)
        with pytest.raises(PsiNotCycle):
            rec.obstruction((X, X, X))


# ----- every term walked ----------------------------------------------------------
#
# The engine and the verifier resolve the inner product of an insertion once
# per inner arity on a word of one repeated letter, and skip its offsets when
# it is zero.  These walks evaluate every term, zero or not, and must agree.

def _insertion_terms(rec, key):
    """(j, k, inner class, outer tuple) of every insertion, none skipped."""
    n = len(key)
    for j in range(2, n):
        for k in range(n - j + 1):
            inner = rec.resolve_product(key[k:k + j])
            outer = key[:k] + (monomial_of_degree(inner.degree),) + key[k + j:]
            yield j, k, inner, outer


def unskipped_obstruction(rec, key):
    n = len(key)
    algebra = rec.algebra
    degrees = [monomial_degree(m) for m in key]
    total = algebra.zero(sum(degrees) + 2 - n)
    for s in range(1, n):
        sign = split_sign(degrees, n, s) if n > 2 else 1
        product = algebra.compose(rec.resolve_map(key[:s]), rec.resolve_map(key[s:]))
        total = total + product.scale(sign)
    for j, k, inner, outer in _insertion_terms(rec, key):
        sign = insertion_sign(degrees, n, k, j)
        total = total + rec.resolve_map(outer).scale(sign * inner.coeff)
    return total


def _verifier_sign(key, degrees, s, r):
    # (-1)^(r+st) with t = n - s - r, and the Koszul sign of m_s passing a_1..a_r
    n = len(key)
    exponent = r + s * (n - s - r) + (2 - s) * sum(degrees[:r])
    return -1 if exponent % 2 else 1


def unskipped_structure_residual(rec, key):
    n, p = len(key), rec.algebra.p
    degrees = [monomial_degree(m) for m in key]
    residual = HomologyClass(sum(degrees) + 3 - n, 0)
    for s, r, inner, outer in _insertion_terms(rec, key):
        coeff = _verifier_sign(key, degrees, s, r) * inner.coeff
        residual = residual.add(rec.resolve_product(outer).scale(coeff, p), p)
    return residual


def unskipped_morphism_residual(rec, key):
    n = len(key)
    algebra = rec.algebra
    degrees = [monomial_degree(m) for m in key]
    total = algebra.zero(max(sum(degrees) + 2 - n, 0))
    for s, r, inner, outer in _insertion_terms(rec, key):
        coeff = _verifier_sign(key, degrees, s, r) * inner.coeff
        total = total + rec.resolve_map(outer).scale(coeff)
    total = total - rec.f1_of_class(rec.resolve_product(key))
    total = total - algebra.differential(rec.resolve_map(key))
    kappa = -1 if n == 2 else 1
    for s in range(1, n):
        exponent = (s - 1) + (1 - (n - s)) * sum(degrees[:s])
        sign = -kappa * (-1 if exponent % 2 else 1)
        product = algebra.compose(rec.resolve_map(key[:s]), rec.resolve_map(key[s:]))
        total = total + product.scale(sign)
    return total


@pytest.mark.parametrize("f1_mode", ["paper", "auto"])
@pytest.mark.parametrize("p,q", [(3, 9), (5, 12)])
def test_pure_x_walks_match_every_term(p, q, f1_mode):
    rec, _ = computed_record(p, q, f1_mode=f1_mode)
    for n in range(2, 2 * q + 1):
        key = (X,) * n
        assert rec.obstruction(key) == unskipped_obstruction(rec, key), n
        assert check_structure(rec, n, key) == unskipped_structure_residual(rec, key), n
        assert check_morphism(rec, n, key) == unskipped_morphism_residual(rec, key), n


class TestCorruptedTables:
    """A corrupted stored value is reported where it was before the inner
    products were resolved once per arity: a wrong m_2(y, x) is read only
    through the insertion of m_q at arity q + 1, and a wrong m_q first
    breaks the morphism identity at arity q, at position 2.  A boundary
    added to f_2(y, x) reaches Psi_(q+1) the same way."""

    @pytest.mark.parametrize("mode", ["reduced", "brute"])
    @pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (5, 5)])
    @pytest.mark.parametrize("key", [(Y, X), (X, Y)])
    def test_map_on_a_y_slot_reaches_the_obstruction(self, mode, p, q, key):
        base, _ = computed_record(p, q, mode=mode)
        rec = AInfinityRecord(base.algebra, mode=mode)
        rec.compute_structure(2 * q)
        word = (X,) * (q + 1)
        before = rec.obstruction(word)
        h = oracle.random_endomorphism(rec.algebra, np.random.default_rng(p * q), 1)
        rec.f_table[key] = rec.resolve_map(key) + rec.algebra.differential(h)
        after = rec.obstruction(word)
        assert after != before
        assert after == unskipped_obstruction(rec, word)
        assert check_morphism(rec, q + 1, word) == unskipped_morphism_residual(rec, word)

    @pytest.mark.parametrize("mode", ["reduced", "brute"])
    @pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (5, 5)])
    @pytest.mark.parametrize("key", [(Y, X), (X, Y)])
    def test_wrong_ring_product_fails_through_the_insertion(self, mode, p, q, key):
        base, _ = computed_record(p, q, mode=mode)
        rec = AInfinityRecord(base.algebra, mode=mode)
        rec.compute_structure(2 * q)
        value = rec.resolve_product(key)
        rec.m_table[key] = HomologyClass(3, (value.coeff + 1) % p)
        report = verify_structure(rec, 2 * q)
        failure = report.first_failure
        assert (failure.identity, failure.arity, failure.key, failure.position) == \
            ("structure", q + 1, (X,) * (q + 1), "degree 3")
        assert report.checked == 2 * q
        n = q + 1
        assert check_structure(rec, n, (X,) * n) == \
            unskipped_structure_residual(rec, (X,) * n)

    @pytest.mark.parametrize("mode", ["reduced", "brute"])
    @pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (5, 5)])
    def test_wrong_mq_fails_the_morphism_identity(self, mode, p, q):
        base, _ = computed_record(p, q, mode=mode)
        rec = AInfinityRecord(base.algebra, mode=mode)
        rec.compute_structure(2 * q)
        key = (X,) * q
        rec.m_table[key] = HomologyClass(2, (rec.m_table[key].coeff + 1) % p)
        failure = verify_structure(rec, 2 * q).first_failure
        assert (failure.identity, failure.arity, failure.key, failure.position) == \
            ("morphism", q, key, 2)
        for n in range(q + 1, 2 * q + 1):
            assert check_structure(rec, n, (X,) * n) == \
                unskipped_structure_residual(rec, (X,) * n)
