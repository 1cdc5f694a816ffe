"""Independent identity verification: residuals, failure reporting."""

import pytest

from conftest import computed_record
from ainfinity.errors import UnresolvableValue
from ainfinity.kadeishvili import AInfinityRecord, X, Y
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
