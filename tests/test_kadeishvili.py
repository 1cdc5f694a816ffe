"""The inductive algorithm: signs, obstructions, memo tables, reductions."""

import numpy as np
import pytest

from conftest import SWEEP, computed_record
from ainfinity.cli import default_truncation
from ainfinity.endo_dga import EndomorphismAlgebra, HomologyClass
from ainfinity.errors import (CertificateMissing, CommutationFailure,
                              DimensionMismatch, InvalidParameter,
                              UnresolvableValue)
from ainfinity.kadeishvili import (AInfinityRecord, HElement,
                                   PeriodicityCertificate, UNIT, X, Y,
                                   first_complete_arity, insertion_sign,
                                   monomial_degree, split_sign)
from ainfinity.resolution import build_cyclic_resolution


class TestSigns:
    def test_split_anchor_degree_one(self):
        # three degree-1 inputs at arity 3, split after the first
        assert split_sign([1, 1, 1], 3, 1) == 1

    def test_split_last_position_zero_degrees(self):
        for n in range(2, 8):
            expected = -1 if (n - 1) % 2 else 1
            assert split_sign([0] * n, n, n - 1) == expected

    def test_arity_three_coefficient_anchors(self):
        # the four exponent forms and the four evaluated signs
        for da in range(4):
            for db in range(4):
                degrees = [da, db, 2]
                assert split_sign(degrees, 3, 1) == (-1) ** (1 + da)
                assert split_sign(degrees, 3, 2) == 1
                assert insertion_sign(degrees, 3, 0, 2) == 1
                assert insertion_sign(degrees, 3, 1, 2) == -1

    def test_insertion_even_inner_at_zero_offset(self):
        # k = 0 and even j: the exponent reduces to j(n - j), always even
        for n in range(4, 9):
            for j in range(2, n, 2):
                assert insertion_sign([1] * n, n, 0, j) == 1

    def test_range_validation(self):
        with pytest.raises(InvalidParameter):
            split_sign([1, 1], 2, 2)
        with pytest.raises(InvalidParameter):
            insertion_sign([1, 1, 1], 3, 2, 2)
        with pytest.raises(InvalidParameter):
            insertion_sign([1, 1, 1], 3, 0, 3)


class TestObstruction:
    def test_base_case_is_composition(self, record_2_4):
        rec, _ = record_2_4
        algebra = rec.algebra
        psi = rec.obstruction((X, X))
        assert psi == algebra.compose(algebra.rep_x(), algebra.rep_x())

    def test_arity_three_shape(self, record_2_4):
        # only the two product terms survive on (x, x, x): the inner
        # m_2(x, x) class vanishes, so both insertion terms drop out
        rec, _ = record_2_4
        algebra = rec.algebra
        xi = algebra.rep_x()
        f2 = rec.f_table[(X, X)]
        expected = (algebra.compose(xi, f2).scale(split_sign([1, 1, 1], 3, 1))
                    + algebra.compose(f2, xi).scale(split_sign([1, 1, 1], 3, 2)))
        assert rec.obstruction((X, X, X)) == expected

    def test_unit_tuples_vanish_exactly(self, record_2_4, record_3_3):
        for rec, _ in (record_2_4, record_3_3):
            assert rec.obstruction((UNIT, X, X)).is_zero()
            assert rec.obstruction((X, UNIT, X)).is_zero()
            assert rec.obstruction((X, X, UNIT)).is_zero()
            assert rec.obstruction((UNIT, Y)).is_zero() is False  # id o eta
            assert rec.obstruction((UNIT, X, X, X)).is_zero()

    @pytest.mark.parametrize("mode", ["reduced", "brute"])
    def test_arity_before_its_predecessors_is_unresolvable(self, mode):
        # the obstruction reads f_4, whose arity was never computed
        algebra = EndomorphismAlgebra(build_cyclic_resolution(3, 3, 20))
        rec = AInfinityRecord(algebra, mode=mode)
        with pytest.raises(UnresolvableValue, match="arity 4 has not been computed"):
            rec.compute_arity(5)
        assert not rec.computed_arities and not rec.m_table and not rec.f_table


class TestGoldenStructures:
    def test_q4_char2(self, record_2_4):
        rec, summary = record_2_4
        alg = rec.algebra.resolution.algebra
        assert summary.halted_at == 5
        assert rec.m_table[(X, X)].is_zero()
        assert rec.m_table[(X,) * 3].is_zero()
        m4 = rec.m_table[(X,) * 4]
        assert m4.degree == 2 and m4.coords == (1,)
        for k in range(5, 9):
            assert rec.m_table[(X,) * k].is_zero()
            assert rec.f_table[(X,) * k].is_zero()
        f2, f3 = rec.f_table[(X, X)], rec.f_table[(X,) * 3]
        for n in f2.position_range():
            assert f2.component(n) == (
                alg.alpha(1, coeff=-1) if n % 2 == 0 else alg.zero())
        for n in f3.position_range():
            assert f3.component(n) == (
                alg.scalar(-1) if n % 2 == 0 else alg.zero())
        assert rec.f_table[(X,) * 4].is_zero()

    def test_q3_char3(self, record_3_3):
        rec, summary = record_3_3
        assert summary.halted_at == 4
        m3 = rec.m_table[(X,) * 3]
        assert m3.degree == 2 and m3.coords == (1,)
        assert rec.m_table[(X, X)].is_zero()
        for k in (4, 5, 6):
            assert rec.m_table[(X,) * k].is_zero()
            assert rec.f_table[(X,) * k].is_zero()

    def test_m_q_minus_one_computed_not_assumed(self, record_2_4):
        # q - 1 = 3 vanishing comes out of the solve, not a shortcut:
        # the memo holds an actual entry for the tuple
        rec, _ = record_2_4
        assert (X,) * 3 in rec.m_table
        assert rec.m_table[(X,) * 3].is_zero()
        assert not rec.f_table[(X,) * 3].is_zero()

    def test_degree_bookkeeping(self, record_2_4, record_3_3):
        for rec, _ in (record_2_4, record_3_3):
            for key, value in rec.m_table.items():
                total = sum(monomial_degree(m) for m in key)
                assert value.degree == total + 2 - len(key)
            for key, value in rec.f_table.items():
                total = sum(monomial_degree(m) for m in key)
                if not value.is_zero():
                    assert value.degree == total + 1 - len(key)

    def test_defining_equation_every_entry(self, record_2_4, record_3_3):
        for rec, _ in (record_2_4, record_3_3):
            assert rec.recheck()

    def test_unitality_shortcuts(self, record_2_4):
        rec, _ = record_2_4
        before = (len(rec.m_table), len(rec.f_table))
        assert rec.high_product((X, UNIT, X)).is_zero()
        assert rec.high_map((X, UNIT, X)).is_zero()
        assert rec.high_product((UNIT, X)).coords == (1,)  # m_2(1, x) = x
        assert (len(rec.m_table), len(rec.f_table)) == before

    def test_negative_degree_zero_class(self, record_2_4):
        # m_3(1, 1, 1) has degree 0 + 2 - 3 = -1, where only zero lives
        rec, _ = record_2_4
        assert rec.resolve_product((UNIT,) * 3) == HomologyClass(-1, 0)


class TestLinearExtension:
    def test_polynomial_multiple_of_product(self, record_2_4):
        rec, _ = record_2_4
        m, f = rec.extend_linear([(1, 1), X, X, X])
        assert str(m) == "y^2"
        assert f.is_zero()  # f_4(x,x,x,x) = 0, so the shift is zero too

    def test_shifted_map_equality(self, record_2_4):
        rec, _ = record_2_4
        _, f = rec.extend_linear([(1, 1), X])
        expected = rec.algebra.compose(rec.zeta_power(1), rec.f_table[(X, X)])
        assert f == expected

    def test_scalar_unit_slot(self, record_2_4):
        rec, _ = record_2_4
        m, f = rec.extend_linear([HElement.monomial(2, UNIT, 1), X, X])
        assert m.is_zero() and f.is_zero()

    def test_inhomogeneous_slot_rejected(self, record_2_4):
        # only a map whose nonzero terms fall in two degrees is refused:
        # f_2(x, x) has degree 1 and f_2(y*x, x) degree 3
        rec, _ = record_2_4
        mixed = HElement(2, {X: 1, (1, 1): 1})
        with pytest.raises(InvalidParameter, match="degrees 1 and 3"):
            rec.extend_linear([mixed, X])

    def test_inhomogeneous_slot_with_one_map_degree_answered(self, record_2_4):
        # f_2(y, x) is zero (a pure-y slot), so the map is f_2(x, x) alone,
        # and the product is m_2(x, x) + m_2(y, x) = x*y
        rec, _ = record_2_4
        mixed = HElement(2, {X: 1, (0, 1): 1})
        m, f = rec.extend_linear([mixed, X])
        assert str(m) == "x*y"
        assert f == rec.f_table[(X, X)]

    def test_inhomogeneous_zero_map_takes_the_lowest_degree(self, record_2_4):
        # the slots of the unmended refusal: f_4 is zero on both expansions
        rec, _ = record_2_4
        m, f = rec.extend_linear([HElement(2, {X: 1, (1, 1): 1}), X, X, X])
        assert str(m) == "y + y^2"
        assert f.is_zero() and f.degree == 1

    @pytest.mark.parametrize("slot", [(2, 0), (1, -1), HElement(3, {(2, 0): 1})])
    def test_slot_outside_the_monomial_basis_rejected(self, record_3_3, slot):
        # x^2 = 0 and a negative y-power are no basis monomials: (2, 0) read
        # as x*x gave m = y, and (1, -1) ended in a differential index error
        rec, _ = record_3_3
        with pytest.raises(InvalidParameter, match="bad monomial"):
            rec.extend_linear([slot, X, X])

    @pytest.mark.parametrize("coeff", [3, 4])
    def test_element_over_another_prime_rejected(self, record_3_3, coeff):
        # read mod 3, 3*x was the zero slot (m = 0) and 4*x was x (m = y)
        rec, _ = record_3_3
        with pytest.raises(InvalidParameter, match="over F_5, not F_3"):
            rec.extend_linear([HElement(5, {X: coeff}), X, X])

    def test_gate_requires_certificate_or_commutation(self, record_2_4):
        # the certificate is the commutation check, so it alone opens the gate
        rec, _ = record_2_4
        saved_cert = dict(rec.certificates)
        try:
            rec.certificates.clear()
            with pytest.raises(CertificateMissing):
                rec.resolve_map((X, (1, 1)))
            with pytest.raises(CertificateMissing):
                rec.resolve_product((X, X, (1, 1)))
        finally:
            rec.certificates.update(saved_cert)


class TestCertification:
    def test_certificates_granted(self, record_2_4):
        rec, summary = record_2_4
        assert summary.periodic_arities == sorted(summary.computed_arities)
        cert = rec.certify_periodicity(2)
        assert isinstance(cert, PeriodicityCertificate)
        assert cert.period == 2

    def test_zeta_components_are_identities(self):
        # the precondition under which the certificate is the commutation
        # check: the y-cocycle is the identity shift in both f1 modes
        for p, q in SWEEP:
            resolution = build_cyclic_resolution(p, q, default_truncation(2 * q))
            identity = resolution.algebra.one()
            for f1_mode in ("paper", "auto"):
                rec = AInfinityRecord(EndomorphismAlgebra(resolution, f1_mode=f1_mode))
                zeta = rec.zeta_power(1)
                for n in zeta.position_range():
                    assert zeta.component(n) == identity, (p, q, f1_mode, n)

    def test_perturbed_value_fails_with_tuple(self):
        rec, _ = computed_record(3, 3, max_arity=4)
        rec2 = AInfinityRecord(rec.algebra, mode="reduced")
        rec2.compute_structure(4)
        key = (X, X)
        broken = dict(rec2.f_table[key].components)
        broken[4] = broken[4].scale(2)
        rec2.f_table[key] = rec2.algebra.from_components(1, broken)
        rec2.certificates.pop(2, None)
        with pytest.raises(CommutationFailure, match=r"f_2\(x, x\)"):
            rec2.certify_periodicity(2)
        assert 2 not in rec2.certificates

    def test_unexpected_errors_propagate(self, monkeypatch):
        # only NotPeriodic is a certification outcome (as CommutationFailure);
        # anything else is a fault and must propagate unchanged
        algebra = EndomorphismAlgebra(build_cyclic_resolution(2, 4, 20))
        rec = AInfinityRecord(algebra, mode="reduced")

        def broken(f):
            raise DimensionMismatch("injected")

        monkeypatch.setattr(algebra, "periodic_compact", broken)
        with pytest.raises(DimensionMismatch, match="injected"):
            rec.compute_arity(2)
        assert not rec.certificates

    def test_commutation_abort_on_corruption(self):
        rec, _ = computed_record(2, 4, max_arity=3)
        rec2 = AInfinityRecord(rec.algebra, mode="reduced")
        rec2.compute_structure(3)
        key = (X, X)
        value = rec2.f_table[key]
        alg = rec2.algebra.resolution.algebra
        broken = dict(value.components)
        broken[4] = alg.alpha(3)
        rec2.f_table[key] = rec2.algebra.from_components(1, broken)
        with pytest.raises(CommutationFailure):
            rec2._certify(2)

    def test_corrupted_homotopy_aborts_the_run(self, monkeypatch):
        # a stored f_2 that does not repeat with the period stops the run
        # at its own arity, before anything extends it linearly
        algebra = EndomorphismAlgebra(build_cyclic_resolution(2, 4, 20))
        rec = AInfinityRecord(algebra, mode="reduced")
        solve = algebra.nullhomotopy
        alg = algebra.resolution.algebra

        def corrupted(f):
            value = solve(f)
            broken = dict(value.components)
            broken[4] = alg.alpha(3)
            return algebra.from_components(value.degree, broken)

        monkeypatch.setattr(algebra, "nullhomotopy", corrupted)
        with pytest.raises(CommutationFailure, match=r"f_2\(x, x\)"):
            rec.compute_structure(8)
        assert rec.computed_arities == {2} and not rec.certificates

    def test_non_identity_zeta_aborts_at_arity_two(self, monkeypatch):
        # y's representative scaled by the unit 2 of F_3 is still a cocycle
        # of the right class, but not the identity shift y-linearity needs
        algebra = EndomorphismAlgebra(build_cyclic_resolution(3, 3, 28))
        basis = algebra.homology_basis

        def scaled(degree):
            found = basis(degree)
            return found.scale(2) if degree == 2 else found

        monkeypatch.setattr(algebra, "homology_basis", scaled)
        rec = AInfinityRecord(algebra, mode="reduced")
        with pytest.raises(CommutationFailure, match="not the identity"):
            rec.compute_structure(6)
        assert rec.computed_arities == {2} and not rec.certificates


class TestHalting:
    def test_window_arithmetic_t5(self):
        flags = {k: k >= 5 for k in range(2, 9)}
        assert first_complete_arity(flags, set(range(2, 9))) == 5
        # missing part of the window keeps the run open
        assert first_complete_arity(flags, set(range(2, 8))) is None

    def test_nonzero_blocks_window(self):
        flags = {2: False, 3: False, 4: False, 5: True, 6: True}
        assert first_complete_arity(flags, {2, 3, 4, 5, 6}) is None

    def test_randomized_against_reference(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            top = int(rng.integers(2, 12))
            computed = set(range(2, top + 1))
            flags = {k: bool(rng.integers(0, 2)) for k in computed}
            got = first_complete_arity(flags, computed)
            expected = None
            for t in range(2, top + 2):
                window = list(range(t, 2 * t - 1))
                if all(k in computed and flags[k] for k in window):
                    expected = t
                    break
            assert got == expected

    def test_values_beyond_halting_are_zero_without_solving(self, record_3_3):
        rec, summary = record_3_3
        assert summary.halted_at == 4
        size = len(rec.m_table)
        value = rec.high_product((X,) * 9)
        assert value.is_zero()
        assert rec.high_map((X,) * 9).is_zero()
        assert len(rec.m_table) == size


class TestBruteOracle:
    def test_modes_agree_small(self):
        red, _ = computed_record(2, 4, max_arity=4, truncation=44)
        brute, _ = computed_record(2, 4, max_arity=4, truncation=44, mode="brute")
        keys = set(red.m_table) | set(brute.m_table)
        for key in keys:
            assert red.resolve_product(key) == brute.resolve_product(key)

    def test_direct_computation_reproduces_extended_values(self):
        # stronger than the product-level oracle: on y-heavy tuples the
        # direct recursion reproduces the shifted homotopies exactly,
        # component for component
        import itertools
        red, _ = computed_record(3, 3, max_arity=4, truncation=60)
        brute, _ = computed_record(3, 3, max_arity=4, truncation=60, mode="brute")
        monos = [(1, 0), (1, 1), (1, 2)]
        for n in (2, 3, 4):
            for key in itertools.product(monos, repeat=n):
                if sum(e + 2 * j for e, j in key) > 10:
                    continue
                assert red.resolve_product(key) == brute.resolve_product(key)
                assert red.resolve_map(key) == brute.resolve_map(key)

    def test_brute_memoizes_mixed_tuples(self):
        brute, _ = computed_record(3, 3, max_arity=5, truncation=44, mode="brute")
        mixed = [k for k in brute.m_table if any(m != X for m in k)]
        assert mixed
        assert brute.recheck()


class TestBeyondTheSweep:
    @pytest.mark.parametrize("p,q", [(2, 6), (3, 5), (7, 7)])
    def test_general_exponents(self, p, q):
        # q need not be a power of p for the truncated polynomial family
        rec, summary = computed_record(p, q)
        assert summary.halted_at == q + 1
        mq = rec.m_table[(X,) * q]
        assert mq.degree == 2 and not mq.is_zero()
        if p == 2:
            assert mq.coords == (1,)


class TestAutoMode:
    def test_auto_reduced_run_has_invariant_pattern(self):
        rec, summary = computed_record(2, 4, f1_mode="auto")
        assert summary.halted_at == 5
        assert rec.m_table[(X,) * 3].is_zero()
        m4 = rec.m_table[(X,) * 4]
        assert m4.degree == 2 and not m4.is_zero()

    def test_auto_brute_matches_vanishing(self):
        rec, summary = computed_record(3, 3, max_arity=6, truncation=44,
                                       mode="brute", f1_mode="auto")
        assert summary.halted_at == 4
        m3 = rec.m_table[(X,) * 3]
        assert m3.degree == 2 and not m3.is_zero()

    def test_auto_builds_its_section_as_paper_does(self, monkeypatch):
        # representatives above degree 2, which y-multiplied values reach
        # through zeta powers, are composites of the two generators; "auto"
        # negates x and builds no flattened matrix beyond the cycle checks
        counts = {}
        for f1_mode in ("paper", "auto"):
            algebra = EndomorphismAlgebra(build_cyclic_resolution(3, 3, 28),
                                          f1_mode=f1_mode)
            d_matrix = algebra.d_matrix
            degrees = []

            def recording(degree, d_matrix=d_matrix, degrees=degrees):
                degrees.append(degree)
                return d_matrix(degree)

            monkeypatch.setattr(algebra, "d_matrix", recording)
            rec = AInfinityRecord(algebra, mode="reduced")
            rec.compute_structure(6)
            for slots in ([(1, 1), X, X], [(1, 2), (1, 1), X], [(1, 3)]):
                rec.extend_linear(slots)
            assert max(algebra._basis) == 7
            counts[f1_mode] = sorted(degrees)
        assert counts["auto"] == counts["paper"]
