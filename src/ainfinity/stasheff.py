"""Independent verification of the Stasheff identities on a computed structure.

`check_structure` evaluates the associativity-tower identity

    sum_(r+s+t=n) (-1)^(r+st) m_(r+1+t)(id^r (x) m_s (x) id^t) = 0

on a tuple, applying the Koszul evaluation sign (-1)^((2-s)(|a_1|+...+|a_r|))
when the inner operation passes the first r arguments.  `check_morphism`
evaluates the corresponding morphism identity against the dg-algebra
operations (differential and composition):

    sum_(r+s+t=n, 1 < s < n) (-1)^(r+st) Koszul . f_(r+1+t)(id^r (x) m_s (x) id^t)
      - f_1(m_n(...)) - D f_n(...)
      - kappa(n) sum_s (-1)^(s-1) (-1)^((1-(n-s))(|a_1|+...+|a_s|)) f_s(...) o f_(n-s)(...)

with kappa(2) = -1 and kappa(n) = +1 otherwise.  The signs here are
computed directly from the (r, s, t) and composition data with the
operator degrees |m_s| = 2 - s and |f_i| = 1 - i, never through the
engine's own sign exponents, so agreement is a genuine cross-check.
The kappa twist and the negated f_1(m_n) term are the calibrated pairing
between the map-level identity and the element-level evaluation: the
arity-2 defining equation D f_2 = f_1(a)f_1(b) - f_1(ab) pins both, and
the characteristic-2 and odd-characteristic golden runs confirm them.

Residuals are exact; a report lists the first failing (arity, tuple,
position) triple for debuggability of sign errors.  A nonzero residual
in odd characteristic with clean characteristic-2 runs indicates a
convention mismatch between sign layers, not a wrong algebra; the report
flags this case explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .endo_dga import GradedEndomorphism, HomologyClass
from .errors import InvalidParameter
from .kadeishvili import (AInfinityRecord, X, monomial_degree, monomial_name,
                          monomial_of_degree)


def _insertions(record: AInfinityRecord, key: tuple, degrees: list):
    """(signed coefficient, outer tuple) of each term id^r (x) m_s (x) id^t
    with an interior s, 1 < s < n, that is nonzero on the tuple: the sign
    (-1)^(r+st), the Koszul sign (-1)^((2-s)(|a_1|+...+|a_r|)) and the
    coefficient of the inner class, whose monomial takes the place of
    a_(r+1)..a_(r+s) in the outer tuple."""
    n = len(key)
    # when every a_i is the same monomial, m_s takes one value at every r
    same = all(m == key[0] for m in key)
    for s in range(2, n):
        first = record.resolve_product(key[:s]) if same else None
        if first is not None and first.is_zero():
            continue
        for r in range(0, n - s + 1):
            inner = first if same else record.resolve_product(key[r:r + s])
            if inner.is_zero():
                continue
            exponent = r + s * (n - s - r) + (2 - s) * sum(degrees[:r])
            outer = key[:r] + (monomial_of_degree(inner.degree),) + key[r + s:]
            yield (-1 if exponent % 2 else 1) * inner.coeff, outer


def check_structure(record: AInfinityRecord, n: int, key) -> HomologyClass:
    """Exact residual of the arity-n structure identity on the tuple.

    Terms with an inner or outer m_1 vanish because the structure is
    minimal; what remains are the splits with 2 <= s <= n-1.
    """
    key = tuple(key)
    if len(key) != n:
        raise InvalidParameter(f"tuple has length {len(key)}, expected {n}")
    p = record.algebra.p
    degrees = [monomial_degree(m) for m in key]
    residual = HomologyClass(sum(degrees) + 3 - n, 0)
    for coeff, outer in _insertions(record, key, degrees):
        value = record.resolve_product(outer)
        if not value.is_zero():
            residual = residual.add(value.scale(coeff, p), p)
    return residual


def check_morphism(record: AInfinityRecord, n: int, key) -> GradedEndomorphism:
    """Exact residual of the arity-n morphism identity on the tuple.

    The right-hand side uses the dg-algebra operations only: m_1 is the
    induced differential and m_2 is composition; higher operations of the
    dg-algebra vanish.
    """
    key = tuple(key)
    if len(key) != n:
        raise InvalidParameter(f"tuple has length {len(key)}, expected {n}")
    algebra = record.algebra
    degrees = [monomial_degree(m) for m in key]
    residual_degree = sum(degrees) + 2 - n
    total = algebra.zero(max(residual_degree, 0))

    if n == 1:
        f1 = record.resolve_map(key)
        return algebra.differential(f1).scale(-1)

    # insertion side: f_(n-s+1)(id^r (x) m_s (x) id^t) for interior s
    for coeff, outer in _insertions(record, key, degrees):
        value = record.resolve_map(outer)
        if not value.is_zero():
            total = total + value.scale(coeff)

    # the two isolated terms: f_1(m_n) and the differential of f_n
    full = record.resolve_product(key)
    if not full.is_zero():
        total = total - record.f1_of_class(full)
    fn = record.resolve_map(key)
    if not fn.is_zero():
        total = total - algebra.differential(fn)

    # composition side: m_2(f_s (x) f_(n-s)) with w = s - 1
    kappa = -1 if n == 2 else 1
    for s in range(1, n):
        left = record.resolve_map(key[:s])
        right = record.resolve_map(key[s:])
        if left.is_zero() or right.is_zero():
            continue
        exponent = (s - 1) + (1 - (n - s)) * sum(degrees[:s])
        sign = -kappa * (-1 if exponent % 2 else 1)
        total = total + algebra.compose(left, right).scale(sign)
    return total


@dataclass(frozen=True)
class VerificationFailure:
    identity: str  # "structure" or "morphism"
    arity: int
    key: tuple
    position: object  # component position for maps, degree for classes

    def __str__(self):
        tup = "(" + ", ".join(monomial_name(m) for m in self.key) + ")"
        return (f"{self.identity} identity fails at arity {self.arity} on {tup} "
                f"at {self.position}")


@dataclass(frozen=True)
class VerificationReport:
    max_arity: int
    checked: int
    passed: bool
    first_failure: VerificationFailure | None
    convention_hint: str | None = None

    def __str__(self):
        if self.passed:
            return (f"verification: pass ({self.checked} identities through "
                    f"arity {self.max_arity})")
        msg = f"verification: FAIL ({self.first_failure})"
        if self.convention_hint:
            msg += f"\n  hint: {self.convention_hint}"
        return msg


def verify_structure(record: AInfinityRecord,
                     max_arity: int | None = None) -> VerificationReport:
    """Run both identity families on the tuples (x, ..., x) up to max_arity.

    Stops at the first failure and reports its (arity, tuple, position).
    """
    if max_arity is None:
        max_arity = 2 * record.algebra.q
    checked = 0
    for n in range(1, max_arity + 1):
        key = (X,) * n
        if n >= 2:
            residual = check_structure(record, n, key)
            checked += 1
            if not residual.is_zero():
                return VerificationReport(
                    max_arity, checked, False,
                    VerificationFailure("structure", n, key,
                                        f"degree {residual.degree}"),
                    convention_hint=_hint(record))
        residual = check_morphism(record, n, key)
        checked += 1
        if not residual.is_zero():
            position = min(residual.components)
            return VerificationReport(
                max_arity, checked, False,
                VerificationFailure("morphism", n, key, position),
                convention_hint=_hint(record))
    return VerificationReport(max_arity, checked, True, None)


def _hint(record: AInfinityRecord) -> str:
    if record.algebra.p != 2:
        return ("odd characteristic: if the characteristic-2 run is clean, "
                "the sign pairing between the engine and the verifier is the "
                "culprit (convention mismatch), not the algebra")
    return "characteristic 2: signs cannot be at fault; inspect the tables"
