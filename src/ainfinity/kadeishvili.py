"""Inductive extraction of the minimal A-infinity structure on homology.

The record computes, arity by arity, the higher products m_n (as homology
classes) and the quasi-isomorphism components f_n (as endomorphisms of
the resolution) from the obstruction cycle

    Psi_n = sum_s  (-1)^eps1 f_s(a_1..a_s) o f_(n-s)(a_(s+1)..a_n)
          + sum_(j,k) (-1)^eps2 f_(n-j+1)(a_1..a_k, m_j(...), ..., a_n)

with the sign exponents

    eps1(s)   = s + (n - s + 1) (|a_1| + ... + |a_s|)
    eps2(k,j) = k + j (n - k - j + |a_1| + ... + |a_k|)

and the arity-2 base case Psi_2 = f_1(a_1) o f_1(a_2).  Then
m_n = [Psi_n] and f_n is the canonical nullhomotopy of
Psi_n - f_1(m_n).

Homology elements are written over the monomial basis x^e y^j
(e in {0,1}) of the exterior-times-polynomial cohomology ring of the
cyclic resolution, with y the distinguished polynomial class z.  Two
reductions keep the computation finite:

* polynomial-class linearity: values on tuples with y-powers are the
  basis values composed with powers of the y-cocycle zeta.  This needs
  every stored f_n to commute with zeta, and the per-arity periodicity
  certificate is that check: once zeta is known to be the identity shift
  (checked once per record), (zeta o f)_n = f_n and (f o zeta)_n = f_(n-2),
  so commutation is exactly f_n = f_(n+2) on the window;
* the halting window: once m_k and f_k vanish for t <= k <= 2t - 2,
  every higher arity is zero.

"brute" mode disables the linearity shortcut and computes y-multiplied
tuples directly through the same recursion, which is the oracle the
reduced mode is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .endo_dga import EndomorphismAlgebra, GradedEndomorphism, HomologyClass
from .errors import (CertificateMissing, CommutationFailure, InvalidParameter,
                     NotPeriodic, PsiNotCycle, TruncationTooShort,
                     UnresolvableValue)

Monomial = tuple  # (e, j) meaning x^e * y^j with e in {0, 1}
UNIT: Monomial = (0, 0)
X: Monomial = (1, 0)
Y: Monomial = (0, 1)


def monomial_degree(mono: Monomial) -> int:
    e, j = mono
    return e + 2 * j


def monomial_of_degree(degree: int) -> Monomial:
    return (degree % 2, degree // 2)


def monomial_name(mono: Monomial) -> str:
    e, j = mono
    if e == 0 and j == 0:
        return "1"
    parts = []
    if e:
        parts.append("x")
    if j:
        parts.append("y" if j == 1 else f"y^{j}")
    return "*".join(parts)


class HElement:
    """Formal F_p-combination of basis monomials of the cohomology ring."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict | None = None):
        self.p = p
        clean = {}
        for mono, c in (terms or {}).items():
            c = int(c) % p
            if c:
                clean[(int(mono[0]), int(mono[1]))] = c
        self.terms = clean

    @classmethod
    def monomial(cls, p: int, mono: Monomial, coeff: int = 1) -> "HElement":
        return cls(p, {mono: coeff})

    @classmethod
    def from_class(cls, p: int, value: HomologyClass) -> "HElement":
        if value.is_zero():
            return cls(p)
        return cls(p, {monomial_of_degree(value.degree): value.coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, c: int) -> "HElement":
        return HElement(self.p, {m: v * c for m, v in self.terms.items()})

    def degrees(self) -> set:
        return {monomial_degree(m) for m in self.terms}

    def __eq__(self, other) -> bool:
        return isinstance(other, HElement) and self.p == other.p and self.terms == other.terms

    __hash__ = None

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (monomial_degree(m), m)):
            c = self.terms[mono]
            name = monomial_name(mono)
            if name == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(name)
            else:
                parts.append(f"{c}*{name}")
        return " + ".join(parts)

    __repr__ = __str__


# ----- value resolution ---------------------------------------------------------
#
# Only the pure-x values m_n(x, ..., x) and f_n(x, ..., x) are stored (brute
# mode also stores what the recursion reaches); these rules give every other
# tuple.  The record and the structure-file reader both resolve through
# `lookup` and `product_value`, and differ only in their `fill` hook.

def ring_product(key: tuple) -> int:
    """Coefficient of m_2 on a pair of basis monomials: 0 when both carry x
    (x^2 = 0), else 1; the product has the sum of the two degrees."""
    return 0 if key[0][0] and key[1][0] else 1


def lookup(key: tuple, stored, halted_at: int | None, linear: bool, fill):
    """m_n or f_n (n >= 2) on a monomial tuple as `(value, e)`, the stored
    `value` multiplied by y^e, or None when it is zero.

    Zero: a unit slot (strict unitality), an arity at or past `halted_at`,
    or, when `linear`, a slot that is a pure y-power (a y-multiple of the
    unit).  A value stored under the tuple itself is returned with e = 0.
    Any other value is read after `fill(key)`, which raises when it cannot
    be given: without `linear`, the tuple's own value, which `fill` stores;
    with it, the y-linear extension of the arity's pure-x value.
    """
    if UNIT in key:
        return None
    value = stored.get(key)
    if value is not None:
        return value, 0
    n = len(key)
    if halted_at is not None and n >= halted_at:
        return None
    if not linear:
        fill(key)
        return stored[key], 0
    if not all(e for e, _ in key):
        return None
    fill(key)
    return stored[(X,) * n], sum(j for _, j in key)


def product_value(key: tuple, stored, halted_at: int | None, linear: bool,
                  fill) -> HomologyClass:
    """m_n on a monomial tuple: zero at arity 1 (the structure is minimal),
    the stored entry or else the ring product at arity 2, and `lookup`
    above; a y^e-extension raises the degree by 2e, and a zero class has
    degree |a_1| + ... + |a_n| + 2 - n.

    A stored arity-2 entry wins over the ring product: brute mode stores
    the class of the composed representatives, and reading it keeps the
    oracle comparison honest."""
    n = len(key)
    if n == 2:
        value = stored.get(key)
        if value is not None:
            return value
        return HomologyClass(monomial_degree(key[0]) + monomial_degree(key[1]),
                             ring_product(key))
    found = lookup(key, stored, halted_at, linear, fill) if n > 2 else None
    if found is None:
        return HomologyClass(sum(monomial_degree(m) for m in key) + 2 - n, 0)
    value, e = found
    return HomologyClass(value.degree + 2 * e, value.coeff) if e else value


def monomial_terms(slots, p: int):
    """(monomial tuple, coefficient) over the multilinear expansion of a
    tuple of HElements."""
    for combo in itertools.product(*(s.terms.items() for s in slots)):
        coeff = 1
        for _, c in combo:
            coeff = coeff * c % p
        yield tuple(mono for mono, _ in combo), coeff


def linear_product(slots, p: int, product) -> HElement:
    """m_n on a tuple of HElements: the multilinear expansion of `product`,
    which maps a monomial tuple to its HomologyClass."""
    terms = {}
    for key, coeff in monomial_terms(slots, p):
        value = product(key)
        if value.coeff:
            mono = monomial_of_degree(value.degree)
            terms[mono] = terms.get(mono, 0) + value.coeff * coeff
    return HElement(p, terms)


# ----- signs of the obstruction ------------------------------------------------

def split_sign(degrees, n: int, s: int) -> int:
    """Sign of the product term f_s . f_(n-s) in the obstruction."""
    if not 1 <= s <= n - 1:
        raise InvalidParameter(f"split position {s} outside 1..{n - 1}")
    exponent = s + (n - s + 1) * sum(degrees[:s])
    return -1 if exponent % 2 else 1


def insertion_sign(degrees, n: int, k: int, j: int) -> int:
    """Sign of the insertion term f_(n-j+1)(..., m_j(...), ...)."""
    if not 2 <= j <= n - 1:
        raise InvalidParameter(f"inner arity {j} outside 2..{n - 1}")
    if not 0 <= k <= n - j:
        raise InvalidParameter(f"offset {k} outside 0..{n - j}")
    exponent = k + j * (n - k - j + sum(degrees[:k]))
    return -1 if exponent % 2 else 1


# ----- certificates -------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicityCertificate:
    arity: int
    period: int
    compacts: dict  # key -> CompactForm


def first_complete_arity(flags: dict, computed) -> int | None:
    """Smallest t whose whole window [t, 2t-2] is computed with zero flags.

    `flags[k]` is True when every stored arity-k value vanished; the
    window must be fully computed for the extension theorem to apply.
    """
    computed = set(computed)
    if not computed:
        return None
    for t in range(2, max(computed) + 2):
        window = range(t, 2 * t - 1)
        if all(k in computed and flags.get(k, False) for k in window):
            return t
    return None


# ----- the record ---------------------------------------------------------------

@dataclass
class StructureSummary:
    p: int
    q: int
    f1_mode: str
    truncation: int
    computed_arities: list
    nonzero_products: list  # [(key, HomologyClass)]
    nonzero_map_keys: list
    halted_at: int | None
    mq_sign: int | None
    periodic_arities: list

    @property
    def status(self) -> str:
        return "open" if self.halted_at is None else f"complete-at-{self.halted_at}"


def check_max_arity(max_arity: int):
    """Raise InvalidParameter unless the structure is asked through arity 2
    at least, the lowest arity computed."""
    if max_arity < 2:
        raise InvalidParameter("max arity must be at least 2")


class AInfinityRecord:
    """Memoized state of one structure computation.

    Keys of the memo tables are tuples of monic monomials; in reduced
    mode only the pure-x basis tuples are ever solved, in brute mode any
    monomial tuple reachable from the recursion is.  Every stored f
    value satisfies D f = Psi - f_1(m) exactly (`recheck` re-verifies).

    Arities are strictly stratified: arity n reads only arities below n,
    so tuples within one arity are independent of each other, and
    certification and halting transitions both happen at the arity
    boundary.
    """

    def __init__(self, algebra: EndomorphismAlgebra, mode: str = "reduced"):
        if mode not in ("reduced", "brute"):
            raise InvalidParameter(f"unknown mode {mode!r}")
        self.algebra = algebra
        self.mode = mode
        self.m_table: dict[tuple, HomologyClass] = {}
        self.f_table: dict[tuple, GradedEndomorphism] = {}
        self.zero_flags: dict[int, bool] = {}
        self.computed_arities: set[int] = set()
        self.certificates: dict[int, PeriodicityCertificate] = {}
        self.halted_at: int | None = None

    # -- the cycle-choosing section ---------------------------------------------

    def f1(self, mono: Monomial) -> GradedEndomorphism:
        """Representative cocycle of a basis monomial (the identity for 1)."""
        return self.algebra.homology_basis(monomial_degree(mono))

    def f1_of_class(self, value: HomologyClass) -> GradedEndomorphism:
        return self.algebra.homology_basis(value.degree).scale(value.coeff)

    def zeta_power(self, e: int) -> GradedEndomorphism:
        if e == 0:
            return self.algebra.identity()
        return self.f1((0, e))

    # -- value resolution ---------------------------------------------------------

    def _zero_map(self, key) -> GradedEndomorphism:
        # Unit-heavy tuples can push the formal degree below zero; the value
        # is the zero map either way, parked in degree 0.
        degree = sum(monomial_degree(m) for m in key) + 1 - len(key)
        return self.algebra.zero(max(degree, 0))

    def _fill(self, key: tuple):
        """`lookup`'s hook: compute a brute tuple of a computed arity; a
        reduced arity extends y-linearly only under its certificate."""
        n = len(key)
        if n not in self.computed_arities:
            raise UnresolvableValue(f"arity {n} has not been computed")
        if self.mode == "brute":
            self._compute_pair(key)
        elif n not in self.certificates:
            raise CertificateMissing(
                f"arity {n} has no periodicity certificate; linear extension "
                "is not justified")

    def resolve_product(self, key: tuple) -> HomologyClass:
        """m_n on a tuple of monic monomials, via memo, linearity, or halting."""
        return product_value(tuple(key), self.m_table, self.halted_at,
                             self.mode == "reduced", self._fill)

    def resolve_map(self, key: tuple) -> GradedEndomorphism:
        """f_n on a tuple of monic monomials, via memo, linearity, or halting."""
        key = tuple(key)
        if len(key) == 1:
            return self.f1(key[0])
        found = lookup(key, self.f_table, self.halted_at, self.mode == "reduced",
                       self._fill)
        if found is None:
            return self._zero_map(key)
        value, e = found
        return self.algebra.compose(self.zeta_power(e), value) if e else value

    # -- the algorithm ------------------------------------------------------------

    def obstruction(self, key: tuple) -> GradedEndomorphism:
        """Assemble Psi_n on a monomial tuple (the two sums of the module
        docstring) and verify it is a cycle."""
        key = tuple(key)
        n = len(key)
        if n < 2:
            raise InvalidParameter("the obstruction starts at arity 2")
        degrees = [monomial_degree(m) for m in key]
        total = self.algebra.zero(sum(degrees) + 2 - n)
        for s in range(1, n):
            left = self.resolve_map(key[:s])
            right = self.resolve_map(key[s:])
            if not (left.is_zero() or right.is_zero()):
                sign = split_sign(degrees, n, s) if n > 2 else 1
                total = total + self.algebra.compose(left, right).scale(sign)
        # on a word of one repeated letter every inner tuple of arity j is
        # the same, so its value is resolved once per j and a zero one
        # skips the offsets
        repeated = key.count(key[0]) == n
        for j in range(2, n):
            shared = self.resolve_product(key[:j]) if repeated else None
            if shared is not None and shared.is_zero():
                continue
            for k in range(n - j + 1):
                inner = shared if repeated else self.resolve_product(key[k:k + j])
                if inner.is_zero():
                    continue
                outer = key[:k] + (monomial_of_degree(inner.degree),) + key[k + j:]
                value = self.resolve_map(outer)
                if not value.is_zero():
                    sign = insertion_sign(degrees, n, k, j)
                    total = total + value.scale(sign * inner.coeff)
        if not total.differential().is_zero():
            raise PsiNotCycle(
                f"obstruction at arity {n} on {self._key_name(key)} is not a cycle; "
                "this indicates sign or memo corruption")
        return total

    def _compute_pair(self, key: tuple):
        psi = self.obstruction(key)
        product = self.algebra.class_of(psi)
        rhs = psi - self.f1_of_class(product) if not product.is_zero() else psi
        value = self.algebra.nullhomotopy(rhs)
        self.m_table[key] = product
        self.f_table[key] = value
        return product, value

    def high_product(self, key: tuple) -> HomologyClass:
        """m_n(a_1, ..., a_n) on a tuple of monic basis monomials."""
        return self.resolve_product(self._accept_key(key))

    def high_map(self, key: tuple) -> GradedEndomorphism:
        """f_n(a_1, ..., a_n) on a tuple of monic basis monomials."""
        return self.resolve_map(self._accept_key(key))

    def _accept_key(self, key) -> tuple:
        key = tuple((int(e), int(j)) for e, j in key)
        for e, j in key:
            if e not in (0, 1) or j < 0:
                raise InvalidParameter(f"bad monomial ({e}, {j})")
        return key

    def _key_name(self, key) -> str:
        return "(" + ", ".join(monomial_name(m) for m in key) + ")"

    def compute_arity(self, arity: int):
        if arity < 2:
            raise InvalidParameter("arities start at 2")
        if arity in self.computed_arities:
            return
        if self.halted_at is not None and arity >= self.halted_at:
            self.computed_arities.add(arity)
            self.zero_flags[arity] = True
            return
        try:
            product, value = self._compute_pair((X,) * arity)
        except TruncationTooShort as exc:
            raise TruncationTooShort(f"while computing arity {arity}: {exc}") from None
        self.computed_arities.add(arity)
        # the pure-x pair is the only stored value of the arity so far (brute
        # mode reaches other tuples of an arity only once it is computed)
        self.zero_flags[arity] = product.is_zero() and value.is_zero()
        if self.mode == "reduced":
            self._certify(arity)
        self.halted_at = first_complete_arity(self.zero_flags, self.computed_arities)

    def _certify(self, arity: int):
        """Compact every stored arity-n map to one period.  With zeta the
        identity shift, this is the check that each commutes with zeta (see
        the module docstring): a zeta that is not the identity shift, or a
        map that does not repeat, raises CommutationFailure."""
        if not self.certificates:  # once per record: every certificate rests on it
            zeta = self.zeta_power(1)
            for n in zeta.position_range():
                entry = zeta.component(n)
                if entry != entry.algebra.one():
                    raise CommutationFailure(
                        "the polynomial-class cocycle is not the identity at position "
                        f"{n}; the linear reduction is invalid (rerun in brute mode)")
        compacts = {}
        for key, value in self.f_table.items():
            if len(key) != arity:
                continue
            try:
                compacts[key] = self.algebra.periodic_compact(value)
            except NotPeriodic as exc:
                raise CommutationFailure(
                    f"f_{arity}{self._key_name(key)} does not commute with the "
                    f"polynomial-class cocycle ({exc}); the linear reduction is "
                    "invalid for this run (rerun in brute mode)") from None
        self.certificates[arity] = PeriodicityCertificate(
            arity, self.algebra.resolution.period, compacts)

    def certify_periodicity(self, arity: int) -> PeriodicityCertificate:
        """The arity's periodicity certificate.  Reduced mode certifies each
        arity as it computes it; brute mode does not, and certifies on demand
        here (raising CommutationFailure as `_certify` does)."""
        if arity not in self.computed_arities:
            raise UnresolvableValue(f"arity {arity} has not been computed")
        if arity not in self.certificates:
            self._certify(arity)
        return self.certificates[arity]

    def extend_linear(self, elements) -> tuple:
        """(m value, f value) on a tuple of ring elements, by multilinear
        expansion over the monomial basis x^e y^j, with e in {0, 1} and
        j >= 0.

        The product comes back as a formal combination, on any slots.  The
        map comes back as a single endomorphism, so its nonzero terms must
        share one degree (InvalidParameter otherwise); a zero map has the
        degree of the tuple of each slot's lowest-degree monomial.
        """
        p = self.algebra.p
        slots = [self._as_element(el) for el in elements]
        n = len(slots)
        m_value = linear_product(slots, p, self.resolve_product)
        f_acc = None
        for key, coeff in monomial_terms(slots, p):
            f_val = self.resolve_map(key)
            if f_val.is_zero():
                continue
            if f_acc is not None and f_acc.degree != f_val.degree:
                raise InvalidParameter(
                    f"the map's terms fall in degrees {f_acc.degree} and "
                    f"{f_val.degree}; a map value needs one degree")
            f_val = f_val.scale(coeff)
            f_acc = f_val if f_acc is None else f_acc + f_val
        if f_acc is None:
            lowest = sum(min(s.degrees(), default=0) for s in slots)
            f_acc = self.algebra.zero(max(lowest + 1 - n, 0))
        return m_value, f_acc

    def _as_element(self, el) -> HElement:
        if isinstance(el, tuple) and len(el) == 2 and all(isinstance(v, int) for v in el):
            el = HElement.monomial(self.algebra.p, el)
        if not isinstance(el, HElement):
            raise InvalidParameter(f"cannot interpret {el!r} as a ring element")
        if el.p != self.algebra.p:
            raise InvalidParameter(f"element over F_{el.p}, not F_{self.algebra.p}")
        self._accept_key(el.terms)
        return el

    def recheck(self) -> bool:
        """Re-verify D f = Psi - f_1(m) on every memo entry."""
        for key, value in self.f_table.items():
            psi = self.obstruction(key)
            rhs = psi - self.f1_of_class(self.m_table[key])
            if self.algebra.differential(value) != rhs:
                return False
        return True

    def compute_structure(self, max_arity: int) -> StructureSummary:
        """Populate the tables through `max_arity` (or the halting arity),
        certifying each arity in reduced mode."""
        check_max_arity(max_arity)
        for n in range(2, max_arity + 1):
            if self.halted_at is not None and n >= self.halted_at:
                break
            self.compute_arity(n)
        products = sorted(
            ((k, v) for k, v in self.m_table.items() if not v.is_zero()),
            key=lambda kv: (len(kv[0]), kv[0]))
        map_keys = sorted(
            (k for k, v in self.f_table.items() if not v.is_zero()),
            key=lambda k: (len(k), k))
        q = self.algebra.q
        mq = self.m_table.get((X,) * q)
        mq_sign = None
        if mq is not None and not mq.is_zero():
            mq_sign = mq.coeff
        res = self.algebra.resolution
        return StructureSummary(
            p=self.algebra.p, q=q, f1_mode=self.algebra.f1_mode,
            truncation=res.length,
            computed_arities=sorted(self.computed_arities),
            nonzero_products=products,
            nonzero_map_keys=map_keys,
            halted_at=self.halted_at,
            mq_sign=mq_sign,
            periodic_arities=sorted(self.certificates),
        )
