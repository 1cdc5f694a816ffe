"""The endomorphism dg-algebra of a truncated free resolution.

A degree-g element is a collection of module maps f_n : X_n -> X_(n-g) for
g <= n <= L (cohomological grading: degree-n classes of the Ext algebra
are represented by endomorphisms lowering the position by n).  The
differential is

    D f = d o f - (-1)^|f| f o d,

which raises the degree by one.  Homology is computed exactly over the
prime field, locally wherever the resolution allows it:

* cycle checks use the componentwise differential, which is cached on
  the element;
* the cyclic resolution is minimal (its differentials are a and
  a^(q-1)), so Ext^g = Hom(X_g, k) and the class of a degree-g cycle is
  the a^0 coefficient of its bottom component f_g divided by that of the
  degree's representative (in degree 0 the identity, whose coefficient is 1);
* nullhomotopies are solved position by position from the bottom of the
  truncation upward, always taking the canonical solution (free
  coordinates zero).  Above the joint bottom equation each position is
  a shift by a power of a: multiplication by a^l has the elements without
  terms below a^l as its image, and `shift(-l)`, which moves the terms
  down l places, inverts it.  On periodic input this reproduces the
  periodic homotopies of the cyclic resolution on the nose;
* Ext is exterior(x) (x) k[y], one-dimensional in every degree and
  generated in degrees 1 and 2, so a section is a choice of two
  generators and every other representative is a composite of them
  (`homology_basis`).  The "paper" section pins the degree-1 generator
  to the cocycle with component (-1)^n * a^(q-2) at even positions n and
  (-1)^n * 1 at odd positions, and the degree-2 generator to the
  all-identity shift.  In characteristic two these are the classical
  alternating (a^(q-2), 1) and (1, 1) pictures; in odd characteristic
  the sign alternation is forced by D f = d f + f d on degree-1 maps.
  The "auto" section is the echelon section (the cycles reduced against
  the boundaries); on the cyclic resolution that is "paper" pulled back
  along x -> -x, so "auto" takes -rep_x and rep_y.

Every module is R, so a component is one ring element, held as its
nonzero terms c*a^e (`AlgebraMap.terms`, almost always one monomial), and
an element stores only its nonzero components.  Each d_k multiplies by the
monomial a or a^(q-1), so the differential shifts terms up by that
exponent (`AlgebraMap.shift`) at the positions where the element is
stored and their successors, and composition walks the right factor's
stored components.  Numpy is left to the joint bottom solve and to the
flattened path -- window-global coordinate vectors, the degree-g
element's components as dense q-vectors laid end to end (f_n at offset
q*(n - g)), and the differential as a matrix on them (`d_matrix`) --
which only checks each built representative once per degree.  The
flattened class read, dimension count and echelon section live with the
tests (tests/oracle.py).

The engine is single-threaded: the computation is one batch job.  Its
one cache (`_basis`) holds one representative per degree, built on first
use and immutable after.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, InvalidParameter, NotABoundary,
                     NotACycle, NotPeriodic, TruncationTooShort)
# rref_array is unused here: bench/test_bench.py checks the tracer rebinds it
from .ff_linalg import rref_array, solve_array  # noqa: F401
from .resolution import AlgebraMap, PeriodicResolution


def _constant_term(m: AlgebraMap) -> int:
    """The a^0 coefficient of a ring element."""
    terms = m.terms
    return terms[0][1] if terms and terms[0][0] == 0 else 0


@dataclass(frozen=True)
class HomologyClass:
    """`coeff` (an int in [0, p)) times the degree's one representative:
    Ext is one-dimensional in every degree.  A negative degree holds only
    the zero class, `HomologyClass(d, 0)`."""

    degree: int
    coeff: int

    @property
    def coords(self) -> tuple:
        """The one-coordinate tuple structure files store as `"coords"`."""
        return (self.coeff,)

    def is_zero(self) -> bool:
        return self.coeff == 0

    def scale(self, c: int, p: int) -> "HomologyClass":
        return HomologyClass(self.degree, self.coeff * c % p)

    def add(self, other: "HomologyClass", p: int) -> "HomologyClass":
        if other.degree != self.degree:
            raise DimensionMismatch(
                f"classes in degrees {self.degree} and {other.degree}")
        return HomologyClass(self.degree, (self.coeff + other.coeff) % p)


class GradedEndomorphism:
    """Degree-g chain endomorphism of the resolution, one component per position.

    Missing positions denote zero components; the differential of the
    element is computed once and cached (the cache can never disagree
    with recomputation because components are immutable).
    """

    __slots__ = ("algebra", "degree", "components", "_diff")

    def __init__(self, algebra: "EndomorphismAlgebra", degree: int, components: dict):
        if degree < 0:
            raise InvalidParameter(f"degree {degree} must be >= 0")
        self.algebra = algebra
        self.degree = degree
        ring = algebra.resolution.algebra
        comps = {}
        for n, m in components.items():
            lo, hi = degree, algebra.resolution.length
            if not lo <= n <= hi:
                raise InvalidParameter(f"component position {n} outside [{lo}, {hi}]")
            if m.algebra is not ring and m.algebra != ring:
                raise DimensionMismatch(
                    f"component at {n} lies in F_{m.algebra.p}[a]/(a^{m.algebra.q}), "
                    f"not in F_{ring.p}[a]/(a^{ring.q})")
            if m.terms:
                comps[n] = m
        self.components = comps
        self._diff = None

    def position_range(self) -> range:
        return range(self.degree, self.algebra.resolution.length + 1)

    def component(self, n: int) -> AlgebraMap:
        m = self.components.get(n)
        if m is not None:
            return m
        res = self.algebra.resolution
        if not self.degree <= n <= res.length:
            raise TruncationTooShort(
                f"component {n} of a degree-{self.degree} map on a length-{res.length} window")
        return res.algebra.zero()

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        # value equality: same grading, same window, same components
        # (components of different ground rings already compare unequal)
        if not isinstance(other, GradedEndomorphism):
            return NotImplemented
        return (self.degree == other.degree
                and self.algebra.resolution.length == other.algebra.resolution.length
                and self.components == other.components)

    __hash__ = None

    def __add__(self, other: "GradedEndomorphism") -> "GradedEndomorphism":
        self._check_compatible(other)
        comps = dict(self.components)
        for n, m in other.components.items():
            comps[n] = comps[n] + m if n in comps else m
        return GradedEndomorphism(self.algebra, self.degree, comps)

    def __sub__(self, other: "GradedEndomorphism") -> "GradedEndomorphism":
        return self + (-other)

    def __neg__(self) -> "GradedEndomorphism":
        return GradedEndomorphism(self.algebra, self.degree,
                                  {n: -m for n, m in self.components.items()})

    def scale(self, c: int) -> "GradedEndomorphism":
        return GradedEndomorphism(self.algebra, self.degree,
                                  {n: m.scale(c) for n, m in self.components.items()})

    def _check_compatible(self, other: "GradedEndomorphism"):
        if self.algebra is not other.algebra:
            raise DimensionMismatch("endomorphisms of different algebras")
        if self.degree != other.degree:
            raise DimensionMismatch(
                f"endomorphisms of degrees {self.degree} and {other.degree}")

    def differential(self) -> "GradedEndomorphism":
        if self._diff is None:
            self._diff = self.algebra.differential(self)
        return self._diff

    def __repr__(self):
        comps = {n: self.components[n] for n in sorted(self.components)}
        return f"GradedEndomorphism(degree={self.degree}, components={comps})"


@dataclass(frozen=True)
class CompactForm:
    """Period-compressed view of a periodic endomorphism."""

    degree: int
    period: int
    base: int
    blocks: tuple  # AlgebraMap per residue, blocks[(n - base) % period]

    def component(self, n: int) -> AlgebraMap:
        if n < self.base:
            raise InvalidParameter(f"position {n} below base {self.base}")
        return self.blocks[(n - self.base) % self.period]

    def expand(self, algebra: "EndomorphismAlgebra") -> GradedEndomorphism:
        comps = {n: self.component(n)
                 for n in range(self.base, algebra.resolution.length + 1)}
        return GradedEndomorphism(algebra, self.degree, comps)


class EndomorphismAlgebra:
    """End_R(X) for the truncated cyclic resolution X, with exact homology.

    `f1_mode` selects the degree-1 and degree-2 generators that
    `homology_basis` composes: "paper" pins those described in the module
    docstring, "auto" (the echelon section) negates the degree-1 one.
    """

    #: extra positions beyond the requested degree that homology-level
    #: operations demand, so the window edge cannot contaminate classes
    STABILITY_MARGIN_PERIODS = 2

    def __init__(self, res: PeriodicResolution, f1_mode: str = "paper"):
        if f1_mode not in ("paper", "auto"):
            raise InvalidParameter(f"unknown f1 mode {f1_mode!r}")
        self.resolution = res
        self.f1_mode = f1_mode
        self._basis: dict[int, GradedEndomorphism] = {}

    # ----- basic constructors -------------------------------------------------

    @property
    def p(self) -> int:
        return self.resolution.algebra.p

    @property
    def q(self) -> int:
        return self.resolution.algebra.q

    def zero(self, degree: int) -> GradedEndomorphism:
        return GradedEndomorphism(self, degree, {})

    def identity(self) -> GradedEndomorphism:
        one = self.resolution.algebra.one()
        comps = {n: one for n in range(self.resolution.length + 1)}
        return GradedEndomorphism(self, 0, comps)

    def from_components(self, degree: int, components: dict) -> GradedEndomorphism:
        return GradedEndomorphism(self, degree, components)

    def from_element_pattern(self, degree: int, even, odd) -> GradedEndomorphism:
        """Component `even` at even positions, `odd` at odd ones."""
        comps = {n: even if n % 2 == 0 else odd
                 for n in range(degree, self.resolution.length + 1)}
        return GradedEndomorphism(self, degree, comps)

    def rep_x(self) -> GradedEndomorphism:
        """Cocycle generating degree-1 homology."""
        alg = self.resolution.algebra
        return self.from_element_pattern(
            1, alg.alpha(alg.q - 2), alg.scalar(-1))

    def rep_y(self) -> GradedEndomorphism:
        """The all-identity degree-2 shift; generates degree-2 homology."""
        alg = self.resolution.algebra
        return self.from_element_pattern(2, alg.one(), alg.one())

    # ----- dg-algebra operations ----------------------------------------------

    def differential(self, f: GradedEndomorphism) -> GradedEndomorphism:
        """D f = d o f - (-1)^|f| f o d, of degree |f| + 1.

        Every d_k multiplies by a monomial a^e (`PeriodicResolution.exponent`),
        and R is commutative, so both terms are shifts by a power of a:
        (D f)_n = a^e(n - g) f_n - (-1)^g a^e(n) f_(n-1).  Only positions
        where f_n or f_(n-1) is stored are visited.
        """
        res = self.resolution
        zero = res.algebra.zero()
        g = f.degree
        odd, even = res.exponent(1), res.exponent(2)
        stored = f.components
        comps = {}
        for n in sorted({m + i for m in stored for i in (0, 1)}):
            if n <= g or n > res.length:
                continue
            fn = stored.get(n)
            out = fn.shift(odd if (n - g) % 2 else even) if fn is not None else zero
            fprev = stored.get(n - 1)
            if fprev is not None:
                moved = fprev.shift(odd if n % 2 else even)
                out = out + moved if g % 2 else out - moved
            comps[n] = out
        return GradedEndomorphism(self, g + 1, comps)

    def compose(self, f: GradedEndomorphism, g: GradedEndomorphism) -> GradedEndomorphism:
        """(f o g)_n = f_(n - |g|) o g_n, of degree |f| + |g|.

        Walks g's stored components and probes f's, so a product whose
        factors are stored on disjoint positions costs one probe each.
        """
        if f.algebra is not self or g.algebra is not self:
            raise DimensionMismatch("endomorphisms of a different algebra")
        shift = g.degree
        comps = {}
        for n, gn in g.components.items():
            # f is stored only from position |f| on, so n >= |f| + |g| holds
            fm = f.components.get(n - shift)
            if fm is not None:
                comps[n] = fm.compose(gn)
        return GradedEndomorphism(self, f.degree + g.degree, comps)

    # ----- flattened coordinates ----------------------------------------------

    def _size(self, degree: int) -> int:
        """Length of a degree-g coordinate vector: a q-vector per position g..L."""
        return self.q * (self.resolution.length - degree + 1)

    def coords_of(self, f: GradedEndomorphism) -> np.ndarray:
        q, g = self.q, f.degree
        v = np.zeros(self._size(g), dtype=np.int64)
        for n, m in f.components.items():
            v[q * (n - g):q * (n - g + 1)] = m.coeffs
        return v

    def d_matrix(self, degree: int) -> np.ndarray:
        """Matrix of the differential from degree g to degree g+1 coordinates.

        Window-global and uncached: the oracle for `differential`, used
        once per degree to check the basis representatives.  Every module
        is R, which is commutative, so h -> d_k o h and h -> h o d_k are
        both multiplication by d_k = a^e, whose coordinate matrix
        d_k.mult_matrix() is the shift by e that `differential` applies to
        coefficient vectors directly.  Only the band is written, each
        position's two disjoint blocks already reduced mod p.
        """
        res = self.resolution
        q = self.q
        out = np.zeros((self._size(degree + 1), self._size(degree)), dtype=np.int64)
        sign = (-1 if degree % 2 else 1)
        for n in range(degree + 1, res.length + 1):
            row, col = q * (n - degree - 1), q * (n - degree)
            # d o f_n contribution
            out[row:row + q, col:col + q] = res.differential(n - degree).mult_matrix()
            # -(-1)^g f_(n-1) o d_n contribution
            out[row:row + q, col - q:col] = (-sign * res.differential(n).mult_matrix()) % self.p
        return out

    # ----- homology ------------------------------------------------------------

    def _require_window(self, degree: int):
        margin = self.STABILITY_MARGIN_PERIODS * self.resolution.period
        if self.resolution.length - degree < margin + 1:
            raise TruncationTooShort(
                f"homology in degree {degree} needs window length >= "
                f"{degree + margin + 1}, have {self.resolution.length}")

    def homology_basis(self, degree: int) -> GradedEndomorphism:
        """The representative cycle of the degree's one homology class.

        Ext is exterior(x) (x) k[y]: one-dimensional in every degree and
        generated in degrees 1 and 2, so the section chooses only those two
        generators ("paper": `rep_x` and `rep_y`; "auto", the echelon
        section: `-rep_x` and `rep_y`).  Degree 0 is the identity, and degree
        g >= 3 is rep(2 - e) o rep(g - 2 + e) with e = g mod 2, which is
        x^e o y^j built from the cached lower degrees.
        """
        rep = self._basis.get(degree)
        if rep is not None:
            return rep
        self._require_window(degree)
        if degree == 0:
            rep = self.identity()
        elif degree >= 3:
            e = degree % 2
            rep = self.compose(self.homology_basis(2 - e),
                               self.homology_basis(degree - 2 + e))
        elif degree == 1:
            rep = self.rep_x() if self.f1_mode == "paper" else -self.rep_x()
        else:
            rep = self.rep_y()
        if degree and np.any((self.d_matrix(degree) @ self.coords_of(rep)) % self.p):
            raise NotACycle(f"degree-{degree} representative is not a cycle")
        self._basis[degree] = rep
        return rep

    def class_of(self, f: GradedEndomorphism) -> HomologyClass:
        """The class of a cycle, as a multiple of the degree's representative.

        The class is read from one coefficient of the bottom component
        (see the module docstring).  A cycle that only the window edge
        makes closed is not told apart by this read; the engine always
        solves for the nullhomotopy of f - f_1(class) next, and that exact
        solve raises NotABoundary on it.
        """
        g = f.degree
        self._require_window(g)
        if not f.differential().is_zero():
            raise NotACycle(f"degree-{g} element has nonzero differential")
        p = self.p
        lead = _constant_term(self.homology_basis(g).component(g))
        if lead == 0:
            raise TruncationTooShort(
                f"degree {g}: representative has no a^0 term at the bottom; "
                "the truncation window is unstable")
        coeff = _constant_term(f.component(g)) * pow(lead, p - 2, p) % p
        return HomologyClass(g, coeff)

    def nullhomotopy(self, f: GradedEndomorphism) -> GradedEndomorphism:
        """Canonical h with D h = f, solved from the bottom position upward.

        The first window equation is solved jointly for the two lowest
        components.  Every later position n solves a^l h_n = f_n +
        (-1)^g a^r h_(n-1), with d_(n-g) = a^l and d_n = a^r, as coefficient
        shifts: the right side has a solution exactly when its coefficients
        below a^l vanish, and the canonical one (free coordinates zero) is
        the right side moved down l places.  Raises NotABoundary on every f
        that is not a boundary: a nonzero class fails the bottom equation,
        a non-cycle by the first position where D f is nonzero.  A zero f
        has the zero canonical homotopy (every solve is homogeneous, with
        free coordinates zero), returned unsolved.
        """
        if f.degree < 1:
            raise InvalidParameter("a boundary has degree at least 1")
        res = self.resolution
        g = f.degree - 1
        L = res.length
        if L < g + 1 or f.is_zero():
            return self.zero(g)
        sign = -1 if g % 2 else 1
        q = res.algebra.q
        p = self.p

        comps = {}
        n0 = g + 1
        lmat = res.differential(n0 - g).mult_matrix()
        rmat = res.differential(n0).mult_matrix()
        joint = np.concatenate([(-sign * rmat) % p, lmat], axis=1)
        x = solve_array(joint, f.component(n0).coeffs, p)
        if x is None:
            raise NotABoundary(f"no homotopy at position {n0}")
        comps[g] = res.algebra.element(x[:q])
        prev = comps[n0] = res.algebra.element(x[q:])
        for n in range(n0 + 1, L + 1):
            r, l = res.exponent(n), res.exponent(n - g)
            moved = prev.shift(r)
            rhs = f.component(n) + moved if sign == 1 else f.component(n) - moved
            if rhs.terms and rhs.terms[0][0] < l:
                raise NotABoundary(f"no homotopy at position {n}")
            prev = comps[n] = rhs.shift(-l)
        return GradedEndomorphism(self, g, comps)

    def periodic_compact(self, f: GradedEndomorphism) -> CompactForm:
        """Compress f to one period of the resolution, or raise NotPeriodic.

        Requires at least two periods of positions in the window; succeeds
        exactly when f_(n + period) = f_n for every comparable position.
        """
        period = self.resolution.period
        L = self.resolution.length
        base = f.degree
        if L - base + 1 < 2 * period:
            raise TruncationTooShort(
                f"need {2 * period} positions to certify period {period}, "
                f"have {L - base + 1}")
        # zero components are not stored, so None stands for zero
        for n in range(base, L - period + 1):
            if f.components.get(n) != f.components.get(n + period):
                raise NotPeriodic(
                    f"components differ between positions {n} and {n + period}")
        blocks = tuple(f.component(base + i) for i in range(period))
        return CompactForm(f.degree, period, base, blocks)
