"""The window-global "flattened" homology oracle, as plain functions.

The engine reads classes from one coefficient, solves nullhomotopies
position by position and takes the "auto" generators as the "paper" ones
with x -> -x; these functions work on whole-window coordinate vectors and
`d_matrix` instead, so tests can check the engine against them.
`echelon_reps` is the echelon section itself: "auto" is that section, and
on the cyclic resolution it is "paper" pulled back along x -> -x.
`expected_document` builds a whole reduced structure file from the closed
form alone.
"""

import numpy as np

from ainfinity.endo_dga import HomologyClass
from ainfinity.errors import NotACycle, TruncationTooShort
from ainfinity.ff_linalg import SolveContext, rref_array, solve_array


def rank_array(a, p):
    if a.size == 0:
        return 0
    return len(rref_array(a, p)[1])


def kernel_basis_array(a, p):
    """Echelonized basis of the right null space, one vector per free column."""
    a = np.asarray(a, dtype=np.int64)
    r, pivots = rref_array(a, p)
    pivot_set = set(pivots)
    basis = []
    for j in range(a.shape[1]):
        if j in pivot_set:
            continue
        v = np.zeros(a.shape[1], dtype=np.int64)
        v[j] = 1
        for i, c in enumerate(pivots):
            v[c] = (-int(r[i, j])) % p
        basis.append(v)
    return basis


def from_coords(algebra, degree, v):
    """The degree-g element whose window-global coordinates are `v`."""
    q = algebra.q
    comps = {}
    for n in range(degree, algebra.resolution.length + 1):
        block = v[q * (n - degree):q * (n - degree + 1)]
        if np.any(block):
            comps[n] = algebra.resolution.algebra.element(block)
    return algebra.from_components(degree, comps)


def echelon_reps(algebra, degree):
    """The echelon section: the cycles of `d_matrix(degree)`, reduced
    against the boundaries and echelonized, one per homology dimension."""
    p = algebra.p
    cycles = kernel_basis_array(algebra.d_matrix(degree), p)
    if not cycles:
        return []
    boundary = algebra.d_matrix(degree - 1)
    reduced = np.array(cycles, dtype=np.int64)
    if boundary.size:
        b_red, b_pivots = rref_array(boundary.T, p)
        # the rows of an RREF vanish at every other pivot column, so
        # clearing the pivots one at a time is this one product; entries
        # are below p < 2^16 and each sum has len(b_pivots) terms, so
        # int64 holds it exactly
        reduced = (reduced - reduced[:, b_pivots] @ b_red[:len(b_pivots)]) % p
    q_red, q_pivots = rref_array(reduced, p)
    return [from_coords(algebra, degree, q_red[i]) for i in range(len(q_pivots))]


def random_endomorphism(algebra, rng, degree):
    res = algebra.resolution
    comps = {}
    for n in range(degree, res.length + 1):
        comps[n] = res.algebra.element(rng.integers(0, algebra.p, size=algebra.q))
    return algebra.from_components(degree, comps)


def sparse_endomorphism(algebra, rng, degree, positions):
    """A degree-g element stored at `positions` only: each component a
    random vector or, half the time, one random monomial c*a^i, so the
    top coefficient a^(q-1) turns up, where a shift by a^e drops it."""
    ring = algebra.resolution.algebra
    comps = {}
    for n in positions:
        if rng.random() < 0.5:
            coeffs = rng.integers(0, algebra.p, size=algebra.q)
        else:
            coeffs = [0] * algebra.q
            coeffs[int(rng.integers(0, algebra.q))] = int(rng.integers(1, algebra.p))
        comps[n] = ring.element(coeffs)
    return algebra.from_components(degree, comps)


def sparse_supports(algebra, rng, degree):
    """Position sets of a degree-g element: three random subsets, the even
    positions, the odd ones, and none."""
    positions = range(degree, algebra.resolution.length + 1)
    subsets = [[n for n in positions if rng.random() < 0.35] for _ in range(3)]
    return subsets + [[n for n in positions if n % 2 == 0],
                      [n for n in positions if n % 2], []]


def homology_dimension(algebra, degree):
    """dim ker D - dim im D.  Degree 0 is the action on the augmented
    homology (its homotopies have degree -1, outside the window): 1."""
    if degree == 0:
        return 1
    algebra._require_window(degree)
    dmat = algebra.d_matrix(degree)
    return (dmat.shape[1] - rank_array(dmat, algebra.p)
            - rank_array(algebra.d_matrix(degree - 1), algebra.p))


def augmentation_scalar(algebra, f):
    """Scalar by which a degree-0 chain map acts on the augmented homology
    (the augmentation R -> k is evaluation at a = 0)."""
    aug = np.zeros((1, algebra.q), dtype=np.int64)
    aug[0, 0] = 1
    v = solve_array(aug, np.array([1], dtype=np.int64), algebra.p)
    return int((aug @ (f.component(0).mult_matrix() @ v))[0] % algebra.p)


def flattened_class_of(algebra, f):
    """Class coordinates by a canonical solve against the window-global
    [representative | boundary operator] matrix."""
    g = f.degree
    algebra._require_window(g)
    v = algebra.coords_of(f)
    if np.any((algebra.d_matrix(g) @ v) % algebra.p):
        raise NotACycle(f"degree-{g} element has nonzero differential")
    if g == 0:
        return HomologyClass(0, augmentation_scalar(algebra, f))
    rep = algebra.coords_of(algebra.homology_basis(g))
    solver = SolveContext(np.column_stack([rep, algebra.d_matrix(g - 1)]), algebra.p)
    if solver.pivots[:1] != [0]:
        raise TruncationTooShort(f"degree {g}: the representative is a boundary")
    x = solver.solve(v)
    if x is None:
        raise TruncationTooShort(f"degree {g}: cycle outside representative and boundaries")
    return HomologyClass(g, int(x[0]))


def closed_form_sign(p, section, n):
    """c_n mod p: (-1)^(n(n+1)/2) in the paper section, (-1)^(n(n-1)/2) in auto."""
    shift = 1 if section == "paper" else -1
    return (-1) ** (n * (n + shift) // 2) % p


def expected_entry(p, q, section, key):
    """The closed-form values on a tuple of basis monomials (e, j), as
    ((product degree, coefficient), (map degree, even block, odd block)),
    the blocks being f_n's q coefficients at even and at odd positions.

    A tuple of x y^j slots takes the pure-x values of its arity shifted by
    y^(j_1 + ... + j_n): the same coefficient and components, two degrees
    up per y.  Arity-2 products are the ring product (x^2 = 0).  Above it,
    a unit or pure y-power slot makes the product zero (strict unitality
    and y-linearity), and at every arity it makes the map zero.
    """
    n = len(key)
    degree = sum(e + 2 * j for e, j in key)
    odd = all(e for e, _ in key)
    if n == 2:
        coeff = 0 if key[0][0] and key[1][0] else 1
    else:
        coeff = closed_form_sign(p, section, q) if odd and n == q else 0
    even_block = [0] * q
    if odd and n < q:
        even_block[q - 1 - n] = closed_form_sign(p, section, n)
    return (degree + 2 - n, coeff), (degree + 1 - n, even_block, [0] * q)


def expected_document(p, q, section, truncation):
    """The reduced structure file at max_arity 2q, less its `format`, from
    the closed form alone (Lu-Palmieri-Wu-Zhang, "A-infinity algebras for
    ring theorists", 2004).

    With c_n = (-1)^(n(n+1)/2) in the paper section and (-1)^(n(n-1)/2) in
    auto: m_n(x, ..., x) is zero in degree 2 except m_q = c_q y; every
    f_n(x, ..., x) has degree 1, period 2 and base 1, a zero odd block, and
    the even block c_n a^(q-1-n) for 2 <= n < q, zero from n = q on.
    Halting is complete at q + 1, and the verifier checks 2 max_arity - 1
    identities.
    """
    sign = {n: closed_form_sign(p, section, n) for n in range(2, q + 1)}
    max_arity = 2 * q

    def block(n):
        # the even block of f_n, as the (1, 1, q) component files store
        coeffs = [0] * q
        if n < q:
            coeffs[q - 1 - n] = sign[n]
        return [[coeffs]]

    x = 1  # the index of x in the basis
    arities = range(2, max_arity + 1)
    return {
        "header": {"p": p, "q": q, "period": 2, "truncation": truncation,
                   "mode": "reduced", "f1": section, "max_arity": max_arity,
                   "halting": {"status": "complete", "arity": q + 1},
                   "mq_sign": sign[q]},
        "basis": [{"index": 0, "name": "1", "eps": 0, "ypow": 0, "degree": 0},
                  {"index": 1, "name": "x", "eps": 1, "ypow": 0, "degree": 1},
                  {"index": 2, "name": "y", "eps": 0, "ypow": 1, "degree": 2}],
        "products": [{"arity": n, "inputs": [x] * n, "degree": 2,
                      "coords": [sign[q] if n == q else 0]} for n in arities],
        "maps": [{"arity": n, "inputs": [x] * n, "degree": 1, "period": 2, "base": 1,
                  "components": [[[[0] * q]], block(n)]} for n in arities],
        "verification": {"enabled": True, "passed": True, "checked": 2 * max_arity - 1,
                         "max_arity": max_arity, "first_failure": None},
    }
