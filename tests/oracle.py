"""The window-global "flattened" homology oracle, as plain functions.

The engine reads classes from one coefficient and solves nullhomotopies
position by position; these functions work on whole-window coordinate
vectors and `d_matrix` instead, so tests can check the engine against them.
"""

import numpy as np

from ainfinity.endo_dga import HomologyClass
from ainfinity.errors import NotACycle, TruncationTooShort
from ainfinity.ff_linalg import SolveContext, rank_array, solve_array


def random_endomorphism(algebra, rng, degree):
    res = algebra.resolution
    comps = {}
    for n in range(degree, res.length + 1):
        comps[n] = res.algebra.element(rng.integers(0, algebra.p, size=algebra.q))
    return algebra.from_components(degree, comps)


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
