"""Deterministic work counts of compute and verify, as a scaling gate.

Wall time on a shared machine is noisy; call counts are not.  At p = 7 on
a 7-position window, each doubling of q may multiply each count by at most
a fixed factor, set a little above what the engine shows today:

    kadeishvili.lookup calls                       x4.5
    summed length of the keys looked up            x8.5
    EndomorphismAlgebra.compose calls              x4.5
    AlgebraMap.compose calls                       x2.3

A change that lowers an exponent can tighten its bound.
"""

import functools

import pytest

from ainfinity import kadeishvili
from ainfinity.cli import RunConfig, run
from ainfinity.endo_dga import EndomorphismAlgebra
from ainfinity.resolution import AlgebraMap

GROWTH_BOUNDS = {
    "lookup calls": 4.5,
    "lookup key length": 8.5,
    "EndomorphismAlgebra.compose calls": 4.5,
    "AlgebraMap.compose calls": 2.3,
}


def _counting(counts, name, original, key_length=False):
    @functools.wraps(original)
    def counted(*args, **kwargs):
        counts[name + " calls"] += 1
        if key_length:
            counts[name + " key length"] += len(args[0])
        return original(*args, **kwargs)
    return counted


@pytest.fixture(scope="module")
def work_counts():
    """Counts of one compute-and-verify run per q, at p = 7, truncation 7."""
    patch = pytest.MonkeyPatch()
    try:
        per_q = {}
        for q in (16, 32, 64):
            counts = dict.fromkeys(GROWTH_BOUNDS, 0)
            patch.setattr(kadeishvili, "lookup",
                          _counting(counts, "lookup", kadeishvili.lookup, True))
            for owner in (EndomorphismAlgebra, AlgebraMap):
                patch.setattr(owner, "compose", _counting(
                    counts, f"{owner.__name__}.compose", owner.compose))
            result = run(RunConfig(p=7, q=q, max_arity=2 * q, truncation=7,
                                   verify=True))
            patch.undo()
            assert result.exit_code == 0
            assert f"halting: complete-at-{q + 1}" in result.lines
            per_q[q] = counts
        return per_q
    finally:
        patch.undo()


@pytest.mark.parametrize("quantity", sorted(GROWTH_BOUNDS))
def test_growth_per_doubling_is_bounded(work_counts, quantity):
    bound = GROWTH_BOUNDS[quantity]
    for q in (16, 32):
        before, after = work_counts[q][quantity], work_counts[2 * q][quantity]
        assert before > 0
        assert after <= bound * before, (
            f"{quantity}: {before} at q={q}, {after} at q={2 * q} "
            f"(x{after / before:.2f}, bound x{bound})")
