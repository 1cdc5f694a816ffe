"""Shared fixtures: computed structure records, cached per session."""

import pytest

from ainfinity.cli import default_truncation
from ainfinity.endo_dga import EndomorphismAlgebra
from ainfinity.kadeishvili import AInfinityRecord
from ainfinity.resolution import build_cyclic_resolution

# the acceptance sweep of (p, q) points
SWEEP = [(2, 4), (2, 8), (3, 3), (3, 9), (5, 5)]

_CACHE = {}


def computed_record(p, q, max_arity=None, truncation=None, mode="reduced",
                    f1_mode="paper"):
    """Compute (or fetch) a structure record; cached across the session."""
    if max_arity is None:
        max_arity = 2 * q
    if truncation is None:
        truncation = default_truncation(max_arity)
    key = (p, q, max_arity, truncation, mode, f1_mode)
    if key not in _CACHE:
        algebra = EndomorphismAlgebra(build_cyclic_resolution(p, q, truncation),
                                      f1_mode=f1_mode)
        record = AInfinityRecord(algebra, mode=mode)
        summary = record.compute_structure(max_arity)
        _CACHE[key] = (record, summary)
    return _CACHE[key]


@pytest.fixture(scope="session")
def record_2_4():
    return computed_record(2, 4)


@pytest.fixture(scope="session")
def record_3_3():
    return computed_record(3, 3)
