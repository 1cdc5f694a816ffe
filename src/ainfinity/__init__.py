"""Exact computation of A-infinity structures on Ext algebras of truncated
polynomial rings, with an independent Stasheff-identity verifier."""

from .errors import (AInfinityError, CertificateMissing, CommutationFailure,
                     DimensionMismatch, InvalidParameter, NotABoundary,
                     NotACycle, NotPeriodic, PsiNotCycle, TruncationTooShort,
                     UnresolvableValue)
from .ff_linalg import PrimeField
from .resolution import (AlgebraMap, PeriodicResolution, TruncatedPolyAlgebra,
                         build_cyclic_resolution)
from .endo_dga import (CompactForm, EndomorphismAlgebra, GradedEndomorphism,
                       HomologyClass)
from .kadeishvili import (AInfinityRecord, HElement, StructureSummary,
                          first_complete_arity, insertion_sign, monomial_name,
                          split_sign)
from .stasheff import (VerificationReport, check_morphism, check_structure,
                       verify_structure)
from .cli import RunConfig, default_truncation, parse_structure, run

__all__ = [
    "AInfinityError", "CertificateMissing", "CommutationFailure",
    "DimensionMismatch", "InvalidParameter", "NotABoundary", "NotACycle",
    "NotPeriodic", "PsiNotCycle", "TruncationTooShort", "UnresolvableValue",
    "PrimeField",
    "AlgebraMap", "PeriodicResolution",
    "TruncatedPolyAlgebra", "build_cyclic_resolution",
    "CompactForm", "EndomorphismAlgebra", "GradedEndomorphism", "HomologyClass",
    "AInfinityRecord", "HElement", "StructureSummary",
    "first_complete_arity", "insertion_sign", "monomial_name", "split_sign",
    "VerificationReport", "check_morphism", "check_structure",
    "verify_structure",
    "RunConfig", "default_truncation", "parse_structure", "run",
]

__version__ = "0.1.0"
