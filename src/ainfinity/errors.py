"""Exception hierarchy shared across the engine."""


class AInfinityError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(AInfinityError):
    """A construction parameter is outside its allowed range."""


class DimensionMismatch(AInfinityError):
    """Shapes of linear-algebra operands disagree."""


class TruncationTooShort(AInfinityError):
    """The resolution window does not reach far enough for the request."""


class NotACycle(AInfinityError):
    """A homology-level operation received an element with nonzero differential."""


class NotABoundary(AInfinityError):
    """A nullhomotopy was requested for an element that is not a boundary."""


class NotPeriodic(AInfinityError):
    """Compaction was requested for a map that does not repeat with the period."""


class PsiNotCycle(AInfinityError):
    """An assembled obstruction failed its cycle check.

    This is a hard internal-consistency failure (sign or memo corruption),
    never a legitimate outcome of the computation.
    """


class CertificateMissing(AInfinityError):
    """Linear extension was requested for an arity without a periodicity
    certificate, which is what licenses it."""


class CommutationFailure(AInfinityError):
    """A stored map does not commute with the polynomial-class cocycle
    (it does not repeat with the period), or that cocycle is not the
    identity shift; the run cannot continue under the reduction."""


class UnresolvableValue(AInfinityError):
    """A structure value was requested outside the computed and certified
    range of the record."""
