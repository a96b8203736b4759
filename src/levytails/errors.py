"""Exception taxonomy for the levytails package.

Every failure mode that callers are expected to catch has its own class so
that tests (and the CLI) can discriminate between, say, a quadrature budget
blowing up and a model whose moment simply diverges.
"""


class LevytailsError(Exception):
    """Base class for all package-specific errors."""


class OutOfRange(LevytailsError):
    """An argument lies outside the domain where the quantity is defined."""


class NonMonotone(LevytailsError):
    """A function contractually required to be nondecreasing was observed
    to decrease (beyond numerical tolerance)."""


class QuadratureFailure(LevytailsError):
    """Adaptive quadrature failed to converge within its subdivision budget."""


class Divergent(LevytailsError):
    """The requested integral or moment diverges for these parameters."""


class InvalidProfile(LevytailsError):
    """A functional profile is internally inconsistent or incomplete."""


class PreconditionViolated(LevytailsError):
    """Parameters violate an explicit admissibility precondition."""


class MissingEstimate(LevytailsError):
    """A required moment/estimate was not supplied in the profile."""


class EmptySpectrum(LevytailsError):
    """A quadratic form was given with no eigenvalues (or none of the
    required sign)."""


class EmptyBatch(LevytailsError):
    """A Monte-Carlo batch contains no samples."""


class InsufficientTail(LevytailsError):
    """Too few usable tail points to fit a slope."""


class CenterMismatch(LevytailsError):
    """A bound and an empirical curve disagree about the centering used."""


class ConfigError(LevytailsError):
    """A CLI/config document is malformed; the message names the field path."""


class BudgetExceeded(LevytailsError):
    """A sampling request would exceed the hard event/cost budget."""


class TruncationTooCoarse(LevytailsError):
    """A truncation radius is too large for the requested accuracy."""
