"""Exception and warning types shared across the package.

Each error type carries the exit code the command line returns for it;
a subclass inherits the code of its category.
"""


class PlanarepError(Exception):
    """Base class for all package errors; uncategorised ones are internal."""

    exit_code = 5


class MalformedInput(PlanarepError):
    """User input is malformed: a presentation, parameter list or
    command-line value of the wrong shape."""

    exit_code = 2


class TorsionOrderTooSmall(MalformedInput):
    """A torsion order m_j < 2 was supplied."""


class FillVerificationFailed(PlanarepError):
    """A constructed 2-chain does not have its required boundary."""


class ToleranceExceeded(PlanarepError):
    """A numeric check failed its tolerance, or a point lies within
    tolerance of a singular locus (the subclasses)."""

    exit_code = 4


class LogBranchFailure(ToleranceExceeded):
    """Group element outside the principal branch of the logarithm."""


class SingularDexp(ToleranceExceeded):
    """Differential of exp is not invertible at the given algebra element."""


class RelatorConstraintViolated(PlanarepError):
    """Operation requires torsion relators to be satisfied at the point."""


class NotACocycle(PlanarepError):
    """A vector fed to a cocycle-only operation fails the cocycle test."""


class OutsideStarDomain(ToleranceExceeded):
    """Segment from 0 leaves the regular domain of exp."""


class ClassResolutionFailed(PlanarepError):
    """Eigenvalues of a torsion image match no root-of-unity class."""


class UnsupportedModel(MalformedInput):
    """Operation not available for the requested group model."""


class NotFound(PlanarepError):
    """Solver budget exhausted without a solution (not a proof of emptiness)."""

    exit_code = 3


class InfeasibleSpec(PlanarepError):
    """Solve specification certified empty by an exact obstruction."""

    exit_code = 3


class ToleranceAmbiguity(UserWarning):
    """A singular value fell within a factor 10 of the rank threshold."""
