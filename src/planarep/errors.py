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
    """Group element at the branch cut of the principal logarithm, or an
    algebra element that is not a logarithm of the relator value."""


class SingularDexp(ToleranceExceeded):
    """Algebra element at the branch cut (spectral margin below tau_grp),
    where the differential of exp may fail to be invertible."""


class ActionFieldInconsistent(ToleranceExceeded):
    """The two computations of an action field's V, [X, Lambda] and
    D(Lambda)^-1 delta1 u, disagree beyond tolerance: the chain identity
    between them is lost to rounding, as at strongly hyperbolic SL(2,R)
    points of large genus."""


class RelatorConstraintViolated(PlanarepError):
    """Operation requires torsion relators to be satisfied at the point."""


class NotACocycle(PlanarepError):
    """A vector fed to a cocycle-only operation fails the cocycle test."""


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
