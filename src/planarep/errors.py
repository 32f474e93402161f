"""Exception and warning types shared across the package."""


class PlanarepError(Exception):
    """Base class for all package errors."""


class MalformedInput(PlanarepError):
    """User input is malformed: a presentation, parameter list or
    command-line value of the wrong shape."""


class TorsionOrderTooSmall(MalformedInput):
    """A torsion order m_j < 2 was supplied."""


class FillVerificationFailed(PlanarepError):
    """A constructed 2-chain does not have its required boundary."""


class LogBranchFailure(PlanarepError):
    """Group element outside the principal branch of the logarithm."""


class SingularDexp(PlanarepError):
    """Differential of exp is not invertible at the given algebra element."""


class RelatorConstraintViolated(PlanarepError):
    """Operation requires torsion relators to be satisfied at the point."""


class NotACocycle(PlanarepError):
    """A vector fed to a cocycle-only operation fails the cocycle test."""


class OutsideStarDomain(PlanarepError):
    """Segment from 0 leaves the regular domain of exp."""


class ClassResolutionFailed(PlanarepError):
    """Eigenvalues of a torsion image match no root-of-unity class."""


class UnsupportedModel(PlanarepError):
    """Operation not available for the requested group model."""


class NotFound(PlanarepError):
    """Solver budget exhausted without a solution (not a proof of emptiness)."""


class InfeasibleSpec(PlanarepError):
    """Solve specification certified empty by an exact obstruction."""


class ToleranceAmbiguity(UserWarning):
    """A singular value fell within a factor 10 of the rank threshold."""
