"""Exception types shared across the package."""


class ModPoissonError(Exception):
    """Base class for all library errors."""


class DomainError(ModPoissonError, ValueError):
    """A parameter or argument lies outside the mathematical domain."""


class SingularityError(DomainError):
    """Evaluation requested exactly at a kernel singularity."""


class ConstructionError(ModPoissonError, ValueError):
    """A data construction violates its geometric prerequisites."""


class AccuracyError(ModPoissonError, RuntimeError):
    """A quadrature failed to reach the requested tolerance.

    Carries the best value obtained, the achieved error estimate and, for
    refinement-level quadrature, the number of levels used.
    """

    def __init__(self, message, value=None, estimate=None, tolerance=None, levels=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate
        self.tolerance = tolerance
        self.levels = levels
