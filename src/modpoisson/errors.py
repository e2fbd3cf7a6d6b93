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

    Every quadrature raises it from `quad1d.refine`, so it carries the best
    value obtained, the achieved error estimate, the tolerance and the
    number of levels run; a truncation radius that cannot meet its tail
    budget raises it with none of these.
    """

    def __init__(self, message, value=None, estimate=None, tolerance=None, levels=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate
        self.tolerance = tolerance
        self.levels = levels
