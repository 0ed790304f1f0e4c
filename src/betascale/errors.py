"""Exception types shared across the package."""


class DomainError(ValueError):
    """Arguments outside the mathematical domain of an operation."""


class NoDensityError(DomainError):
    """A density was requested from a law that has none."""


class NumericError(RuntimeError):
    """A numeric routine could not reach the requested tolerance.

    Carries the achieved error estimate in ``estimate`` and the failing
    point in ``x`` when available.
    """

    def __init__(self, message, estimate=None, x=None):
        super().__init__(message)
        self.estimate = estimate
        self.x = x


class StageError(NumericError):
    """A stage of the iterative inversion failed; ``stage`` is its index."""

    def __init__(self, message, stage, estimate=None, x=None):
        super().__init__(message, estimate, x)
        self.stage = stage
