"""Exception types shared across the package, and the parse of a number
from text that raises one."""


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


def parse_number(text, kind=float):
    """``kind(text)``, or DomainError naming ``text`` if it is not a number."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise DomainError(f"not {what}: {text!r}") from None
