"""Exception types shared across the package."""


class InfeasibleGeometryError(ValueError):
    """The requested mass/thickness combination does not describe a sphere segment."""


class BudgetExceededError(RuntimeError):
    """The mode budget ran out before the requested tail tolerance was reached.

    Carries the partial result so callers can inspect how far the sum got.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
