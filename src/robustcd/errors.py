"""Exception types shared across the package."""


class DomainError(ValueError):
    """Raised when a parameter value or input lies outside the admissible set."""


class NumericsError(RuntimeError):
    """Raised when a numerical routine fails (singular matrix, non-finite
    score, ...).

    Carries optional diagnostics such as a condition number in ``detail``.
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail
