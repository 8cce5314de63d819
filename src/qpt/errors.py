"""Exception types shared across the toolkit."""


class QptError(Exception):
    """Base class for all toolkit-specific errors."""


class InvalidStateError(QptError):
    """A matrix or Bloch vector does not describe a valid qubit state."""


class NotCompletelyPositiveError(QptError):
    """A process matrix has no operator-sum decomposition.

    Raised when the coefficient matrix of a process has an eigenvalue below
    the negativity tolerance, so no Kraus set can represent it.
    """


class NonConvergenceError(QptError):
    """An iterative solver exhausted its budget without meeting its criterion.

    The best iterate found so far is attached as ``best_result`` so callers
    can still inspect or persist it.
    """

    def __init__(self, message: str, best_result=None):
        super().__init__(message)
        self.best_result = best_result


class ConfigError(QptError):
    """A configuration document or input file is malformed."""
