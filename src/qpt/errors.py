"""Exception types shared across the toolkit, and how their messages show
input values."""


def _shown(value) -> str:
    """``value`` for an error message, never echoed past about 64 characters.

    An integer past 64 bits is named by its size; text whose ``repr`` is
    over 64 characters, and any other value written in over 64, by its
    length.  Text is quoted, other values are written with ``str``.
    """
    if isinstance(value, int) and value.bit_length() > 64:
        return f"an integer of {value.bit_length()} bits"
    text = repr(value) if isinstance(value, str) else str(value)
    if len(text) <= 64:
        return text
    if isinstance(value, str):
        return f"text of {len(value)} characters"
    return f"a {type(value).__name__} written in {len(text)} characters"


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
