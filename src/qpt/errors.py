"""Exception types shared across the toolkit, how their messages show input
values, and the one rule for what a number and an array accept.

``_integer`` and ``_number`` are that rule for a number.  Every
constructor that takes one (``ExperimentConfig``, ``MeasurementRecord``,
``ExpectationRecord``) checks its own fields with them, the named channels
of :mod:`qpt.channels` check their parameters with ``_number``, and
:mod:`qpt.io` uses the same two for the numbers it reads outside those
constructors, so a library caller and the CLI reject the same values with
the same field-named ``ValueError``.  ``_array`` is the rule for a matrix,
vector or stack: every public function that takes one converts it there
and nowhere else.

``_BOUND`` (2**256, about 1.2e77) is the one magnitude rule: ``_array``
refuses an array entry whose modulus exceeds it, and ``ExpectationRecord``
such an expectation value; the same comparison refuses inf and NaN.  No
experiment comes near it, since raw chi is linear in averages of +-1
outcomes, and below it no public function's intermediates overflow: the
largest, a Kraus image ``K rho K^dag``, is a sum of cubes of bounded
entries, far inside the float range.  So no function past the boundary
checks for overflow.

``_input_error`` is the rule for an input error: a ``ValueError`` (numpy's
``LinAlgError`` is one), ``TypeError`` or ``LookupError`` raised while
:mod:`qpt.io` reads a document, or while :mod:`qpt.cli` computes from a
named input, becomes a ``ConfigError`` prefixed by what was read.  Every
such translation in those two modules goes through it.
"""

import numbers
import operator
from contextlib import contextmanager

import numpy as np

_BOUND = 2.0**256
_BOUND_RULE = "must be finite and at most 2**256 in modulus"
# The ufunc reduction itself: ndarray.max reaches it through a Python
# wrapper that costs more than the whole reduction of a 4x4 matrix.
_largest = np.maximum.reduce


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


def _integer(value, field: str) -> int:
    """``value`` as an ``int`` if it is an integer other than a boolean,
    such as ``7`` or ``np.int64(7)``; else a ``ValueError`` naming ``field``.

    A float, string or boolean is never truncated or parsed into a count.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{field} must be an integer, got {_shown(value)}")


def _number(value, field: str) -> int | float:
    """``value`` if it is a real number other than a boolean, else a
    ``ValueError`` naming ``field``.

    An ``int`` or ``float`` is returned as given, so a document keeps its
    bytes, and a numpy scalar as the equal Python number.  Booleans, text
    such as ``"0.5"``, ``None``, complex values and containers are never
    coerced, and an integer too large for a float is rejected.
    """
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            value = operator.index(value)
            try:
                float(value)
            except OverflowError:
                raise ValueError(
                    f"{field} must be a number within the float range, "
                    f"got {_shown(value)}"
                ) from None
            return value
        if isinstance(value, numbers.Real):
            return float(value)
    raise ValueError(f"{field} must be a number, got {_shown(value)}")


def _array(value, name: str, shape: tuple[int, ...] | None = None, real: bool = False):
    """``value`` as a float (``real``) or complex array, else a
    ``ValueError`` that starts with ``name``.

    Only integer, float and, unless ``real``, complex entries are
    converted: booleans, text, bytes and objects such as ``None`` never
    are.  The shape must be ``shape`` when given, and every entry's
    modulus at most ``_BOUND``.
    """
    try:
        array = np.asarray(value)
    except ValueError as exc:
        raise ValueError(f"{name}: not an array: {exc}") from None
    if array.dtype.kind not in ("iuf" if real else "iufc"):
        kinds = "integers or floats" if real else "integers, floats or complex numbers"
        raise ValueError(f"{name}: must hold {kinds}, got dtype {array.dtype}")
    if shape is not None and array.shape != shape:
        expected = "x".join(map(str, shape))
        raise ValueError(f"{name}: expected shape {expected}, got {array.shape}")
    array = array.astype(float if real else complex, copy=False)
    if not _largest(abs(array), axis=None, initial=0.0) <= _BOUND:
        raise ValueError(f"{name}: entries {_BOUND_RULE}")
    return array


@contextmanager
def _input_error(prefix: str | None = None):
    """Re-raise a ``ValueError``, ``TypeError`` or ``LookupError`` from the
    block as ``ConfigError(f"{prefix}: {exc}")``, or ``ConfigError(str(exc))``
    with no ``prefix``; any other exception passes through unchanged."""
    try:
        yield
    except (ValueError, TypeError, LookupError) as exc:
        raise ConfigError(str(exc) if prefix is None else f"{prefix}: {exc}") from exc


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
