"""Single-qubit state estimation from expectation-value records.

Reconstruction resolves possibly noisy, incomplete, or outright inconsistent
records into a valid density matrix by a two-level rule: first minimize the
residual against the measured expectations, then, among all residual
minimizers, pick the state of maximum entropy.  For this linear measurement
model both levels have closed forms:

* unmeasured Bloch components are left at zero (the entropy-maximizing
  completion, since entropy decreases radially);
* measured components are taken verbatim when the resulting vector fits in
  the unit ball, and are radially rescaled onto the sphere otherwise, which
  is the exact Euclidean projection and hence the residual minimizer.

The residual minimizer set has a unique entropy maximum, so the rule needs
no tie-break weight and no iterative solver.

Process reconstruction does not apply this rule to its output states: it
inverts the measured expectations as they are (see
:mod:`qpt.process_tomography`) and reads only :func:`bloch_target` here.

An expectation value is at most 2**256 in modulus (``errors._BOUND``),
which :class:`ExpectationRecord` checks; so every norm and residual here
is finite, and none is checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import _BOUND, _BOUND_RULE, _integer, _number, _shown
from .states import density_from_bloch, von_neumann_entropy

AXES = ("x", "y", "z")
_AXIS_INDEX = {axis: index for index, axis in enumerate(AXES)}


@dataclass(frozen=True, slots=True)
class ExpectationRecord:
    """One measured expectation value along a Pauli axis.

    ``shots=None`` marks an exact (infinite-statistics) value.  The shot
    count is carried through as metadata only; records do not weight the
    reconstruction residual.  The value's modulus must be at most
    ``errors._BOUND``.
    """

    axis: str
    value: float
    shots: int | None = None

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {_shown(self.axis)}")
        value = float(_number(self.value, "value"))
        if not abs(value) <= _BOUND:
            raise ValueError(f"value {_BOUND_RULE}, got {_shown(value)}")
        object.__setattr__(self, "value", value)
        if self.shots is not None:
            shots = _integer(self.shots, "shots")
            if shots < 1:
                raise ValueError(f"shots must be positive, got {_shown(shots)}")
            object.__setattr__(self, "shots", shots)


_set_axis = ExpectationRecord.axis.__set__
_set_value = ExpectationRecord.value.__set__
_set_shots = ExpectationRecord.shots.__set__


def _filled_record(axis: str, value: float, shots: int | None) -> ExpectationRecord:
    """An :class:`ExpectationRecord` of fields its checks cannot refuse,
    built without them: an axis of ``AXES``, a ``float`` value of modulus
    at most 1 and a positive ``int`` or ``None`` for shots.  Equal to the
    checked record in every field, type, hash and ``repr``."""
    record = object.__new__(ExpectationRecord)
    _set_axis(record, axis)
    _set_value(record, value)
    _set_shots(record, shots)
    return record


@dataclass(frozen=True)
class StateEstimate:
    """Reconstruction output: the state plus fit diagnostics.

    ``residual`` is the Euclidean distance between the estimated and
    measured Bloch components (zero when the data were consistent);
    ``complete`` records whether all three axes were measured.
    """

    rho: np.ndarray
    bloch: np.ndarray
    residual: float
    entropy: float
    complete: bool


def reconstruct_state(records: Iterable[ExpectationRecord]) -> StateEstimate:
    """Estimate a density matrix from up to three axis expectations.

    Records must cover each axis at most once; an empty record set is
    rejected.  Values may lie anywhere in the records' bound (even far
    outside [-1, 1]); the output is always a valid state, by the rule above.
    """
    target, measured = bloch_target(records)
    bloch = np.array(target) / max(math.hypot(*target), 1.0)
    residual = math.hypot(*(b - t for b, t, m in zip(bloch, target, measured) if m))
    rho = density_from_bloch(bloch)
    return StateEstimate(
        rho=rho,
        bloch=bloch,
        residual=residual,
        entropy=von_neumann_entropy(rho),
        complete=all(measured),
    )


def bloch_target(records: Iterable[ExpectationRecord]) -> tuple[list, list]:
    """Measured values per axis (0.0 where unmeasured) and the axis mask.

    Empty record sets and repeated axes raise ``ValueError``; anything but
    an :class:`ExpectationRecord` raises ``TypeError``.
    """
    target = [0.0, 0.0, 0.0]
    measured = [False, False, False]
    for record in records:
        if not isinstance(record, ExpectationRecord):
            raise TypeError(f"expected ExpectationRecord, got {type(record).__name__}")
        index = _AXIS_INDEX[record.axis]
        if measured[index]:
            raise ValueError(f"duplicate record for axis {record.axis!r}")
        target[index] = record.value
        measured[index] = True
    if True not in measured:
        raise ValueError("at least one expectation record is required")
    return target, measured

