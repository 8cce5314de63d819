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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import _shown
from .states import density_from_bloch, von_neumann_entropy

AXES = ("x", "y", "z")


@dataclass(frozen=True)
class ExpectationRecord:
    """One measured expectation value along a Pauli axis.

    ``shots=None`` marks an exact (infinite-statistics) value.  The shot
    count is carried through as metadata only; records do not weight the
    reconstruction residual.
    """

    axis: str
    value: float
    shots: int | None = None

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {_shown(self.axis)}")
        value = float(self.value)
        if not math.isfinite(value):
            raise ValueError(f"expectation value must be finite, got {value!r}")
        object.__setattr__(self, "value", value)
        if self.shots is not None:
            shots = int(self.shots)
            if shots < 1:
                raise ValueError(f"shots must be positive, got {_shown(shots)}")
            object.__setattr__(self, "shots", shots)


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
    rejected.  Values may lie anywhere (even far outside [-1, 1]); the
    output is always a valid state.  Only when the residual itself exceeds
    the float range (measured values of norm above ~1.8e308) is a
    ``ValueError`` raised.  The Bloch vector and residual come from
    :func:`fit_states`; ``rho`` and ``entropy`` from ``qpt.states``.
    """
    target, measured = bloch_target(records)
    bloch, residual = fit_states(np.array([target]), np.array([measured]))
    rho = density_from_bloch(bloch[0])
    return StateEstimate(
        rho=rho,
        bloch=bloch[0],
        residual=float(residual[0]),
        entropy=von_neumann_entropy(rho),
        complete=all(measured),
    )


def bloch_target(records: Iterable[ExpectationRecord]) -> tuple[list, list]:
    """Measured values per axis (0.0 where unmeasured) and the axis mask.

    Empty record sets and repeated axes raise ``ValueError``; anything but
    an :class:`ExpectationRecord` raises ``TypeError``.
    """
    measured = {}
    for record in records:
        if not isinstance(record, ExpectationRecord):
            raise TypeError(f"expected ExpectationRecord, got {type(record).__name__}")
        if record.axis in measured:
            raise ValueError(f"duplicate record for axis {record.axis!r}")
        measured[record.axis] = record.value
    if not measured:
        raise ValueError("at least one expectation record is required")
    return [measured.get(axis, 0.0) for axis in AXES], [axis in measured for axis in AXES]


def fit_states(
    target: np.ndarray, measured: np.ndarray, names: Sequence[str] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The estimation rule above applied to k rows at once.

    ``target`` is (k, 3), zero on unmeasured axes, and ``measured`` the
    matching boolean mask.  Returns the (k, 3) Bloch vectors and the k
    residuals.  A row whose residual exceeds the float range raises
    ``ValueError``, prefixed with its entry of ``names`` if given.
    """
    # Norms are taken of target * 2**-shift, with shift the binary exponent
    # of the largest value when that is positive.  A power-of-two scale is
    # exact, so the results are those of the unscaled formulas, but values
    # near 1e308 no longer overflow when squared.
    shift = np.maximum(np.frexp(np.abs(target).max(axis=1))[1], 0)
    scale = np.ldexp(1.0, -shift)[:, None]
    scaled = target * scale
    scaled_norm = np.sqrt((scaled * scaled).sum(axis=1, keepdims=True))
    inside = scaled_norm <= scale
    bloch = np.where(inside, target, scaled / np.where(inside, 1.0, scaled_norm))
    gap = (bloch * scale - scaled) * measured
    with np.errstate(over="ignore"):
        residual = np.ldexp(np.sqrt((gap * gap).sum(axis=1)), shift)
    overflow = np.isinf(residual)
    if overflow.any():
        prefix = "" if names is None else f"{names[int(np.argmax(overflow))]}: "
        raise ValueError(
            f"{prefix}expectation values too large: the residual exceeds the float range"
        )
    return bloch, residual
