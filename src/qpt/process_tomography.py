"""Process reconstruction from four spanning input states.

The pipeline follows the linear-inversion scheme: prepare the spanning
inputs ``{|0><0|, |1><1|, |+><+|, |+i><+i|}``, tomograph each output state,
and invert the linear relation between the inputs and the outputs.

In the Pauli coordinates ``coords(m)[i] = tr(sigma_i m)`` of
:mod:`qpt.states`, let ``P_B`` hold the inputs' coordinates as columns and
``P_O`` the outputs'.  The Pauli transfer matrix
``R[i, j] = (1/2) tr(sigma_i E(sigma_j))`` of the channel satisfies
``P_O = R P_B``, so ``R = P_O P_B^-1``, and chi is the image of ``R`` under
the fixed inverse transfer tensor of :mod:`qpt.channels`.  The lambda matrix
(the outputs expanded over the inputs, row j = image of rho_j) is
``(P_B^-1 P_O)^T``.  ``P_B^-1`` is the one per-basis object: it is built
and the basis rank-checked once per basis, then cached.  The basis is the
canonical one unless the records declare a non-ideal preparation
(``polarization != 1`` or ``pulse_error != 0`` in their config), in which
case it is the declared prepared inputs.

Fitted outputs are Hermitian with trace 1, so ``R`` is real with first row
``(1, 0, 0, 0)`` and chi is Hermitian and trace preserving up to round-off.
The estimate keeps the Hermitian part of chi and records the norm of the
discarded anti-Hermitian part as a diagnostic.

chi is the one reconstructed object: every other representation of the
estimate (the affine Bloch map included) is converted from it, so the
representations agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channels import (
    AffineMap,
    _chi_from_ptm,
    affine_from_chi,
    is_completely_positive,
    is_trace_preserving,
)
from .states import (
    HERMITICITY_TOL,
    KET_0,
    KET_1,
    KET_PLUS,
    KET_PLUS_I,
    TRACE_TOL,
    _coords,
    hermiticity_defect,
    projector,
)
from .simulator import prepared_inputs
from .state_tomography import bloch_target, fit_states

INPUT_STATE_LABELS = ("|0><0|", "|1><1|", "|+><+|", "|+i><+i|")
_INPUT_NAMES = tuple(
    f"input state {j} ({label})" for j, label in enumerate(INPUT_STATE_LABELS)
)
# The (polarization, pulse_error) of a perfect preparation.
_IDEAL = (1.0, 0.0)

_INPUT_STATES = tuple(projector(k) for k in (KET_0, KET_1, KET_PLUS, KET_PLUS_I))
for _s in _INPUT_STATES:
    _s.setflags(write=False)
_INPUT_STACK = np.stack(_INPUT_STATES)

# The coordinate map is sqrt(2) times a unitary, so the rank test of the
# coordinates scales the 1e-10 tolerance on the vectorized basis by sqrt(2).
_RANK_TOL = np.sqrt(2.0) * 1e-10


def input_basis() -> tuple[np.ndarray, ...]:
    """The four spanning input states, in fixed order."""
    return _INPUT_STATES


def _basis_stack(rho_basis: Sequence[np.ndarray] | None) -> np.ndarray:
    if rho_basis is None:
        return _INPUT_STACK
    stack = np.asarray(rho_basis, dtype=complex)
    if stack.shape != (4, 2, 2):
        raise ValueError(f"state basis must be four 2x2 matrices, got {stack.shape}")
    return stack


def _coords_inverse(stack: np.ndarray) -> np.ndarray:
    """``P_B^-1`` of a basis stack, read-only and cached per basis."""
    return _inverse_for(np.ascontiguousarray(stack, dtype=complex).tobytes())


@lru_cache(maxsize=64)
def _inverse_for(key: bytes) -> np.ndarray:
    # The rank check runs once per basis, when its entry is filled; a basis
    # that does not span raises ValueError and is not cached.
    coords = _coords(np.frombuffer(key, dtype=complex).reshape(4, 2, 2))
    if np.linalg.matrix_rank(coords, tol=_RANK_TOL) < 4:
        raise ValueError("state basis is rank deficient and does not span")
    inverse = np.linalg.inv(coords)
    inverse.setflags(write=False)
    return inverse


def lambda_from_outputs(
    outputs: Sequence[np.ndarray],
    rho_basis: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Expand the four output states over the input basis, row j = image of rho_j.

    Row j is ``P_B^-1 @ coords(outputs[j])``, with ``P_B^-1`` cached per
    basis.
    """
    if len(outputs) != 4:
        raise ValueError(f"expected 4 output states, got {len(outputs)}")
    stack = []
    for j, out in enumerate(outputs):
        out = np.asarray(out, dtype=complex)
        if out.shape != (2, 2):
            raise ValueError(f"output {j}: expected a 2x2 matrix, got {out.shape}")
        if not np.all(np.isfinite(out)):
            raise ValueError(f"output {j}: non-finite entries")
        if hermiticity_defect(out) > HERMITICITY_TOL:
            raise ValueError(f"output {j}: not Hermitian")
        if abs(out.trace() - 1.0) > TRACE_TOL:
            raise ValueError(f"output {j}: trace {out.trace():.8f} is not 1")
        stack.append(out)
    return (_coords_inverse(_basis_stack(rho_basis)) @ _coords(np.stack(stack))).T


def chi_from_lambda(
    lam: np.ndarray, rho_basis: Sequence[np.ndarray] | None = None
) -> tuple[np.ndarray, float]:
    """Invert a lambda matrix; return (Hermitian chi, anti-Hermitian norm).

    The transfer matrix of the process is ``R = P_B lam^T P_B^-1`` over the
    basis (the canonical one by default), and chi its image under the
    inverse transfer tensor.  The anti-Hermitian part of that chi is split
    off and its Frobenius norm returned alongside the Hermitian part; it
    vanishes when ``R`` is real, as it is for Hermitian trace-1 outputs.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (4, 4):
        raise ValueError(f"lambda matrix must be 4x4, got {lam.shape}")
    stack = _basis_stack(rho_basis)
    return _chi_from_ptm(_coords(stack) @ lam.T @ _coords_inverse(stack))


@dataclass(frozen=True)
class ProcessEstimate:
    """Reconstructed process with physicality flags and diagnostics.

    ``chi`` is Hermitian (symmetrized) and ``affine`` is its Bloch-sphere
    action, ``affine_from_chi(chi)``; ``cp_flag`` / ``tp_flag`` report
    whether the estimate is completely positive and trace preserving within
    the standard tolerances, with the underlying numbers kept alongside.
    ``residuals`` are the per-input state-fit residuals.
    """

    chi: np.ndarray
    affine: AffineMap
    cp_flag: bool
    tp_flag: bool
    cp_min_eigenvalue: float
    tp_deficit: float
    residuals: tuple[float, ...]
    anti_hermitian_norm: float
    lambda_matrix: np.ndarray

    @property
    def physical(self) -> bool:
        return self.cp_flag and self.tp_flag


def run_process_tomography(record_sets: Sequence) -> ProcessEstimate:
    """Full reconstruction from four per-input expectation record sets.

    ``record_sets`` must follow the input order of :func:`input_basis`; each
    element is either a sequence of :class:`ExpectationRecord` or an object
    exposing them as ``.records`` (as the simulator emits).  An element that
    also carries an ``input_index`` (1-based) must sit in that slot, else
    ``ValueError``.  Errors raised while reconstructing an output state are
    re-raised with the offending input index prepended.

    Elements that carry a ``config`` declare their preparation.  When it is
    non-ideal (``polarization != 1`` or ``pulse_error != 0``), lambda and chi
    are solved over the prepared inputs ``prepare_input(config, 1..4)``
    instead of the canonical basis.  Elements declaring different
    preparations, or a preparation whose inputs do not span, raise
    ``ValueError``.
    """
    if len(record_sets) != 4:
        raise ValueError(
            f"expected records for 4 input states, got {len(record_sets)}"
        )
    targets, masks = [], []
    preparations = {}
    for j, entry in enumerate(record_sets):
        index = getattr(entry, "input_index", j + 1)
        if index != j + 1:
            raise ValueError(
                f"record set {j} is for input_index {index!r}, expected {j + 1}"
            )
        config = getattr(entry, "config", None)
        if config is None:
            preparations[_IDEAL] = None
        else:
            preparations[(config.polarization, config.pulse_error)] = config
        records = getattr(entry, "records", entry)
        try:
            target, mask = bloch_target(records)
        except (ValueError, TypeError) as exc:
            raise type(exc)(f"{_INPUT_NAMES[j]}: {exc}") from exc
        targets.append(target)
        masks.append(mask)
    inverse = _declared_inverse(preparations)
    bloch, residuals = fit_states(np.array(targets), np.array(masks), _INPUT_NAMES)
    outputs = np.empty((4, 4))  # P_O: the fitted outputs' Pauli coordinates
    outputs[0] = 1.0
    outputs[1:] = bloch.T
    chi, anti_norm = _chi_from_ptm(outputs @ inverse)
    cp_flag, cp_min = is_completely_positive(chi)
    tp_flag, tp_deficit = is_trace_preserving(chi)
    return ProcessEstimate(
        chi=chi,
        affine=affine_from_chi(chi),
        cp_flag=cp_flag,
        tp_flag=tp_flag,
        cp_min_eigenvalue=cp_min,
        tp_deficit=tp_deficit,
        residuals=tuple(residuals.tolist()),
        anti_hermitian_norm=anti_norm,
        lambda_matrix=(inverse @ outputs).T,
    )


def _declared_inverse(preparations: dict) -> np.ndarray:
    """``P_B^-1`` of the one preparation the record sets declare.

    ``preparations`` maps each declared ``(polarization, pulse_error)`` to
    a config declaring it (``None`` for entries without a config).
    """
    if len(preparations) != 1:
        raise ValueError(
            "record sets declare different preparations (polarization, "
            f"pulse_error): {sorted(preparations)}"
        )
    ((preparation, config),) = preparations.items()
    if preparation == _IDEAL:
        return _coords_inverse(_INPUT_STACK)
    try:
        return _coords_inverse(prepared_inputs(config))
    except ValueError as exc:
        polarization, pulse_error = preparation
        raise ValueError(
            f"declared preparation polarization={polarization}, "
            f"pulse_error={pulse_error}: {exc}"
        ) from None
