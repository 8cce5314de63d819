"""Process reconstruction from the four canonical input states.

The pipeline follows the linear-inversion scheme: prepare the spanning
inputs ``{|0><0|, |1><1|, |+><+|, |+i><+i|}``, tomograph each output state,
express the outputs in the input-state basis (the lambda matrix), and solve
``beta . chi = lambda`` through the pseudoinverse of the fixed transfer
tensor beta, where ``A_m rho_j A_n^dag = sum_k beta[(j, k), (m, n)] rho_k``.

beta depends only on the operation elements and the input basis, so it is
built once and cached.  Measurement noise makes the recovered chi slightly
non-Hermitian; the estimate keeps the symmetrized matrix and records the
norm of the discarded anti-Hermitian part as a diagnostic.

chi is the one reconstructed object: every other representation of the
estimate (the affine Bloch map included) is converted from it, so the
representations agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (
    AffineMap,
    affine_from_chi,
    is_completely_positive,
    is_trace_preserving,
)
from .states import (
    KET_0,
    KET_1,
    KET_PLUS,
    KET_PLUS_I,
    OPERATION_ELEMENTS,
    hermiticity_defect,
    projector,
)
from .state_tomography import ExpectationRecord, StateEstimate, reconstruct_state

INPUT_STATE_LABELS = ("|0><0|", "|1><1|", "|+><+|", "|+i><+i|")

_INPUT_STATES = tuple(projector(k) for k in (KET_0, KET_1, KET_PLUS, KET_PLUS_I))
for _s in _INPUT_STATES:
    _s.setflags(write=False)

_PINV_RCOND = 1e-10

_cached_beta: np.ndarray | None = None
_cached_beta_pinv: np.ndarray | None = None


def input_basis() -> tuple[np.ndarray, ...]:
    """The four spanning input states, in fixed order."""
    return _INPUT_STATES


def _basis_stack(rho_basis: Sequence[np.ndarray] | None) -> np.ndarray:
    if rho_basis is None:
        return np.stack(_INPUT_STATES)
    stack = np.stack([np.asarray(r, dtype=complex) for r in rho_basis])
    if stack.shape != (4, 2, 2):
        raise ValueError(f"state basis must be four 2x2 matrices, got {stack.shape}")
    return stack


def expand_in_state_basis(
    m: np.ndarray, rho_basis: Sequence[np.ndarray] | None = None
) -> np.ndarray:
    """Coefficients c with ``m = sum_k c[k] rho_k`` for a spanning basis."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {m.shape}")
    stack = _basis_stack(rho_basis)
    # Columns of the 4x4 system are the vectorized basis states.
    system = stack.reshape(4, 4).T
    if np.linalg.matrix_rank(system, tol=1e-10) < 4:
        raise ValueError("state basis is rank deficient and does not span")
    return np.linalg.solve(system, m.reshape(4))


def build_beta(
    operation_elements: Sequence[np.ndarray] | None = None,
    rho_basis: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Transfer tensor flattened to 16x16: rows (j, k), columns (m, n).

    ``beta[(j, k), (m, n)]`` is the coefficient of ``rho_k`` in the
    expansion of ``A_m rho_j A_n^dag``.  The default tensor (canonical
    elements and inputs) is cached after the first call.
    """
    default = operation_elements is None and rho_basis is None
    global _cached_beta
    if default and _cached_beta is not None:
        return _cached_beta

    ops = (
        np.stack(OPERATION_ELEMENTS)
        if operation_elements is None
        else np.stack([np.asarray(op, dtype=complex) for op in operation_elements])
    )
    if ops.shape != (4, 2, 2):
        raise ValueError(f"need four 2x2 operation elements, got {ops.shape}")
    states = _basis_stack(rho_basis)
    system = states.reshape(4, 4).T
    if np.linalg.matrix_rank(system, tol=1e-10) < 4:
        raise ValueError("state basis is rank deficient and does not span")

    # transformed[m, n, j] = A_m rho_j A_n^dag, then solve for its
    # coefficients over the state basis in one batched call.
    transformed = np.einsum("mab,jbc,ndc->mnjad", ops, states, ops.conj())
    coeffs = np.linalg.solve(
        system[None, :, :], transformed.reshape(4, 4, 4, 4).reshape(64, 4).T[None, :, :]
    )
    # coeffs has shape (1, 4, 64) with axes (batch, k, (m, n, j)).
    beta = coeffs[0].reshape(4, 4, 4, 4)  # k, m, n, j
    beta = np.transpose(beta, (3, 0, 1, 2)).reshape(16, 16)  # (j, k), (m, n)
    if default:
        _cached_beta = beta
        _cached_beta.setflags(write=False)
    return beta


def _beta_pinv() -> np.ndarray:
    global _cached_beta_pinv
    if _cached_beta_pinv is None:
        _cached_beta_pinv = np.linalg.pinv(build_beta(), rcond=_PINV_RCOND)
        _cached_beta_pinv.setflags(write=False)
    return _cached_beta_pinv


def lambda_from_outputs(
    outputs: Sequence[np.ndarray],
    rho_basis: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Expand the four output states over the input basis, row j = image of rho_j."""
    if len(outputs) != 4:
        raise ValueError(f"expected 4 output states, got {len(outputs)}")
    rows = []
    for j, out in enumerate(outputs):
        out = np.asarray(out, dtype=complex)
        if out.shape != (2, 2):
            raise ValueError(f"output {j}: expected a 2x2 matrix, got {out.shape}")
        if not np.all(np.isfinite(out)):
            raise ValueError(f"output {j}: non-finite entries")
        if hermiticity_defect(out) > 1e-6:
            raise ValueError(f"output {j}: not Hermitian")
        if abs(out.trace() - 1.0) > 1e-6:
            raise ValueError(f"output {j}: trace {out.trace():.8f} is not 1")
        rows.append(expand_in_state_basis(out, rho_basis))
    return np.stack(rows)


def chi_from_lambda(
    lam: np.ndarray, beta_pinv: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Solve the linear inversion; return (Hermitian chi, anti-Hermitian norm).

    The raw solution of ``beta . chi_vec = lambda_vec`` picks up a small
    anti-Hermitian component under noisy data; it is split off and its
    Frobenius norm returned alongside the symmetrized matrix.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (4, 4):
        raise ValueError(f"lambda matrix must be 4x4, got {lam.shape}")
    pinv = _beta_pinv() if beta_pinv is None else beta_pinv
    chi_raw = (pinv @ lam.reshape(16)).reshape(4, 4)
    anti = (chi_raw - chi_raw.conj().T) / 2.0
    return (chi_raw + chi_raw.conj().T) / 2.0, float(np.linalg.norm(anti))


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
    state_estimates: tuple[StateEstimate, ...]

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
    """
    if len(record_sets) != 4:
        raise ValueError(
            f"expected records for 4 input states, got {len(record_sets)}"
        )
    estimates: list[StateEstimate] = []
    for j, entry in enumerate(record_sets):
        index = getattr(entry, "input_index", j + 1)
        if index != j + 1:
            raise ValueError(
                f"record set {j} is for input_index {index!r}, expected {j + 1}"
            )
        records = getattr(entry, "records", entry)
        try:
            estimates.append(reconstruct_state(records))
        except (ValueError, TypeError) as exc:
            raise type(exc)(f"input state {j} ({INPUT_STATE_LABELS[j]}): {exc}") from exc

    outputs = [e.rho for e in estimates]
    lam = lambda_from_outputs(outputs)
    chi, anti_norm = chi_from_lambda(lam)
    cp_flag, cp_min = is_completely_positive(chi)
    tp_flag, tp_deficit = is_trace_preserving(chi)
    return ProcessEstimate(
        chi=chi,
        affine=affine_from_chi(chi),
        cp_flag=cp_flag,
        tp_flag=tp_flag,
        cp_min_eigenvalue=cp_min,
        tp_deficit=tp_deficit,
        residuals=tuple(e.residual for e in estimates),
        anti_hermitian_norm=anti_norm,
        lambda_matrix=lam,
        state_estimates=tuple(estimates),
    )
