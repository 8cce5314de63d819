"""Independent reference checks for process matrices.

Nothing here imports ``qpt``: the operation basis, the completeness sum and
the nearest-CPTP projection are rebuilt from their definitions, so a defect
in the toolkit cannot hide in the yardstick that measures it.

The projection is Dykstra's alternating projection (in Higham's form, with
the correction carried only on the non-affine set) between the PSD cone,
which clamps eigenvalues, and the trace-preserving affine subspace, which is
a fixed pseudoinverse correction of the completeness sum
``S = sum_mn chi[m, n] A_n^dag A_m``.
"""

from __future__ import annotations

import numpy as np

# Operation basis {I, sigma_x, -i sigma_y, sigma_z}.
OPERATION_BASIS = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1], [1, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# Column m * 4 + n holds vec(A_n^dag A_m), so S = _COMPLETENESS @ vec(chi).
_COMPLETENESS = np.einsum(
    "nki,mkj->mnij", OPERATION_BASIS.conj(), OPERATION_BASIS
).reshape(16, 4).T
_COMPLETENESS_PINV = np.linalg.pinv(_COMPLETENESS)
_IDENTITY_VEC = np.eye(2, dtype=complex).reshape(4)

# Stopping rule: feasible on both constraints and no longer moving.
FEASIBILITY_TOL = 1e-12
_STEP_TOL = 1e-13
_MAX_ITERATIONS = 200_000


def hermitian_part(chi: np.ndarray) -> np.ndarray:
    chi = np.asarray(chi, dtype=complex)
    return (chi + chi.conj().T) / 2.0


def tp_residual(chi: np.ndarray) -> float:
    """``||S - I||_F`` for the completeness sum of ``chi``."""
    s = _COMPLETENESS @ np.asarray(chi, dtype=complex).reshape(16)
    return float(np.linalg.norm(s - _IDENTITY_VEC))


def min_eigenvalue(chi: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitian_part(chi))[0])


def dephasing_chi(factor: float) -> np.ndarray:
    """``rho -> p rho + (1 - p) Z rho Z`` with x/y contraction ``2p - 1``."""
    return np.diag([(1.0 + factor) / 2.0, 0.0, 0.0, (1.0 - factor) / 2.0]).astype(complex)


def _project_tp(chi: np.ndarray) -> np.ndarray:
    excess = _COMPLETENESS @ chi.reshape(16) - _IDENTITY_VEC
    return hermitian_part(chi - (_COMPLETENESS_PINV @ excess).reshape(4, 4))


def _project_psd(chi: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(chi)
    return (vectors * np.clip(values, 0.0, None)) @ vectors.conj().T


def reference_projection(chi: np.ndarray) -> tuple[np.ndarray, int]:
    """Nearest CPTP matrix to the Hermitian part of ``chi`` in Frobenius norm.

    Returns ``(chi_ref, iterations)``.  Stops only when the TP residual and
    the negated minimum eigenvalue are both at most ``FEASIBILITY_TOL`` and
    an iteration moved the iterate by less than ``_STEP_TOL``; raises
    ``RuntimeError`` if that never happens, since a reference that did not
    converge cannot judge anything.
    """
    y = _project_tp(hermitian_part(chi))
    correction = np.zeros((4, 4), dtype=complex)
    for iteration in range(1, _MAX_ITERATIONS + 1):
        r = y - correction
        x = _project_psd(r)
        correction = x - r
        previous, y = y, _project_tp(x)
        if (
            np.linalg.norm(y - previous) <= _STEP_TOL
            and tp_residual(y) <= FEASIBILITY_TOL
            and min_eigenvalue(y) >= -FEASIBILITY_TOL
        ):
            return y, iteration
    raise RuntimeError(
        f"reference projection did not converge in {_MAX_ITERATIONS} iterations"
    )
