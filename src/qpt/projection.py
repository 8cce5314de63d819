"""Projection of a reconstructed process onto the physical (CPTP) set.

The nearest physical process in Frobenius distance is the projection of the
Hermitian part ``H`` of the estimate onto the intersection of two convex
sets: the PSD cone (complete positivity) and the affine subspace of
coefficient matrices whose completeness sum
``S = sum_mn chi[m, n] A_n^dag A_m`` equals the identity (trace
preservation).  Each set has a closed-form projection:

* ``P_PSD`` clamps the eigenvalues of a Hermitian matrix at zero;
* ``P_TP`` subtracts the minimum-norm correction that cancels ``S - I``,
  a fixed pseudoinverse of the linear map ``chi -> S``, computed once at
  import.

Dykstra's alternating projections (Higham's form for the nearest
correlation matrix; Knee et al., PRA 98, 062336, 2018, for CPTP maps)
converge to the projection onto the intersection.  Because the TP set is
affine, only the PSD step carries a correction term::

    y <- P_TP(H)
    repeat:  r = y - dS;  x = P_PSD(r);  dS = x - r;  y = P_TP(x)

The iteration stops when ``y`` is certified feasible (TP residual and
negative eigenvalue both within ``1e-12``) and the last step moved it by
at most ``1e-13``.  An input that is already CPTP passes in one iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _COMPLETENESS
from .errors import NonConvergenceError
from .metrics import DiscrepancyReport

_IDENTITY_VEC = np.eye(2, dtype=complex).reshape(4)
# For this basis the rows of _COMPLETENESS are orthogonal with squared norm
# 8, so its pseudoinverse is its adjoint over 8.  The closed form avoids an
# SVD at import, which adds ~1 MB to the peak RSS of every CLI process.
_TP_PINV = _COMPLETENESS.conj().T / 8.0
# P_TP(chi) = _TP_LINEAR @ vec(chi) + _TP_OFFSET, the minimum-norm fix of S.
_TP_LINEAR = np.eye(16) - _TP_PINV @ _COMPLETENESS
_TP_OFFSET = (_TP_PINV @ _IDENTITY_VEC).reshape(4, 4)
# The fully depolarizing channel: CPTP with every eigenvalue at 1/4.
_DEPOLARIZING = np.eye(4, dtype=complex) / 4.0

_FEASIBILITY_TOL = 1e-12
_STEP_TOL = 1e-13
# Noisy estimates need a few dozen iterations and random Hermitian targets
# of unit scale a few hundred; targets far outside the CPTP set need more.
MAX_ITERATIONS = 10000


def _project_tp(chi: np.ndarray) -> np.ndarray:
    return (_TP_LINEAR @ chi.reshape(16)).reshape(4, 4) + _TP_OFFSET


def _project_psd(h: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.maximum(values, 0.0)) @ vectors.conj().T


def _tp_residual(chi: np.ndarray) -> float:
    return float(np.linalg.norm(_COMPLETENESS @ chi.reshape(16) - _IDENTITY_VEC))


def _min_eigenvalue(chi: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(chi)[0])


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of the physical projection.

    ``chi_tilde`` is the projected process; ``distance`` is its Frobenius
    distance from the (symmetrized) input; ``iterations`` counts Dykstra
    iterations.  ``tp_residual`` (``||S - I||_F``) and ``min_eigenvalue``
    are measured on ``chi_tilde`` and certify its feasibility.
    ``restart_distances`` is kept for callers of the former multi-start
    solver; the Dykstra solver leaves it empty.
    """

    chi_tilde: np.ndarray
    distance: float
    iterations: int
    converged: bool
    restart_distances: tuple[float, ...] = ()

    @property
    def tp_residual(self) -> float:
        return _tp_residual(self.chi_tilde)

    @property
    def min_eigenvalue(self) -> float:
        return _min_eigenvalue(self.chi_tilde)


def project_to_physical(
    chi: np.ndarray, max_iterations: int = MAX_ITERATIONS
) -> ProjectionResult:
    """Find the nearest CPTP process to ``chi`` in Frobenius distance.

    The input is symmetrized first; distances refer to the Hermitian part.
    If ``max_iterations`` Dykstra iterations do not reach the stopping
    criterion, ``NonConvergenceError`` is raised with the last iterate
    attached as ``best_result``, moved toward the fully depolarizing
    channel just far enough to be completely positive.
    """
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (4, 4):
        raise ValueError(f"chi matrix must be 4x4, got {chi.shape}")
    if not np.all(np.isfinite(chi)):
        raise ValueError("chi matrix contains non-finite entries")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be positive, got {max_iterations}")
    target = (chi + chi.conj().T) / 2.0

    y = _project_tp(target)
    correction = np.zeros((4, 4), dtype=complex)
    for iteration in range(1, max_iterations + 1):
        r = y - correction
        x = _project_psd(r)
        correction = x - r
        previous, y = y, _project_tp(x)
        converged = (
            np.linalg.norm(y - previous) <= _STEP_TOL
            and _tp_residual(y) <= _FEASIBILITY_TOL
            and _min_eigenvalue(y) >= -_FEASIBILITY_TOL
        )
        if converged:
            break
    else:
        # Mixing a TP point with the depolarizing channel keeps it TP; weight
        # t lifts the lowest eigenvalue to (1 - t) lowest + t / 4 = 0.
        lowest = _min_eigenvalue(y)
        if lowest < 0.0:
            weight = -lowest / (0.25 - lowest)
            y = (1.0 - weight) * y + weight * _DEPOLARIZING

    result = ProjectionResult(
        chi_tilde=y,
        distance=float(np.linalg.norm(y - target)),
        iterations=iteration,
        converged=bool(converged),
    )
    if not converged:
        raise NonConvergenceError(
            f"projection did not converge within {max_iterations} iterations",
            best_result=result,
        )
    return result


def projection_report(
    chi: np.ndarray,
    result: ProjectionResult,
    context: tuple[str, str] = ("estimated", "projected"),
) -> DiscrepancyReport:
    """Norms of ``chi - chi_tilde``, the discrepancy removed by projection."""
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (4, 4):
        raise ValueError(f"chi matrix must be 4x4, got {chi.shape}")
    return DiscrepancyReport.from_difference(chi - result.chi_tilde, context)
