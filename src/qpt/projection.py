"""Projection of a reconstructed process onto the physical (CPTP) set.

The nearest physical process to the Hermitian part ``H`` of an estimate
solves ``min 1/2 ||X - H||^2`` over ``X >= 0`` (complete positivity) with
row 0 of its Pauli transfer matrix equal to ``e_0 = (1, 0, 0, 0)`` (trace
preservation).  That row is ``T_0 vec(X)``, where ``T_0`` holds the first
four rows of the transfer tensor of :mod:`qpt.channels`:
``R[0, j] = (1/2) tr(S sigma_j)`` with ``S = sum_mn chi[m, n] A_n^dag A_m``,
so ``||S - I||_F = sqrt(2) ||T_0 vec(X) - e_0||``.

**Dual.**  The constraint is four real equations.  With the dual basis
``vec(B_k) = sqrt(2) conj(T_0[k])``, so that ``<B_k, X>`` is
``sqrt(2) (T_0 vec(X))_k``, the multipliers ``y`` in R^4 minimize the
convex, once differentiable ``theta(y) = 1/2 ||P_PSD(M)||^2 - sqrt(2) y_0``
with ``M = H + sum_k y_k B_k``, and ``X = P_PSD(M)`` at the minimizer
(Malick, SIAM J. Matrix Anal. Appl. 26, 272, 2004; Qi & Sun, ibid. 28,
360, 2006; for CPTP maps Knee et al., PRA 98, 062336, 2018).  One ``eigh``
``M = Q diag(lam) Q^dag`` gives ``X = Q diag(lam_+) Q^dag``; with
``W_k = Q^dag B_k Q`` the gradient
``g_k = Re diag(W_k) . lam_+ - sqrt(2) delta_k0`` is the TP residual
``sqrt(2) (T_0 vec(X) - e_0)``, so ``||g|| = ||S - I||_F``, and the
generalized Hessian is ``V_kl = Re <W_k, Omega o W_l>``, where ``Omega``
holds the first divided differences of ``max(., 0)`` at ``lam``.  The rows
of ``T_0`` are orthogonal with squared norm 4, so ``T_0^dag / 4`` is its
pseudoinverse and the nearest TP matrix to any ``X`` is
``X - T_0^dag (T_0 vec(X) - e_0) / 4``.

**Iteration.**  ``_evaluate`` gives ``||g||``, ``theta``, ``g`` and the
eigensystem with its blocks ``W_k`` at a point ``y``, one ``eigh`` each;
every other step is written once, in :func:`project_to_physical`, where it
is used.  The first move is along ``y_0`` alone: ``B_0 = sqrt(2) I``
shifts every eigenvalue of ``M`` and keeps ``Q``, so the first ``eigh``
also gives ``theta``'s exact minimizer along it, the shift that makes
``tr X = 1``, and the shifted point is evaluated from the first point's
``Q`` and blocks with no ``eigh`` of its own.  That settles targets with
``P_PSD(H) = 0``, such as ``-I``, where the Hessian is zero.  Newton steps
then solve ``(V + 1e-12 I) d = -g``, with ``V`` built from the divided
differences in the loop body, the ridge keeping the system solvable where
``X`` has low rank.  The full step is taken whenever it lowers ``||g||``;
otherwise the step length halves, from twice the last accepted length,
until ``theta`` passes the Armijo test.  Armijo alone stalls near
``||g|| ~ 1e-9``, where differences of ``theta`` fall below roundoff.

**Stopping.**  ``X`` is PSD by construction, and ``H - X + sum_k y_k B_k``
is the negative part of ``M``, orthogonal to ``X``; so ``||g||`` is the
whole KKT residual.  The loop stops at
``||g|| <= max(1e-12, 64 eps ||H||_F)`` or at ``MAX_ITERATIONS``
evaluations, and only then forms ``X = Q diag(lam_+) Q^dag``.  The
eigenvalues of ``M`` carry errors of order ``eps ||M||``, so at
``||H|| ~ 3000`` the residual floors near ``2e-12``.  The bound is
``1e-12`` for ``||H||_F`` up to ~70, which covers every tomography
estimate.  An iterate left above ``1e-12`` is made TP and then mixed with
the depolarizing channel until CP, so every result is CPTP to ``1e-12``.
The input's entries are at most 2**256 in modulus (``errors._BOUND``), so
``||H||_F``, ``theta`` and every iterate are finite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channels import _E0, _ROW0, _as_chi, _lowest_eigenvalue, _tp_deficit
from .errors import NonConvergenceError
from .metrics import DiscrepancyReport
from .states import _parts

# The fully depolarizing channel: CPTP with every eigenvalue at 1/4.
_DEPOLARIZING = np.eye(4, dtype=complex) / 4.0

# The dual basis, row k of _B_FLAT is vec(B_k) = sqrt(2) conj(_ROW0[k]), and
# the values <B_k, X> takes at a TP point.  sqrt(2) is rounded as 2 / sqrt(2),
# as in the orthonormal Pauli basis {I, X, Y, Z} / sqrt(2) the dual is built on.
_B_FLAT = 2.0 * _ROW0.conj() / np.sqrt(2.0)
_B_AT_TP = 2.0 * _E0 / np.sqrt(2.0)
_COUNTS = np.arange(1.0, 5.0)
_RIDGE = 1e-12 * np.eye(4)
_ARMIJO = 1e-4

_FEASIBILITY_TOL = 1e-12
_ROUNDOFF_FACTOR = 64.0 * sys.float_info.epsilon
# Noisy estimates take four to six evaluations; random Hermitian targets
# s (G + G^dag) / 2 at most ~20, ~35 and ~45 at s = 1, 100 and 1000.
MAX_ITERATIONS = 100


def _project_tp(chi: np.ndarray) -> np.ndarray:
    """The nearest TP matrix: ``chi - _ROW0^dag (_ROW0 vec(chi) - e_0) / 4``."""
    excess = _ROW0 @ chi.reshape(16) - _E0
    return chi - (_ROW0.conj().T @ excess).reshape(4, 4) / 4.0


def _evaluate(target: np.ndarray, y: np.ndarray, eigensystem: tuple | None = None) -> tuple:
    """``(||g||, theta, g, lam_+, (lam, Q, blocks))`` at ``y``.

    Row k of ``blocks`` is ``vec(W_k)``, ``W_k = Q^dag B_k Q``, through
    ``conj(Q_ai) Q_bj``.  ``lam``, ``Q`` and the blocks come from a new
    ``eigh`` of ``M``, or from ``eigensystem`` when given: the blocks depend
    on the eigenvectors alone, so the trace shift passes them along.
    """
    if eigensystem is None:
        values, vectors = np.linalg.eigh(target + (y @ _B_FLAT).reshape(4, 4))
        eigensystem = values, vectors, _B_FLAT @ (
            vectors.conj()[:, None, :, None] * vectors[None, :, None, :]
        ).reshape(16, 16)
    positive = np.maximum(eigensystem[0], 0.0)
    gradient = eigensystem[2][:, ::5].real @ positive - _B_AT_TP
    theta = 0.5 * (positive @ positive) - _B_AT_TP @ y
    return math.sqrt(gradient @ gradient), theta, gradient, positive, eigensystem


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of the physical projection.

    ``chi_tilde`` is the projected process; ``distance`` is its Frobenius
    distance from the (symmetrized) input; ``iterations`` counts evaluations
    of the dual function, one eigendecomposition each except the second,
    which reuses the first.  ``tp_residual`` (``||S - I||_F``) and
    ``min_eigenvalue`` are measured on ``chi_tilde`` and certify its
    feasibility.  ``restart_distances`` is always empty; it stays only
    because ``perfbench/test_perfbench.py`` constructs results with it.
    """

    chi_tilde: np.ndarray
    distance: float
    iterations: int
    converged: bool
    restart_distances: tuple[float, ...] = ()

    @property
    def tp_residual(self) -> float:
        return _tp_deficit(self.chi_tilde)

    @property
    def min_eigenvalue(self) -> float:
        return _lowest_eigenvalue(self.chi_tilde)


def project_to_physical(chi: np.ndarray) -> ProjectionResult:
    """Find the nearest CPTP process to ``chi`` in Frobenius distance.

    The input is symmetrized first; distances refer to the Hermitian part.
    If ``MAX_ITERATIONS`` evaluations of the dual function (the module value
    at call time) do not reach the stopping bound, ``NonConvergenceError``
    is raised with ``best_result`` the last iterate, made trace preserving
    and then moved toward the fully depolarizing channel just far enough to
    be completely positive.
    """
    target = _parts(_as_chi(chi))[0]
    tol = max(_FEASIBILITY_TOL, _ROUNDOFF_FACTOR * float(np.linalg.norm(target)))

    y = np.zeros(4)
    residual, theta, gradient, positive, (values, vectors, blocks) = _evaluate(target, y)
    evaluations = 1
    if residual > tol and MAX_ITERATIONS > 1:
        # The exact minimizer of theta along y_0, the shift that makes
        # tr X = 1; it moves every eigenvalue and keeps Q and its blocks.
        descending = values[::-1]
        shifts = (1.0 - np.cumsum(descending)) / _COUNTS
        fits = descending + shifts > 0.0
        fits[0] = True  # exactly 1 for the top eigenvalue; roundoff can lose it
        shift = shifts[np.flatnonzero(fits)[-1]]
        y = y + np.array([shift / np.sqrt(2.0), 0.0, 0.0, 0.0])
        residual, theta, gradient, positive, (values, vectors, blocks) = _evaluate(
            target, y, (values + shift, vectors, blocks)
        )
        evaluations += 1
    last_length = 1.0
    while residual > tol and evaluations < MAX_ITERATIONS:
        # The Hessian from the divided differences of max(., 0): 1 between two
        # positive eigenvalues, 0 between two non-positive ones,
        # lam_i / (lam_i - lam_j) across.
        size = np.abs(values)
        denominator = size[:, None] + size[None, :]
        denominator[denominator == 0.0] = 1.0
        omega = (positive[:, None] + positive[None, :]) / denominator
        hessian = ((blocks.conj() * omega.reshape(16)) @ blocks.T).real
        step = np.linalg.solve(hessian + _RIDGE, -gradient)
        slope = float(gradient @ step)
        length = 1.0
        while evaluations < MAX_ITERATIONS:
            moved = y + length * step
            trial = _evaluate(target, moved)
            evaluations += 1
            if (length == 1.0 and trial[0] < residual) or (
                trial[1] <= theta + _ARMIJO * length * slope
            ):
                y, last_length = moved, length
                residual, theta, gradient, positive, (values, vectors, blocks) = trial
                break
            length = min(0.5, 2.0 * last_length) if length == 1.0 else 0.5 * length

    converged = bool(residual <= tol)
    chi_tilde = (vectors * positive) @ vectors.conj().T
    if not residual <= _FEASIBILITY_TOL:
        # Out of budget, or stopped at the roundoff floor of a large target:
        # make the iterate TP, then mix in the depolarizing channel, which
        # keeps it TP; weight t lifts the lowest eigenvalue to
        # (1 - t) lowest + t / 4 = 0.
        chi_tilde = _project_tp(chi_tilde)
        lowest = _lowest_eigenvalue(chi_tilde)
        if lowest < 0.0:
            weight = -lowest / (0.25 - lowest)
            chi_tilde = (1.0 - weight) * chi_tilde + weight * _DEPOLARIZING

    result = ProjectionResult(
        chi_tilde=chi_tilde,
        distance=float(np.linalg.norm(chi_tilde - target)),
        iterations=evaluations,
        converged=converged,
    )
    if not converged:
        raise NonConvergenceError(
            f"projection did not converge within {MAX_ITERATIONS} iterations",
            best_result=result,
        )
    return result


def projection_report(
    chi: np.ndarray,
    result: ProjectionResult,
    context: tuple[str, str] = ("estimated", "projected"),
) -> DiscrepancyReport:
    """Norms of ``chi - chi_tilde``, the discrepancy removed by projection."""
    return DiscrepancyReport.from_difference(_as_chi(chi) - result.chi_tilde, context)
