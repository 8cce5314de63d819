"""Qubit states, Bloch vectors, and density-matrix validation.

Conventions used across the package:

* ``|0>`` is the +1 eigenstate of sigma_z, so its Bloch vector is (0, 0, 1).
* Bloch components are ``r_i = Re tr(rho sigma_i)`` and the inverse map is
  ``rho = (I + r . sigma) / 2``.
* Process matrices are expanded over the operation elements
  ``{sigma_0, sigma_x, -i sigma_y, sigma_z}``.  With the ``-i`` folded into
  the y element all four operators are real, which keeps the coefficient
  matrix of any channel with a real Bloch-map representation real as well.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InvalidStateError

# Tolerances shared by the validation helpers.  Hermiticity and trace checks
# allow more slack than the eigenvalue clamp because they absorb accumulated
# round-off from long pipelines, while the clamp guards a hard constraint.
HERMITICITY_TOL = 1e-8
TRACE_TOL = 1e-6
EIGENVALUE_CLAMP = 1e-10

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)

# Operation elements for process expansions: identity, sigma_x, -i sigma_y,
# sigma_z.  All real.
OPERATION_ELEMENTS = (SIGMA_0, SIGMA_X, -1.0j * SIGMA_Y, SIGMA_Z)
OPERATION_LABELS = ("I", "X", "-iY", "Z")

KET_0 = np.array([1.0, 0.0], dtype=complex)
KET_1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
KET_PLUS_I = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)

for _m in PAULIS + OPERATION_ELEMENTS:
    _m.setflags(write=False)
for _k in (KET_0, KET_1, KET_PLUS, KET_PLUS_I):
    _k.setflags(write=False)


def projector(ket: np.ndarray) -> np.ndarray:
    """Return |ket><ket| for a (not necessarily normalized) state vector."""
    ket = np.asarray(ket, dtype=complex)
    norm = np.linalg.norm(ket)
    if norm == 0.0:
        raise ValueError("cannot project onto the zero vector")
    ket = ket / norm
    return np.outer(ket, ket.conj())


def hermiticity_defect(m: np.ndarray) -> float:
    """Frobenius norm of the anti-Hermitian part of ``m``."""
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.norm((m - m.conj().T) / 2.0))


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.all(np.abs(m - m.conj().T) <= tol))


def hermitian_eigensystem(
    m: np.ndarray, tol: float = HERMITICITY_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns of ``m``.

    ``m`` must be square and Hermitian within ``tol`` entrywise; the
    decomposition itself runs on the exactly symmetrized matrix so the
    returned eigenvalues are always real.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    if not np.all(np.abs(m - m.conj().T) <= tol):
        raise ValueError(
            f"matrix is not Hermitian within {tol:g} "
            f"(defect {hermiticity_defect(m):.3e})"
        )
    values, vectors = np.linalg.eigh((m + m.conj().T) / 2.0)
    order = np.argsort(values)[::-1]
    return values[order], vectors[:, order]


def check_density_form(
    rho: np.ndarray, dim: int | None = 2, context: str = "density matrix"
) -> np.ndarray:
    """The non-spectral checks of :func:`validate_density_matrix`.

    Shape, finiteness, Hermiticity and unit trace, in that order; returns
    ``rho`` as a complex array.  A caller that needs the spectrum anyway
    decomposes once and passes it to :func:`check_lowest_eigenvalue`.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"{context}: expected a square matrix, got {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise InvalidStateError(f"{context}: expected {dim}x{dim}, got {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise InvalidStateError(f"{context}: non-finite entries")
    defect = hermiticity_defect(rho)
    if defect > HERMITICITY_TOL:
        raise InvalidStateError(f"{context}: not Hermitian (defect {defect:.3e})")
    trace = rho.trace()
    if abs(trace - 1.0) > TRACE_TOL:
        raise InvalidStateError(f"{context}: trace {trace:.8f} is not 1")
    return rho


def check_lowest_eigenvalue(
    values: np.ndarray,
    eigenvalue_tol: float = EIGENVALUE_CLAMP,
    context: str = "density matrix",
) -> None:
    """Positivity check on an ascending spectrum (as ``eigh`` returns it)."""
    lowest = float(values[0])
    if lowest < -eigenvalue_tol:
        raise InvalidStateError(
            f"{context}: negative eigenvalue {lowest:.3e} beyond clamp"
        )


def validate_density_matrix(
    rho: np.ndarray,
    dim: int | None = 2,
    eigenvalue_tol: float = EIGENVALUE_CLAMP,
    context: str = "density matrix",
) -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity; return the array.

    Raises ``InvalidStateError`` describing the first violated constraint.
    ``dim=None`` accepts any square dimension (used for bipartite states).
    """
    rho = check_density_form(rho, dim, context)
    values = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    check_lowest_eigenvalue(values, eigenvalue_tol, context)
    return rho


def is_valid_density_matrix(rho: np.ndarray, dim: int | None = 2) -> bool:
    try:
        validate_density_matrix(rho, dim=dim)
    except InvalidStateError:
        return False
    return True


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Bloch vector ``(Re tr(rho sigma_x), ..., Re tr(rho sigma_z))``.

    Requires a 2x2 Hermitian matrix; positivity is not checked here so the
    function stays usable on noisy intermediate estimates.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {rho.shape}")
    if hermiticity_defect(rho) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian")
    return np.array(
        [
            float(np.trace(rho @ SIGMA_X).real),
            float(np.trace(rho @ SIGMA_Y).real),
            float(np.trace(rho @ SIGMA_Z).real),
        ]
    )


def density_from_bloch(r: Sequence[float]) -> np.ndarray:
    """``(I + r . sigma) / 2`` for a Bloch vector inside the unit ball."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {r.shape}")
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + 1e-9:
        raise InvalidStateError(f"Bloch vector norm {norm:.12f} exceeds 1")
    return (SIGMA_0 + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z) / 2.0


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy ``-sum p ln p`` in nats over the clamped spectrum of ``rho``."""
    rho = check_density_form(rho, dim=None)
    values = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    check_lowest_eigenvalue(values)
    values = np.clip(values, 0.0, 1.0)
    positive = values[values > 0.0]
    return max(float(-np.sum(positive * np.log(positive))), 0.0)
