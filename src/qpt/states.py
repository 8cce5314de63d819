"""Qubit states, Bloch vectors, and density-matrix validation.

Conventions used across the package:

* ``|0>`` is the +1 eigenstate of sigma_z, so its Bloch vector is (0, 0, 1).
* Pauli coordinates are ``coords(m)[i] = tr(sigma_i m)``, defined here
  once.  Bloch components are coordinates 1..3 of a state, real parts
  taken, and the inverse map is ``rho = (I + r . sigma) / 2``.
* Process matrices are expanded over the operation elements
  ``{sigma_0, sigma_x, -i sigma_y, sigma_z}``.  With the ``-i`` folded into
  the y element all four operators are real, which keeps the coefficient
  matrix of any channel with a real Bloch-map representation real as well.
* The Hermitian and anti-Hermitian parts of a matrix are formed in one
  place, :func:`_parts`, from halves: ``m/2 + m^dag/2`` and
  ``m/2 - m^dag/2``, which for entries whose halves are normal floats
  equal ``(m +- m^dag) / 2`` bit for bit.  Every Hermiticity check, CP
  verdict, projection target and state check in the package starts from
  them.
* A public function converts each matrix or vector operand once, through
  ``errors._array``, whose bound of 2**256 on each entry's modulus keeps
  every defect, trace and eigenvalue finite.  A single operand's
  Hermiticity is then checked by :func:`_hermitian`, which converts
  nothing, and every refusal reads ``{name}: not Hermitian (defect ...)``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InvalidStateError, _array

# Tolerances shared by the validation helpers.  Hermiticity and trace checks
# absorb accumulated round-off from long pipelines.  CP_TOL is the one bound
# on a lowest eigenvalue: a state passes, and a chi matrix is a CP map (its
# Choi state is a state), down to -CP_TOL, and nothing lower.
HERMITICITY_TOL = 1e-8
TRACE_TOL = 1e-6
CP_TOL = 1e-9

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)

# Operation elements for process expansions: identity, sigma_x, -i sigma_y,
# sigma_z.  All real.
OPERATION_ELEMENTS = (SIGMA_0, SIGMA_X, -1.0j * SIGMA_Y, SIGMA_Z)

for _m in PAULIS + OPERATION_ELEMENTS:
    _m.setflags(write=False)

# Pauli coordinates ``coords(m)[i] = tr(sigma_i m)``: coords(m) is
# _COORDS @ vec(m) with row-major vec, so row i is vec(sigma_i^T).
# _COORDS is sqrt(2) times a unitary.
_COORDS = np.stack([p.T for p in PAULIS]).reshape(4, 4)


def _parts(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian and anti-Hermitian parts of a converted complex matrix
    or ``(k, n, n)`` stack, formed from halves."""
    half = m / 2.0
    adjoint = half.conj().swapaxes(-1, -2)
    return half + adjoint, half - adjoint


def _square(m: np.ndarray, name: str) -> np.ndarray:
    """``m`` converted by ``errors._array``; ``ValueError`` naming ``name``
    unless it is a nonempty square matrix.  The one square check of every
    square or state operand."""
    m = _array(m, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValueError(f"{name}: expected a nonempty square matrix, got shape {m.shape}")
    return m


def _hermitian(m: np.ndarray, what: str) -> np.ndarray:
    """The Hermitian part of the converted square matrix ``m``, which is
    not converted again; ``ValueError`` naming ``what`` if its
    anti-Hermitian part exceeds ``HERMITICITY_TOL`` in Frobenius norm.
    The one Hermiticity check of a single operand."""
    hermitian, anti = _parts(m)
    defect = float(np.linalg.norm(anti))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"{what}: not Hermitian (defect {defect:.3e})")
    return hermitian


def check_density_matrix(
    rho: np.ndarray, context: str = "density matrix"
) -> tuple[np.ndarray, np.ndarray]:
    """The one density-matrix check, for any square dimension.

    The entries and squareness (by :func:`_square`), then
    :func:`_check_states` on ``rho`` alone: Hermiticity, unit trace and
    the lowest eigenvalue against ``-CP_TOL``, in that order;
    raises ``InvalidStateError`` prefixed by ``context`` at the first that
    fails, the refusals of :func:`_square` included.  Returns the ``eigh``
    of the Hermitian part, ascending.
    """
    try:
        rho = _square(rho, context)
    except ValueError as exc:
        raise InvalidStateError(str(exc)) from None
    values, vectors = _check_states(rho[np.newaxis], (context,))
    return values[0], vectors[0]


def _check_states(stack: np.ndarray, contexts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_state_checks` that raises the ``InvalidStateError`` of
    :func:`check_density_matrix` at the first failure."""
    values, vectors, failure = _state_checks(stack, contexts)
    if failure is not None:
        raise InvalidStateError(failure)
    return values, vectors


def _state_checks(
    stack: np.ndarray, contexts: Sequence[str], difference: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, str | None]:
    """The density-matrix check on a converted ``(k, n, n)`` complex stack.

    Matrix ``i`` is checked under ``contexts[i]``, in stack order:
    Hermiticity, unit trace, then the lowest eigenvalue against
    ``-CP_TOL``.  Returns the stacked ``eigh`` of the Hermitian parts and
    the message of the first failed check, or ``None`` when every matrix
    passes.

    Every matrix is decomposed, and its defect and trace computed, before
    any is checked: one call each for the whole stack.  Every estimate and
    named channel is Hermitian bit for bit, so the defects' norms are taken
    only when the anti-Hermitian part has a nonzero entry.  When it has
    none, a given ``difference`` of two stacked matrices is Hermitian bit
    for bit too, since IEEE subtraction is sign-symmetric: it is then
    decomposed in the same call, and its ``eigh`` is the returned stack's
    row ``k``.
    """
    hermitian, anti = _parts(stack)
    exact = not anti.any()
    if exact and difference is not None:
        hermitian = np.concatenate((hermitian, difference[np.newaxis]))
    values, vectors = np.linalg.eigh(hermitian)
    defects = [0.0] * len(stack)
    if not exact:
        defects = np.linalg.norm(anti, axis=(-2, -1)).tolist()
    traces = stack.trace(axis1=-2, axis2=-1).tolist()
    for i, (context, defect, trace) in enumerate(zip(contexts, defects, traces)):
        if defect > HERMITICITY_TOL:
            return values, vectors, f"{context}: not Hermitian (defect {defect:.3e})"
        if abs(trace - 1.0) > TRACE_TOL:
            return values, vectors, f"{context}: trace {trace:.8f} is not 1"
        lowest = float(values[i, 0])
        if not lowest >= -CP_TOL:
            return values, vectors, f"{context}: negative eigenvalue {lowest:.3e} beyond clamp"
    return values, vectors, None


def _coords(stack: np.ndarray) -> np.ndarray:
    """Pauli coordinates of a (k, 2, 2) stack, one column per matrix."""
    return _COORDS @ stack.reshape(-1, 4).T


def _coords_inverse(coords: np.ndarray) -> np.ndarray:
    """Inverse of the (4, 4) coordinates of a four-state basis;
    ``ValueError`` if the basis does not span."""
    # _COORDS is sqrt(2) times a unitary, so the rank test scales the 1e-10
    # tolerance on the vectorized basis by sqrt(2).
    if np.linalg.matrix_rank(coords, tol=math.sqrt(2.0) * 1e-10) < 4:
        raise ValueError("state basis is rank deficient and does not span")
    return np.linalg.inv(coords)


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Bloch vector ``(Re tr(rho sigma_x), ..., Re tr(rho sigma_z))``.

    Requires a 2x2 Hermitian matrix; positivity is not checked here so the
    function stays usable on noisy intermediate estimates.
    """
    rho = _array(rho, "matrix", (2, 2))
    _hermitian(rho, "matrix")
    return _coords(rho)[1:, 0].real


def density_from_bloch(r: Sequence[float]) -> np.ndarray:
    """``(I + r . sigma) / 2`` for a Bloch vector inside the unit ball.

    The state's lowest eigenvalue is ``(1 - |r|) / 2``, so the norm may
    reach ``1 + 2 CP_TOL``, the one eigenvalue bound, and no further."""
    r = _array(r, "Bloch vector", (3,), real=True)
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + 2.0 * CP_TOL:
        raise InvalidStateError(f"Bloch vector norm {norm:.12f} exceeds 1")
    return (SIGMA_0 + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z) / 2.0


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy ``-sum p ln p`` in nats over the clamped spectrum of ``rho``."""
    values = np.clip(check_density_matrix(rho)[0], 0.0, 1.0)
    positive = values[values > 0.0]
    return max(float(-np.sum(positive * np.log(positive))), 0.0)
