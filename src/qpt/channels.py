"""Single-qubit process representations and conversions between them.

A channel ``E`` can be held in any of four equivalent forms:

* chi matrix: 4x4 Hermitian coefficient matrix over the operation elements
  ``{sigma_0, sigma_x, -i sigma_y, sigma_z}``, acting as
  ``E(rho) = sum_mn chi[m, n] A_m rho A_n^dag``.
* Kraus set: list of 2x2 operators, ``E(rho) = sum_k K_k rho K_k^dag``.
* Affine Bloch map:  ``r -> E r + t`` on Bloch vectors.
* Choi state: ``(I (x) E)`` applied to a maximally entangled pair, kept at
  trace 1 with the untouched ancilla as the first tensor factor.

The operation elements are unitary up to phase and satisfy
``tr(A_m^dag A_n) = 2 delta_mn``, so the vectors ``(I (x) A_m)|Phi>`` are
orthonormal and the Choi state is exactly the chi matrix rotated by a fixed
unitary.  Complete positivity of the map is therefore equivalent to the chi
matrix itself being positive semidefinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotCompletelyPositiveError
from .states import (
    HERMITICITY_TOL,
    OPERATION_ELEMENTS,
    PAULIS,
    SIGMA_0,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    hermiticity_defect,
)

# Kraus sets are plain lists of 2x2 complex arrays.
Kraus = list[np.ndarray]

CP_TOL = 1e-9
TP_TOL = 1e-8

_OPS = np.stack(OPERATION_ELEMENTS)
_OPS_CONJ = _OPS.conj()
_PAULI_STACK = np.stack(PAULIS)

# Columns of _CHOI_BASIS are (I (x) A_m)|Phi> with |Phi> = (|00>+|11>)/sqrt(2);
# they form an orthonormal basis of the two-qubit space.
_PHI = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
_CHOI_BASIS = np.stack(
    [np.kron(np.eye(2), op) @ _PHI for op in OPERATION_ELEMENTS], axis=1
)

# Pauli transfer coefficients: _PTM_TENSOR[(i, j), (m, n)] maps a chi matrix
# to R[i, j] = (1/2) tr(sigma_i E(sigma_j)).  Row 0 of R is (1, 0, 0, 0) for
# any TP map, rows 1..3 hold the affine translation and matrix.
_PTM_TENSOR = 0.5 * np.einsum(
    "iab,mbc,jcd,nad->ijmn", _PAULI_STACK, _OPS, _PAULI_STACK, _OPS.conj()
).reshape(4, 4, 16).reshape(16, 16)
# The tensor is twice a unitary, so its inverse is its adjoint over 4.
_CHI_FROM_PTM = _PTM_TENSOR.conj().T / 4.0
# Row 0 of R, R[0, j] = (1/2) tr(S sigma_j) with S = sum_mn chi[m, n]
# A_n^dag A_m, is _ROW0 @ vec(chi); the map is TP exactly when it is _E0.
# The Paulis over sqrt(2) are orthonormal, so ||S - I||_F is
# sqrt(2) ||_ROW0 @ vec(chi) - _E0||.
_ROW0 = _PTM_TENSOR[:4]
_E0 = np.array([1.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True)
class AffineMap:
    """Bloch-sphere action ``r -> matrix @ r + translation``."""

    matrix: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        translation = np.asarray(self.translation, dtype=float)
        if matrix.shape != (3, 3):
            raise ValueError(f"affine matrix must be 3x3, got {matrix.shape}")
        if translation.shape != (3,):
            raise ValueError(
                f"affine translation must be a 3-vector, got {translation.shape}"
            )
        if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(translation))):
            raise ValueError("affine map contains non-finite entries")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "translation", translation)

    def __call__(self, r: Sequence[float]) -> np.ndarray:
        return apply_affine(self, r)


def apply_affine(a: AffineMap, r: Sequence[float]) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"expected a Bloch 3-vector, got shape {r.shape}")
    return a.matrix @ r + a.translation


def _as_chi(chi: np.ndarray) -> np.ndarray:
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (4, 4):
        raise ValueError(f"chi matrix must be 4x4, got {chi.shape}")
    if not np.all(np.isfinite(chi)):
        raise ValueError("chi matrix contains non-finite entries")
    return chi


def _as_operator(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got {m.shape}")
    return m


def operator_from_coefficients(c: Sequence[complex]) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    if c.shape != (4,):
        raise ValueError(f"expected 4 coefficients, got shape {c.shape}")
    return np.einsum("m,mij->ij", c, _OPS)


def apply_chi(chi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Evaluate ``sum_mn chi[m, n] A_m rho A_n^dag``.

    ``rho`` is one 2x2 operator or a (k, 2, 2) stack, mapped in one
    contraction that gives each operator the same bits as a call on it
    alone.  Works for any 4x4 coefficient matrix, physical or not;
    Hermiticity of ``chi`` is the caller's responsibility (reconstruction
    symmetrizes, and the standard constructors emit Hermitian matrices).
    """
    chi = _as_chi(chi)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2) or rho.ndim not in (2, 3):
        raise ValueError(f"expected a 2x2 operator or a stack of them, got {rho.shape}")
    return np.einsum("mn,mik,...kl,njl->...ij", chi, _OPS, rho, _OPS_CONJ)


def apply_kraus(ops: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """Evaluate ``sum_k K_k rho K_k^dag``."""
    if len(ops) == 0:
        raise ValueError("Kraus set must contain at least one operator")
    stack = np.stack([_as_operator(k) for k in ops])
    rho = _as_operator(rho)
    return np.einsum("kil,lm,kjm->ij", stack, rho, stack.conj())


def chi_from_kraus(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Coefficient matrix of an operator-sum channel.

    Each Kraus operator is expanded over the operation elements,
    ``K_k = sum_m c[k, m] A_m``, giving ``chi = sum_k c_k c_k^dag``,
    which is PSD by construction.
    """
    if len(ops) == 0:
        raise ValueError("Kraus set must contain at least one operator")
    stack = np.stack([_as_operator(k) for k in ops])
    coeff = np.einsum("mij,kij->km", _OPS.conj(), stack) / 2.0
    return np.einsum("km,kn->mn", coeff, coeff.conj())


def kraus_from_chi(chi: np.ndarray) -> Kraus:
    """Diagonalize a PSD chi matrix into a Kraus set.

    Eigenvalues in ``[-CP_TOL, 0)`` are clamped to zero; anything below
    ``-CP_TOL`` means the map is not completely positive and raises
    ``NotCompletelyPositiveError``.  Components with weight below
    ``1e-12`` are dropped.
    """
    chi = _as_chi(chi)
    defect = hermiticity_defect(chi)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"chi matrix is not Hermitian (defect {defect:.3e})")
    values, vectors = np.linalg.eigh((chi + chi.conj().T) / 2.0)
    if values[0] < -CP_TOL:
        raise NotCompletelyPositiveError(
            f"chi eigenvalue {values[0]:.3e} below -{CP_TOL:g}; "
            "project the process onto the physical set first"
        )
    values = np.clip(values, 0.0, None)
    ops: Kraus = []
    for idx in np.argsort(values)[::-1]:
        w = values[idx]
        if w < 1e-12:
            continue
        ops.append(math.sqrt(w) * operator_from_coefficients(vectors[:, idx]))
    if not ops:
        # Everything fell under the cutoff: the zero map.  Keep one explicit
        # zero operator so apply_kraus stays well defined.
        ops.append(np.zeros((2, 2), dtype=complex))
    return ops


def _tp_deficit(chi: np.ndarray) -> float:
    """``||S - I||_F`` with ``S = sum_mn chi[m, n] A_n^dag A_m``; no input checks."""
    return math.sqrt(2.0) * float(np.linalg.norm(_ROW0 @ chi.reshape(16) - _E0))


def _lowest_eigenvalue(chi: np.ndarray) -> float:
    """Lowest eigenvalue of the Hermitian part of ``chi``; no input checks."""
    return float(np.linalg.eigvalsh((chi + chi.conj().T) / 2.0)[0])


def is_trace_preserving(chi: np.ndarray) -> tuple[bool, float]:
    """Return ``(flag, deficit)``, deficit ``||S - I||_F``; TP up to ``TP_TOL``."""
    deficit = _tp_deficit(_as_chi(chi))
    return deficit <= TP_TOL, deficit


def is_completely_positive(chi: np.ndarray) -> tuple[bool, float]:
    """Return ``(flag, min_choi_eigenvalue)``; the flag allows ``-CP_TOL`` slack.

    The Choi state is chi rotated by a fixed unitary, so the lowest
    eigenvalue of chi itself is the lowest Choi eigenvalue.
    """
    lowest = _lowest_eigenvalue(_as_chi(chi))
    return lowest >= -CP_TOL, lowest


def choi_from_chi(chi: np.ndarray) -> np.ndarray:
    """Trace-1 Choi state of the map, ancilla as the first tensor factor."""
    chi = _as_chi(chi)
    return _CHOI_BASIS @ chi @ _CHOI_BASIS.conj().T


def chi_from_choi(choi: np.ndarray) -> np.ndarray:
    choi = np.asarray(choi, dtype=complex)
    if choi.shape != (4, 4):
        raise ValueError(f"Choi state must be 4x4, got {choi.shape}")
    return _CHOI_BASIS.conj().T @ choi @ _CHOI_BASIS


def affine_from_chi(chi: np.ndarray) -> AffineMap:
    """Bloch-sphere action of the map: ``r -> E r + t``.

    ``E[i, j] = (1/2) Re tr(sigma_i E(sigma_j))`` over the traceless Paulis
    and ``t[i] = (1/2) Re tr(sigma_i E(I))``.  Defined for any coefficient
    matrix; for non-TP input the affine form simply drops the trace row.
    """
    return _affine(_as_chi(chi))


def _transfer(chi: np.ndarray) -> np.ndarray:
    """Real part of the Pauli transfer matrix ``R`` of ``chi``; no input checks."""
    return np.real(_PTM_TENSOR @ chi.reshape(16)).reshape(4, 4)


def _affine(chi: np.ndarray) -> AffineMap:
    """:func:`affine_from_chi` without the input checks."""
    transfer = _transfer(chi)
    return AffineMap(matrix=transfer[1:, 1:], translation=transfer[1:, 0])


def chi_from_affine(a: AffineMap) -> np.ndarray:
    """Inverse of :func:`affine_from_chi` under the trace-preserving convention.

    The omitted transfer row is restored as ``(1, 0, 0, 0)``, so the result
    is always Hermitian and exactly trace preserving, but completely
    positive only when the affine pair is physical.
    """
    transfer = np.zeros((4, 4))
    transfer[0, 0] = 1.0
    transfer[1:, 0] = a.translation
    transfer[1:, 1:] = a.matrix
    return _chi_from_ptm(transfer)[0]


def _chi_from_ptm(transfer: np.ndarray) -> tuple[np.ndarray, float]:
    """Hermitian part of the chi matrix of a transfer matrix ``R``, and the
    Frobenius norm of the anti-Hermitian part it drops (zero for real ``R``)."""
    chi = (_CHI_FROM_PTM @ transfer.reshape(16)).reshape(4, 4)
    return (chi + chi.conj().T) / 2.0, hermiticity_defect(chi)


def compose_chi(first: np.ndarray, then: np.ndarray) -> np.ndarray:
    """Coefficient matrix of ``rho -> then(first(rho))`` via Kraus products."""
    ops_a = kraus_from_chi(first)
    ops_b = kraus_from_chi(then)
    return chi_from_kraus([b @ a for b in ops_b for a in ops_a])


def rotation_unitary(axis, angle: float) -> np.ndarray:
    """``exp(-i angle/2 n.sigma)`` for a named or explicit rotation axis."""
    named = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
    if isinstance(axis, str):
        if axis not in named:
            raise ValueError(f"unknown axis {axis!r}; expected x, y, or z")
        n = np.array(named[axis])
    else:
        n = np.asarray(axis, dtype=float)
        if n.shape != (3,):
            raise ValueError(f"axis must be a 3-vector, got shape {n.shape}")
        norm = float(np.linalg.norm(n))
        if norm == 0.0:
            raise ValueError("rotation axis must be nonzero")
        n = n / norm
    generator = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    return math.cos(angle / 2.0) * SIGMA_0 - 1.0j * math.sin(angle / 2.0) * generator


def _decay_fraction(params: dict, rate_key: str, fraction_key: str, kind: str) -> float:
    """Resolve either an explicit fraction or a (t, T) pair to exp(-t/T)."""
    if fraction_key in params:
        extra = set(params) - {fraction_key}
        if extra:
            raise ValueError(f"{kind}: unexpected parameters {sorted(extra)}")
        value = float(params[fraction_key])
    else:
        missing = {"t", rate_key} - set(params)
        if missing:
            raise ValueError(
                f"{kind}: provide either {fraction_key}= or both t= and {rate_key}="
            )
        extra = set(params) - {"t", rate_key}
        if extra:
            raise ValueError(f"{kind}: unexpected parameters {sorted(extra)}")
        t = float(params["t"])
        scale = float(params[rate_key])
        if scale <= 0.0:
            raise ValueError(f"{kind}: {rate_key} must be positive, got {scale}")
        if t < 0.0:
            raise ValueError(f"{kind}: t must be nonnegative, got {t}")
        value = math.exp(-t / scale)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{kind}: {fraction_key} {value} outside [0, 1]")
    return value


def standard_channel(kind: str, **params) -> np.ndarray:
    """Coefficient matrix for a named channel family.

    Supported kinds and parameters:

    * ``identity``: no parameters.
    * ``dephasing``: ``factor=`` (the x/y contraction, ``exp(-t/t2)``) or
      ``t=`` with ``t2=``.
    * ``amplitude_damping``: ``gamma=`` (the decay probability, equal to
      ``1 - exp(-t/t1)``) or ``t=`` with ``t1=``.
    * ``depolarizing``: ``p=`` in [0, 1].
    * ``unitary_rotation``: ``axis=`` (name or 3-vector) and ``angle=``.
    """
    if kind == "identity":
        if params:
            raise ValueError(f"identity takes no parameters, got {sorted(params)}")
        chi = np.zeros((4, 4), dtype=complex)
        chi[0, 0] = 1.0
        return chi
    if kind == "dephasing":
        factor = _decay_fraction(params, "t2", "factor", "dephasing")
        return np.diag(
            np.array([(1.0 + factor) / 2.0, 0.0, 0.0, (1.0 - factor) / 2.0])
        ).astype(complex)
    if kind == "amplitude_damping":
        # _decay_fraction yields gamma directly when gamma= is given, and the
        # survival probability exp(-t/t1) otherwise.  The survival is used
        # as is: 1 - (1 - survival) cancels to 0 once it drops below ~1e-16.
        fraction = _decay_fraction(params, "t1", "gamma", "amplitude_damping")
        if "gamma" in params:
            gamma, survival = fraction, 1.0 - fraction
        else:
            gamma, survival = 1.0 - fraction, fraction
        keep = math.sqrt(survival)
        decay = np.array([[1.0, 0.0], [0.0, keep]], dtype=complex)
        jump = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
        return chi_from_kraus([decay, jump])
    if kind == "depolarizing":
        if set(params) != {"p"}:
            raise ValueError("depolarizing takes exactly the parameter p=")
        p = float(params["p"])
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"depolarizing: p {p} outside [0, 1]")
        return np.diag(
            np.array([1.0 - 3.0 * p / 4.0, p / 4.0, p / 4.0, p / 4.0])
        ).astype(complex)
    if kind == "unitary_rotation":
        if set(params) != {"axis", "angle"}:
            raise ValueError("unitary_rotation takes exactly axis= and angle=")
        return chi_from_kraus([rotation_unitary(params["axis"], float(params["angle"]))])
    raise ValueError(f"unknown channel kind {kind!r}")
