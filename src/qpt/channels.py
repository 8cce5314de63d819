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

Every named decay family (identity, dephasing, depolarizing, amplitude
damping), like the simulator's decoherence interval, is a trace-preserving
Bloch map ``r -> diag(shrink) r + (0, 0, lift)``, and one builder,
``_chi_from_bloch``, turns each into chi through its transfer matrix, as
:func:`chi_from_affine` does; the chi is Hermitian bit for bit.  Only the
unitary rotation is built from its Kraus operator.

Every array a function here takes goes through ``errors._array``, whose
bound of 2**256 on each entry's modulus keeps every result finite, so no
result is checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotCompletelyPositiveError, _array, _number
from .states import (
    CP_TOL,
    OPERATION_ELEMENTS,
    PAULIS,
    SIGMA_0,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _hermitian,
    _parts,
)

# Kraus sets are plain lists of 2x2 complex arrays.
Kraus = list[np.ndarray]

# The CP verdict reads CP_TOL, the one bound on a lowest eigenvalue in
# states: a map is CP exactly when its Choi state, chi in a fixed basis,
# is a state.
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
        for name, shape in (("matrix", (3, 3)), ("translation", (3,))):
            array = _array(getattr(self, name), f"affine {name}", shape, real=True)
            object.__setattr__(self, name, array)

    def __call__(self, r: Sequence[float]) -> np.ndarray:
        return apply_affine(self, r)


def apply_affine(a: AffineMap, r: Sequence[float]) -> np.ndarray:
    return a.matrix @ _array(r, "Bloch vector", (3,), real=True) + a.translation


def _as_chi(chi: np.ndarray) -> np.ndarray:
    return _array(chi, "chi matrix", (4, 4))


def _kraus_stack(ops: Sequence[np.ndarray]) -> np.ndarray:
    """The (k, 2, 2) stack of a nonempty Kraus set."""
    if len(ops) == 0:
        raise ValueError("Kraus set must contain at least one operator")
    return np.stack([_array(k, f"Kraus operator {i}", (2, 2)) for i, k in enumerate(ops)])


def apply_chi(chi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Evaluate ``sum_mn chi[m, n] A_m rho A_n^dag``.

    ``rho`` is one 2x2 operator or a (k, 2, 2) stack, mapped in one
    contraction that gives each operator the same bits as a call on it
    alone.  Works for any 4x4 coefficient matrix with finite entries,
    physical or not; Hermiticity of ``chi`` is the caller's responsibility
    (reconstruction and the standard constructors emit Hermitian matrices).
    """
    chi = _as_chi(chi)
    rho = _array(rho, "rho")
    if rho.shape[-2:] != (2, 2) or rho.ndim not in (2, 3):
        raise ValueError(f"rho: expected a 2x2 operator or a stack of them, got {rho.shape}")
    return np.einsum("mn,mik,...kl,njl->...ij", chi, _OPS, rho, _OPS_CONJ)


def apply_kraus(ops: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """Evaluate ``sum_k K_k rho K_k^dag``."""
    stack = _kraus_stack(ops)
    rho = _array(rho, "rho", (2, 2))
    return np.einsum("kil,lm,kjm->ij", stack, rho, stack.conj())


def chi_from_kraus(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Coefficient matrix of an operator-sum channel.

    Each Kraus operator is expanded over the operation elements,
    ``K_k = sum_m c[k, m] A_m``, giving ``chi = sum_k c_k c_k^dag``,
    which is PSD by construction.
    """
    stack = _kraus_stack(ops)
    coeff = np.einsum("mij,kij->km", _OPS.conj(), stack) / 2.0
    return np.einsum("km,kn->mn", coeff, coeff.conj())


def kraus_from_chi(chi: np.ndarray) -> Kraus:
    """Diagonalize a PSD chi matrix into a Kraus set.

    A lowest eigenvalue below ``-CP_TOL``, or a NaN one, means the map is
    not shown to be completely positive and raises
    ``NotCompletelyPositiveError``.  Components with weight below ``1e-12``,
    so every eigenvalue in ``[-CP_TOL, 0)``, are dropped.
    """
    values, vectors = np.linalg.eigh(_hermitian(_as_chi(chi), "chi matrix"))
    if not values[0] >= -CP_TOL:
        raise NotCompletelyPositiveError(
            f"chi eigenvalue {values[0]:.3e} below -{CP_TOL:g}; "
            "project the process onto the physical set first"
        )
    # eigh sorts ascending: the kept components, strongest first.
    kept = np.flatnonzero(values >= 1e-12)[::-1]
    if not kept.size:
        # Everything fell under the cutoff: the zero map.  Keep one explicit
        # zero operator so apply_kraus stays well defined.
        return [np.zeros((2, 2), dtype=complex)]
    # The eigenvectors come from eigh, so they are built without a check.
    ops = np.einsum("mk,mij->kij", vectors[:, kept], _OPS)
    return list(np.sqrt(values[kept])[:, np.newaxis, np.newaxis] * ops)


def _tp_deficit(chi: np.ndarray) -> float:
    """``||S - I||_F`` with ``S = sum_mn chi[m, n] A_n^dag A_m``; no input checks."""
    return math.sqrt(2.0) * float(np.linalg.norm(_ROW0 @ chi.reshape(16) - _E0))


def _lowest_eigenvalue(chi: np.ndarray) -> float:
    """Lowest eigenvalue of the Hermitian part of ``chi``; no input checks."""
    return float(np.linalg.eigvalsh(_parts(chi)[0])[0])


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
    return _CHOI_BASIS @ _as_chi(chi) @ _CHOI_BASIS.conj().T


def chi_from_choi(choi: np.ndarray) -> np.ndarray:
    return _CHOI_BASIS.conj().T @ _array(choi, "Choi state", (4, 4)) @ _CHOI_BASIS


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
    """:func:`affine_from_chi` without the input checks.

    The map is not checked either: the transfer entries of a chi at the
    bound reach four times it, and are finite.
    """
    transfer = _transfer(chi)
    affine = object.__new__(AffineMap)
    affine.__dict__.update(matrix=transfer[1:, 1:], translation=transfer[1:, 0])
    return affine


def chi_from_affine(a: AffineMap) -> np.ndarray:
    """Inverse of :func:`affine_from_chi` under the trace-preserving convention.

    The omitted transfer row is restored as ``(1, 0, 0, 0)``, so the result
    is always Hermitian and exactly trace preserving, but completely
    positive only when the affine pair is physical.
    """
    return _chi_from_bloch(a.matrix, a.translation)


def _chi_from_bloch(matrix, translation) -> np.ndarray:
    """The chi matrix of the trace-preserving Bloch map ``r -> matrix @ r +
    translation``; no input checks.  The one path from a Bloch map to chi."""
    transfer = np.zeros((4, 4))
    transfer[0, 0] = 1.0
    transfer[1:, 0] = translation
    transfer[1:, 1:] = matrix
    return _chi_from_ptm(transfer)


def _chi_from_ptm(transfer: np.ndarray) -> np.ndarray:
    """The chi matrix of a transfer matrix ``R``; no input checks.

    For a real ``R`` (real or complex dtype with zero imaginary part) the
    result is Hermitian bit for bit.  Every entry of ``_CHI_FROM_PTM`` is
    0, +-1/4 or +-i/4, and the row of ``chi[n, m]`` is the conjugate of the
    row of ``chi[m, n]``, so the two sum the same exact products in the
    same order and differ only in the sign of the imaginary part.
    """
    return (_CHI_FROM_PTM @ transfer.reshape(16)).reshape(4, 4)


def compose_chi(first: np.ndarray, then: np.ndarray) -> np.ndarray:
    """Coefficient matrix of ``rho -> then(first(rho))``, physical or not.

    Transfer matrices compose by product: ``R = R_then @ R_first``.  Both
    inputs must be Hermitian, so that each ``R`` is real.
    """
    _hermitian(first := _as_chi(first), "chi matrix")
    _hermitian(then := _as_chi(then), "chi matrix")
    return _chi_from_ptm(_transfer(then) @ _transfer(first))


def rotation_unitary(axis, angle: float) -> np.ndarray:
    """``exp(-i angle/2 n.sigma)`` for a named or explicit rotation axis."""
    named = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
    if isinstance(axis, str):
        if axis not in named:
            raise ValueError(f"unknown axis {axis!r}; expected x, y, or z")
        n = np.array(named[axis])
    else:
        n = _array(axis, "axis", (3,), real=True)
        # Scaled to a largest entry of 1 first, so the norm of a subnormal
        # axis does not underflow.
        largest = np.abs(n).max()
        if largest == 0.0:
            raise ValueError("rotation axis must be nonzero")
        n = n / largest
        n = n / np.linalg.norm(n)
    angle = _number(angle, "angle")
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    generator = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    return math.cos(angle / 2.0) * SIGMA_0 - 1.0j * math.sin(angle / 2.0) * generator


# The parameter sets each named family takes, in full: a call gives exactly
# one of them.  `qpt compare` names a family by its one-parameter set.
_PARAMETER_SETS = {
    "identity": ((),),
    "dephasing": (("factor",), ("t", "t2")),
    "depolarizing": (("p",),),
    "amplitude_damping": (("gamma",), ("t", "t1")),
    "unitary_rotation": (("axis", "angle"),),
}


def _fraction(kind: str, params: dict) -> float:
    """The fraction a parameter set of ``kind`` gives: its one parameter, or
    ``exp(-t/T)`` of a ``t``, ``T`` pair; checked to lie in [0, 1].  An
    infinite ``T`` is the no-decay limit, fraction 1."""
    if len(params) == 1:
        ((name, value),) = params.items()
        value = _number(value, f"{kind}: {name}")
    else:
        name = next(key for key in params if key != "t")
        t = _number(params["t"], f"{kind}: t")
        scale = _number(params[name], f"{kind}: {name}")
        if not scale > 0.0:
            raise ValueError(f"{kind}: {name} must be positive, got {scale}")
        if not 0.0 <= t < math.inf:
            raise ValueError(f"{kind}: t must be nonnegative and finite, got {t}")
        value = math.exp(-t / scale)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{kind}: {name} {value} outside [0, 1]")
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

    The names given must equal one of these sets, else a ``ValueError``
    names the kind, every set it takes and the names given.
    """
    if not isinstance(kind, str) or kind not in _PARAMETER_SETS:
        raise ValueError(f"unknown channel kind {kind!r}")
    accepted = _PARAMETER_SETS[kind]
    if set(params) not in map(set, accepted):
        sets = " or ".join(
            " and ".join(f"{name}=" for name in names) or "no parameters"
            for names in accepted
        )
        raise ValueError(f"{kind} takes {sets}, got {sorted(params)}")
    if kind == "unitary_rotation":
        return chi_from_kraus([rotation_unitary(params["axis"], params["angle"])])
    # Each decay family is a Bloch map r -> diag(shrink) @ r + (0, 0, lift).
    f = 1.0 if kind == "identity" else _fraction(kind, params)
    shrink, lift = (f, f, 1.0), 0.0
    if kind == "depolarizing":
        shrink = (1.0 - f,) * 3
    elif kind == "amplitude_damping":
        # _fraction yields gamma directly when gamma= is given, and the
        # survival probability exp(-t/t1) otherwise.  The survival is used
        # as is: 1 - (1 - survival) cancels to 0 once it drops below ~1e-16.
        lift, survival = 1.0 - f, f
        if "gamma" in params:
            lift, survival = survival, lift
        shrink = (math.sqrt(survival), math.sqrt(survival), survival)
    return _chi_from_bloch(np.diag(shrink), (0.0, 0.0, lift))
