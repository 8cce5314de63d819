"""Process reconstruction from four spanning input states.

The pipeline follows the linear-inversion scheme: prepare the spanning
inputs ``{|0><0|, |1><1|, |+><+|, |+i><+i|}``, tomograph each output state,
express the outputs in the input-state basis (the lambda matrix), and solve
``beta . chi = lambda`` through the pseudoinverse of the fixed transfer
tensor beta, where ``A_m rho_j A_n^dag = sum_k beta[(j, k), (m, n)] rho_k``.

Both steps are fixed linear maps of the input basis: ``lambda`` is
``vec(outputs) @ inverse.T`` for the inverse of the basis system, and
``vec(chi) = pinv(beta) @ vec(lambda)``.  The two matrices are built and
the basis rank-checked once per basis, then cached.  The basis is the
canonical one unless the records declare a non-ideal preparation
(``polarization != 1`` or ``pulse_error != 0`` in their config), in which
case it is the declared prepared inputs.

Measurement noise makes the recovered chi slightly non-Hermitian; the
estimate keeps the symmetrized matrix and records the norm of the
discarded anti-Hermitian part as a diagnostic.

chi is the one reconstructed object: every other representation of the
estimate (the affine Bloch map included) is converted from it, so the
representations agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

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
from .simulator import prepared_inputs
from .state_tomography import StateEstimate, bloch_target, fit_states

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
_OPS = np.stack(OPERATION_ELEMENTS)

_PINV_RCOND = 1e-10


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


class _BasisMaps(NamedTuple):
    """The fixed linear maps of one spanning input basis.

    ``inverse`` inverts the 4x4 system whose columns are the vectorized
    basis states, so ``inverse @ vec(m)`` are the coefficients of ``m`` over
    the basis; ``beta`` is the transfer tensor over the canonical operation
    elements and ``pinv`` its pseudoinverse, mapping ``vec(lambda)`` to
    ``vec(chi)``.  All three are read-only.
    """

    inverse: np.ndarray
    beta: np.ndarray
    pinv: np.ndarray


def _basis_maps(stack: np.ndarray) -> _BasisMaps:
    return _maps_for(np.ascontiguousarray(stack, dtype=complex).tobytes())


@lru_cache(maxsize=64)
def _maps_for(key: bytes) -> _BasisMaps:
    # The rank check runs once per basis, when its entry is filled; a basis
    # that does not span raises ValueError and is not cached.
    stack = np.frombuffer(key, dtype=complex).reshape(4, 2, 2)
    system = stack.reshape(4, 4).T
    if np.linalg.matrix_rank(system, tol=1e-10) < 4:
        raise ValueError("state basis is rank deficient and does not span")
    inverse = np.linalg.inv(system)
    beta = _beta(_OPS, stack, inverse)
    maps = _BasisMaps(inverse, beta, np.linalg.pinv(beta, rcond=_PINV_RCOND))
    for m in maps:
        m.setflags(write=False)
    return maps


def expand_in_state_basis(
    m: np.ndarray, rho_basis: Sequence[np.ndarray] | None = None
) -> np.ndarray:
    """Coefficients c with ``m = sum_k c[k] rho_k`` for a spanning basis."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {m.shape}")
    return _basis_maps(_basis_stack(rho_basis)).inverse @ m.reshape(4)


def build_beta(
    operation_elements: Sequence[np.ndarray] | None = None,
    rho_basis: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Transfer tensor flattened to 16x16: rows (j, k), columns (m, n).

    ``beta[(j, k), (m, n)]`` is the coefficient of ``rho_k`` in the
    expansion of ``A_m rho_j A_n^dag``.  Over the canonical operation
    elements the tensor is cached per basis and read-only.
    """
    states = _basis_stack(rho_basis)
    if operation_elements is None:
        return _basis_maps(states).beta
    ops = np.stack([np.asarray(op, dtype=complex) for op in operation_elements])
    if ops.shape != (4, 2, 2):
        raise ValueError(f"need four 2x2 operation elements, got {ops.shape}")
    return _beta(ops, states, _basis_maps(states).inverse)


def _beta(ops: np.ndarray, states: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    # transformed[m, n, j] = A_m rho_j A_n^dag, expanded over the state
    # basis by the basis inverse: coeffs[k, (m, n, j)].
    transformed = np.einsum("mab,jbc,ndc->mnjad", ops, states, ops.conj())
    coeffs = inverse @ transformed.reshape(64, 4).T
    beta = coeffs.reshape(4, 4, 4, 4)  # k, m, n, j
    return np.transpose(beta, (3, 0, 1, 2)).reshape(16, 16)  # (j, k), (m, n)


def lambda_from_outputs(
    outputs: Sequence[np.ndarray],
    rho_basis: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Expand the four output states over the input basis, row j = image of rho_j.

    Row j is ``inverse @ vec(outputs[j])``, with the basis inverse cached
    per basis.
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
        if hermiticity_defect(out) > 1e-6:
            raise ValueError(f"output {j}: not Hermitian")
        if abs(out.trace() - 1.0) > 1e-6:
            raise ValueError(f"output {j}: trace {out.trace():.8f} is not 1")
        stack.append(out)
    return np.stack(stack).reshape(4, 4) @ _basis_maps(_basis_stack(rho_basis)).inverse.T


def chi_from_lambda(
    lam: np.ndarray, beta_pinv: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Solve the linear inversion; return (Hermitian chi, anti-Hermitian norm).

    The raw solution of ``beta . chi_vec = lambda_vec`` picks up a small
    anti-Hermitian component under noisy data; it is split off and its
    Frobenius norm returned alongside the symmetrized matrix.  The default
    ``beta_pinv`` is that of the canonical basis.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (4, 4):
        raise ValueError(f"lambda matrix must be 4x4, got {lam.shape}")
    pinv = _basis_maps(_INPUT_STACK).pinv if beta_pinv is None else beta_pinv
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
    maps = _declared_maps(preparations)
    fit = fit_states(np.array(targets), np.array(masks), _INPUT_NAMES)
    lam = fit.rho.reshape(4, 4) @ maps.inverse.T
    chi, anti_norm = chi_from_lambda(lam, maps.pinv)
    cp_flag, cp_min = is_completely_positive(chi)
    tp_flag, tp_deficit = is_trace_preserving(chi)
    return ProcessEstimate(
        chi=chi,
        affine=affine_from_chi(chi),
        cp_flag=cp_flag,
        tp_flag=tp_flag,
        cp_min_eigenvalue=cp_min,
        tp_deficit=tp_deficit,
        residuals=tuple(fit.residual.tolist()),
        anti_hermitian_norm=anti_norm,
        lambda_matrix=lam,
        state_estimates=fit.estimates(),
    )


def _declared_maps(preparations: dict) -> _BasisMaps:
    """The basis maps of the one preparation the record sets declare.

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
        return _basis_maps(_INPUT_STACK)
    try:
        return _basis_maps(prepared_inputs(config))
    except ValueError as exc:
        polarization, pulse_error = preparation
        raise ValueError(
            f"declared preparation polarization={polarization}, "
            f"pulse_error={pulse_error}: {exc}"
        ) from None
