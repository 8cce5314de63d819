"""Distance and fidelity measures for states, plus process-discrepancy norms.

State metrics follow the squared-trace fidelity convention,
``F(a, b) = (tr sqrt(sqrt(a) b sqrt(a)))^2``, so for pure states F is the
transition probability ``|<psi|phi>|^2``.  It is computed as the squared
trace norm ``F = ||sqrt(a) sqrt(b)||_1^2`` (Jozsa, J. Mod. Opt. 41, 2315,
1994; Nielsen & Chuang, section 9.2.2) from one stacked check and
decomposition of both operands: with ``R = V diag(sqrt(w))`` built from
the clamped, renormalized spectrum, ``sqrt(a) sqrt(b) = V_a (R_a^dag R_b)
V_b^dag``, so F is the squared sum of singular values of ``R_a^dag R_b``.
No square root of a product is taken, which keeps F exact on
rank-deficient states.  The derived quantities are the Bures metric
``B = sqrt(2 - 2 sqrt(F))`` and ``C = sqrt(1 - F)``, which obey
``1 - sqrt(F) <= D <= C`` against the trace distance D.

Process discrepancies are plain matrix norms of the difference of two
coefficient matrices, which stay meaningful even when one of the processes
is unphysical and fidelity-based comparisons would not be.  The Choi state
is the chi matrix conjugated by a fixed unitary, so it has the spectrum,
trace and pairwise fidelity of chi: the state block is computed on chi
itself, with no rotation, and its trace distance is the process trace
distance ``d_pro`` of the norm block.  A comparison converts each operand
once.  When both operands are Hermitian bit for bit, as every estimate,
named channel and true channel is, so is their difference, and its
singular values are the moduli of its eigenvalues (the trace-norm
distance of Gilchrist, Langford & Nielsen, PRA 71, 062310, 2005): the
difference joins the state check's stacked ``eigh``, and only
``R_a^dag R_b`` takes an SVD.  Otherwise the singular values of the
difference and of ``R_a^dag R_b`` come from one stacked SVD.

Every operand goes through ``errors._array``, whose bound of 2**256 on
each entry's modulus keeps a difference, its norms and its decompositions
finite, so no difference is checked again.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import _array
from .states import _check_states, _hermitian, _square, _state_checks


class MatrixNorms(NamedTuple):
    """The five discrepancy measures of a single matrix.

    ``p1`` and ``p_inf`` are the induced operator norms (maximum absolute
    column and row sum), ``p2`` is the spectral norm, ``frobenius`` the
    entrywise 2-norm, and ``half_trace`` is half the sum of singular values
    (half the trace of ``sqrt(X^dag X)``).  ``DiscrepancyReport`` takes
    its norm fields from these, in this order.
    """

    p1: float
    p2: float
    p_inf: float
    frobenius: float
    half_trace: float


def matrix_norms(x: np.ndarray) -> MatrixNorms:
    x = _square(x, "matrix")
    return _norms(x, np.linalg.svd(x, compute_uv=False))


def _norms(x: np.ndarray, singular: np.ndarray) -> MatrixNorms:
    """The norms of a converted square ``x`` with singular values
    ``singular``, in any order.

    The sums run left to right in Python, which for fewer than eight terms
    per sum, as in every 4x4 comparison, gives numpy's bits.  The Frobenius
    norm is ``np.linalg.norm``'s own formula for a complex array.
    """
    rows = np.abs(x).tolist()
    singular = singular.tolist()
    flat = x.ravel(order="K")
    return MatrixNorms(
        p1=max(map(sum, zip(*rows))),
        p2=max(singular),
        p_inf=max(map(sum, rows)),
        frobenius=math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag)),
        half_trace=sum(singular) / 2.0,
    )


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``(1/2) tr |a - b|`` for Hermitian matrices of equal dimension."""
    a, b = _square(a, "first state"), _square(b, "second state")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(np.linalg.eigvalsh(_hermitian(a - b, "difference"))).sum() / 2.0)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared-trace fidelity ``(tr sqrt(sqrt(a) b sqrt(a)))^2`` in [0, 1].

    Both arguments must be valid density matrices (any equal dimension);
    eigenvalues down to ``-CP_TOL`` (1e-9) are tolerated and clamped,
    anything lower raises ``InvalidStateError``: unphysical estimates must
    be projected before fidelity is meaningful.  A malformed array, as for
    every square operand, raises ``ValueError``.
    """
    a, b = _square(a, "first state"), _square(b, "second state")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    checked = _check_states(np.array((a, b)), ("first state", "second state"))
    return _fidelity(np.linalg.svd(_root_product(*checked), compute_uv=False))


def _root_product(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``R_a^dag R_b`` of two checked states from their stacked ``eigh``.

    The root factors are ``R = V diag(sqrt(w))``, with ``w`` each spectrum
    clipped at zero and renormalized to unit sum, so ``R R^dag`` is the
    clamped, trace-1 state.
    """
    values = np.maximum(values, 0.0)
    root_a, root_b = vectors * np.sqrt(values / values.sum(axis=1, keepdims=True))[:, np.newaxis]
    return root_a.conj().T @ root_b


def _fidelity(singular: np.ndarray) -> float:
    """``||sqrt(a) sqrt(b)||_1^2`` from the singular values of
    ``R_a^dag R_b``, capped at 1."""
    total = float(singular.sum())
    return min(total * total, 1.0)


def _bures_from_fidelity(f: float) -> float:
    return math.sqrt(max(2.0 - 2.0 * math.sqrt(f), 0.0))


def _c_from_fidelity(f: float) -> float:
    return math.sqrt(max(1.0 - f, 0.0))


def bures_metric(a: np.ndarray, b: np.ndarray) -> float:
    """``sqrt(2 - 2 sqrt(F))``; zero iff the states coincide."""
    return _bures_from_fidelity(fidelity(a, b))


def c_metric(a: np.ndarray, b: np.ndarray) -> float:
    """``sqrt(1 - F)``, the upper bound of the trace distance."""
    return _c_from_fidelity(fidelity(a, b))


@dataclass(frozen=True)
class DiscrepancyReport:
    """Norms of a process difference ``X = chi_a - chi_b``.

    ``trace_distance_pro`` is half the sum of singular values of X; for the
    Hermitian differences produced by reconstruction it equals half the sum
    of absolute eigenvalues.  ``context`` names the two compared processes.
    """

    p1_norm: float
    p2_norm: float
    p_inf_norm: float
    frobenius_norm: float
    trace_distance_pro: float
    context: tuple[str, str]

    @classmethod
    def from_difference(cls, x: np.ndarray, context: tuple[str, str]) -> "DiscrepancyReport":
        # The norm fields are those of MatrixNorms, in the same order.
        return cls(*matrix_norms(x), context=(str(context[0]), str(context[1])))

    def as_dict(self) -> dict:
        return {**asdict(self), "context": list(self.context)}


@dataclass(frozen=True)
class StateMetricBlock:
    """Choi-state comparison of two processes (defined only when both are states).

    Every value equals the one computed on the two Choi states; the Choi
    state is chi rotated by a fixed unitary, so chi stands in for it.
    """

    trace_distance: float
    fidelity: float
    bures: float
    c_metric: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ProcessComparison:
    """Full discrepancy record between two processes.

    The norm block is always present.  The Choi-state block is attached only
    when both chi pass :func:`qpt.states.check_density_matrix`; otherwise
    ``skip_reason`` names the first operand that fails and the check it
    fails.
    """

    norms: DiscrepancyReport
    state_metrics: StateMetricBlock | None
    skip_reason: str | None


def process_distance_report(
    chi_a: np.ndarray,
    chi_b: np.ndarray,
    context: tuple[str, str] = ("a", "b"),
) -> ProcessComparison:
    """Compare two coefficient matrices with norms and, when possible, states.

    Each operand is checked as a state under its label, ``chi_a`` first;
    a finite operand that fails only skips the state block.
    """
    chi_a = _array(chi_a, context[0], (4, 4))
    chi_b = _array(chi_b, context[1], (4, 4))
    labels = (str(context[0]), str(context[1]))
    x = chi_a - chi_b
    values, vectors, failure = _state_checks(np.array((chi_a, chi_b)), labels, x)
    # A third row is the eigh of the difference, which is then Hermitian.
    singular = np.abs(values[2]) if len(values) > 2 else None
    if failure is not None:
        if singular is None:
            singular = np.linalg.svd(x, compute_uv=False)
        return ProcessComparison(
            norms=DiscrepancyReport(*_norms(x, singular), labels),
            state_metrics=None,
            skip_reason="skipped: unphysical Choi for " + failure,
        )
    product = _root_product(values[:2], vectors[:2])
    if singular is None:
        singular, product_singular = np.linalg.svd(np.array((x, product)), compute_uv=False)
    else:
        product_singular = np.linalg.svd(product, compute_uv=False)
    report = DiscrepancyReport(*_norms(x, singular), labels)
    f = _fidelity(product_singular)
    block = StateMetricBlock(
        trace_distance=report.trace_distance_pro,
        fidelity=f,
        bures=_bures_from_fidelity(f),
        c_metric=_c_from_fidelity(f),
    )
    return ProcessComparison(norms=report, state_metrics=block, skip_reason=None)
