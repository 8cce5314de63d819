"""Distance and fidelity measures for states, plus process-discrepancy norms.

State metrics follow the squared-trace fidelity convention,
``F(a, b) = (tr sqrt(sqrt(a) b sqrt(a)))^2``, so for pure states F is the
transition probability ``|<psi|phi>|^2``.  It is computed as the squared
trace norm ``F = ||sqrt(a) sqrt(b)||_1^2`` (Jozsa, J. Mod. Opt. 41, 2315,
1994; Nielsen & Chuang, section 9.2.2) from one eigendecomposition of each
operand: with ``R = V diag(sqrt(w))`` built from the clamped, renormalized
spectrum, ``sqrt(a) sqrt(b) = V_a (R_a^dag R_b) V_b^dag``, so F is the
squared sum of singular values of ``R_a^dag R_b``.  No square root of a
product is taken, which keeps F exact on rank-deficient states.  The
derived quantities are the Bures metric ``B = sqrt(2 - 2 sqrt(F))`` and
``C = sqrt(1 - F)``, which obey ``1 - sqrt(F) <= D <= C`` against the trace
distance D.

Process discrepancies are plain matrix norms of the difference of two
coefficient matrices, which stay meaningful even when one of the processes
is unphysical and fidelity-based comparisons would not be.  The Choi state
is the chi matrix conjugated by a fixed unitary, so the trace distance of
two Choi states equals the process trace distance ``d_pro`` of the norm
block, and the state block reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import CP_TOL, choi_from_chi
from .states import check_density_form, check_lowest_eigenvalue


class MatrixNorms(NamedTuple):
    """The five discrepancy measures of a single matrix.

    ``p1`` and ``p_inf`` are the induced operator norms (maximum absolute
    column and row sum), ``p2`` is the spectral norm, ``frobenius`` the
    entrywise 2-norm, and ``half_trace`` is half the sum of singular values
    (half the trace of ``sqrt(X^dag X)``).
    """

    p1: float
    p2: float
    p_inf: float
    frobenius: float
    half_trace: float


def matrix_norms(x: np.ndarray) -> MatrixNorms:
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix contains non-finite entries")
    absolute = np.abs(x)
    singular = np.linalg.svd(x, compute_uv=False)
    return MatrixNorms(
        p1=float(absolute.sum(axis=0).max()),
        p2=float(singular[0]),
        p_inf=float(absolute.sum(axis=1).max()),
        frobenius=float(np.linalg.norm(x)),
        half_trace=float(singular.sum() / 2.0),
    )


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``(1/2) tr |a - b|`` for Hermitian matrices of equal dimension."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    defect = float(np.linalg.norm(diff - diff.conj().T)) / 2.0
    if defect > 1e-8:
        raise ValueError(f"difference is not Hermitian (defect {defect:.3e})")
    values = np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)
    return float(np.abs(values).sum() / 2.0)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared-trace fidelity ``(tr sqrt(sqrt(a) b sqrt(a)))^2`` in [0, 1].

    Both arguments must be valid density matrices (any equal dimension);
    eigenvalues down to ``-1e-9`` are tolerated and clamped, anything lower
    raises ``InvalidStateError``: unphysical estimates must be projected
    before fidelity is meaningful.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _fidelity(a, b, (None, None))


def _fidelity(a: np.ndarray, b: np.ndarray, spectra) -> float:
    """Validate both states and return ``||sqrt(a) sqrt(b)||_1^2``, capped at 1.

    ``spectra`` holds the ``eigh`` of each Hermitian part, or ``None`` where
    the caller has not decomposed it yet.  Each root factor
    ``R = V diag(sqrt(w))`` uses the spectrum clipped at zero and
    renormalized to unit sum, so ``R R^dag`` is the clamped, trace-1 state.
    """
    roots = []
    for rho, context, spectrum in zip((a, b), ("first state", "second state"), spectra):
        rho = check_density_form(rho, dim=None, context=context)
        if spectrum is None:
            spectrum = np.linalg.eigh((rho + rho.conj().T) / 2.0)
        values, vectors = spectrum
        check_lowest_eigenvalue(values, CP_TOL, context)
        values = np.clip(values, 0.0, None)
        roots.append(vectors * np.sqrt(values / values.sum()))
    total = float(np.linalg.svd(roots[0].conj().T @ roots[1], compute_uv=False).sum())
    return min(total * total, 1.0)


def _bures_from_fidelity(f: float) -> float:
    return float(np.sqrt(max(2.0 - 2.0 * np.sqrt(f), 0.0)))


def _c_from_fidelity(f: float) -> float:
    return float(np.sqrt(max(1.0 - f, 0.0)))


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
        norms = matrix_norms(x)
        return cls(
            p1_norm=norms.p1,
            p2_norm=norms.p2,
            p_inf_norm=norms.p_inf,
            frobenius_norm=norms.frobenius,
            trace_distance_pro=norms.half_trace,
            context=(str(context[0]), str(context[1])),
        )

    def as_dict(self) -> dict:
        return {
            "p1_norm": self.p1_norm,
            "p2_norm": self.p2_norm,
            "p_inf_norm": self.p_inf_norm,
            "frobenius_norm": self.frobenius_norm,
            "trace_distance_pro": self.trace_distance_pro,
            "context": list(self.context),
        }


@dataclass(frozen=True)
class StateMetricBlock:
    """Choi-state comparison of two processes (defined only when both are CP)."""

    trace_distance: float
    fidelity: float
    bures: float
    c_metric: float

    def as_dict(self) -> dict:
        return {
            "trace_distance": self.trace_distance,
            "fidelity": self.fidelity,
            "bures": self.bures,
            "c_metric": self.c_metric,
        }


@dataclass(frozen=True)
class ProcessComparison:
    """Full discrepancy record between two processes.

    The norm block is always present.  The Choi-state block is attached only
    when both Choi states are positive semidefinite; otherwise
    ``skip_reason`` explains why it is absent.
    """

    norms: DiscrepancyReport
    state_metrics: StateMetricBlock | None
    skip_reason: str | None


def process_distance_report(
    chi_a: np.ndarray,
    chi_b: np.ndarray,
    context: tuple[str, str] = ("a", "b"),
) -> ProcessComparison:
    """Compare two coefficient matrices with norms and, when possible, states."""
    chi_a = np.asarray(chi_a, dtype=complex)
    chi_b = np.asarray(chi_b, dtype=complex)
    if chi_a.shape != (4, 4) or chi_b.shape != (4, 4):
        raise ValueError("both processes must be 4x4 coefficient matrices")
    report = DiscrepancyReport.from_difference(chi_a - chi_b, context)

    chois = (choi_from_chi(chi_a), choi_from_chi(chi_b))
    spectra = [np.linalg.eigh((choi + choi.conj().T) / 2.0) for choi in chois]
    unphysical = []
    for label, choi, (values, _) in zip(context, chois, spectra):
        lowest = float(values[0])
        trace = choi.trace().real
        if lowest < -CP_TOL:
            unphysical.append(f"{label} (eigenvalue {lowest:.3e})")
        elif abs(trace - 1.0) > 1e-6:
            unphysical.append(f"{label} (trace {trace:.8f})")
    if unphysical:
        return ProcessComparison(
            norms=report,
            state_metrics=None,
            skip_reason="skipped: unphysical Choi for " + ", ".join(unphysical),
        )
    f = _fidelity(*chois, spectra)
    block = StateMetricBlock(
        trace_distance=report.trace_distance_pro,
        fidelity=f,
        bures=_bures_from_fidelity(f),
        c_metric=_c_from_fidelity(f),
    )
    return ProcessComparison(norms=report, state_metrics=block, skip_reason=None)
