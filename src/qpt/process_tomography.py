"""Process reconstruction from four spanning input states.

The pipeline follows the linear-inversion scheme: prepare the spanning
inputs, nominally ``{|0><0|, |1><1|, |+><+|, |+i><+i|}``, tomograph each
output state, and invert the linear relation between the inputs and the
outputs.

In the Pauli coordinates ``coords(m)[i] = tr(sigma_i m)`` of
:mod:`qpt.states`, let ``P_B`` hold the inputs' coordinates as columns and
``P_O`` the outputs'.  The Pauli transfer matrix
``R[i, j] = (1/2) tr(sigma_i E(sigma_j))`` of the channel satisfies
``P_O = R P_B``, and chi is the image of ``R`` under the fixed inverse
transfer tensor of :mod:`qpt.channels`.  ``P_O`` is affine in the twelve
measured expectations ``v`` (input-major, x, y, z), so chi is too: the
reconstruction is one product ``vec(chi) = M @ (1, v)`` with a 16x13
complex map ``M`` fixed by the preparation.  The inputs are the ones the
records' config declares by its ``(polarization, pulse_error)``; records
without a config declare a perfect preparation ``(1, 0)``.  ``M`` is cached
here per preparation and built from the coordinates of the simulator's
input cache, the inputs it simulates, so a reconstruction inverts exactly
the inputs the simulator prepared, the perfect preparation included.

The inversion has one array path: ``_chi_rows(values, preparation)`` maps
(N, 12) expectations, such as the rows of ``simulator._expectations``, to
the (N, 4, 4) chi of each row.  It is one stacked product that makes the
same matrix-vector product for each row whatever N is, so a row's bits do
not depend on N or on the other rows.  ``run_process_tomography`` is its
N = 1 wrapper: it keeps every check of the records and returns the one
row's chi.

``v`` holds the measured expectations as they are, zero on unmeasured
axes: no output is fitted to the Bloch ball first, so the estimate is
linear in the records and unbiased, and the one projection onto physical
processes is :mod:`qpt.projection`'s.  ``v`` is real and the row of ``M``
for ``chi[n, m]`` is the conjugate of the row for ``chi[m, n]``, so chi is
Hermitian by construction, bit for bit, and trace preserving up to
round-off.  Each expectation value is at most 2**256 in modulus
(``errors._BOUND``) and each entry of ``M`` below about 1e10, so chi is
finite.  Its entries can exceed the bound, by up to about 1e10 times
under a near-singular declared preparation; any function that takes such
a chi back in refuses it.

An estimate stores chi, nothing else.  It reads every other representation
(the affine Bloch map) and its CP/TP verdicts from chi on access, so they
cannot disagree with the chi they describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channels import (
    TP_TOL,
    AffineMap,
    _CHI_FROM_PTM,
    _affine,
    _chi_from_ptm,
    _lowest_eigenvalue,
    _tp_deficit,
)
from .errors import _array
from .states import (
    CP_TOL,
    TRACE_TOL,
    _coords,
    _coords_inverse,
    _hermitian,
    _parts,
)
from .simulator import _inputs
from .state_tomography import bloch_target

INPUT_STATE_LABELS = ("|0><0|", "|1><1|", "|+><+|", "|+i><+i|")
_INPUT_NAMES = tuple(
    f"input state {j} ({label})" for j, label in enumerate(INPUT_STATE_LABELS)
)
# The (polarization, pulse_error) of a perfect preparation.  Its
# reconstruction map is built on first use, not at import: building it is
# a process's first LAPACK call, which grows resident memory by about
# 1.5 MB that commands never reconstructing need not pay.
_IDEAL = (1.0, 0.0)
# The outputs' coordinates P_O, one column per input, as _SELECT @ (1, v):
# row 0 is all ones and row i of column j is v[3 j + i - 1], the
# expectation along axis i of input j.
_SELECT = np.zeros((4, 4, 13))
_SELECT[0, :, 0] = 1.0
_SELECT[1:, :, 1:] = np.eye(12).reshape(4, 3, 12).transpose(1, 0, 2)


def input_basis() -> tuple[np.ndarray, ...]:
    """The four spanning input states of a perfect preparation, in fixed order."""
    return tuple(_inputs(*_IDEAL)[0])


@lru_cache(maxsize=64)
def _reconstruction_map(polarization: float, pulse_error: float) -> np.ndarray:
    """The read-only 16x13 map ``M`` of a preparation: ``vec(chi) = M @ (1, v)``
    for the twelve expectations ``v``, input-major in x, y, z order.

    The transfer matrix of the records is ``R = P_O P_B^-1``, and chi is
    ``_CHI_FROM_PTM @ vec(R)``.  The complex inverse of real coordinates has
    zero imaginary parts, so, as in ``channels._chi_from_ptm``, the row of
    ``M`` for ``chi[n, m]`` is the conjugate of the row for ``chi[m, n]``,
    bit for bit.  Inputs that do not span raise ``ValueError``, and nothing
    is cached.
    """
    coords = _inputs(polarization, pulse_error)[1]
    try:
        # Inverted as complex: a real-dtype inverse would page in the real
        # LAPACK routines as well and raise a process's peak resident memory.
        inverse = _coords_inverse(coords.astype(complex))
    except ValueError:
        raise ValueError(
            f"declared preparation polarization={polarization}, "
            f"pulse_error={pulse_error}: state basis is rank deficient and "
            "does not span"
        ) from None
    # Entry [i, k] of inverse.T @ _SELECT is the row of R[i, k] over (1, v).
    reconstruction = _CHI_FROM_PTM @ (inverse.T @ _SELECT).reshape(16, 13)
    reconstruction.setflags(write=False)
    return reconstruction


def _chi_rows(values, preparation: tuple[float, float]) -> np.ndarray:
    """The (N, 4, 4) chi of each row of (N, 12) expectations ``v`` under the
    declared ``(polarization, pulse_error)``: row ``n`` is
    ``vec(chi) = M @ (1, v[n])``, with no check of its input.

    The stacked product makes one matrix-vector product per row, the same
    call on the same layout whatever N is, so a row's bits do not depend on
    the other rows; a single product of the ``(N, 13)`` data with ``M.T``
    does not guarantee that.  The conjugate rows of ``M`` give the same sums
    with the imaginary parts negated, so each chi is Hermitian bit for bit.
    """
    data = np.empty((len(values), 13))
    data[:, 0] = 1.0
    data[:, 1:] = values
    return (_reconstruction_map(*preparation) @ data[:, :, np.newaxis]).reshape(-1, 4, 4)


def _basis_coords(rho_basis: Sequence[np.ndarray] | None) -> tuple[np.ndarray, np.ndarray]:
    """``P_B`` and ``P_B^-1`` of a basis, the perfect preparation by default."""
    if rho_basis is None:
        rho_basis = input_basis()
    coords = _coords(_array(rho_basis, "state basis", (4, 2, 2)))
    return coords, _coords_inverse(coords)


def lambda_from_outputs(
    outputs: Sequence[np.ndarray],
    rho_basis: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Expand the four output states over the input basis, row j = image of rho_j.

    Row j is ``P_B^-1 @ coords(outputs[j])``: Nielsen and Chuang's lambda
    matrix.  Reconstruction does not use it: only ``perfbench`` and the tests
    call it, and ROADMAP item 1 deletes it.
    """
    if len(outputs) != 4:
        raise ValueError(f"expected 4 output states, got {len(outputs)}")
    stack = []
    for j, out in enumerate(outputs):
        out = _array(out, f"output {j}", (2, 2))
        _hermitian(out, f"output {j}")
        if abs(out.trace() - 1.0) > TRACE_TOL:
            raise ValueError(f"output {j}: trace {out.trace():.8f} is not 1")
        stack.append(out)
    return (_basis_coords(rho_basis)[1] @ _coords(np.stack(stack))).T


def chi_from_lambda(
    lam: np.ndarray, rho_basis: Sequence[np.ndarray] | None = None
) -> tuple[np.ndarray, float]:
    """Invert a lambda matrix; return (Hermitian chi, anti-Hermitian norm).

    The transfer matrix of the process is ``R = P_B lam^T P_B^-1`` over the
    basis (the perfect preparation by default), and chi its image under the
    inverse transfer tensor.  An arbitrary lambda gives a complex ``R``, so
    the anti-Hermitian part of that chi is split off here and its Frobenius
    norm returned alongside the Hermitian part; it vanishes when ``R`` is
    real, as it is for Hermitian trace-1 outputs.  Reconstruction does not
    use this route: only ``perfbench`` and the tests call it, and ROADMAP
    item 1 deletes it.
    """
    lam = _array(lam, "lambda matrix", (4, 4))
    coords, inverse = _basis_coords(rho_basis)
    hermitian, anti = _parts(_chi_from_ptm(coords @ lam.T @ inverse))
    return hermitian, float(np.linalg.norm(anti))


@dataclass(frozen=True)
class ProcessEstimate:
    """Reconstructed process.

    Stored: ``chi``, Hermitian by construction.  Everything else is read
    from ``chi`` on each access: ``affine`` is its Bloch-sphere action,
    ``affine_from_chi(chi)``, and ``cp_flag`` / ``tp_flag`` report whether
    it is completely positive and trace preserving within ``CP_TOL`` /
    ``TP_TOL``, with the underlying ``cp_min_eigenvalue`` and
    ``tp_deficit`` alongside.
    """

    chi: np.ndarray

    @property
    def affine(self) -> AffineMap:
        return _affine(self.chi)

    @property
    def cp_min_eigenvalue(self) -> float:
        return _lowest_eigenvalue(self.chi)

    @property
    def tp_deficit(self) -> float:
        return _tp_deficit(self.chi)

    @property
    def cp_flag(self) -> bool:
        return self.cp_min_eigenvalue >= -CP_TOL

    @property
    def tp_flag(self) -> bool:
        return self.tp_deficit <= TP_TOL

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

    Elements that carry a ``config`` declare their preparation by its
    ``(polarization, pulse_error)``; elements without one declare the
    perfect preparation.  chi is solved over the declared prepared inputs
    ``prepare_input(config, 1..4)``.  Elements declaring different
    preparations, or a preparation whose inputs do not span, raise
    ``ValueError``.
    """
    if len(record_sets) != 4:
        raise ValueError(
            f"expected records for 4 input states, got {len(record_sets)}"
        )
    values = []  # v: the expectations input-major, in x, y, z order
    preparations = set()
    for j, entry in enumerate(record_sets):
        index = getattr(entry, "input_index", j + 1)
        if index != j + 1:
            raise ValueError(
                f"record set {j} is for input_index {index!r}, expected {j + 1}"
            )
        config = getattr(entry, "config", None)
        preparations.add(
            _IDEAL if config is None else (config.polarization, config.pulse_error)
        )
        records = getattr(entry, "records", entry)
        try:
            values += bloch_target(records)[0]
        except (ValueError, TypeError) as exc:
            raise type(exc)(f"{_INPUT_NAMES[j]}: {exc}") from exc
    if len(preparations) != 1:
        raise ValueError(
            "record sets declare different preparations (polarization, "
            f"pulse_error): {sorted(preparations)}"
        )
    # chi is built here, so it skips the public checkers' input validation.
    return ProcessEstimate(_chi_rows([values], preparations.pop())[0])
