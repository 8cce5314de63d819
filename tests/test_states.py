"""States module: Pauli algebra, Bloch conversions, and validation."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    BOUND_MESSAGE,
    KET_0,
    KET_PLUS,
    KET_PLUS_I,
    hermiticity_defect,
    projector,
    random_density_matrix,
)
from qpt import states
from qpt.channels import choi_from_chi, is_completely_positive, kraus_from_chi
from qpt.errors import _BOUND, InvalidStateError, NotCompletelyPositiveError
from qpt.metrics import bures_metric, c_metric, fidelity, process_distance_report
from qpt.process_tomography import ProcessEstimate
from qpt.projection import project_to_physical

BALL = st.builds(
    lambda x, y, z: np.array([x, y, z]),
    *[st.floats(-0.577, 0.577) for _ in range(3)],
)


class TestPauliBasis:
    def test_paulis_square_to_identity(self):
        for sigma in states.PAULIS:
            assert np.allclose(sigma @ sigma, np.eye(2))

    def test_paulis_are_hermitian(self):
        for sigma in states.PAULIS:
            assert hermiticity_defect(sigma) == 0

    def test_operation_elements_are_real(self):
        for op in states.OPERATION_ELEMENTS:
            assert np.abs(op.imag).max() == 0.0

    def test_operation_elements_normalization(self):
        # tr(A_m^dag A_n) = 2 delta_mn makes the Choi basis orthonormal.
        for m, a in enumerate(states.OPERATION_ELEMENTS):
            for n, b in enumerate(states.OPERATION_ELEMENTS):
                expected = 2.0 if m == n else 0.0
                assert np.trace(a.conj().T @ b) == pytest.approx(expected)

    def test_kets(self):
        assert np.allclose(projector(KET_PLUS), 0.5 * np.ones((2, 2)))
        rho_i = projector(KET_PLUS_I)
        assert states.bloch_from_density(rho_i) == pytest.approx([0.0, 1.0, 0.0])


class TestBlochConversions:
    def test_ground_state(self):
        rho = states.density_from_bloch([0.0, 0.0, 1.0])
        assert np.allclose(rho, [[1.0, 0.0], [0.0, 0.0]])
        assert states.bloch_from_density(rho) == pytest.approx([0.0, 0.0, 1.0])

    @given(BALL)
    def test_round_trip(self, r):
        back = states.bloch_from_density(states.density_from_bloch(r))
        assert np.allclose(back, r, atol=1e-12)

    def test_density_round_trip(self, rng):
        for _ in range(30):
            rho = random_density_matrix(rng)
            again = states.density_from_bloch(states.bloch_from_density(rho))
            assert np.allclose(again, rho, atol=1e-12)

    def test_bloch_is_the_trace_against_each_pauli(self, rng):
        for _ in range(200):
            rho = random_density_matrix(rng)
            expected = [np.trace(rho @ sigma).real for sigma in states.PAULIS[1:]]
            bloch = states.bloch_from_density(rho)
            assert bloch.tobytes() == np.array(expected).tobytes()

    def test_rejects_outside_ball(self):
        with pytest.raises(InvalidStateError, match="exceeds"):
            states.density_from_bloch([1.0, 1.0, 0.0])

    def test_boundary_tolerance(self):
        # A hair over the surface from round-off must still pass.
        states.density_from_bloch([1.0 + 5e-10, 0.0, 0.0])

    @pytest.mark.parametrize(
        "excess, message",
        [(1.5e-9, None), (3e-9, "Bloch vector norm 1.000000003000 exceeds 1")],
        ids=["accepted", "refused"],
    )
    def test_norm_bound_is_the_eigenvalue_bound(self, excess, message):
        # The lowest eigenvalue of (I + r . sigma) / 2 is (1 - |r|) / 2, so
        # the norm bound 1 + 2 CP_TOL is check_density_matrix's bound.
        bloch = [1.0 + excess, 0.0, 0.0]
        same = np.diag([1.0 + excess / 2.0, -excess / 2.0])
        if message is None:
            states.density_from_bloch(bloch)
            states.check_density_matrix(same)
        else:
            with pytest.raises(InvalidStateError, match=f"^{re.escape(message)}$"):
                states.density_from_bloch(bloch)
            with pytest.raises(InvalidStateError, match="^density matrix: negative eigenvalue"):
                states.check_density_matrix(same)

    def test_bloch_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            states.bloch_from_density(np.eye(3))


class TestValidation:
    # check_density_matrix runs every check, in order: shape, finiteness,
    # Hermiticity, trace, then the lowest eigenvalue.
    def test_accepts_valid(self, rng):
        for _ in range(10):
            rho = random_density_matrix(rng)
            values, vectors = states.check_density_matrix(rho)
            np.testing.assert_allclose((vectors * values) @ vectors.conj().T, rho, atol=1e-14)
            states.von_neumann_entropy(rho)

    def test_returns_eigh_of_hermitian_part(self, rng):
        rho = random_density_matrix(rng)
        rho = rho + 1e-9j * np.array([[0.0, 1.0], [1.0, 0.0]])
        values, vectors = states.check_density_matrix(rho)
        expected_values, expected_vectors = np.linalg.eigh((rho + rho.conj().T) / 2.0)
        assert values.tobytes() == expected_values.tobytes()
        assert vectors.tobytes() == expected_vectors.tobytes()

    def test_rejects_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            states.check_density_matrix(2.0 * np.eye(2))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError, match="Hermitian"):
            states.check_density_matrix(m)

    def test_rejects_non_finite(self):
        m = np.array([[np.nan, 0.0], [0.0, 0.5]])
        with pytest.raises(InvalidStateError, match="^density matrix: entries must be finite"):
            states.check_density_matrix(m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvalidStateError, match="negative eigenvalue"):
            states.von_neumann_entropy(m)

    def test_dim_check(self):
        # Any square dimension passes; non-square does not.
        values, vectors = states.check_density_matrix(np.eye(4) / 4.0)
        assert values.shape == (4,) and vectors.shape == (4, 4)
        with pytest.raises(InvalidStateError, match="square"):
            states.check_density_matrix(np.ones((2, 3)) / 2.0)

    def test_rejects_hermitian_unit_trace_non_psd(self):
        # Hermitian with unit trace, so only the spectral check rejects it.
        m = np.diag([1.5, -0.5])
        with pytest.raises(InvalidStateError, match="negative eigenvalue"):
            states.check_density_matrix(m)
        with pytest.raises(InvalidStateError, match="negative eigenvalue"):
            states.von_neumann_entropy(m)

    def test_first_failing_check_wins(self):
        # Not Hermitian, trace 2 and not PSD: Hermiticity is checked first,
        # then trace.
        m = np.array([[2.5, 1.0], [0.0, -0.5]])
        with pytest.raises(InvalidStateError, match="not Hermitian"):
            states.check_density_matrix(m)
        with pytest.raises(InvalidStateError, match="trace"):
            states.check_density_matrix(np.diag([2.5, -0.5]))

    def test_lowest_eigenvalue_tolerance(self):
        # The one bound on a lowest eigenvalue, CP_TOL.
        nearly = np.diag([1.0 + 0.5 * states.CP_TOL, -0.5 * states.CP_TOL])
        states.check_density_matrix(nearly)
        over = np.diag([1.0 + 2.0 * states.CP_TOL, -2.0 * states.CP_TOL])
        with pytest.raises(InvalidStateError, match=r"^probe: negative eigenvalue -2\.000e-09"):
            states.check_density_matrix(over, context="probe")


def bits(m: np.ndarray) -> bytes:
    return np.ascontiguousarray(m).tobytes()


class TestHermitianParts:
    """The parts from halves equal ``(m +- m^dag) / 2`` bit for bit on the
    package's estimates, their projections and random matrices."""

    @pytest.fixture
    def matrices(self, noisy_estimates, rng):
        projections = [project_to_physical(chi).chi_tilde for chi in noisy_estimates]
        shape = (200, 4, 4)
        scale = 1e3 * rng.random((200, 1, 1))
        randoms = scale * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
        return [*noisy_estimates, *projections, *randoms]

    def test_parts_equal_the_sum_formula(self, matrices):
        for m in matrices:
            hermitian, anti = states._parts(m)
            assert bits(hermitian) == bits((m + m.conj().T) / 2.0)
            assert bits(anti) == bits((m - m.conj().T) / 2.0)

    def test_stacked_parts_equal_each_matrix_alone(self, matrices):
        hermitian, anti = states._parts(np.array(matrices))
        for i, m in enumerate(matrices):
            assert bits(hermitian[i]) == bits(states._parts(m)[0])
            assert bits(anti[i]) == bits(states._parts(m)[1])

    def test_results_read_from_the_parts_keep_their_bits(self, matrices):
        # Results that start from a part, against the sum formula: the
        # Hermiticity check returns the part, or refuses with the defect.
        for m in matrices:
            hermitian = (m + m.conj().T) / 2.0
            defect = float(np.linalg.norm((m - m.conj().T) / 2.0))
            if defect > states.HERMITICITY_TOL:
                with pytest.raises(ValueError) as refused:
                    states._hermitian(m, "m")
                assert str(refused.value) == f"m: not Hermitian (defect {defect:.3e})"
            else:
                assert bits(states._hermitian(m, "m")) == bits(hermitian)
            lowest = np.linalg.eigvalsh(hermitian)[0]
            assert bits(np.float64(is_completely_positive(m)[1])) == bits(lowest)


class TestHermiticityNearTheFloatLimit:
    """Entries past 2**256 in modulus are refused by the array rule, by
    name; at the bound every defect and spectrum is finite.  The single
    operand is ``bloch_from_density``'s 2x2 ``matrix``, converted once and
    checked by ``states._hermitian``."""

    def test_anti_hermitian_pair_is_refused(self):
        # (m - m^dag) / 2 overflowed to a NaN defect here, which passed.
        m = [[0.5, 1e308], [-1e308, 0.5]]
        with pytest.raises(ValueError, match=f"^matrix: {BOUND_MESSAGE}$"):
            states.bloch_from_density(m)
        m = [[0.5, _BOUND], [-_BOUND, 0.5]]
        assert hermiticity_defect(m) == pytest.approx(math.sqrt(2.0) * _BOUND)
        with pytest.raises(ValueError, match=r"^matrix: not Hermitian \(defect 1\.638e\+77\)$"):
            states.bloch_from_density(m)

    def test_overflowing_defect_warns_nothing(self):
        # The state checks refuse the entries by name, with no overflow
        # warning; at the bound the defect is finite and in the skip reason.
        m = np.array([[0.5, 1e308], [-1e308, 0.5]])
        chi = np.eye(4, dtype=complex) / 4.0
        chi[0, 1], chi[1, 0] = 1e308, -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError, match=f"^density matrix: {BOUND_MESSAGE}$"):
                states.check_density_matrix(m)
            with pytest.raises(InvalidStateError, match=f"^density matrix: {BOUND_MESSAGE}$"):
                states.von_neumann_entropy(m)
            with pytest.raises(ValueError, match=f"^first state: {BOUND_MESSAGE}$"):
                fidelity(m, np.eye(2) / 2.0)
            with pytest.raises(ValueError, match=f"^a: {BOUND_MESSAGE}$"):
                process_distance_report(chi, chi)
            chi[0, 1], chi[1, 0] = _BOUND, -_BOUND
            comparison = process_distance_report(chi, chi)
        assert comparison.skip_reason == (
            "skipped: unphysical Choi for a: not Hermitian (defect 1.638e+77)"
        )

    @pytest.mark.parametrize("value", [1e308, 1.7e308])
    def test_hermitian_pair_passes(self, value):
        m = np.array([[0.5, value], [value, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match=f"^matrix: {BOUND_MESSAGE}$"):
            states.bloch_from_density(m)
        m[0, 1] = m[1, 0] = _BOUND
        assert bits(states._hermitian(m, "matrix")) == bits(m)
        np.testing.assert_array_equal(states.bloch_from_density(m), [2.0 * _BOUND, 0.0, 0.0])

    def test_nan_spectrum_is_refused(self):
        # Finite, Hermitian and unit trace, but the off-diagonal modulus
        # passed the float range and eigh returned NaN eigenvalues.
        m = np.array([[0.5, 1.7e308 + 1.7e308j], [1.7e308 - 1.7e308j, 0.5]])
        with pytest.raises(InvalidStateError, match=f"^density matrix: {BOUND_MESSAGE}$"):
            states.check_density_matrix(m)
        with pytest.raises(InvalidStateError, match=f"^density matrix: {BOUND_MESSAGE}$"):
            states.von_neumann_entropy(m)
        m[0, 1], m[1, 0] = _BOUND * (0.6 + 0.8j), _BOUND * (0.6 - 0.8j)
        message = r"^density matrix: negative eigenvalue -1\.158e\+77 beyond clamp$"
        with pytest.raises(InvalidStateError, match=message):
            states.check_density_matrix(m)

    @pytest.mark.parametrize(
        "value, message",
        [
            ([[0.5, np.nan], [np.nan, 0.5]], f"^matrix: {BOUND_MESSAGE}$"),
            ([[True, False], [False, True]], "^matrix: must hold"),
            ([["a", "b"], ["c", "d"]], "^matrix: must hold"),
        ],
        ids=["nan", "boolean", "text"],
    )
    def test_entries_go_through_the_array_rule(self, value, message):
        with pytest.raises(ValueError, match=message):
            states.bloch_from_density(value)


class TestEntropy:
    def test_pure_state_zero(self):
        assert states.von_neumann_entropy(projector(KET_0)) == 0.0

    def test_maximally_mixed(self):
        assert states.von_neumann_entropy(np.eye(2) / 2.0) == pytest.approx(
            math.log(2.0)
        )

    def test_half_polarized(self):
        # Frozen reference value for Bloch vector (0, 0, 0.5).
        rho = states.density_from_bloch([0.0, 0.0, 0.5])
        assert states.von_neumann_entropy(rho) == pytest.approx(
            0.5623351446188083, abs=1e-12
        )

    def test_range(self, rng):
        for _ in range(30):
            s = states.von_neumann_entropy(random_density_matrix(rng))
            assert 0.0 <= s <= math.log(2.0) + 1e-12

    def test_rejects_invalid(self):
        with pytest.raises(InvalidStateError):
            states.von_neumann_entropy(np.diag([2.0, -1.0]))

    def test_clamp_range(self):
        # Round-off negatives within CP_TOL count as zero weight; one beyond
        # it is rejected.
        assert states.von_neumann_entropy(np.diag([1.0 + 5e-10, -5e-10])) == 0.0
        with pytest.raises(InvalidStateError, match="negative eigenvalue"):
            states.von_neumann_entropy(np.diag([1.0 + 2e-9, -2e-9]))


def _spectrum(dim: int, lowest: float) -> np.ndarray:
    """The unit-trace ``diag(1 - lowest, 0, ..., 0, lowest)``."""
    return np.diag([1.0 - lowest, *[0.0] * (dim - 2), lowest]).astype(complex)


def _pure(m: np.ndarray) -> np.ndarray:
    return _spectrum(len(m), 0.0)


BEYOND = "negative eigenvalue -2.000e-09 beyond clamp"

# (id, call, whether it takes only a 4x4 chi, what it returns at -0.5 CP_TOL,
# what it returns or raises at -2 CP_TOL)
CONSUMERS = [
    ("check_density_matrix", lambda m: states.check_density_matrix(m)[0][0], False,
     -5e-10, (InvalidStateError, f"density matrix: {BEYOND}")),
    ("von_neumann_entropy", states.von_neumann_entropy, False,
     0.0, (InvalidStateError, f"density matrix: {BEYOND}")),
    ("entropy-of-choi", lambda m: states.von_neumann_entropy(choi_from_chi(m)), True,
     0.0, (InvalidStateError, f"density matrix: {BEYOND}")),
    ("fidelity", lambda m: fidelity(m, _pure(m)), False,
     1.0, (InvalidStateError, f"first state: {BEYOND}")),
    ("bures_metric", lambda m: bures_metric(m, _pure(m)), False,
     0.0, (InvalidStateError, f"first state: {BEYOND}")),
    ("c_metric", lambda m: c_metric(m, _pure(m)), False,
     0.0, (InvalidStateError, f"first state: {BEYOND}")),
    ("process_distance_report", lambda m: process_distance_report(m, _pure(m)).skip_reason, True,
     None, f"skipped: unphysical Choi for a: {BEYOND}"),
    ("is_completely_positive", lambda m: is_completely_positive(m)[0], True, True, False),
    ("cp_flag", lambda m: ProcessEstimate(m).cp_flag, True, True, False),
    ("kraus_from_chi", lambda m: len(kraus_from_chi(m)), True, 1, (
        NotCompletelyPositiveError,
        "chi eigenvalue -2.000e-09 below -1e-09; project the process onto the physical set first",
    )),
]


class TestOneEigenvalueBound:
    """A state check, the entropy, fidelity, the comparison's state block,
    the CP verdict and the Kraus decomposition accept a lowest eigenvalue
    down to -CP_TOL, and refuse or flag one below it."""

    @pytest.mark.parametrize(
        "call, m, expected",
        [
            pytest.param(
                call,
                _spectrum(dim, scale * states.CP_TOL),
                accepted if scale > -1.0 else refused,
                id=f"{name}-{dim}x{dim}-{scale:g}",
            )
            for name, call, chi_only, accepted, refused in CONSUMERS
            for dim in ((4,) if chi_only else (2, 4))
            for scale in (-0.5, -2.0)
        ],
    )
    def test_every_consumer_reads_one_bound(self, call, m, expected):
        if isinstance(expected, tuple):
            with pytest.raises(expected[0], match=f"^{re.escape(expected[1])}$"):
                call(m)
        else:
            assert call(m) == expected
