"""States module: Pauli algebra, Bloch conversions, and validation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_bloch_vector, random_density_matrix
from qpt import states
from qpt.errors import InvalidStateError

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
            assert states.is_hermitian(sigma)

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
        assert np.allclose(states.projector(states.KET_PLUS), 0.5 * np.ones((2, 2)))
        rho_i = states.projector(states.KET_PLUS_I)
        assert states.bloch_from_density(rho_i) == pytest.approx([0.0, 1.0, 0.0])


class TestEigensystem:
    def test_known_spectrum(self):
        # sigma_x + sigma_z has eigenvalues +-sqrt(2).
        values, vectors = states.hermitian_eigensystem(states.SIGMA_X + states.SIGMA_Z)
        assert values == pytest.approx([math.sqrt(2.0), -math.sqrt(2.0)])
        m = states.SIGMA_X + states.SIGMA_Z
        for i in range(2):
            assert np.linalg.norm(m @ vectors[:, i] - values[i] * vectors[:, i]) < 1e-12

    def test_descending_order(self, rng):
        for _ in range(20):
            m = random_density_matrix(rng)
            values, _ = states.hermitian_eigensystem(m)
            assert values[0] >= values[1]

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            states.hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            states.hermitian_eigensystem(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            states.hermitian_eigensystem(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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

    def test_rejects_outside_ball(self):
        with pytest.raises(InvalidStateError, match="exceeds"):
            states.density_from_bloch([1.0, 1.0, 0.0])

    def test_boundary_tolerance(self):
        # A hair over the surface from round-off must still pass.
        states.density_from_bloch([1.0 + 5e-10, 0.0, 0.0])

    def test_bloch_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            states.bloch_from_density(np.eye(3))


class TestValidation:
    def test_accepts_valid(self, rng):
        for _ in range(10):
            states.validate_density_matrix(random_density_matrix(rng))

    def test_rejects_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            states.validate_density_matrix(2.0 * np.eye(2))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError, match="Hermitian"):
            states.validate_density_matrix(m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvalidStateError, match="negative eigenvalue"):
            states.validate_density_matrix(m)

    def test_dim_check(self):
        with pytest.raises(InvalidStateError, match="expected 2x2"):
            states.validate_density_matrix(np.eye(4) / 4.0, dim=2)
        states.validate_density_matrix(np.eye(4) / 4.0, dim=None)

    def test_density_form_leaves_spectrum_unchecked(self):
        # Hermitian with unit trace but not PSD: the form check returns it as a
        # complex array, and only the full validation rejects it.
        m = np.diag([1.5, -0.5])
        checked = states.check_density_form(m)
        assert checked.dtype == complex
        np.testing.assert_array_equal(checked, m)
        with pytest.raises(InvalidStateError, match="negative eigenvalue"):
            states.validate_density_matrix(m)

    def test_lowest_eigenvalue_tolerance(self):
        states.check_lowest_eigenvalue(np.array([-0.5 * states.EIGENVALUE_CLAMP, 1.0]))
        with pytest.raises(InvalidStateError, match=r"^probe: negative eigenvalue -2\.000e-10"):
            states.check_lowest_eigenvalue(np.array([-2e-10, 1.0]), context="probe")
        states.check_lowest_eigenvalue(np.array([-2e-10, 1.0]), eigenvalue_tol=1e-9)


class TestEntropy:
    def test_pure_state_zero(self):
        assert states.von_neumann_entropy(states.projector(states.KET_0)) == 0.0

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
        # Round-off negatives inside the clamp count as zero weight; one just
        # beyond it is rejected.
        assert states.von_neumann_entropy(np.diag([1.0 + 5e-11, -5e-11])) == 0.0
        with pytest.raises(InvalidStateError, match="negative eigenvalue"):
            states.von_neumann_entropy(np.diag([1.0 + 2e-10, -2e-10]))
