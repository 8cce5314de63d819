"""State metrics and process-discrepancy norms."""

import math

import numpy as np
import pytest

from conftest import random_cptp_chi, random_density_matrix
from qpt import metrics, states
from qpt import channels as ch
from qpt.errors import InvalidStateError


def pure(theta: float, phi: float) -> np.ndarray:
    ket = np.array(
        [math.cos(theta / 2.0), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)]
    )
    return np.outer(ket, ket.conj())


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        zero = states.projector(states.KET_0)
        one = states.projector(states.KET_1)
        assert metrics.trace_distance(zero, one) == pytest.approx(1.0)

    def test_self_distance_zero(self, rng):
        rho = random_density_matrix(rng)
        assert metrics.trace_distance(rho, rho) == 0.0

    def test_symmetry_and_triangle(self, rng):
        a, b, c = (random_density_matrix(rng) for _ in range(3))
        assert metrics.trace_distance(a, b) == pytest.approx(metrics.trace_distance(b, a))
        assert metrics.trace_distance(a, c) <= (
            metrics.trace_distance(a, b) + metrics.trace_distance(b, c) + 1e-12
        )

    def test_half_bloch_displacement(self):
        # For qubits the trace distance is half the Bloch-vector distance.
        a = states.density_from_bloch([0.0, 0.0, 0.8])
        b = states.density_from_bloch([0.0, 0.0, 0.2])
        assert metrics.trace_distance(a, b) == pytest.approx(0.3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            metrics.trace_distance(np.eye(2), np.eye(4))

    def test_non_hermitian_difference(self):
        bad = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            metrics.trace_distance(bad, np.eye(2) / 2.0)


class TestFidelity:
    def test_identical_states(self, rng):
        rho = random_density_matrix(rng)
        assert metrics.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_overlap(self):
        # Squared-trace convention: F equals the transition probability.
        a = pure(0.3, 0.0)
        b = pure(1.1, 0.7)
        overlap = abs(np.trace(a @ b))
        assert metrics.fidelity(a, b) == pytest.approx(overlap, abs=1e-12)

    def test_commuting_mixed_states(self):
        a = np.diag([0.7, 0.3]).astype(complex)
        b = np.diag([0.4, 0.6]).astype(complex)
        expected = (math.sqrt(0.7 * 0.4) + math.sqrt(0.3 * 0.6)) ** 2
        assert metrics.fidelity(a, b) == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self, rng):
        a, b = random_density_matrix(rng), random_density_matrix(rng)
        assert metrics.fidelity(a, b) == pytest.approx(metrics.fidelity(b, a), abs=1e-10)

    def test_orthogonal_zero(self):
        assert metrics.fidelity(
            states.projector(states.KET_0), states.projector(states.KET_1)
        ) == pytest.approx(0.0, abs=1e-12)

    def test_rotated_rank_two_pairs(self, rng):
        # Choi states of R o dephasing(f) are rank 2 and share the eigenbasis
        # fixed by R, so F = (sqrt(p1 q1) + sqrt(p2 q2))^2 exactly.  The
        # composition leaves round-off in the two null directions, which a
        # square root of sqrt(a) b sqrt(a) would amplify to ~sqrt(eps).
        for _ in range(100):
            f1, f2 = rng.random(2)
            u = ch.rotation_unitary(rng.standard_normal(3), rng.uniform(0.0, 2.0 * math.pi))
            rotation = ch.chi_from_kraus([u])
            a, b = (
                ch.choi_from_chi(
                    ch.compose_chi(ch.standard_channel("dephasing", factor=f), rotation)
                )
                for f in (f1, f2)
            )
            expected = (
                math.sqrt((1.0 + f1) * (1.0 + f2)) + math.sqrt((1.0 - f1) * (1.0 - f2))
            ) ** 2 / 4.0
            assert abs(metrics.fidelity(a, b) - expected) <= 1e-12

    def test_unitary_channel_choi_states(self, rng):
        # Rank-1 Choi states of unitary channels U and V overlap by
        # F = |tr(U^dag V)|^2 / 4.
        for _ in range(50):
            u, v = (
                ch.rotation_unitary(rng.standard_normal(3), rng.uniform(0.0, 2.0 * math.pi))
                for _ in range(2)
            )
            a, b = (ch.choi_from_chi(ch.chi_from_kraus([w])) for w in (u, v))
            expected = abs(np.trace(u.conj().T @ v)) ** 2 / 4.0
            assert abs(metrics.fidelity(a, b) - expected) <= 1e-12

    def test_rejects_unphysical(self):
        with pytest.raises(InvalidStateError, match="negative eigenvalue"):
            metrics.fidelity(np.diag([1.5, -0.5]), np.eye(2) / 2.0)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            metrics.fidelity(2.0 * np.eye(2), np.eye(2) / 2.0)

    def test_tolerates_clamp_range(self):
        nearly = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        assert metrics.fidelity(nearly, states.projector(states.KET_0)) == pytest.approx(
            1.0, abs=1e-8
        )


class TestDerivedMetrics:
    def test_relations(self, rng):
        for _ in range(50):
            a, b = random_density_matrix(rng), random_density_matrix(rng)
            f = metrics.fidelity(a, b)
            d = metrics.trace_distance(a, b)
            bures = metrics.bures_metric(a, b)
            c = metrics.c_metric(a, b)
            assert bures**2 == pytest.approx(2.0 - 2.0 * math.sqrt(f), abs=1e-9)
            assert c**2 == pytest.approx(1.0 - f, abs=1e-9)
            assert 1.0 - math.sqrt(f) <= d + 1e-9
            assert d <= c + 1e-9

    def test_zero_for_identical(self, rng):
        rho = random_density_matrix(rng)
        assert metrics.bures_metric(rho, rho) == pytest.approx(0.0, abs=1e-7)
        assert metrics.c_metric(rho, rho) == pytest.approx(0.0, abs=1e-7)


class TestMatrixNorms:
    def test_known_matrix(self):
        # Exact singular-value identities for [[1, 2], [3, 4]]:
        # sum s_i^2 = 30, prod s_i = |det| = 2.
        norms = metrics.matrix_norms(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert norms.p1 == pytest.approx(6.0)
        assert norms.p_inf == pytest.approx(7.0)
        assert norms.frobenius == pytest.approx(math.sqrt(30.0))
        assert norms.p2 == pytest.approx(math.sqrt(15.0 + math.sqrt(221.0)), abs=1e-12)
        assert norms.half_trace == pytest.approx(math.sqrt(34.0) / 2.0, abs=1e-12)

    def test_hermitian_p1_equals_p_inf(self, rng):
        for _ in range(30):
            x = random_density_matrix(rng) - random_density_matrix(rng)
            norms = metrics.matrix_norms(x)
            assert norms.p1 == pytest.approx(norms.p_inf, abs=1e-12)

    def test_norm_chain(self, rng):
        for _ in range(30):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            norms = metrics.matrix_norms(x)
            assert norms.p2 <= norms.frobenius + 1e-10
            assert norms.frobenius <= 2.0 * norms.half_trace + 1e-10

    def test_hermitian_half_trace_is_eigenvalue_sum(self, rng):
        x = random_density_matrix(rng) - random_density_matrix(rng)
        expected = np.abs(np.linalg.eigvalsh(x)).sum() / 2.0
        assert metrics.matrix_norms(x).half_trace == pytest.approx(expected, abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            metrics.matrix_norms(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            metrics.matrix_norms(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestDiscrepancyReport:
    def test_fields_and_context(self):
        x = np.diag([0.1, -0.1, 0.0, 0.0])
        report = metrics.DiscrepancyReport.from_difference(x, ("raw", "ideal"))
        assert report.context == ("raw", "ideal")
        assert report.p1_norm == pytest.approx(0.1)
        assert report.frobenius_norm == pytest.approx(0.1 * math.sqrt(2.0))
        assert report.trace_distance_pro == pytest.approx(0.1)
        as_dict = report.as_dict()
        assert set(as_dict) == {
            "p1_norm", "p2_norm", "p_inf_norm", "frobenius_norm",
            "trace_distance_pro", "context",
        }


class TestProcessComparison:
    def test_physical_pair_has_state_block(self, rng):
        pairs = [
            (ch.standard_channel("dephasing", factor=0.5), ch.standard_channel("identity"))
        ]
        pairs += [(random_cptp_chi(rng), random_cptp_chi(rng)) for _ in range(50)]
        for a, b in pairs:
            comparison = metrics.process_distance_report(a, b, context=("a", "b"))
            assert comparison.state_metrics is not None
            assert comparison.skip_reason is None
            assert 0.0 < comparison.state_metrics.fidelity < 1.0
            assert comparison.state_metrics.bures == pytest.approx(
                math.sqrt(2.0 - 2.0 * math.sqrt(comparison.state_metrics.fidelity)),
                abs=1e-12,
            )
            # The Choi states are the chi matrices under one fixed unitary, so
            # their trace distance is the norm block's d_pro.
            choi_distance = metrics.trace_distance(ch.choi_from_chi(a), ch.choi_from_chi(b))
            assert abs(comparison.state_metrics.trace_distance - choi_distance) <= 1e-14

    def test_state_block_matches_public_metrics(self, rng):
        # The block reuses the CP-check spectra; it must agree with the public
        # state metrics computed from scratch on the same Choi states.
        for _ in range(30):
            a, b = random_cptp_chi(rng), random_cptp_chi(rng)
            block = metrics.process_distance_report(a, b).state_metrics
            choi_a, choi_b = ch.choi_from_chi(a), ch.choi_from_chi(b)
            assert block.fidelity == metrics.fidelity(choi_a, choi_b)
            assert block.bures == metrics.bures_metric(choi_a, choi_b)
            assert block.c_metric == metrics.c_metric(choi_a, choi_b)

    def test_identical_pair(self):
        a = ch.standard_channel("identity")
        comparison = metrics.process_distance_report(a, a)
        assert comparison.state_metrics.fidelity == pytest.approx(1.0, abs=1e-12)
        assert comparison.norms.frobenius_norm == 0.0

    def test_unphysical_operand_skips_state_block(self):
        transpose = np.diag([0.5, 0.5, -0.5, 0.5]).astype(complex)
        comparison = metrics.process_distance_report(
            transpose, ch.standard_channel("identity"), context=("transpose", "id")
        )
        assert comparison.state_metrics is None
        assert "unphysical Choi" in comparison.skip_reason
        assert "transpose" in comparison.skip_reason
        # The norm block never depends on physicality.
        assert comparison.norms.frobenius_norm > 0.0

    def test_trace_deficient_operand_skips_state_block(self):
        # Completely positive but trace-decreasing: the Choi trace drops to 0.9,
        # so the normalized-state comparison is not meaningful.
        leaky = 0.9 * ch.standard_channel("identity")
        comparison = metrics.process_distance_report(
            ch.standard_channel("identity"), leaky, context=("id", "leaky")
        )
        assert comparison.state_metrics is None
        assert "leaky" in comparison.skip_reason
        assert "trace" in comparison.skip_reason

    def test_non_hermitian_operand_with_cptp_hermitian_part_raises(self):
        # The skip check reads the Hermitian part, which here is the fully
        # depolarizing channel; the fidelity validation then rejects the
        # anti-Hermitian remainder instead of silently symmetrizing it.
        chi = np.eye(4, dtype=complex) / 4.0
        chi[0, 1] = chi[1, 0] = 0.1j
        with pytest.raises(InvalidStateError, match="first state: not Hermitian"):
            metrics.process_distance_report(chi, ch.standard_channel("identity"))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            metrics.process_distance_report(np.eye(2), np.eye(4))
