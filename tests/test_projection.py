"""Projection onto the completely positive trace-preserving set."""

import math
import sys
import warnings

import numpy as np
import pytest

from conftest import (
    BOUND_MESSAGE,
    in_frame,
    loop_project_to_physical,
    random_cptp_chi,
    random_frame,
)
from qpt import channels as ch
from qpt import projection
from qpt.errors import _BOUND, NonConvergenceError
from qpt.metrics import DiscrepancyReport
from qpt.projection import (
    ProjectionResult,
    project_to_physical,
    projection_report,
)


def assert_cptp(chi, cp_tol=1e-9, tp_tol=1e-8):
    cp_flag, min_eig = ch.is_completely_positive(chi)
    tp_flag, deficit = ch.is_trace_preserving(chi)
    assert cp_flag, f"not CP: min Choi eigenvalue {min_eig}"
    assert tp_flag, f"not TP: deficit {deficit}"


def test_tp_correction_is_the_pseudoinverse():
    # The TP fix uses T_0^dag / 4, T_0 the row-0 block of the transfer tensor.
    row0 = ch._ROW0
    np.testing.assert_allclose(
        row0.conj().T / 4.0, np.linalg.pinv(row0), rtol=0, atol=1e-15
    )


class TestFixedPoints:
    CHANNELS = [
        ch.standard_channel("identity"),
        ch.standard_channel("dephasing", factor=0.5),
        ch.standard_channel("amplitude_damping", gamma=0.3),
        ch.standard_channel("depolarizing", p=0.5),
    ]

    @pytest.mark.parametrize("chi", CHANNELS)
    def test_physical_input_is_fixed(self, chi):
        result = project_to_physical(chi)
        assert result.converged
        assert result.distance < 1e-6
        np.testing.assert_allclose(result.chi_tilde, chi, atol=1e-5)
        assert_cptp(result.chi_tilde)

    def test_idempotent(self, rng):
        chi = random_cptp_chi(rng) + 0.05 * np.diag([1.0, -1.0, 0.5, -0.5])
        first = project_to_physical(chi)
        second = project_to_physical(first.chi_tilde)
        assert second.distance < 1e-6


class TestProjectionOutput:
    def test_output_always_physical(self, rng):
        chi = random_cptp_chi(rng)
        noisy = chi + 0.08 * (lambda h: (h + h.conj().T) / 2.0)(
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        )
        result = project_to_physical(noisy)
        assert_cptp(result.chi_tilde)
        assert result.distance > 0.0
        assert result.iterations > 0

    def test_deterministic(self):
        chi = np.diag([0.9, 0.2, -0.05, 0.05]).astype(complex)
        a = project_to_physical(chi)
        b = project_to_physical(chi)
        assert a.distance == b.distance
        np.testing.assert_array_equal(a.chi_tilde, b.chi_tilde)

    def test_input_symmetrized(self, rng):
        chi = random_cptp_chi(rng)
        anti = 1j * np.diag([0.1, -0.1, 0.0, 0.0])
        with_anti = chi + anti  # same Hermitian part
        a = project_to_physical(chi)
        b = project_to_physical(with_anti)
        assert a.distance == pytest.approx(b.distance, abs=1e-12)

    def test_certificate_measured_on_output(self):
        result = project_to_physical(np.diag([0.9, 0.2, -0.05, 0.05]))
        _, deficit = ch.is_trace_preserving(result.chi_tilde)
        assert result.tp_residual == pytest.approx(deficit, abs=1e-15)
        lowest = np.linalg.eigvalsh(result.chi_tilde)[0]
        assert result.min_eigenvalue == pytest.approx(lowest, abs=1e-15)
        assert result.restart_distances == ()


class TestKnownOptima:
    def test_expanded_sphere(self):
        # Inflating the x and y axes by 1.2 is repaired by pulling them back
        # to 1; the chi-space cost of that family is |delta| / sqrt(2).
        target = ch.chi_from_affine(ch.AffineMap(np.diag([1.2, 1.2, 1.0]), np.zeros(3)))
        result = project_to_physical(target)
        assert result.converged
        assert result.distance == pytest.approx(0.2 / math.sqrt(2.0), abs=1e-5)

    def test_transpose_map(self):
        # The best CPTP approximation of the transpose beats the nearest
        # depolarizing channel (distance sqrt(2/3)).
        transpose = np.diag([0.5, 0.5, -0.5, 0.5]).astype(complex)
        result = project_to_physical(transpose)
        assert result.converged
        assert result.distance == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-4)
        assert result.distance < math.sqrt(2.0 / 3.0) - 0.1


class TestBudgetExhaustion:
    def test_raises_with_best_iterate(self, monkeypatch):
        monkeypatch.setattr(projection, "MAX_ITERATIONS", 1)
        chi = np.diag([0.9, 0.2, -0.05, 0.05]).astype(complex)
        with pytest.raises(NonConvergenceError, match="did not converge") as info:
            project_to_physical(chi)
        result = info.value.best_result
        assert isinstance(result, ProjectionResult)
        assert not result.converged
        assert np.isfinite(result.distance)
        assert_cptp(result.chi_tilde)

    def test_generous_budget_converges(self):
        chi = np.diag([0.9, 0.2, -0.05, 0.05]).astype(complex)
        result = project_to_physical(chi)
        assert result.converged


class TestValidation:
    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            project_to_physical(np.eye(3))

    def test_non_finite(self):
        bad = np.diag([np.nan, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=f"^chi matrix: {BOUND_MESSAGE}$"):
            project_to_physical(bad)


class TestOptimality:
    """Certify optimality by the variational inequality of a convex projection.

    ``X`` is the projection of ``H`` onto the convex CPTP set exactly when
    ``Re tr((H - X)^dag (Z - X)) <= 0`` for every CPTP ``Z``.
    """

    def test_variational_inequality_on_random_targets(self, rng):
        competitors = [random_cptp_chi(rng, int(rng.integers(1, 5))) for _ in range(200)]
        for _ in range(40):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            target = (g + g.conj().T) / 4.0
            result = project_to_physical(target)
            assert result.converged
            assert result.tp_residual <= 1e-12
            assert result.min_eigenvalue >= -1e-12
            gradient = target - result.chi_tilde
            worst = max(
                float(np.real(np.vdot(gradient, z - result.chi_tilde)))
                for z in competitors
            )
            assert worst <= 1e-9, f"variational inequality violated by {worst:.3e}"

    @pytest.mark.parametrize("chi", TestFixedPoints.CHANNELS)
    def test_physical_input_takes_one_iteration(self, chi):
        assert project_to_physical(chi).iterations == 1

    def test_trace_shift_shares_the_eigenvector_blocks(self, rng):
        # The shift moves only the eigenvalues, so the blocks built from the
        # eigenvectors carry over unchanged and unrebuilt.
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        point = projection._DualPoint.of((g + g.conj().T) / 4.0, np.zeros(4))
        shifted = point.trace_shifted()
        assert shifted.blocks is point.blocks
        rebuilt = projection._DualPoint(shifted.y, shifted.values, shifted.vectors)
        assert np.array_equal(rebuilt.blocks, shifted.blocks)
        assert np.array_equal(rebuilt.gradient, shifted.gradient)


def roundoff_bound(target):
    """The stopping bound on ``||S - I||_F``: absolute, or relative at scale."""
    return max(1e-12, 64.0 * sys.float_info.epsilon * float(np.linalg.norm(target)))


def random_targets(seed, scale, count=50):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        yield scale * (g + g.conj().T) / 2.0


class TestAgainstDykstra:
    """The Newton solve lands where Dykstra's alternating projections do."""

    def test_noisy_estimates(self, noisy_estimates):
        for chi in noisy_estimates:
            newton = project_to_physical(chi)
            dykstra = loop_project_to_physical(chi)
            assert np.linalg.norm(newton.chi_tilde - dykstra.chi_tilde) <= 1e-10

    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_random_targets(self, scale):
        for target in random_targets(7, scale):
            newton = project_to_physical(target)
            dykstra = loop_project_to_physical(target)
            gap = np.linalg.norm(newton.chi_tilde - dykstra.chi_tilde)
            assert gap <= 1e-10 * scale


class TestFrameCovariance:
    """Rotating a channel before and after, ``E -> V o E o U``, conjugates
    its Choi matrix by the unitary ``U^T (x) V``, which keeps the PSD cone
    and the TP set: the nearest CPTP map rotates with the target, at the
    same distance and along the same Newton steps."""

    def assert_covariant(self, target, frame):
        scale = max(1.0, float(np.linalg.norm(target)))
        plain = project_to_physical(target)
        rotated = project_to_physical(in_frame(target, frame))
        gap = np.abs(in_frame(plain.chi_tilde, frame) - rotated.chi_tilde).max()
        assert gap <= 1e-12 * scale
        assert rotated.distance == pytest.approx(plain.distance, rel=0, abs=1e-12 * scale)
        assert (rotated.iterations, rotated.converged) == (plain.iterations, plain.converged)

    def test_noisy_estimates(self, noisy_estimates):
        rng = np.random.default_rng(18)
        for chi in noisy_estimates:
            for _ in range(3):
                self.assert_covariant(chi, random_frame(rng))

    @pytest.mark.parametrize("scale", [1.0, 100.0, 1000.0])
    def test_random_targets(self, scale):
        rng = np.random.default_rng(19)
        for target in random_targets(18, scale):
            self.assert_covariant(target, random_frame(rng))


def test_hessian_of_a_repeated_zero_eigenvalue():
    # [[1/2, 1/4], [1/4, 1/2]] (+) 0 keeps eigenvalue 0 twice at the
    # start, where the divided difference of max(., 0) is 0 / 0.
    target = np.zeros((4, 4))
    target[:2, :2] = [[0.5, 0.25], [0.25, 0.5]]
    result = project_to_physical(target)
    assert result.converged
    assert result.iterations == 4
    assert result.distance == pytest.approx(math.sqrt(3.0 / 32.0), abs=1e-13)


def test_noisy_estimates_take_few_evaluations(noisy_estimates):
    # Newton converges in four to six; a linearly convergent method needs a
    # few dozen.
    for chi in noisy_estimates:
        assert project_to_physical(chi).iterations <= 8


class TestFarTargets:
    @pytest.mark.parametrize("scale", [100.0, 1000.0])
    def test_converge_with_certificate(self, scale):
        competitors = [random_cptp_chi(np.random.default_rng(k), 1 + k % 4) for k in range(100)]
        for target in random_targets(11, scale):
            result = project_to_physical(target)
            assert result.converged
            bound = roundoff_bound(target)
            assert result.tp_residual <= bound
            assert -result.min_eigenvalue <= bound
            gradient = target - result.chi_tilde
            worst = max(
                float(np.real(np.vdot(gradient, z - result.chi_tilde)))
                for z in competitors
            )
            assert worst <= 1e-9 * scale, f"variational inequality violated by {worst:.3e}"

    @pytest.mark.parametrize("scale", [-1000.0, -1.0, 0.0, 1.0, 1000.0])
    def test_multiple_of_identity_goes_to_depolarizing(self, scale):
        # With tr chi = 1 fixed, ||X - cI||^2 is ||X||^2 plus a constant, and
        # the least-norm CPTP process is I / 4; at c <= 0 the dual Hessian
        # starts at zero.
        result = project_to_physical(scale * np.eye(4))
        assert result.converged
        np.testing.assert_allclose(result.chi_tilde, np.eye(4) / 4.0, atol=1e-12)
        # The first move along y_0 reaches I / 4 in the second evaluation;
        # Newton steps alone take over 40 from the zero Hessian at c <= 0.
        assert result.iterations == 2

    @pytest.mark.parametrize("scale", [1e50, 1e100, 1e150, _BOUND])
    def test_huge_entry_gives_a_certified_process(self, scale):
        chi = np.eye(4, dtype=complex) / 4.0
        chi[0, 0] = scale
        if scale > _BOUND:
            with pytest.raises(ValueError, match=f"^chi matrix: {BOUND_MESSAGE}$"):
                project_to_physical(chi)
            return
        result = project_to_physical(chi)
        assert result.converged is True
        assert result.tp_residual <= 1e-12
        assert result.min_eigenvalue >= -1e-12
        assert result.distance == pytest.approx(scale)

    def test_overflowing_norm_is_not_certified(self):
        # Entries near 1e154 overflowed ||H||_F, and with it the stopping
        # bound; the bound refuses them.
        chi = np.diag([1e154, -1e154, 3e153, 0.1]).astype(complex)
        chi[0, 1] = chi[1, 0] = 2e153
        with pytest.raises(ValueError, match=f"^chi matrix: {BOUND_MESSAGE}$"):
            project_to_physical(chi)

    @pytest.mark.parametrize("value", [1e200, 1e308, 1.7e308])
    def test_hermitian_pair_near_the_float_limit(self, value):
        # Past ~9e307 the target (chi + chi^dag) / 2 overflowed and the
        # eigensolver raised LinAlgError; the bound refuses the pair, and
        # a pair at the bound is certified.
        chi = np.eye(4, dtype=complex) / 4.0
        chi[0, 1] = chi[1, 0] = value
        with pytest.raises(ValueError, match=f"^chi matrix: {BOUND_MESSAGE}$"):
            project_to_physical(chi)
        chi[0, 1] = chi[1, 0] = _BOUND
        assert_cptp(project_to_physical(chi).chi_tilde)

    @pytest.mark.parametrize(
        "chi",
        [np.diag([1e308] * 4), np.full((4, 4), 1e308)],
        ids=["diagonal", "every-entry"],
    )
    def test_iterate_past_the_float_range(self, chi):
        # The trace-preserving fix of the last iterate overflowed; the
        # bound refuses the target, and the same shape at the bound is
        # certified with no warning.
        with pytest.raises(ValueError, match=f"^chi matrix: {BOUND_MESSAGE}$"):
            project_to_physical(chi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = project_to_physical(chi / 1e308 * _BOUND)
        assert result.converged is True
        assert_cptp(result.chi_tilde)
        assert math.isfinite(result.distance)


class TestProjectionReport:
    def test_norms_of_removed_part(self):
        chi = np.diag([0.9, 0.2, -0.05, 0.05]).astype(complex)
        result = project_to_physical(chi)
        report = projection_report(chi, result)
        assert isinstance(report, DiscrepancyReport)
        assert report.context == ("estimated", "projected")
        # Hermitian input: the report's Frobenius norm is the solver distance.
        assert report.frobenius_norm == pytest.approx(result.distance, abs=1e-6)

    def test_custom_context(self):
        chi = ch.standard_channel("identity")
        result = project_to_physical(chi)
        report = projection_report(chi, result, context=("raw", "fixed"))
        assert report.context == ("raw", "fixed")
