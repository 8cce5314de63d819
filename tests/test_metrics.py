"""State metrics and process-discrepancy norms."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import (
    BOUND_MESSAGE,
    KET_0,
    KET_1,
    in_frame,
    loop_check_density_matrix,
    loop_fidelity,
    loop_process_distance_report,
    projector,
    random_cptp_chi,
    random_density_matrix,
    random_frame,
)
from qpt import metrics, states
from qpt import channels as ch
from qpt.errors import _BOUND, InvalidStateError
from qpt.process_tomography import run_process_tomography
from qpt.projection import project_to_physical
from qpt.simulator import PRESETS, run_experiment, true_channel


def pure(theta: float, phi: float) -> np.ndarray:
    ket = np.array(
        [math.cos(theta / 2.0), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)]
    )
    return np.outer(ket, ket.conj())


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        zero = projector(KET_0)
        one = projector(KET_1)
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
        with pytest.raises(ValueError, match=r"^difference: not Hermitian \(defect 7\.071e-01\)$"):
            metrics.trace_distance(bad, np.eye(2) / 2.0)

    def test_difference_past_the_float_range(self):
        # Two finite operands whose difference would overflow: refused by
        # the bound, by name, not a NaN distance.  Operands at the bound
        # have a finite difference and distance.
        a = [[0.5, 1e308], [1e308, 0.5]]
        b = [[0.5, -1e308], [-1e308, 0.5]]
        with pytest.raises(ValueError, match=f"^first state: {BOUND_MESSAGE}$"):
            metrics.trace_distance(a, b)
        a = [[0.5, _BOUND], [_BOUND, 0.5]]
        b = [[0.5, -_BOUND], [-_BOUND, 0.5]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert metrics.trace_distance(a, b) == 2.0 * _BOUND


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
            projector(KET_0), projector(KET_1)
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

    def test_messages_name_the_operand_and_check(self):
        skewed = np.array([[0.5, 0.1j], [0.1j, 0.5]])
        with pytest.raises(InvalidStateError, match=r"^first state: not Hermitian \(defect 1\.414e-01\)$"):
            metrics.fidelity(skewed, np.eye(2) / 2.0)
        with pytest.raises(InvalidStateError, match=r"^second state: trace"):
            metrics.bures_metric(np.eye(2) / 2.0, np.eye(2))
        with pytest.raises(
            InvalidStateError, match=r"^second state: negative eigenvalue -5\.000e-01 beyond clamp$"
        ):
            metrics.c_metric(np.eye(2) / 2.0, np.diag([1.5, -0.5]))

    def test_tolerates_clamp_range(self):
        nearly = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        assert metrics.fidelity(nearly, projector(KET_0)) == pytest.approx(
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
        # A non-normal difference whose five norms all differ (p1 != p_inf):
        # each report field must be its own norm, so swapping any two fields
        # of either type fails.
        x = np.zeros((4, 4), dtype=complex)
        x[0, 1], x[0, 2], x[1, 3], x[2, 3] = 0.3, 0.2j, 0.1, -0.05
        norms = metrics.matrix_norms(x)
        assert norms.p1 != norms.p_inf
        assert len(set(norms)) == len(norms)
        report = metrics.DiscrepancyReport.from_difference(x, ("a", "b"))
        assert report.p1_norm == norms.p1
        assert report.p2_norm == norms.p2
        assert report.p_inf_norm == norms.p_inf
        assert report.frobenius_norm == norms.frobenius
        assert report.trace_distance_pro == norms.half_trace
        assert report.as_dict() == {
            "p1_norm": norms.p1,
            "p2_norm": norms.p2,
            "p_inf_norm": norms.p_inf,
            "frobenius_norm": norms.frobenius,
            "trace_distance_pro": norms.half_trace,
            "context": ["a", "b"],
        }
        # Documents write the keys in field order.
        assert list(report.as_dict().values()) == [*norms, ["a", "b"]]

    def test_norm_fields_are_python_floats(self):
        # Not numpy scalars, which pass isinstance(value, float): every
        # path that builds a report gives plain floats.
        identity = ch.standard_channel("identity")
        reports = [
            metrics.DiscrepancyReport.from_difference(identity - TRANSPOSE, ("a", "b")),
            metrics.process_distance_report(identity, TRANSPOSE).norms,
            metrics.process_distance_report(identity, true_channel(PRESETS["paper-40ns"])).norms,
        ]
        # Each report's fields are its five norms, then its context.
        for norms in [metrics.matrix_norms(identity - TRANSPOSE)] + [
            dataclasses.astuple(report)[:-1] for report in reports
        ]:
            assert len(norms) == 5
            assert all(type(value) is float for value in norms), norms


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
        # The block validates chi with the check fidelity uses; it must equal
        # the public state metrics computed from scratch on chi, and match them on the
        # Choi states, which are chi under one fixed unitary, to roundoff.
        for _ in range(300):
            a, b = random_cptp_chi(rng), random_cptp_chi(rng)
            block = metrics.process_distance_report(a, b).state_metrics
            assert block.fidelity == metrics.fidelity(a, b)
            assert block.bures == metrics.bures_metric(a, b)
            assert block.c_metric == metrics.c_metric(a, b)
            choi_a, choi_b = ch.choi_from_chi(a), ch.choi_from_chi(b)
            assert abs(block.fidelity - metrics.fidelity(choi_a, choi_b)) <= 1e-13
            assert abs(block.bures - metrics.bures_metric(choi_a, choi_b)) <= 1e-13
            assert abs(block.c_metric - metrics.c_metric(choi_a, choi_b)) <= 1e-13

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

    def test_non_hermitian_operand_with_cptp_hermitian_part_skips(self):
        # The Hermitian part is the fully depolarizing channel, but chi is
        # never silently symmetrized: the anti-Hermitian remainder fails the
        # density-matrix check and the state block is skipped.
        chi = np.eye(4, dtype=complex) / 4.0
        chi[0, 1] = chi[1, 0] = 0.1j
        comparison = metrics.process_distance_report(chi, ch.standard_channel("identity"))
        assert comparison.state_metrics is None
        assert comparison.skip_reason.startswith("skipped: unphysical Choi for a: not Hermitian")
        assert comparison.norms.frobenius_norm > 0.0

    def test_hermiticity_defect_named_whatever_the_hermitian_part(self):
        # A 7e-7 anti-Hermitian part gets the same reason whether the
        # Hermitian part is CPTP or not.
        defect = np.zeros((4, 4), dtype=complex)
        defect[0, 1] = defect[1, 0] = 5e-7j
        identity = ch.standard_channel("identity")
        transpose = np.diag([0.5, 0.5, -0.5, 0.5]).astype(complex)
        for hermitian in (identity, transpose):
            comparison = metrics.process_distance_report(
                identity, hermitian + defect, context=("id", "probe")
            )
            assert comparison.skip_reason == (
                "skipped: unphysical Choi for probe: not Hermitian (defect 7.071e-07)"
            )

    def test_first_failing_operand_and_check_named(self):
        identity = ch.standard_channel("identity")
        transpose = np.diag([0.5, 0.5, -0.5, 0.5]).astype(complex)
        leaky = 0.9 * identity
        reason = metrics.process_distance_report(
            transpose, leaky, context=("transpose", "leaky")
        ).skip_reason
        assert reason == (
            "skipped: unphysical Choi for transpose: negative eigenvalue -5.000e-01 beyond clamp"
        )
        reason = metrics.process_distance_report(
            identity, leaky, context=("id", "leaky")
        ).skip_reason
        assert reason.startswith("skipped: unphysical Choi for leaky: trace 0.9")

    def test_never_raises_for_finite_unphysical_operands(self, rng):
        for _ in range(200):
            chi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            comparison = metrics.process_distance_report(
                random_cptp_chi(rng), chi, context=("cptp", "random")
            )
            assert comparison.state_metrics is None
            assert comparison.skip_reason.startswith("skipped: unphysical Choi for random: ")
            assert comparison.norms.frobenius_norm > 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            metrics.process_distance_report(np.eye(2), np.eye(4))


class TestFrameCovariance:
    """Both operands rotated before and after, ``E -> V o E o U``: their chi
    are conjugated by one unitary, so every unitarily invariant norm of the
    difference and every state metric stays; the induced norms ``p1`` and
    ``p_inf`` of chi in the Pauli basis do not."""

    def assert_invariant(self, a, b, frame):
        plain = metrics.process_distance_report(a, b)
        rotated = metrics.process_distance_report(in_frame(a, frame), in_frame(b, frame))
        for name in ("frobenius_norm", "p2_norm", "trace_distance_pro"):
            expected = getattr(plain.norms, name)
            assert getattr(rotated.norms, name) == pytest.approx(expected, rel=0, abs=1e-12)
        assert (rotated.state_metrics is None) == (plain.state_metrics is None)
        if plain.state_metrics is None:
            return
        f = plain.state_metrics.fidelity
        # F takes square roots of the clamped spectra.  A zero eigenvalue
        # comes out as +-1e-17 or so, whose root, about 3e-9, can open a
        # new singular value of R_a^dag R_b: so F is held to 1e-12 only
        # when both operands are positive definite, else to 1e-7.
        definite = all(np.linalg.eigvalsh(chi)[0] > 1e-6 for chi in (a, b))
        tol = 1e-12 if definite else 1e-7
        assert rotated.state_metrics.fidelity == pytest.approx(f, rel=0, abs=tol)
        # At F = 1 Bures and C vary like the square root of round-off (one
        # ulp of F moves them by about 1.5e-8), so they are held only away
        # from it.
        if definite and f < 1.0 - 1e-6:
            for name in ("bures", "c_metric"):
                expected = getattr(plain.state_metrics, name)
                assert getattr(rotated.state_metrics, name) == pytest.approx(
                    expected, rel=0, abs=1e-12
                )

    def test_random_channels(self):
        # Four Kraus operators: positive definite chi, so every field is
        # held to 1e-12.
        rng = np.random.default_rng(18)
        for _ in range(100):
            a, b = random_cptp_chi(rng, 4), random_cptp_chi(rng, 4)
            assert min(np.linalg.eigvalsh(chi)[0] for chi in (a, b)) > 1e-6
            self.assert_invariant(a, b, random_frame(rng))

    @pytest.mark.parametrize("shots", [None, 100, 1000])
    def test_estimates_against_the_truth(self, shots):
        # Exact estimates sit at F = 1; raw noisy ones fail the state check
        # in both frames or in neither; their projections pass it.
        rng = np.random.default_rng(19)
        for config in PRESETS.values():
            for seed in range(4):
                run = dataclasses.replace(config, shots=shots, seed=seed)
                estimate = run_process_tomography(run_experiment(run)).chi
                for chi in (estimate, project_to_physical(estimate).chi_tilde):
                    self.assert_invariant(chi, true_channel(config), random_frame(rng))

    def test_p1_norm_depends_on_the_frame(self):
        # Full dephasing against the identity, both after a z rotation by
        # pi/4: the difference keeps its Frobenius norm 1/sqrt(2), but its
        # largest absolute column (and row) sum grows from 1/2 to 1/sqrt(2).
        identity = ch.standard_channel("identity")
        dephasing = ch.standard_channel("dephasing", factor=0.0)
        frame = (ch.standard_channel("unitary_rotation", axis="z", angle=math.pi / 4), identity)
        plain = metrics.process_distance_report(dephasing, identity).norms
        rotated = metrics.process_distance_report(
            in_frame(dephasing, frame), in_frame(identity, frame)
        ).norms
        assert plain.p1_norm == plain.p_inf_norm == 0.5
        assert rotated.p1_norm == pytest.approx(math.sqrt(0.5), rel=0, abs=1e-15)
        assert rotated.p_inf_norm == pytest.approx(math.sqrt(0.5), rel=0, abs=1e-15)
        assert rotated.frobenius_norm == pytest.approx(math.sqrt(0.5), rel=0, abs=1e-15)
        assert plain.frobenius_norm == pytest.approx(math.sqrt(0.5), rel=0, abs=1e-15)


def bits(values) -> list[str]:
    return [float(value).hex() for value in values]


def comparison_bits(comparison) -> tuple:
    norms = comparison.norms
    block = comparison.state_metrics
    return (
        bits([norms.p1_norm, norms.p2_norm, norms.p_inf_norm, norms.frobenius_norm,
              norms.trace_distance_pro]),
        None if block is None else bits(
            [block.trace_distance, block.fidelity, block.bures, block.c_metric]
        ),
        comparison.skip_reason,
    )


def oracle_bits(chi_a, chi_b, context=("a", "b")) -> tuple:
    norms, block, reason = loop_process_distance_report(chi_a, chi_b, context)
    return bits(norms), None if block is None else bits(block), reason


# Operands that fail the density-matrix check, one per check, each with
# its reason.
SKEWED = np.eye(4, dtype=complex) / 4.0
SKEWED[0, 1] = SKEWED[1, 0] = 0.1j
LEAKY = 0.9 * ch.standard_channel("identity")
TRANSPOSE = np.diag([0.5, 0.5, -0.5, 0.5]).astype(complex)
FAILING = {"not Hermitian": SKEWED, "trace": LEAKY, "negative eigenvalue": TRANSPOSE}


def huge_pair(value: float = 1.7e308) -> tuple[np.ndarray, np.ndarray]:
    """A pair whose second operand holds entries of modulus ``value`` and
    whose first fails its trace check: their difference is small, so only
    the state check could overflow, and only on the operand it never
    reaches."""
    second = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    second[0, 1] = second[1, 0] = value
    second[2, 3] = second[3, 2] = -value
    second[1, 2], second[2, 1] = 1j * value, -1j * value
    first = second.copy()
    first[0, 0] += 0.1
    return first, second


class TestAgainstLoopOracle:
    """The stacked comparison equals per-operand checks, roots and SVDs bit
    for bit: norms, state block and skip reason."""

    def test_noisy_estimates_and_projections(self, noisy_estimates):
        truths = [true_channel(PRESETS[name]) for name in sorted(PRESETS)]
        projected = [project_to_physical(chi).chi_tilde for chi in noisy_estimates]
        pairs = [(chi, truth) for chi in noisy_estimates for truth in truths]
        pairs += [(chi, truth) for chi in projected for truth in truths]
        pairs += list(zip(noisy_estimates, projected))
        pairs += list(zip(projected, noisy_estimates))
        skipped = 0
        for a, b in pairs:
            comparison = metrics.process_distance_report(a, b)
            assert comparison_bits(comparison) == oracle_bits(a, b)
            skipped += comparison.state_metrics is None
        # Both paths are exercised.
        assert 0 < skipped < len(pairs)

    def test_random_cptp_pairs(self, rng):
        for _ in range(200):
            a, b = random_cptp_chi(rng), random_cptp_chi(rng)
            assert comparison_bits(metrics.process_distance_report(a, b)) == oracle_bits(a, b)
            assert bits([metrics.fidelity(a, b)]) == bits([loop_fidelity(a, b)])

    def test_random_states(self, rng):
        for _ in range(200):
            a, b = random_density_matrix(rng), random_density_matrix(rng)
            assert bits([metrics.fidelity(a, b)]) == bits([loop_fidelity(a, b)])
            for rho in (a, b):
                values, vectors = states.check_density_matrix(rho)
                expected = loop_check_density_matrix(rho.astype(complex), 1e-9, "density matrix")
                assert np.array_equal(values, expected[0])
                assert np.array_equal(vectors, expected[1])

    @pytest.mark.parametrize("kind", sorted(FAILING))
    def test_every_failure_on_either_operand(self, rng, kind):
        bad = FAILING[kind]
        for good in (ch.standard_channel("identity"), random_cptp_chi(rng)):
            for other in [good, *FAILING.values()]:
                for a, b in ((bad, other), (other, bad)):
                    comparison = metrics.process_distance_report(a, b, ("p", "q"))
                    assert comparison_bits(comparison) == oracle_bits(a, b, ("p", "q"))
                    assert comparison.state_metrics is None
                    with pytest.raises(InvalidStateError) as raised:
                        metrics.fidelity(a, b)
                    with pytest.raises(InvalidStateError) as expected:
                        loop_fidelity(a, b)
                    assert str(raised.value) == str(expected.value)
            reason = metrics.process_distance_report(bad, good, ("p", "q")).skip_reason
            assert reason.startswith(f"skipped: unphysical Choi for p: {kind}")
            reason = metrics.process_distance_report(good, bad, ("p", "q")).skip_reason
            assert reason.startswith(f"skipped: unphysical Choi for q: {kind}")

    def test_unreached_operand_near_the_float_limit(self):
        # Past the bound both operands are refused by name; at the bound
        # the unreached operand is decomposed with no warning.
        first, second = huge_pair()
        with pytest.raises(ValueError, match=f"^a: {BOUND_MESSAGE}$"):
            metrics.process_distance_report(first, second)
        with pytest.raises(ValueError, match=f"^first state: {BOUND_MESSAGE}$"):
            metrics.fidelity(first, second)
        first, second = huge_pair(_BOUND)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comparison = metrics.process_distance_report(first, second)
            with pytest.raises(InvalidStateError) as raised:
                metrics.fidelity(first, second)
            expected = oracle_bits(first, second)
            with pytest.raises(InvalidStateError) as oracle:
                loop_fidelity(first, second)
        assert comparison_bits(comparison) == expected
        assert comparison.skip_reason == (
            "skipped: unphysical Choi for a: trace 1.10000000+0.00000000j is not 1"
        )
        assert str(raised.value) == str(oracle.value)
        assert str(raised.value).startswith("first state: trace 1.1")


def bit_hermitian(m: np.ndarray) -> bool:
    return np.array_equal(m, m.conj().T)


# The preparations of the reconstruction sweep, as ExperimentConfig overrides.
PREPARATIONS = {
    "ideal": {},
    "polarization=0.95": {"polarization": 0.95},
    "pulse_error=0.05": {"pulse_error": 0.05},
}
# Values for each parameter of ch._PARAMETER_SETS, several per name.
CHANNEL_VALUES = {
    "factor": (0.0, 0.37, 1.0), "t": (0.0, 3.0, 250.0), "t2": (10.0, math.inf),
    "t1": (7.0, math.inf), "gamma": (0.0, 0.21, 1.0), "p": (0.0, 0.3, 1.0),
    "axis": ("x", "y", "z", (1.0, -2.0, 0.5)), "angle": (0.0, 0.7, math.pi, -2.9),
}


def sweep_config(name: str, preparation: str, shots, seed: int):
    return dataclasses.replace(PRESETS[name], shots=shots, seed=seed, **PREPARATIONS[preparation])


# Each operand compared with its truth: the shapes passed to np.linalg.svd
# and np.linalg.eigh, and whether the state block is computed.
LAPACK_CALLS = {
    "exact-estimate": ([(4, 4)], [(3, 4, 4)], True),
    "sampled-estimate": ([], [(3, 4, 4)], False),
    "leaky": ([], [(3, 4, 4)], False),
    "projection": ([(2, 4, 4)], [(2, 4, 4)], True),
    "skewed": ([(4, 4)], [(2, 4, 4)], False),
}


def counted(monkeypatch, name: str) -> list:
    """The shapes of the arrays passed to ``np.linalg.<name>`` from now on."""
    shapes = []
    original = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return shapes


class TestEigenvaluePath:
    """A difference of two operands that are Hermitian bit for bit takes
    its singular values from the state check's ``eigh``; any other keeps
    the SVD."""

    @pytest.mark.parametrize("shots", [None, 100, 1000])
    @pytest.mark.parametrize("preparation", list(PREPARATIONS))
    def test_estimates_and_truths_are_bit_hermitian(self, preparation, shots):
        for name in PRESETS:
            for seed in range(3):
                config = sweep_config(name, preparation, shots, seed)
                assert bit_hermitian(run_process_tomography(run_experiment(config)).chi)
                assert bit_hermitian(true_channel(config))

    def test_named_channels_are_bit_hermitian(self):
        for kind, parameter_sets in ch._PARAMETER_SETS.items():
            for names in parameter_sets:
                for values in itertools.product(*(CHANNEL_VALUES[n] for n in names)):
                    chi = ch.standard_channel(kind, **dict(zip(names, values)))
                    assert bit_hermitian(chi), (kind, names, values)

    @pytest.mark.parametrize("pair", list(LAPACK_CALLS))
    def test_lapack_calls(self, monkeypatch, pair):
        config = sweep_config("paper-40ns", "ideal", 100, 2)
        truth = true_channel(config)
        estimate = run_process_tomography(run_experiment(config)).chi
        operand = {
            "exact-estimate": run_process_tomography(
                run_experiment(dataclasses.replace(config, shots=None))
            ).chi,
            "sampled-estimate": estimate,
            "leaky": LEAKY,
            "projection": project_to_physical(estimate).chi_tilde,
            "skewed": SKEWED,
        }[pair]
        svd_shapes, eigh_shapes, block = LAPACK_CALLS[pair]
        assert bit_hermitian(operand) == (pair not in ("projection", "skewed"))
        calls = {name: counted(monkeypatch, name) for name in ("svd", "eigh")}
        comparison = metrics.process_distance_report(operand, truth)
        assert (comparison.state_metrics is not None) == block
        assert calls == {"svd": svd_shapes, "eigh": eigh_shapes}

    def test_eigenvalues_match_the_svd(self, noisy_estimates):
        # The moduli of the eigenvalues are the singular values to within
        # a few ulps of the difference's scale.
        truths = [true_channel(PRESETS[name]) for name in sorted(PRESETS)]
        pairs = [(chi, truth) for chi in noisy_estimates for truth in truths]
        rng = np.random.default_rng(41)
        for scale in (1.0, 100.0, 1000.0):
            for _ in range(50):
                m, n = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
                pairs.append((scale * (m + m.conj().T), scale * (n + n.conj().T)))
        eps = np.finfo(float).eps
        for a, b in pairs:
            assert bit_hermitian(a) and bit_hermitian(b)
            norms = metrics.process_distance_report(a, b).norms
            expected = metrics.matrix_norms(a - b)
            tol = 8.0 * eps * max(1.0, expected.frobenius)
            assert abs(norms.p2_norm - expected.p2) <= tol
            assert abs(norms.trace_distance_pro - expected.half_trace) <= tol
