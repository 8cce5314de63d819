"""Acceptance gate: the toolkit's headline guarantees, one test each.

Every test checks a single end-to-end criterion at its stated tolerance
and posts a one-line PASS/FAIL verdict to the terminal summary, so a
logged run shows the eight verdicts in one block.  Runtime budgets are
part of the criteria and are asserted inside the tests.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from conftest import (
    exhaustive_ball_minimum,
    partial_trace_output,
    random_density_matrix,
    random_kraus_set,
    record_acceptance,
)
from qpt.channels import (
    AffineMap,
    affine_from_chi,
    apply_affine,
    apply_chi,
    apply_kraus,
    chi_from_affine,
    chi_from_choi,
    chi_from_kraus,
    choi_from_chi,
    is_completely_positive,
    is_trace_preserving,
    kraus_from_chi,
    standard_channel,
)
from qpt.mesh import ellipsoid_mesh, mesh_metadata
from qpt.metrics import DiscrepancyReport, process_distance_report
from qpt.process_tomography import run_process_tomography
from qpt.projection import project_to_physical, projection_report
from qpt.simulator import ExperimentConfig, preset_config, run_experiment, true_channel
from qpt.state_tomography import ExpectationRecord, reconstruct_state
from qpt.states import bloch_from_density, density_from_bloch


@contextmanager
def criterion(number: int, title: str, budget: float | None = None):
    """Record one summary line for the criterion; enforce its time budget."""
    started = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - started
        if budget is not None:
            assert elapsed < budget, (
                f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s budget"
            )
    except BaseException:
        record_acceptance(f"FAIL criterion {number}: {title}")
        raise
    record_acceptance(f"PASS criterion {number}: {title} [{elapsed:.2f}s]")


def check_report_inequalities(p1, p2, p_inf, fro, d_pro, label, tol=1e-10):
    assert abs(p1 - p_inf) <= tol, f"{label}: p1 {p1} != p_inf {p_inf}"
    assert p2 <= fro + tol, f"{label}: p2 {p2} > frobenius {fro}"
    assert fro <= 2.0 * d_pro + tol, f"{label}: frobenius {fro} > 2*D_pro {2 * d_pro}"


def test_criterion_1_exact_end_to_end_recovery():
    cases = {
        "identity": standard_channel("identity"),
        "x-gate": standard_channel("unitary_rotation", axis="x", angle=np.pi),
        "dephasing(1/2)": standard_channel("dephasing", factor=0.5),
        "amplitude-damping(0.3)": standard_channel("amplitude_damping", gamma=0.3),
        "depolarizing(0.5)": standard_channel("depolarizing", p=0.5),
    }
    config = ExperimentConfig(t2=100.0)
    with criterion(
        1, "exact simulate+reconstruct recovers five channels to 1e-7", budget=1.0
    ):
        for label, chi in cases.items():
            estimate = run_process_tomography(run_experiment(config, channel=chi))
            error = float(np.linalg.norm(estimate.chi - chi))
            assert error < 1e-7, f"{label}: Frobenius error {error:.3e}"


def test_criterion_2_preset_protocol_reproduction():
    expected = {
        "paper-20ns": np.exp(-0.2),
        "paper-40ns": np.exp(-0.4),
        "paper-80ns": np.exp(-0.8),
    }
    with criterion(
        2, "presets give projected affine diag(c, c, 1) to 1e-6", budget=5.0
    ):
        transverse = []
        for name, c in expected.items():
            config = preset_config(name)
            estimate = run_process_tomography(run_experiment(config))
            projected = project_to_physical(estimate.chi)
            affine = affine_from_chi(projected.chi_tilde)
            target = np.diag([c, c, 1.0])
            assert np.abs(affine.matrix - target).max() < 1e-6, name
            assert np.abs(affine.translation).max() < 1e-6, name
            # The rendered ellipsoid collapses toward the z axis: the long
            # axis stays at 1 while both transverse axes shrink with time.
            metadata = mesh_metadata(affine, ellipsoid_mesh(affine, subdivisions=1))
            lengths = metadata["axis_lengths"]
            assert abs(lengths[0] - 1.0) < 1e-6, name
            assert abs(lengths[1] - c) < 1e-6 and abs(lengths[2] - c) < 1e-6, name
            transverse.append(lengths[1])
        assert transverse[0] > transverse[1] > transverse[2]


def test_criterion_3_noisy_runs_restored_to_physical():
    with criterion(
        3, "projection restores CP+TP on 50 noisy runs, distance bounded", budget=60.0
    ):
        for seed in range(50):
            config = preset_config("paper-20ns", shots=1000, seed=seed)
            truth = true_channel(config)
            estimate = run_process_tomography(run_experiment(config))
            assert not (estimate.cp_flag and estimate.tp_flag), (
                f"seed {seed}: raw estimate is already physical"
            )
            result = project_to_physical(estimate.chi)
            cp_ok, _ = is_completely_positive(result.chi_tilde)
            tp_ok, _ = is_trace_preserving(result.chi_tilde)
            assert cp_ok and tp_ok, f"seed {seed}: projection is not physical"
            raw_error = float(np.linalg.norm(estimate.chi - truth))
            assert result.distance <= raw_error + 0.05, (
                f"seed {seed}: distance {result.distance:.4f} vs raw error "
                f"{raw_error:.4f}"
            )


def test_criterion_4_discrepancy_report_structure():
    # Reference rows (p1, p2, fro, d_pro) for the three bundled intervals,
    # published for the experiment the presets mirror.  p1 = p_inf for the
    # Hermitian differences, so only one induced norm is listed.
    reference_rows = {
        "20ns": (0.101, 0.050, 0.066, 0.056),
        "40ns": (0.110, 0.059, 0.075, 0.062),
        "80ns": (0.175, 0.075, 0.110, 0.096),
    }
    with criterion(4, "every discrepancy report obeys the norm inequalities"):
        reports: list[DiscrepancyReport] = []
        for name in ("paper-20ns", "paper-40ns", "paper-80ns"):
            config = preset_config(name, shots=1000, seed=0)
            estimate = run_process_tomography(run_experiment(config))
            result = project_to_physical(estimate.chi)
            reports.append(projection_report(estimate.chi, result))
            comparison = process_distance_report(
                estimate.chi, result.chi_tilde, context=("raw", "projected")
            )
            reports.append(comparison.norms)
        rng = np.random.default_rng(20260404)
        for _ in range(20):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            reports.append(
                DiscrepancyReport.from_difference(
                    (g + g.conj().T) / 8.0, context=("a", "b")
                )
            )
        for report in reports:
            check_report_inequalities(
                report.p1_norm,
                report.p2_norm,
                report.p_inf_norm,
                report.frobenius_norm,
                report.trace_distance_pro,
                label=str(report.context),
            )
        # The published rows respect the same ordering (p1 equals p_inf by
        # construction there, so only the spectral/Frobenius/D_pro chain
        # is checkable).
        for label, (_, p2, fro, d_pro) in reference_rows.items():
            assert p2 <= fro + 1e-10, label
            assert fro <= 2.0 * d_pro + 1e-10, label


def test_criterion_5_metric_identities():
    from qpt.metrics import bures_metric, c_metric, fidelity, trace_distance

    with criterion(5, "metric identities hold on 500 random state pairs"):
        rng = np.random.default_rng(20260505)
        for _ in range(500):
            a = random_density_matrix(rng)
            b = random_density_matrix(rng)
            assert abs(fidelity(a, a) - 1.0) < 1e-9
            assert abs(trace_distance(a, a)) < 1e-9
            f = fidelity(a, b)
            d = trace_distance(a, b)
            root = np.sqrt(f)
            assert 1.0 - root <= d + 1e-9
            assert d <= np.sqrt(1.0 - f) + 1e-9
            assert abs(bures_metric(a, b) ** 2 - (2.0 - 2.0 * root)) < 1e-9
            assert abs(c_metric(a, b) ** 2 - (1.0 - f)) < 1e-9


def test_criterion_6_shot_noise_scaling():
    with criterion(
        6, "raw-chi error falls by 2.0-4.5x per 10x shots", budget=120.0
    ):
        truth = true_channel(preset_config("paper-20ns"))
        medians = []
        for shots in (100, 1000, 10000, 100000):
            errors = []
            for seed in range(20):
                config = preset_config("paper-20ns", shots=shots, seed=seed)
                estimate = run_process_tomography(run_experiment(config))
                errors.append(float(np.linalg.norm(estimate.chi - truth)))
            medians.append(float(np.median(errors)))
        for coarse, fine in zip(medians, medians[1:]):
            ratio = coarse / fine
            assert 2.0 <= ratio <= 4.5, f"medians {medians}, ratio {ratio:.2f}"


def test_criterion_7_representation_coherence():
    with criterion(
        7, "200 random CPTP channels pass all representation invariants", budget=10.0
    ):
        rng = np.random.default_rng(20260707)
        for _ in range(200):
            kraus = random_kraus_set(rng, count=int(rng.integers(1, 5)))
            chi = chi_from_kraus(kraus)
            assert np.linalg.norm(chi_from_kraus(kraus_from_chi(chi)) - chi) < 1e-8
            assert np.linalg.norm(chi_from_choi(choi_from_chi(chi)) - chi) < 1e-8
            assert np.linalg.norm(chi_from_affine(affine_from_chi(chi)) - chi) < 1e-8
            assert (
                np.linalg.norm(partial_trace_output(choi_from_chi(chi)) - np.eye(2) / 2)
                < 1e-8
            )
            rho = random_density_matrix(rng)
            out_chi = apply_chi(chi, rho)
            out_kraus = apply_kraus(kraus_from_chi(chi), rho)
            assert np.linalg.norm(out_chi - out_kraus) < 1e-9
            affine = affine_from_chi(chi)
            out_affine = density_from_bloch(apply_affine(affine, bloch_from_density(rho)))
            assert np.linalg.norm(out_chi - out_affine) < 1e-9
            assert np.linalg.norm(bloch_from_density(out_chi)) <= 1.0 + 1e-8


def test_criterion_8_oracle_agreements():
    with criterion(
        8, "state estimate and projection agree with grid and family-sweep oracles"
    ):
        # Inconsistent-data case: all three axes measured, requested vector
        # of length 0.8*sqrt(2) > 1.  The grid oracle and the closed form
        # must land on the same boundary point near (0.7071, 0, 0.7071).
        records = [
            ExpectationRecord(axis="x", value=0.8),
            ExpectationRecord(axis="y", value=0.0),
            ExpectationRecord(axis="z", value=0.8),
        ]
        grid_best = exhaustive_ball_minimum(np.array([0.8, 0.0, 0.8]))
        closed_form = reconstruct_state(records).bloch
        assert np.linalg.norm(closed_form - grid_best) <= 0.01
        assert np.linalg.norm(grid_best - np.array([0.7071, 0.0, 0.7071])) <= 0.01

        # Projection oracles: each target's 1-parameter physical family
        # gives an upper bound the solver must beat or match.
        expanded = chi_from_affine(
            AffineMap(np.diag([1.2, 1.2, 1.0]), np.zeros(3))
        )
        family = [
            float(
                np.linalg.norm(
                    expanded
                    - chi_from_affine(AffineMap(np.diag([s, s, 1.0]), np.zeros(3)))
                )
            )
            for s in np.arange(0.0, 1.0 + 5e-4, 0.001)
        ]
        result = project_to_physical(expanded)
        assert result.distance <= min(family) + 1e-6

        transpose = chi_from_affine(AffineMap(np.diag([1.0, -1.0, 1.0]), np.zeros(3)))
        depolarized = [
            float(np.linalg.norm(transpose - standard_channel("depolarizing", p=p)))
            for p in np.arange(0.0, 1.0 + 5e-4, 0.001)
        ]
        result = project_to_physical(transpose)
        assert result.distance <= min(depolarized) + 1e-6
        # Known optimum for the transpose map.
        assert abs(result.distance - np.sqrt(1.0 / 3.0)) < 1e-4
