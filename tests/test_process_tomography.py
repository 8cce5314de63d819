"""Linear-inversion process reconstruction."""

import math
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    hermiticity_defect,
    is_valid_density_matrix,
    loop_chi_from_lambda,
    loop_expand_in_state_basis,
    loop_lambda_from_outputs,
    loop_run_process_tomography,
    random_cptp_chi,
    random_density_matrix,
)
from qpt import channels as ch
from qpt import simulator, states
from qpt.process_tomography import (
    INPUT_STATE_LABELS,
    ProcessEstimate,
    _chi_rows,
    _reconstruction_map,
    chi_from_lambda,
    input_basis,
    lambda_from_outputs,
    run_process_tomography,
)
from qpt.simulator import (
    PRESETS,
    ExperimentConfig,
    prepare_input,
    preset_config,
    run_experiment,
    true_channel,
)
from qpt.errors import _BOUND
from qpt.state_tomography import AXES, ExpectationRecord, bloch_target

IDENTITY_CHI = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


def exact_records(chi):
    """Noise-free expectation records for the four canonical inputs."""
    sets = []
    for rho in input_basis():
        out = ch.apply_chi(chi, rho)
        sets.append(
            [
                ExpectationRecord(axis, float(np.trace(sigma @ out).real))
                for axis, sigma in zip(AXES, states.PAULIS[1:])
            ]
        )
    return sets


class TestInputBasis:
    def test_states_and_order(self):
        basis = input_basis()
        assert len(basis) == 4
        expected_bloch = [(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0)]
        for rho, bloch in zip(basis, expected_bloch):
            assert is_valid_density_matrix(rho)
            np.testing.assert_allclose(states.bloch_from_density(rho), bloch, atol=1e-15)

    def test_read_only(self):
        with pytest.raises(ValueError):
            input_basis()[0][0, 0] = 5.0

    def test_is_the_simulated_perfect_preparation(self):
        # Bit for bit, so exact records of a perfect preparation are
        # inverted over the very inputs that were simulated.
        config = ExperimentConfig(t2=100.0)
        assert np.array_equal(input_basis(), [prepare_input(config, k) for k in range(1, 5)])

    def test_labels_align(self):
        assert len(INPUT_STATE_LABELS) == 4
        assert INPUT_STATE_LABELS[0] == "|0><0|"


class TestExpansion:
    """The expansion over the input basis that the loop oracles build on."""

    def test_round_trip(self, rng):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        coeffs = loop_expand_in_state_basis(m)
        rebuilt = sum(c * rho for c, rho in zip(coeffs, input_basis()))
        np.testing.assert_allclose(rebuilt, m, atol=1e-12)

    def test_basis_state_is_unit_vector(self):
        for k, rho in enumerate(input_basis()):
            coeffs = loop_expand_in_state_basis(rho)
            np.testing.assert_allclose(coeffs, np.eye(4)[k], atol=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            loop_expand_in_state_basis(np.eye(3))

    def test_rejects_rank_deficient_basis(self):
        degenerate = [input_basis()[0]] * 4
        with pytest.raises(ValueError, match="rank deficient"):
            loop_expand_in_state_basis(np.eye(2), rho_basis=degenerate)


class TestLambda:
    def test_identity_outputs(self):
        lam = lambda_from_outputs(list(input_basis()))
        np.testing.assert_allclose(lam, np.eye(4), atol=1e-12)

    def test_validates_count(self):
        with pytest.raises(ValueError, match="4 output states"):
            lambda_from_outputs(list(input_basis())[:3])

    def test_validates_entries(self):
        outputs = [np.array(m, copy=True) for m in input_basis()]
        outputs[1] = np.array([[0.5, 0.3], [0.1, 0.5]])  # not Hermitian
        with pytest.raises(ValueError, match="output 1"):
            lambda_from_outputs(outputs)
        outputs[1] = np.eye(2)  # trace 2
        with pytest.raises(ValueError, match="trace"):
            lambda_from_outputs(outputs)

    def test_hermiticity_bound_is_the_shared_tolerance(self):
        outputs = [np.array(m, copy=True) for m in input_basis()]
        # A Hermiticity defect of 1e-7: ten times HERMITICITY_TOL.
        outputs[2][0, 1] += math.sqrt(2.0) * 1e-7
        assert hermiticity_defect(outputs[2]) == pytest.approx(1e-7)
        with pytest.raises(ValueError, match=r"^output 2: not Hermitian \(defect 1\.000e-07\)$"):
            lambda_from_outputs(outputs)


class TestChiFromLambda:
    def test_identity(self):
        chi, anti = chi_from_lambda(np.eye(4))
        np.testing.assert_allclose(chi, IDENTITY_CHI, atol=1e-12)
        assert anti == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_random_channels(self, rng):
        for _ in range(25):
            chi = random_cptp_chi(rng)
            outputs = [ch.apply_chi(chi, rho) for rho in input_basis()]
            recovered, anti = chi_from_lambda(lambda_from_outputs(outputs))
            np.testing.assert_allclose(recovered, chi, atol=1e-10)
            assert anti < 1e-10

    def test_output_is_hermitian(self, rng):
        lam = rng.standard_normal((4, 4))
        chi, anti = chi_from_lambda(lam)
        assert hermiticity_defect(chi) < 1e-14
        assert anti >= 0.0

    def test_shape_check(self):
        with pytest.raises(ValueError, match="4x4"):
            chi_from_lambda(np.eye(3))

    def test_matches_beta_oracle(self):
        seeds = np.random.default_rng(7)
        bases = [None] + [
            simulator._inputs(
                float(seeds.uniform(0.6, 1.0)), float(seeds.uniform(-0.3, 0.3))
            )[0]
            for _ in range(3)
        ]
        for rho_basis in bases:
            for _ in range(25):
                lam = seeds.standard_normal((4, 4))
                chi, anti = chi_from_lambda(lam, rho_basis)
                expected, expected_anti = loop_chi_from_lambda(lam, rho_basis)
                np.testing.assert_allclose(chi, expected, rtol=0, atol=1e-12)
                assert anti == pytest.approx(expected_anti, abs=1e-12)

    def test_rejects_rank_deficient_basis(self):
        with pytest.raises(ValueError, match="rank deficient"):
            chi_from_lambda(np.eye(4), [input_basis()[0]] * 4)


class TestAffineFromImages:
    """``ProcessEstimate.affine`` is the Bloch action of the estimated chi."""

    def test_identity_process(self):
        affine = run_process_tomography(exact_records(IDENTITY_CHI)).affine
        np.testing.assert_allclose(affine.matrix, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(affine.translation, np.zeros(3), atol=1e-12)

    def test_matches_chi_route(self, rng):
        # Independent oracle: the map is affine, so the image of I/2 is the
        # mean of the pole images, and each axis input's image minus that
        # translation is a column.  Noise pushes some records out of the
        # ball, and the images are the measured values all the same.
        for _ in range(20):
            sets = []
            for records in exact_records(random_cptp_chi(rng)):
                scale = 1.6 if rng.random() < 0.5 else 1.0
                sets.append(
                    [
                        ExpectationRecord(r.axis, scale * r.value + rng.normal(0, 0.2))
                        for r in records
                    ]
                )
            estimate = run_process_tomography(sets)
            b0, b1, b2, b3 = (np.array(bloch_target(records)[0]) for records in sets)
            translation = (b0 + b1) / 2.0
            matrix = np.stack([b2 - translation, b3 - translation, b0 - translation], axis=1)
            np.testing.assert_allclose(estimate.affine.matrix, matrix, atol=1e-10)
            np.testing.assert_allclose(estimate.affine.translation, translation, atol=1e-10)
            via_chi = ch.affine_from_chi(estimate.chi)
            np.testing.assert_array_equal(estimate.affine.matrix, via_chi.matrix)
            np.testing.assert_array_equal(estimate.affine.translation, via_chi.translation)

    def test_amplitude_damping_translation(self):
        chi = ch.standard_channel("amplitude_damping", gamma=0.4)
        affine = run_process_tomography(exact_records(chi)).affine
        root = math.sqrt(0.6)
        np.testing.assert_allclose(affine.matrix, np.diag([root, root, 0.6]), atol=1e-12)
        np.testing.assert_allclose(affine.translation, [0.0, 0.0, 0.4], atol=1e-12)


class TestRunProcessTomography:
    def test_stores_only_what_reconstruction_computes(self):
        assert [f.name for f in fields(ProcessEstimate)] == ["chi"]

    def test_derived_values_follow_chi(self):
        estimate = run_process_tomography(exact_records(IDENTITY_CHI))
        # Neither CP nor TP, with a nonzero translation.
        other = np.diag([0.6, 0.2, 0.1, -0.1]).astype(complex)
        other[0, 3] = other[3, 0] = 0.05
        swapped = replace(estimate, chi=other)
        affine = ch.affine_from_chi(other)
        np.testing.assert_array_equal(swapped.affine.matrix, affine.matrix)
        np.testing.assert_array_equal(swapped.affine.translation, affine.translation)
        cp_flag, cp_min = ch.is_completely_positive(other)
        tp_flag, tp_deficit = ch.is_trace_preserving(other)
        assert (swapped.cp_min_eigenvalue, swapped.tp_deficit) == (cp_min, tp_deficit)
        assert (swapped.cp_flag, swapped.tp_flag) == (cp_flag, tp_flag) == (False, False)
        assert estimate.physical and not swapped.physical

    def test_identity_channel(self):
        estimate = run_process_tomography(exact_records(IDENTITY_CHI))
        assert isinstance(estimate, ProcessEstimate)
        np.testing.assert_allclose(estimate.chi, IDENTITY_CHI, atol=1e-12)
        assert estimate.cp_flag and estimate.tp_flag and estimate.physical

    def test_dephasing_channel(self):
        chi = ch.standard_channel("dephasing", factor=0.5)
        estimate = run_process_tomography(exact_records(chi))
        np.testing.assert_allclose(estimate.chi, chi, atol=1e-12)
        np.testing.assert_allclose(estimate.affine.matrix, np.diag([0.5, 0.5, 1.0]), atol=1e-12)
        np.testing.assert_allclose(estimate.affine.translation, np.zeros(3), atol=1e-12)

    def test_depolarizing_channel(self):
        chi = ch.standard_channel("depolarizing", p=0.6)
        estimate = run_process_tomography(exact_records(chi))
        np.testing.assert_allclose(estimate.chi, chi, atol=1e-12)
        np.testing.assert_allclose(estimate.affine.matrix, 0.4 * np.eye(3), atol=1e-12)

    def test_random_channels_recovered(self, rng):
        for _ in range(15):
            chi = random_cptp_chi(rng)
            estimate = run_process_tomography(exact_records(chi))
            np.testing.assert_allclose(estimate.chi, chi, atol=1e-9)
            assert estimate.physical
            assert estimate.cp_min_eigenvalue > -1e-9
            assert estimate.tp_deficit < 1e-8

    def test_accepts_record_carrier_objects(self):
        sets = [SimpleNamespace(records=r) for r in exact_records(IDENTITY_CHI)]
        estimate = run_process_tomography(sets)
        np.testing.assert_allclose(estimate.chi, IDENTITY_CHI, atol=1e-12)

    def test_inconsistent_records_flagged_not_fatal(self):
        sets = exact_records(IDENTITY_CHI)
        sets[1] = [
            ExpectationRecord("x", 0.9),
            ExpectationRecord("y", 0.9),
            ExpectationRecord("z", -0.9),
        ]
        # Output 1 lies outside the Bloch ball, so the estimate is not CP.
        estimate = run_process_tomography(sets)
        assert estimate.tp_flag and not estimate.cp_flag
        assert estimate.cp_min_eigenvalue < -0.3

    def test_error_tagged_with_input_index(self):
        sets = exact_records(IDENTITY_CHI)
        sets[2] = [ExpectationRecord("x", 0.1), ExpectationRecord("x", 0.2)]
        with pytest.raises(ValueError, match=r"input state 2 \(\|\+><\+\|\): duplicate"):
            run_process_tomography(sets)

    def test_type_error_tagged_too(self):
        sets = exact_records(IDENTITY_CHI)
        sets[3] = [("z", 0.5)]
        with pytest.raises(TypeError, match="input state 3"):
            run_process_tomography(sets)

    def test_entries_must_sit_in_their_input_slot(self):
        records = run_experiment(ExperimentConfig(t2=100.0, decoherence_time=20.0))
        records[2], records[3] = records[3], records[2]
        with pytest.raises(ValueError, match="record set 2 is for input_index 4"):
            run_process_tomography(records)

    def test_wrong_set_count(self):
        with pytest.raises(ValueError, match="4 input states"):
            run_process_tomography(exact_records(IDENTITY_CHI)[:2])


class TestDeclaredPreparation:
    """Records that carry a non-ideal config are read against its inputs."""

    @pytest.mark.parametrize(
        "polarization, pulse_error",
        [(0.6, 0.0), (0.95, 0.0), (1.0, -0.1), (1.0, 0.05), (1.0, 0.2), (0.8, 0.1)],
    )
    @pytest.mark.parametrize("t1", [math.inf, 150.0])
    def test_exact_records_recover_the_channel(self, polarization, pulse_error, t1):
        config = ExperimentConfig(
            t2=100.0, t1=t1, decoherence_time=40.0,
            polarization=polarization, pulse_error=pulse_error,
        )
        estimate = run_process_tomography(run_experiment(config))
        assert np.linalg.norm(estimate.chi - true_channel(config)) < 1e-13
        assert estimate.physical
        # Cross-check with the lambda route over the same declared inputs.
        basis = [prepare_input(config, i) for i in range(1, 5)]
        outputs = [ch.apply_chi(true_channel(config), rho) for rho in basis]
        np.testing.assert_allclose(
            estimate.chi,
            chi_from_lambda(lambda_from_outputs(outputs, basis), basis)[0],
            rtol=0, atol=1e-14,
        )

    @pytest.mark.parametrize("pulse_error", [0.0, 0.05, -0.2])
    @pytest.mark.parametrize("t1", [math.inf, 80.0])
    def test_nearly_mixed_preparation_recovers_the_channel(self, pulse_error, t1):
        # At polarization 0.51 the inputs sit 0.02 from the maximally mixed
        # state, so the basis inverse has entries near 50 and amplifies
        # any round-off of the inversion itself.
        for t in np.linspace(0.0, 300.0, 61):
            config = ExperimentConfig(
                t2=100.0, t1=t1, decoherence_time=float(t),
                polarization=0.51, pulse_error=pulse_error,
            )
            estimate = run_process_tomography(run_experiment(config))
            assert np.linalg.norm(estimate.chi - true_channel(config)) <= 5e-14

    @pytest.mark.parametrize("shots", [10, 100, 1000])
    def test_noisy_records_give_hermitian_tp_chi(self, shots):
        # Fitted outputs are Hermitian with trace 1, so the transfer matrix
        # is real: chi is Hermitian exactly and its TP deficit is round-off.
        for seed in range(40):
            config = ExperimentConfig(
                t2=100.0, t1=(math.inf, 80.0)[seed % 2],
                decoherence_time=(20.0, 40.0, 80.0)[seed % 3], shots=shots,
                seed=seed, polarization=0.6, pulse_error=-0.3,
            )
            estimate = run_process_tomography(run_experiment(config))
            assert np.array_equal(estimate.chi, estimate.chi.conj().T)
            assert estimate.tp_deficit <= 2e-14

    @pytest.mark.parametrize("polarization, pulse_error", [(0.7, -0.1), (0.9, 0.2)])
    def test_exact_records_leave_no_anti_hermitian_part(self, polarization, pulse_error):
        # The basis inverse is taken of the real coordinates the simulator
        # multiplies, so the fitted transfer matrix has no imaginary part.
        config = ExperimentConfig(
            t2=100.0, decoherence_time=40.0,
            polarization=polarization, pulse_error=pulse_error,
        )
        chi = run_process_tomography(run_experiment(config)).chi
        assert np.array_equal(chi, chi.conj().T)

    def test_random_channel_override(self, rng):
        config = ExperimentConfig(t2=100.0, polarization=0.85, pulse_error=-0.05)
        for _ in range(10):
            chi = random_cptp_chi(rng)
            estimate = run_process_tomography(run_experiment(config, channel=chi))
            np.testing.assert_allclose(estimate.chi, chi, atol=1e-12)

    def test_ideal_config_keeps_the_canonical_basis(self):
        config = ExperimentConfig(t2=100.0, decoherence_time=20.0, shots=500, seed=2)
        results = run_experiment(config)
        declared = run_process_tomography(results)
        plain = run_process_tomography([list(r.records) for r in results])
        np.testing.assert_array_equal(declared.chi, plain.chi)

    def test_configs_sharing_a_preparation_share_one_cache_entry(self):
        # Only (polarization, pulse_error) selects the inputs: reconstructing
        # under every other setting, and mixing record sets of such configs,
        # fills one entry of the reconstruction map cache, which only
        # reconstruction reads.  A run that repeats a physical setting (the
        # last two, which differ only in shots and seed) reads its outcomes
        # cache.
        base = ExperimentConfig(t2=100.0, polarization=0.8125, pulse_error=0.0375)
        configs = [
            base,
            replace(base, t2=60.0),
            replace(base, decoherence_time=30.0),
            replace(base, shots=400),
            replace(base, shots=400, seed=9),
        ]
        before = _reconstruction_map.cache_info()
        outcomes_before = simulator._outcomes.cache_info()
        runs = [run_experiment(config) for config in configs]
        for records in runs:
            run_process_tomography(records)
        mixed = run_process_tomography([run[j] for j, run in enumerate(runs[1:])])
        after = _reconstruction_map.cache_info()
        outcomes_after = simulator._outcomes.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 5
        assert outcomes_after.misses - outcomes_before.misses == 3
        assert outcomes_after.hits - outcomes_before.hits == 2
        assert np.all(np.isfinite(mixed.chi))

    def test_different_preparations_rejected(self):
        a = run_experiment(ExperimentConfig(t2=100.0, polarization=0.9))
        b = run_experiment(ExperimentConfig(t2=100.0, pulse_error=0.1))
        with pytest.raises(ValueError, match="different preparations"):
            run_process_tomography(a[:2] + b[2:])
        with pytest.raises(ValueError, match="different preparations"):
            run_process_tomography(a[:3] + [list(a[3].records)])

    @pytest.mark.parametrize(
        "polarization, pulse_error", [(0.5, 0.0), (1.0, -1.0), (1.0, 1.0)]
    )
    def test_non_spanning_preparation_rejected(self, polarization, pulse_error):
        config = ExperimentConfig(
            t2=100.0, polarization=polarization, pulse_error=pulse_error
        )
        before = _reconstruction_map.cache_info()
        with pytest.raises(ValueError, match="declared preparation.*does not span"):
            run_process_tomography(run_experiment(config))
        with pytest.raises(ValueError, match="declared preparation.*does not span"):
            _reconstruction_map(polarization, pulse_error)
        after = _reconstruction_map.cache_info()
        assert (after.currsize, after.misses - before.misses) == (before.currsize, 2)

    @pytest.mark.parametrize(
        "polarization, pulse_error",
        [(1.0, 0.0), (0.95, 0.0), (1.0, 0.05), (0.6, 0.0), (1.0, -0.1), (0.8, 0.1),
         (0.51, -0.2), (0.7, 0.9)],
    )
    def test_map_rows_of_transposed_entries_are_conjugate(self, polarization, pulse_error):
        # vec(chi) = M @ (1, v) with v real, so chi is Hermitian bit for bit
        # exactly when the row of chi[n, m] is the conjugate of chi[m, n]'s.
        rows = _reconstruction_map(polarization, pulse_error).reshape(4, 4, 13)
        assert np.array_equal(rows, rows.transpose(1, 0, 2).conj())

    def test_ideal_map_moves_chi_equally_for_every_expectation(self):
        # Column 0 of M is the constant term; each of the other twelve is
        # the change of chi per unit of one expectation.
        reconstruction = _reconstruction_map(1.0, 0.0)
        np.testing.assert_allclose(
            np.linalg.norm(reconstruction[:, 1:], axis=0), 0.5, rtol=0, atol=1e-15
        )


class TestLinearInversion:
    """The raw estimate is linear in the measured expectations, so it is
    unbiased under binomial sampling."""

    def test_mean_of_sampled_estimates_is_the_truth(self):
        # On paper-20ns the outputs of |0> and |1> are pure, so shot noise
        # puts them outside the Bloch ball in almost every run.  5000 runs
        # at 100 shots resolve a bias of a few 1e-3 by several standard
        # errors; a zero-spread entry must match to round-off.
        truth = true_channel(preset_config("paper-20ns"))
        runs = 5000
        chis = np.array([
            run_process_tomography(
                run_experiment(preset_config("paper-20ns", shots=100, seed=seed))
            ).chi
            for seed in range(runs)
        ])
        for part in (np.real, np.imag):
            values = part(chis)
            error = np.abs(values.mean(axis=0) - part(truth))
            bound = 4.0 * values.std(axis=0, ddof=1) / math.sqrt(runs) + 1e-12
            assert np.all(error <= bound), (error, bound)

    def test_estimate_of_a_mix_is_the_mix_of_estimates(self):
        inside = exact_records(ch.standard_channel("dephasing", factor=0.5))
        outside = exact_records(IDENTITY_CHI)
        outside[1] = [ExpectationRecord(axis, 0.9) for axis in AXES]
        assert math.hypot(*bloch_target(outside[1])[0]) > 1.0
        weight = 0.3
        mixed = [
            [
                ExpectationRecord(a.axis, weight * a.value + (1 - weight) * b.value)
                for a, b in zip(first, second)
            ]
            for first, second in zip(inside, outside)
        ]
        np.testing.assert_allclose(
            run_process_tomography(mixed).chi,
            weight * run_process_tomography(inside).chi
            + (1 - weight) * run_process_tomography(outside).chi,
            rtol=0, atol=1e-14,
        )


def assert_estimates_match(new, old, sets):
    """Every ProcessEstimate field within round-off of the loop oracle.

    The tolerance is absolute, scaled by the largest measured value, since
    the estimate is linear in the records.
    """
    scale = max([1.0] + [abs(r.value) for s in sets for r in getattr(s, "records", s)])
    atol = 1e-14 * scale
    np.testing.assert_allclose(new.chi, old.chi, rtol=0, atol=atol)
    np.testing.assert_allclose(new.affine.matrix, old.affine.matrix, rtol=0, atol=atol)
    np.testing.assert_allclose(
        new.affine.translation, old.affine.translation, rtol=0, atol=atol
    )
    assert (new.cp_flag, new.tp_flag) == (old.cp_flag, old.tp_flag)
    assert new.cp_min_eigenvalue == pytest.approx(old.cp_min_eigenvalue, rel=0, abs=atol)
    # tp_deficit is the Frobenius norm of this gap; its entries are
    # compared.
    np.testing.assert_allclose(trace_gap(new.chi), trace_gap(old.chi), rtol=0, atol=atol)


def trace_gap(chi):
    """``S - I`` with ``S = sum_mn chi[m, n] A_n^dag A_m``."""
    ops = np.stack(states.OPERATION_ELEMENTS)
    return np.einsum("mn,nba,mbc->ac", chi, ops.conj(), ops) - np.eye(2)


class TestChiRows:
    """Each chi row of the array inversion is bit-Hermitian, has bits that
    do not depend on the other rows, is the estimate
    ``run_process_tomography`` makes for its seed, and lies within
    round-off of the map's matrix product."""

    @pytest.mark.parametrize("shots", [100, 1000])
    @pytest.mark.parametrize("preparation", [(1.0, 0.0), (0.95, 0.0), (1.0, 0.05)])
    def test_rows_are_the_estimates(self, shots, preparation):
        polarization, pulse_error = preparation
        config = ExperimentConfig(
            t2=100.0, t1=150.0, decoherence_time=40.0, shots=shots,
            polarization=polarization, pulse_error=pulse_error,
        )
        values = simulator._expectations(config, range(1000))
        rows = _chi_rows(values, preparation)
        assert rows.shape == (1000, 4, 4) and rows.dtype == complex
        assert np.array_equal(rows, rows.conj().swapaxes(1, 2))
        reconstruction = _reconstruction_map(*preparation)
        for seed, (v, chi) in enumerate(zip(values, rows)):
            assert _chi_rows(v[np.newaxis], preparation).tobytes() == chi.tobytes()
            estimate = run_process_tomography(run_experiment(replace(config, seed=seed)))
            assert estimate.chi.tobytes() == chi.tobytes()
            product = (reconstruction @ np.concatenate(([1.0], v))).reshape(4, 4)
            atol = 1e-14 * max(1.0, np.abs(v).max())
            np.testing.assert_allclose(chi, product, rtol=0, atol=atol)
        # A subset in another order: the same rows.
        again = _chi_rows(values[::-3], preparation)
        assert again.tobytes() == rows[::-3].tobytes()

    def test_exact_rows(self):
        for name in sorted(PRESETS):
            config = PRESETS[name]
            rows = _chi_rows(simulator._expectations(config, range(3)), (1.0, 0.0))
            estimate = run_process_tomography(run_experiment(config))
            for chi in rows:
                assert chi.tobytes() == estimate.chi.tobytes()
            np.testing.assert_allclose(rows[0], true_channel(config), rtol=0, atol=1e-14)

class TestAgainstLoopOracle:
    """The batched fit and cached maps agree with the per-record loops."""

    @pytest.mark.parametrize("shots", [None, 1, 100, 1000, 10**5])
    def test_simulated_records(self, shots):
        for seed in range(8):
            config = ExperimentConfig(
                t2=100.0, t1=(math.inf, 150.0)[seed % 2],
                decoherence_time=(20.0, 40.0, 80.0)[seed % 3], shots=shots, seed=seed,
            )
            records = run_experiment(config)
            assert_estimates_match(
                run_process_tomography(records),
                loop_run_process_tomography(records),
                records,
            )

    def test_partial_and_out_of_ball_records(self, rng):
        for _ in range(200):
            sets = []
            for _ in range(4):
                axes = [a for a in AXES if rng.random() < 0.7] or ["z"]
                scale = rng.choice([0.3, 1.0, 1.8, 50.0])
                sets.append(
                    [ExpectationRecord(a, scale * rng.uniform(-1, 1)) for a in axes]
                )
            assert_estimates_match(
                run_process_tomography(sets), loop_run_process_tomography(sets), sets
            )

    def test_edge_values(self):
        # -1e300 is past the bound and refused; -2**256 is the edge.
        with pytest.raises(ValueError, match="^value must be finite and at most 2"):
            ExpectationRecord("x", -1e300)
        sets = [
            [ExpectationRecord("z", 0.0)],
            [ExpectationRecord("x", 1.0), ExpectationRecord("y", 0.0), ExpectationRecord("z", 0.0)],
            [ExpectationRecord("x", -_BOUND), ExpectationRecord("y", 1e-300)],
            [ExpectationRecord("y", 1.0 + 1e-16), ExpectationRecord("z", -0.0)],
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate = run_process_tomography(sets)
            assert math.isfinite(estimate.tp_deficit)
            assert_estimates_match(estimate, loop_run_process_tomography(sets), sets)

    def test_lambda_and_expansion(self, rng):
        for _ in range(20):
            outputs = [random_density_matrix(rng) for _ in range(4)]
            basis = [random_density_matrix(rng) for _ in range(4)]
            for rho_basis in (None, basis):
                np.testing.assert_allclose(
                    lambda_from_outputs(outputs, rho_basis),
                    loop_lambda_from_outputs(outputs, rho_basis),
                    rtol=1e-12, atol=1e-12,
                )

    def test_errors_match(self):
        # The transfer matrix would hold x2 - (x0 + x1) / 2 = 3.4e308, beyond
        # the float range, and the same in y: the records are refused.  At
        # the bound the transfer entries are 2**257, and both paths agree.
        for value in (-1.7e308, 1.7e308):
            with pytest.raises(ValueError, match="^value must be finite and at most 2"):
                ExpectationRecord("x", value)
        sets = [
            [ExpectationRecord("x", value), ExpectationRecord("y", value)]
            for value in (-_BOUND, -_BOUND, _BOUND, _BOUND)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_estimates_match(
                run_process_tomography(sets), loop_run_process_tomography(sets), sets
            )
        sets = exact_records(IDENTITY_CHI)
        sets[1] = []
        for reconstruct in (run_process_tomography, loop_run_process_tomography):
            with pytest.raises(ValueError, match="input state 1.*at least one"):
                reconstruct(sets)
