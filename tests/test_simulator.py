"""Simulated decoherence experiment: preparation, evolution, sampling."""

import copy
import dataclasses
import json
import math
import pickle
import sys
from dataclasses import replace
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    KET_0,
    KET_1,
    KET_PLUS,
    KET_PLUS_I,
    evolved_run_experiment,
    hermiticity_defect,
    loop_measure,
    loop_run_experiment,
    projector,
    random_cptp_chi,
)
from qpt import channels as ch
from qpt import io as qio
from qpt import simulator, states
from qpt.process_tomography import _reconstruction_map, input_basis, run_process_tomography
from qpt.state_tomography import ExpectationRecord
from qpt.simulator import (
    INPUT_COUNT,
    PRESETS,
    ExperimentConfig,
    MeasurementRecord,
    prepare_input,
    preset_config,
    run_experiment,
    true_channel,
)


def record_bits(results):
    """(input, axis, value bits, shots) of every record: ``-0.0`` differs from ``0.0``."""
    return [
        (result.input_index, r.axis, np.float64(r.value).tobytes(), r.shots)
        for result in results
        for r in result.records
    ]


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig(t2=100.0)
        assert math.isinf(config.t1)
        assert config.decoherence_time == 0.0
        assert config.polarization == 1.0
        assert config.shots is None
        assert config.seed == 0

    def test_coercions(self):
        config = ExperimentConfig(t2=50.0, shots=np.int64(100), seed=np.int64(3))
        assert isinstance(config.shots, int)
        assert isinstance(config.seed, int)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t2": 0.0},
            {"t2": -1.0},
            {"t2": math.inf},
            {"t2": 100.0, "t1": 0.0},
            {"t2": 100.0, "t1": -5.0},
            {"t2": 100.0, "decoherence_time": -1.0},
            {"t2": 100.0, "decoherence_time": math.inf},
            {"t2": 100.0, "polarization": 0.4},
            {"t2": 100.0, "polarization": 1.1},
            {"t2": 100.0, "shots": 0},
            {"t2": 100.0, "pulse_error": math.nan},
            {"t2": 100.0, "pulse_error": 1e308},
            {"t2": 100.0, "pulse_error": -1e308},
            {"t2": 100.0, "seed": 1.5},
            {"t2": 100.0, "seed": "3"},
            {"t2": 100.0, "seed": True},
            {"t2": 100.0, "shots": 100.7},
            {"t2": 100.0, "shots": True},
            {"t2": 100.0, "shots": "100"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value", [("seed", 1.5), ("seed", "3"), ("seed", True), ("seed", np.bool_(True)),
                         ("shots", 100.7), ("shots", 1.0), ("shots", True)],
    )
    def test_non_integral_counts_are_named_not_truncated(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ExperimentConfig(t2=100.0, **{field: value})


class TestPresets:
    def test_bundled_intervals(self):
        assert set(PRESETS) == {"paper-20ns", "paper-40ns", "paper-80ns"}
        for name, config in PRESETS.items():
            assert config.t2 == 100.0
            assert math.isinf(config.t1)
            assert config.shots is None
        assert PRESETS["paper-20ns"].decoherence_time == 20.0
        assert PRESETS["paper-40ns"].decoherence_time == 40.0
        assert PRESETS["paper-80ns"].decoherence_time == 80.0

    def test_overrides(self):
        config = preset_config("paper-40ns", shots=500, seed=9)
        assert config.shots == 500
        assert config.seed == 9
        assert config.decoherence_time == 40.0
        # The stored preset itself is untouched.
        assert PRESETS["paper-40ns"].shots is None

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("paper-30ns")


class TestPrepareInput:
    CONFIG = ExperimentConfig(t2=100.0)

    def test_four_canonical_states(self):
        expected = [
            projector(KET_0),
            projector(KET_1),
            projector(KET_PLUS),
            projector(KET_PLUS_I),
        ]
        for index, rho in enumerate(expected, start=1):
            np.testing.assert_allclose(
                prepare_input(self.CONFIG, index), rho, atol=1e-15
            )

    def test_partial_polarization_is_mixture(self):
        config = ExperimentConfig(t2=100.0, polarization=0.7)
        rho = prepare_input(config, 1)
        np.testing.assert_allclose(rho, np.diag([0.7, 0.3]), atol=1e-15)
        # The pulse rotates the mixture, shrinking the Bloch vector uniformly.
        plus = prepare_input(config, 3)
        np.testing.assert_allclose(
            states.bloch_from_density(plus), [0.4, 0.0, 0.0], atol=1e-15
        )

    def test_pulse_error_tilts_preparation(self):
        config = ExperimentConfig(t2=100.0, pulse_error=0.1)
        rho = prepare_input(config, 2)
        bloch = states.bloch_from_density(rho)
        # Overrotation by 10% of pi leaves the state short of the south pole.
        assert bloch[2] == pytest.approx(math.cos(1.1 * math.pi), abs=1e-12)
        ideal = prepare_input(ExperimentConfig(t2=100.0), 2)
        assert np.linalg.norm(rho - ideal) > 0.01

    @pytest.mark.parametrize(
        "polarization, pulse_error", [(1.0, 0.0), (0.7, 0.0), (0.9, -0.1), (1.0, 0.2)]
    )
    def test_prepared_stack_matches_and_is_read_only(self, polarization, pulse_error):
        config = ExperimentConfig(t2=100.0, polarization=polarization, pulse_error=pulse_error)
        stack = simulator._inputs(polarization, pulse_error)[0]
        assert stack.shape == (INPUT_COUNT, 2, 2)
        for index in range(1, INPUT_COUNT + 1):
            np.testing.assert_array_equal(stack[index - 1], prepare_input(config, index))
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 5.0
        copy = prepare_input(replace(config, t2=50.0, seed=9), 1)
        assert copy.flags.writeable and not np.shares_memory(copy, stack)

    @pytest.mark.parametrize(
        "polarization, pulse_error, spans",
        [(1.0, 0.0, True), (0.7, 0.1, True), (0.5, 0.0, False), (1.0, -1.0, False)],
    )
    def test_preparation_entry(self, polarization, pulse_error, spans):
        # The one per-preparation input entry, stack and real coordinates,
        # and the reconstruction map built from it, which raises when the
        # inputs do not span; all read-only.
        stack, coords = simulator._inputs(polarization, pulse_error)
        assert stack is simulator._inputs(polarization, pulse_error)[0]
        np.testing.assert_array_equal(coords, states._coords(stack).real)
        # The entry is what the uncached function builds anew.
        fresh_stack, fresh_coords = simulator._inputs.__wrapped__(polarization, pulse_error)
        assert fresh_stack.tobytes() == stack.tobytes()
        assert fresh_coords.tobytes() == coords.tobytes()
        reconstruction = None
        if not spans:
            with pytest.raises(ValueError, match="does not span"):
                _reconstruction_map(polarization, pulse_error)
        else:
            reconstruction = _reconstruction_map(polarization, pulse_error)
            config = ExperimentConfig(
                t2=100.0, polarization=polarization, pulse_error=pulse_error
            )
            records = run_experiment(config, channel=ch.standard_channel("identity"))
            data = [1.0] + [r.value for run in records for r in run.records]
            np.testing.assert_allclose(
                (reconstruction @ data).reshape(4, 4), ch.standard_channel("identity"),
                rtol=0, atol=1e-12,
            )
        for array in (stack, coords, reconstruction):
            assert array is None or not array.flags.writeable

    def test_bad_index(self):
        with pytest.raises(ValueError, match="input index"):
            prepare_input(self.CONFIG, 5)
        with pytest.raises(ValueError, match="input index"):
            prepare_input(self.CONFIG, 0)
        # A boolean or a float is not an input index, even when it equals one.
        for index in (True, 1.0):
            with pytest.raises(ValueError, match="^input index must be an integer"):
                prepare_input(self.CONFIG, index)
        np.testing.assert_array_equal(
            prepare_input(self.CONFIG, np.int64(2)), prepare_input(self.CONFIG, 2)
        )


class TestTrueChannel:
    def test_pure_dephasing(self):
        config = ExperimentConfig(t2=100.0, decoherence_time=20.0)
        chi = true_channel(config)
        f = math.exp(-0.2)
        np.testing.assert_allclose(
            chi, np.diag([(1 + f) / 2, 0.0, 0.0, (1 - f) / 2]), atol=1e-12
        )

    def test_with_amplitude_damping(self):
        config = ExperimentConfig(t2=100.0, t1=200.0, decoherence_time=20.0)
        chi = true_channel(config)
        affine = ch.affine_from_chi(chi)
        gamma = 1.0 - math.exp(-0.1)
        f = math.exp(-0.2)
        root = math.sqrt(1.0 - gamma)
        np.testing.assert_allclose(
            np.diag(affine.matrix), [f * root, f * root, 1.0 - gamma], atol=1e-12
        )
        np.testing.assert_allclose(affine.translation, [0.0, 0.0, gamma], atol=1e-12)

    def test_composition_order_immaterial(self):
        config = ExperimentConfig(t2=80.0, t1=150.0, decoherence_time=30.0)
        dephasing = ch.standard_channel("dephasing", t=30.0, t2=80.0)
        damping = ch.standard_channel("amplitude_damping", t=30.0, t1=150.0)
        np.testing.assert_allclose(
            true_channel(config), ch.compose_chi(damping, dephasing), atol=1e-12
        )

    def test_matches_composition_over_random_intervals(self, rng):
        # The closed affine form against the composed standard channels.
        for _ in range(50):
            t2, t1 = rng.uniform(10.0, 300.0, size=2)
            t = rng.uniform(0.0, 200.0)
            config = ExperimentConfig(t2=t2, t1=t1, decoherence_time=t)
            composed = ch.compose_chi(
                ch.standard_channel("dephasing", t=t, t2=t2),
                ch.standard_channel("amplitude_damping", t=t, t1=t1),
            )
            np.testing.assert_allclose(true_channel(config), composed, atol=1e-12)

    def test_zero_interval_is_identity(self):
        config = ExperimentConfig(t2=100.0, t1=50.0)
        np.testing.assert_allclose(
            true_channel(config), ch.standard_channel("identity"), atol=1e-12
        )

    def test_evolve_shrinks_coherence(self):
        # Input 3 is |+>, whose x expectation decays as exp(-t/t2).
        config = ExperimentConfig(t2=100.0, decoherence_time=20.0)
        values = [r.value for r in run_experiment(config)[2].records]
        assert values[0] == pytest.approx(math.exp(-0.2), abs=1e-12)
        assert values[1] == pytest.approx(0.0, abs=1e-12)
        assert values[2] == pytest.approx(0.0, abs=1e-12)


def replacement_channel(bloch):
    """The channel that maps every input to the state with this Bloch vector."""
    return ch.chi_from_affine(ch.AffineMap(np.zeros((3, 3)), np.asarray(bloch)))


class TestMeasure:
    """Sampling of the Pauli expectations, through ``run_experiment``."""

    def test_exact_expectations(self):
        config = ExperimentConfig(t2=100.0)
        results = run_experiment(config)
        by_axis = {r.axis: r.value for r in results[2].records}  # input 3: |+>
        assert by_axis["x"] == pytest.approx(1.0, abs=1e-12)
        assert by_axis["y"] == pytest.approx(0.0, abs=1e-12)
        assert by_axis["z"] == pytest.approx(0.0, abs=1e-12)
        assert all(r.shots is None for result in results for r in result.records)

    def test_sampled_values_are_valid_fractions(self):
        config = ExperimentConfig(t2=100.0, shots=100, seed=1)
        for result in run_experiment(config):
            for record in result.records:
                assert record.shots == 100
                assert -1.0 <= record.value <= 1.0
                # (2k - n) / n has resolution 2/n.
                assert (record.value * 100) % 2 == pytest.approx(0.0, abs=1e-9)

    def test_extreme_probability_never_flips(self):
        # Input 1 is |0>: <sigma_z> = 1 gives p = 1 exactly; every shot must
        # come up +1.
        config = ExperimentConfig(t2=100.0, shots=500, seed=11)
        by_axis = {r.axis: r.value for r in run_experiment(config)[0].records}
        assert by_axis["z"] == 1.0

    def test_reproducible_per_stream(self):
        config = ExperimentConfig(t2=100.0, shots=200, seed=42)
        channel = replacement_channel([0.3, -0.1, 0.4])
        first = run_experiment(config, channel=channel)
        second = run_experiment(config, channel=channel)
        assert record_bits(first) == record_bits(second)

    def test_streams_differ_by_input_and_seed(self):
        # Every input leaves in the same state, so only the stream differs.
        config = ExperimentConfig(t2=100.0, shots=200, seed=42)
        channel = replacement_channel([0.3, -0.1, 0.4])
        results = run_experiment(config, channel=channel)
        a = [r.value for r in results[0].records]
        b = [r.value for r in results[1].records]
        assert a != b
        other_seed = ExperimentConfig(t2=100.0, shots=200, seed=43)
        c = [r.value for r in run_experiment(other_seed, channel=channel)[0].records]
        assert a != c


class TestRunExperiment:
    def test_exact_run_reconstructs_true_channel(self):
        config = ExperimentConfig(t2=100.0, decoherence_time=20.0)
        estimate = run_process_tomography(run_experiment(config))
        np.testing.assert_allclose(estimate.chi, true_channel(config), atol=1e-12)

    def test_record_structure(self):
        config = ExperimentConfig(t2=100.0, shots=50, seed=5)
        results = run_experiment(config)
        assert len(results) == INPUT_COUNT
        for slot, record in enumerate(results, start=1):
            assert isinstance(record, MeasurementRecord)
            assert record.input_index == slot
            assert record.config == config
            assert tuple(r.axis for r in record.records) == ("x", "y", "z")

    def test_order_independence_of_streams(self):
        # Measuring input 3 alone gives the same values as inside a full run.
        config = ExperimentConfig(t2=100.0, shots=300, seed=8, decoherence_time=40.0)
        full = run_experiment(config)
        output = ch.apply_chi(true_channel(config), prepare_input(config, 3))
        alone = loop_measure(config, output, input_index=3)
        assert [np.float64(r.value).tobytes() for r in full[2].records] == [
            np.float64(r.value).tobytes() for r in alone
        ]

    def test_channel_override(self):
        config = ExperimentConfig(t2=100.0)
        flip = ch.standard_channel("unitary_rotation", axis="x", angle=math.pi)
        estimate = run_process_tomography(run_experiment(config, channel=flip))
        np.testing.assert_allclose(estimate.chi, flip, atol=1e-12)

    def test_channel_override_shape_check(self):
        with pytest.raises(ValueError, match="4x4"):
            run_experiment(ExperimentConfig(t2=100.0), channel=np.eye(2))

    def test_noisy_run_varies_with_seed(self):
        a = run_experiment(ExperimentConfig(t2=100.0, decoherence_time=20.0, shots=100, seed=0))
        b = run_experiment(ExperimentConfig(t2=100.0, decoherence_time=20.0, shots=100, seed=1))
        values_a = [r.value for rec in a for r in rec.records]
        values_b = [r.value for rec in b for r in rec.records]
        assert values_a != values_b

    def test_sampling_concentrates_with_shots(self):
        # Error in the x expectation of the decohered |+> state shrinks
        # roughly like 1/sqrt(shots); compare medians over 20 seeds.
        truth = math.exp(-0.2)
        medians = []
        for shots in (100, 10000):
            errors = []
            for seed in range(20):
                config = ExperimentConfig(
                    t2=100.0, decoherence_time=20.0, shots=shots, seed=seed
                )
                records = run_experiment(config)[2].records
                errors.append(abs(records[0].value - truth))
            medians.append(float(np.median(errors)))
        assert medians[1] < medians[0] / 3.0


class TestPolarizationImperfection:
    def test_reduced_polarization_scales_affine(self):
        # With polarization p the prepared Bloch vectors shrink by (2p - 1).
        # Records that carry their config are reconstructed over the
        # declared inputs and recover the identity; the same values as plain
        # record lists are read against the canonical inputs, which see the
        # shrink as the channel: affine matrix (2p - 1) I, no translation.
        config = ExperimentConfig(t2=100.0, polarization=0.7)
        results = run_experiment(config)
        declared = run_process_tomography(results)
        np.testing.assert_allclose(declared.affine.matrix, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(declared.affine.translation, np.zeros(3), atol=1e-12)
        plain = run_process_tomography([list(r.records) for r in results])
        np.testing.assert_allclose(plain.affine.matrix, 0.4 * np.eye(3), atol=1e-12)
        np.testing.assert_allclose(plain.affine.translation, np.zeros(3), atol=1e-12)


def preset_cases(preset, shots, t1):
    """Configs of a preset at the given shots and t1, over the oracle seeds."""
    for seed in (0, 1, 77, 2**64 - 1):
        config = preset_config(preset, shots=shots, seed=seed)
        yield ExperimentConfig(
            t2=config.t2, t1=t1, decoherence_time=config.decoherence_time,
            shots=shots, seed=seed,
        )


def override_cases(rng, shots):
    """(config, random CPTP channel) pairs, most with a non-ideal preparation."""
    for seed in range(6):
        config = ExperimentConfig(
            t2=100.0, shots=shots, seed=seed,
            polarization=(1.0, 0.8, 0.95)[seed % 3],
            pulse_error=(0.0, 0.05, -0.1)[seed % 3],
        )
        yield config, random_cptp_chi(rng)


class TestAgainstLoopOracle:
    """The whole-array run gives the per-record loop's records bit for bit."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("shots", [None, 1, 100, 1000, 10**5])
    @pytest.mark.parametrize("t1", [math.inf, 150.0])
    def test_run_experiment_records(self, preset, shots, t1):
        for config in preset_cases(preset, shots, t1):
            assert record_bits(run_experiment(config)) == record_bits(
                loop_run_experiment(config)
            )

    @pytest.mark.parametrize("shots", [None, 1, 100, 1000, 10**5])
    def test_channel_override_and_preparations(self, rng, shots):
        for config, chi in override_cases(rng, shots):
            assert record_bits(run_experiment(config, channel=chi)) == record_bits(
                loop_run_experiment(config, channel=chi)
            )

    def test_non_finite_channel_rejected(self):
        chi = np.eye(4, dtype=complex)
        chi[1, 1] = np.nan
        with pytest.raises(ValueError, match="^chi matrix: entries must be finite"):
            run_experiment(ExperimentConfig(t2=100.0), channel=chi)

    @staticmethod
    def skewed_identity(imaginary):
        """The identity's chi with ``imaginary * 1j`` at (0, 1) and (1, 0):
        an anti-Hermitian part of Frobenius norm ``sqrt(2) * imaginary``."""
        chi = np.zeros((4, 4), dtype=complex)
        chi[0, 0] = 1.0
        chi[0, 1] = chi[1, 0] = imaginary * 1j
        return chi

    def test_non_hermitian_channel_rejected(self):
        # The records can show only the Hermitian part, the identity, so the
        # estimate would miss this chi by 0.42 without a word.
        chi = self.skewed_identity(0.3)
        message = r"^channel: not Hermitian \(defect 4\.243e-01\)$"
        for shots in (None, 1000):
            with pytest.raises(ValueError, match=message):
                run_experiment(ExperimentConfig(t2=100.0, shots=shots), channel=chi)

    def test_channel_inside_hermiticity_tolerance_runs(self):
        chi = self.skewed_identity(0.5 * states.HERMITICITY_TOL)
        assert hermiticity_defect(chi) < states.HERMITICITY_TOL
        estimate = run_process_tomography(
            run_experiment(ExperimentConfig(t2=100.0), channel=chi)
        )
        np.testing.assert_allclose(estimate.chi, (chi + chi.conj().T) / 2, atol=1e-12)



def run_values(config, channel=None) -> bytes:
    """The bits of a run's twelve values, input-major in x, y, z order."""
    results = run_experiment(config, channel=channel)
    return np.array([r.value for result in results for r in result.records]).tobytes()


ROW_PREPARATIONS = [(1.0, 0.0), (0.95, 0.0), (1.0, 0.05)]


class TestExpectationRows:
    """Each row of the array draw is the values of ``run_experiment`` for
    its seed, bit for bit, whatever the other seeds are."""

    @pytest.mark.parametrize("shots", [100, 1000])
    @pytest.mark.parametrize("preparation", ROW_PREPARATIONS)
    def test_rows_are_the_runs_values(self, shots, preparation):
        polarization, pulse_error = preparation
        config = ExperimentConfig(
            t2=100.0, t1=150.0, decoherence_time=40.0, shots=shots,
            polarization=polarization, pulse_error=pulse_error,
        )
        rows = simulator._expectations(config, range(1000))
        assert rows.shape == (1000, 12) and rows.dtype == np.float64
        for seed, row in enumerate(rows):
            assert row.tobytes() == run_values(replace(config, seed=seed))
        # Fewer seeds, in another order: the same rows.
        again = simulator._expectations(config, range(999, -1, -7))
        assert again.tobytes() == rows[999::-7].tobytes()

    def test_one_shot(self):
        config = ExperimentConfig(t2=100.0, decoherence_time=20.0, shots=1, polarization=0.95)
        rows = simulator._expectations(config, range(50))
        assert set(rows.ravel().tolist()) == {-1.0, 1.0}
        for seed, row in enumerate(rows):
            assert row.tobytes() == run_values(replace(config, seed=seed))

    def test_seeds_are_keyed_modulo_2_64(self):
        config = ExperimentConfig(t2=100.0, decoherence_time=40.0, shots=1000, pulse_error=0.05)
        seeds = [-1, -(2**63), 2**64, 2**64 + 5, 10**30]
        rows = simulator._expectations(config, seeds)
        wrapped = simulator._expectations(config, [seed % 2**64 for seed in seeds])
        assert rows.tobytes() == wrapped.tobytes()
        for seed, row in zip(seeds, rows):
            assert row.tobytes() == run_values(replace(config, seed=seed))

    def test_certain_outcomes(self):
        # With t1 = inf, |0> and |1> keep z = +1 and -1 exactly: up with
        # probability 1 and 0, so every shot agrees.
        config = replace(PRESETS["paper-40ns"], shots=1000)
        cells = simulator._outcomes(
            config.t2, config.t1, config.decoherence_time,
            config.polarization, config.pulse_error,
        )[3]
        # (key word input * 8 + axis, up-probability) of the z cells.
        assert (cells[2], cells[5]) == ((10, 1.0), (18, 0.0))
        rows = simulator._expectations(config, range(20))
        assert (rows[:, 2] == 1.0).all() and (rows[:, 5] == -1.0).all()
        for seed, row in enumerate(rows):
            assert row.tobytes() == run_values(replace(config, seed=seed))

    @pytest.mark.parametrize("preparation", ROW_PREPARATIONS)
    def test_exact_rows_are_the_cached_values(self, preparation):
        polarization, pulse_error = preparation
        config = ExperimentConfig(
            t2=100.0, decoherence_time=80.0, polarization=polarization, pulse_error=pulse_error
        )
        rows = simulator._expectations(config, [0, 3, -2])
        assert rows.shape == (3, 12) and rows.flags.writeable
        for seed, row in zip([0, 3, -2], rows):
            assert row.tobytes() == run_values(replace(config, seed=seed))

    @pytest.mark.parametrize("shots", [None, 1, 1000])
    def test_channel_substitution(self, rng, shots):
        for config, chi in override_cases(rng, shots):
            inputs = simulator._inputs(config.polarization, config.pulse_error)[1]
            outcome = simulator._outcomes_of(chi, inputs)
            rows = simulator._expectations(config, range(5), outcome)
            for seed, row in enumerate(rows):
                assert row.tobytes() == run_values(replace(config, seed=seed), channel=chi)

def assert_matches_evolution(results, evolved):
    """Exact expectations within 1e-15 of the density-matrix route; sampled
    records bit for bit."""
    if results[0].config.shots is not None:
        assert record_bits(results) == record_bits(evolved)
        return
    assert [(res.input_index, r.axis) for res in results for r in res.records] == [
        (res.input_index, r.axis) for res in evolved for r in res.records
    ]
    values = [r.value for result in results for r in result.records]
    expected = [r.value for result in evolved for r in result.records]
    np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-15)


class TestAgainstEvolution:
    """The transfer-matrix run agrees with evolving each input's density
    matrix through ``apply_chi`` and measuring it."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("shots", [None, 1, 100, 1000, 10**5])
    @pytest.mark.parametrize("t1", [math.inf, 150.0])
    def test_presets(self, preset, shots, t1):
        for config in preset_cases(preset, shots, t1):
            assert_matches_evolution(
                run_experiment(config), evolved_run_experiment(config)
            )

    @pytest.mark.parametrize("shots", [None, 1, 100, 1000, 10**5])
    def test_channel_override_and_preparations(self, rng, shots):
        for config, chi in override_cases(rng, shots):
            assert_matches_evolution(
                run_experiment(config, channel=chi),
                evolved_run_experiment(config, channel=chi),
            )


def test_concurrent_runs_match_serial():
    config = ExperimentConfig(t2=100.0, decoherence_time=40.0, shots=1000, seed=31)
    serial = record_bits(run_experiment(config))

    def runs(_):
        return [record_bits(run_experiment(config)) for _ in range(200)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as allowed
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [bits for batch in pool.map(runs, range(4)) for bits in batch]
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 800
    assert all(bits == serial for bits in results)


@pytest.mark.parametrize("seed", [-1, 2**63, 2**64 + 5, 10**30])
@pytest.mark.parametrize("shots", [1, 100, 10**5])
def test_streams_at_extreme_seeds(seed, shots):
    # The key is the seed modulo 2**64, so these seeds wrap; each sampled
    # value must still be the draw of its own freshly keyed stream.
    config = ExperimentConfig(
        t2=100.0, t1=150.0, decoherence_time=40.0, shots=shots, seed=seed,
        polarization=0.95, pulse_error=0.05,
    )
    assert record_bits(run_experiment(config)) == record_bits(loop_run_experiment(config))


def test_each_call_owns_its_bit_generator(monkeypatch):
    # A generator shared between calls would be rekeyed by one thread while
    # another draws from it.  Under CPython's global interpreter lock the
    # rekey and the draw happen not to be split, so the threaded test above
    # cannot see the sharing; this one does.
    made = []
    philox = np.random.Philox

    def tracked(*args, **kwargs):
        made.append(philox(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "Philox", tracked)
    config = ExperimentConfig(t2=100.0, shots=100, seed=4)
    run_experiment(config)
    run_experiment(config)
    assert len(made) == 2 and made[0] is not made[1]


def test_bit_generator_seeded_without_entropy(monkeypatch):
    # The seed each call's generator is built from hashes nothing: every
    # state word is zero, and every cell then sets its own state.
    made = []
    philox = np.random.Philox

    def tracked(*args, **kwargs):
        made.append(philox(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "Philox", tracked)
    config = ExperimentConfig(t2=100.0, shots=100, seed=4)
    first = run_experiment(config)
    second = run_experiment(config)
    assert len(made) == 2 and made[0] is not made[1]
    seed = made[0].seed_seq
    assert isinstance(seed, np.random.bit_generator.ISeedSequence)
    assert made[1].seed_seq is seed
    assert seed.generate_state(4, np.uint64).tolist() == [0, 0, 0, 0]
    assert record_bits(first) == record_bits(second) == record_bits(loop_run_experiment(config))


PREPARATIONS = [(1.0, 0.0, math.inf), (0.95, 0.0, math.inf), (1.0, 0.05, math.inf), (0.9, 0.02, 300.0)]


def assert_is_checked_record(record, checked):
    """``record`` is ``checked`` in every way a caller can see: equality,
    field types, hash, ``repr``, slots and frozenness."""
    assert type(record) is type(checked)
    assert record == checked
    names = [field.name for field in dataclasses.fields(record)]
    assert [type(getattr(record, name)) for name in names] == [
        type(getattr(checked, name)) for name in names
    ]
    assert hash(record) == hash(checked)
    assert repr(record) == repr(checked)
    assert not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, names[0], getattr(record, names[0]))


class TestFilledRecords:
    """Sampled expectation records and every run's measurement records are
    filled without their checks: each is the record the checks build from
    its fields, and the records stay those of the loop oracle."""

    @pytest.mark.parametrize("shots", [None, 1, 1000, 10**5])
    @pytest.mark.parametrize("preparation", PREPARATIONS)
    def test_each_record_is_the_checked_one(self, shots, preparation):
        config = physics_config("paper-40ns", shots, seed=9, preparation=preparation)
        results = run_experiment(config)
        for result in results:
            assert_is_checked_record(
                result, MeasurementRecord(result.input_index, result.records, result.config)
            )
            assert type(result.input_index) is int and type(result.records) is tuple
            for record in result.records:
                checked = ExpectationRecord(record.axis, record.value, record.shots)
                assert_is_checked_record(record, checked)
                assert type(record.value) is float
                assert type(record.shots) is (type(None) if shots is None else int)
                assert -1.0 <= record.value <= 1.0
        assert record_bits(results) == record_bits(loop_run_experiment(config))

    @pytest.mark.parametrize("shots", [None, 1000])
    @pytest.mark.parametrize("preparation", PREPARATIONS)
    def test_substituted_channel(self, rng, shots, preparation):
        config = physics_config("paper-20ns", shots, seed=11, preparation=preparation)
        chi = random_cptp_chi(rng)
        results = run_experiment(config, channel=chi)
        for result in results:
            assert_is_checked_record(
                result, MeasurementRecord(result.input_index, result.records, result.config)
            )
            for record in result.records:
                assert_is_checked_record(
                    record, ExpectationRecord(record.axis, record.value, record.shots)
                )
        assert record_bits(results) == record_bits(loop_run_experiment(config, channel=chi))


def physics_config(preset, shots=None, seed=0, preparation=PREPARATIONS[0]):
    polarization, pulse_error, t1 = preparation
    return ExperimentConfig(
        t2=PRESETS[preset].t2, t1=t1, decoherence_time=PRESETS[preset].decoherence_time,
        polarization=polarization, pulse_error=pulse_error, shots=shots, seed=seed,
    )


class TestPhysicsCache:
    """What depends on neither seed nor shots is computed once per physical
    setting; the records are those of a run that computes it afresh."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("shots", [None, 100, 1000])
    @pytest.mark.parametrize("preparation", PREPARATIONS)
    def test_cache_hits_are_byte_identical(self, preset, shots, preparation):
        config = physics_config(preset, shots, seed=12, preparation=preparation)
        first = run_experiment(config)
        before = simulator._outcomes.cache_info()
        second = run_experiment(config)
        after = simulator._outcomes.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        assert record_bits(second) == record_bits(first)
        assert record_bits(second) == record_bits(loop_run_experiment(config))

    def test_true_channel_returns_a_private_copy(self):
        config = physics_config("paper-40ns", preparation=PREPARATIONS[3])
        records = record_bits(run_experiment(config))
        chi = true_channel(config)
        expected = chi.copy()
        assert chi.flags.writeable
        # The cached matrix it copies is read-only.
        assert not simulator._outcomes(
            config.t2, config.t1, config.decoherence_time,
            config.polarization, config.pulse_error,
        )[0].flags.writeable
        chi[...] = np.nan
        np.testing.assert_array_equal(true_channel(config), expected)
        assert true_channel(config) is not true_channel(config)
        assert record_bits(run_experiment(config)) == records

    def test_seeds_and_shots_add_no_entry(self):
        config = ExperimentConfig(t2=123.25, t1=321.5, decoherence_time=17.0)
        run_experiment(config)
        before = [cache.cache_info() for cache in (simulator._outcomes, simulator._inputs)]
        for shots in (None, 1, 100, 1000):
            for seed in (0, 5, 2**64 - 1):
                run_experiment(replace(config, shots=shots, seed=seed))
                true_channel(replace(config, shots=shots, seed=seed))
        after = [cache.cache_info() for cache in (simulator._outcomes, simulator._inputs)]
        assert [info.misses for info in after] == [info.misses for info in before]

    def test_a_new_physical_setting_adds_one_entry(self):
        config = ExperimentConfig(t2=123.25, t1=321.5, decoherence_time=19.0, shots=100)
        run_experiment(config)
        for change in (
            {"t2": 124.25}, {"t1": 322.5}, {"decoherence_time": 18.0},
            {"polarization": 0.875}, {"pulse_error": 0.0625},
        ):
            before = simulator._outcomes.cache_info()
            run_experiment(replace(config, **change))
            after = simulator._outcomes.cache_info()
            assert after.misses - before.misses == 1

    def test_configured_runs_leave_the_preparation_cache_empty(self):
        # Only reconstruction fills the cache of the map built from P_B^-1:
        # simulating, preparing and naming the inputs read the input cache.
        for cache in (simulator._outcomes, simulator._inputs, _reconstruction_map):
            cache.cache_clear()
        runs = [
            run_experiment(physics_config("paper-40ns", shots, seed=5, preparation=preparation))
            for preparation in (PREPARATIONS[0], PREPARATIONS[3])
            for shots in (None, 1000)
        ]
        run_experiment(
            ExperimentConfig(t2=100.0, pulse_error=0.03), channel=ch.standard_channel("identity")
        )
        prepare_input(ExperimentConfig(t2=100.0, polarization=0.9), 1)
        input_basis()
        true_channel(runs[-1][0].config)
        assert _reconstruction_map.cache_info().currsize == 0
        run_process_tomography(runs[-1])
        info = _reconstruction_map.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 0)
        # A preparation whose inputs do not span raises on every call and
        # caches nothing.
        flat = run_experiment(ExperimentConfig(t2=100.0, polarization=0.5))
        for _ in range(2):
            with pytest.raises(ValueError, match="does not span"):
                run_process_tomography(flat)
        info = _reconstruction_map.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 3, 0)

    @pytest.mark.parametrize("shots", [None, 1000])
    @pytest.mark.parametrize("negative_first", [True, False])
    def test_negative_zeros_share_the_entry_of_zero(self, shots, negative_first):
        zero = ExperimentConfig(t2=100.0, t1=300.0, polarization=0.9, shots=shots, seed=6)
        negative = replace(zero, decoherence_time=-0.0, pulse_error=-0.0)
        simulator._outcomes.cache_clear()
        order = (negative, zero) if negative_first else (zero, negative)
        first = run_experiment(order[0])
        before = simulator._outcomes.cache_info()
        second = run_experiment(order[1])
        after = simulator._outcomes.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        assert record_bits(first) == record_bits(second)
        assert record_bits(first) == record_bits(loop_run_experiment(zero))
        assert true_channel(negative).tobytes() == true_channel(zero).tobytes()


REFERENCE = Path(__file__).resolve().parent / "reference" / "shots1000-seed7"


class TestMeasurementRecord:
    def test_numpy_index_becomes_int(self):
        config = ExperimentConfig(t2=100.0)
        records = [ExpectationRecord("z", 1.0)]
        record = MeasurementRecord(input_index=np.int64(2), records=records, config=config)
        assert type(record.input_index) is int and record.input_index == 2
        assert type(record.records) is tuple and record.records == tuple(records)

    def test_tuple_kept_as_given(self):
        config = ExperimentConfig(t2=100.0)
        records = (ExpectationRecord("z", 1.0),)
        record = MeasurementRecord(input_index=1, records=records, config=config)
        assert record.records is records

    def test_refusals_kept(self):
        config = ExperimentConfig(t2=100.0)
        for index in (0, 5, 1.0, True):
            with pytest.raises(ValueError, match="input_index"):
                MeasurementRecord(input_index=index, records=(), config=config)

    def test_slotted_record_copies(self):
        record = run_experiment(preset_config("paper-20ns", shots=100, seed=3))[1]
        assert not hasattr(record, "__dict__")
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert clone == record
        moved = dataclasses.replace(record, input_index=np.int64(3))
        assert type(moved.input_index) is int and moved.records is record.records
        assert dataclasses.asdict(record)["records"][0] == dataclasses.asdict(record.records[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.input_index = 1

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_records_document_bytes(self, preset):
        # The sampled records of the checked-in reproduction, byte for byte
        # as the writer formats them.
        records = run_experiment(preset_config(preset, shots=1000, seed=7))
        text = json.dumps(qio.records_document(records), indent=2, allow_nan=False) + "\n"
        assert text == (REFERENCE / preset / "records.json").read_text()
