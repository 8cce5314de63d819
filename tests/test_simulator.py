"""Simulated decoherence experiment: preparation, evolution, sampling."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import (
    evolved_run_experiment,
    loop_measure,
    loop_run_experiment,
    random_cptp_chi,
)
from qpt import channels as ch
from qpt import states
from qpt.process_tomography import run_process_tomography
from qpt.simulator import (
    INPUT_COUNT,
    PRESETS,
    ExperimentConfig,
    MeasurementRecord,
    prepare_input,
    prepared_inputs,
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
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


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
            states.projector(states.KET_0),
            states.projector(states.KET_1),
            states.projector(states.KET_PLUS),
            states.projector(states.KET_PLUS_I),
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
        stack = prepared_inputs(config)
        assert stack.shape == (INPUT_COUNT, 2, 2)
        for index in range(1, INPUT_COUNT + 1):
            np.testing.assert_array_equal(stack[index - 1], prepare_input(config, index))
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 5.0
        assert prepared_inputs(ExperimentConfig(t2=50.0, polarization=polarization,
                                                pulse_error=pulse_error, seed=9)) is stack

    def test_bad_index(self):
        with pytest.raises(ValueError, match="input index"):
            prepare_input(self.CONFIG, 5)
        with pytest.raises(ValueError, match="input index"):
            prepare_input(self.CONFIG, 0)


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
        with pytest.raises(ValueError, match="non-finite"):
            run_experiment(ExperimentConfig(t2=100.0), channel=chi)


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
