"""Channel representations: conversions, physicality checks, standard families."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    expand_in_operation_basis,
    kraus_completeness_deficit,
    loop_kraus_from_chi,
    operator_from_coefficients,
    partial_trace_ancilla,
    partial_trace_output,
    random_bloch_vector,
    random_cptp_chi,
    random_density_matrix,
    random_kraus_set,
)
from qpt import channels as ch
from qpt import states
from qpt.errors import _BOUND, NotCompletelyPositiveError

IDENTITY_CHI = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)

# The transpose map: positive but not completely positive, the standard
# counterexample for the CP check.
TRANSPOSE_CHI = np.diag([0.5, 0.5, -0.5, 0.5]).astype(complex)

# The refusal of a decay time t that is negative, infinite or NaN.
FINITE_T = "t must be nonnegative and finite, got"


class TestApply:
    def test_identity(self, rng):
        rho = random_density_matrix(rng)
        assert np.allclose(ch.apply_chi(IDENTITY_CHI, rho), rho)

    def test_kraus_identity(self, rng):
        rho = random_density_matrix(rng)
        assert np.allclose(ch.apply_kraus([np.eye(2)], rho), rho)

    def test_empty_kraus_rejected(self):
        with pytest.raises(ValueError):
            ch.apply_kraus([], np.eye(2) / 2.0)

    def test_chi_kraus_agree(self, rng):
        for _ in range(20):
            ops = random_kraus_set(rng)
            chi = ch.chi_from_kraus(ops)
            rho = random_density_matrix(rng)
            assert np.allclose(
                ch.apply_chi(chi, rho), ch.apply_kraus(ops, rho), atol=1e-12
            )

    def test_affine_agrees(self, rng):
        for _ in range(20):
            chi = random_cptp_chi(rng)
            affine = ch.affine_from_chi(chi)
            r = random_bloch_vector(rng)
            via_chi = states.bloch_from_density(
                ch.apply_chi(chi, states.density_from_bloch(r))
            )
            assert np.allclose(affine(r), via_chi, atol=1e-9)


class TestOperationExpansion:
    def test_round_trip(self, rng):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = expand_in_operation_basis(m)
        assert np.allclose(operator_from_coefficients(c), m)

    def test_identity_coefficients(self):
        assert expand_in_operation_basis(np.eye(2)) == pytest.approx(
            [1.0, 0.0, 0.0, 0.0]
        )


class TestKrausConversions:
    def test_kraus_round_trip(self, rng):
        for _ in range(20):
            chi = random_cptp_chi(rng)
            again = ch.chi_from_kraus(ch.kraus_from_chi(chi))
            assert np.linalg.norm(again - chi) < 1e-8

    def test_weight_cutoff_drops_null_components(self):
        ops = ch.kraus_from_chi(IDENTITY_CHI)
        assert len(ops) == 1
        assert np.allclose(ops[0], np.eye(2))

    def test_not_cp_rejected(self):
        with pytest.raises(NotCompletelyPositiveError, match="eigenvalue"):
            ch.kraus_from_chi(TRANSPOSE_CHI)

    def test_zero_map_keeps_one_zero_operator(self):
        # Every component falls under the weight cut; apply_kraus still
        # needs one operator.
        ops = ch.kraus_from_chi(np.zeros((4, 4)))
        assert len(ops) == 1
        np.testing.assert_array_equal(ops[0], np.zeros((2, 2)))

    def test_tiny_negative_clamped(self):
        chi = IDENTITY_CHI.copy()
        chi[1, 1] = -1e-10
        ops = ch.kraus_from_chi(chi)
        assert kraus_completeness_deficit(ops) < 1e-9

    @pytest.mark.parametrize("kind, params", [
        ("identity", {}),
        ("dephasing", {"factor": 0.3}),
        ("dephasing", {"t": 20.0, "t2": 100.0}),
        ("depolarizing", {"p": 0.0}),
        ("depolarizing", {"p": 0.4}),
        ("depolarizing", {"p": 0.75}),
        ("amplitude_damping", {"gamma": 0.2}),
        ("amplitude_damping", {"gamma": 1.0}),
        ("amplitude_damping", {"t": 30.0, "t1": 100.0}),
        ("unitary_rotation", {"axis": "x", "angle": math.pi / 2.0}),
        ("unitary_rotation", {"axis": "y", "angle": -1.1}),
        ("unitary_rotation", {"axis": "z", "angle": math.pi}),
    ])
    def test_operators_match_the_per_column_oracle(self, kind, params):
        # All kept operators come from one einsum; each equals the one built
        # from its own eigenvector column, bit for bit, in the same order.
        chi = ch.standard_channel(kind, **params)
        ops, expected = ch.kraus_from_chi(chi), loop_kraus_from_chi(chi)
        assert [op.tobytes() for op in ops] == [op.tobytes() for op in expected]
        assert all(op.shape == (2, 2) and op.dtype == complex for op in ops)

    def test_random_operators_match_the_per_column_oracle(self, rng):
        for _ in range(50):
            chi = random_cptp_chi(rng)
            assert [op.tobytes() for op in ch.kraus_from_chi(chi)] == [
                op.tobytes() for op in loop_kraus_from_chi(chi)
            ]

    def test_completeness_deficit(self, rng):
        ops = random_kraus_set(rng)
        assert kraus_completeness_deficit(ops) < 1e-12
        assert kraus_completeness_deficit([0.9 * np.eye(2)]) == pytest.approx(
            np.linalg.norm((0.81 - 1.0) * np.eye(2))
        )


class TestPhysicalityChecks:
    def test_standard_channels_physical(self, rng):
        for chi in (
            IDENTITY_CHI,
            ch.standard_channel("dephasing", factor=0.5),
            ch.standard_channel("amplitude_damping", gamma=0.3),
            ch.standard_channel("depolarizing", p=0.5),
        ):
            cp, lowest = ch.is_completely_positive(chi)
            tp, deficit = ch.is_trace_preserving(chi)
            assert cp and tp
            assert lowest > -1e-12 and deficit < 1e-12

    def test_transpose_map_not_cp(self):
        cp, lowest = ch.is_completely_positive(TRANSPOSE_CHI)
        assert not cp
        assert lowest == pytest.approx(-0.5, abs=1e-12)
        tp, _ = ch.is_trace_preserving(TRANSPOSE_CHI)
        assert tp

    def test_lowest_eigenvalue_is_the_choi_one(self, rng):
        # The check reads chi itself: the Choi state is chi under a fixed
        # unitary, so the spectra agree, CP or not.
        for scale in (0.1, 1.0, 10.0):
            for _ in range(40):
                g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                chi = scale * (g + g.conj().T) / 2.0
                _, lowest = ch.is_completely_positive(chi)
                choi_lowest = np.linalg.eigvalsh(ch.choi_from_chi(chi))[0]
                assert abs(lowest - choi_lowest) <= 1e-13

    def test_tp_deficit_is_the_completeness_defect(self, rng):
        # sqrt(2) ||row 0 of R - e_0|| is ||sum_mn chi_mn A_n^dag A_m - I||_F
        # for any chi, Hermitian and TP or not.
        ops = states.OPERATION_ELEMENTS
        for _ in range(200):
            chi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            s = sum(
                chi[m, n] * ops[n].conj().T @ ops[m] for m in range(4) for n in range(4)
            )
            assert abs(ch._tp_deficit(chi) - np.linalg.norm(s - np.eye(2))) <= 1e-14

    def test_tp_deficit_of_a_finite_gap_near_the_float_limit(self):
        # Records at the edge of the float range are refused by the bound;
        # estimates of records at the bound have numpy's own deficit, with
        # no overflow warning.
        from qpt.process_tomography import run_process_tomography
        from qpt.state_tomography import AXES, ExpectationRecord

        for value in (1e308, -1e308, 1.7e308, -1.7e308):
            with pytest.raises(ValueError, match="^value must be finite and at most 2"):
                ExpectationRecord("x", value)
        pick = random.Random(0)
        for _ in range(300):
            sets = [
                [ExpectationRecord(axis, pick.choice([_BOUND, -_BOUND, 0.0])) for axis in AXES]
                for _ in range(4)
            ]
            chi = run_process_tomography(sets).chi
            gap = ch._ROW0 @ chi.reshape(16) - ch._E0
            with np.errstate(all="raise"):
                deficit = ch._tp_deficit(chi)
            assert deficit == math.sqrt(2.0) * float(np.linalg.norm(gap))
            assert math.isfinite(deficit)

    @pytest.mark.parametrize("value", [1e200, 1e308, 1.7e308])
    def test_hermitian_pair_near_the_float_limit(self, value):
        # Past the bound the pair is refused before any verdict; at the
        # bound the verdict is the pair's own eigenvalue.
        chi = np.eye(4, dtype=complex) / 4.0
        chi[0, 1] = chi[1, 0] = value
        for call in (ch.is_completely_positive, ch.kraus_from_chi):
            with pytest.raises(ValueError, match="^chi matrix: entries must be finite"):
                call(chi)
        chi[0, 1] = chi[1, 0] = _BOUND
        cp, lowest = ch.is_completely_positive(chi)
        assert cp is False
        assert lowest == pytest.approx(-_BOUND, rel=1e-12)
        with pytest.raises(NotCompletelyPositiveError, match="below -1e-09"):
            ch.kraus_from_chi(chi)

    def test_hermitian_pair_whose_modulus_overflows(self):
        # eigh returned NaN eigenvalues here; the bound refuses the pair.
        chi = np.eye(4, dtype=complex) / 4.0
        chi[0, 1], chi[1, 0] = 1.7e308 + 1.7e308j, 1.7e308 - 1.7e308j
        for call in (ch.is_completely_positive, ch.kraus_from_chi):
            with pytest.raises(ValueError, match="^chi matrix: entries must be finite"):
                call(chi)

    def test_scaled_identity_not_tp(self):
        tp, deficit = ch.is_trace_preserving(0.9 * IDENTITY_CHI)
        assert not tp
        assert deficit == pytest.approx(0.1 * math.sqrt(2.0), abs=1e-12)

    def test_ball_containment(self, rng):
        # CPTP maps keep Bloch vectors inside the closed unit ball.
        for _ in range(20):
            chi = random_cptp_chi(rng)
            for _ in range(10):
                r = random_bloch_vector(rng)
                image = states.bloch_from_density(
                    ch.apply_chi(chi, states.density_from_bloch(r))
                )
                assert np.linalg.norm(image) <= 1.0 + 1e-8


class TestChoi:
    def test_identity_choi_is_bell_state(self):
        choi = ch.choi_from_chi(IDENTITY_CHI)
        bell = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                bell[i, j] = 0.5
        assert np.allclose(choi, bell)

    def test_full_dephasing_choi(self):
        chi = ch.standard_channel("dephasing", factor=0.0)
        choi = ch.choi_from_chi(chi)
        assert np.allclose(choi, np.diag([0.5, 0.0, 0.0, 0.5]))

    def test_full_depolarizing_choi(self):
        chi = ch.standard_channel("depolarizing", p=1.0)
        assert np.allclose(ch.choi_from_chi(chi), np.eye(4) / 4.0)

    def test_round_trip(self, rng):
        for _ in range(20):
            chi = random_cptp_chi(rng)
            assert np.allclose(ch.chi_from_choi(ch.choi_from_chi(chi)), chi, atol=1e-12)

    def test_spectrum_matches_chi(self, rng):
        # The Choi basis is orthonormal, so both matrices share eigenvalues.
        chi = random_cptp_chi(rng)
        assert np.allclose(
            np.linalg.eigvalsh(ch.choi_from_chi(chi)), np.linalg.eigvalsh(chi)
        )

    def test_partial_traces(self, rng):
        for _ in range(10):
            chi = random_cptp_chi(rng)
            choi = ch.choi_from_chi(chi)
            # Trace preservation shows up as a maximally mixed ancilla.
            assert np.allclose(partial_trace_output(choi), np.eye(2) / 2.0, atol=1e-10)
            assert partial_trace_ancilla(choi).trace() == pytest.approx(1.0)

    def test_choi_trace_one(self, rng):
        chi = random_cptp_chi(rng)
        assert ch.choi_from_chi(chi).trace() == pytest.approx(1.0)


class TestAffine:
    def test_amplitude_damping_form(self):
        gamma = 0.3
        affine = ch.affine_from_chi(ch.standard_channel("amplitude_damping", gamma=gamma))
        keep = math.sqrt(1.0 - gamma)
        assert np.allclose(affine.matrix, np.diag([keep, keep, 1.0 - gamma]), atol=1e-12)
        assert np.allclose(affine.translation, [0.0, 0.0, gamma], atol=1e-12)

    def test_dephasing_form(self):
        affine = ch.affine_from_chi(ch.standard_channel("dephasing", factor=0.5))
        assert np.allclose(affine.matrix, np.diag([0.5, 0.5, 1.0]), atol=1e-12)
        assert np.allclose(affine.translation, np.zeros(3), atol=1e-12)

    def test_chi_from_affine_round_trip(self, rng):
        for _ in range(20):
            chi = random_cptp_chi(rng)
            again = ch.chi_from_affine(ch.affine_from_chi(chi))
            assert np.linalg.norm(again - chi) < 1e-9

    def test_contraction_to_chi(self):
        affine = ch.AffineMap(matrix=np.diag([0.5, 0.5, 1.0]), translation=np.zeros(3))
        assert np.allclose(
            ch.chi_from_affine(affine), np.diag([0.75, 0.0, 0.0, 0.25]), atol=1e-12
        )

    def test_result_is_tp_by_construction(self, rng):
        affine = ch.AffineMap(
            matrix=rng.standard_normal((3, 3)), translation=rng.standard_normal(3)
        )
        _, deficit = ch.is_trace_preserving(ch.chi_from_affine(affine))
        assert deficit < 1e-12

    def test_affine_validation(self):
        with pytest.raises(ValueError):
            ch.AffineMap(matrix=np.eye(2), translation=np.zeros(3))
        with pytest.raises(ValueError):
            ch.AffineMap(matrix=np.eye(3), translation=np.zeros(2))
        # Complex entries are not cast away, nor are text or booleans parsed.
        for matrix, translation, field in [
            (np.eye(3) * 1j, [0, 0, 0], "matrix"),
            (np.eye(3, dtype=bool), np.zeros(3), "matrix"),
            (np.eye(3), ["0.5", "0", "0"], "translation"),
            (np.eye(3), [True, False, True], "translation"),
            (np.eye(3), np.zeros(3, dtype=complex), "translation"),
        ]:
            with pytest.raises(ValueError, match=f"^affine {field}: must hold integers"):
                ch.AffineMap(matrix=matrix, translation=translation)
        # Integer entries are exact floats.
        affine = ch.AffineMap(np.eye(3, dtype=np.int32), [0, 0, 1])
        assert affine.matrix.dtype == affine.translation.dtype == float


class TestStandardChannels:
    def test_dephasing_chi(self):
        chi = ch.standard_channel("dephasing", factor=0.5)
        assert np.allclose(chi, np.diag([0.75, 0.0, 0.0, 0.25]))

    def test_dephasing_time_form(self):
        chi = ch.standard_channel("dephasing", t=100.0 * math.log(2.0), t2=100.0)
        assert np.allclose(chi, np.diag([0.75, 0.0, 0.0, 0.25]), atol=1e-12)

    def test_depolarizing_chi(self):
        chi = ch.standard_channel("depolarizing", p=0.5)
        assert np.allclose(chi, np.diag([0.625, 0.125, 0.125, 0.125]))

    def test_amplitude_damping_time_form(self):
        gamma = 1.0 - math.exp(-0.5)
        direct = ch.standard_channel("amplitude_damping", gamma=gamma)
        timed = ch.standard_channel("amplitude_damping", t=50.0, t1=100.0)
        assert np.allclose(direct, timed, atol=1e-12)

    @pytest.mark.parametrize("ratio", [36.0, 38.0, 40.0])
    def test_amplitude_damping_long_time_shrink(self, ratio):
        # The x/y shrink exp(-t/2t1) is 1.5e-8 .. 2.1e-9 here; forming
        # gamma = 1 - exp(-t/t1) first and then sqrt(1 - gamma) loses it.
        # The chi entries are O(1), so the bound is a few of their ulps.
        chi = ch.standard_channel("amplitude_damping", t=ratio * 10.0, t1=10.0)
        matrix = ch.affine_from_chi(chi).matrix
        expected = math.exp(-ratio / 2.0)
        assert matrix[0, 0] == pytest.approx(expected, rel=0, abs=1e-15)
        assert matrix[1, 1] == pytest.approx(expected, rel=0, abs=1e-15)

    def test_full_damping_affine(self):
        affine = ch.affine_from_chi(ch.standard_channel("amplitude_damping", gamma=1.0))
        assert np.allclose(affine.matrix, np.zeros((3, 3)), atol=1e-12)
        assert np.allclose(affine.translation, [0.0, 0.0, 1.0], atol=1e-12)

    def test_x_gate_chi(self):
        chi = ch.standard_channel("unitary_rotation", axis="x", angle=math.pi)
        assert np.allclose(chi, np.diag([0.0, 1.0, 0.0, 0.0]), atol=1e-12)

    def test_half_pi_y_rotation_chi(self):
        # In the {I, X, -iY, Z} expansion this rotation is entirely real:
        # U = (I + (-i sigma_y)) / sqrt(2).
        chi = ch.standard_channel("unitary_rotation", axis="y", angle=math.pi / 2.0)
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 2], [0, 2])] = 0.5
        assert np.allclose(chi, expected, atol=1e-12)

    def test_half_pi_x_rotation_chi(self):
        # The x rotation keeps the imaginary cross terms instead.
        chi = ch.standard_channel("unitary_rotation", axis="x", angle=math.pi / 2.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[1, 1] = 0.5
        expected[0, 1] = 0.5j
        expected[1, 0] = -0.5j
        assert np.allclose(chi, expected, atol=1e-12)

    def test_rotation_unitarity(self, rng):
        u = ch.rotation_unitary(rng.standard_normal(3), 1.234)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="unknown channel"):
            ch.standard_channel("phase_flip")
        with pytest.raises(ValueError, match="t2 must be positive"):
            ch.standard_channel("dephasing", t=1.0, t2=0.0)
        with pytest.raises(ValueError, match="outside"):
            ch.standard_channel("depolarizing", p=1.5)
        with pytest.raises(ValueError, match="outside"):
            ch.standard_channel("amplitude_damping", gamma=-0.1)
        with pytest.raises(ValueError, match=r"got \['factor', 't'\]$"):
            ch.standard_channel("dephasing", factor=0.5, t=1.0)
        with pytest.raises(ValueError, match="identity takes no"):
            ch.standard_channel("identity", p=0.1)
        with pytest.raises(ValueError, match="t must be nonnegative"):
            ch.standard_channel("dephasing", t=-1.0, t2=10.0)
        with pytest.raises(ValueError, match="axis"):
            ch.rotation_unitary("w", 1.0)
        with pytest.raises(ValueError, match="nonzero"):
            ch.rotation_unitary([0.0, 0.0, 0.0], 1.0)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("dephasing", {"t": 1.0}, r"^dephasing takes factor= or t= and t2=, got \['t'\]$"),
            (
                "amplitude_damping",
                {"t1": 10.0},
                r"^amplitude_damping takes gamma= or t= and t1=, got \['t1'\]$",
            ),
            (
                "dephasing",
                {"t": 1.0, "t2": 10.0, "gamma": 0.1},
                r"^dephasing takes factor= or t= and t2=, got \['gamma', 't', 't2'\]$",
            ),
            ("depolarizing", {"q": 0.1}, r"^depolarizing takes p=, got \['q'\]$"),
            ("depolarizing", {"p": 0.1, "t": 1.0}, r"^depolarizing takes p=, got \['p', 't'\]$"),
            (
                "unitary_rotation",
                {"axis": "x"},
                r"^unitary_rotation takes axis= and angle=, got \['axis'\]$",
            ),
        ],
        ids=[
            "dephasing-no-t2", "damping-no-t", "dephasing-extra", "depolarizing-no-p",
            "depolarizing-extra", "rotation-no-angle",
        ],
    )
    def test_parameter_keywords(self, kind, params, message):
        # A missing keyword would otherwise raise KeyError and an extra one
        # be ignored.
        with pytest.raises(ValueError, match=message):
            ch.standard_channel(kind, **params)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("dephasing", {"t": math.inf, "t2": math.inf}, f"{FINITE_T} inf"),
            ("dephasing", {"t": math.nan, "t2": 10.0}, f"{FINITE_T} nan"),
            ("amplitude_damping", {"t": math.inf, "t1": 10.0}, f"{FINITE_T} inf"),
            ("dephasing", {"t": 1.0, "t2": math.nan}, "t2 must be positive, got nan"),
            ("amplitude_damping", {"t": 1.0, "t1": math.nan}, "t1 must be positive, got nan"),
        ],
        ids=["t-inf", "t-nan", "damping-t-inf", "t2-nan", "t1-nan"],
    )
    def test_non_finite_times_are_named(self, kind, params, message):
        # Each message names the parameter at fault, never the fraction
        # exp(-t/T) it would have given.
        with pytest.raises(ValueError, match=f"^{kind}: {message}$"):
            ch.standard_channel(kind, **params)

    @pytest.mark.parametrize("kind, scale", [("dephasing", "t2"), ("amplitude_damping", "t1")])
    def test_infinite_time_constant_is_no_decay(self, kind, scale):
        # As t1 = inf is in ExperimentConfig: the fraction exp(-t/inf) is 1.
        chi = ch.standard_channel(kind, t=5.0, **{scale: math.inf})
        np.testing.assert_array_equal(chi, ch.standard_channel("identity"))

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("dephasing", {"factor": "0.5"}, "dephasing: factor must be a number"),
            ("dephasing", {"factor": True}, "dephasing: factor must be a number"),
            ("dephasing", {"factor": None}, "dephasing: factor must be a number"),
            ("dephasing", {"factor": 10**400}, "dephasing: factor must be a number within"),
            ("dephasing", {"t": 5.0, "t2": "10"}, "dephasing: t2 must be a number"),
            ("amplitude_damping", {"gamma": "0.1"}, "amplitude_damping: gamma must be"),
            ("amplitude_damping", {"t": "5", "t1": "10"}, "amplitude_damping: t must be"),
            ("amplitude_damping", {"t": 5.0, "t1": "10"}, "amplitude_damping: t1 must be"),
            ("depolarizing", {"p": "0.3"}, "depolarizing: p must be a number"),
            ("depolarizing", {"p": 1j}, "depolarizing: p must be a number"),
            ("unitary_rotation", {"axis": "x", "angle": "1"}, "angle must be a number"),
            ("unitary_rotation", {"axis": ["1", "0", "0"], "angle": 1.0}, "axis: must hold"),
            ("unitary_rotation", {"axis": [1j, 0, 0], "angle": 1.0}, "axis: must hold"),
            ("unitary_rotation", {"axis": [True, False, False], "angle": 1.0}, "axis: must hold"),
            ("unitary_rotation", {"axis": [np.inf, 0, 0], "angle": 1.0}, "axis: entries must be"),
            ("unitary_rotation", {"axis": [np.nan, 0, 0], "angle": 1.0}, "axis: entries must be"),
            ("unitary_rotation", {"axis": "x", "angle": math.nan}, "angle must be finite"),
            ("unitary_rotation", {"axis": "x", "angle": math.inf}, "angle must be finite"),
            ("unitary_rotation", {"axis": "x", "angle": -math.inf}, "angle must be finite"),
        ],
        ids=[
            "factor-text", "factor-boolean", "factor-none", "factor-huge-integer",
            "t2-text", "gamma-text", "t-text", "t1-text", "p-text", "p-complex",
            "angle-text", "axis-text", "axis-complex", "axis-boolean",
            "axis-inf", "axis-nan", "angle-nan", "angle-inf", "angle-minus-inf",
        ],
    )
    def test_parameters_are_numbers(self, kind, params, message):
        # The one rule of errors._number: no text, boolean, None, complex or
        # out-of-range integer is coerced into a parameter.
        with pytest.raises(ValueError, match=message):
            ch.standard_channel(kind, **params)

    @pytest.mark.parametrize(
        "axis, unit",
        [
            ([1e200, 1e200, 0.0], None),
            ([1e308, -1e308, 1e308], None),
            ([1e-320, 0.0, 0.0], "x"),
            ([0.0, -5e-324, 0.0], [0.0, -1.0, 0.0]),
            ([_BOUND, -_BOUND, _BOUND], [1.0, -1.0, 1.0]),
        ],
        ids=["1e200", "1e308", "subnormal", "smallest-subnormal", "bound"],
    )
    def test_extreme_finite_axes_rotate_about_their_direction(self, axis, unit):
        # The axis is scaled before it is normalized, so its norm does not
        # underflow to 0; past the bound it is refused.
        if unit is None:
            with pytest.raises(ValueError, match="^axis: entries must be finite"):
                ch.rotation_unitary(axis, 1.0)
            return
        u = ch.rotation_unitary(axis, 1.0)
        np.testing.assert_allclose(u, ch.rotation_unitary(unit, 1.0), rtol=0, atol=1e-15)
        chi = ch.standard_channel("unitary_rotation", axis=axis, angle=1.0)
        assert ch.is_trace_preserving(chi)[0]
        assert chi.trace().real == pytest.approx(1.0, abs=1e-15)

    def test_named_axes_are_exact(self):
        # Named axes skip the normalization: the simulator's pulses stay
        # bit for bit what they were.
        angle = 0.7
        for name, axis in zip("xyz", (states.SIGMA_X, states.SIGMA_Y, states.SIGMA_Z)):
            expected = math.cos(angle / 2.0) * states.SIGMA_0 - 1.0j * math.sin(angle / 2.0) * axis
            np.testing.assert_array_equal(ch.rotation_unitary(name, angle), expected)

    def test_integer_and_numpy_parameters_accepted(self):
        np.testing.assert_array_equal(
            ch.standard_channel("dephasing", factor=1), ch.standard_channel("identity")
        )
        np.testing.assert_array_equal(
            ch.standard_channel("depolarizing", p=np.float64(0.5)),
            ch.standard_channel("depolarizing", p=0.5),
        )
        np.testing.assert_array_equal(
            ch.rotation_unitary(np.array([0, 0, 2]), 1), ch.rotation_unitary("z", 1.0)
        )

    @pytest.mark.parametrize(
        "kind, params",
        [("identity", {})]
        + [("dephasing", {"factor": f}) for f in (0.0, 0.5, 1.0)]
        + [("dephasing", {"t": 10.0 * r, "t2": 10.0}) for r in (0.0, 0.5, 40.0)]
        + [("depolarizing", {"p": p}) for p in (0.0, 0.5, 1.0)]
        + [("amplitude_damping", {"gamma": g}) for g in (0.0, 0.3, 1.0)]
        + [("amplitude_damping", {"t": 10.0 * r, "t1": 10.0}) for r in (0.0, 0.5, 40.0)],
        ids=lambda value: "-".join(f"{k}={v}" for k, v in value.items()) or "none"
        if isinstance(value, dict) else value,
    )
    def test_decay_families_match_their_textbook_forms(self, kind, params):
        # The oracles are each family's textbook Kraus set and Bloch map
        # r -> matrix @ r + translation.
        scale = params.get("t2", params.get("t1"))
        decay = math.exp(-params["t"] / scale) if "t" in params else None
        i, x, y, z = states.SIGMA_0, states.SIGMA_X, states.SIGMA_Y, states.SIGMA_Z
        translation = np.zeros(3)
        if kind == "identity":
            kraus, matrix = [i], np.eye(3)
        elif kind == "dephasing":
            f = params.get("factor", decay)
            kraus = [math.sqrt((1.0 + f) / 2.0) * i, math.sqrt((1.0 - f) / 2.0) * z]
            matrix = np.diag([f, f, 1.0])
        elif kind == "depolarizing":
            p = params["p"]
            kraus = [math.sqrt(1.0 - 3.0 * p / 4.0) * i]
            kraus += [math.sqrt(p / 4.0) * pauli for pauli in (x, y, z)]
            matrix = (1.0 - p) * np.eye(3)
        else:
            # The decay and jump pair, with the survival exp(-t/t1) kept as is.
            survival = 1.0 - params["gamma"] if "gamma" in params else decay
            gamma = params.get("gamma", 1.0 - survival)
            kraus = [
                np.array([[1.0, 0.0], [0.0, math.sqrt(survival)]]),
                np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]]),
            ]
            matrix = np.diag([math.sqrt(survival), math.sqrt(survival), survival])
            translation[2] = gamma
        chi = ch.standard_channel(kind, **params)
        np.testing.assert_allclose(chi, ch.chi_from_kraus(kraus), rtol=0, atol=1e-15)
        assert np.array_equal(chi, chi.conj().T)
        affine = ch.affine_from_chi(chi)
        np.testing.assert_allclose(affine.matrix, matrix, rtol=0, atol=1e-15)
        np.testing.assert_allclose(affine.translation, translation, rtol=0, atol=1e-15)


# Each family's parameter sets as the one message names them, and a valid
# value for every parameter name the table uses.
ACCEPTED = {
    "identity": "no parameters",
    "dephasing": "factor= or t= and t2=",
    "depolarizing": "p=",
    "amplitude_damping": "gamma= or t= and t1=",
    "unitary_rotation": "axis= and angle=",
}
VALUES = {
    "factor": 0.5, "t": 3.0, "t2": 10.0, "p": 0.3, "gamma": 0.2, "t1": 10.0,
    "axis": "y", "angle": 1.0,
}


class TestParameterSets:
    def test_table_names_every_family_and_parameter(self):
        assert list(ch._PARAMETER_SETS) == list(ACCEPTED)
        names = {name for sets in ch._PARAMETER_SETS.values() for s in sets for name in s}
        assert names == set(VALUES)

    @pytest.mark.parametrize("kind", list(ACCEPTED))
    def test_exactly_the_listed_sets_build(self, kind):
        # Every subset of the table's parameter names, as a call's keywords:
        # one equal to a set of the family builds a CPTP chi; any other,
        # mixed (factor= with t=), partial (t= alone) or foreign, raises the
        # one message naming the sets and the names given.
        accepted = [set(names) for names in ch._PARAMETER_SETS[kind]]
        for size in range(len(VALUES) + 1):
            for given in itertools.combinations(sorted(VALUES), size):
                params = {name: VALUES[name] for name in given}
                if set(given) in accepted:
                    chi = ch.standard_channel(kind, **params)
                    assert ch.is_completely_positive(chi)[0]
                    assert ch.is_trace_preserving(chi)[0]
                    continue
                message = f"{kind} takes {ACCEPTED[kind]}, got {sorted(given)}"
                with pytest.raises(ValueError) as info:
                    ch.standard_channel(kind, **params)
                assert str(info.value) == message

    @pytest.mark.parametrize("kind", ["phase_flip", None, ["dephasing"]])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match="^unknown channel kind "):
            ch.standard_channel(kind, factor=0.5)


class TestTransferInverse:
    """A real transfer matrix maps to a chi that is Hermitian bit for bit."""

    @given(
        entries=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
        exponent=st.floats(-3.0, 3.0),
    )
    def test_real_transfer_gives_exactly_hermitian_chi(self, entries, exponent):
        transfer = np.reshape(entries, (4, 4)) * 10.0**exponent
        # Reconstruction multiplies by the complex-typed P_B^-1, so its
        # transfer matrix is complex with a zero imaginary part.
        for r in (transfer, transfer.astype(complex)):
            chi = ch._chi_from_ptm(r)
            assert np.array_equal(chi, chi.conj().T)


class TestComposition:
    def test_dephasing_additive(self):
        a = ch.standard_channel("dephasing", t=20.0, t2=100.0)
        b = ch.standard_channel("dephasing", t=30.0, t2=100.0)
        combined = ch.standard_channel("dephasing", t=50.0, t2=100.0)
        assert np.linalg.norm(ch.compose_chi(a, b) - combined) < 1e-9

    def test_rotations_additive(self):
        a = ch.standard_channel("unitary_rotation", axis="y", angle=0.4)
        b = ch.standard_channel("unitary_rotation", axis="y", angle=0.8)
        combined = ch.standard_channel("unitary_rotation", axis="y", angle=1.2)
        assert np.linalg.norm(ch.compose_chi(a, b) - combined) < 1e-9

    def test_damping_and_dephasing_commute(self):
        deph = ch.standard_channel("dephasing", factor=0.7)
        damp = ch.standard_channel("amplitude_damping", gamma=0.2)
        assert np.allclose(
            ch.compose_chi(deph, damp), ch.compose_chi(damp, deph), atol=1e-12
        )

    def test_composition_matches_application(self, rng):
        for _ in range(50):
            first = random_cptp_chi(rng)
            then = random_cptp_chi(rng)
            rho = random_density_matrix(rng)
            composed = ch.compose_chi(first, then)
            np.testing.assert_allclose(
                ch.apply_chi(composed, rho),
                ch.apply_chi(then, ch.apply_chi(first, rho)),
                atol=1e-14,
            )

    def test_composition_of_non_cp_first_matches_application(self, rng):
        # Composition is linear algebra on the transfer matrices: a Hermitian
        # but not completely positive map composes like any other.
        transpose = np.diag([0.5, 0.5, -0.5, 0.5]).astype(complex)
        for first in [transpose] + [
            (m + m.conj().T) / 2.0
            for m in rng.standard_normal((50, 4, 4)) + 1j * rng.standard_normal((50, 4, 4))
        ]:
            then = random_cptp_chi(rng)
            rho = random_density_matrix(rng)
            composed = ch.compose_chi(first, then)
            np.testing.assert_allclose(
                ch.apply_chi(composed, rho),
                ch.apply_chi(then, ch.apply_chi(first, rho)),
                atol=1e-13,
            )
        assert ch.is_completely_positive(ch.compose_chi(transpose, transpose))[0]

    def test_composition_keeps_tiny_weights(self):
        # Two dephasings by 1 - 1e-13 dephase by 1 - 2e-13: chi[3, 3] is 1e-13
        # and the composite stays trace preserving to round-off.
        d = ch.standard_channel("dephasing", factor=1.0 - 1e-13)
        composed = ch.compose_chi(d, d)
        assert composed[3, 3].real == pytest.approx(1e-13, rel=1e-3)
        assert ch.is_trace_preserving(composed)[1] < 1e-15

    def test_composition_rejects_non_hermitian(self):
        skewed = np.eye(4, dtype=complex) / 4.0
        skewed[0, 1] = 0.1
        identity = ch.standard_channel("identity")
        message = r"^chi matrix: not Hermitian \(defect 7\.071e-02\)$"
        for first, then in ((skewed, identity), (identity, skewed)):
            with pytest.raises(ValueError, match=message):
                ch.compose_chi(first, then)


# A 1e200 off-diagonal pair: each transfer matrix holds entries near 1e200,
# so their product would pass the float range.
_WIDE_PAIR = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
_WIDE_PAIR[1, 2] = _WIDE_PAIR[2, 1] = 1e200
_HUGE_CHI = np.full((4, 4), 1.7e308, dtype=complex)
_HUGE_KRAUS = [np.full((2, 2), 1.7e308)]


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: ch.apply_chi(_HUGE_CHI, np.eye(2)), "chi matrix"),
        (lambda: ch.choi_from_chi(_HUGE_CHI), "chi matrix"),
        (lambda: ch.chi_from_choi(_HUGE_CHI), "Choi state"),
        (lambda: ch.apply_kraus(_HUGE_KRAUS, np.eye(2)), "Kraus operator 0"),
        (lambda: ch.chi_from_kraus(_HUGE_KRAUS), "Kraus operator 0"),
        (
            lambda: ch.apply_affine(ch.AffineMap(np.full((3, 3), 1.7e308), np.zeros(3)), [1, 1, 1]),
            "affine matrix",
        ),
        (lambda: ch.compose_chi(_WIDE_PAIR, _WIDE_PAIR), "chi matrix"),
    ],
    ids=[
        "apply_chi",
        "choi_from_chi",
        "chi_from_choi",
        "apply_kraus",
        "chi_from_kraus",
        "apply_affine",
        "compose_chi",
    ],
)
def test_result_past_the_float_range_is_refused(call, name):
    # Finite input whose result would overflow: the bound refuses the
    # input, by name, before any arithmetic.
    with pytest.raises(ValueError, match=f"^{name}: entries must be finite"):
        call()
