"""State reconstruction from expectation records."""

import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    PAST_BOUND,
    KET_0,
    exhaustive_ball_minimum,
    is_valid_density_matrix,
    loop_reconstruct_state,
    projector,
)
from qpt import states
from qpt.errors import _BOUND, _BOUND_RULE
from qpt.state_tomography import AXES, ExpectationRecord, reconstruct_state

VALUE_RULE = re.escape(_BOUND_RULE)

IN_BALL = st.floats(-0.577, 0.577, allow_nan=False)


def records_for(x=None, y=None, z=None, shots=None):
    values = {"x": x, "y": y, "z": z}
    return [
        ExpectationRecord(axis=a, value=v, shots=shots)
        for a, v in values.items()
        if v is not None
    ]


class TestExpectationRecord:
    def test_accepts_exact_and_sampled(self):
        assert ExpectationRecord("x", 0.5).shots is None
        assert ExpectationRecord("z", -1.0, shots=100).shots == 100

    def test_coerces_numeric_types(self):
        record = ExpectationRecord("y", np.float64(0.25), shots=np.int64(7))
        assert isinstance(record.value, float)
        assert isinstance(record.shots, int)

    def test_numpy_scalars_become_python_numbers(self):
        record = ExpectationRecord("x", np.float64(-0.5), shots=np.int64(3))
        assert type(record.value) is float and record.value == -0.5
        assert type(record.shots) is int and record.shots == 3

    def test_python_numbers_kept_as_given(self):
        value, shots = 0.125, 2**40
        record = ExpectationRecord("z", value, shots=shots)
        assert record.value is value and record.shots is shots

    def test_slotted_record_copies(self):
        record = ExpectationRecord("y", np.float64(0.75), shots=np.int64(100))
        assert not hasattr(record, "__dict__")
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert clone == record
        changed = dataclasses.replace(record, value=np.float64(-1.0))
        assert type(changed.value) is float and changed.value == -1.0
        assert dataclasses.asdict(record) == {"axis": "y", "value": 0.75, "shots": 100}
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.value = 0.0
        with pytest.raises(ValueError, match=f"^value {VALUE_RULE}, got inf$"):
            dataclasses.replace(record, value=math.inf)

    def test_value_bound(self):
        # The one magnitude bound: a value up to 2**256 in modulus is kept
        # as given; past it, and NaN or infinity, is refused by name.
        for value in (_BOUND, -_BOUND, 2**256):
            assert ExpectationRecord("z", value).value == value
        for value in (PAST_BOUND, -PAST_BOUND, math.nan, -math.inf, 2**257):
            with pytest.raises(ValueError, match=f"^value {VALUE_RULE}, got "):
                ExpectationRecord("z", value)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            ExpectationRecord("w", 0.0)

    def test_rejects_non_finite_value(self):
        with pytest.raises(ValueError, match="finite"):
            ExpectationRecord("x", math.nan)

    def test_rejects_nonpositive_shots(self):
        with pytest.raises(ValueError, match="shots"):
            ExpectationRecord("x", 0.0, shots=0)

    @pytest.mark.parametrize("shots", [100.7, 1.0, True, "100", np.bool_(True)])
    def test_rejects_non_integral_shots(self, shots):
        with pytest.raises(ValueError, match="^shots must be an integer"):
            ExpectationRecord("x", 0.0, shots=shots)

    @pytest.mark.parametrize(
        "value",
        [True, np.bool_(True), "0.5", pytest.param(10**400, id="huge-integer"), 0.5j],
    )
    def test_rejects_non_number_value(self, value):
        with pytest.raises(ValueError, match="^value must be a number"):
            ExpectationRecord("x", value)


class TestReconstructState:
    def test_consistent_full_data(self):
        estimate = reconstruct_state(records_for(x=0.3, y=-0.2, z=0.5))
        assert estimate.complete
        assert estimate.residual == 0.0
        np.testing.assert_allclose(estimate.bloch, [0.3, -0.2, 0.5])
        np.testing.assert_allclose(
            estimate.rho, states.density_from_bloch([0.3, -0.2, 0.5]), atol=1e-15
        )

    def test_partial_data_leaves_rest_zero(self):
        # Unmeasured components stay at zero, the entropy-maximizing choice.
        estimate = reconstruct_state(records_for(z=0.4))
        assert not estimate.complete
        np.testing.assert_allclose(estimate.bloch, [0.0, 0.0, 0.4])
        assert estimate.residual == 0.0

    def test_inconsistent_data_projected_radially(self):
        estimate = reconstruct_state(records_for(x=1.0, y=1.0, z=1.0))
        np.testing.assert_allclose(estimate.bloch, np.ones(3) / math.sqrt(3.0), atol=1e-12)
        assert estimate.residual == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-12)
        assert is_valid_density_matrix(estimate.rho)

    def test_single_axis_overshoot(self):
        estimate = reconstruct_state(records_for(z=2.0))
        np.testing.assert_allclose(estimate.bloch, [0.0, 0.0, 1.0], atol=1e-12)
        assert estimate.residual == pytest.approx(1.0)
        assert estimate.entropy == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_zero_entropy(self):
        estimate = reconstruct_state(records_for(x=0.0, y=0.0, z=1.0))
        np.testing.assert_allclose(estimate.rho, projector(KET_0), atol=1e-15)
        assert estimate.entropy == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_entropy(self):
        estimate = reconstruct_state(records_for(x=0.0, y=0.0, z=0.0))
        assert estimate.entropy == pytest.approx(math.log(2.0), abs=1e-12)

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            reconstruct_state([ExpectationRecord("x", 0.1), ExpectationRecord("x", 0.2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            reconstruct_state([])

    def test_non_record_rejected(self):
        with pytest.raises(TypeError, match="ExpectationRecord"):
            reconstruct_state([("x", 0.1)])

    @given(x=IN_BALL, y=IN_BALL, z=IN_BALL)
    def test_in_ball_values_recovered_exactly(self, x, y, z):
        estimate = reconstruct_state(records_for(x=x, y=y, z=z))
        np.testing.assert_allclose(estimate.bloch, [x, y, z], atol=1e-15)
        assert estimate.residual == 0.0
        assert is_valid_density_matrix(estimate.rho)

    @given(scale=st.floats(1.1, 20.0), z=st.floats(0.1, 1.0))
    def test_always_physical(self, scale, z):
        estimate = reconstruct_state(records_for(x=scale, y=-scale, z=scale * z))
        assert is_valid_density_matrix(estimate.rho)
        assert np.linalg.norm(estimate.bloch) <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "case, residual",
        [
            ({"x": 1e308, "y": 1e308}, math.sqrt(2.0) * 1e308 - 1.0),
            ({"x": -1e308, "z": 1e-300}, 1e308 - 1.0),
            ({"x": 1e200, "y": -1e200, "z": 1e200}, math.sqrt(3.0) * 1e200 - 1.0),
        ],
        ids=["two-at-1e308", "huge-and-tiny", "three-at-1e200"],
    )
    def test_huge_values_do_not_overflow(self, case, residual):
        # Past the bound the records are refused; rescaled so that the
        # largest is at the bound, the estimate is the unit direction and
        # the residual is finite.
        with pytest.raises(ValueError, match=f"^value {VALUE_RULE}, got "):
            records_for(**case)
        largest = max(map(abs, case.values()))
        case = {axis: value / largest * _BOUND for axis, value in case.items()}
        residual = (residual + 1.0) / largest * _BOUND - 1.0
        estimate = reconstruct_state(records_for(**case))
        direction = np.array([case.get(axis, 0.0) for axis in AXES]) / _BOUND
        np.testing.assert_allclose(
            estimate.bloch, direction / np.linalg.norm(direction), atol=1e-15
        )
        assert np.linalg.norm(estimate.bloch) == pytest.approx(1.0, abs=1e-15)
        assert math.isfinite(estimate.residual)
        assert estimate.residual == pytest.approx(residual, rel=1e-15)
        assert is_valid_density_matrix(estimate.rho)

    def test_residual_beyond_float_range_rejected(self):
        # Refused at the records, whose bound keeps every residual finite.
        with pytest.raises(ValueError, match=f"^value {VALUE_RULE}, got 1.7e\\+308$"):
            reconstruct_state(records_for(x=1.7e308, y=1.7e308, z=1.7e308))
        estimate = reconstruct_state(records_for(x=_BOUND, y=_BOUND, z=_BOUND))
        assert estimate.residual == pytest.approx(math.sqrt(3.0) * _BOUND, rel=1e-15)


class TestAgainstDirectMinimization:
    """The closed-form rule must agree with a brute-force grid minimization."""

    CASES = [
        {"x": 0.9, "y": 0.9, "z": 0.0},
        {"x": 1.2, "z": -0.4},
        {"z": 1.5},
        {"x": -0.8, "y": 0.7, "z": 0.6},
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_penalized_minimizer(self, case):
        estimate = reconstruct_state(records_for(**case))
        target = np.array([case.get(axis, 0.0) for axis in AXES])
        measured = tuple(axis in case for axis in AXES)
        grid_best = exhaustive_ball_minimum(target, measured)
        grid_residual = float(np.linalg.norm((grid_best - target)[list(measured)]))
        # The closed form is never worse than the grid, and lands on its argmin.
        assert estimate.residual <= grid_residual + 1e-12
        assert np.linalg.norm(grid_best - estimate.bloch) <= 0.01


ANY_VALUE = st.one_of(
    st.none(),
    st.floats(-2.0, 2.0, allow_nan=False),
    st.floats(-_BOUND, _BOUND, allow_nan=False),
    st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False),
)


class TestAgainstLoopOracle:
    @given(x=ANY_VALUE, y=ANY_VALUE, z=ANY_VALUE)
    def test_single_state(self, x, y, z):
        if any(value is not None and abs(value) > _BOUND for value in (x, y, z)):
            with pytest.raises(ValueError, match=f"^value {VALUE_RULE}, got "):
                records_for(x=x, y=y, z=z)
            return
        records = records_for(x=x, y=y, z=z)
        if not records:
            return
        old = loop_reconstruct_state(records)
        new = reconstruct_state(records)
        np.testing.assert_allclose(new.bloch, old.bloch, rtol=0, atol=1e-15)
        np.testing.assert_allclose(new.rho, old.rho, rtol=0, atol=1e-15)
        assert new.residual == pytest.approx(old.residual, rel=1e-15, abs=1e-15)
        assert new.entropy == pytest.approx(old.entropy, rel=0, abs=1e-12)
        assert new.complete == old.complete
