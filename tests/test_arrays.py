"""The one rule for what an array argument accepts: ``errors._array``.

Every matrix, vector and stack argument of the public functions goes
through it, so each rejects booleans, text, objects, NaN, infinity and
entries above the bound of 2**256 in modulus, and complex entries where it
needs real ones, with a ``ValueError`` that names the argument.  Every
square or state operand then goes through the one square check,
``states._square``, which refuses a non-square, 1-D or empty operand with
one message, as a ``ValueError`` too.  The one exception to the error
type: ``check_density_matrix`` and ``von_neumann_entropy`` report every
failure of their state, these included, as ``InvalidStateError``.
"""

import re

import numpy as np
import pytest

from conftest import BOUND_MESSAGE, PAST_BOUND
from qpt import channels as ch
from qpt.errors import _BOUND, InvalidStateError, _array
from qpt.metrics import (
    bures_metric,
    c_metric,
    fidelity,
    matrix_norms,
    process_distance_report,
    trace_distance,
)
from qpt.process_tomography import chi_from_lambda, lambda_from_outputs
from qpt.projection import project_to_physical
from qpt.simulator import ExperimentConfig, run_experiment
from qpt.states import (
    bloch_from_density,
    check_density_matrix,
    density_from_bloch,
    von_neumann_entropy,
)

IDENTITY_CHI = np.diag([1.0, 0.0, 0.0, 0.0])
GROUND = np.diag([1.0, 0.0])
UP = np.array([0.0, 0.0, 1.0])
AFFINE = ch.AffineMap(np.eye(3), np.zeros(3))
KRAUS = np.eye(2)[None]

# (id, call with the probe, a valid template the probes are made from,
# the argument's name in the message, whether it must be real)
ENTRY_POINTS = [
    ("project_to_physical", project_to_physical, IDENTITY_CHI, "chi matrix", False),
    ("apply_chi-chi", lambda x: ch.apply_chi(x, GROUND), IDENTITY_CHI, "chi matrix", False),
    ("apply_chi-rho", lambda x: ch.apply_chi(IDENTITY_CHI, x), GROUND, "rho", False),
    ("choi_from_chi", ch.choi_from_chi, IDENTITY_CHI, "chi matrix", False),
    ("chi_from_choi", ch.chi_from_choi, IDENTITY_CHI, "Choi state", False),
    ("is_completely_positive", ch.is_completely_positive, IDENTITY_CHI, "chi matrix", False),
    ("affine_from_chi", ch.affine_from_chi, IDENTITY_CHI, "chi matrix", False),
    ("apply_kraus-ops", lambda x: ch.apply_kraus(x, GROUND), KRAUS, "Kraus operator 0", False),
    ("apply_kraus-rho", lambda x: ch.apply_kraus(KRAUS, x), GROUND, "rho", False),
    ("chi_from_kraus", ch.chi_from_kraus, KRAUS, "Kraus operator 0", False),
    ("apply_affine", lambda x: ch.apply_affine(AFFINE, x), UP, "Bloch vector", True),
    ("AffineMap-matrix", lambda x: ch.AffineMap(x, np.zeros(3)), np.eye(3), "affine matrix", True),
    ("AffineMap-translation", lambda x: ch.AffineMap(np.eye(3), x), UP, "affine translation", True),
    ("rotation_unitary", lambda x: ch.rotation_unitary(x, 1.0), UP, "axis", True),
    ("density_from_bloch", density_from_bloch, UP, "Bloch vector", True),
    ("bloch_from_density", bloch_from_density, GROUND, "matrix", False),
    ("matrix_norms", matrix_norms, GROUND, "matrix", False),
    ("trace_distance", lambda x: trace_distance(GROUND, x), GROUND, "second state", False),
    ("fidelity", lambda x: fidelity(x, GROUND), GROUND, "first state", False),
    (
        "process_distance_report",
        lambda x: process_distance_report(IDENTITY_CHI, x, ("estimated", "channel")),
        IDENTITY_CHI,
        "channel",
        False,
    ),
    (
        "run_experiment",
        lambda x: run_experiment(ExperimentConfig(t2=100.0), channel=x),
        IDENTITY_CHI,
        "chi matrix",
        False,
    ),
    ("lambda_from_outputs", lambda x: lambda_from_outputs([x] * 4), GROUND, "output 0", False),
    ("chi_from_lambda", chi_from_lambda, np.eye(4), "lambda matrix", False),
    ("check_density_matrix", check_density_matrix, GROUND, "density matrix", False),
    ("von_neumann_entropy", von_neumann_entropy, GROUND, "density matrix", False),
]
# These two report every failure of their state as InvalidStateError.
STATE_ERRORS = {"check_density_matrix", "von_neumann_entropy"}


def _with_first(template, value, dtype):
    probe = np.array(template, dtype=dtype)
    probe.flat[0] = value
    return probe


# Each probe turns a valid template into an array the rule refuses, and
# the start of the message it gets.  Complex entries are refused only
# where real ones are required.
PROBES = {
    "boolean": (lambda t: np.asarray(t) != 0, "must hold"),
    "text": (lambda t: np.asarray(t).astype(str), "must hold"),
    "none": (lambda t: _with_first(t, None, object), "must hold"),
    "nan": (lambda t: _with_first(t, np.nan, float), BOUND_MESSAGE),
    "inf": (lambda t: _with_first(t, np.inf, float), BOUND_MESSAGE),
    "past-bound": (lambda t: _with_first(t, PAST_BOUND, float), BOUND_MESSAGE),
    "minus-past-bound": (lambda t: _with_first(t, -PAST_BOUND, float), BOUND_MESSAGE),
}
COMPLEX_PROBE = (lambda t: _with_first(t, 1.0 + 0.5j, complex), "must hold integers or floats")

CASES = [
    pytest.param(
        call,
        make(template),
        InvalidStateError if entry in STATE_ERRORS else ValueError,
        f"^{name}: {message}",
        id=f"{entry}-{probe}",
    )
    for entry, call, template, name, real in ENTRY_POINTS
    for probe, (make, message) in {**PROBES, **({"complex": COMPLEX_PROBE} if real else {})}.items()
]


@pytest.mark.parametrize("call, probe, error, message", CASES)
def test_entry_points_refuse_non_numeric_arrays(call, probe, error, message):
    with pytest.raises(error, match=message):
        call(probe)


@pytest.mark.parametrize(
    "call, template",
    [pytest.param(call, template, id=entry) for entry, call, template, _, _ in ENTRY_POINTS],
)
def test_templates_are_accepted(call, template):
    # Each probe differs from an accepted input only in what it holds.
    call(template)
    call(np.asarray(template).astype(int))


def _not_square(name, shape):
    """The one refusal of a square or state operand, anchored."""
    return rf"^{name}: expected a nonempty square matrix, got shape {re.escape(str(shape))}$"


# Arrays that hold numbers but have a shape or count the function refuses,
# each with its error and full message.  Every square or state operand is
# refused as non-square, 1-D or empty by the one square check: a two-state
# function names the first operand when both are malformed, the second
# when only it is.
SHAPE_CASES = [
    pytest.param(lambda: ch.apply_kraus([], GROUND), ValueError,
                 r"^Kraus set must contain at least one operator$", id="apply_kraus-empty"),
    pytest.param(lambda: ch.apply_chi(IDENTITY_CHI, np.eye(3)), ValueError,
                 r"^rho: expected a 2x2 operator or a stack of them, got \(3, 3\)$",
                 id="apply_chi-rho-3x3"),
    pytest.param(lambda: fidelity(GROUND, np.eye(3) / 3), ValueError,
                 r"^shape mismatch: \(2, 2\) vs \(3, 3\)$", id="fidelity-mismatch"),
    pytest.param(lambda: bloch_from_density(np.eye(3) / 3), ValueError,
                 r"^matrix: expected shape 2x2, got \(3, 3\)$", id="bloch_from_density-3x3"),
    *[
        pytest.param(lambda f=f, a=a, b=b: f(a, b), ValueError, _not_square(name, shape),
                     id=f"{f.__name__}-{probe}")
        for f in (fidelity, bures_metric, c_metric, trace_distance)
        for probe, a, b, name, shape in (
            ("not-square", np.ones((2, 3)), np.ones((2, 3)), "first state", (2, 3)),
            ("vector", GROUND, np.ones(2), "second state", (2,)),
            ("empty", np.zeros((0, 0)), np.zeros((0, 0)), "first state", (0, 0)),
        )
    ],
    *[
        pytest.param(lambda call=call, m=m: call(m), error, _not_square(name, m.shape),
                     id=f"{entry}-{probe}")
        for entry, call, name, error in (
            ("matrix_norms", matrix_norms, "matrix", ValueError),
            ("check_density_matrix", check_density_matrix, "density matrix", InvalidStateError),
            ("von_neumann_entropy", von_neumann_entropy, "density matrix", InvalidStateError),
        )
        for probe, m in (
            ("not-square", np.ones((2, 3))), ("vector", np.ones(4)), ("empty", np.zeros((0, 0))),
        )
    ],
]


@pytest.mark.parametrize("call, error, message", SHAPE_CASES)
def test_entry_points_refuse_wrong_shapes(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _skewed(template):
    """``template`` plus 0.1 at entry (0, 1): an anti-Hermitian part of
    Frobenius norm ``0.1 / sqrt(2)``, refused with defect 7.071e-02."""
    skewed = np.array(template, dtype=complex)
    skewed[0, 1] += 0.1
    return skewed


SKEWED_DEFECT = r"not Hermitian \(defect 7\.071e-02\)$"
NAN_CHI = np.where(IDENTITY_CHI == 0.0, np.nan, IDENTITY_CHI)
OUTPUTS = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.full((2, 2), 0.5), np.eye(2) / 2.0]

# The single-operand Hermiticity checks: (call, valid operands, the names
# they are converted under, the names of derived arrays the call converts,
# operands with a skewed one, its full refusal).  The compose_chi row
# skewing `first` passes a NaN `then`: `first` is checked before `then` is
# converted.
HERMITIAN_ENTRY_POINTS = [
    pytest.param(bloch_from_density, (GROUND,), ("matrix",), (), (_skewed(GROUND),),
                 "^matrix: " + SKEWED_DEFECT, id="bloch_from_density"),
    pytest.param(ch.kraus_from_chi, (IDENTITY_CHI,), ("chi matrix",), (),
                 (_skewed(IDENTITY_CHI),), "^chi matrix: " + SKEWED_DEFECT, id="kraus_from_chi"),
    pytest.param(ch.compose_chi, (IDENTITY_CHI, IDENTITY_CHI), ("chi matrix", "chi matrix"), (),
                 (_skewed(IDENTITY_CHI), NAN_CHI), "^chi matrix: " + SKEWED_DEFECT,
                 id="compose_chi-first"),
    pytest.param(ch.compose_chi, (IDENTITY_CHI, IDENTITY_CHI), ("chi matrix", "chi matrix"), (),
                 (IDENTITY_CHI, _skewed(IDENTITY_CHI)), "^chi matrix: " + SKEWED_DEFECT,
                 id="compose_chi-then"),
    pytest.param(lambda chi: run_experiment(ExperimentConfig(t2=100.0), channel=chi),
                 (IDENTITY_CHI,), ("chi matrix",), (), (_skewed(IDENTITY_CHI),),
                 "^channel: " + SKEWED_DEFECT, id="run_experiment"),
    pytest.param(lambda *outputs: lambda_from_outputs(outputs), tuple(OUTPUTS),
                 tuple(f"output {j}" for j in range(4)), ("state basis",),
                 (*OUTPUTS[:2], _skewed(OUTPUTS[2]), OUTPUTS[3]),
                 "^output 2: " + SKEWED_DEFECT, id="lambda_from_outputs"),
    # The difference a - b is checked and never converted.
    pytest.param(trace_distance, (GROUND, np.eye(2) / 2.0), ("first state", "second state"), (),
                 (_skewed(GROUND), GROUND), "^difference: " + SKEWED_DEFECT,
                 id="trace_distance"),
]


@pytest.mark.parametrize(
    "call, operands, names, derived, skewed, message", HERMITIAN_ENTRY_POINTS
)
def test_hermiticity_checks_convert_each_operand_once(
    monkeypatch, call, operands, names, derived, skewed, message
):
    # Each operand is a fresh copy, labelled by position; so is everything
    # converted from it.  A conversion of anything else is unlabelled.
    # `kept` holds every labelled array, so no id is reused.
    operands = [np.array(operand) for operand in operands]
    labels = {id(operand): i for i, operand in enumerate(operands)}
    kept, calls = list(operands), []

    def counting(value, name, *args, **kwargs):
        converted = _array(value, name, *args, **kwargs)
        label = labels.get(id(value))
        if label is not None:
            labels[id(converted)] = label
            kept.append(converted)
        calls.append((name, label))
        return converted

    for module in ("states", "metrics", "channels", "process_tomography"):
        monkeypatch.setattr(f"qpt.{module}._array", counting)
    call(*operands)
    labelled = [entry for entry in calls if entry[1] is not None]
    assert labelled == [(name, i) for i, name in enumerate(names)]
    assert {name for name, label in calls if label is None} <= set(derived)
    with pytest.raises(ValueError, match=message):
        call(*skewed)


class TestRule:
    def test_converts_integers_and_floats(self):
        for value in ([1, 2], np.array([1, 2], dtype=np.uint8), np.float32([1, 2])):
            array = _array(value, "x", (2,), real=True)
            assert array.dtype == float
            np.testing.assert_array_equal(array, [1.0, 2.0])
        assert _array([1, 2j], "x").dtype == complex

    def test_valid_arrays_are_not_copied(self):
        array = np.eye(2, dtype=complex)
        assert _array(array, "x", (2, 2)) is array

    @pytest.mark.parametrize(
        "value, shape, real, message",
        [
            (np.eye(3), (4, 4), False, r"^x: expected shape 4x4, got \(3, 3\)$"),
            ([1, 2], (3,), True, r"^x: expected shape 3, got \(2,\)$"),
            ([[1, 2], [3]], None, False, "^x: not an array"),
            (
                [10**400],
                None,
                False,
                "^x: must hold integers, floats or complex numbers, got dtype object$",
            ),
            ([1j], None, True, "^x: must hold integers or floats, got dtype complex128$"),
            (b"12", None, False, "^x: must hold"),
            ([1.0, -np.inf], None, True, f"^x: {BOUND_MESSAGE}$"),
            ([0.0, 1j * PAST_BOUND], None, False, f"^x: {BOUND_MESSAGE}$"),
            ([_BOUND * (0.8 + 0.8j)], None, False, f"^x: {BOUND_MESSAGE}$"),
        ],
        ids=[
            "shape", "vector-shape", "ragged", "huge-integer", "complex", "bytes",
            "minus-inf", "imaginary-past-bound", "modulus-past-bound",
        ],
    )
    def test_rejects(self, value, shape, real, message):
        with pytest.raises(ValueError, match=message):
            _array(value, "x", shape, real=real)

    @pytest.mark.parametrize(
        "value",
        [[_BOUND, -_BOUND], [1j * _BOUND, -_BOUND + 0j], [], np.zeros((0, 2, 2))],
        ids=["real", "complex", "empty", "empty-stack"],
    )
    def test_accepts_entries_at_the_bound(self, value):
        np.testing.assert_array_equal(_array(value, "x"), value)
