"""The one magnitude bound at the input boundary: ``errors._BOUND``.

Every array a public function takes goes through ``errors._array`` and
every expectation value through ``ExpectationRecord``; each refuses an
entry whose modulus is above 2**256 with a ``ValueError`` that names the
input.  Below the bound no intermediate overflows, so entries at it pass
through every public function with no warning and no non-finite output.
"""

import dataclasses
import math
import numbers
import warnings

import numpy as np
import pytest

import qpt
from conftest import PAST_BOUND
from qpt.errors import _BOUND, InvalidStateError

B = _BOUND
# A Hermitian chi with every entry's modulus at the bound, in both signs
# and in real and imaginary parts, and the same for 2x2 states, Kraus
# operators, Bloch vectors and affine maps.  The PSD chi is diagonal: the
# CP tolerance is absolute (1e-9), and the round-off of a spectrum at the
# bound is near 1e62.
CHI = B * np.array([[1, -1, 1j, -1], [-1, -1, 1, -1j], [-1j, 1, 1, 1], [-1, 1j, 1, -1]])
PSD = B * np.diag([1.0, 1.0, 0.0, 1.0])
STATE = B * np.array([[1, -1j], [1j, -1]])
KRAUS = [B * np.array([[1, -1], [1j, -1j]]), B * np.eye(2)]
VECTOR = B * np.array([1.0, -1.0, 1.0])
SIGNS = np.array([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
AFFINE = qpt.AffineMap(B * SIGNS, VECTOR)
CONFIG = qpt.ExperimentConfig(t2=100.0, shots=1000, seed=3)


def record_sets(value):
    return [
        [qpt.ExpectationRecord(axis, sign * value) for axis, sign in zip("xyz", signs)]
        for signs in ((1, -1, 1), (-1, -1, 1), (1, 1, -1), (-1, 1, -1))
    ]


def _projection():
    result = qpt.project_to_physical(CHI)
    return result, qpt.projection_report(CHI, result)


def _estimate():
    estimate = qpt.run_process_tomography(record_sets(B))
    return (
        estimate.chi, estimate.affine, estimate.cp_min_eigenvalue, estimate.tp_deficit,
        estimate.physical, qpt.ProcessEstimate(CHI).affine,
    )


# Each public function and constructor of ``qpt.__all__`` that takes an
# array or an expectation value, called with entries at the bound.
AT_BOUND = {
    "AffineMap": lambda: qpt.AffineMap(B * SIGNS, -VECTOR)(VECTOR),
    "affine_from_chi": lambda: qpt.affine_from_chi(CHI),
    "apply_affine": lambda: qpt.apply_affine(AFFINE, VECTOR),
    "apply_chi": lambda: (qpt.apply_chi(CHI, STATE), qpt.apply_chi(CHI, np.stack([STATE] * 3))),
    "apply_kraus": lambda: qpt.apply_kraus(KRAUS, STATE),
    "chi_from_affine": lambda: qpt.chi_from_affine(AFFINE),
    "chi_from_choi": lambda: qpt.chi_from_choi(CHI),
    "chi_from_kraus": lambda: qpt.chi_from_kraus(KRAUS),
    "choi_from_chi": lambda: qpt.choi_from_chi(CHI),
    "compose_chi": lambda: qpt.compose_chi(CHI, CHI),
    "is_completely_positive": lambda: qpt.is_completely_positive(CHI),
    "is_trace_preserving": lambda: qpt.is_trace_preserving(CHI),
    "kraus_from_chi": lambda: qpt.kraus_from_chi(PSD),
    "standard_channel": lambda: qpt.standard_channel("unitary_rotation", axis=VECTOR, angle=B),
    "DiscrepancyReport": lambda: qpt.DiscrepancyReport.from_difference(CHI, ("a", "b")),
    "bures_metric": lambda: qpt.bures_metric(STATE, STATE),
    "c_metric": lambda: qpt.c_metric(STATE, STATE),
    "fidelity": lambda: qpt.fidelity(STATE, STATE),
    "matrix_norms": lambda: qpt.matrix_norms(CHI),
    "process_distance_report": lambda: (
        qpt.process_distance_report(CHI, -CHI),
        qpt.process_distance_report(PSD / (4.0 * B), qpt.standard_channel("identity")),
    ),
    "trace_distance": lambda: qpt.trace_distance(STATE, -STATE),
    "ProcessEstimate": _estimate,
    "run_process_tomography": _estimate,
    "project_to_physical": lambda: _projection()[0],
    "projection_report": lambda: _projection()[1],
    "MeasurementRecord": lambda: qpt.MeasurementRecord(1, tuple(record_sets(B)[0]), CONFIG),
    "run_experiment": lambda: qpt.run_experiment(CONFIG, channel=np.diag([B, 0, 0, 0])),
    "bloch_from_density": lambda: qpt.bloch_from_density(STATE),
    "density_from_bloch": lambda: qpt.density_from_bloch(VECTOR),
    "von_neumann_entropy": lambda: qpt.von_neumann_entropy(STATE),
    "ExpectationRecord": lambda: (qpt.ExpectationRecord("x", B), qpt.ExpectationRecord("z", -B)),
    "reconstruct_state": lambda: qpt.reconstruct_state(record_sets(B)[0]),
}
# A call whose input is outside its function's domain for a reason other
# than size: a matrix at the bound is no state.
DOMAIN_ERRORS = {
    "bures_metric": (InvalidStateError, "^first state: trace"),
    "c_metric": (InvalidStateError, "^first state: trace"),
    "fidelity": (InvalidStateError, "^first state: trace"),
    "density_from_bloch": (InvalidStateError, "^Bloch vector norm"),
    "von_neumann_entropy": (InvalidStateError, "^density matrix: trace"),
}
# Exports that take no array and no expectation value: results, the
# simulator's own configuration (whose fields keep their own rules) and
# the exception types.
NO_ARRAY_INPUT = {
    "ProcessComparison", "ProjectionResult", "StateEstimate", "ExperimentConfig",
    "PRESETS", "preset_config", "true_channel", "input_basis",
    "ConfigError", "InvalidStateError", "NonConvergenceError",
    "NotCompletelyPositiveError", "QptError",
}


def numbers_in(value):
    """Every real number ``value`` holds, through containers, arrays,
    dataclasses and named tuples."""
    if isinstance(value, (bool, str, type(None), qpt.ExperimentConfig)):
        # A config's fields keep their own rules: t1 may be infinite.
        return
    if isinstance(value, numbers.Number):
        yield from (value.real, value.imag) if isinstance(value, complex) else (value,)
    elif isinstance(value, np.ndarray):
        yield from np.asarray(value, dtype=complex).view(float).ravel().tolist()
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from numbers_in(getattr(value, field.name))
    elif isinstance(value, dict):
        for item in value.values():
            yield from numbers_in(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from numbers_in(item)
    else:
        raise TypeError(f"no numbers read from {type(value).__name__}")


def test_every_export_is_covered():
    assert set(AT_BOUND) | NO_ARRAY_INPUT == set(qpt.__all__)
    assert not set(AT_BOUND) & NO_ARRAY_INPUT


@pytest.mark.parametrize("name", sorted(AT_BOUND))
def test_entries_at_the_bound_pass(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if name in DOMAIN_ERRORS:
            error, message = DOMAIN_ERRORS[name]
            with pytest.raises(error, match=message):
                AT_BOUND[name]()
            return
        result = AT_BOUND[name]()
    values = list(numbers_in(result))
    assert values and all(math.isfinite(value) for value in values)


def test_a_channel_whose_records_pass_the_bound_is_refused_by_the_records():
    # Exact expectations of a chi at the bound can exceed it; the records
    # refuse them by name, as a records document holding them is refused.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^value must be finite and at most 2"):
            qpt.run_experiment(qpt.ExperimentConfig(t2=100.0), channel=CHI)


def _past(array):
    """``array`` with its first entry moved just past the bound."""
    probe = np.array(array, dtype=complex)
    probe.flat[0] = PAST_BOUND
    return probe


# Each entry point that takes an array or an expectation value, with one
# entry just past the bound, and the name its refusal starts with.
PAST_THE_BOUND = {
    "AffineMap": (lambda: qpt.AffineMap(_past(SIGNS).real, VECTOR), "affine matrix"),
    "affine_from_chi": (lambda: qpt.affine_from_chi(_past(CHI)), "chi matrix"),
    "apply_affine": (lambda: qpt.apply_affine(AFFINE, _past(VECTOR).real), "Bloch vector"),
    "apply_chi": (lambda: qpt.apply_chi(CHI, _past(STATE)), "rho"),
    "apply_kraus": (lambda: qpt.apply_kraus([_past(KRAUS[0])], STATE), "Kraus operator 0"),
    "chi_from_choi": (lambda: qpt.chi_from_choi(_past(CHI)), "Choi state"),
    "chi_from_kraus": (
        lambda: qpt.chi_from_kraus(KRAUS[:1] + [_past(KRAUS[1])]),
        "Kraus operator 1",
    ),
    "choi_from_chi": (lambda: qpt.choi_from_chi(_past(CHI)), "chi matrix"),
    "compose_chi": (lambda: qpt.compose_chi(CHI, _past(CHI)), "chi matrix"),
    "is_completely_positive": (lambda: qpt.is_completely_positive(_past(CHI)), "chi matrix"),
    "is_trace_preserving": (lambda: qpt.is_trace_preserving(_past(CHI)), "chi matrix"),
    "kraus_from_chi": (lambda: qpt.kraus_from_chi(_past(PSD)), "chi matrix"),
    "standard_channel": (
        lambda: qpt.standard_channel("unitary_rotation", axis=_past(VECTOR).real, angle=1.0),
        "axis",
    ),
    "DiscrepancyReport": (
        lambda: qpt.DiscrepancyReport.from_difference(_past(CHI), ("a", "b")),
        "matrix",
    ),
    "fidelity": (lambda: qpt.fidelity(STATE, _past(STATE)), "second state"),
    "bures_metric": (lambda: qpt.bures_metric(_past(STATE), STATE), "first state"),
    "c_metric": (lambda: qpt.c_metric(_past(STATE), STATE), "first state"),
    "matrix_norms": (lambda: qpt.matrix_norms(_past(CHI)), "matrix"),
    "process_distance_report": (
        lambda: qpt.process_distance_report(CHI, _past(CHI), ("estimate", "truth")),
        "truth",
    ),
    "trace_distance": (lambda: qpt.trace_distance(_past(STATE), STATE), "first state"),
    "project_to_physical": (lambda: qpt.project_to_physical(_past(CHI)), "chi matrix"),
    "projection_report": (
        lambda: qpt.projection_report(_past(CHI), qpt.project_to_physical(CHI)),
        "chi matrix",
    ),
    "run_experiment": (lambda: qpt.run_experiment(CONFIG, channel=_past(PSD)), "chi matrix"),
    "bloch_from_density": (lambda: qpt.bloch_from_density(_past(STATE)), "matrix"),
    "density_from_bloch": (lambda: qpt.density_from_bloch(_past(VECTOR).real), "Bloch vector"),
    # A record is refused when it is built, before any function reads it.
    "ExpectationRecord": (lambda: qpt.ExpectationRecord("y", -PAST_BOUND), "value"),
    "run_process_tomography": (
        lambda: qpt.run_process_tomography(record_sets(PAST_BOUND)),
        "value",
    ),
    "reconstruct_state": (lambda: qpt.reconstruct_state(record_sets(PAST_BOUND)[2]), "value"),
}


@pytest.mark.parametrize("name", sorted(PAST_THE_BOUND))
def test_entries_past_the_bound_are_refused(name):
    call, input_name = PAST_THE_BOUND[name]
    with pytest.raises(ValueError, match=f"^{input_name}:? .*at most 2\\*\\*256 in modulus"):
        call()


def test_states_report_the_bound_as_an_invalid_state():
    # check_density_matrix reports every failure of its state as an
    # InvalidStateError, the bound included.
    with pytest.raises(InvalidStateError, match="^density matrix: entries must be finite"):
        qpt.von_neumann_entropy(_past(STATE))
