"""Single-qubit process tomography: simulate, reconstruct, project, compare.

The modules are layered bottom-up:

* :mod:`qpt.states` - density matrices, Bloch vectors, Hermitian kernel.
* :mod:`qpt.channels` - chi/Kraus/affine/Choi representations.
* :mod:`qpt.metrics` - state distances and process-discrepancy norms.
* :mod:`qpt.state_tomography` - state estimation from expectations.
* :mod:`qpt.simulator` - the decoherence-interval experiment.
* :mod:`qpt.process_tomography` - linear-inversion chi reconstruction.
* :mod:`qpt.projection` - nearest-CPTP projection.
* :mod:`qpt.io`, :mod:`qpt.mesh`, :mod:`qpt.cli` - artifacts and the
  command-line pipeline.

``import qpt`` loads none of them.  Each name in ``__all__`` is imported
from the module that defines it on first access (``qpt.run_experiment``,
``from qpt import run_experiment``), which loads that module and the
modules it imports, and is then kept here.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each export and the module that defines it.
_EXPORTS = {
    "AffineMap": "channels",
    "affine_from_chi": "channels",
    "apply_affine": "channels",
    "apply_chi": "channels",
    "apply_kraus": "channels",
    "chi_from_affine": "channels",
    "chi_from_choi": "channels",
    "chi_from_kraus": "channels",
    "choi_from_chi": "channels",
    "compose_chi": "channels",
    "is_completely_positive": "channels",
    "is_trace_preserving": "channels",
    "kraus_from_chi": "channels",
    "standard_channel": "channels",
    "ConfigError": "errors",
    "InvalidStateError": "errors",
    "NonConvergenceError": "errors",
    "NotCompletelyPositiveError": "errors",
    "QptError": "errors",
    "DiscrepancyReport": "metrics",
    "ProcessComparison": "metrics",
    "bures_metric": "metrics",
    "c_metric": "metrics",
    "fidelity": "metrics",
    "matrix_norms": "metrics",
    "process_distance_report": "metrics",
    "trace_distance": "metrics",
    "ProcessEstimate": "process_tomography",
    "input_basis": "process_tomography",
    "run_process_tomography": "process_tomography",
    "ProjectionResult": "projection",
    "project_to_physical": "projection",
    "projection_report": "projection",
    "ExperimentConfig": "simulator",
    "MeasurementRecord": "simulator",
    "PRESETS": "simulator",
    "preset_config": "simulator",
    "run_experiment": "simulator",
    "true_channel": "simulator",
    "bloch_from_density": "states",
    "density_from_bloch": "states",
    "von_neumann_entropy": "states",
    "ExpectationRecord": "state_tomography",
    "StateEstimate": "state_tomography",
    "reconstruct_state": "state_tomography",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
