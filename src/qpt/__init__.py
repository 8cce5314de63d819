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
"""

from .channels import (
    AffineMap,
    affine_from_chi,
    apply_affine,
    apply_chi,
    apply_kraus,
    chi_from_affine,
    chi_from_choi,
    chi_from_kraus,
    choi_from_chi,
    compose_chi,
    is_completely_positive,
    is_trace_preserving,
    kraus_from_chi,
    standard_channel,
)
from .errors import (
    ConfigError,
    InvalidStateError,
    NonConvergenceError,
    NotCompletelyPositiveError,
    QptError,
)
from .metrics import (
    DiscrepancyReport,
    ProcessComparison,
    bures_metric,
    c_metric,
    fidelity,
    matrix_norms,
    process_distance_report,
    trace_distance,
)
from .process_tomography import (
    ProcessEstimate,
    input_basis,
    run_process_tomography,
)
from .projection import (
    ProjectionResult,
    project_to_physical,
    projection_report,
)
from .simulator import (
    ExperimentConfig,
    MeasurementRecord,
    PRESETS,
    preset_config,
    run_experiment,
    true_channel,
)
from .states import (
    bloch_from_density,
    density_from_bloch,
    von_neumann_entropy,
)
from .state_tomography import (
    ExpectationRecord,
    StateEstimate,
    reconstruct_state,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "ConfigError",
    "DiscrepancyReport",
    "ExpectationRecord",
    "ExperimentConfig",
    "InvalidStateError",
    "MeasurementRecord",
    "NonConvergenceError",
    "NotCompletelyPositiveError",
    "PRESETS",
    "ProcessComparison",
    "ProcessEstimate",
    "ProjectionResult",
    "QptError",
    "StateEstimate",
    "affine_from_chi",
    "apply_affine",
    "apply_chi",
    "apply_kraus",
    "bloch_from_density",
    "bures_metric",
    "c_metric",
    "chi_from_affine",
    "chi_from_choi",
    "chi_from_kraus",
    "choi_from_chi",
    "compose_chi",
    "density_from_bloch",
    "fidelity",
    "input_basis",
    "is_completely_positive",
    "is_trace_preserving",
    "kraus_from_chi",
    "matrix_norms",
    "preset_config",
    "process_distance_report",
    "project_to_physical",
    "projection_report",
    "reconstruct_state",
    "run_experiment",
    "run_process_tomography",
    "standard_channel",
    "trace_distance",
    "true_channel",
    "von_neumann_entropy",
]
