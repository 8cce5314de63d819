"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qpt.errors import _BOUND, _BOUND_RULE

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# The array rule's refusal of an entry past the bound, as a pattern to
# follow the argument's name; and the smallest float it refuses.
BOUND_MESSAGE = re.escape(f"entries {_BOUND_RULE}")
PAST_BOUND = float(np.nextafter(_BOUND, math.inf))


def load_script(name):
    """A script under ``scripts/`` imported as a module, its ``main`` not run."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    """Queue a criterion verdict for the end-of-run summary block."""
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


KET_0 = np.array([1.0, 0.0], dtype=complex)
KET_1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
KET_PLUS_I = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)


def projector(ket: np.ndarray) -> np.ndarray:
    """Return |ket><ket| for a (not necessarily normalized) state vector."""
    ket = np.asarray(ket, dtype=complex)
    norm = np.linalg.norm(ket)
    if norm == 0.0:
        raise ValueError("cannot project onto the zero vector")
    ket = ket / norm
    return np.outer(ket, ket.conj())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260822)


@pytest.fixture(scope="module")
def noisy_estimates() -> list[np.ndarray]:
    """36 seeded estimates: three paper presets, three shot counts, four seeds."""
    from qpt import ExperimentConfig, run_experiment, run_process_tomography

    return [
        run_process_tomography(
            run_experiment(
                ExperimentConfig(
                    t2=100.0, decoherence_time=interval, shots=shots, seed=seed
                )
            )
        ).chi
        for interval in (20.0, 40.0, 80.0)
        for shots in (100, 1000, 10000)
        for seed in range(4)
    ]


def random_bloch_vector(rng: np.random.Generator, radius: float = 1.0) -> np.ndarray:
    """Uniform direction, radius scaled toward the surface (cube-root law)."""
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    return direction * radius * rng.random() ** (1.0 / 3.0)


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Full-rank 2x2 state from a normalized Wishart draw."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    w = g @ g.conj().T
    return w / w.trace()


def random_kraus_set(rng: np.random.Generator, count: int = 3) -> list[np.ndarray]:
    """Random CPTP Kraus set: Gaussian operators renormalized to completeness."""
    ops = [
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for _ in range(count)
    ]
    total = sum(k.conj().T @ k for k in ops)
    values, vectors = np.linalg.eigh(total)
    inv_root = (vectors / np.sqrt(values)) @ vectors.conj().T
    return [k @ inv_root for k in ops]


def random_cptp_chi(rng: np.random.Generator, count: int = 3) -> np.ndarray:
    from qpt.channels import chi_from_kraus

    return chi_from_kraus(random_kraus_set(rng, count))


def random_frame(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The chi matrices ``(U, V)`` of two random rotations, a frame for
    :func:`in_frame`."""
    from qpt.channels import standard_channel

    return tuple(
        standard_channel(
            "unitary_rotation", axis=rng.standard_normal(3), angle=rng.uniform(-math.pi, math.pi)
        )
        for _ in range(2)
    )


def in_frame(chi: np.ndarray, frame: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The chi of ``V o E o U`` for the map ``E`` of ``chi`` and ``frame = (U, V)``."""
    from qpt.channels import compose_chi

    u, v = frame
    return compose_chi(compose_chi(u, chi), v)


def hermiticity_defect(m) -> float:
    """Frobenius norm of the anti-Hermitian part ``(m - m^dag) / 2``, in
    plain numpy: the test-side measure of a defect."""
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.norm((m - m.conj().T) / 2.0))


def is_valid_density_matrix(rho: np.ndarray) -> bool:
    """A 2x2 Hermitian, unit-trace, PSD matrix within the ``qpt.states`` tolerances."""
    from qpt.errors import InvalidStateError
    from qpt.states import check_density_matrix

    if np.shape(rho) != (2, 2):
        return False
    try:
        check_density_matrix(rho)
    except InvalidStateError:
        return False
    return True


def expand_in_operation_basis(m: np.ndarray) -> np.ndarray:
    """Coefficients c with ``m = sum_m c[m] A_m`` (c[m] = tr(A_m^dag m)/2)."""
    from qpt.states import OPERATION_ELEMENTS

    return np.einsum("mij,ij->m", np.conj(OPERATION_ELEMENTS), m) / 2.0


def operator_from_coefficients(c) -> np.ndarray:
    """The operator ``sum_m c[m] A_m`` of coefficients over the operation
    elements."""
    from qpt.states import OPERATION_ELEMENTS

    return np.einsum("m,mij->ij", np.asarray(c, dtype=complex), np.stack(OPERATION_ELEMENTS))


def kraus_completeness_deficit(ops) -> float:
    """Frobenius distance of ``sum_k K_k^dag K_k`` from the identity."""
    total = sum(k.conj().T @ k for k in ops)
    return float(np.linalg.norm(total - np.eye(2)))


def partial_trace_ancilla(state: np.ndarray) -> np.ndarray:
    """Trace out the first tensor factor of a 4x4 bipartite state."""
    return np.asarray(state).reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)


def partial_trace_output(state: np.ndarray) -> np.ndarray:
    """Trace out the second tensor factor of a 4x4 bipartite state."""
    return np.asarray(state).reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)


def exhaustive_ball_minimum(
    target: np.ndarray,
    measured: tuple[bool, bool, bool] = (True, True, True),
    step: float = 0.005,
) -> np.ndarray:
    """Brute-force residual minimizer over a Bloch-ball grid.

    The objective is the squared distance to ``target`` over the
    ``measured`` axes only; unmeasured components of ``target`` are
    ignored.  Among grid points of equal residual the one nearest the
    origin wins, the maximum-entropy tie-break of the estimator.  Scans z
    slices to keep memory flat.
    """
    weights = np.asarray(measured, dtype=float)
    axis = np.arange(-1.0, 1.0 + step / 2.0, step)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    plane = xs**2 + ys**2
    in_plane = weights[0] * (xs - target[0]) ** 2 + weights[1] * (ys - target[1]) ** 2
    best_key = (np.inf, np.inf)
    best_point = np.zeros(3)
    for z in axis:
        inside = plane + z**2 <= 1.0 + 1e-12
        values = np.where(inside, in_plane + weights[2] * (z - target[2]) ** 2, np.inf)
        lowest = values.min()
        flat = int(np.argmin(np.where(values == lowest, plane, np.inf)))
        key = (lowest, plane.flat[flat] + z**2)
        if key < best_key:
            best_key = key
            i, j = np.unravel_index(flat, values.shape)
            best_point = np.array([axis[i], axis[j], z])
    return best_point


def loop_icosphere(subdivisions: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Reference icosphere: one midpoint lookup per edge, one norm per vertex.

    ``qpt.mesh.icosphere`` must return exactly these arrays.
    """
    from qpt.mesh import _BASE_FACES, _BASE_VERTICES

    if subdivisions < 1:
        raise ValueError(f"subdivisions must be at least 1, got {subdivisions}")
    vertices = [v / np.linalg.norm(v) for v in _BASE_VERTICES]
    faces = _BASE_FACES
    for _ in range(subdivisions):
        midpoints: dict[tuple[int, int], int] = {}

        def midpoint(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoints:
                point = vertices[a] + vertices[b]
                vertices.append(point / np.linalg.norm(point))
                midpoints[key] = len(vertices) - 1
            return midpoints[key]

        next_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            next_faces.extend(
                [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
            )
        faces = np.array(next_faces)
    return np.array(vertices), faces


def loop_kraus_from_chi(chi: np.ndarray) -> list:
    """One Kraus operator per kept eigenvector, strongest first: its
    coefficients over the operation elements, one column at a time, scaled
    by the root of its weight.  ``qpt.channels.kraus_from_chi`` must return
    exactly these arrays."""
    half = np.asarray(chi, dtype=complex) / 2.0
    values, vectors = np.linalg.eigh(half + half.conj().T)
    ops = [
        math.sqrt(values[k]) * operator_from_coefficients(vectors[:, k])
        for k in np.argsort(values)[::-1]
        if values[k] >= 1e-12
    ]
    return ops or [np.zeros((2, 2), dtype=complex)]


# Loop oracles: the per-record simulate and reconstruct path that the
# whole-array kernels in ``qpt.simulator``, ``qpt.state_tomography`` and
# ``qpt.process_tomography`` replace.  The kernels must give the same
# records bit for bit and the same estimates to round-off.


def loop_axis_stream(seed: int, input_index: int, axis_index: int) -> np.random.Generator:
    # Counter-based bit generator: the key alone fixes the stream, so the
    # draw for one (input, axis) cell never depends on the others.
    key = np.array(
        [np.uint64(seed % (1 << 64)), np.uint64(input_index * 8 + axis_index)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def loop_sample(config, exact, input_index: int = 0) -> tuple:
    """Records of one input's exact (x, y, z) expectations, one stream at a time."""
    from qpt.state_tomography import AXES, ExpectationRecord

    records = []
    for axis_index, (axis, value) in enumerate(zip(AXES, exact)):
        value = float(value)
        if config.shots is None:
            records.append(ExpectationRecord(axis=axis, value=value, shots=None))
            continue
        p_up = float(np.clip((1.0 + value) / 2.0, 0.0, 1.0))
        stream = loop_axis_stream(config.seed, input_index, axis_index)
        ups = int(stream.binomial(config.shots, p_up))
        sampled = (2.0 * ups - config.shots) / config.shots
        records.append(ExpectationRecord(axis=axis, value=sampled, shots=config.shots))
    return tuple(records)


def loop_coords(rho: np.ndarray) -> np.ndarray:
    """Real Pauli coordinates ``tr(sigma_i rho)`` of one 2x2 operator."""
    from qpt.states import PAULIS

    return np.array([np.trace(pauli @ rho).real for pauli in PAULIS])


def loop_measure(config, rho: np.ndarray, input_index: int = 0) -> tuple:
    """Pauli expectations of one state, one record and one stream at a time."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 state, got {rho.shape}")
    return loop_sample(config, loop_coords(rho)[1:], input_index)


def _loop_channel(config, channel):
    from qpt.simulator import true_channel

    chi = true_channel(config) if channel is None else np.asarray(channel, dtype=complex)
    if chi.shape != (4, 4):
        raise ValueError(f"channel must be a 4x4 coefficient matrix, got {chi.shape}")
    return chi


def loop_run_experiment(config, channel: np.ndarray | None = None) -> list:
    """All four inputs, prepared, mapped through the channel's transfer
    matrix and measured one after another."""
    from qpt.channels import _transfer
    from qpt.simulator import INPUT_COUNT, MeasurementRecord, prepare_input

    rows = _transfer(_loop_channel(config, channel))[1:]
    results = []
    for index in range(1, INPUT_COUNT + 1):
        coords = loop_coords(prepare_input(config, index))
        exact = np.einsum("ij,j->i", rows, coords)
        records = loop_sample(config, exact, input_index=index)
        results.append(
            MeasurementRecord(input_index=index, records=records, config=config)
        )
    return results


def evolved_run_experiment(config, channel: np.ndarray | None = None) -> list:
    """All four inputs, prepared, evolved as density matrices through
    ``apply_chi`` and measured one after another."""
    from qpt.channels import apply_chi
    from qpt.simulator import INPUT_COUNT, MeasurementRecord, prepare_input

    chi = _loop_channel(config, channel)
    return [
        MeasurementRecord(
            input_index=index,
            records=loop_measure(
                config, apply_chi(chi, prepare_input(config, index)), index
            ),
            config=config,
        )
        for index in range(1, INPUT_COUNT + 1)
    ]


def loop_measured(records) -> dict:
    """The measured value of each axis in a record set."""
    from qpt.state_tomography import ExpectationRecord

    measured = {}
    for record in records:
        if not isinstance(record, ExpectationRecord):
            raise TypeError(f"expected ExpectationRecord, got {type(record).__name__}")
        if record.axis in measured:
            raise ValueError(f"duplicate record for axis {record.axis!r}")
        measured[record.axis] = record.value
    if not measured:
        raise ValueError("at least one expectation record is required")
    return measured


def loop_reconstruct_state(records):
    """One state estimate: dict of measured axes, numpy norms, eigvalsh entropy.

    Record values are at most 2**256 in modulus, so no norm overflows.
    """
    from qpt.state_tomography import AXES, StateEstimate
    from qpt.states import density_from_bloch, von_neumann_entropy

    measured = loop_measured(records)
    target = np.array([measured.get(axis, 0.0) for axis in AXES])
    norm = float(np.linalg.norm(target))
    bloch = target if norm <= 1.0 else target / norm
    mask = np.array([axis in measured for axis in AXES])
    residual = float(np.linalg.norm((bloch - target)[mask]))

    rho = density_from_bloch(bloch)
    return StateEstimate(
        rho=rho,
        bloch=bloch,
        residual=residual,
        entropy=von_neumann_entropy(rho),
        complete=len(measured) == len(AXES),
    )


def loop_expand_in_state_basis(m: np.ndarray, rho_basis=None) -> np.ndarray:
    """Coefficients over the basis by a rank check and a solve per matrix."""
    from qpt.process_tomography import input_basis

    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {m.shape}")
    basis = input_basis() if rho_basis is None else rho_basis
    stack = np.stack([np.asarray(r, dtype=complex) for r in basis])
    system = stack.reshape(4, 4).T
    if np.linalg.matrix_rank(system, tol=1e-10) < 4:
        raise ValueError("state basis is rank deficient and does not span")
    return np.linalg.solve(system, m.reshape(4))


def loop_lambda_from_outputs(outputs, rho_basis=None) -> np.ndarray:
    """Expand the four output states over the input basis, row by row."""
    from qpt.states import HERMITICITY_TOL, TRACE_TOL

    if len(outputs) != 4:
        raise ValueError(f"expected 4 output states, got {len(outputs)}")
    rows = []
    for j, out in enumerate(outputs):
        out = np.asarray(out, dtype=complex)
        if out.shape != (2, 2):
            raise ValueError(f"output {j}: expected a 2x2 matrix, got {out.shape}")
        if not np.all(np.isfinite(out)):
            raise ValueError(f"output {j}: non-finite entries")
        if hermiticity_defect(out) > HERMITICITY_TOL:
            raise ValueError(f"output {j}: not Hermitian")
        if abs(out.trace() - 1.0) > TRACE_TOL:
            raise ValueError(f"output {j}: trace {out.trace():.8f} is not 1")
        rows.append(loop_expand_in_state_basis(out, rho_basis))
    return np.stack(rows)


def loop_chi_from_lambda(lam, rho_basis=None) -> tuple[np.ndarray, float]:
    """Invert lambda through the transfer tensor beta and its pseudoinverse.

    ``A_m rho_j A_n^dag = sum_k beta[(j, k), (m, n)] rho_k`` over the
    operation elements, and ``vec(chi) = pinv(beta) @ vec(lambda)``
    (Nielsen & Chuang, Box 8.5).  Returns the Hermitian part of chi and the
    norm of its anti-Hermitian part.
    """
    from qpt.process_tomography import input_basis
    from qpt.states import OPERATION_ELEMENTS

    lam = np.asarray(lam, dtype=complex)
    basis = input_basis() if rho_basis is None else rho_basis
    stack = np.stack([np.asarray(r, dtype=complex) for r in basis])
    system = stack.reshape(4, 4).T
    if np.linalg.matrix_rank(system, tol=1e-10) < 4:
        raise ValueError("state basis is rank deficient and does not span")
    ops = np.stack(OPERATION_ELEMENTS)
    products = np.einsum("mab,jbc,ndc->jmnad", ops, stack, ops.conj())
    coeffs = np.linalg.solve(system, products.reshape(64, 4).T)  # k, (j, m, n)
    beta = coeffs.reshape(4, 4, 4, 4).transpose(1, 0, 2, 3).reshape(16, 16)
    chi = (np.linalg.pinv(beta, rcond=1e-10) @ lam.reshape(16)).reshape(4, 4)
    anti = (chi - chi.conj().T) / 2.0
    return (chi + chi.conj().T) / 2.0, float(np.linalg.norm(anti))


def loop_run_process_tomography(record_sets):
    """The canonical-basis linear-inversion estimate from the loop oracles.

    Each output is ``(I + r . sigma) / 2`` with ``r`` the measured values,
    zero on unmeasured axes, taken as they are: no output is fitted to the
    Bloch ball.
    """
    from qpt.process_tomography import INPUT_STATE_LABELS, ProcessEstimate
    from qpt.state_tomography import AXES

    if len(record_sets) != 4:
        raise ValueError(
            f"expected records for 4 input states, got {len(record_sets)}"
        )
    outputs = []
    for j, entry in enumerate(record_sets):
        index = getattr(entry, "input_index", j + 1)
        if index != j + 1:
            raise ValueError(
                f"record set {j} is for input_index {index!r}, expected {j + 1}"
            )
        try:
            measured = loop_measured(getattr(entry, "records", entry))
        except (ValueError, TypeError) as exc:
            raise type(exc)(f"input state {j} ({INPUT_STATE_LABELS[j]}): {exc}") from exc
        x, y, z = (measured.get(axis, 0.0) for axis in AXES)
        outputs.append(np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]) / 2.0)

    chi, _ = loop_chi_from_lambda(loop_lambda_from_outputs(outputs))
    return ProcessEstimate(chi=chi)


def loop_project_to_physical(chi, max_iterations: int = 10000):
    """Nearest CPTP process by Dykstra's alternating projections.

    Higham's form for the nearest correlation matrix (Knee et al., PRA 98,
    062336, 2018, for CPTP maps).  The TP set is affine, so only the PSD
    step carries a correction term::

        y <- P_TP(H)
        repeat:  r = y - dS;  x = P_PSD(r);  dS = x - r;  y = P_TP(x)

    It stops when ``y`` is feasible to ``1e-12`` and the last step moved it
    by at most ``1e-13``.  It converges only linearly, so targets far
    outside the CPTP set need thousands of iterations.
    """
    from qpt.channels import _lowest_eigenvalue, _tp_deficit
    from qpt.errors import NonConvergenceError
    from qpt.projection import _DEPOLARIZING, ProjectionResult, _project_tp

    def project_psd(h):
        values, vectors = np.linalg.eigh(h)
        return (vectors * np.maximum(values, 0.0)) @ vectors.conj().T

    chi = np.asarray(chi, dtype=complex)
    target = (chi + chi.conj().T) / 2.0
    y = _project_tp(target)
    correction = np.zeros((4, 4), dtype=complex)
    for iteration in range(1, max_iterations + 1):
        r = y - correction
        x = project_psd(r)
        correction = x - r
        previous, y = y, _project_tp(x)
        converged = (
            np.linalg.norm(y - previous) <= 1e-13
            and _tp_deficit(y) <= 1e-12
            and _lowest_eigenvalue(y) >= -1e-12
        )
        if converged:
            break
    else:
        lowest = _lowest_eigenvalue(y)
        if lowest < 0.0:
            weight = -lowest / (0.25 - lowest)
            y = (1.0 - weight) * y + weight * _DEPOLARIZING

    result = ProjectionResult(
        chi_tilde=y,
        distance=float(np.linalg.norm(y - target)),
        iterations=iteration,
        converged=bool(converged),
    )
    if not converged:
        raise NonConvergenceError(
            f"projection did not converge within {max_iterations} iterations",
            best_result=result,
        )
    return result


# --- comparison oracle ----------------------------------------------------
# Each operand checked and decomposed on its own, in order, with the norm
# block taken from its own SVD: the per-operand formulas the stacked
# comparison must reproduce bit for bit.


def loop_check_density_matrix(rho, eigenvalue_tol: float, context: str):
    """The density-matrix check of one converted square matrix."""
    from qpt.errors import InvalidStateError

    defect = float(np.linalg.norm((rho - rho.conj().T) / 2.0))
    if defect > 1e-8:
        raise InvalidStateError(f"{context}: not Hermitian (defect {defect:.3e})")
    trace = rho.trace()
    if abs(trace - 1.0) > 1e-6:
        raise InvalidStateError(f"{context}: trace {trace:.8f} is not 1")
    values, vectors = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    lowest = float(values[0])
    if lowest < -eigenvalue_tol:
        raise InvalidStateError(f"{context}: negative eigenvalue {lowest:.3e} beyond clamp")
    return values, vectors


def loop_root(rho, context: str) -> np.ndarray:
    from qpt.channels import CP_TOL

    values, vectors = loop_check_density_matrix(rho, CP_TOL, context)
    values = np.clip(values, 0.0, None)
    return vectors * np.sqrt(values / values.sum())


def loop_fidelity(a, b) -> float:
    """Fidelity of two converted states, one root and one SVD at a time."""
    root_a, root_b = loop_root(a, "first state"), loop_root(b, "second state")
    total = float(np.linalg.svd(root_a.conj().T @ root_b, compute_uv=False).sum())
    return min(total * total, 1.0)


def loop_process_distance_report(chi_a, chi_b, context=("a", "b")) -> tuple:
    """``(norms, state block, skip reason)`` of two converted 4x4 operands;
    the norms in ``DiscrepancyReport`` field order, the block as
    ``(trace distance, fidelity, bures, c)`` or ``None``.  The singular
    values of a difference equal to its adjoint bit for bit are the moduli
    of its eigenvalues."""
    from qpt.errors import InvalidStateError

    x = chi_a - chi_b
    absolute = np.abs(x)
    if np.array_equal(x, x.conj().T):
        singular = np.abs(np.linalg.eigh(x)[0])
    else:
        singular = np.linalg.svd(x, compute_uv=False)
    norms = (
        float(absolute.sum(axis=0).max()),
        float(singular.max()),
        float(absolute.sum(axis=1).max()),
        float(np.linalg.norm(x)),
        float(singular.sum() / 2.0),
    )
    try:
        roots = [loop_root(chi, label) for chi, label in zip((chi_a, chi_b), context)]
    except InvalidStateError as error:
        return norms, None, "skipped: unphysical Choi for " + str(error)
    total = float(np.linalg.svd(roots[0].conj().T @ roots[1], compute_uv=False).sum())
    f = min(total * total, 1.0)
    block = (
        norms[4],
        f,
        float(np.sqrt(max(2.0 - 2.0 * np.sqrt(f), 0.0))),
        float(np.sqrt(max(1.0 - f, 0.0))),
    )
    return norms, block, None
