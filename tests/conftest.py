"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260822)


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
