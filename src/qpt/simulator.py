"""Deterministic simulation of the decoherence-interval experiment.

One run prepares each of the four tomographic input states with a short
control pulse, lets the qubit decohere for a configurable interval under
combined dephasing (t2) and amplitude damping (t1), and measures the three
Pauli expectations of the output.  Shot noise is sampled from counter-based
streams keyed by ``(seed, input index, axis)``, so any record is
reproducible in isolation: re-running a single input state with the same
seed yields bit-identical values regardless of execution order.

A run is computed as whole arrays over the four inputs: the prepared
inputs are cached per ``(polarization, pulse_error)``, the channel maps
all four in one contraction, all twelve expectations come from a second
one, and one Philox bit generator per call is rekeyed for each
``(seed, input, axis)`` cell, which draws exactly what a generator built
from that key would.

The decoherence interval is the channel under test.  ``run_experiment`` can
swap it for an arbitrary coefficient matrix, which turns the simulator into
a general fixture for round-trip tests while keeping the preparation and
measurement model unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channels import (
    AffineMap,
    apply_chi,
    chi_from_affine,
    rotation_unitary,
    standard_channel,
)
from .states import KET_0, SIGMA_X, SIGMA_Y, SIGMA_Z, projector
from .state_tomography import AXES, ExpectationRecord

INPUT_COUNT = 4

# Preparation pulses for input indices 1..4: nothing (|0>), a pi rotation
# (|1>), and the two half-pi rotations onto the x and y axes.
_PULSES = {
    1: None,
    2: ("y", math.pi),
    3: ("y", math.pi / 2.0),
    4: ("x", -math.pi / 2.0),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Physical and sampling parameters of one simulated run.

    Times share one unit (nanoseconds in the bundled presets).  ``t1`` may
    be infinite to disable amplitude damping.  ``polarization`` is the
    ground-state weight of the initial mixture; 1.0 is perfect preparation.
    ``shots=None`` requests exact expectation values.  ``pulse_error``
    scales every preparation pulse angle by ``(1 + pulse_error)``.
    """

    t2: float
    t1: float = math.inf
    decoherence_time: float = 0.0
    polarization: float = 1.0
    shots: int | None = None
    seed: int = 0
    pulse_error: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.t2) and self.t2 > 0.0):
            raise ValueError(f"t2 must be positive and finite, got {self.t2}")
        if not self.t1 > 0.0:
            raise ValueError(f"t1 must be positive, got {self.t1}")
        if not (np.isfinite(self.decoherence_time) and self.decoherence_time >= 0.0):
            raise ValueError(
                f"decoherence_time must be nonnegative, got {self.decoherence_time}"
            )
        if not 0.5 <= self.polarization <= 1.0:
            raise ValueError(
                f"polarization must lie in [0.5, 1], got {self.polarization}"
            )
        if self.shots is not None and int(self.shots) < 1:
            raise ValueError(f"shots must be positive, got {self.shots}")
        if self.shots is not None:
            object.__setattr__(self, "shots", int(self.shots))
        if not np.isfinite(self.pulse_error):
            raise ValueError("pulse_error must be finite")
        object.__setattr__(self, "seed", int(self.seed))


# The bundled decoherence intervals at t2 = 100 (amplitude damping off).
PRESETS = {
    "paper-20ns": ExperimentConfig(t2=100.0, decoherence_time=20.0),
    "paper-40ns": ExperimentConfig(t2=100.0, decoherence_time=40.0),
    "paper-80ns": ExperimentConfig(t2=100.0, decoherence_time=80.0),
}


def preset_config(
    name: str,
    shots: int | None = None,
    seed: int | None = None,
) -> ExperimentConfig:
    """A bundled preset with optional shot/seed overrides."""
    if name not in PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    config = PRESETS[name]
    updates = {}
    if shots is not None:
        updates["shots"] = shots
    if seed is not None:
        updates["seed"] = seed
    return replace(config, **updates) if updates else config


@dataclass(frozen=True)
class MeasurementRecord:
    """Expectations for one input state, with the config that produced them."""

    input_index: int
    records: tuple[ExpectationRecord, ...]
    config: ExperimentConfig

    def __post_init__(self):
        if not 1 <= self.input_index <= INPUT_COUNT:
            raise ValueError(
                f"input_index must be 1..{INPUT_COUNT}, got {self.input_index}"
            )
        object.__setattr__(self, "records", tuple(self.records))


def prepare_input(config: ExperimentConfig, index: int) -> np.ndarray:
    """Initial mixture rotated by the preparation pulse for one input index."""
    if index not in _PULSES:
        raise ValueError(f"input index must be 1..{INPUT_COUNT}, got {index}")
    return _prepare(config.polarization, config.pulse_error, index)


def _prepare(polarization: float, pulse_error: float, index: int) -> np.ndarray:
    rho = polarization * projector(KET_0) + (1.0 - polarization) * (
        np.eye(2, dtype=complex) - projector(KET_0)
    )
    pulse = _PULSES[index]
    if pulse is None:
        return rho
    axis, angle = pulse
    u = rotation_unitary(axis, angle * (1.0 + pulse_error))
    return u @ rho @ u.conj().T


def prepared_inputs(config: ExperimentConfig) -> np.ndarray:
    """The four prepared inputs as a read-only (4, 2, 2) stack, in index order.

    Equal to ``prepare_input(config, i)`` for ``i = 1..4``; cached per
    ``(polarization, pulse_error)``.
    """
    return _prepared_stack(config.polarization, config.pulse_error)


@lru_cache(maxsize=64)
def _prepared_stack(polarization: float, pulse_error: float) -> np.ndarray:
    stack = np.stack(
        [_prepare(polarization, pulse_error, i) for i in range(1, INPUT_COUNT + 1)]
    )
    stack.setflags(write=False)
    return stack


def true_channel(config: ExperimentConfig) -> np.ndarray:
    """Coefficient matrix of the configured decoherence interval.

    Dephasing by ``f = exp(-t/t2)`` and damping by ``gamma = 1 - exp(-t/t1)``
    commute as Bloch maps; their composition is the affine map
    ``diag(f sqrt(1 - gamma), f sqrt(1 - gamma), 1 - gamma)`` with
    translation ``(0, 0, gamma)``.
    """
    if math.isinf(config.t1):
        return standard_channel("dephasing", t=config.decoherence_time, t2=config.t2)
    keep = math.exp(-config.decoherence_time / config.t1)
    shrink = math.exp(-config.decoherence_time / config.t2) * math.sqrt(keep)
    affine = AffineMap(np.diag([shrink, shrink, keep]), [0.0, 0.0, 1.0 - keep])
    return chi_from_affine(affine)


def evolve(config: ExperimentConfig, rho: np.ndarray) -> np.ndarray:
    """Apply the configured decoherence interval to a state."""
    return apply_chi(true_channel(config), rho)


_PAULI_AXES = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


def _expectations(states: np.ndarray) -> np.ndarray:
    """``Re tr(rho sigma_a)`` for a (k, 2, 2) stack: a (k, 3) array."""
    return np.trace(states[:, None] @ _PAULI_AXES, axis1=-2, axis2=-1).real


def _sample(
    config: ExperimentConfig, input_indices, values: np.ndarray
) -> list[tuple[ExpectationRecord, ...]]:
    """Records of a (k, 3) array of exact expectations, one tuple per row.

    With shots, each ``(input, axis)`` cell draws a binomial from the
    Philox stream keyed by ``(seed, input * 8 + axis)``.  One bit generator
    serves the whole call: setting its public state to a fresh counter
    under the cell's key makes it exactly a new ``Philox(key=...)``.  It is
    local to the call, so concurrent calls share no generator.
    """
    rows = values.tolist()
    shots = config.shots
    if shots is None:
        return [
            tuple(ExpectationRecord(axis, value, None) for axis, value in zip(AXES, row))
            for row in rows
        ]
    ups_probability = np.clip((1.0 + values) / 2.0, 0.0, 1.0).tolist()
    key = np.array([config.seed % (1 << 64), 0], dtype=np.uint64)
    bit_generator = np.random.Philox(key=key)
    generator = np.random.Generator(bit_generator)
    # A fresh state (zero counter, empty buffer) whose key is set per cell;
    # the setter copies the values in.
    fresh = bit_generator.state
    fresh["state"]["key"] = key
    sampled = []
    for index, probabilities in zip(input_indices, ups_probability):
        records = []
        for axis_index, (axis, p_up) in enumerate(zip(AXES, probabilities)):
            key[1] = index * 8 + axis_index
            bit_generator.state = fresh
            ups = int(generator.binomial(shots, p_up))
            records.append(ExpectationRecord(axis, (2.0 * ups - shots) / shots, shots))
        sampled.append(tuple(records))
    return sampled


def measure(
    config: ExperimentConfig, rho: np.ndarray, input_index: int = 0
) -> tuple[ExpectationRecord, ...]:
    """Pauli expectations of a state, exact or with binomial shot noise.

    ``input_index`` selects the noise stream; keep it at the actual input
    slot when simulating an experiment so repeated runs stay reproducible
    per record.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 state, got {rho.shape}")
    return _sample(config, (input_index,), _expectations(rho[None]))[0]


def run_experiment(
    config: ExperimentConfig,
    channel: np.ndarray | None = None,
) -> list[MeasurementRecord]:
    """Simulate all four tomographic inputs through the channel under test.

    ``channel`` substitutes an arbitrary coefficient matrix for the
    configured decoherence interval; preparation and measurement behave
    identically either way.
    """
    chi = true_channel(config) if channel is None else np.asarray(channel, dtype=complex)
    if chi.shape != (4, 4):
        raise ValueError(f"channel must be a 4x4 coefficient matrix, got {chi.shape}")
    indices = range(1, INPUT_COUNT + 1)
    outputs = apply_chi(chi, prepared_inputs(config))
    return [
        MeasurementRecord(input_index=index, records=records, config=config)
        for index, records in zip(indices, _sample(config, indices, _expectations(outputs)))
    ]
