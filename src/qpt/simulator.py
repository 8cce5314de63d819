"""Deterministic simulation of the decoherence-interval experiment.

One run prepares each of the four tomographic input states with a short
control pulse, lets the qubit decohere for a configurable interval under
combined dephasing (t2) and amplitude damping (t1), and measures the three
Pauli expectations of the output.  Shot noise is sampled from counter-based
streams keyed by ``(seed, input index, axis)``, so every record depends
only on its own cell: its value is bit-identical whatever the order in
which the cells are drawn.

A run is computed as whole arrays over the four inputs.  The channel acts
on Pauli coordinates (:mod:`qpt.states`) through its transfer matrix
``R``, so the output coordinates are ``R`` times the input coordinates and
the twelve exact expectations are rows 1..3 of that product.  The inputs'
coordinates are cached per ``(polarization, pulse_error)``, the product
is one small contraction, and no output density matrix is formed.  One
Philox bit generator per call is rekeyed for each ``(seed, input, axis)``
cell, which draws exactly what a generator built from that key would.

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
    _as_chi,
    _transfer,
    chi_from_affine,
    rotation_unitary,
    standard_channel,
)
from .errors import _shown
from .states import KET_0, _coords, projector
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
            raise ValueError(f"t2 must be positive and finite, got {_shown(self.t2)}")
        if not self.t1 > 0.0:
            raise ValueError(f"t1 must be positive, got {_shown(self.t1)}")
        if not (np.isfinite(self.decoherence_time) and self.decoherence_time >= 0.0):
            raise ValueError(
                "decoherence_time must be nonnegative, "
                f"got {_shown(self.decoherence_time)}"
            )
        if not 0.5 <= self.polarization <= 1.0:
            raise ValueError(
                f"polarization must lie in [0.5, 1], got {_shown(self.polarization)}"
            )
        # The binomial sampler takes its count as a 64-bit signed integer.
        if self.shots is not None and not 1 <= int(self.shots) <= 2**63 - 1:
            raise ValueError(
                f"shots must lie in [1, 2**63 - 1], got {_shown(self.shots)}"
            )
        if self.shots is not None:
            object.__setattr__(self, "shots", int(self.shots))
        # The largest preparation pulse turns by pi * (1 + pulse_error).
        if not (
            np.isfinite(self.pulse_error)
            and math.isfinite(math.pi * (1.0 + self.pulse_error))
        ):
            raise ValueError(
                "pulse_error must be finite and keep the pulse angle "
                f"pi * (1 + pulse_error) finite, got {_shown(self.pulse_error)}"
            )
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
            f"unknown preset {_shown(name)}; available: {', '.join(sorted(PRESETS))}"
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
                f"input_index must be 1..{INPUT_COUNT}, got {_shown(self.input_index)}"
            )
        object.__setattr__(self, "records", tuple(self.records))


def prepare_input(config: ExperimentConfig, index: int) -> np.ndarray:
    """Initial mixture rotated by the preparation pulse for one input index:
    a writable copy of row ``index - 1`` of :func:`prepared_inputs`."""
    if index not in _PULSES:
        raise ValueError(f"input index must be 1..{INPUT_COUNT}, got {index}")
    return prepared_inputs(config)[index - 1].copy()


def prepared_inputs(config: ExperimentConfig) -> np.ndarray:
    """The four prepared inputs as a read-only (4, 2, 2) stack, in index order.

    Each is the initial mixture rotated by its input's preparation pulse;
    the stack is cached per ``(polarization, pulse_error)``.
    """
    return _prepared_stack(config.polarization, config.pulse_error)


@lru_cache(maxsize=64)
def _prepared_stack(polarization: float, pulse_error: float) -> np.ndarray:
    rho = polarization * projector(KET_0) + (1.0 - polarization) * (
        np.eye(2, dtype=complex) - projector(KET_0)
    )
    inputs = []
    for pulse in _PULSES.values():  # in index order
        if pulse is None:
            inputs.append(rho)
        else:
            u = rotation_unitary(pulse[0], pulse[1] * (1.0 + pulse_error))
            inputs.append(u @ rho @ u.conj().T)
    stack = np.stack(inputs)
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=64)
def _prepared_coords(polarization: float, pulse_error: float) -> np.ndarray:
    """Real Pauli coordinates of :func:`_prepared_stack`, one column per
    input; read-only."""
    coords = np.ascontiguousarray(
        _coords(_prepared_stack(polarization, pulse_error)).real
    )
    coords.setflags(write=False)
    return coords


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


def run_experiment(
    config: ExperimentConfig,
    channel: np.ndarray | None = None,
) -> list[MeasurementRecord]:
    """Simulate all four tomographic inputs through the channel under test.

    The exact expectations of input ``k`` are ``R[1:] @ coords(rho_k)``,
    with ``R`` the real Pauli transfer matrix of the channel.  ``channel``
    substitutes an arbitrary coefficient matrix for the configured
    decoherence interval; preparation and measurement behave identically
    either way.
    """
    chi = true_channel(config) if channel is None else _as_chi(channel)
    indices = range(1, INPUT_COUNT + 1)
    # A two-operand einsum sums each output in index order, so every input
    # gets the bits of its own ``einsum("ij,j->i", ...)``; a matmul over
    # the stack does not guarantee that.
    expectations = np.einsum(
        "ij,jk->ki",
        _transfer(chi)[1:],
        _prepared_coords(config.polarization, config.pulse_error),
    )
    return [
        MeasurementRecord(input_index=index, records=records, config=config)
        for index, records in zip(indices, _sample(config, indices, expectations))
    ]
