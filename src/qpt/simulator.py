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
the twelve exact expectations are rows 1..3 of that product.  The product
is one small contraction, and no output density matrix is formed.

The draws have one array path: ``_expectations(config, seeds)`` returns
the (N, 12) expectations of N seeded runs, one row per seed, input-major
in x, y, z order.  One Philox bit generator per call is rekeyed for each
``(seed, input, axis)`` cell, which draws exactly what a generator built
from that key would, so a row's bits do not depend on N or on the other
seeds.  Since every cell sets the whole state, the generator is built from
a zero-state ``ISeedSequence`` that hashes no entropy.  ``run_experiment``
is its N = 1 wrapper: its sampled records hold the values of the one row
of its seed.

Sampled records are filled without their checks, which their values,
``(2 ups - shots) / shots`` in [-1, 1], cannot fail; so are the
measurement records of every run, whose indices come from enumerating the
four inputs.  Exact records keep the checks: a substituted channel can
push an exact value past the bound of ``errors._BOUND``.

Two read-only caches hold what their readers use:

* ``_inputs``, keyed by ``(polarization, pulse_error)``, is the one place
  that decides which four inputs a preparation gives: the prepared stack
  and its real Pauli coordinates.  Simulation reads it, and
  :mod:`qpt.process_tomography` builds its reconstruction map from its
  coordinates, so a reconstruction inverts exactly the inputs that were
  simulated.
* ``_outcomes``, keyed by all five physical parameters, holds what depends
  on neither the seed nor the shot count: the chi matrix of the decoherence
  interval, the exact records of a run, their values and the clipped
  probabilities that the shots sample.  A sweep over seeds pays per call
  only for its draws.

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

from .channels import _as_chi, _chi_from_bloch, _transfer, rotation_unitary
from .errors import _integer, _number, _shown
from .states import _coords, _hermitian
from .state_tomography import AXES, ExpectationRecord, _filled_record

INPUT_COUNT = 4

# Preparation pulses for input indices 1..4: nothing (|0>), a pi rotation
# (|1>), and the two half-pi rotations onto the x and y axes.
_PULSES = {
    1: None,
    2: ("y", math.pi),
    3: ("y", math.pi / 2.0),
    4: ("x", -math.pi / 2.0),
}
# The second key word of each of the twelve cells, input-major in x, y, z
# order: input * 8 + axis.
_CELL_KEYS = tuple(index * 8 + axis for index in _PULSES for axis in range(3))
# A Philox state as a new generator has it, but for the counter and key: an
# empty buffer.
_FRESH = dict(bit_generator="Philox", buffer=[0, 0, 0, 0], buffer_pos=4, has_uint32=0, uinteger=0)


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
        for name in ("t2", "t1", "decoherence_time", "polarization", "pulse_error"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if not (math.isfinite(self.t2) and self.t2 > 0.0):
            raise ValueError(f"t2 must be positive and finite, got {_shown(self.t2)}")
        if not self.t1 > 0.0:
            raise ValueError(f"t1 must be positive, got {_shown(self.t1)}")
        if not (math.isfinite(self.decoherence_time) and self.decoherence_time >= 0.0):
            raise ValueError(
                "decoherence_time must be nonnegative, "
                f"got {_shown(self.decoherence_time)}"
            )
        if not 0.5 <= self.polarization <= 1.0:
            raise ValueError(
                f"polarization must lie in [0.5, 1], got {_shown(self.polarization)}"
            )
        if self.shots is not None:
            shots = _integer(self.shots, "shots")
            # The binomial sampler takes its count as a 64-bit signed integer.
            if not 1 <= shots <= 2**63 - 1:
                raise ValueError(f"shots must lie in [1, 2**63 - 1], got {_shown(shots)}")
            object.__setattr__(self, "shots", shots)
        # The largest preparation pulse turns by pi * (1 + pulse_error).
        if not math.isfinite(math.pi * (1.0 + self.pulse_error)):
            raise ValueError(
                "pulse_error must be finite and keep the pulse angle "
                f"pi * (1 + pulse_error) finite, got {_shown(self.pulse_error)}"
            )
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))


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
    return replace(config, **updates)


@dataclass(frozen=True, slots=True)
class MeasurementRecord:
    """Expectations for one input state, with the config that produced them."""

    input_index: int
    records: tuple[ExpectationRecord, ...]
    config: ExperimentConfig

    def __post_init__(self):
        index = _integer(self.input_index, "input_index")
        if not 1 <= index <= INPUT_COUNT:
            raise ValueError(f"input_index must be 1..{INPUT_COUNT}, got {_shown(index)}")
        object.__setattr__(self, "input_index", index)
        object.__setattr__(self, "records", tuple(self.records))


_set_index = MeasurementRecord.input_index.__set__
_set_records = MeasurementRecord.records.__set__
_set_config = MeasurementRecord.config.__set__


def _filled_measurement(
    input_index: int, records: tuple[ExpectationRecord, ...], config: ExperimentConfig
) -> MeasurementRecord:
    """A :class:`MeasurementRecord` of fields its checks cannot refuse,
    built without them: an ``int`` index in ``1..INPUT_COUNT`` and a
    tuple of records."""
    record = object.__new__(MeasurementRecord)
    _set_index(record, input_index)
    _set_records(record, records)
    _set_config(record, config)
    return record


def prepare_input(config: ExperimentConfig, index: int) -> np.ndarray:
    """Initial mixture rotated by the preparation pulse for one input index,
    as a writable copy."""
    index = _integer(index, "input index")
    if index not in _PULSES:
        raise ValueError(f"input index must be 1..{INPUT_COUNT}, got {_shown(index)}")
    return _inputs(config.polarization, config.pulse_error)[0][index - 1].copy()


@lru_cache(maxsize=64)
def _inputs(polarization: float, pulse_error: float) -> tuple[np.ndarray, np.ndarray]:
    """The read-only prepared (4, 2, 2) stack, in index order, and its real
    Pauli coordinates, one column per input.  The only place that decides
    which inputs a preparation gives, for simulation and reconstruction
    alike."""
    rho = np.diag([polarization, 1.0 - polarization]).astype(complex)
    inputs = []
    for pulse in _PULSES.values():  # in index order
        if pulse is None:
            inputs.append(rho)
        else:
            u = rotation_unitary(pulse[0], pulse[1] * (1.0 + pulse_error))
            inputs.append(u @ rho @ u.conj().T)
    stack = np.stack(inputs)
    # The imaginary parts of the stack's coordinates are round-off; the
    # simulator multiplies the real parts, so those are what get inverted.
    coords = np.ascontiguousarray(_coords(stack).real)
    stack.setflags(write=False)
    coords.setflags(write=False)
    return stack, coords


@lru_cache(maxsize=1)
def _zero_seed():
    """Seeds each call's bit generator, whose state every cell then
    overwrites: an ``ISeedSequence`` whose state words are all zero, so
    building the generator hashes no entropy.  Defined and built on first
    use, since importing ``numpy.random`` costs every process that never
    samples."""
    from numpy.random.bit_generator import ISeedSequence

    class ZeroSeed(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    return ZeroSeed()


def true_channel(config: ExperimentConfig) -> np.ndarray:
    """Coefficient matrix of the configured decoherence interval, as a fresh
    writable copy.

    Dephasing by ``f = exp(-t/t2)`` and damping with survival
    ``s = exp(-t/t1)`` commute as Bloch maps; their composition is the
    affine map ``diag(f sqrt(s), f sqrt(s), s)`` with translation
    ``(0, 0, 1 - s)``, built into chi by ``channels._chi_from_bloch``, the
    path of the named decay channels and of ``chi_from_affine``.
    """
    return _interval(config)[0].copy()


def _outcomes_of(chi: np.ndarray, coords: np.ndarray) -> tuple:
    """The checked exact records of the inputs with Pauli coordinates
    ``coords`` under ``chi``, one tuple per input, then their twelve values,
    input-major in x, y, z order, and the cells that sample them: each
    value's key word paired with its probability of outcome +1, clipped
    into [0, 1].  Input ``k`` expects ``R[1:] @ coords[:, k]``, with ``R``
    the real Pauli transfer matrix of ``chi``."""
    # A two-operand einsum sums each output in index order, so every input
    # gets the bits of its own ``einsum("ij,j->i", ...)``; a matmul over
    # the stack does not guarantee that.
    values = np.einsum("ij,jk->ki", _transfer(chi)[1:], coords)
    up = np.clip((1.0 + values) / 2.0, 0.0, 1.0)
    records = tuple(tuple(map(ExpectationRecord, AXES, row)) for row in values.tolist())
    cells = tuple(zip(_CELL_KEYS, up.reshape(12).tolist()))
    return records, tuple(values.reshape(12).tolist()), cells


@lru_cache(maxsize=64)
def _outcomes(
    t2: float, t1: float, decoherence_time: float, polarization: float, pulse_error: float
) -> tuple:
    """What every seed and shot count of one physical setting share: the
    read-only chi of its decoherence interval (see :func:`true_channel`),
    then the exact records, values and sampled cells of
    :func:`_outcomes_of`."""
    keep = math.exp(-decoherence_time / t1)
    shrink = math.exp(-decoherence_time / t2) * math.sqrt(keep)
    chi = _chi_from_bloch(np.diag([shrink, shrink, keep]), [0.0, 0.0, 1.0 - keep])
    chi.setflags(write=False)
    return (chi, *_outcomes_of(chi, _inputs(polarization, pulse_error)[1]))


def _interval(config: ExperimentConfig) -> tuple:
    """The :func:`_outcomes` entry of the configured decoherence interval."""
    return _outcomes(
        config.t2, config.t1, config.decoherence_time, config.polarization, config.pulse_error
    )


def _expectations(config: ExperimentConfig, seeds, outcome: tuple | None = None) -> np.ndarray:
    """The (N, 12) expectations of the runs of ``config`` with each of a
    sequence of N ``seeds``, one row per seed, input-major in x, y, z order.

    ``outcome`` is the triple of :func:`_outcomes_of`, by default that of
    the configured interval.  An exact config repeats its values in every
    row.  Otherwise each ``(seed, input, axis)`` cell draws a binomial from
    the Philox stream keyed by ``(seed, input * 8 + axis)``.  One bit
    generator serves the whole call: before each cell its state is set from
    a plain dict of Python ints, a zero counter, an empty buffer and the
    cell's key, which makes it exactly a new ``Philox(key=...)``.  It is
    built anew on every call, so concurrent calls share no generator, and
    a row's bits do not depend on the other seeds.
    """
    _, values, cells = outcome or _interval(config)[1:]
    shots = config.shots
    if shots is None:
        return np.tile(values, (len(seeds), 1))
    bit_generator = np.random.Philox(_zero_seed())
    binomial = np.random.Generator(bit_generator).binomial
    # An integer key is split into 64-bit words, low first, so a cell with
    # key word w draws from Philox(key=seed % 2**64 + (w << 64)).  The
    # setter copies the values in, so the one dict and its key list serve
    # every cell.
    key = [0, 0]
    fresh = {**_FRESH, "state": {"counter": [0, 0, 0, 0], "key": key}}
    draws = []
    for seed in seeds:
        key[0] = seed % (1 << 64)
        for cell_key, p_up in cells:
            key[1] = cell_key
            bit_generator.state = fresh
            draws.append((2.0 * binomial(shots, p_up) - shots) / shots)
    # Each value is in [-1, 1]: shots is a checked positive int.
    return np.array(draws).reshape(-1, 12)


def run_experiment(
    config: ExperimentConfig,
    channel: np.ndarray | None = None,
) -> list[MeasurementRecord]:
    """Simulate all four tomographic inputs through the channel under test.

    The exact expectations of input ``k`` are ``R[1:] @ coords(rho_k)``,
    with ``R`` the real Pauli transfer matrix of the channel.  For the
    configured decoherence interval they come from a cache keyed by the
    five physical parameters, so a call computes only its shot draws; an
    exact call returns the cached records.  ``channel`` substitutes a
    Hermitian 4x4 coefficient matrix for the interval, computed on every
    call over the cached prepared inputs and never cached itself;
    preparation and measurement behave identically either way.  A
    ``channel`` whose anti-Hermitian part exceeds ``HERMITICITY_TOL``
    raises ``ValueError``: the records could only show its Hermitian part.
    """
    if channel is None:
        outcome = _interval(config)[1:]
    else:
        channel = _as_chi(channel)
        _hermitian(channel, "channel")
        outcome = _outcomes_of(channel, _inputs(config.polarization, config.pulse_error)[1])
    records = outcome[0]
    if config.shots is not None:
        # The sampled records are the N = 1 row of the array path.
        row = _expectations(config, (config.seed,), outcome)[0].tolist()
        records = [
            tuple(map(_filled_record, AXES, row[start:start + 3], (config.shots,) * 3))
            for start in range(0, 12, 3)
        ]
    return [
        _filled_measurement(index, entry, config)
        for index, entry in enumerate(records, start=1)
    ]
