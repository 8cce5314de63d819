#!/usr/bin/env python3
"""Measure how raw reconstruction error scales with measurement statistics.

For each shot level the script runs the chosen preset across a batch of
seeds, reconstructs the process without projection, and reports the
median Frobenius distance to the exact channel.  Binomial sampling
predicts a sqrt(10) = 3.16x error drop per tenfold shot increase; the
fitted exponent printed at the end should sit near 0.5.
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from qpt.io import write_json_atomic
from qpt.process_tomography import _chi_rows
from qpt.simulator import PRESETS, _expectations, preset_config, true_channel


def median_error(name: str, shots: int, seeds: int) -> float:
    config = preset_config(name, shots=shots)
    # One row per seed: the expectations of run_experiment(seed=s) and the
    # chi of run_process_tomography on them, bit for bit.
    chi = _chi_rows(_expectations(config, range(seeds)), (config.polarization, config.pulse_error))
    errors = np.linalg.norm(chi - true_channel(config), axis=(1, 2))
    return float(np.median(errors))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--preset", default="paper-20ns", choices=sorted(PRESETS), help="experiment preset"
    )
    parser.add_argument(
        "--levels",
        type=int,
        nargs="+",
        default=[100, 1000, 10000, 100000],
        help="shot counts to sweep",
    )
    parser.add_argument("--seeds", type=int, default=20, help="seeds per level")
    parser.add_argument("--out", default=None, help="optional JSON output path")
    args = parser.parse_args(argv)
    if any(level < 1 for level in args.levels) or args.seeds < 1:
        parser.error("shot levels and seed count must be positive")
    # The payload is written after the whole sweep; a missing directory
    # found only then would lose the run.
    if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
        parser.error(f"--out: directory of {args.out!r} does not exist")

    levels = sorted(set(args.levels))
    # A slope through one point is not a measurement.
    if len(levels) < 2:
        parser.error("--levels: the scaling fit needs at least two distinct shot levels")
    medians = [median_error(args.preset, level, args.seeds) for level in levels]

    print(f"{args.preset}, {args.seeds} seeds per level")
    print(f"{'shots':>8} {'median error':>13} {'drop':>6}")
    for i, (level, median) in enumerate(zip(levels, medians)):
        drop = "" if i == 0 else f"{medians[i - 1] / median:5.2f}x"
        print(f"{level:>8} {median:>13.3e} {drop:>6}")

    # Least-squares slope of log(error) against log(shots).
    exponent = -float(np.polyfit(np.log(levels), np.log(medians), 1)[0])
    print(f"fitted scaling exponent: {exponent:.3f} (binomial prediction 0.5)")

    if args.out is not None:
        payload = {
            "preset": args.preset,
            "seeds": args.seeds,
            "levels": levels,
            "median_errors": medians,
            "exponent": exponent,
        }
        write_json_atomic(args.out, payload)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
