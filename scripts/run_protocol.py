#!/usr/bin/env python3
"""Run the three-interval decoherence protocol and summarize the results.

The script runs ``qpt pipeline --preset paper-repro``, which writes the
records, result document, identity comparison and ellipsoid meshes of
each bundled preset under ``<out>/<preset>/``, and then tabulates each
``result.json``: the transverse contraction of the projected map next to
its closed-form reference exp(-t/t2), and the discrepancy norms that the
projection removed.  It returns the pipeline's exit code; a projection
that does not converge (exit 4) still writes its result and is tabulated.

Run with no arguments for the exact-measurement protocol; pass --shots
to sample finite measurement statistics instead.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from qpt import cli
from qpt.io import read_json
from qpt.simulator import PRESETS


def table_row(name: str, doc: dict) -> str:
    """One table line from a preset's ``result.json`` document."""
    config, raw, projected = doc["config"], doc["raw"], doc["projected"]
    reference = float(np.exp(-config["decoherence_time"] / config["t2"]))
    matrix = projected["affine"]["matrix"]
    contraction = (matrix[0][0] + matrix[1][1]) / 2
    raw_ok = raw["cp"]["flag"] and raw["tp"]["flag"]
    norms = ", ".join(
        f"{doc['discrepancy'][key]:.4f}"
        for key in ("p1_norm", "p2_norm", "frobenius_norm", "trace_distance_pro")
    )
    return (
        f"{name:<12} {reference:>10.6f} {contraction:>10.6f} {matrix[2][2]:>8.5f} "
        f"{str(raw_ok):>6} {projected['distance']:>9.2e}  ({norms})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shots", type=int, default=None, help="samples per axis (default: exact)"
    )
    parser.add_argument("--seed", type=int, default=0, help="noise seed")
    parser.add_argument(
        "--out", type=Path, default=Path("protocol_run"), help="artifact directory"
    )
    args = parser.parse_args(argv)

    code = cli.main([
        "pipeline", "--preset", cli.PAPER_REPRO, "--out", str(args.out),
        "--seed", str(args.seed),
        "--shots", "exact" if args.shots is None else str(args.shots),
    ])
    if code not in (0, 4):
        return code

    mode = "exact expectations" if args.shots is None else f"{args.shots} shots"
    print(f"three-interval protocol, {mode}, artifacts in {args.out}/")
    print(
        f"{'preset':<12} {'exp(-t/t2)':>10} {'measured c':>10} {'z scale':>8} "
        f"{'raw ok':>6} {'proj dist':>9}  norms (p1, p2, fro, d_pro)"
    )
    for name in PRESETS:
        print(table_row(name, read_json(str(args.out / name / "result.json"))))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
