#!/usr/bin/env python3
"""Write the reference reproduction under ``tests/reference/``.

``qpt pipeline --preset paper-repro`` runs twice, exact and with
``--shots 1000 --seed 7``.  For each preset it runs, every entry of
``qpt.simulator.PRESETS``, the records, the result and the comparison
with the identity are kept; the meshes are not, since the test checks
them against the result's affine maps.  Rerun the script after a change
that alters outputs on purpose, from the repository root::

    PYTHONPATH=src python scripts/make_reference.py

Before it overwrites a reference document, the script prints every float
that moves by more than ``FLOAT_TOL``, the tolerance of
``tests/test_reference.py``, as ``where: old -> new``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from qpt.cli import main as qpt_main
from qpt.io import read_json
from qpt.simulator import PRESETS

REFERENCE = Path(__file__).resolve().parent.parent / "tests" / "reference"
# Each run's pipeline flags beside --preset paper-repro.
RUNS = {"exact": [], "shots1000-seed7": ["--shots", "1000", "--seed", "7"]}
DOCUMENTS = ("records.json", "result.json", "compare_identity.json")
# The largest move of a reference float that tests/test_reference.py accepts.
FLOAT_TOL = 1e-12


def run_pipeline(run: str, out: Path) -> None:
    """``qpt pipeline --preset paper-repro`` with the flags of ``run``."""
    argv = ["pipeline", "--preset", "paper-repro", *RUNS[run], "--out", str(out)]
    code = qpt_main(argv)
    if code != 0:
        raise SystemExit(f"qpt {' '.join(argv)} exited {code}")


def moved_floats(new, old, where: str):
    """``(where, old, new)`` for every float of ``new`` that lies more than
    ``FLOAT_TOL`` from the float at its place in ``old``."""
    if isinstance(new, dict) and isinstance(old, dict):
        for key in new:
            if key in old:
                yield from moved_floats(new[key], old[key], f"{where}.{key}")
    elif isinstance(new, list) and isinstance(old, list):
        for index, (a, b) in enumerate(zip(new, old)):
            yield from moved_floats(a, b, f"{where}[{index}]")
    elif isinstance(new, float) and isinstance(old, float) and abs(new - old) > FLOAT_TOL:
        yield where, old, new


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        for run in RUNS:
            run_pipeline(run, Path(scratch) / run)
            for preset in PRESETS:
                target = REFERENCE / run / preset
                target.mkdir(parents=True, exist_ok=True)
                for name in DOCUMENTS:
                    source = Path(scratch) / run / preset / name
                    if (target / name).exists():
                        old = read_json(str(target / name))
                        for where, before, after in moved_floats(
                            read_json(str(source)), old, f"{run}/{preset}/{name}"
                        ):
                            print(f"{where}: {before!r} -> {after!r}")
                    shutil.copyfile(source, target / name)
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
