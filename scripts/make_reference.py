#!/usr/bin/env python3
"""Write the reference reproduction under ``tests/reference/``.

``qpt pipeline --preset paper-repro`` runs twice, exact and with
``--shots 1000 --seed 7``.  For each preset it runs, every entry of
``qpt.simulator.PRESETS``, the records, the result and the comparison
with the identity are kept; the meshes are not, since the test checks
them against the result's affine maps.  Rerun the script after a change
that alters outputs on purpose, from the repository root::

    PYTHONPATH=src python scripts/make_reference.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from qpt.cli import main as qpt_main
from qpt.simulator import PRESETS

REFERENCE = Path(__file__).resolve().parent.parent / "tests" / "reference"
# Each run's pipeline flags beside --preset paper-repro.
RUNS = {"exact": [], "shots1000-seed7": ["--shots", "1000", "--seed", "7"]}
DOCUMENTS = ("records.json", "result.json", "compare_identity.json")


def run_pipeline(run: str, out: Path) -> None:
    """``qpt pipeline --preset paper-repro`` with the flags of ``run``."""
    argv = ["pipeline", "--preset", "paper-repro", *RUNS[run], "--out", str(out)]
    code = qpt_main(argv)
    if code != 0:
        raise SystemExit(f"qpt {' '.join(argv)} exited {code}")


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        for run in RUNS:
            run_pipeline(run, Path(scratch) / run)
            for preset in PRESETS:
                target = REFERENCE / run / preset
                target.mkdir(parents=True, exist_ok=True)
                for name in DOCUMENTS:
                    shutil.copyfile(Path(scratch) / run / preset / name, target / name)
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
