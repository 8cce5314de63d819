#!/usr/bin/env python3
"""Fold saved ``perfbench/run.py`` outputs into one ``BENCH_<pr>.json``.

Each input is the saved stdout of one run, tagged with the side it
measured: ``parent`` for the code before a change, ``change`` for the code
after it::

    python scripts/bench_record.py --pr N parent=runs/p1.txt change=runs/c1.txt ...

From every file the script reads the ``# provenance`` line and the final
JSON result line.  For each workload, side and metric of the result lines
it records the median, the quartiles and the number of runs; beside them
the seeds of each workload, the commit and source digest of each side and
the machine fields of the provenance.  All runs must come from one machine,
and all runs of one side from one source tree; a mix is refused rather than
folded into one median.

A side's commit is kept only when ``git`` in this repository reads that
commit's ``src/qpt/*.py`` and their digest, taken as ``perfbench/bench.py``
takes it, equals the side's ``source_sha256``.  Otherwise the commit is
written as null and the digest kept: a run of an uncommitted tree names
the commit it was made on, not the code it measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PROVENANCE_PREFIX = "# provenance "
# Provenance fields that describe the host; every run must agree on them.
MACHINE_FIELDS = ("cpu_count", "cpus_usable", "cpu_model", "python", "numpy", "blas")
# Provenance fields that identify the measured code; one value per side.
SOURCE_FIELDS = ("git_commit", "source_sha256")


ROOT = Path(__file__).resolve().parent.parent


class RecordError(ValueError):
    """An input that cannot be folded; the script exits 2 and writes nothing."""


def read_run(path: Path) -> tuple[dict, dict]:
    """The provenance and the result object of one saved run."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise RecordError(f"{path}: cannot read: {exc}") from None
    provenance = [line for line in lines if line.startswith(PROVENANCE_PREFIX)]
    if len(provenance) != 1:
        raise RecordError(f"{path}: expected one provenance line, found {len(provenance)}")
    try:
        meta = json.loads(provenance[0][len(PROVENANCE_PREFIX):])
    except json.JSONDecodeError as exc:
        raise RecordError(f"{path}: malformed provenance: {exc}") from None
    if not isinstance(meta, dict) or "workload" not in meta or "seed" not in meta:
        raise RecordError(f"{path}: the provenance names no workload and seed")
    lines = [line for line in lines if line.strip()]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    metrics = result.get("metrics") if isinstance(result, dict) else None
    if not isinstance(metrics, dict) or not all(
        isinstance(metric, dict) and {"value", "unit"} <= metric.keys()
        for metric in metrics.values()
    ):
        raise RecordError(f"{path}: the last line is not a result object with metrics")
    return meta, result


def summary(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and count of one metric's runs."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def only(values: set, what: str):
    """The one value of ``values``; refuses runs that disagree on ``what``."""
    if len(values) != 1:
        shown = ", ".join(sorted(map(str, values)))
        raise RecordError(f"runs disagree on {what}: {shown}")
    return next(iter(values))


def committed_digest(commit) -> str | None:
    """``bench.source_digest`` of ``commit``'s ``src/qpt/*.py``, read with
    ``git`` in ``ROOT``; None when ``git`` cannot read the commit."""
    if not isinstance(commit, str) or not re.fullmatch(r"[0-9a-f]{4,64}", commit):
        return None

    def git(*args: str) -> bytes:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, check=True
        ).stdout

    try:
        names = git("ls-tree", "-z", "--name-only", commit, "src/qpt/").split(b"\0")
        digest = hashlib.sha256()
        for path in sorted(name.decode() for name in names if name.endswith(b".py")):
            digest.update(Path(path).name.encode())
            digest.update(git("show", f"{commit}:{path}"))
    except (OSError, subprocess.CalledProcessError, UnicodeDecodeError):
        return None
    return digest.hexdigest()


def fold(runs: list[tuple[str, dict, dict]], pr: int) -> dict:
    """The BENCH document of ``(side, provenance, result)`` triples."""
    if not runs:
        raise RecordError("no runs given")
    machine = {
        name: only({meta.get(name) for _, meta, _ in runs}, name) for name in MACHINE_FIELDS
    }
    sources = {}
    for side in SIDES:
        metas = [meta for tag, meta, _ in runs if tag == side]
        if metas:
            sources[side] = {
                name: only({meta.get(name) for meta in metas}, f"{side} {name}")
                for name in SOURCE_FIELDS
            }
            if committed_digest(sources[side]["git_commit"]) != sources[side]["source_sha256"]:
                sources[side]["git_commit"] = None
    workloads: dict[str, dict] = {}
    for side, meta, result in runs:
        entry = workloads.setdefault(meta["workload"], {"seeds": set(), "metrics": {}})
        entry["seeds"].add(meta["seed"])
        for name, metric in result["metrics"].items():
            sided = entry["metrics"].setdefault(name, {"unit": metric["unit"]})
            sided.setdefault(side, []).append(metric["value"])
    for entry in workloads.values():
        entry["seeds"] = sorted(entry["seeds"])
        for sided in entry["metrics"].values():
            for side in SIDES:
                if side in sided:
                    sided[side] = summary(sided[side])
    return {
        "pr": pr,
        "sources": sources,
        "machine": machine,
        "workloads": {name: workloads[name] for name in sorted(workloads)},
    }


def tagged_path(text: str) -> tuple[str, Path]:
    side, sep, path = text.partition("=")
    if not sep or side not in SIDES or not path:
        raise argparse.ArgumentTypeError(
            f"expected SIDE=PATH with SIDE one of {', '.join(SIDES)}, got {text[:64]!r}"
        )
    return side, Path(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="change number, names the output")
    parser.add_argument("--out", default=None, help="output path (default BENCH_<pr>.json)")
    parser.add_argument("runs", nargs="+", type=tagged_path, help="SIDE=PATH of one saved run")
    args = parser.parse_args(argv)
    out = Path(args.out or f"BENCH_{args.pr}.json")
    try:
        document = fold([(side, *read_run(path)) for side, path in args.runs], args.pr)
    except RecordError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    for name, entry in document["workloads"].items():
        for metric, sided in entry["metrics"].items():
            shown = "  ".join(
                f"{side} {sided[side]['median']:.6g} (n={sided[side]['runs']})"
                for side in SIDES
                if side in sided
            )
            print(f"{name} {metric} [{sided['unit']}]  {shown}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
