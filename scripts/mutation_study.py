#!/usr/bin/env python3
"""Seeded mutation study of one ``src/qpt`` module: which statements can
the tests not tell from ``pass``?

    python scripts/mutation_study.py channels --seed 1 [--budget 20]

The script copies what the tests read, ``src/``, ``tests/``, ``scripts/``,
``perfbench/`` and ``pyproject.toml``, into a temporary directory and
mutates only that copy; the checkout is never written.  Its sites are the
statements in the module's function bodies, found by an ``ast`` walk,
leaving out docstrings, ``pass`` and ``return``.  The seed shuffles them and the
budget, when given, keeps the first ones.  Each mutant replaces one
statement with ``pass`` at the same indent and runs ``pytest -x -q`` in two
stages: the module's own test file with ``test_acceptance.py`` and
``test_cli.py``, then all of ``tests/`` but the smoke test of this script
for the mutants the first stage left alive.  A run that fails or times out
kills the mutant.  Each survivor is printed as ``module:line statement``,
then the kill counts.

Before the first mutant the harness is checked on the unmutated copy: both
stages must pass, and the first must fail when the module cannot be
imported.  If not, the script exits with status 1 and runs no mutant.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")
# The first stage runs the module's own test file, if there is one, and these.
FIRST = ["tests/test_acceptance.py", "tests/test_cli.py"]
# The full stage leaves out this script's own smoke test, which would start
# a study of its own inside each run.
FULL = ["tests", "--deselect", "tests/test_scripts.py::test_mutation_study_smoke"]
TIMEOUT = 600.0  # seconds per pytest run


def sites(source: str) -> list[ast.stmt]:
    """The statements of every function body, in line order."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update(n for n in ast.walk(node) if isinstance(n, ast.stmt) and n is not node)
    return sorted(
        (n for n in found if not isinstance(n, (ast.Pass, ast.Return))
         and not (isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
                  and isinstance(n.value.value, str))),
        key=lambda n: (n.lineno, n.col_offset),
    )


def mutant(lines: list[str], node: ast.stmt) -> str:
    """The source with ``node`` replaced by ``pass``."""
    head = lines[node.lineno - 1][:node.col_offset]
    tail = lines[node.end_lineno - 1][node.end_col_offset:]
    return "".join(lines[:node.lineno - 1] + [head + "pass" + tail] + lines[node.end_lineno:])


def killed(copy: Path, tests: list[str]) -> bool:
    """Whether ``pytest -x`` of ``tests`` fails or times out in ``copy``.

    No bytecode is written: a mutant of the same size written within the
    same second as the last would otherwise be read from a stale cache."""
    path = filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode != 0
    except subprocess.TimeoutExpired:
        return True


def harness_fault(copy: Path, module: Path, first: list[str]) -> str | None:
    """Why the stages cannot judge mutants of ``module`` in ``copy``, or None.

    A missing file or a timeout would otherwise count every mutant as
    killed, and tests that import ``qpt`` from outside the copy would let
    every mutant survive."""
    if killed(copy, first):
        return "the first stage fails on the unmutated copy"
    if killed(copy, FULL):
        return "the full suite fails on the unmutated copy"
    source = module.read_text(encoding="utf-8")
    module.write_text("raise ImportError('mutation study check')\n", encoding="utf-8")
    unread = not killed(copy, first)
    module.write_text(source, encoding="utf-8")
    return "the first stage does not import the copied module" if unread else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module of src/qpt, such as channels")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=int, help="mutants to run (default: every site)")
    args = parser.parse_args(argv)
    target = ROOT / "src" / "qpt" / f"{args.module}.py"
    if not target.is_file():
        parser.error(f"no module {target}")
    source = target.read_text(encoding="utf-8")
    chosen = sites(source)
    random.Random(args.seed).shuffle(chosen)
    chosen = sorted(chosen[:args.budget], key=lambda n: n.lineno)
    own = f"tests/test_{args.module}.py"
    first = [own] * (ROOT / own).is_file() + FIRST
    lines = source.splitlines(keepends=True)
    counts = {"first stage": 0, "full suite": 0, "survived": 0}
    with tempfile.TemporaryDirectory(prefix="mutation-") as temporary:
        copy = Path(temporary)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, copy / name)
        mutated = copy / "src" / "qpt" / target.name
        fault = harness_fault(copy, mutated, first)
        if fault:
            print(f"mutation study not run: {fault}", file=sys.stderr)
            return 1
        for node in chosen:
            mutated.write_text(mutant(lines, node), encoding="utf-8")
            if killed(copy, first):
                counts["first stage"] += 1
            elif killed(copy, FULL):
                counts["full suite"] += 1
            else:
                counts["survived"] += 1
                print(f"{args.module}:{node.lineno} {lines[node.lineno - 1].strip()}")
    print(f"{len(chosen)} mutants: {counts['first stage']} killed by the first stage, "
          f"{counts['full suite']} by the full suite, {counts['survived']} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
