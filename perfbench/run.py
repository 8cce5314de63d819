"""qpt benchmark: one closed-loop client, one process, one workload per call.

    python3 perfbench/run.py --workload noisy-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The toolkit is imported from ``src/``
beside this directory and from nowhere else; without it the command exits 2
and prints no result.  ``bench.py`` holds the loop, metrics and report.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bootstrap(root: Path = ROOT) -> str | None:
    """Make ``root/src/qpt`` importable, and only that copy; else say why."""
    package = root / "src" / "qpt"
    if not (package / "__init__.py").is_file():
        return f"no qpt sources at {package}"
    sys.path.insert(0, str(root / "src"))
    try:
        import qpt
    except ImportError as exc:
        return f"cannot import qpt: {exc}"
    if Path(qpt.__file__).resolve().parent != package.resolve():
        return f"imported qpt from {qpt.__file__}, not {package}"
    return None


def main(argv=None) -> int:
    problem = bootstrap()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import bench

    return bench.main(argv)


if __name__ == "__main__":
    sys.exit(main())
