"""The measuring loop, the metrics and the report of the qpt benchmark.

Imported by ``run.py`` once ``src/qpt`` is importable.  ``--trace 0``
measures the end-to-end metrics with tracing off, as host-scaled times
(see ``hostspeed``).  ``--trace 1`` is the
separate traced run: every op runs once untraced and once under spans on the
same inputs (the pair gives ``trace.overhead_ratio``), and the spans give
the per-layer metrics.  Exact counts and input-property shares are taken
over the first ``window`` ops, which every run completes and which hold the
same inputs for the same seed.

Every op's output is checked after its timer stops.  Human-readable lines
(provenance, every metric with its unit and base, the failed ops by cause)
come first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when an op
failed for a reason outside ``workloads.KNOWN_DEFECTS``; ops failing for a
known defect still count in ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from hostspeed import HostSpeed, compute_speed, spawn_speed
from tracing import LAYERS, NullTracer, Tracer
from workloads import WORKLOAD_NAMES, Checked, Failure, child_env, spawn

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# The tail percentile is the highest one with this many samples beyond it,
# capped at p95: past that, on a shared 2-CPU host, the figure measures the
# host's scheduling hiccups rather than the toolkit (on reconstruct-sweep's
# 2 ms ops, a few percent of which a hiccup slows two- to fourfold, p99.9
# spread 43% between runs and p99 17%).
TAIL_BEYOND = 10
TAIL_CAP = 0.95
# Untraced runs take at least this many ops, so the tail sits at or above
# the median.
MIN_OPS = 2 * TAIL_BEYOND + 2
FAILURE_EXAMPLES = 3
# A run's wall-clock limit is --seconds plus this margin, which keeps a
# 30-second run inside the 180 s an invocation may take.
WATCHDOG_MARGIN = 140

# Runs in a fresh interpreter: import the CLI, then the first exact
# reconstruct, which fills the lazy beta and pseudoinverse caches.
SETUP_CODE = (
    "import qpt.cli\n"
    "from qpt import preset_config, run_experiment, run_process_tomography\n"
    "run_process_tomography(run_experiment(preset_config('paper-20ns')))\n"
)


class BenchmarkError(Exception):
    """The benchmark cannot produce a result; exit non-zero without one."""


# --- provenance -----------------------------------------------------------


def provenance(args, root: Path) -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` directly; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """Identifies the measured code even in a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qpt").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# --- the loop -------------------------------------------------------------


@dataclass(slots=True)
class OpRecord:
    """One op.  Untraced runs keep no ``info``, so the benchmark's own memory
    stays small beside the toolkit's in ``peak_rss_mb``."""

    index: int
    label: str
    seconds: float
    failures: list
    info: dict
    untraced_seconds: float | None = None
    start: float = 0.0
    replay: dict = field(default_factory=dict)
    child_rss_kb: int = 0


def run_op(workload, inp, tracer, workdir):
    """Time one op; an exception is the op's output, not the benchmark's."""
    start = time.perf_counter()
    try:
        out = workload.run(inp, tracer, workdir)
    except Exception as exc:  # any error the toolkit raises fails this op
        out = exc
    return out, start, time.perf_counter() - start


def check_op(workload, inp, out):
    if isinstance(out, Exception):
        return Checked([Failure(f"raised {type(out).__name__}: {out}")])
    try:
        return workload.check(inp, out)
    except Exception as exc:  # malformed output the checks could not read
        return Checked([Failure(f"output check raised {type(exc).__name__}: {exc}")])


def op_count(workload, seconds: float, traced: bool) -> int:
    """How many ops a run takes: a fixed number for the workload and ``seconds``.

    The count is ``seconds`` times the workload's ``rate``, the ops per
    second it runs at on the host it was sized on, halved on a traced run
    (which runs every op twice), and rounded up to a multiple of
    ``workload.stride``, so every run holds the same mix of the input
    properties that set an op's cost.  An untraced run takes at least
    ``MIN_OPS`` ops and a traced one at least the count window.  The count
    does not depend on how fast the host runs, so the same seed gives the
    same ops, the same failures and the same ``attempted`` and ``failed``
    on every run; a time limit would make them depend on the host's load.
    """
    wanted = seconds * workload.rate / (2 if traced else 1)
    wanted = max(wanted, workload.window if traced else MIN_OPS)
    return workload.stride * math.ceil(wanted / workload.stride)


def drive(
    workload,
    seed: int,
    seconds: float,
    traced: bool,
    workdir: Path,
    speed: HostSpeed | None = None,
    setup_speed: HostSpeed | None = None,
    setup_times: list[tuple[float, float]] | None = None,
):
    """Run ``op_count(workload, seconds, traced)`` ops back to back.

    With ``speed`` given, its kernel is probed between ops.  With
    ``setup_speed`` and ``setup_times`` given, ``SETUP_REPEATS`` set-up
    children are timed, as ``(start, seconds)``, at even intervals between
    ops, so their median spans the same stretch of host load as the ops.
    Returns the op records and the tracer.
    """
    untraced = NullTracer()
    tracer = Tracer() if traced else untraced
    records = []
    count = op_count(workload, seconds, traced)
    for index in range(count):
        if setup_times is not None and len(setup_times) < SETUP_REPEATS:
            if index >= len(setup_times) * count / SETUP_REPEATS:
                setup_times.append(time_setup(workdir, setup_speed))
        if speed is not None:
            speed.probe_if_due()
        inp = workload.make_input(seed, index)
        untraced_seconds = None
        if traced:
            _, _, untraced_seconds = run_op(workload, inp, untraced, workdir)
            tracer.op = index
        out, start, elapsed = run_op(workload, inp, tracer, workdir)
        checked = check_op(workload, inp, out)
        record = OpRecord(
            index, inp.label, elapsed, checked.failures,
            checked.info if traced else {}, untraced_seconds, start,
            child_rss_kb=checked.info.get("max_rss_kb", 0),
        )
        if traced and hasattr(workload, "replay") and not checked.failures:
            record.replay = workload.replay(inp, tracer, workdir)
        records.append(record)
    if speed is not None:
        speed.probe()
    while setup_times is not None and len(setup_times) < SETUP_REPEATS:
        setup_times.append(time_setup(workdir, setup_speed))
    return records, tracer


def python_runner(workdir: Path):
    """``run(args)``: wall seconds of ``python args...`` with ``src`` importable."""
    env = child_env(ROOT)

    def run(args: list[str]) -> float:
        child = spawn([sys.executable, *args], env, workdir / "child")
        if child.code != 0:
            raise BenchmarkError(f"python {args[:2]} exited {child.code}: {child.stderr}")
        return child.seconds

    return run


def time_setup(workdir: Path, speed: HostSpeed) -> tuple[float, float]:
    """``(start, wall seconds)`` of one fresh interpreter running ``SETUP_CODE``,
    with a probe of the spawn kernel on each side."""
    speed.probe()
    start = time.perf_counter()
    seconds = python_runner(workdir)(["-c", SETUP_CODE])
    speed.probe()
    return start, seconds


# --- metrics --------------------------------------------------------------


class Report:
    """Metrics by name with unit; ``lines`` adds the base of each one."""

    def __init__(self):
        self.metrics: dict[str, dict] = {}
        self.lines: list[str] = []

    def add(self, name: str, value, unit: str, base: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        self.lines.append(f"{name} {shown} {unit}" + (f"  ({base})" if base else ""))


def ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def end_to_end(
    workload,
    records: list[OpRecord],
    setup_times: list[tuple[float, float]],
    speed: HostSpeed,
    setup_speed: HostSpeed,
) -> Report:
    """The declared end-to-end metrics; times are host-scaled (see hostspeed)."""
    report = Report()
    n = len(records)
    raw = sorted(r.seconds for r in records)
    scaled = sorted(r.seconds * speed.scale(r.start, r.start + r.seconds) for r in records)
    failed = sum(bool(r.failures) for r in records)
    kernel_ms = statistics.median(speed.seconds) * 1e3
    reference_ms = speed.reference_seconds * 1e3
    scale_note = f"wall {{}}; kernel median {kernel_ms:.4g} ms against {reference_ms:g} ms"
    report.add(
        "ops_per_s",
        n / sum(scaled),
        "1/s",
        f"{n} ops in {sum(scaled):.3f} s of scaled op time; "
        + scale_note.format(f"{n / sum(raw):.4g}/s"),
    )
    report.add(
        "latency_p50_ms",
        statistics.median(scaled) * 1e3,
        "ms",
        f"n={n}; " + scale_note.format(f"{statistics.median(raw) * 1e3:.4g} ms"),
    )
    beyond = max(TAIL_BEYOND, math.ceil(n * (1.0 - TAIL_CAP)))
    report.add(
        "latency_tail_ms",
        scaled[n - beyond - 1] * 1e3,
        "ms",
        f"p{100.0 * (n - beyond) / n:.2f}, n={n}, {beyond} samples beyond; "
        + scale_note.format(f"{raw[n - beyond - 1] * 1e3:.4g} ms"),
    )
    report.add("ok_ratio", ratio(n - failed, n), "ratio", f"{n - failed}/{n}")
    report.lines.append(f"failed_ratio {ratio(failed, n):.6g} ratio  ({failed}/{n})")
    setup = [t * setup_speed.scale(start, start + t) for start, t in setup_times]
    report.add(
        "setup_s",
        statistics.median(setup),
        "s",
        f"median of {len(setup)} fresh interpreters, scaled: "
        + ", ".join(f"{t:.3f}" for t in setup)
        + "; wall: "
        + ", ".join(f"{t:.3f}" for _, t in setup_times),
    )
    child_rss = max(r.child_rss_kb for r in records)
    if child_rss:
        report.add("peak_rss_mb", child_rss / 1024.0, "MB", "largest qpt child")
    else:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report.add("peak_rss_mb", own / 1024.0, "MB", "benchmark process")
    return report


def per_layer(workload, records: list[OpRecord], tracer) -> Report:
    report = Report()
    window = [r for r in records if r.index < workload.window]
    spans = {layer: tracer.layer_spans(layer) for layer in LAYERS}

    def busy(layer: str) -> None:
        total = sum(s.seconds for s in spans[layer])
        report.add(f"{layer}.calls", len(spans[layer]), "count", f"{len(records)} ops")
        report.add(f"{layer}.busy_ms", total * 1e3, "ms", f"over {len(records)} ops")

    def window_sum(key: str) -> int:
        return sum(r.info.get(key, 0) + r.replay.get(key, 0) for r in window)

    def window_share(name: str, key: str) -> None:
        count = sum(bool(r.info.get(key)) for r in window)
        report.add(name, ratio(count, len(window)), "ratio", f"{count}/{len(window)} window ops")

    busy("projection")
    projected = [r for r in records if "evaluations" in r.info]
    durations = [s.seconds for s in spans["projection"]]
    report.add("projection.call_p50_ms", median_ms(durations), "ms", f"n={len(durations)}")
    report.add(
        "projection.evaluations",
        window_sum("evaluations"),
        "count",
        f"{len(window)} window ops",
    )
    converged = sum(r.info["converged"] for r in projected)
    report.add(
        "projection.converged_ratio",
        ratio(converged, len(projected)),
        "ratio",
        f"{converged}/{len(projected)} calls",
    )
    gaps = [r.info["distance_gap"] for r in projected]
    report.add(
        "projection.distance_gap_max",
        max(gaps) if gaps else 0.0,
        "1",
        f"Frobenius distance minus the reference's, max of {len(gaps)}",
    )
    window_share("projection.raw_physical_share", "raw_physical")

    busy("simulator")
    busy("process_tomography")
    window_share("process_tomography.nonideal_share", "nonideal")
    errors = [r.info["exact_error"] for r in records if "exact_error" in r.info]
    report.add(
        "process_tomography.exact_error_max",
        max(errors) if errors else 0.0,
        "1",
        f"||chi - truth||_F, max of {len(errors)} exact-data ops",
    )
    busy("metrics")

    busy("io")
    report.add("io.bytes_written", window_sum("bytes_written"), "bytes", f"{len(window)} window ops")
    report.add("io.bytes_read", window_sum("bytes_read"), "bytes", f"{len(window)} window ops")
    busy("mesh")
    report.add("mesh.vertices", window_sum("vertices"), "count", f"{len(window)} window ops")
    report.add("mesh.obj_bytes", window_sum("obj_bytes"), "bytes", f"{len(window)} window ops")

    busy("cli")
    replayed = [r for r in records if r.replay]
    startup = [
        r.info["command_seconds"][c] - r.replay["replay_seconds"][c]
        for r in replayed
        for c in r.replay["replay_seconds"]
    ]
    report.add(
        "cli.startup_ms",
        median_ms(startup),
        "ms",
        f"median over {len(startup)} commands of wall minus in-process replay",
    )
    for command in workloads.CliChain.commands:
        walls = [s.seconds for s in spans["cli"] if s.name == command]
        report.add(f"cli.{command}_p50_ms", median_ms(walls), "ms", f"n={len(walls)}")
    exits = sum(r.info.get("nonzero_exits", 0) for r in records)
    report.add("cli.nonzero_exits", exits, "count", f"{len(spans['cli'])} commands")

    traced = sum(r.seconds for r in records)
    untraced = sum(r.untraced_seconds for r in records)
    report.add(
        "trace.overhead_ratio",
        traced / untraced - 1.0,
        "ratio",
        f"traced {traced:.4f} s over untraced {untraced:.4f} s, same {len(records)} ops",
    )
    # Spans inside an op's timed interval are the blocking steps; the cli
    # replay runs after the timer and decomposes cli time instead.
    bounds = {r.index: (r.start, r.start + r.seconds) for r in records}
    accounted = sum(
        s.seconds
        for s in tracer.spans
        if bounds[s.op][0] <= s.start and s.end <= bounds[s.op][1]
    )
    report.add(
        "trace.unaccounted_share",
        1.0 - accounted / traced,
        "ratio",
        f"op time outside layer spans: {traced - accounted:.4f} s of {traced:.4f} s",
    )
    return report


# --- entry point ----------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="qpt benchmark: one workload, one closed-loop client")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def _watchdog(signum, frame):
    raise BenchmarkError("run exceeded its wall-clock limit")


def print_report(records: list[OpRecord], report: Report) -> None:
    """Metric lines, then failed ops grouped by cause, then the JSON line."""
    for line in report.lines:
        print(line)
    failed = [r for r in records if r.failures]
    by_cause: dict[str, list[OpRecord]] = {}
    for r in failed:
        causes = {f.defect or "UNEXPLAINED" for f in r.failures}
        by_cause.setdefault(" + ".join(sorted(causes)), []).append(r)
    for cause, ops in by_cause.items():
        print(f"# failed {len(ops)}/{len(records)} ops: {cause}")
        for defect in cause.split(" + "):
            if defect in workloads.KNOWN_DEFECTS:
                print(f"#   known defect {defect}: {workloads.KNOWN_DEFECTS[defect]}")
        for r in ops[:FAILURE_EXAMPLES]:
            reasons = "; ".join(f.reason for f in r.failures)
            print(f"#   op {r.index} ({r.label}): {reasons}")
    result = {
        "correct": all(f.defect for r in failed for f in r.failures),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": report.metrics,
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(math.ceil(args.seconds) + WATCHDOG_MARGIN)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, ROOT)
        print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("# provenance " + json.dumps(provenance(args, ROOT), sort_keys=True))
        if args.trace:
            records, tracer = drive(workload, args.seed, args.seconds, True, workdir)
            report = per_layer(workload, records, tracer)
        else:
            setup_speed = spawn_speed(python_runner(workdir))
            speed = setup_speed if workload.in_child else compute_speed()
            setup_times = []
            records, _ = drive(
                workload, args.seed, args.seconds, False, workdir,
                speed, setup_speed, setup_times,
            )
            report = end_to_end(workload, records, setup_times, speed, setup_speed)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print_report(records, report)
    return 0
