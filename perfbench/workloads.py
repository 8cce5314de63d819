"""The three closed-loop workloads: inputs from a seed, one op, its check.

Every workload derives op ``i``'s inputs from ``(seed, i)`` alone, cycling
the input properties the toolkit's cost and correctness depend on in a fixed
order, so the first ``window`` ops of a run cover every combination once and
hold the same inputs for the same seed.  An op's check runs after its timer
stops and never calls the code under test for the answer it checks.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from qpt import (
    ExperimentConfig,
    NonConvergenceError,
    process_distance_report,
    project_to_physical,
    projection_report,
    run_experiment,
    run_process_tomography,
    standard_channel,
    true_channel,
)
from qpt import io as qio
from qpt.mesh import ellipsoid_mesh, mesh_metadata, write_obj

T2 = 100.0
INTERVALS = {"paper-20ns": 20.0, "paper-40ns": 40.0, "paper-80ns": 80.0}
PRESET_NAMES = tuple(INTERVALS)

# Failure thresholds of the output checks.
MIN_EIGENVALUE_TOL = 1e-9
TP_TOL = 1e-8
DISTANCE_GAP_TOL = 1e-8
EXACT_CHI_TOL = 1e-7
COMPARE_TOL = 1e-12

# Defects of the toolkit that were present when the benchmark was defined.
# An op that fails only for one of these still counts as failed; the run's
# ``correct`` flag turns false only for a failure outside this list.
KNOWN_DEFECTS = {
    "projection-suboptimal": (
        "compass-search projection raises NonConvergenceError or stops more "
        "than 1e-8 above the reference distance"
    ),
    "preparation-ignored": (
        "reconstruction ignores a non-ideal preparation declared in the "
        "records' config"
    ),
}


def op_seed(seed: int, index: int) -> int:
    """Noise seed of op ``index``; depends on nothing but its arguments."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def dephasing_factor(interval: float) -> float:
    return math.exp(-interval / T2)


@dataclass
class Failure:
    reason: str
    defect: str | None = None  # a KNOWN_DEFECTS key, or None if unexplained


@dataclass
class Checked:
    failures: list[Failure] = field(default_factory=list)
    info: dict = field(default_factory=dict)


# --- noisy-sweep ----------------------------------------------------------


@dataclass(frozen=True)
class SweepInput:
    label: str
    config: ExperimentConfig
    nonideal: bool = False


class NoisySweep:
    """simulate -> reconstruct -> project -> report + compare to the truth."""

    name = "noisy-sweep"
    in_child = False
    shots = (None, 100, 1000, 10000)
    window = len(PRESET_NAMES) * len(shots)
    # Shots vary fastest, then the preset; a run takes whole windows, so
    # every run holds each preset and shot count equally often.
    stride = window
    # Ops per second on the host the benchmark was sized on (see op_count).
    rate = 1.0

    def make_input(self, seed: int, index: int) -> SweepInput:
        shots = self.shots[index % len(self.shots)]
        preset = PRESET_NAMES[(index // len(self.shots)) % 3]
        config = ExperimentConfig(
            t2=T2,
            decoherence_time=INTERVALS[preset],
            shots=shots,
            seed=op_seed(seed, index),
        )
        return SweepInput(f"{preset} shots={shots or 'exact'}", config)

    def run(self, inp: SweepInput, tracer, workdir: Path) -> dict:
        with tracer.span("simulator", "run_experiment"):
            records = run_experiment(inp.config)
        with tracer.span("process_tomography", "run_process_tomography"):
            estimate = run_process_tomography(records)
        error = None
        with tracer.span("projection", "project_to_physical"):
            try:
                result = project_to_physical(estimate.chi)
            except NonConvergenceError as exc:
                result, error = exc.best_result, exc
        with tracer.span("simulator", "true_channel"):
            truth = true_channel(inp.config)
        with tracer.span("metrics", "projection_report"):
            projection_report(estimate.chi, result)
        with tracer.span("metrics", "process_distance_report"):
            process_distance_report(result.chi_tilde, truth)
        return {"chi": estimate.chi, "result": result, "error": error}

    def check(self, inp: SweepInput, out: dict) -> Checked:
        checked = Checked()
        fail = checked.failures.append
        if out["error"] is not None:
            fail(Failure("raised NonConvergenceError", "projection-suboptimal"))
        chi_tilde = out["result"].chi_tilde
        lowest = ref.min_eigenvalue(chi_tilde)
        if lowest < -MIN_EIGENVALUE_TOL:
            fail(Failure(f"chi_tilde min eigenvalue {lowest:.3e}"))
        tp = ref.tp_residual(chi_tilde)
        if tp > TP_TOL:
            fail(Failure(f"chi_tilde ||S - I||_F {tp:.3e}"))
        target = ref.hermitian_part(out["chi"])
        nearest, _ = ref.reference_projection(target)
        gap = float(
            np.linalg.norm(chi_tilde - target) - np.linalg.norm(nearest - target)
        )
        if gap > DISTANCE_GAP_TOL:
            fail(Failure(f"distance {gap:.3e} above the reference", "projection-suboptimal"))
        raw_physical = (
            ref.min_eigenvalue(target) >= -MIN_EIGENVALUE_TOL
            and ref.tp_residual(target) <= TP_TOL
        )
        checked.info = {
            "evaluations": int(out["result"].iterations),
            "converged": out["error"] is None,
            "distance_gap": gap,
            "raw_physical": raw_physical,
            "nonideal": inp.nonideal,
        }
        if inp.config.shots is None:
            checked.info["exact_error"] = exact_error(inp.config, out["chi"])
        return checked


def exact_error(config: ExperimentConfig, chi: np.ndarray) -> float:
    """``||chi - truth||_F`` against the dephasing channel built here."""
    return float(
        np.linalg.norm(chi - ref.dephasing_chi(dephasing_factor(config.decoherence_time)))
    )


# --- reconstruct-sweep ----------------------------------------------------


class ReconstructSweep:
    """simulate -> reconstruct -> compare to the truth; no projection."""

    name = "reconstruct-sweep"
    in_child = False
    shots = (None, 100, 1000, 100000)
    preparations = (
        ("ideal", {}),
        ("polarization=0.95", {"polarization": 0.95}),
        ("pulse_error=0.05", {"pulse_error": 0.05}),
    )
    window = len(PRESET_NAMES) * len(shots) * len(preparations)
    stride = window
    rate = 450.0

    def make_input(self, seed: int, index: int) -> SweepInput:
        preset = PRESET_NAMES[index % 3]
        shots = self.shots[(index // 3) % len(self.shots)]
        prep, overrides = self.preparations[(index // 12) % len(self.preparations)]
        config = ExperimentConfig(
            t2=T2,
            decoherence_time=INTERVALS[preset],
            shots=shots,
            seed=op_seed(seed, index),
            **overrides,
        )
        return SweepInput(
            f"{preset} shots={shots or 'exact'} {prep}", config, nonideal=bool(overrides)
        )

    def run(self, inp: SweepInput, tracer, workdir: Path) -> dict:
        with tracer.span("simulator", "run_experiment"):
            records = run_experiment(inp.config)
        with tracer.span("process_tomography", "run_process_tomography"):
            estimate = run_process_tomography(records)
        with tracer.span("simulator", "true_channel"):
            truth = true_channel(inp.config)
        with tracer.span("metrics", "process_distance_report"):
            process_distance_report(estimate.chi, truth)
        return {"chi": estimate.chi}

    def check(self, inp: SweepInput, out: dict) -> Checked:
        checked = Checked(info={"nonideal": inp.nonideal})
        if inp.config.shots is None:
            error = exact_error(inp.config, out["chi"])
            checked.info["exact_error"] = error
            if error > EXACT_CHI_TOL:
                checked.failures.append(
                    Failure(
                        f"exact-data chi error {error:.3e}",
                        "preparation-ignored" if inp.nonideal else None,
                    )
                )
        return checked


# --- cli-chain ------------------------------------------------------------

# What the ``qpt`` console script runs.
CLI_MAIN = "import sys; from qpt.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Child:
    code: int
    seconds: float
    max_rss_kb: int
    stderr: str


def spawn(argv: list[str], env: dict, log_prefix: Path) -> Child:
    """Run one child to completion; wall time and peak RSS are its own."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, f"{log_prefix}.out", flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, f"{log_prefix}.err", flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    seconds = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    stderr = ""
    if code != 0:
        stderr = Path(f"{log_prefix}.err").read_text(errors="replace")[-300:].strip()
    return Child(code, seconds, usage.ru_maxrss, stderr)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("QPT_LOG", None)
    return env


@dataclass(frozen=True)
class ChainInput:
    label: str
    config: dict
    subdivisions: int
    factor: float


class CliChain:
    """The README chain as four ``qpt`` subprocesses, one after another."""

    name = "cli-chain"
    in_child = True
    # Latency is bimodal in subdivisions (about 1 s at 3, 2 s at 6).  With
    # the two levels one to one, the median would fall in the gap between
    # the groups and swing with the two ops beside it; with 6 on two ops in
    # three, the median and the tail (22 ops or more) both fall inside the
    # subdivision-6 group, while every op still pays four start-ups.
    subdivisions = (3, 6, 6)
    window = len(PRESET_NAMES) * len(subdivisions)
    stride = len(subdivisions)
    rate = 0.6
    commands = ("simulate", "reconstruct", "render", "compare")

    def __init__(self, root: Path):
        self.env = child_env(root)

    def make_input(self, seed: int, index: int) -> ChainInput:
        subdivisions = self.subdivisions[index % len(self.subdivisions)]
        preset = PRESET_NAMES[(index // len(self.subdivisions)) % 3]
        config = {
            "t2": T2,
            "decoherence_time": INTERVALS[preset],
            "shots": 1000,
            "seed": op_seed(seed, index),
        }
        return ChainInput(
            f"{preset} subdivisions={subdivisions}",
            config,
            subdivisions,
            dephasing_factor(INTERVALS[preset]),
        )

    @staticmethod
    def paths(workdir: Path, stem: str = "") -> dict:
        return {
            "config": workdir / f"{stem}config.json",
            "records": workdir / f"{stem}records.json",
            "result": workdir / f"{stem}result.json",
            "mesh": workdir / f"{stem}mesh",
            "obj": workdir / f"{stem}mesh_raw.obj",
            "sidecar": workdir / f"{stem}mesh_raw.json",
            "comparison": workdir / f"{stem}comparison.json",
        }

    def run(self, inp: ChainInput, tracer, workdir: Path) -> dict:
        p = self.paths(workdir)
        for path in p.values():
            # No command may pass a check on the previous op's output.
            path.unlink(missing_ok=True)
        p["config"].write_text(json.dumps(inp.config))
        argv = {
            "simulate": ["simulate", "--config", p["config"], "--out", p["records"]],
            "reconstruct": ["reconstruct", "--records", p["records"], "--out", p["result"]],
            "render": [
                "render", "--result", p["result"], "--out", p["mesh"],
                "--subdivisions", inp.subdivisions,
            ],
            "compare": [
                "compare", p["result"], f"dephasing:{inp.factor!r}",
                "--out", p["comparison"],
            ],
        }
        children = {}
        for command in self.commands:
            with tracer.span("cli", command):
                child = spawn(
                    [sys.executable, "-c", CLI_MAIN, *map(str, argv[command])],
                    self.env,
                    workdir / command,
                )
            children[command] = child
            if child.code != 0:
                break
        return {"children": children, "paths": p}

    def check(self, inp: ChainInput, out: dict) -> Checked:
        children, p = out["children"], out["paths"]
        checked = Checked(
            info={
                "command_seconds": {c: ch.seconds for c, ch in children.items()},
                "nonzero_exits": sum(ch.code != 0 for ch in children.values()),
                "max_rss_kb": max(ch.max_rss_kb for ch in children.values()),
            }
        )
        fail = checked.failures.append
        for command, child in children.items():
            if child.code != 0:
                fail(Failure(f"qpt {command} exited {child.code}: {child.stderr}"))
                return checked
        for key, kind in (
            ("records", "qpt-records"),
            ("result", "qpt-result"),
            ("comparison", "qpt-comparison"),
        ):
            found = json.loads(p[key].read_text()).get("kind")
            if found != kind:
                fail(Failure(f"{key} document has kind {found!r}, expected {kind!r}"))
        expected = 2 * (10 * 4**inp.subdivisions + 2)
        with open(p["obj"], encoding="utf-8") as handle:
            vertices = sum(line.startswith("v ") for line in handle)
        if vertices != expected:
            fail(Failure(f"OBJ has {vertices} vertices, expected {expected}"))
        reported = json.loads(p["comparison"].read_text())["norms"]["frobenius_norm"]
        estimate = run_process_tomography(
            run_experiment(qio.config_from_dict(inp.config))
        )
        in_process = process_distance_report(
            estimate.chi, standard_channel("dephasing", factor=inp.factor)
        ).norms.frobenius_norm
        if abs(reported - in_process) > COMPARE_TOL:
            fail(
                Failure(
                    f"compare frobenius {reported!r} differs from in-process "
                    f"{in_process!r}"
                )
            )
        return checked

    def replay(self, inp: ChainInput, tracer, workdir: Path) -> dict:
        """Redo each command's library work in-process under spans.

        Subprocesses cannot be traced from here, so the traced run repeats
        the calls each command makes into ``io``, ``mesh`` and the numerical
        modules; a command's wall time minus its replay is start-up and CLI
        glue.  Returns per-command replay seconds and the exact byte and
        vertex counts.
        """
        src = self.paths(workdir)
        dst = self.paths(workdir, "replay_")
        counts = {"bytes_read": 0, "bytes_written": 0, "vertices": 0, "obj_bytes": 0}
        seconds = {}

        def read(path):
            with tracer.span("io", "read_json"):
                doc = qio.read_json(str(path))
            counts["bytes_read"] += path.stat().st_size
            return doc

        def write(path, doc):
            with tracer.span("io", "write_json_atomic"):
                qio.write_json_atomic(str(path), doc)
            counts["bytes_written"] += path.stat().st_size

        start = time.perf_counter()
        config_doc = read(src["config"])
        with tracer.span("io", "config_from_dict"):
            config = qio.config_from_dict(config_doc)
        with tracer.span("simulator", "run_experiment"):
            records = run_experiment(config)
        with tracer.span("io", "records_document"):
            records_doc = qio.records_document(records)
        write(dst["records"], records_doc)
        seconds["simulate"] = time.perf_counter() - start

        start = time.perf_counter()
        records_doc = read(src["records"])
        with tracer.span("io", "parse_records_document"):
            records = qio.parse_records_document(records_doc)
        with tracer.span("process_tomography", "run_process_tomography"):
            estimate = run_process_tomography(records)
        with tracer.span("io", "result_document"):
            result_doc = qio.result_document(estimate, records[0].config)
        write(dst["result"], result_doc)
        seconds["reconstruct"] = time.perf_counter() - start

        start = time.perf_counter()
        result_doc = read(src["result"])
        with tracer.span("io", "decode_affine"):
            affine = qio.decode_affine(result_doc["raw"]["affine"], "raw.affine")
        with tracer.span("mesh", "ellipsoid_mesh"):
            mesh = ellipsoid_mesh(affine, inp.subdivisions)
        with tracer.span("mesh", "write_obj"):
            write_obj(mesh, str(dst["obj"]))
        with tracer.span("mesh", "mesh_metadata"):
            sidecar = mesh_metadata(affine, mesh)
        write(dst["sidecar"], sidecar)
        counts["vertices"] += len(mesh.vertices) + len(mesh.reference_vertices)
        counts["obj_bytes"] += dst["obj"].stat().st_size
        seconds["render"] = time.perf_counter() - start

        start = time.perf_counter()
        result_doc = read(src["result"])
        with tracer.span("io", "document_chi"):
            chi = qio.document_chi(result_doc)
        context = (f"{src['result'].name}:raw", f"dephasing:{inp.factor!r}")
        with tracer.span("metrics", "process_distance_report"):
            comparison = process_distance_report(
                chi, standard_channel("dephasing", factor=inp.factor), context
            )
        # The document ``qpt compare`` writes, so the byte count matches.
        write(
            dst["comparison"],
            {
                "schema_version": qio.SCHEMA_VERSION,
                "kind": "qpt-comparison",
                "context": list(context),
                "norms": comparison.norms.as_dict(),
                "state_metrics": (
                    {"skipped": comparison.skip_reason}
                    if comparison.state_metrics is None
                    else comparison.state_metrics.as_dict()
                ),
            },
        )
        seconds["compare"] = time.perf_counter() - start
        return {"replay_seconds": seconds, **counts}


def build(name: str, root: Path):
    if name == NoisySweep.name:
        return NoisySweep()
    if name == ReconstructSweep.name:
        return ReconstructSweep()
    if name == CliChain.name:
        return CliChain(root)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = (NoisySweep.name, ReconstructSweep.name, CliChain.name)
