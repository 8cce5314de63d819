"""Tests of the benchmark itself: its checks, its determinism, its output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.bootstrap() is None

import bench  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from hostspeed import compute_speed, spawn_speed  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from qpt import NonConvergenceError, ProjectionResult, apply_chi  # noqa: E402
from qpt.process_tomography import chi_from_lambda, lambda_from_outputs  # noqa: E402
from qpt.simulator import prepare_input  # noqa: E402
from qpt.states import OPERATION_ELEMENTS  # noqa: E402

IDENTITY_CHI = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


def _bench_command(cwd: Path, workload: str, trace: int, seed: int = 5):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


# --- the reference --------------------------------------------------------


def test_reference_basis_and_completeness_match_the_toolkit():
    assert np.array_equal(ref.OPERATION_BASIS, np.stack(OPERATION_ELEMENTS))
    assert ref.tp_residual(IDENTITY_CHI) == 0.0
    assert ref.tp_residual(2.0 * IDENTITY_CHI) == pytest.approx(np.sqrt(2.0))


def test_reference_projection_oracles():
    # Already CPTP: the projection is the input itself.
    dephasing = ref.dephasing_chi(0.6)
    nearest, _ = ref.reference_projection(dephasing)
    assert np.linalg.norm(nearest - dephasing) < 1e-12
    # The transpose map, chi = diag(1, 1, -1, 1) / 2, is TP but not CP.
    transpose = np.diag([0.5, 0.5, -0.5, 0.5]).astype(complex)
    nearest, _ = ref.reference_projection(transpose)
    assert ref.min_eigenvalue(nearest) >= -ref.FEASIBILITY_TOL
    assert ref.tp_residual(nearest) <= ref.FEASIBILITY_TOL
    assert np.linalg.norm(nearest - transpose) == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-9)


# --- failure rules flag deliberately wrong answers ------------------------


def _noisy_case():
    sweep = workloads.NoisySweep()
    inp = sweep.make_input(seed=3, index=5)  # paper-40ns, 100 shots
    chi = workloads.run_process_tomography(workloads.run_experiment(inp.config)).chi
    nearest, _ = ref.reference_projection(chi)
    return sweep, inp, chi, nearest


def _noisy_output(chi, chi_tilde, error=None):
    result = ProjectionResult(
        chi_tilde=chi_tilde,
        distance=float(np.linalg.norm(chi_tilde - chi)),
        iterations=7,
        converged=error is None,
        restart_distances=(),
    )
    return {"chi": chi, "result": result, "error": error}


def test_noisy_check_passes_the_reference_answer():
    sweep, inp, chi, nearest = _noisy_case()
    checked = sweep.check(inp, _noisy_output(chi, nearest))
    assert checked.failures == []
    assert checked.info["raw_physical"] is False


def test_noisy_check_flags_a_perturbed_chi_tilde():
    sweep, inp, chi, nearest = _noisy_case()
    values, vectors = np.linalg.eigh(nearest)
    low = vectors[:, :1]
    perturbed = nearest - 1e-6 * (low @ low.conj().T)
    reasons = [f.reason for f in sweep.check(inp, _noisy_output(chi, perturbed)).failures]
    assert any("min eigenvalue" in r for r in reasons)


def test_noisy_check_flags_a_non_tp_matrix():
    sweep, inp, chi, nearest = _noisy_case()
    failures = sweep.check(inp, _noisy_output(chi, nearest * (1.0 + 1e-6))).failures
    assert any("||S - I||_F" in f.reason and f.defect is None for f in failures)


def test_noisy_check_flags_a_suboptimal_and_an_unconverged_projection():
    sweep, inp, chi, nearest = _noisy_case()
    # A convex mix with the identity channel is CPTP but farther away.
    worse = 0.999 * nearest + 0.001 * IDENTITY_CHI
    failures = sweep.check(inp, _noisy_output(chi, worse)).failures
    assert [f.defect for f in failures] == ["projection-suboptimal"]
    failures = sweep.check(
        inp, _noisy_output(chi, nearest, error=NonConvergenceError("budget"))
    ).failures
    assert [f.defect for f in failures] == ["projection-suboptimal"]


def test_reconstruct_check_flags_a_wrong_basis_reconstruction():
    sweep = workloads.ReconstructSweep()
    inp = sweep.make_input(seed=1, index=0)  # paper-20ns, exact, ideal
    assert inp.config.shots is None and not inp.nonideal
    truth = ref.dephasing_chi(workloads.dephasing_factor(inp.config.decoherence_time))
    outputs = [apply_chi(truth, prepare_input(inp.config, i)) for i in range(1, 5)]
    right, _ = chi_from_lambda(lambda_from_outputs(outputs))
    assert sweep.check(inp, {"chi": right}).failures == []
    skewed = replace(inp.config, pulse_error=0.05)
    wrong_basis = [prepare_input(skewed, i) for i in range(1, 5)]
    wrong, _ = chi_from_lambda(lambda_from_outputs(outputs, wrong_basis))
    failures = sweep.check(inp, {"chi": wrong}).failures
    assert len(failures) == 1 and failures[0].defect is None


def test_reconstruct_check_attributes_nonideal_errors_to_the_known_defect():
    sweep = workloads.ReconstructSweep()
    inp = sweep.make_input(seed=1, index=24)  # paper-20ns, exact, pulse_error
    assert inp.config.shots is None and inp.nonideal
    truth = ref.dephasing_chi(workloads.dephasing_factor(inp.config.decoherence_time))
    assert sweep.check(inp, {"chi": truth}).failures == []
    failures = sweep.check(inp, {"chi": truth + 1e-6 * IDENTITY_CHI}).failures
    assert [f.defect for f in failures] == ["preparation-ignored"]


def test_cli_check_flags_a_nonzero_exit(tmp_path):
    chain = workloads.CliChain(run.ROOT)
    inp = chain.make_input(seed=1, index=0)
    children = {"simulate": workloads.Child(2, 0.1, 1000, "error: bad config")}
    checked = chain.check(inp, {"children": children, "paths": chain.paths(tmp_path)})
    assert checked.info["nonzero_exits"] == 1
    assert [f.defect for f in checked.failures] == [None]
    assert "exited 2" in checked.failures[0].reason


def test_cli_check_flags_a_wrong_vertex_count(tmp_path):
    chain = workloads.CliChain(run.ROOT)
    inp = chain.make_input(seed=1, index=0)
    out = chain.run(inp, NullTracer(), tmp_path)
    assert chain.check(inp, out).failures == []
    obj = out["paths"]["obj"]
    obj.write_text(obj.read_text() + "v 0.0 0.0 0.0\n")
    reasons = [f.reason for f in chain.check(inp, out).failures]
    assert len(reasons) == 1 and "vertices" in reasons[0]


@pytest.mark.parametrize("defect, correct", [("preparation-ignored", True), (None, False)])
def test_only_unexplained_failures_clear_correct(defect, correct, capsys):
    failure = workloads.Failure("exact-data chi error 1e-3", defect)
    records = [
        bench.OpRecord(0, "a", 0.1, [], {}),
        bench.OpRecord(1, "b", 0.1, [failure], {}),
    ]
    bench.print_report(records, bench.Report())
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": correct, "attempted": 2, "failed": 1, "metrics": {}}


def test_host_speed_scales_by_the_probes_around_an_interval(tmp_path):
    speed = compute_speed()
    speed.starts, speed.seconds = [0.0, 1.0, 2.0], [1e-3, 2e-3, 4e-3]
    assert speed.scale(0.5, 0.9) == pytest.approx(1e-3 / 1.5e-3)
    assert speed.scale(2.5, 3.0) == pytest.approx(1e-3 / 4e-3)
    with pytest.raises(ValueError):
        compute_speed().scale(0.0, 1.0)
    speed.probe()
    assert len(speed.seconds) == 4 and speed.seconds[-1] > 0.0
    spawned = spawn_speed(bench.python_runner(tmp_path))
    spawned.probe()
    assert spawned.seconds[0] > 0.0


# --- determinism ----------------------------------------------------------


@pytest.mark.parametrize(
    "workload", [workloads.NoisySweep(), workloads.ReconstructSweep()]
)
def test_inputs_repeat_for_a_seed_and_change_with_it(workload):
    for index in range(workload.window):
        a = workload.make_input(7, index)
        assert a == workload.make_input(7, index)
        assert a.config.seed != workload.make_input(8, index).config.seed
    noisy = [workload.make_input(s, 3).config for s in (7, 8)]  # sampled shots
    records = [workloads.run_experiment(c)[0].records[0].value for c in noisy]
    assert records[0] != records[1]


def test_projection_evaluations_repeat_for_the_same_input():
    sweep = workloads.NoisySweep()
    inp = sweep.make_input(seed=2, index=1)  # paper-20ns, 100 shots
    counts = [
        sweep.check(inp, sweep.run(inp, NullTracer(), None)).info["evaluations"]
        for _ in range(2)
    ]
    assert counts[0] == counts[1] > 0


def test_cli_counts_repeat_for_a_seed(tmp_path):
    chain = workloads.CliChain(run.ROOT)
    inp = chain.make_input(seed=4, index=1)  # subdivisions 6
    assert inp == chain.make_input(seed=4, index=1)
    chain.run(inp, NullTracer(), tmp_path)
    replays = [chain.replay(inp, Tracer(), tmp_path) for _ in range(2)]
    for key in ("bytes_read", "bytes_written", "vertices", "obj_bytes"):
        assert replays[0][key] == replays[1][key] > 0
    assert replays[0]["vertices"] == 2 * (10 * 4**6 + 2)


def test_op_count_depends_only_on_seconds_and_the_workload():
    chain = workloads.CliChain(run.ROOT)
    sweeps = (workloads.NoisySweep(), workloads.ReconstructSweep(), chain)
    assert [bench.op_count(w, 30, False) for w in sweeps] == [36, 13500, 24]
    for workload in sweeps:
        for traced in (False, True):
            count = bench.op_count(workload, 30, traced)
            assert count % workload.stride == 0
            assert count >= (workload.window if traced else bench.MIN_OPS)
    assert bench.op_count(chain, 0, False) == 24  # MIN_OPS rounded up to a stride


def test_window_counts_repeat_for_a_seed(tmp_path):
    sweep = workloads.ReconstructSweep()
    metrics = []
    for _ in range(2):
        records, tracer = bench.drive(sweep, 9, 0.0, True, tmp_path)
        assert len(records) == sweep.window
        metrics.append(bench.per_layer(sweep, records, tracer).metrics)
    for name in ("process_tomography.nonideal_share", "process_tomography.exact_error_max"):
        assert metrics[0][name] == metrics[1][name]
    assert metrics[0]["process_tomography.nonideal_share"]["value"] == pytest.approx(2 / 3)


# --- the command ----------------------------------------------------------


def _declared(kind: str) -> set[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, kind):
    done = _bench_command(run.ROOT, "reconstruct-sweep", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == _declared(kind)
    assert "# provenance " in done.stdout


def test_smoke_op_of_each_workload_passes(tmp_path):
    for workload in (
        workloads.NoisySweep(),
        workloads.ReconstructSweep(),
        workloads.CliChain(run.ROOT),
    ):
        inp = workload.make_input(seed=6, index=0)
        checked = bench.check_op(workload, inp, workload.run(inp, NullTracer(), tmp_path))
        assert checked.failures == [], workload.name


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _bench_command(tmp_path, "reconstruct-sweep", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
