"""Smoke runs of the scripts under ``scripts/`` through their ``main()``."""

import json
import math
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from conftest import load_script
from qpt import projection



PRESET_NAMES = ("paper-20ns", "paper-40ns", "paper-80ns")
NORM_KEYS = ("p1_norm", "p2_norm", "frobenius_norm", "trace_distance_pro")


def expected_row(name, doc):
    """A table row's fields, formatted from the numbers of ``result.json``."""
    config, projected = doc["config"], doc["projected"]
    matrix = projected["affine"]["matrix"]
    return [
        name,
        f"{math.exp(-config['decoherence_time'] / config['t2']):.6f}",
        f"{(matrix[0][0] + matrix[1][1]) / 2:.6f}",
        f"{matrix[2][2]:.5f}",
        str(doc["raw"]["cp"]["flag"] and doc["raw"]["tp"]["flag"]),
        f"{projected['distance']:.2e}",
        *(f"{doc['discrepancy'][key]:.4f}" for key in NORM_KEYS),
    ]


def test_run_protocol(tmp_path, capsys):
    main = load_script("run_protocol").main
    for argv, mode in (
        ([], "exact expectations"),
        (["--shots", "1000", "--seed", "3"], "1000 shots"),
    ):
        out = tmp_path / mode.replace(" ", "-")
        assert main([*argv, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-5] == f"three-interval protocol, {mode}, artifacts in {out}/"
        assert lines[-4].startswith("preset ")
        for name, row in zip(PRESET_NAMES, lines[-3:]):
            run_dir = out / name
            for artifact in (
                "records.json", "result.json", "compare_identity.json",
                "mesh_raw.obj", "mesh_raw.json",
                "mesh_projected.obj", "mesh_projected.json",
            ):
                assert (run_dir / artifact).exists()
            doc = json.loads((run_dir / "result.json").read_text())
            fields = re.sub(r"[(),]", " ", row).split()
            assert fields == expected_row(name, doc)


def test_run_protocol_returns_pipeline_exit_code(tmp_path, capsys, monkeypatch):
    # With a one-evaluation budget no noisy projection converges: the
    # pipeline exits 4, still writes every result, and the table follows.
    monkeypatch.setattr(projection, "MAX_ITERATIONS", 1)
    main = load_script("run_protocol").main
    assert main(["--shots", "1000", "--out", str(tmp_path)]) == 4
    lines = capsys.readouterr().out.splitlines()
    for name, row in zip(PRESET_NAMES, lines[-3:]):
        doc = json.loads((tmp_path / name / "result.json").read_text())
        assert doc["projected"]["converged"] is False
        assert re.sub(r"[(),]", " ", row).split() == expected_row(name, doc)


def test_shot_noise_study(tmp_path, capsys):
    main = load_script("shot_noise_study").main
    out = tmp_path / "shot_noise.json"
    assert main(["--levels", "1000", "100", "--seeds", "5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "fitted scaling exponent" in printed
    text = out.read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2) + "\n"
    assert payload["preset"] == "paper-20ns"
    assert payload["seeds"] == 5
    assert payload["levels"] == [100, 1000]
    assert len(payload["median_errors"]) == 2
    assert all(error > 0.0 for error in payload["median_errors"])
    assert math.isfinite(payload["exponent"])
    assert f"fitted scaling exponent: {payload['exponent']:.3f}" in printed
    assert [p.name for p in tmp_path.iterdir()] == ["shot_noise.json"]



def test_shot_noise_study_checks_out_directory_before_the_sweep(
    tmp_path, capsys, monkeypatch
):
    module = load_script("shot_noise_study")

    def sweep_started(*args):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(module, "median_error", sweep_started)
    out = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as exit_info:
        module.main(["--levels", "100", "--seeds", "1", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "does not exist" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("levels", [["100"], ["100", "100"]])
def test_shot_noise_study_needs_two_distinct_levels(tmp_path, capsys, monkeypatch, levels):
    # A slope through one level would be made up: refused before the sweep.
    module = load_script("shot_noise_study")

    def sweep_started(*args):
        raise AssertionError("the sweep ran with fewer than two levels")

    monkeypatch.setattr(module, "median_error", sweep_started)
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exit_info:
        module.main(["--levels", *levels, "--seeds", "2", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "at least two distinct shot levels" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_shot_noise_study_drops_repeated_levels(tmp_path, capsys):
    main = load_script("shot_noise_study").main
    out = tmp_path / "shot_noise.json"
    assert main(["--levels", "100", "1000", "100", "--seeds", "2", "--out", str(out)]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:4]]
    assert rows == ["100", "1000"]
    assert json.loads(out.read_text())["levels"] == [100, 1000]


MACHINE = {
    "cpu_count": 2, "cpus_usable": 2, "cpu_model": "Test CPU", "python": "3.11.7",
    "numpy": "2.4.6", "blas": "scipy-openblas 0.3.30",
}


def write_run(path, workload, seed, commit, values, machine=MACHINE, failed=0, digest=None):
    """A saved ``perfbench/run.py`` stdout: header, provenance, metric lines
    and the final JSON result line.  The source digest is ``commit * 2``
    unless ``digest`` is given."""
    provenance = {
        "workload": workload, "seed": seed, "seconds": 30, "trace": 0,
        "git_commit": commit, "source_sha256": digest or commit * 2, **machine,
    }
    metrics = {
        "ops_per_s": {"value": values[0], "unit": "1/s"},
        "latency_p50_ms": {"value": values[1], "unit": "ms"},
        "ok_ratio": {"value": 1.0 - failed / 36, "unit": "ratio"},
    }
    result = {"correct": True, "attempted": 36, "failed": failed, "metrics": metrics}
    path.write_text(
        f"# perfbench {workload} seed={seed} seconds=30 trace=0\n"
        f"# provenance {json.dumps(provenance, sort_keys=True)}\n"
        f"ops_per_s {values[0]} 1/s  (36 ops)\n"
        f"{json.dumps(result)}\n"
    )
    return path


def test_bench_record_folds_runs_by_workload_side_and_metric(tmp_path, capsys):
    main = load_script("bench_record").main
    runs = []
    for seed, parent, change in ((12, 100.0, 110.0), (13, 104.0, 118.0), (14, 102.0, 114.0),
                                 (15, 101.0, 111.0), (16, 103.0, 113.0)):
        runs.append("parent=" + str(write_run(
            tmp_path / f"p{seed}.txt", "reconstruct-sweep", seed, "aa", (parent, 3.0))))
        runs.append("change=" + str(write_run(
            tmp_path / f"c{seed}.txt", "reconstruct-sweep", seed, "bb", (change, 2.0))))
    runs.append("change=" + str(write_run(tmp_path / "n.txt", "noisy-sweep", 3, "bb", (9.0, 1.0))))
    out = tmp_path / "BENCH_7.json"
    assert main(["--pr", "7", "--out", str(out), *runs]) == 0
    doc = json.loads(out.read_text())
    assert doc["pr"] == 7
    assert doc["machine"] == MACHINE
    # "aa" and "bb" name no commit git can read: the digests stay, the
    # commits are null.
    assert doc["sources"] == {
        "parent": {"git_commit": None, "source_sha256": "aaaa"},
        "change": {"git_commit": None, "source_sha256": "bbbb"},
    }
    assert list(doc["workloads"]) == ["noisy-sweep", "reconstruct-sweep"]
    sweep = doc["workloads"]["reconstruct-sweep"]
    assert sweep["seeds"] == [12, 13, 14, 15, 16]
    ops = sweep["metrics"]["ops_per_s"]
    assert ops["unit"] == "1/s"
    assert ops["parent"] == {"median": 102.0, "q1": 101.0, "q3": 103.0, "runs": 5}
    assert ops["change"] == {"median": 113.0, "q1": 111.0, "q3": 114.0, "runs": 5}
    assert sweep["metrics"]["ok_ratio"]["change"]["median"] == 1.0
    noisy = doc["workloads"]["noisy-sweep"]["metrics"]["ops_per_s"]
    assert "parent" not in noisy
    assert noisy["change"] == {"median": 9.0, "q1": 9.0, "q3": 9.0, "runs": 1}
    printed = capsys.readouterr().out
    assert "reconstruct-sweep ops_per_s [1/s]  parent 102 (n=5)  change 113 (n=5)" in printed


def test_bench_record_default_output_name(tmp_path, monkeypatch):
    main = load_script("bench_record").main
    run = write_run(tmp_path / "run.txt", "cli-chain", 1, "aa", (1.5, 700.0))
    monkeypatch.chdir(tmp_path)
    assert main(["--pr", "5", f"change={run}"]) == 0
    assert json.loads((tmp_path / "BENCH_5.json").read_text())["pr"] == 5


@pytest.mark.parametrize(
    "case, message",
    [
        ("other machine", "runs disagree on cpu_model"),
        ("two commits on one side", "runs disagree on parent git_commit"),
        ("no provenance", "expected one provenance line, found 0"),
        ("no result", "not a result object with metrics"),
        ("truncated result", "not a result object with metrics"),
        ("bad provenance", "malformed provenance"),
        ("metric without unit", "not a result object with metrics"),
    ],
)
def test_bench_record_refuses_runs_it_cannot_fold(tmp_path, capsys, case, message):
    main = load_script("bench_record").main
    first = write_run(tmp_path / "a.txt", "noisy-sweep", 1, "aa", (1.0, 1.0))
    second = write_run(
        tmp_path / "b.txt", "noisy-sweep", 2, "cc" if case == "two commits on one side" else "aa",
        (1.0, 1.0), machine={**MACHINE, "cpu_model": "Other CPU"} if case == "other machine" else MACHINE,
    )
    lines = second.read_text().splitlines()
    if case == "no provenance":
        lines = [line for line in lines if not line.startswith("# provenance")]
    elif case == "no result":
        lines = lines[:-1]
    elif case == "truncated result":
        lines[-1] = lines[-1][:20]
    elif case == "bad provenance":
        lines[1] = lines[1][:30]
    elif case == "metric without unit":
        lines[-1] = lines[-1].replace('"unit": "1/s"', '"units": "1/s"')
    second.write_text("\n".join(lines) + "\n")
    out = tmp_path / "BENCH_1.json"
    assert main(["--pr", "1", "--out", str(out), f"parent={first}", f"parent={second}"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bench_record_rejects_an_untagged_run(tmp_path, capsys):
    main = load_script("bench_record").main
    run = write_run(tmp_path / "a.txt", "noisy-sweep", 1, "aa", (1.0, 1.0))
    with pytest.raises(SystemExit) as exit_info:
        main(["--pr", "1", str(run)])
    assert exit_info.value.code == 2
    assert "SIDE=PATH" in capsys.readouterr().err


def git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
        capture_output=True, check=True, text=True,
    ).stdout.strip()


def test_bench_record_keeps_a_commit_only_when_it_holds_the_measured_source(
    tmp_path, monkeypatch
):
    # A repository whose one commit holds two modules and a file that is
    # not one; its digest is taken the way perfbench takes it.
    repo = tmp_path / "repo"
    (repo / "src" / "qpt").mkdir(parents=True)
    for name, text in (("b.py", "B = 2\n"), ("a.py", "A = 1\n"), ("notes.txt", "n\n")):
        (repo / "src" / "qpt" / name).write_text(text)
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "one")
    commit = git(repo, "rev-parse", "HEAD")
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from bench import source_digest

    committed = source_digest(repo)
    (repo / "src" / "qpt" / "a.py").write_text("A = 3\n")  # measured, never committed
    edited = source_digest(repo)
    module = load_script("bench_record")
    monkeypatch.setattr(module, "ROOT", repo)
    assert module.committed_digest(commit) == committed
    assert module.committed_digest("0" * 40) is None
    runs = [
        "parent=" + str(write_run(tmp_path / "p.txt", "noisy-sweep", 1, commit, (1.0, 1.0),
                                  digest=committed)),
        "change=" + str(write_run(tmp_path / "c.txt", "noisy-sweep", 1, commit, (1.0, 1.0),
                                  digest=edited)),
    ]
    out = tmp_path / "BENCH_1.json"
    assert module.main(["--pr", "1", "--out", str(out), *runs]) == 0
    assert json.loads(out.read_text())["sources"] == {
        "parent": {"git_commit": commit, "source_sha256": committed},
        "change": {"git_commit": None, "source_sha256": edited},
    }


def test_make_reference_prints_each_float_it_moves(tmp_path, capsys, monkeypatch):
    module = load_script("make_reference")
    reference = tmp_path / "reference"
    shutil.copytree(module.REFERENCE, reference)
    monkeypatch.setattr(module, "REFERENCE", reference)
    path = reference / "exact" / "paper-20ns" / "result.json"
    doc = json.loads(path.read_text())
    stored = doc["discrepancy"]["frobenius_norm"]
    doc["discrepancy"]["frobenius_norm"] = moved = stored + 1e-9
    # A move within the tolerance is not printed.
    doc["discrepancy"]["p2_norm"] += module.FLOAT_TOL / 2
    path.write_text(json.dumps(doc))
    assert module.main() == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if " -> " in line]
    assert len(printed) == 1
    where, _, written = printed[0].partition(f": {moved!r} -> ")
    assert where == "exact/paper-20ns/result.json.discrepancy.frobenius_norm"
    rewritten = json.loads(path.read_text())["discrepancy"]["frobenius_norm"]
    assert float(written) == rewritten
    assert abs(rewritten - stored) <= module.FLOAT_TOL


def test_mutation_study_replaces_each_site_with_pass():
    module = load_script("mutation_study")
    source = (
        "def f(x):\n"
        '    """Doc."""\n'
        "    if x: raise ValueError(x)\n"
        "    def g():\n"
        "        pass\n"
        "    return x\n"
    )
    lines = source.splitlines(keepends=True)
    found = module.sites(source)
    # The docstring, the pass and the return are no sites.
    assert [(node.lineno, type(node).__name__) for node in found] == [
        (3, "If"), (3, "Raise"), (4, "FunctionDef"),
    ]
    assert module.mutant(lines, found[1]).splitlines()[2] == "    if x: pass"
    without_g = module.mutant(lines, found[2]).splitlines()
    assert without_g[3:] == ["    pass", "    return x"]


def test_mutation_study_smoke(capsys, monkeypatch):
    module = load_script("mutation_study")
    # A small file stands in for each stage, whose real runs take too long
    # here; the harness check before the mutants still makes all its runs.
    monkeypatch.setattr(module, "FIRST", ["tests/test_arrays.py"])
    monkeypatch.setattr(module, "FULL", ["tests/test_arrays.py"])
    src = module.ROOT / "src" / "qpt"
    before = {path: path.read_bytes() for path in src.glob("*.py")}
    entries = sorted(path.name for path in module.ROOT.iterdir())
    assert module.main(["errors", "--seed", "0", "--budget", "2"]) == 0
    *survivors, counts = capsys.readouterr().out.splitlines()
    match = re.fullmatch(
        r"2 mutants: (\d+) killed by the first stage, (\d+) by the full suite, (\d+) survived",
        counts,
    )
    assert match and sum(map(int, match.groups())) == 2
    assert len(survivors) == int(match[3])
    assert all(re.fullmatch(r"errors:\d+ \S.*", line) for line in survivors)
    # Only the temporary copy was mutated.
    assert {path: path.read_bytes() for path in src.glob("*.py")} == before
    assert sorted(path.name for path in module.ROOT.iterdir()) == entries


def test_mutation_study_refuses_a_copy_whose_suite_fails(capsys, monkeypatch):
    module = load_script("mutation_study")
    # Without perfbench/ the library-surface test fails on unmutated code, so
    # every mutant would read as killed by the full suite.
    monkeypatch.setattr(module, "COPIED", ("src", "tests", "scripts", "pyproject.toml"))
    monkeypatch.setattr(module, "FIRST", ["tests/test_arrays.py"])
    monkeypatch.setattr(module, "FULL", ["tests/test_library_surface.py"])
    assert module.main(["errors", "--seed", "0", "--budget", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "mutation study not run: the full suite fails on the unmutated copy\n"


def test_mutation_study_refuses_tests_that_pass_an_unimportable_module(tmp_path, monkeypatch):
    module = load_script("mutation_study")
    # Runs that pass whatever the module holds, as when the tests import qpt
    # from outside the copy: every mutant would survive.
    monkeypatch.setattr(module, "killed", lambda copy, tests: False)
    target = tmp_path / "errors.py"
    target.write_text("x = 1\n", encoding="utf-8")
    assert module.harness_fault(tmp_path, target, []) == (
        "the first stage does not import the copied module"
    )
    assert target.read_text(encoding="utf-8") == "x = 1\n"
