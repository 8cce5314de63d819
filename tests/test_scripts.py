"""Smoke runs of the scripts under ``scripts/`` through their ``main()``."""

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

from qpt import projection

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
