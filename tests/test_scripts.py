"""Smoke runs of the scripts under ``scripts/`` through their ``main()``."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_protocol(tmp_path, capsys):
    assert load_script("run_protocol").main(["--out", str(tmp_path)]) == 0
    assert "three-interval protocol" in capsys.readouterr().out
    for name in ("paper-20ns", "paper-40ns", "paper-80ns"):
        assert (tmp_path / f"{name}.result.json").exists()


def test_shot_noise_study(capsys):
    main = load_script("shot_noise_study").main
    assert main(["--levels", "100", "1000", "--seeds", "5"]) == 0
    assert "fitted scaling exponent" in capsys.readouterr().out

