"""What each entry point loads: the package root and every ``qpt`` command.

``import qpt`` loads no submodule, and each export is imported from its
defining module on first access.  A command's process loads only the
stages it runs, which each test checks in a fresh interpreter.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpt

SRC = Path(__file__).resolve().parent.parent / "src"

# What every command loads: the CLI, the document codecs and what they import.
COMMON = {"cli", "io", "errors", "states", "channels", "simulator", "state_tomography"}


def fresh(code: str, cwd: Path) -> str:
    """Run ``code`` in a new interpreter that imports ``qpt`` from ``src``;
    its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("QPT_LOG", None)
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_bare_import_loads_no_submodule(tmp_path):
    code = "import sys, qpt; print([m for m in sys.modules if m.startswith('qpt.')])"
    assert fresh(code, tmp_path).strip() == "[]"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qpt import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qpt.__all__)
    assert len(qpt.__all__) == len(set(qpt.__all__)) == 45


def test_each_export_is_its_defining_modules_object():
    for name in qpt.__all__:
        module = importlib.import_module(f"qpt.{qpt._EXPORTS[name]}")
        value = getattr(qpt, name)
        assert value is getattr(module, name), name
        # The first access binds the name on the package, so later ones
        # skip the module __getattr__.
        assert vars(qpt)[name] is value, name
        # Classes and functions are exported from where they are defined.
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_dir_lists_every_export():
    listed = dir(qpt)
    assert "__all__" in listed
    assert set(qpt.__all__) <= set(listed)


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'nope'"):
        qpt.nope


def test_each_command_loads_only_its_stages(tmp_path):
    # Real inputs, each command in its own interpreter: the records feed
    # reconstruct, whose result feeds project, whose output feeds compare
    # and a two-map render.
    commands = {
        "simulate": ["simulate", "--preset", "paper-20ns", "--out", "records.json"],
        "reconstruct": ["reconstruct", "--records", "records.json", "--out", "result.json"],
        "project": ["project", "--result", "result.json", "--out", "projected.json"],
        "compare": ["compare", "projected.json", "identity", "--out", "compare.json"],
        "render": [
            "render", "--result", "projected.json", "--out", "mesh", "--subdivisions", "1"
        ],
    }
    stages = {
        "simulate": set(),
        "reconstruct": {"process_tomography"},
        "project": {"metrics", "projection"},
        "compare": {"metrics"},
        "render": {"mesh"},
    }
    for command, argv in commands.items():
        code = (
            "import json, sys\n"
            "from qpt.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "prefixes = ('qpt.', 'numpy.random')\n"
            "print(json.dumps([m for m in sys.modules if m.startswith(prefixes)]))\n"
        )
        loaded = json.loads(fresh(code, tmp_path).splitlines()[-1])
        # No command here samples shots, so none pays for numpy.random.
        assert "numpy.random" not in loaded, command
        assert {m.removeprefix("qpt.") for m in loaded} == COMMON | stages[command], command
    assert (tmp_path / "mesh_raw.obj").exists()
    assert (tmp_path / "mesh_projected.obj").exists()
