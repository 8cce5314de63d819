"""The paper reproduction against its checked-in reference.

``tests/reference/`` holds the JSON outputs of ``qpt pipeline --preset
paper-repro``, exact and with ``--shots 1000 --seed 7``, written by
``scripts/make_reference.py``.  Each run is repeated here and every
document compared with its reference: keys, strings, flags and integers
exactly, floats within 1e-12 so that BLAS differences across platforms do
not matter.  The meshes are not checked in; each OBJ is checked by its row
counts and by its vertices against the result's affine map.
"""

import numpy as np
import pytest

from conftest import load_script
from qpt import io as qio

SCRIPT = load_script("make_reference")
# The pipeline's default icosphere level.
SUBDIVISIONS = 3
FLOAT_TOL = SCRIPT.FLOAT_TOL


def assert_matches(actual, expected, where="document"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict), where
        assert list(actual) == list(expected), f"{where}: keys"
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for index, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{index}]")
    elif isinstance(expected, float):
        assert type(actual) is float, where
        assert abs(actual - expected) <= FLOAT_TOL, f"{where}: {actual!r} != {expected!r}"
    else:
        assert type(actual) is type(expected) and actual == expected, where


def read_obj(path):
    vertices, faces = [], 0
    with open(path) as handle:
        for line in handle:
            if line.startswith("v "):
                vertices.append([float(x) for x in line.split()[1:]])
            elif line.startswith("f "):
                faces += 1
    return np.array(vertices), faces


@pytest.mark.parametrize("run", sorted(SCRIPT.RUNS))
def test_pipeline_reproduces_the_reference(tmp_path, run):
    SCRIPT.run_pipeline(run, tmp_path)
    count = 10 * 4**SUBDIVISIONS + 2
    for preset in SCRIPT.PRESETS:
        for name in SCRIPT.DOCUMENTS:
            where = f"{run}/{preset}/{name}"
            expected = qio.read_json(str(SCRIPT.REFERENCE / run / preset / name))
            assert_matches(qio.read_json(str(tmp_path / preset / name)), expected, where)
        result = qio.read_json(str(tmp_path / preset / "result.json"))
        for block, affine in qio.document_affines(result).items():
            vertices, faces = read_obj(tmp_path / preset / f"mesh_{block}.obj")
            assert vertices.shape == (2 * count, 3) and faces == 2 * 20 * 4**SUBDIVISIONS
            sphere, image = vertices[:count], vertices[count:]
            np.testing.assert_allclose(np.linalg.norm(sphere, axis=1), 1.0, atol=1e-15)
            np.testing.assert_allclose(
                image, sphere @ affine.matrix.T + affine.translation, rtol=0, atol=1e-15
            )

