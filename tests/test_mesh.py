"""Sphere and ellipsoid mesh generation and export."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import loop_icosphere
from qpt.channels import AffineMap
from qpt.mesh import (
    EllipsoidMesh,
    ellipsoid_mesh,
    ellipsoid_meshes,
    icosphere,
    mesh_metadata,
    write_obj,
    write_objs,
)


def euler_characteristic(vertices, faces):
    edges = set()
    for a, b, c in faces:
        for u, v in ((a, b), (b, c), (c, a)):
            edges.add((u, v) if u < v else (v, u))
    return len(vertices) - len(edges) + len(faces)


class TestIcosphere:
    @pytest.mark.parametrize(
        "subdivisions,vertex_count,face_count",
        [(1, 42, 80), (2, 162, 320), (3, 642, 1280)],
    )
    def test_counts(self, subdivisions, vertex_count, face_count):
        vertices, faces = icosphere(subdivisions)
        assert vertices.shape == (vertex_count, 3)
        assert faces.shape == (face_count, 3)

    def test_sphere_topology(self):
        vertices, faces = icosphere(2)
        assert euler_characteristic(vertices, faces) == 2

    def test_unit_norms(self):
        vertices, _ = icosphere(3)
        np.testing.assert_allclose(np.linalg.norm(vertices, axis=1), 1.0, atol=1e-12)

    def test_faces_index_valid_vertices(self):
        vertices, faces = icosphere(2)
        assert faces.min() >= 0
        assert faces.max() == len(vertices) - 1
        # Every vertex is used by some face.
        assert len(np.unique(faces)) == len(vertices)

    def test_rejects_zero_subdivisions(self):
        with pytest.raises(ValueError, match="at least 1"):
            icosphere(0)

    @pytest.mark.parametrize("subdivisions", [1, 2, 3, 4, 5, 6])
    def test_matches_loop_oracle(self, subdivisions):
        vertices, faces = icosphere(subdivisions)
        expected_vertices, expected_faces = loop_icosphere(subdivisions)
        assert np.array_equal(vertices, expected_vertices)
        assert np.array_equal(faces, expected_faces)
        assert faces.dtype == expected_faces.dtype

    def test_level_seven_structure(self):
        # The loop oracle is too slow here; the last level's edge keys
        # (low * 40962 + high) reach 1.68e9, close to the int32 limit.
        vertices, faces = icosphere(7)
        assert vertices.shape == (10 * 4**7 + 2, 3)
        assert faces.shape == (20 * 4**7, 3)
        assert faces.dtype == np.int64
        assert faces.min() == 0 and faces.max() == len(vertices) - 1
        assert len(np.unique(faces)) == len(vertices)
        edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        edge_count = len(np.unique(edges[:, 0] * len(vertices) + edges[:, 1]))
        assert len(vertices) - edge_count + len(faces) == 2
        np.testing.assert_allclose(np.linalg.norm(vertices, axis=1), 1.0, atol=1e-12)

    def test_level_six_memory(self):
        # The finished level-6 sphere holds 2.95 MB and its build peaked at
        # 4.18 MB when this bound was set.  Keeping each level's `following`
        # array (0.49 MB at the last) to the end of the level peaked at
        # 4.68 MB; keeping its key and sort arrays until the faces are
        # stacked, at 5.66 MB.
        tracemalloc.start()
        try:
            icosphere(6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.4e6


class TestEllipsoidMesh:
    AFFINE = AffineMap(np.diag([0.8, 0.8, 1.0]), np.array([0.0, 0.0, 0.1]))

    def test_vertices_follow_map(self):
        mesh = ellipsoid_mesh(self.AFFINE, subdivisions=2)
        assert isinstance(mesh, EllipsoidMesh)
        expected = mesh.reference_vertices @ self.AFFINE.matrix.T + self.AFFINE.translation
        np.testing.assert_allclose(mesh.vertices, expected, atol=1e-15)
        np.testing.assert_allclose(
            np.linalg.norm(mesh.reference_vertices, axis=1), 1.0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "subdivisions",
        [True, False, 2.0, "2", None],
        ids=["true", "false", "float", "text", "none"],
    )
    @pytest.mark.parametrize("build", ["icosphere", "ellipsoid_mesh", "ellipsoid_meshes"])
    def test_rejects_non_integer_subdivisions(self, build, subdivisions):
        # True is not built as level 1, nor a float or text handed to numpy.
        builders = {
            "icosphere": icosphere,
            "ellipsoid_mesh": lambda level: ellipsoid_mesh(self.AFFINE, level),
            "ellipsoid_meshes": lambda level: ellipsoid_meshes([self.AFFINE], level),
        }
        with pytest.raises(ValueError, match="^subdivisions must be an integer, got "):
            builders[build](subdivisions)

    def test_numpy_integer_subdivisions_become_int(self):
        # The sidecar's json.dumps cannot write a numpy integer.
        mesh = ellipsoid_mesh(self.AFFINE, np.int64(2))
        assert type(mesh.subdivisions) is int and mesh.subdivisions == 2
        metadata = mesh_metadata(self.AFFINE, mesh)
        assert json.loads(json.dumps(metadata))["subdivisions"] == 2
        np.testing.assert_array_equal(mesh.faces, icosphere(2)[1])

    def test_shared_faces(self):
        mesh = ellipsoid_mesh(self.AFFINE, subdivisions=1)
        assert mesh.vertices.shape == mesh.reference_vertices.shape
        assert mesh.faces.shape == (80, 3)
        assert mesh.subdivisions == 1

    def test_contraction_shrinks_extent(self):
        contraction = AffineMap(0.5 * np.eye(3), np.zeros(3))
        mesh = ellipsoid_mesh(contraction, subdivisions=2)
        norms = np.linalg.norm(mesh.vertices, axis=1)
        np.testing.assert_allclose(norms, 0.5, atol=1e-12)


def row_obj_text(mesh):
    """Reference OBJ formatter: one f-string per vertex and face row."""
    lines = ["# Bloch sphere and its affine image"]
    lines.append("o unit_sphere")
    for v in mesh.reference_vertices:
        lines.append(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    for f in mesh.faces:
        lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    offset = len(mesh.reference_vertices)
    lines.append("o ellipsoid")
    for v in mesh.vertices:
        lines.append(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    for f in mesh.faces:
        lines.append(
            f"f {f[0] + offset + 1} {f[1] + offset + 1} {f[2] + offset + 1}"
        )
    return "\n".join(lines) + "\n"


class TestObjExport:
    AFFINE = AffineMap(np.diag([0.7, 0.7, 1.0]), np.zeros(3))

    @staticmethod
    def written(mesh, tmp_path):
        """The bytes ``write_obj`` puts in a file."""
        path = tmp_path / "mesh.obj"
        write_obj(mesh, str(path))
        return path.read_bytes()

    @pytest.mark.parametrize("subdivisions", [1, 2, 3, 5])
    def test_matches_row_formatter(self, tmp_path, subdivisions):
        # A sheared, shifted map puts negative zeros, tiny and long-repr
        # coordinates into the ellipsoid block.  Level 5 (10242 vertices,
        # 20480 faces) spans several formatting chunks in each block.
        affine = AffineMap(
            np.array([[0.81, 0.02, -0.01], [0.0, 0.79, 0.03], [1e-17, 0.0, -0.98]]),
            np.array([0.0, -0.0, 0.125]),
        )
        mesh = ellipsoid_mesh(affine, subdivisions)
        assert self.written(mesh, tmp_path) == row_obj_text(mesh).encode()

    def test_signed_zeros_and_repeats_in_reference(self, tmp_path):
        # Unit-sphere coordinates are formatted once per distinct bit
        # pattern: -0.0 must keep its sign beside 0.0, and a value repeated
        # down a column must print alike in every row, across chunks.
        column = np.array([0.0, -0.0, 0.5, -0.0, 0.5, 0.0, 1e-300, -0.5, 0.1 + 0.2])
        rows = np.tile(column, 1000)
        reference = np.stack([rows, rows[::-1], np.roll(rows, 1)], axis=1)
        faces = np.arange(3 * 3000).reshape(-1, 3) % len(reference)
        mesh = EllipsoidMesh(
            vertices=-reference, faces=faces, reference_vertices=reference, subdivisions=1
        )
        text = self.written(mesh, tmp_path)
        assert text == row_obj_text(mesh).encode()
        assert b"v 0.0 -0.0 " in text and b"v -0.0 0.0 " in text

    def test_structure(self, tmp_path):
        mesh = ellipsoid_mesh(self.AFFINE, subdivisions=1)
        lines = self.written(mesh, tmp_path).decode().splitlines()
        assert lines[0].startswith("#")
        assert lines.count("o unit_sphere") == 1
        assert lines.count("o ellipsoid") == 1
        v_lines = [l for l in lines if l.startswith("v ")]
        f_lines = [l for l in lines if l.startswith("f ")]
        assert len(v_lines) == 2 * 42
        assert len(f_lines) == 2 * 80

    def test_face_indices_one_based_and_offset(self, tmp_path):
        mesh = ellipsoid_mesh(self.AFFINE, subdivisions=1)
        lines = self.written(mesh, tmp_path).decode().splitlines()
        f_indices = [
            [int(tok) for tok in line.split()[1:]]
            for line in lines
            if line.startswith("f ")
        ]
        first_block = f_indices[:80]
        second_block = f_indices[80:]
        assert min(min(f) for f in first_block) == 1
        assert max(max(f) for f in first_block) == 42
        assert min(min(f) for f in second_block) == 43
        assert max(max(f) for f in second_block) == 84

    def test_vertices_round_trip_through_repr(self, tmp_path):
        mesh = ellipsoid_mesh(self.AFFINE, subdivisions=1)
        lines = self.written(mesh, tmp_path).decode().splitlines()
        v_values = np.array(
            [[float(tok) for tok in line.split()[1:]] for line in lines if line.startswith("v ")]
        )
        np.testing.assert_array_equal(v_values[:42], mesh.reference_vertices)
        np.testing.assert_array_equal(v_values[42:], mesh.vertices)

    def test_level_six_memory(self, tmp_path):
        # The finished level-6 mesh holds 3.9 MB.  Building and writing it
        # peaked at 6.0 MB when this bound was set, against 8.6 MB for a
        # build that kept every level's edge arrays and a write that copied
        # the faces whole.
        tracemalloc.start()
        try:
            write_obj(ellipsoid_mesh(self.AFFINE, subdivisions=6), str(tmp_path / "m.obj"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6.5e6

    def test_write_obj(self, tmp_path):
        # An existing file is replaced whole, and no temporary file is left.
        path = tmp_path / "mesh.obj"
        path.write_text("stale\n" * 10000)
        mesh = ellipsoid_mesh(self.AFFINE, subdivisions=1)
        write_obj(mesh, str(path))
        assert path.read_bytes() == row_obj_text(mesh).encode()
        assert [p.name for p in tmp_path.iterdir()] == ["mesh.obj"]


class TestTwoMapExport:
    """``write_objs`` of meshes from one ``ellipsoid_meshes`` call formats
    their shared ``unit_sphere`` block once and writes it to each file."""

    AFFINES = (
        AffineMap(
            np.array([[0.81, 0.02, -0.01], [0.0, 0.79, 0.03], [1e-17, 0.0, -0.98]]),
            np.array([0.0, -0.0, 0.125]),
        ),
        AffineMap(np.diag([0.5, 0.6, 0.7]), np.array([0.1, 0.0, -0.2])),
    )

    @pytest.mark.parametrize("subdivisions", [1, 3, 5])
    def test_each_file_matches_row_formatter(self, tmp_path, subdivisions):
        meshes = ellipsoid_meshes(self.AFFINES, subdivisions)
        paths = [tmp_path / "raw.obj", tmp_path / "projected.obj"]
        write_objs({str(path): mesh for path, mesh in zip(paths, meshes)})
        for path, mesh in zip(paths, meshes):
            assert path.read_bytes() == row_obj_text(mesh).encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["projected.obj", "raw.obj"]

    def test_meshes_over_other_spheres_are_written_apart(self, tmp_path):
        # Three maps: two share a sphere, the third has its own.
        shared = ellipsoid_meshes(self.AFFINES, 2)
        alone = ellipsoid_mesh(self.AFFINES[0], 1)
        meshes = {str(tmp_path / f"{i}.obj"): m for i, m in enumerate([*shared, alone])}
        write_objs(meshes)
        for path, mesh in meshes.items():
            assert open(path, "rb").read() == row_obj_text(mesh).encode()

    def test_failed_write_leaves_no_file(self, tmp_path):
        # The second file's directory is missing: neither file appears.
        meshes = ellipsoid_meshes(self.AFFINES, 1)
        paths = [str(tmp_path / "raw.obj"), str(tmp_path / "missing" / "projected.obj")]
        with pytest.raises(FileNotFoundError):
            write_objs(dict(zip(paths, meshes)))
        assert list(tmp_path.iterdir()) == []

    def test_level_six_memory(self, tmp_path):
        # Writing two level-6 maps peaked at 2.20 MB when each file formatted
        # the unit sphere itself; the shared block is formatted once.
        meshes = ellipsoid_meshes(self.AFFINES, 6)
        paths = [str(tmp_path / "raw.obj"), str(tmp_path / "projected.obj")]
        tracemalloc.start()
        try:
            write_objs(dict(zip(paths, meshes)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.2e6


class TestMetadata:
    def test_values(self):
        affine = AffineMap(np.diag([0.3, 0.9, 0.6]), np.array([0.0, 0.0, 0.2]))
        mesh = ellipsoid_mesh(affine, subdivisions=2)
        meta = mesh_metadata(affine, mesh)
        assert meta["axis_lengths"] == [0.9, 0.6, 0.3]  # descending singular values
        assert meta["vertex_count"] == 162
        assert meta["face_count"] == 320
        assert meta["subdivisions"] == 2
        assert meta["affine"]["translation"] == [0.0, 0.0, 0.2]
        assert meta["max_vertex_norm"] == pytest.approx(
            np.linalg.norm(mesh.vertices, axis=1).max(), abs=0.0
        )

    def test_max_norm_at_pole(self):
        # Subdivision creates an exact +z pole vertex, so a centered shrink
        # plus a z shift peaks at exactly scale + shift.
        affine = AffineMap(0.5 * np.eye(3), np.array([0.0, 0.0, 0.2]))
        mesh = ellipsoid_mesh(affine, subdivisions=1)
        meta = mesh_metadata(affine, mesh)
        assert meta["max_vertex_norm"] == pytest.approx(0.7, abs=1e-12)

    def test_json_ready(self):
        import json

        affine = AffineMap(np.eye(3), np.zeros(3))
        mesh = ellipsoid_mesh(affine, subdivisions=1)
        json.dumps(mesh_metadata(affine, mesh), allow_nan=False)
