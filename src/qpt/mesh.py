"""Bloch-sphere ellipsoid meshes for visualizing an affine channel action.

A unit icosphere (subdivided icosahedron, re-projected to the sphere at
every level) is pushed through the channel's affine map; the deformed mesh
next to the untouched reference sphere shows which Bloch directions the
channel contracts.  Export is Wavefront OBJ with both objects in one file,
plus a JSON sidecar carrying the numbers a viewer cannot read off the
geometry: the affine pair, its singular values (the ellipsoid semi-axes),
and the largest image norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import AffineMap
from .io import encode_affine, write_text_atomic

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

# Icosahedron: cyclic permutations of (0, +-1, +-golden), normalized below.
_BASE_VERTICES = np.array(
    [
        [-1.0, _GOLDEN, 0.0], [1.0, _GOLDEN, 0.0], [-1.0, -_GOLDEN, 0.0],
        [1.0, -_GOLDEN, 0.0], [0.0, -1.0, _GOLDEN], [0.0, 1.0, _GOLDEN],
        [0.0, -1.0, -_GOLDEN], [0.0, 1.0, -_GOLDEN], [_GOLDEN, 0.0, -1.0],
        [_GOLDEN, 0.0, 1.0], [-_GOLDEN, 0.0, -1.0], [-_GOLDEN, 0.0, 1.0],
    ]
)

_BASE_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ]
)


def _normalized(points: np.ndarray) -> np.ndarray:
    """Rows of ``points`` scaled to unit length.

    Each row's squared norm comes from a 1x3 by 3x1 matmul, which numpy
    evaluates with the same dot kernel as ``np.linalg.norm`` on one row, so
    the result is bit-identical to ``row / np.linalg.norm(row)``; row sums,
    ``einsum`` and ``norm(axis=1)`` differ in the last bit on many rows.
    """
    squared = points[:, None, :] @ points[:, :, None]
    return points / np.sqrt(squared[:, :, 0])


def icosphere(subdivisions: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Unit-sphere triangle mesh: ``(vertices (n, 3), faces (m, 3))``.

    Each subdivision splits every triangle in four through edge midpoints,
    shared between neighbors, and re-normalizes the new vertices onto the
    sphere.  ``subdivisions`` must be at least 1.

    Midpoints are numbered in the order their edges are first met, walking
    the faces in order and each face's edges as ``ab, bc, ca``; every face
    ``(a, b, c)`` becomes ``(a, ab, ca), (b, bc, ab), (c, ca, bc),
    (ab, bc, ca)``.
    """
    if subdivisions < 1:
        raise ValueError(f"subdivisions must be at least 1, got {subdivisions}")
    vertices = _normalized(_BASE_VERTICES)
    faces = _BASE_FACES
    for _ in range(subdivisions):
        count = len(vertices)
        edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        low, high = edges.min(axis=1), edges.max(axis=1)
        _, first, inverse = np.unique(
            low * count + high, return_index=True, return_inverse=True
        )
        # np.unique numbers edges by key; renumber them by first encounter.
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ab, bc, ca = (count + rank[inverse]).reshape(-1, 3).T
        ends = edges[first[order]]
        points = _normalized(vertices[ends[:, 0]] + vertices[ends[:, 1]])
        vertices = np.concatenate([vertices, points])
        a, b, c = faces.T
        faces = np.stack(
            [a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1
        ).reshape(-1, 3)
    return vertices, faces


@dataclass(frozen=True)
class EllipsoidMesh:
    """Affine image of the unit sphere plus the reference sphere itself.

    ``vertices`` and ``reference_vertices`` are parallel arrays over the
    shared ``faces`` (1-to-1 vertex correspondence).
    """

    vertices: np.ndarray
    faces: np.ndarray
    reference_vertices: np.ndarray
    subdivisions: int


def ellipsoid_mesh(affine: AffineMap, subdivisions: int = 3) -> EllipsoidMesh:
    reference, faces = icosphere(subdivisions)
    vertices = reference @ affine.matrix.T + affine.translation
    return EllipsoidMesh(
        vertices=vertices,
        faces=faces,
        reference_vertices=reference,
        subdivisions=subdivisions,
    )


# Rows formatted per chunk: a level-6 map is 41k vertices and 82k faces,
# and formatting all of them at once holds every coordinate as a Python
# float and the whole document as one string.
_CHUNK_ROWS = 4096


def _obj_block(name: str, vertices: np.ndarray, faces: np.ndarray):
    """One OBJ object; ``faces`` already hold 1-based file-wide indices."""
    yield f"o {name}\n"
    # %r of a Python float is its repr, the shortest exact decimal form.
    for rows, line in ((vertices, "v %r %r %r\n"), (faces, "f %d %d %d\n")):
        for start in range(0, len(rows), _CHUNK_ROWS):
            chunk = rows[start : start + _CHUNK_ROWS]
            yield line * len(chunk) % tuple(chunk.ravel().tolist())


def _obj_chunks(mesh: EllipsoidMesh):
    """Both objects of one OBJ document, ``unit_sphere`` then ``ellipsoid``,
    as consecutive pieces of text."""
    offset = len(mesh.reference_vertices)
    yield "# Bloch sphere and its affine image\n"
    yield from _obj_block("unit_sphere", mesh.reference_vertices, mesh.faces + 1)
    yield from _obj_block("ellipsoid", mesh.vertices, mesh.faces + offset + 1)


def write_obj(mesh: EllipsoidMesh, path: str) -> None:
    """Write the OBJ document chunk by chunk, never holding all of it."""
    write_text_atomic(path, _obj_chunks(mesh))


def mesh_metadata(affine: AffineMap, mesh: EllipsoidMesh) -> dict:
    """Sidecar numbers: the map, its semi-axes, and the mesh extent."""
    singular = np.linalg.svd(affine.matrix, compute_uv=False)
    return {
        "affine": encode_affine(affine),
        "axis_lengths": [float(s) for s in singular],
        "max_vertex_norm": float(np.linalg.norm(mesh.vertices, axis=1).max()),
        "vertex_count": int(len(mesh.vertices)),
        "face_count": int(len(mesh.faces)),
        "subdivisions": mesh.subdivisions,
    }
