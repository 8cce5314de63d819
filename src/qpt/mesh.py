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

from contextlib import ExitStack
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Mapping

import numpy as np

from .channels import AffineMap
from .errors import _integer
from .io import atomic_text_file, encode_affine

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


def _normalize(points: np.ndarray) -> None:
    """Scale the rows of ``points`` to unit length, in place.

    Each row's squared norm comes from a 1x3 by 3x1 matmul, which numpy
    evaluates with the same dot kernel as ``np.linalg.norm`` on one row, so
    the result is bit-identical to ``row / np.linalg.norm(row)``; row sums,
    ``einsum`` and ``norm(axis=1)`` differ in the last bit on many rows.
    """
    squared = points[:, None, :] @ points[:, :, None]
    points /= np.sqrt(squared[:, :, 0])


def icosphere(subdivisions: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Unit-sphere triangle mesh: ``(vertices (n, 3), faces (m, 3))``.

    Each subdivision splits every triangle in four through edge midpoints,
    shared between neighbors, and re-normalizes the new vertices onto the
    sphere.  ``subdivisions`` must be an integer of at least 1; a numpy
    integer is taken as the equal ``int``.

    Midpoints are numbered in the order their edges are first met, walking
    the faces in order and each face's edges as ``ab, bc, ca``; every face
    ``(a, b, c)`` becomes ``(a, ab, ca), (b, bc, ab), (c, ca, bc),
    (ab, bc, ca)``.
    """
    subdivisions = _integer(subdivisions, "subdivisions")
    if subdivisions < 1:
        raise ValueError(f"subdivisions must be at least 1, got {subdivisions}")
    # Each level appends its midpoints behind the vertices it splits, so the
    # final array is allocated once and every level fills its own rows.
    vertices = np.empty((10 * 4**subdivisions + 2, 3))
    count = len(_BASE_VERTICES)
    vertices[:count] = _BASE_VERTICES
    _normalize(vertices[:count])
    faces = _BASE_FACES
    for _ in range(subdivisions):
        # One key per face edge, in walking order: low * count + high.
        following = faces[:, [1, 2, 0]]
        keys = np.minimum(faces, following).ravel()
        keys *= count
        keys += np.maximum(faces, following, out=following).ravel()
        del following
        # Every edge of the closed mesh borders exactly two faces, so a
        # stable sort puts each edge's first occurrence in an even slot and
        # its second in the odd slot after it.
        order = np.argsort(keys, kind="stable")
        first = np.sort(order[0::2])
        end = count + len(first)
        low, high = np.divmod(keys[first], count)
        points = vertices[count:end]
        points[:] = vertices[low]
        points += vertices[high]
        _normalize(points)
        # Midpoint vertex of each face edge, numbered by first encounter.
        midpoint = np.empty(faces.size, dtype=faces.dtype)
        midpoint[first] = np.arange(count, end)
        midpoint[order[1::2]] = midpoint[order[0::2]]
        # Free the per-edge arrays before the largest one is built.
        del keys, order, first, low, high
        ab, bc, ca = midpoint.reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.stack(
            [a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1
        ).reshape(-1, 3)
        count = end
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


def ellipsoid_meshes(
    affines: Iterable[AffineMap], subdivisions: int = 3
) -> list[EllipsoidMesh]:
    """The mesh of each map, all over one icosphere: every mesh holds the
    same ``reference_vertices`` and ``faces`` arrays."""
    subdivisions = _integer(subdivisions, "subdivisions")
    reference, faces = icosphere(subdivisions)
    meshes = []
    for affine in affines:
        vertices = reference @ affine.matrix.T
        vertices += affine.translation
        meshes.append(EllipsoidMesh(vertices, faces, reference, subdivisions))
    return meshes


def ellipsoid_mesh(affine: AffineMap, subdivisions: int = 3) -> EllipsoidMesh:
    (mesh,) = ellipsoid_meshes([affine], subdivisions)
    return mesh


# Rows formatted per chunk: a level-6 map is 41k vertices and 82k faces,
# and formatting all of them at once holds every coordinate as a Python
# float and the whole document as one string.
_CHUNK_ROWS = 4096


def _chunks(rows: np.ndarray):
    for start in range(0, len(rows), _CHUNK_ROWS):
        yield rows[start : start + _CHUNK_ROWS]


def _repr_table(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct coordinates of ``vertices``, sorted as int64 bit
    patterns, and an object array of their reprs.

    Each distinct coordinate is formatted once: a level-6 unit sphere has
    17,731 distinct values among its 122,886 coordinates.  Values are told
    apart by bit pattern, so ``-0.0`` keeps its sign.
    """
    # Sorting and masking takes a sixth of np.unique's time here.
    distinct = np.sort(vertices.view(np.int64), axis=None)
    distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
    table = np.array(
        [repr(value) for value in distinct.view(np.float64).tolist()], dtype=object
    )
    return distinct, table


def _obj_block(name: str, vertex_chunks, faces: np.ndarray, base: int):
    """One OBJ object: the vertex rows, chunk by chunk, as floats or as
    their reprs, then ``faces`` raised by ``base`` to 1-based file-wide
    indices."""
    yield f"o {name}\n"
    # %s of a Python float is its repr, the shortest exact decimal form.
    for chunk in vertex_chunks:
        yield "v %s %s %s\n" * len(chunk) % tuple(chunk.ravel().tolist())
    for chunk in _chunks(faces):
        yield "f %d %d %d\n" * len(chunk) % tuple((chunk + base).ravel().tolist())


def _sphere_chunks(mesh: EllipsoidMesh):
    """The header and ``unit_sphere`` object of an OBJ document, as
    consecutive pieces of text."""
    yield "# Bloch sphere and its affine image\n"
    reference = mesh.reference_vertices
    distinct, table = _repr_table(reference)
    reprs = (
        table[np.searchsorted(distinct, chunk)]
        for chunk in _chunks(reference.view(np.int64))
    )
    yield from _obj_block("unit_sphere", reprs, mesh.faces, 1)


def _sphere_of(item: tuple[str, EllipsoidMesh]) -> tuple[int, int]:
    """Which reference and faces arrays a ``path: mesh`` item is over."""
    return id(item[1].reference_vertices), id(item[1].faces)


def write_objs(meshes: Mapping[str, EllipsoidMesh]) -> None:
    """Write each ``path: mesh`` as :func:`write_obj` does.

    Consecutive meshes over the same reference and faces arrays, as from
    one :func:`ellipsoid_meshes` call, are written in one pass: their
    header and ``unit_sphere`` object are formatted once, chunk by chunk,
    and each chunk goes to every one of their files.  No file of the pass
    is renamed into place before all of them are written.
    """
    for _, items in groupby(meshes.items(), key=_sphere_of):
        paths, group = zip(*items)
        with ExitStack() as stack:
            handles = [stack.enter_context(atomic_text_file(path)) for path in paths]
            for piece in _sphere_chunks(group[0]):
                for handle in handles:
                    handle.write(piece)
                # Freed before the next piece is formatted, as writelines does.
                del piece
            # The image's coordinates are almost all distinct, so a table of
            # their reprs would cost more than it saves.
            for handle, mesh in zip(handles, group):
                handle.writelines(
                    _obj_block(
                        "ellipsoid", _chunks(mesh.vertices), mesh.faces,
                        len(mesh.reference_vertices) + 1,
                    )
                )


def write_obj(mesh: EllipsoidMesh, path: str) -> None:
    """Write the OBJ document chunk by chunk, never holding all of it."""
    write_objs({path: mesh})


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
