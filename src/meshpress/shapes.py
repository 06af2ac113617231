"""Procedural test meshes: platonic solids, subdivided spheres, patches.

These generators back the test corpus and the benchmark harness so the
repository does not need to ship binary mesh assets. All randomness is
seeded and all outputs are deterministic.
"""

from __future__ import annotations

import itertools

import numpy as np

from .hierarchy import split_plan, subdivide
from .mesh import TriMesh

__all__ = ["triangle", "tetrahedron", "icosahedron", "grid_patch",
           "subdivide_midpoint", "icosphere", "bumpy_sphere", "cad_solid",
           "random_convex"]


def triangle() -> TriMesh:
    return TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


def tetrahedron() -> TriMesh:
    v = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    f = [[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]]
    return TriMesh(v, f)


def icosahedron() -> TriMesh:
    phi = (1 + 5 ** 0.5) / 2
    v = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    v /= np.linalg.norm(v[0])
    f = [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ]
    return TriMesh(v, f)


def grid_patch(nx: int = 8, ny: int = 8, height=None) -> TriMesh:
    """Triangulated rectangular patch in the z=height(x, y) surface."""
    xs, ys = np.meshgrid(np.linspace(0, 1, nx), np.linspace(0, 1, ny),
                         indexing="ij")
    zs = height(xs, ys) if height else np.zeros_like(xs)
    verts = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    faces = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a = i * ny + j
            b = (i + 1) * ny + j
            faces.append([a, b, b + 1])
            faces.append([a, b + 1, a + 1])
    return TriMesh(verts, faces)


def subdivide_midpoint(mesh: TriMesh, edges=None, position=None) -> TriMesh:
    """Midpoint-subdivide all (or a subset of) edges.

    `edges` holds vertex pairs in either order; a pair that is not an
    edge of the mesh raises ValueError. `position(a, b, mid)` may override
    the inserted vertex position (e.g. to project onto a surface). Faces
    follow the codec's subdivision conventions, so the result is
    invertible by construction.
    """
    nv = mesh.vertex_count
    pick = np.ones(len(mesh.edges), dtype=bool)
    if edges is not None:
        codes = mesh.edges @ [nv, 1]
        pairs = np.sort(np.reshape(np.asarray(edges, dtype=np.int64), (-1, 2)))
        known = ((pairs >= 0) & (pairs < nv)).all(axis=1) \
            & np.isin(pairs @ [nv, 1], codes)
        if not known.all():
            raise ValueError(f"not an edge of the mesh: "
                             f"{tuple(pairs[~known][0].tolist())}")
        pick = np.isin(codes, pairs @ [nv, 1])
    split = np.where(pick, nv - 1 + np.cumsum(pick), -1)
    new_pts = []
    for a, b in mesh.edges[pick].tolist():
        mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        new_pts.append(position(a, b, mid) if position else mid)
    verts = np.vstack([mesh.vertices, np.array(new_pts).reshape(-1, 3)]) \
        if new_pts else mesh.vertices
    plan = split_plan(mesh, split)
    faces = subdivide(plan, np.zeros(len(plan), dtype=np.int64))
    return TriMesh(verts, faces)


def _sphere_project(_a, _b, mid):
    return mid / np.linalg.norm(mid)


def icosphere(subdivisions: int = 2) -> TriMesh:
    mesh = icosahedron()
    for _ in range(subdivisions):
        mesh = subdivide_midpoint(mesh, position=_sphere_project)
    return mesh


def bumpy_sphere(subdivisions: int = 4, amplitude: float = 0.12) -> TriMesh:
    """Scanned-style smooth blob: subdivided sphere with radial bumps."""
    base = icosphere(subdivisions)
    d = base.vertices / np.linalg.norm(base.vertices, axis=1, keepdims=True)
    r = 1.0 + amplitude * (np.sin(3.1 * d[:, 0] + 0.5)
                           * np.sin(2.7 * d[:, 1] - 0.3)
                           + 0.5 * np.sin(4.3 * d[:, 2]))
    return base.with_vertices(d * r[:, None])


def _cad_planes() -> np.ndarray:
    """Facet normals of a chamfered-cube solid: every sign/permutation of
    (1,0,0), (1,1,0), (1,1,1) and (2,1,1), normalized, all tangent to the
    unit sphere. The (2,1,1) facets chamfer the corner regions so that no
    two adjacent facets meet at more than 45 degrees."""
    dirs = {tuple(p * s for p, s in zip(perm, signs))
            for base in [(1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 1)]
            for perm in itertools.permutations(base)
            for signs in itertools.product((1, -1), repeat=3)}
    normals = np.array(sorted(d for d in dirs if any(d)), dtype=np.float64)
    return normals / np.linalg.norm(normals, axis=1, keepdims=True)


_CAD_PLANES = _cad_planes()


def _cad_radius(d: np.ndarray) -> float:
    return 1.0 / float(np.abs(_CAD_PLANES @ d).max())


def _cad_project(_a, _b, mid):
    d = mid / np.linalg.norm(mid)
    return d * _cad_radius(d)


def _oriented_hull(pts: np.ndarray) -> TriMesh:
    """The triangulated convex hull of `pts` over its vertices, kept in
    ascending order, each face wound outward from their mean."""
    from scipy.spatial import ConvexHull

    used, faces = np.unique(ConvexHull(pts).simplices, return_inverse=True)
    verts, faces = pts[used], faces.reshape(-1, 3)
    corner = verts[faces]
    normal = np.cross(corner[:, 1] - corner[:, 0], corner[:, 2] - corner[:, 0])
    inward = np.vecdot(normal, corner.mean(axis=1) - verts.mean(axis=0)) < 0
    # (a, c, b): the reversal (c, b, a) would rotate the pinned faces
    faces[inward] = faces[inward][:, [0, 2, 1]]
    return TriMesh(verts, faces)


def _sphere_hull(n_points: int, seed: int) -> TriMesh:
    """Outward-oriented triangulated convex hull of random sphere points;
    every input point is a hull vertex, so the count is exact."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_points, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    mesh = _oriented_hull(pts)
    assert mesh.vertex_count == n_points
    return mesh


def cad_solid(base_points: int = 27, subdivisions: int = 4,
              seed: int = 1) -> TriMesh:
    """CAD-style chamfered solid: an irregular base tessellation of a
    cube-with-chamfers polytope, refined by midpoint subdivision.

    Defaults give 27 -> 102 -> 402 -> 1602 -> 6402 vertices, with flat
    regions, creases up to 45 degrees and an irregular base connectivity
    typical of tessellated CAD models.
    """
    base = _sphere_hull(base_points, seed)
    mesh = base.with_vertices(np.array([_cad_project(0, 0, d)
                                        for d in base.vertices]))
    for _ in range(subdivisions):
        mesh = subdivide_midpoint(mesh, position=_cad_project)
    return mesh


def random_convex(n_points: int = 400, seed: int = 3) -> TriMesh:
    """Irregular manifold mesh: convex hull of random sphere points."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_points, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= 1.0 + 0.05 * rng.random(n_points)[:, None]
    return _oriented_hull(pts)
