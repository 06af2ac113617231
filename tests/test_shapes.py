"""The procedural hulls and projections against the per-face and
per-vertex loops they were built with."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from meshpress import shapes


def sphere_points(n, seed, jitter):
    """The points `_sphere_hull` (no jitter) and `random_convex` draw."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    if jitter:
        pts *= 1.0 + 0.05 * rng.random(n)[:, None]
    return pts


def reference_hull(pts, about_mean):
    """The per-face loop `_sphere_hull` (each face wound outward from the
    origin) and `random_convex` (from the vertex mean) ran before
    `shapes._oriented_hull`: a face wound inward becomes (a, c, b)."""
    hull = ConvexHull(pts)
    used = np.unique(hull.simplices)
    remap = {int(v): i for i, v in enumerate(used)}
    verts = pts[used]
    center = verts.mean(axis=0) if about_mean else 0.0
    faces = []
    for tri in hull.simplices:
        a, b, c = (remap[int(v)] for v in tri)
        n = np.cross(verts[b] - verts[a], verts[c] - verts[a])
        if n @ (verts[[a, b, c]].mean(axis=0) - center) < 0:
            a, b, c = a, c, b
        faces.append([a, b, c])
    return verts, np.array(faces)


@pytest.mark.parametrize("n", [27, 100, 200, 400, 2000])
def test_oriented_hull_matches_per_face_loop(n):
    for seed in range(30):
        for jitter, make in ((False, shapes._sphere_hull),
                             (True, shapes.random_convex)):
            verts, faces = reference_hull(sphere_points(n, seed, jitter),
                                          jitter)
            mesh = make(n, seed)
            assert np.array_equal(mesh.vertices, verts), (n, seed, jitter)
            assert np.array_equal(mesh.faces, faces), (n, seed, jitter)


def sphere_reference(mid):
    """`shapes._sphere_project` of one midpoint, as it ran per vertex."""
    return mid / np.linalg.norm(mid)


def cad_reference(mid):
    """`shapes._cad_project` of one midpoint, as it ran per vertex."""
    d = mid / np.linalg.norm(mid)
    return d * (1.0 / np.abs(shapes._CAD_PLANES @ d).max())


def reference_subdivide(mesh, project, edges=None):
    """`subdivide_midpoint` with one `project` call per split edge, in
    `mesh.edges` order; the faces do not depend on the positions."""
    plain = shapes.subdivide_midpoint(mesh, edges=edges)
    pairs = mesh.edges if edges is None else np.sort(edges)
    mids = [project(0.5 * (mesh.vertices[a] + mesh.vertices[b]))
            for a, b in pairs.tolist()]
    return plain.with_vertices(
        np.vstack([mesh.vertices, np.reshape(mids, (-1, 3))]))


def assert_same_mesh(got, want, label):
    assert np.array_equal(got.vertices, want.vertices), label
    assert np.array_equal(got.faces, want.faces), label


def test_array_projections_match_per_vertex_reference():
    """The generators project all midpoints of a level in one array call;
    every vertex equals the per-vertex projection bit for bit. If this
    fails on some BLAS, the array norms or plane products round
    differently from the one-vector kernels, and every generated mesh,
    the corpus and benchmark meshes included, changes."""
    for seed in (1, 2, 5, 11):
        base = shapes._sphere_hull(27, seed)
        want = base.with_vertices(np.array([cad_reference(v)
                                            for v in base.vertices]))
        for sub in range(4):
            assert_same_mesh(shapes.cad_solid(subdivisions=sub, seed=seed),
                             want, ("cad_solid", seed, sub))
            want = reference_subdivide(want, cad_reference)
    want = shapes.icosahedron()
    for sub in range(4):
        assert_same_mesh(shapes.icosphere(sub), want, ("icosphere", sub))
        want = reference_subdivide(want, sphere_reference)
    ico = shapes.icosphere(1)
    some = ico.edges[::3]
    assert_same_mesh(
        shapes.subdivide_midpoint(ico, edges=some,
                                  position=shapes._sphere_project),
        reference_subdivide(ico, sphere_reference, some), "some edges")
    shapes_seen = []

    def project(mids):
        shapes_seen.append(mids.shape)
        return shapes._cad_project(mids)

    none = shapes.subdivide_midpoint(ico, edges=[], position=project)
    assert shapes_seen == [(0, 3)]
    assert_same_mesh(none, ico, "no edges")
