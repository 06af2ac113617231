"""The procedural hulls against the per-face loop they were built with."""

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
