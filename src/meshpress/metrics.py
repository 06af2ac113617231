"""Metro-style surface distortion: sampled RMS / max distance.

Distances are exact point-to-triangle minima; the KD-tree path only
narrows the candidate triangle set (provably a superset of the true
nearest), so it is bit-identical to the brute-force reference
(`distances_to_mesh(..., accelerated=False)`).
Sampling is area-stratified and fully determined by the seed.

The distance is symmetric: the maximum of the two directed results
(max of directed RMS values, not the RMS of per-point maxima); both
directions are normalized by the same reference bounding-box diagonal
so curves remain comparable across resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .mesh import TriMesh, bounding_box

__all__ = ["DistortionResult", "point_to_triangle", "sampled_distance",
           "sample_surface", "check_samplable", "triangle_areas",
           "DEFAULT_MIN_SAMPLES_PER_TRIANGLE", "MAX_TOTAL_SAMPLES"]

DEFAULT_MIN_SAMPLES_PER_TRIANGLE = 10
MAX_TOTAL_SAMPLES = 10 ** 6


@dataclass(frozen=True)
class DistortionResult:
    rms: float                  # normalized by the reference bbox diagonal
    max_dist: float             # likewise
    sample_count: int


# -- exact point-to-triangle kernel ---------------------------------------

def _dot(x, y):
    return np.einsum("ij,ij->i", x, y)


def _closest_on_segments(p, a, b):
    ab = b - a
    denom = _dot(ab, ab)
    t = np.where(denom > 0, _dot(p - a, ab) / np.where(denom > 0, denom, 1), 0.0)
    return a + np.clip(t, 0.0, 1.0)[:, None] * ab


def _point_triangle_batch(p, a, b, c) -> np.ndarray:
    """Exact distances for paired points and triangles, shape (n,)."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = _dot(ab, ap)
    d2 = _dot(ac, ap)
    bp = p - b
    d3 = _dot(ab, bp)
    d4 = _dot(ac, bp)
    cp = p - c
    d5 = _dot(ab, cp)
    d6 = _dot(ac, cp)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    out = np.empty_like(p)
    done = np.zeros(len(p), dtype=bool)

    def take(mask, values):
        nonlocal done
        m = mask & ~done
        out[m] = values[m]
        done |= m

    take((d1 <= 0) & (d2 <= 0), a)
    take((d3 >= 0) & (d4 <= d3), b)
    take((d6 >= 0) & (d5 <= d6), c)
    den = np.where(d1 != d3, d1 - d3, 1.0)
    take((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + (d1 / den)[:, None] * ab)
    den = np.where(d2 != d6, d2 - d6, 1.0)
    take((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + (d2 / den)[:, None] * ac)
    s = (d4 - d3) + (d5 - d6)
    den = np.where(s != 0, s, 1.0)
    take((va <= 0) & (d4 >= d3) & (d5 >= d6),
         b + ((d4 - d3) / den)[:, None] * (c - b))
    s = va + vb + vc
    den = np.where(s != 0, s, 1.0)
    take(~done, a + (vb / den)[:, None] * ab + (vc / den)[:, None] * ac)

    dist = np.linalg.norm(p - out, axis=1)

    # zero-area triangles: Ericson's regions are unreliable, fall back to
    # the minimum over the three edges (covers point-point too)
    degenerate = _dot(np.cross(ab, ac), np.cross(ab, ac)) == 0
    if np.any(degenerate):
        idx = np.flatnonzero(degenerate)
        pd, ad, bd, cd = p[idx], a[idx], b[idx], c[idx]
        d_ab = np.linalg.norm(pd - _closest_on_segments(pd, ad, bd), axis=1)
        d_ac = np.linalg.norm(pd - _closest_on_segments(pd, ad, cd), axis=1)
        d_bc = np.linalg.norm(pd - _closest_on_segments(pd, bd, cd), axis=1)
        dist[idx] = np.minimum(d_ab, np.minimum(d_ac, d_bc))
    return dist


def point_to_triangle(p, tri) -> float:
    """Exact Euclidean distance from a point to a triangle."""
    p = np.asarray(p, dtype=np.float64).reshape(1, 3)
    tri = np.asarray(tri, dtype=np.float64).reshape(3, 3)
    return float(_point_triangle_batch(p, tri[0:1], tri[1:2], tri[2:3])[0])


# -- sampling --------------------------------------------------------------

def triangle_areas(mesh: TriMesh) -> np.ndarray:
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def _sample_counts(areas: np.ndarray,
                   samples_per_unit_area: float | None) -> np.ndarray:
    if samples_per_unit_area is None:
        samples_per_unit_area = (DEFAULT_MIN_SAMPLES_PER_TRIANGLE
                                 * len(areas) / max(areas.sum(), 1e-300))
    counts = np.maximum(DEFAULT_MIN_SAMPLES_PER_TRIANGLE,
                        np.floor(areas * samples_per_unit_area + 0.5))
    counts = counts.astype(np.int64)
    if counts.sum() > MAX_TOTAL_SAMPLES:
        scale = MAX_TOTAL_SAMPLES / counts.sum()
        counts = np.maximum(1, np.floor(counts * scale).astype(np.int64))
    return counts


def check_samplable(mesh: TriMesh) -> np.ndarray:
    """The triangle areas; ValueError unless the mesh has a surface to
    sample."""
    if mesh.face_count == 0:
        raise ValueError("cannot sample an empty mesh")
    areas = triangle_areas(mesh)
    if areas.sum() <= 0:
        raise ValueError("cannot sample a zero-area mesh")
    return areas


def sample_surface(mesh: TriMesh,
                   samples_per_unit_area: float | None = None,
                   seed: int = 0) -> np.ndarray:
    """Area-stratified random points on the surface, deterministic in seed."""
    areas = check_samplable(mesh)
    counts = _sample_counts(areas, samples_per_unit_area)
    tri = np.repeat(np.arange(mesh.face_count), counts)
    rng = np.random.default_rng(seed)
    u = np.sqrt(rng.random(len(tri)))
    v = rng.random(len(tri))
    a = mesh.vertices[mesh.faces[tri, 0]]
    b = mesh.vertices[mesh.faces[tri, 1]]
    c = mesh.vertices[mesh.faces[tri, 2]]
    return ((1 - u)[:, None] * a
            + (u * (1 - v))[:, None] * b
            + (u * v)[:, None] * c)


# -- point set -> mesh distances ------------------------------------------

_CHUNK = 20000


def distances_to_mesh(points: np.ndarray, mesh: TriMesh,
                      accelerated: bool = True) -> np.ndarray:
    """Exact distance from each point to the mesh surface."""
    if mesh.face_count == 0:
        raise ValueError("cannot measure distance to an empty mesh")
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if not accelerated:
        out = np.empty(len(points))
        for lo in range(0, len(points), 2000):
            chunk = points[lo:lo + 2000]
            n, m_ = len(chunk), mesh.face_count
            pp = np.repeat(chunk, m_, axis=0)
            d = _point_triangle_batch(pp, np.tile(a, (n, 1)),
                                      np.tile(b, (n, 1)), np.tile(c, (n, 1)))
            out[lo:lo + n] = d.reshape(n, m_).min(axis=1)
        return out

    centroid = (a + b + c) / 3.0
    reach = np.maximum(np.linalg.norm(a - centroid, axis=1),
                       np.maximum(np.linalg.norm(b - centroid, axis=1),
                                  np.linalg.norm(c - centroid, axis=1)))
    max_reach = float(reach.max())
    tree = cKDTree(centroid)
    out = np.empty(len(points))
    for lo in range(0, len(points), _CHUNK):
        chunk = points[lo:lo + _CHUNK]
        _, nearest = tree.query(chunk, k=1)
        upper = _point_triangle_batch(chunk, a[nearest], b[nearest], c[nearest])
        # any triangle nearer than `upper` has its centroid within
        # upper + max_reach, so this ball is a superset of the true nearest
        groups = tree.query_ball_point(chunk, upper + max_reach
                                       + 1e-12 * (1.0 + upper))
        lens = np.array([len(g) for g in groups])
        flat_tri = np.concatenate([np.asarray(g, dtype=np.int64)
                                   for g in groups])
        flat_pt = np.repeat(np.arange(len(chunk)), lens)
        d = _point_triangle_batch(chunk[flat_pt], a[flat_tri], b[flat_tri],
                                  c[flat_tri])
        best = upper.copy()
        np.minimum.at(best, flat_pt, d)
        out[lo:lo + len(chunk)] = best
    return out


# -- public metric ---------------------------------------------------------

def _directed(src: TriMesh, dst: TriMesh,
              samples_per_unit_area: float | None, seed: int):
    pts = sample_surface(src, samples_per_unit_area, seed)
    d = distances_to_mesh(pts, dst)
    return float(np.sqrt(np.mean(d * d))), float(d.max()), len(pts)


def sampled_distance(a: TriMesh, b: TriMesh,
                     samples_per_unit_area: float | None = None,
                     seed: int = 0) -> DistortionResult:
    """Metro-style sampled distance, normalized by a's bbox diagonal: the
    max of the two directed RMS values and of the two directed max
    values."""
    diag = bounding_box(a).diagonal
    if diag <= 0:
        raise ValueError("reference mesh has a degenerate bounding box")
    r1, m1, n1 = _directed(a, b, samples_per_unit_area, seed)
    r2, m2, n2 = _directed(b, a, samples_per_unit_area, seed)
    return DistortionResult(max(r1, r2) / diag, max(m1, m2) / diag, n1 + n2)
