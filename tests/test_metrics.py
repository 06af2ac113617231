import numpy as np
import pytest

from meshpress import shapes
from meshpress.mesh import TriMesh, bounding_box
from meshpress.metrics import (_directed, distances_to_mesh,
                               point_to_triangle, sample_surface,
                               sampled_distance, triangle_areas)


def barycentric_oracle(p, tri, rounds=7, grid=17):
    """Distance via a refining dense-barycentric search.

    Samples a barycentric grid over the triangle, then repeatedly re-grids
    a shrinking window around the best point. The distance function is
    1-Lipschitz in the surface point, so the result overestimates the true
    minimum by at most the final grid spacing.
    """
    a, b, c = (np.asarray(v, dtype=np.float64) for v in tri)
    lo_u, hi_u = 0.0, 1.0
    lo_v, hi_v = 0.0, 1.0
    best = np.inf
    bu = bv = 0.0
    for _ in range(rounds):
        us = np.linspace(lo_u, hi_u, grid)
        vs = np.linspace(lo_v, hi_v, grid)
        uu, vv = np.meshgrid(us, vs)
        uu, vv = uu.ravel(), vv.ravel()
        keep = uu + vv <= 1.0 + 1e-15
        uu, vv = uu[keep], vv[keep]
        pts = (1 - uu - vv)[:, None] * a + uu[:, None] * b + vv[:, None] * c
        d = np.linalg.norm(pts - p, axis=1)
        i = int(np.argmin(d))
        if d[i] < best:
            best = float(d[i])
            bu, bv = float(uu[i]), float(vv[i])
        span_u = (hi_u - lo_u) / (grid - 1) * 2
        span_v = (hi_v - lo_v) / (grid - 1) * 2
        lo_u, hi_u = max(0.0, bu - span_u), min(1.0, bu + span_u)
        lo_v, hi_v = max(0.0, bv - span_v), min(1.0, bv + span_v)
    return best


# -- point-to-triangle kernel ----------------------------------------------


def test_point_to_triangle_analytic_cases():
    tri = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert point_to_triangle([0.25, 0.25, 0.0], tri) == 0.0
    assert point_to_triangle([0.25, 0.25, 2.0], tri) == pytest.approx(2.0)
    assert point_to_triangle([-1, 0, 0], tri) == pytest.approx(1.0)
    assert point_to_triangle([2, 0, 0], tri) == pytest.approx(1.0)
    assert point_to_triangle([1, 1, 0], tri) == pytest.approx(np.sqrt(2) / 2)
    assert point_to_triangle([-1, -1, 1], tri) == pytest.approx(np.sqrt(3))


def test_point_to_triangle_degenerate_triangle():
    seg = [[0, 0, 0], [1, 0, 0], [2, 0, 0]]      # collinear
    assert point_to_triangle([3, 0, 0], seg) == pytest.approx(1.0)
    assert point_to_triangle([1, 2, 0], seg) == pytest.approx(2.0)
    point_tri = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
    assert point_to_triangle([1, 1, 3], point_tri) == pytest.approx(2.0)


def test_point_to_triangle_against_barycentric_oracle():
    rng = np.random.default_rng(0)
    cases = 2000
    for _ in range(cases):
        tri = rng.normal(size=(3, 3))
        p = rng.normal(size=3) * rng.choice([0.3, 1.0, 3.0])
        got = point_to_triangle(p, tri)
        want = barycentric_oracle(p, tri)
        assert got <= want + 1e-12
        assert abs(got - want) <= 1e-6


# -- sampling ---------------------------------------------------------------


def test_triangle_areas_and_total():
    m = TriMesh([[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 3]],
                [[0, 1, 2], [0, 1, 3]])
    assert np.allclose(triangle_areas(m), [2.0, 3.0])


def test_samples_lie_on_surface_and_are_deterministic():
    m = shapes.icosphere(1)
    pts_a = sample_surface(m, seed=5)
    pts_b = sample_surface(m, seed=5)
    pts_c = sample_surface(m, seed=6)
    assert np.array_equal(pts_a, pts_b)
    assert not np.array_equal(pts_a, pts_c)
    d = distances_to_mesh(pts_a, m)
    assert d.max() <= 1e-12


def test_sample_counts_scale_with_area():
    big = TriMesh([[0, 0, 0], [10, 0, 0], [0, 10, 0], [0.1, 0, 1], [0, 0.1, 1],
                   [0, 0, 1]], [[0, 1, 2], [3, 4, 5]])
    pts = sample_surface(big, samples_per_unit_area=10.0)
    # the 50-area triangle should dominate the sample set
    near_big = np.abs(pts[:, 2]) < 1e-9
    assert near_big.sum() > 400


def test_empty_and_degenerate_meshes_rejected():
    empty = TriMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        sample_surface(empty)
    flat = TriMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])
    with pytest.raises(ValueError):
        sample_surface(flat)


# -- acceleration exactness -------------------------------------------------


def test_accelerated_equals_brute_force_exactly():
    rng = np.random.default_rng(8)
    meshes = [shapes.triangle(), shapes.tetrahedron(),
              shapes.icosahedron(), shapes.grid_patch(9, 9),
              shapes.icosphere(1)]
    for m in meshes:
        assert m.face_count <= 200
        pts = rng.normal(size=(500, 3)) * 1.5
        fast = distances_to_mesh(pts, m, accelerated=True)
        slow = distances_to_mesh(pts, m, accelerated=False)
        assert np.array_equal(fast, slow)


# -- sampled distance -------------------------------------------------------


def test_identical_meshes_have_zero_distance():
    m = shapes.icosphere(1)
    r = sampled_distance(m, m, seed=1)
    assert r.rms <= 1e-12
    assert r.max_dist <= 1e-12


def test_known_offset_planes():
    def plane(z):
        return TriMesh([[0, 0, z], [1, 0, z], [1, 1, z], [0, 1, z]],
                       [[0, 1, 2], [0, 2, 3]])

    r = sampled_distance(plane(0.0), plane(0.25), samples_per_unit_area=500,
                         seed=0)
    diag = np.sqrt(1 + 1)               # reference bbox diagonal (flat box)
    assert r.rms == pytest.approx(0.25 / diag, rel=1e-9)
    assert r.max_dist == pytest.approx(0.25 / diag, rel=1e-9)


def test_sampling_density_stability():
    coarse = shapes.icosahedron()
    fine = shapes.icosphere(2)
    base = sampled_distance(fine, coarse, samples_per_unit_area=400, seed=3)
    double = sampled_distance(fine, coarse, samples_per_unit_area=800, seed=3)
    assert abs(double.rms - base.rms) / base.rms < 0.02


def test_symmetric_direction_takes_worst_side():
    coarse = shapes.icosahedron()
    fine = shapes.icosphere(2)
    ab = _directed(fine, coarse, None, 2)
    ba = _directed(coarse, fine, None, 2)
    sym = sampled_distance(fine, coarse, seed=2)
    diag = bounding_box(fine).diagonal
    assert ab[0] != ba[0]
    assert sym.rms == max(ab[0], ba[0]) / diag
    assert sym.max_dist == max(ab[1], ba[1]) / diag
    assert sym.sample_count == ab[2] + ba[2]


def test_degenerate_reference_rejected():
    line = TriMesh([[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 1, 2]],
                   validate=False)
    with pytest.raises(ValueError):
        sampled_distance(line, shapes.triangle())
