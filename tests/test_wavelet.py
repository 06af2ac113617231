import numpy as np
import pytest

from meshpress import shapes
from meshpress.hierarchy import build_hierarchy, simplify_once
from meshpress.mesh import TriMesh
from meshpress.wavelet import analyze, synthesize, synthesize_edges


@pytest.fixture(scope="module")
def quad_level():
    """One quadrisected triangle with hand-placed geometry."""
    fine = shapes.subdivide_midpoint(shapes.triangle())
    return simplify_once(fine)


def test_midpoint_odd_gives_zero_detail(quad_level):
    record = quad_level
    coeffs = analyze(record, record.fine_mesh.vertices)
    for detail in coeffs.details.values():
        assert np.allclose(detail, 0.0, atol=1e-15)


def test_detail_is_offset_from_parent_midpoint():
    base = TriMesh([[0, 0, 0], [2, 0, 0], [0, 2, 0]], [[0, 1, 2]])
    fine = shapes.subdivide_midpoint(base)
    record = simplify_once(fine)
    geometry = fine.vertices.copy()
    # move the midpoint of edge (0, 1) from (1, 0, 0) to (1, 1, 0)
    odd_on_01 = next(v for v, (a, b) in record.parent_edge.items()
                     if {a, b} == {0, 1})
    geometry[odd_on_01] = [1.0, 1.0, 0.0]
    coeffs = analyze(record, geometry)
    assert np.allclose(coeffs.details[odd_on_01], [0.0, 1.0, 0.0])
    # even positions pass through unchanged
    assert np.allclose(coeffs.approx_geometry,
                       geometry[record.coarse_to_fine])
    # and synthesis recovers the moved vertex exactly
    back = synthesize(record, coeffs)
    assert np.allclose(back, geometry, atol=1e-15)


def test_zero_details_place_odds_at_midpoints(quad_level):
    record = quad_level
    coeffs = analyze(record, record.fine_mesh.vertices)
    for odd in coeffs.details:
        coeffs.details[odd] = np.zeros(3)
    fine = synthesize(record, coeffs)
    for odd, (a, b) in record.parent_edge.items():
        assert np.allclose(fine[odd], 0.5 * (fine[a] + fine[b]))


def test_perfect_reconstruction_on_corpus(hierarchies, corpus):
    for name, records in hierarchies.items():
        geometry = corpus[name].vertices
        for record in records:
            coeffs = analyze(record, geometry)
            back = synthesize(record, coeffs)
            scale = max(1.0, float(np.abs(geometry).max()))
            assert np.abs(back - geometry).max() <= 1e-12 * scale, name
            geometry = coeffs.approx_geometry


def test_locality_of_single_odd_perturbation():
    fine = shapes.icosphere(2)
    record = simplify_once(fine)
    odd = min(record.parent_edge)
    base = analyze(record, fine.vertices)
    moved = fine.vertices.copy()
    moved[odd] += [0.01, -0.02, 0.03]
    bumped = analyze(record, moved)
    for v in record.parent_edge:
        same = np.array_equal(base.details[v], bumped.details[v])
        assert same == (v != odd)
    assert np.array_equal(base.approx_geometry, bumped.approx_geometry)


def test_size_mismatch_rejected(quad_level):
    with pytest.raises(ValueError):
        analyze(quad_level, np.zeros((2, 3)))


def test_synthesize_validates_inputs(quad_level):
    coeffs = analyze(quad_level, quad_level.fine_mesh.vertices)
    coeffs.level_index += 1
    with pytest.raises(ValueError):
        synthesize(quad_level, coeffs)
    coeffs.level_index -= 1
    bad = analyze(quad_level, quad_level.fine_mesh.vertices)
    bad.details.pop(next(iter(bad.details)))
    with pytest.raises(ValueError):
        synthesize(quad_level, bad)


def _synthesize_per_edge(coarse, edges, details):
    """Reference: the per-edge placement loop."""
    nc = len(coarse)
    fine = np.empty((nc + len(edges), 3))
    fine[:nc] = coarse
    for r, (u, v) in enumerate(edges):
        fine[nc + r] = 0.5 * (fine[u] + fine[v]) + details[r]
    return fine


@pytest.mark.parametrize("n_edges", [0, 1, 80])
def test_synthesize_edges_matches_per_edge_loops(n_edges):
    rng = np.random.default_rng(n_edges)
    coarse = rng.normal(size=(25, 3))
    u = rng.integers(0, 25, size=n_edges)
    edges = np.stack([u, (u + rng.integers(1, 25, size=n_edges)) % 25], axis=1)
    details = rng.normal(size=(n_edges, 3)) * 1e-3
    got = synthesize_edges(coarse, edges, details)
    assert np.array_equal(got, _synthesize_per_edge(coarse, edges, details))
