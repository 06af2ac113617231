import numpy as np
import pytest

from meshpress import shapes
from meshpress.hierarchy import simplify_once
from meshpress.mesh import TriMesh
from meshpress.wavelet import analyze, synthesize


def odds_and_ends(record):
    """A level's odd vertices and their parent edges, in fine ids."""
    odds = np.array(list(record.parent_edge), dtype=np.int64)
    ends = np.array(list(record.parent_edge.values()),
                    dtype=np.int64).reshape(-1, 2)
    return odds, ends


def round_trip(record, geometry):
    """synthesize(analyze(x)) on one level, scattered back to fine ids."""
    odds, ends = odds_and_ends(record)
    evens = record.coarse_to_fine
    out = synthesize(geometry[evens], np.searchsorted(evens, ends),
                     analyze(geometry, odds, ends))
    fine = np.full_like(geometry, np.nan)
    fine[np.concatenate([evens, odds])] = out
    return fine


@pytest.fixture(scope="module")
def quad_level():
    """One quadrisected triangle with hand-placed geometry."""
    fine = shapes.subdivide_midpoint(shapes.triangle())
    return simplify_once(fine)


def test_midpoint_odd_gives_zero_detail(quad_level):
    odds, ends = odds_and_ends(quad_level)
    details = analyze(quad_level.fine_mesh.vertices, odds, ends)
    assert details.shape == (3, 3)
    assert np.allclose(details, 0.0, atol=1e-15)


def test_detail_is_offset_from_parent_midpoint():
    base = TriMesh([[0, 0, 0], [2, 0, 0], [0, 2, 0]], [[0, 1, 2]])
    fine = shapes.subdivide_midpoint(base)
    record = simplify_once(fine)
    geometry = fine.vertices.copy()
    # move the midpoint of edge (0, 1) from (1, 0, 0) to (1, 1, 0)
    odds, ends = odds_and_ends(record)
    row = next(r for r, (a, b) in enumerate(ends.tolist()) if {a, b} == {0, 1})
    geometry[odds[row]] = [1.0, 1.0, 0.0]
    details = analyze(geometry, odds, ends)
    assert np.allclose(details[row], [0.0, 1.0, 0.0])
    # and synthesis recovers the moved vertex exactly
    assert np.allclose(round_trip(record, geometry), geometry, atol=1e-15)


def test_zero_details_place_odds_at_midpoints(quad_level):
    coarse = quad_level.coarse_mesh.vertices
    edges = quad_level.coarse_mesh.edges
    fine = synthesize(coarse, edges, np.zeros((len(edges), 3)))
    assert np.array_equal(fine[:len(coarse)], coarse)
    for r, (a, b) in enumerate(edges):
        assert np.allclose(fine[len(coarse) + r], 0.5 * (coarse[a] + coarse[b]))


def test_perfect_reconstruction_on_corpus(hierarchies, corpus):
    for name, records in hierarchies.items():
        geometry = corpus[name].vertices
        for record in records:
            back = round_trip(record, geometry)
            scale = max(1.0, float(np.abs(geometry).max()))
            assert np.abs(back - geometry).max() <= 1e-12 * scale, name
            geometry = geometry[record.coarse_to_fine]


def test_analyze_matches_scalar_formula_bit_for_bit(hierarchies):
    """The details feed the stream: the array form must equal the scalar
    per-odd formula, kept here as the reference, bit for bit on every
    corpus level."""
    for name, records in hierarchies.items():
        for record in records:
            g = record.fine_mesh.vertices
            odds, ends = odds_and_ends(record)
            ref = np.array([g[odd] - 0.5 * (g[a] + g[b])
                            for odd, (a, b) in record.parent_edge.items()])
            got = analyze(g, odds, ends)
            assert got.tobytes() == ref.reshape(-1, 3).tobytes(), name
            # the encoder passes each edge in the decoder's endpoint order
            assert analyze(g, odds, ends[:, ::-1]).tobytes() == got.tobytes()


def test_locality_of_single_odd_perturbation():
    fine = shapes.icosphere(2)
    record = simplify_once(fine)
    odds, ends = odds_and_ends(record)
    moved = fine.vertices.copy()
    moved[odds.min()] += [0.01, -0.02, 0.03]
    same = (analyze(fine.vertices, odds, ends)
            == analyze(moved, odds, ends)).all(axis=1)
    assert np.array_equal(same, odds != odds.min())


def _synthesize_per_edge(coarse, edges, details):
    """Reference: the per-edge placement loop."""
    nc = len(coarse)
    fine = np.empty((nc + len(edges), 3))
    fine[:nc] = coarse
    for r, (u, v) in enumerate(edges):
        fine[nc + r] = 0.5 * (fine[u] + fine[v]) + details[r]
    return fine


@pytest.mark.parametrize("n_edges", [0, 1, 80])
def test_synthesize_matches_per_edge_loops(n_edges):
    rng = np.random.default_rng(n_edges)
    coarse = rng.normal(size=(25, 3))
    u = rng.integers(0, 25, size=n_edges)
    edges = np.stack([u, (u + rng.integers(1, 25, size=n_edges)) % 25], axis=1)
    details = rng.normal(size=(n_edges, 3)) * 1e-3
    got = synthesize(coarse, edges, details)
    assert np.array_equal(got, _synthesize_per_edge(coarse, edges, details))
