import numpy as np
import pytest
from scipy.spatial import cKDTree

from meshpress import quantize
from meshpress.mesh import TriMesh
from meshpress.quantize import (DEFAULT_THRESHOLD, MIN_PRECISION, QuantGrid,
                                assign_precision, batch_precision, make_grid,
                                round_half_away)

EMPTY = np.empty((0, 3), dtype=np.int64)


def unit_cube_mesh():
    corners = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    return TriMesh(corners, EMPTY)


def test_make_grid_unit_cube():
    grid = make_grid(unit_cube_mesh(), q_max=12)
    assert grid.levels == 4095
    assert np.array_equal(grid.quantize([[0, 0, 0]]), [[0, 0, 0]])
    assert np.array_equal(grid.quantize([[1, 1, 1]]), [[4095, 4095, 4095]])


def test_grid_round_trip_error_bound():
    rng = np.random.default_rng(3)
    pts = rng.random((1000, 3)) * [4.0, 2.0, 1.0]
    grid = make_grid(TriMesh(pts, EMPTY), q_max=12)
    err = np.abs(grid.dequantize(grid.quantize(pts)) - pts)
    assert err.max() <= 0.5 / grid.scale + 1e-12


def test_grid_is_isotropic_over_longest_axis():
    pts = np.array([[0, 0, 0], [10, 1, 1]], dtype=float)
    grid = make_grid(TriMesh(pts, EMPTY), q_max=10)
    assert grid.scale == pytest.approx(((1 << 10) - 1) / 10.0)


def test_make_grid_rejects_degenerate_input():
    with pytest.raises(ValueError):
        make_grid(TriMesh([[1, 2, 3], [1, 2, 3]], EMPTY), q_max=12)


def test_grid_validation():
    with pytest.raises(ValueError):
        QuantGrid(np.zeros(3), 1.0, q_max=3)
    with pytest.raises(ValueError):
        QuantGrid(np.zeros(3), 1.0, q_max=17)
    with pytest.raises(ValueError):
        QuantGrid(np.zeros(3), 0.0, q_max=12)


def _grid_1d(q_max=12):
    # unit scale: model units == twelve-bit grid units
    return QuantGrid(np.zeros(3), 1.0, q_max)


def test_assign_precision_coincident_target_caps_at_qmax():
    grid = _grid_1d()
    q, _ = assign_precision(np.zeros(3), np.zeros((1, 3)), grid,
                            DEFAULT_THRESHOLD)
    assert q == grid.q_max


def test_assign_precision_distant_neighbor_gives_minimum():
    grid = _grid_1d()
    # 15 grid units at 4-bit scaling = 15 * 2^8 units at 12 bits
    target = np.array([15.0 * 256, 0, 0])
    q, coords = assign_precision(target, np.zeros((1, 3)), grid, 200)
    assert q == MIN_PRECISION
    assert np.array_equal(coords, [15, 0, 0])


def test_assign_precision_matches_enumeration_oracle():
    grid = _grid_1d()
    target = np.array([256.0, 0, 0])     # 256 twelve-bit units on one axis
    q, _ = assign_precision(target, np.zeros((1, 3)), grid, 200)
    # first q with (floor(256 * 2^(q-12)))^2 >= 200 is q = 8 (16^2 = 256)
    assert q == 8


def test_assign_precision_random_against_oracle():
    grid = _grid_1d()
    rng = np.random.default_rng(11)
    for _ in range(200):
        target = rng.integers(0, 4096, size=3).astype(float)
        cands = rng.integers(0, 4096, size=(8, 3)).astype(float)
        q, coords = assign_precision(target, cands, grid, 200)
        d2 = np.sum((cands - target) ** 2, axis=1)
        nn = cands[int(np.argmin(d2))]
        ci, cj = grid.quantize(target), grid.quantize(nn)
        want = grid.q_max
        for qq in range(MIN_PRECISION, grid.q_max + 1):
            a, b = ci >> (12 - qq), cj >> (12 - qq)
            if int(np.sum((a - b) ** 2)) >= 200:
                want = qq
                break
        assert q == want
        assert np.array_equal(coords, ci >> (12 - q))


def test_assign_precision_threshold_extremes():
    grid = _grid_1d()
    rng = np.random.default_rng(2)
    target = rng.integers(0, 4096, size=3).astype(float)
    cands = rng.integers(0, 4096, size=(5, 3)).astype(float)
    q0, _ = assign_precision(target, cands, grid, threshold=0)
    assert q0 == MIN_PRECISION
    qmax, _ = assign_precision(target, cands, grid, threshold=1 << 62)
    assert qmax == grid.q_max


def test_assign_precision_empty_candidates_rejected():
    with pytest.raises(ValueError):
        assign_precision(np.zeros(3), np.empty((0, 3)), _grid_1d(), 200)


def _tie_heavy_inputs(n_cand, seed):
    """Candidates on a coarse integer grid, each also duplicated further
    down the list; targets on candidates, at midpoints of candidate pairs
    (equidistant from both) and at half-integer cell centres (equidistant
    from up to eight grid points)."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 8, size=(max(1, n_cand // 2), 3)).astype(float)
    cands = np.vstack([base, base[::-1]])[:n_cand]
    pairs = rng.integers(0, len(cands), size=(30, 2))
    targets = np.vstack([
        cands[rng.integers(0, len(cands), size=10)],
        0.5 * (cands[pairs[:, 0]] + cands[pairs[:, 1]]),
        rng.integers(0, 8, size=(20, 3)) + 0.5,
        rng.integers(0, 64, size=(10, 3)).astype(float)])
    return targets, cands


def _reference_nearest(targets, cands):
    """Brute force in the reference arithmetic, first index winning ties."""
    return [int(np.argmin(np.sum((cands - t) ** 2, axis=1)))
            for t in targets]


@pytest.mark.parametrize("n_cand", [1, 2, 7, 5000])
def test_batch_precision_matches_per_target_rule(n_cand):
    """The k-d search picks what a brute-force scan in the reference
    arithmetic picks, first index winning every tie, also when a
    non-dyadic scale makes the ties inexact."""
    grid = _grid_1d()
    for scale in (1.0, 0.1, 3.7):
        targets, cands = _tie_heavy_inputs(n_cand, n_cand)
        targets, cands = scale * targets, scale * cands
        nearest = _reference_nearest(targets, cands)
        assert quantize._nearest(targets, cands).tolist() == nearest
        want = [assign_precision(t, cands[[j]], grid, 200)[0]
                for t, j in zip(targets, nearest)]
        assert batch_precision(targets, cands, grid, 200).tolist() == want


def _crowded_inputs():
    """(targets, candidates, forces doubling) cases: six coincident
    copies of one point, a target equidistant from the six axis
    neighbours of a grid point, one candidate and two candidates."""
    rng = np.random.default_rng(3)
    spread = rng.integers(-4, 5, size=(40, 3)).astype(float)
    point = np.array([0.25, 0.5, 0.75])
    coincident = np.vstack([spread[:10], np.tile(point, (6, 1)), spread[10:]])
    centre = np.full(3, 20.0)
    ring = centre + rng.permutation(np.vstack([np.eye(3), -np.eye(3)]))
    axes = np.vstack([spread, ring, spread + 40])
    one, two = spread[:1], spread[:2]
    return [
        (np.vstack([point, point + [0.01, 0, 0], spread[:5] + 0.5]),
         coincident, True),
        (np.vstack([centre, centre + 0.5, spread[:5]]), axes, True),
        (np.vstack([spread[:3], spread[:3] + 0.5]), one, False),
        (np.vstack([0.5 * (two[0] + two[1]), spread[:6]]), two, False),
    ]


@pytest.mark.parametrize("scale", [1.0, 0.1, 3.7])
def test_nearest_matches_brute_force_when_k_must_grow(monkeypatch, scale):
    """Ties among more than three candidates make the k-nearest query
    double k; one or two candidates cap it at the candidate count. Every
    case picks what a brute-force scan picks."""
    ks = []

    class RecordingTree(cKDTree):
        def query(self, x, k=1, **kwargs):
            ks.append(k)
            return super().query(x, k, **kwargs)

    monkeypatch.setattr(quantize, "cKDTree", RecordingTree)
    for targets, cands, doubles in _crowded_inputs():
        targets, cands = scale * targets, scale * cands
        ks.clear()
        assert quantize._nearest(targets, cands).tolist() == \
            _reference_nearest(targets, cands)
        assert ks[0] == min(3, len(cands))
        assert (len(ks) > 1) == doubles
        assert ks[-1] <= len(cands)


@pytest.mark.parametrize("n_cand", [1, 2, 7, 5000])
def test_tie_rank_sum_is_reference_sum_bit_for_bit(n_cand):
    """The per-axis sum that `_nearest` ranks ties by equals the
    reference `np.sum((c - t) ** 2, axis=1)` bit for bit."""
    cases = [(t, c) for t, c, _ in _crowded_inputs()]
    cases += [(scale * t, scale * c)
              for t, c in [_tie_heavy_inputs(n_cand, n_cand)]
              for scale in (1.0, 0.1, 3.7)]
    rng = np.random.default_rng(n_cand)
    cases.append((rng.normal(size=(20, 3)), rng.normal(size=(n_cand, 3))))
    for targets, cands in cases:
        d = cands[None, :, :] - targets[:, None, :]
        d *= d
        per_axis = d[:, :, 0] + d[:, :, 1] + d[:, :, 2]
        reference = np.array([np.sum((cands - t) ** 2, axis=1)
                              for t in targets])
        assert per_axis.tobytes() == reference.tobytes()


def test_batch_precision_empty_targets():
    grid = _grid_1d()
    assert batch_precision(np.empty((0, 3)), np.zeros((2, 3)), grid).size == 0
    assert batch_precision(np.empty((0, 3)), np.empty((0, 3)), grid).size == 0


def test_round_half_away():
    vals = np.array([0.5, -0.5, 0.6, -0.6, 1.49, -1.5, 0.0])
    assert np.array_equal(round_half_away(vals), [1, -1, 1, -1, 1, -2, 0])
