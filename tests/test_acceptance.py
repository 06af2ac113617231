"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single
``ACCEPTANCE n (...): PASS|FAIL`` line and fails loudly on violation.
Run with ``pytest -v tests/test_acceptance.py`` to get one verdict line
per criterion from pytest itself as well.
"""

import subprocess
import sys
import time

import numpy as np

from meshpress import shapes
from meshpress.codec import EncodeConfig, bench_rows, decode_debug, encode
from meshpress.entropy import AdaptiveModel, RangeDecoder, RangeEncoder
from meshpress.hierarchy import resubdivide
from meshpress.mesh import bounding_box
from meshpress.metrics import (_point_triangle_batch, distances_to_mesh,
                               point_to_triangle)
from meshpress.quantize import QuantGrid
from meshpress.wavelet import analyze, synthesize

from conftest import LARGE_NAMES


def _verdict(num: int, title: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} ({title}): {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert passed, line


def _canonical(faces):
    out = set()
    for face in faces:
        a, b, c = (int(v) for v in face)
        out.add(min((a, b, c), (b, c, a), (c, a, b)))
    return out


def _lossless(mesh, stream) -> bool:
    dec = decode_debug(stream)
    pi = stream.vertex_map
    if dec.mesh.vertex_count != mesh.vertex_count:
        return False
    if _canonical(pi[dec.mesh.faces]) != _canonical(mesh.faces):
        return False
    grid = QuantGrid(stream.origin, stream.scale, stream.q_max)
    return bool(np.array_equal(dec.final_ints,
                               grid.quantize(mesh.vertices)[pi]))


# -- 1: lossless round-trip on the corpus, timed ---------------------------


def test_criterion_1_lossless_round_trip(corpus):
    assert len(corpus) >= 6
    assert corpus["triangle"].vertex_count == 3
    assert corpus["icosphere"].vertex_count == 642
    assert any(2000 <= m.vertex_count <= 8000 for m in corpus.values())
    start = time.perf_counter()
    ok = True
    for mesh in corpus.values():
        stream, _ = encode(mesh)
        ok = ok and _lossless(mesh, stream)
    elapsed = time.perf_counter() - start
    _verdict(1, "lossless round-trip, corpus >=6 meshes",
             ok and elapsed < 30.0, f"{elapsed:.1f}s")


# -- 2: wavelet perfect reconstruction -------------------------------------


def test_criterion_2_wavelet_perfect_reconstruction(hierarchies):
    """The encoder's analysis and the decoder's synthesis kernel, on every
    level's own parent edges: coarse vertices first, then the odd ones."""
    worst, covered = 0.0, True
    for records in hierarchies.values():
        for record in records:
            x = record.fine_mesh.vertices
            odds = np.array(list(record.parent_edge), dtype=np.int64)
            ends = np.array(list(record.parent_edge.values()),
                            dtype=np.int64).reshape(-1, 2)
            evens = record.coarse_to_fine
            back = synthesize(x[evens], np.searchsorted(evens, ends),
                              analyze(x, odds, ends))
            order = np.concatenate([evens, odds])
            covered &= np.array_equal(np.sort(order), np.arange(len(x)))
            num = float(np.linalg.norm(back - x[order]))
            den = max(1.0, float(np.linalg.norm(x)))
            worst = max(worst, num / den)
    _verdict(2, "synthesize(analyze(x)) == x",
             covered and worst <= 1e-12, f"max rel err {worst:.2e}")


# -- 3: subdivision consistency --------------------------------------------


def test_criterion_3_resubdivide_consistency(hierarchies):
    total = good = 0
    for records in hierarchies.values():
        for record in records:
            total += 1
            rebuilt = resubdivide(record)
            if _canonical(rebuilt.faces) == _canonical(record.fine_mesh.faces):
                good += 1
    _verdict(3, "resubdivide reproduces fine connectivity",
             total > 0 and good == total, f"{good}/{total} levels")


# -- 4: adaptive quantization saves >= 10% geometry bits -------------------


def test_criterion_4_adaptive_gain(corpus):
    start = time.perf_counter()
    results = []
    for name in LARGE_NAMES:
        mesh = corpus[name]
        assert mesh.vertex_count >= 2000
        _, on = encode(mesh, EncodeConfig(adaptive=True))
        _, off = encode(mesh, EncodeConfig(adaptive=False))
        saving = 1.0 - on.progressive_geometry_bits / off.progressive_geometry_bits
        results.append((name, saving))
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{n} {s:.1%}" for n, s in results)
    _verdict(4, "adaptive precision >=10% geometry-bit saving",
             all(s >= 0.10 for _, s in results) and elapsed < 120.0,
             f"{detail}; {elapsed:.1f}s")


# -- 5: rate-distortion monotonicity and final grid bound ------------------


def test_criterion_5_rd_monotone_and_bounded(corpus, encoded):
    ok = True
    details = []
    for name, mesh in corpus.items():
        stream, _ = encoded[name]
        rows = bench_rows(mesh, stream=stream, seed=0)
        last = np.inf
        for row in rows:
            ok = ok and row.rms_norm <= last + 1e-9
            last = row.rms_norm
        box = bounding_box(mesh)
        diag = float(np.linalg.norm(box.extent))
        bound = 0.5 * np.sqrt(3.0) / (stream.scale * diag)
        ok = ok and rows[-1].rms_norm <= bound
        details.append(f"{name} {rows[-1].rms_norm:.1e}<={bound:.1e}")
    _verdict(5, "bench rms non-increasing, final rms within grid bound",
             ok, "; ".join(details[-2:]))


# -- 6: order-of-magnitude rate anchor -------------------------------------


def test_criterion_6_cad_rate_anchor():
    mesh = shapes.cad_solid()
    assert 6000 <= mesh.vertex_count <= 7000
    _, report = encode(mesh, EncodeConfig(q_max=10))
    bpv = report.total_bpv
    _verdict(6, "6-7k-vertex CAD mesh at q_max=10 in [8, 25] bpv",
             8.0 <= bpv <= 25.0, f"{bpv:.2f} bpv")


# -- 7: entropy coder determinism and bulk round-trip ----------------------

_FIXTURE = """
import numpy as np
from meshpress.entropy import AdaptiveModel, RangeEncoder
rng = np.random.default_rng(20260823)
enc = RangeEncoder()
for a in (2, 5, 17, 256):
    syms = rng.integers(0, a, size=25_000).tolist()
    enc.encode_symbols(AdaptiveModel(a), syms)
import hashlib, sys
sys.stdout.write(hashlib.sha256(enc.finish()).hexdigest())
"""


# SHA-256 of the fixture's stream; any change to the coder's arithmetic or
# to finish() shows up here.
_FIXTURE_SHA256 = \
    "d4e161665515ff939ca45549341d77705c14b1d97e0c30dd3eff5bfb51e57cf7"


def _fixture_digest() -> str:
    proc = subprocess.run([sys.executable, "-c", _FIXTURE],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_criterion_7_coder_determinism_and_round_trip():
    start = time.perf_counter()
    # fixed 10^5-symbol fixture: two runs give the pinned bytes
    digests = [_fixture_digest(), _fixture_digest()]
    deterministic = digests == [_FIXTURE_SHA256] * 2

    # 10^6 random symbols over 4 alphabets round-trip exactly, one kernel
    # call per alphabet each way
    rng = np.random.default_rng(7)
    alphabets = (2, 5, 17, 256)
    plans = [rng.integers(0, a, size=250_000).tolist() for a in alphabets]
    enc = RangeEncoder()
    for sym, a in zip(plans, alphabets):
        enc.encode_symbols(AdaptiveModel(a), sym)
    dec = RangeDecoder(enc.finish())
    identical = all(dec.decode_symbols(AdaptiveModel(a), len(sym)) == sym
                    for sym, a in zip(plans, alphabets))
    elapsed = time.perf_counter() - start
    _verdict(7, "coder byte-identical + 10^6-symbol round-trip",
             deterministic and identical and elapsed < 20.0,
             f"{elapsed:.1f}s")


# -- 8: metric oracles ------------------------------------------------------


def _oracle_batch(points, tris, rounds=7, grid=17, span_mult=2):
    """Vectorized refining dense-barycentric distance for many cases.

    `span_mult` controls how gently the search window shrinks: the next
    window spans `span_mult` grid spacings on each side of the round's
    best point, so larger values trade convergence speed for robustness
    when the minimizer is far from an early best point.
    """
    n = len(points)
    t = np.linspace(0.0, 1.0, grid)
    uu0, vv0 = (a.ravel() for a in np.meshgrid(t, t))
    lo_u = np.zeros(n); hi_u = np.ones(n)
    lo_v = np.zeros(n); hi_v = np.ones(n)
    best = np.full(n, np.inf)
    bu = np.zeros(n); bv = np.zeros(n)
    rows = np.arange(n)
    for _ in range(rounds):
        uu = lo_u[:, None] + (hi_u - lo_u)[:, None] * uu0[None, :]
        vv = lo_v[:, None] + (hi_v - lo_v)[:, None] * vv0[None, :]
        w = 1.0 - uu - vv
        pts = (w[..., None] * tris[:, None, 0] + uu[..., None] * tris[:, None, 1]
               + vv[..., None] * tris[:, None, 2])
        d = np.linalg.norm(pts - points[:, None, :], axis=2)
        d[uu + vv > 1.0 + 1e-15] = np.inf
        i = np.argmin(d, axis=1)
        di = d[rows, i]
        better = di < best
        best = np.where(better, di, best)
        bu = np.where(better, uu[rows, i], bu)
        bv = np.where(better, vv[rows, i], bv)
        span_u = (hi_u - lo_u) / (grid - 1) * span_mult
        span_v = (hi_v - lo_v) / (grid - 1) * span_mult
        lo_u = np.maximum(0.0, bu - span_u); hi_u = np.minimum(1.0, bu + span_u)
        lo_v = np.maximum(0.0, bv - span_v); hi_v = np.minimum(1.0, bv + span_v)
    return best


def _edge_min_batch(points, a, b, rounds=10, grid=33):
    """Refining 1-D grid search for distance to segment ab per case.

    The squared distance is convex along the segment, so the grid argmin
    is always within one spacing of the true argmin and the shrinking
    window converges unconditionally."""
    n = len(points)
    t0 = np.linspace(0.0, 1.0, grid)
    lo = np.zeros(n); hi = np.ones(n)
    best = np.full(n, np.inf)
    rows = np.arange(n)
    ab = b - a
    for _ in range(rounds):
        t = lo[:, None] + (hi - lo)[:, None] * t0[None, :]
        pts = a[:, None, :] + t[..., None] * ab[:, None, :]
        d = np.linalg.norm(pts - points[:, None, :], axis=2)
        i = np.argmin(d, axis=1)
        best = np.minimum(best, d[rows, i])
        bt = t[rows, i]
        span = (hi - lo) / (grid - 1)
        lo = np.maximum(0.0, bt - span); hi = np.minimum(1.0, bt + span)
    return best


def _plane_foot_min(points, tris):
    """Exact interior candidate: distance to the supporting plane where
    the orthogonal foot lies inside the triangle, +inf elsewhere."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    n = np.cross(b - a, c - a)
    nn = np.linalg.norm(n, axis=1)
    ok = nn > 1e-12
    out = np.full(len(points), np.inf)
    nhat = n[ok] / nn[ok, None]
    ap = points[ok] - a[ok]
    h = np.einsum("ij,ij->i", ap, nhat)
    foot = ap - h[:, None] * nhat
    e1, e2 = (b - a)[ok], (c - a)[ok]
    d11 = np.einsum("ij,ij->i", e1, e1)
    d12 = np.einsum("ij,ij->i", e1, e2)
    d22 = np.einsum("ij,ij->i", e2, e2)
    f1 = np.einsum("ij,ij->i", foot, e1)
    f2 = np.einsum("ij,ij->i", foot, e2)
    det = d11 * d22 - d12 * d12
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (d22 * f1 - d12 * f2) / det
        v = (d11 * f2 - d12 * f1) / det
    inside = (det > 0) & (u >= 0) & (v >= 0) & (u + v <= 1)
    vals = np.where(inside, np.abs(h), np.inf)
    out[ok] = vals
    return out


def _oracle_refined(points, tris):
    """Dense 2-D grid search combined with unconditionally converging 1-D
    searches along the edges and the closed-form interior plane distance
    (sliver triangles stall the 2-D window on both boundary and interior
    minimizers; these two candidates are exact there)."""
    want = _oracle_batch(points, tris)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        want = np.minimum(want,
                          _edge_min_batch(points, tris[:, i], tris[:, j]))
    return np.minimum(want, _plane_foot_min(points, tris))


def test_criterion_8_metric_oracle_equivalence():
    rng = np.random.default_rng(88)
    # grid acceleration must be exact on every small mesh
    exact = True
    for mesh in (shapes.triangle(), shapes.tetrahedron(),
                 shapes.icosahedron(), shapes.grid_patch(9, 9),
                 shapes.icosphere(1)):
        assert mesh.face_count <= 200
        pts = rng.normal(size=(400, 3)) * 1.5
        fast = distances_to_mesh(pts, mesh, accelerated=True)
        slow = distances_to_mesh(pts, mesh, accelerated=False)
        exact = exact and bool(np.array_equal(fast, slow))

    # point-to-triangle kernel vs refining barycentric search, 10^5 cases
    # in batches; the scalar wrapper is checked on the first 1000
    cases = 100_000
    worst = 0.0
    for batch in range(cases // 5000):
        tris = rng.normal(size=(5000, 3, 3))
        pts = rng.normal(size=(5000, 3)) * rng.choice([0.3, 1.0, 3.0],
                                                      size=(5000, 1))
        got = _point_triangle_batch(pts, tris[:, 0], tris[:, 1], tris[:, 2])
        want = _oracle_refined(pts, tris)
        worst = max(worst, float(np.abs(got - want).max()))
        if batch == 0:
            scalar = [point_to_triangle(p, t)
                      for p, t in zip(pts[:1000], tris[:1000])]
            worst = max(worst, float(np.abs(scalar - want[:1000]).max()))
    _verdict(8, "grid acceleration exact + kernel vs oracle 1e-6",
             exact and worst <= 1e-6, f"max |diff| {worst:.2e}")


# -- 9: encoder/decoder precision symmetry ---------------------------------


def test_criterion_9_precision_symmetry(corpus):
    mismatches = 0
    checked = 0
    for threshold in (0, 200, 600):
        for mesh in corpus.values():
            stream, _ = encode(mesh, EncodeConfig(threshold=threshold))
            dec = decode_debug(stream)
            for enc_q, local_q in zip(stream.q_sequences, dec.q_recomputed,
                                      strict=True):
                checked += len(enc_q)
                if enc_q != local_q:
                    mismatches += 1
    _verdict(9, "decoder-recomputed q_i identical to encoder's",
             checked > 0 and mismatches == 0,
             f"{checked} precisions, thresholds 0/200/600")
