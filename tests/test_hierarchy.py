import gc
import hashlib
import heapq
import math
from collections import Counter

import numpy as np
import pytest

from meshpress import hierarchy, shapes
from meshpress.hierarchy import (WgcConfig, _PassState, _PassTables,
                                 build_hierarchy, refinement, resubdivide,
                                 simplify_once, subdivide)
from meshpress.mesh import TriMesh, edge_key

UNCHANGED, BISECT, TRISECT, QUADRISECT = range(4)     # split counts


def rotation(face):
    """The orientation-preserving canonical rotation of a face."""
    a, b, c = (int(v) for v in face)
    return min((a, b, c), (b, c, a), (c, a, b))


def canonical_faces(faces):
    """Face set with orientation-preserving canonical rotation per face."""
    return {rotation(face) for face in faces}


def coarse_in_fine_ids(record):
    """The record's coarse mesh over fine ids, and the identity map."""
    nv = record.fine_mesh.vertex_count
    faces = record.coarse_to_fine[record.coarse_mesh.faces]
    return TriMesh(np.zeros((nv, 3)), faces, validate=False), np.arange(nv)


def groups_of(record):
    """(split count, corners, fine face ids, diagonal bit) of each coarse
    face in record order, all ids fine ids: the face group the face
    stands for, read back from `refinement`. Fine faces come in
    subdivision order (corner faces, then the center), the bit is 0 for
    any face but a trisect."""
    coarse, ids = coarse_in_fine_ids(record)
    _, plan, bits = refinement(record, coarse, ids)
    fine_id = {rotation(face): f
               for f, face in enumerate(record.fine_mesh.faces.tolist())}
    children, bits = iter(subdivide(plan, bits).tolist()), iter(bits)
    return [(n, tuple(face),
             tuple(fine_id[rotation(next(children))] for _ in range(n + 1)),
             next(bits) if n == TRISECT else 0)
            for face, (*_, n) in zip(coarse.faces.tolist(), plan.tolist())]


def assert_consistent(record):
    """Re-subdividing the coarse mesh must reproduce the fine connectivity."""
    rebuilt = resubdivide(record)
    assert rebuilt.vertex_count == record.fine_mesh.vertex_count
    assert rebuilt.face_count == record.fine_mesh.face_count
    assert canonical_faces(rebuilt.faces) == canonical_faces(record.fine_mesh.faces)


# -- minimal analytic cases -------------------------------------------------


def test_single_triangle_not_simplifiable():
    assert simplify_once(shapes.triangle()) is None


def test_quadrisected_triangle_inverts_to_one_face():
    fine = shapes.subdivide_midpoint(shapes.triangle())
    assert fine.vertex_count == 6 and fine.face_count == 4
    record = simplify_once(fine)
    assert record is not None
    assert record.coarse_mesh.vertex_count == 3
    assert record.coarse_mesh.face_count == 1
    assert [g[0] for g in groups_of(record)] == [QUADRISECT]
    assert len(record.parent_edge) == 3
    assert_consistent(record)


def test_subdivided_icosahedron_inverts_fully():
    fine = shapes.icosphere(1)          # 42 vertices
    record = simplify_once(fine)
    assert record.coarse_mesh.vertex_count == 12
    assert all(g[0] == QUADRISECT for g in groups_of(record))
    assert_consistent(record)


def test_triangle_subdivided_three_times_gives_three_levels():
    mesh = shapes.triangle()
    for _ in range(3):
        mesh = shapes.subdivide_midpoint(mesh)
    records = build_hierarchy(mesh)
    assert len(records) == 3
    base = records[-1].coarse_mesh
    assert base.vertex_count == 3 and base.face_count == 1


def test_single_triangle_hierarchy_is_empty():
    assert build_hierarchy(shapes.triangle()) == []


def test_max_levels_cap():
    mesh = shapes.icosphere(3)
    records = build_hierarchy(mesh, max_levels=1)
    assert len(records) == 1


# -- forward-subdivision oracles for the partial patterns -------------------


def test_bisect_pair_inverts():
    # split one edge of a two-triangle strip: each triangle bisects.
    # The cross vertices sit close enough that every alternative odd
    # vertex exceeds the deviation bound, so the inversion is unique.
    base = TriMesh([[0, 0, 0], [2, 0, 0], [1, 1, 0], [1, -1, 0]],
                   [[0, 1, 2], [0, 3, 1]])
    fine = shapes.subdivide_midpoint(base, edges=[(0, 1)])
    record = simplify_once(fine)
    assert record is not None
    assert [g[0] for g in groups_of(record)] == [BISECT, BISECT]
    assert record.coarse_mesh.vertex_count == 4
    assert_consistent(record)


def test_subdivide_midpoint_rejects_non_edges():
    ico = shapes.icosahedron()
    want = shapes.subdivide_midpoint(ico, edges=[(0, 1)])
    got = shapes.subdivide_midpoint(ico, edges=[(1, 0)])
    assert got.vertex_count == 13
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.faces, want.faces)
    # (0, 17) has the code 0 * 12 + 17 of the edge (1, 5)
    for pair in [(0, 3), (0, 17)]:
        with pytest.raises(ValueError, match="not an edge"):
            shapes.subdivide_midpoint(ico, edges=[pair])


def test_trisect_inverts():
    # split two edges of one triangle; its neighbors bisect
    base = shapes.subdivide_midpoint(shapes.triangle())
    split = [(0, 3), (3, 4)]            # two edges of the center face
    fine = shapes.subdivide_midpoint(base, edges=split)
    record = simplify_once(fine)
    assert record is not None
    assert TRISECT in [g[0] for g in groups_of(record)]
    assert_consistent(record)


def test_mixed_subdivision_of_patch_inverts():
    base = shapes.grid_patch(3, 3)
    fine = shapes.subdivide_midpoint(base, edges=base.edges[::2].tolist())
    record = simplify_once(fine)
    assert record is not None
    assert_consistent(record)


# -- the split-mask table against the rotation search it replaced ------------


def reference_subdivide_face(face, midpoint_of, diag_bit=0):
    """The per-face rule before the split-mask table: search the rotation
    that puts the split edges first, then apply the child template."""
    flags = [midpoint_of(edge_key(face[i], face[(i + 1) % 3])) is not None
             for i in range(3)]
    n = sum(flags)
    if n == 0:
        return [tuple(face)]
    if n in (1, 2):
        lead = [True, False, False] if n == 1 else [True, True, False]
        rot = next(r for r in range(3)
                   if [flags[(r + i) % 3] for i in range(3)] == lead)
        face = [face[(rot + i) % 3] for i in range(3)]
    p0, p1, p2 = face
    m01 = midpoint_of(edge_key(p0, p1))
    m12 = midpoint_of(edge_key(p1, p2))
    m20 = midpoint_of(edge_key(p2, p0))
    if n == 1:
        return [(p0, m01, p2), (m01, p1, p2)]
    if n == 2 and diag_bit == 0:
        return [(p0, m01, p2), (m01, p1, m12), (m01, m12, p2)]
    if n == 2:
        return [(p0, m01, m12), (m01, p1, m12), (p0, m12, p2)]
    return [(p0, m01, m20), (m01, p1, m12), (m20, m12, p2), (m01, m12, m20)]


def midpoints(mesh, split):
    """`split` (edge key -> midpoint) in the order of `mesh.edges`, -1 for
    an edge it does not hold."""
    return [split.get(tuple(e), -1) for e in mesh.edges.tolist()]


def test_split_table_matches_rotation_search():
    """Every rotation of one triangle, every split mask, both diagonal
    bits: the same child faces, in the same order and winding."""
    for rot in range(3):
        face = [(10, 11, 12)[(rot + i) % 3] for i in range(3)]
        mesh = TriMesh(np.zeros((13, 3)), [face])
        for mask in range(8):
            split = {edge_key(face[i], face[(i + 1) % 3]): 20 + i
                     for i in range(3) if mask >> i & 1}
            plan = hierarchy.split_plan(mesh, midpoints(mesh, split))
            assert plan[0][6] == bin(mask).count("1")
            for bit in (0, 1):
                got = hierarchy.subdivide(plan, [bit])
                want = reference_subdivide_face(face, split.get, bit)
                assert [tuple(f) for f in got.tolist()] == want, \
                    (face, mask, bit)


def test_subdivide_keeps_face_order_and_diagonal_bit_order():
    """Children replace their parent in place, and the diagonal bits go
    to the two-split faces in ascending face order."""
    mesh = shapes.icosphere(1)
    keys = [tuple(e) for e in mesh.edges.tolist()]
    split = {k: mesh.vertex_count + i for i, k in enumerate(keys[::3])}
    plan = hierarchy.split_plan(mesh, midpoints(mesh, split))
    trisected = [f for f, (*_, n) in enumerate(plan) if n == 2]
    assert 10 < len(trisected) < mesh.face_count
    bits = np.random.default_rng(1).integers(0, 2, len(trisected)).tolist()
    bit_of = dict(zip(trisected, bits))
    want = [child for f, face in enumerate(mesh.faces.tolist())
            for child in reference_subdivide_face(face, split.get,
                                                  bit_of.get(f, 0))]
    got = hierarchy.subdivide(plan, bits)
    assert [tuple(f) for f in got.tolist()] == want


def loop_subdivide(plan, diag_bits):
    """The per-face loop `subdivide` ran before its template gather."""
    bits = iter(diag_bits)
    out = []
    for p0, p1, p2, m01, m12, m20, n in plan:
        if n == 0:
            out.append((p0, p1, p2))
        elif n == 1:
            out += ((p0, m01, p2), (m01, p1, p2))
        elif n == 3:
            out += ((p0, m01, m20), (m01, p1, m12), (m20, m12, p2),
                    (m01, m12, m20))
        elif next(bits):
            out += ((p0, m01, m12), (m01, p1, m12), (p0, m12, p2))
        else:
            out += ((p0, m01, p2), (m01, p1, m12), (m01, m12, p2))
    return np.array(out, dtype=np.int64).reshape(-1, 3)


@pytest.mark.parametrize("seed", range(5))
def test_subdivide_gather_matches_per_face_loop(seed):
    """Random plans over disjoint triangles, every split mask, rotation
    and diagonal bit: the template gather gives the per-face loop's
    children, in its order."""
    rng = np.random.default_rng(seed)
    nf = 480
    rot = rng.integers(0, 3, nf)
    faces = 3 * np.arange(nf)[:, None] + (rot[:, None] + [0, 1, 2]) % 3
    mesh = TriMesh(np.zeros((3 * nf, 3)), rng.permutation(faces),
                   validate=False)
    mask = rng.integers(0, 8, nf)
    split = {edge_key(face[i], face[(i + 1) % 3]): 3 * nf + 3 * f + i
             for f, face in enumerate(mesh.faces.tolist())
             for i in range(3) if mask[f] >> i & 1}
    plan = hierarchy.split_plan(mesh, midpoints(mesh, split))
    bits = rng.integers(0, 2, np.count_nonzero(plan[:, 6] == 2))
    want = loop_subdivide(plan.tolist(), bits.tolist())
    assert np.array_equal(subdivide(plan, bits), want)
    bit = np.full(nf, -1)
    bit[plan[:, 6] == 2] = bits
    seen = set(zip(mask.tolist(), (mesh.faces[:, 0] % 3).tolist(),
                   bit.tolist()))       # mask, rotation, diagonal bit
    assert len(seen) == 5 * 3 + 3 * 3 * 2


def test_subdivide_rejects_short_diagonal_bits():
    """Fewer diagonal bits than trisected faces is a ValueError that
    names both counts."""
    mesh = shapes.icosphere(1)
    keys = [tuple(e) for e in mesh.edges.tolist()]
    split = {k: mesh.vertex_count + i for i, k in enumerate(keys[::3])}
    plan = hierarchy.split_plan(mesh, midpoints(mesh, split))
    count = np.count_nonzero(plan[:, 6] == 2)
    with pytest.raises(ValueError,
                       match=f"^{count - 1} diagonal bits for {count} "):
        subdivide(plan, [0] * (count - 1))


def unoriented(faces):
    return sorted(tuple(sorted(face)) for face in faces.tolist())


def test_refinement_reads_either_winding(hierarchies):
    """Reversing a random half of the coarse faces, then the other half,
    changes no midpoint, subdivides to the fine faces as unoriented
    triples and flips each reversed trisect's diagonal bit."""
    rng = np.random.default_rng(0)
    flipped = trisects = 0
    for records in hierarchies.values():
        for record in records:
            coarse, ids = coarse_in_fine_ids(record)
            mid, plan, bits = refinement(record, coarse, ids)
            trisected = [n == TRISECT for *_, n in plan]
            trisects += sum(trisected)
            half = rng.permutation(coarse.face_count) < coarse.face_count // 2
            for flip in (half, ~half):
                faces = np.where(flip[:, None], coarse.faces[:, ::-1],
                                 coarse.faces)
                mirror = TriMesh(coarse.vertices, faces, validate=False)
                mmid, mplan, mbits = refinement(record, mirror, ids)
                assert np.array_equal(mid, mmid)
                assert unoriented(subdivide(mplan, mbits)) == \
                    unoriented(record.fine_mesh.faces)
                assert mbits == [1 - b if f else b for b, f
                                 in zip(bits, flip[trisected].tolist())]
                flipped += int(flip[trisected].sum())
    assert flipped == trisects > 0


# -- whole-corpus structural properties -------------------------------------


def test_resubdivide_consistency_everywhere(hierarchies):
    for name, records in hierarchies.items():
        for record in records:
            assert_consistent(record)


def test_even_odd_partition(hierarchies):
    for records in hierarchies.values():
        for record in records:
            even = set(int(v) for v in record.coarse_to_fine)
            odd = set(record.parent_edge)
            assert even | odd == set(range(record.fine_mesh.vertex_count))
            assert not (even & odd)
            assert list(record.coarse_to_fine) == sorted(even)


def test_parents_joined_by_coarse_edge(hierarchies):
    for records in hierarchies.values():
        for record in records:
            edges = record.coarse_mesh.edges.tolist()
            for odd, (a, b) in record.parent_edge.items():
                # the pass's edge codes, decoded once into Python ints
                assert type(a) is int and type(b) is int and a < b
                ca, cb = np.searchsorted(record.coarse_to_fine, (a, b))
                assert record.coarse_to_fine[[ca, cb]].tolist() == [a, b]
                assert [ca, cb] in edges


def test_monotone_decimation(hierarchies):
    for records in hierarchies.values():
        for record in records:
            assert record.coarse_mesh.vertex_count < record.fine_mesh.vertex_count


def test_group_cardinality_matches_pattern(hierarchies):
    for records in hierarchies.values():
        for record in records:
            split = set(record.parent_edge.values())
            seen = []
            for n, c, fine, _ in groups_of(record):
                sides = {edge_key(c[i], c[(i + 1) % 3]) for i in range(3)}
                assert len(fine) == n + 1
                assert len(sides & split) == n
                seen.extend(fine)
            assert sorted(seen) == list(range(record.fine_mesh.face_count))


def test_wgc_bound_holds_for_every_odd(hierarchies):
    gamma = WgcConfig().gamma
    for records in hierarchies.values():
        for record in records:
            pos = record.fine_mesh.vertices
            for odd, (a, b) in record.parent_edge.items():
                mid = 0.5 * (pos[a] + pos[b])
                dev = np.linalg.norm(pos[odd] - mid)
                edge = np.linalg.norm(pos[a] - pos[b])
                assert dev <= gamma * edge + 1e-12


def test_wgc_gamma_restricts_removal():
    # a spike pushed far off its parent edge must survive under a small
    # gamma and may be removed when the criterion is disabled
    fine = shapes.subdivide_midpoint(shapes.icosphere(1))
    moved = fine.vertices.copy()
    odd_candidate = 42                  # first inserted midpoint vertex
    moved[odd_candidate] *= 1.8
    spiked = fine.with_vertices(moved)
    strict = simplify_once(spiked, WgcConfig(enabled=True, gamma=0.05))
    free = simplify_once(spiked, WgcConfig(enabled=False))
    kept_strict = strict is None or odd_candidate not in strict.parent_edge
    assert kept_strict
    assert free is not None and odd_candidate in free.parent_edge


def test_wgc_gamma_validation():
    with pytest.raises(ValueError):
        WgcConfig(gamma=0.0)
    with pytest.raises(ValueError):
        WgcConfig(gamma=-1.0)


def boundary_edges(mesh):
    """Edge keys used by exactly one face, by scanning the faces."""
    uses = Counter(edge_key(face[i], face[(i + 1) % 3])
                   for face in mesh.faces.tolist() for i in range(3))
    return {key for key, n in uses.items() if n == 1}


def test_boundary_vertex_collapses_only_along_boundary(hierarchies):
    for name, records in hierarchies.items():
        for record in records:
            boundary = boundary_edges(record.fine_mesh)
            rim = {v for e in boundary for v in e}
            for odd, (a, b) in record.parent_edge.items():
                if odd in rim:
                    assert edge_key(odd, a) in boundary
                    assert edge_key(odd, b) in boundary


def test_determinism(corpus):
    for name in ("icosphere", "convex"):
        r1 = build_hierarchy(corpus[name])
        r2 = build_hierarchy(corpus[name])
        assert len(r1) == len(r2)
        for a, b in zip(r1, r2):
            assert np.array_equal(a.coarse_to_fine, b.coarse_to_fine)
            assert a.parent_edge == b.parent_edge
            assert groups_of(a) == groups_of(b)


def test_full_subdivision_chains_invert_exactly(corpus):
    # meshes built as k full midpoint subdivisions must shed exactly the
    # inserted vertices at each level
    expected = {"icosphere": [162, 42, 12], "cad": [1602, 402, 102, 27]}
    for name, counts in expected.items():
        records = build_hierarchy(corpus[name])
        got = [r.coarse_mesh.vertex_count for r in records]
        assert got[:len(counts)] == counts


# -- per-pass tables --------------------------------------------------------


def test_pass_tables_match_mesh_adjacency(corpus):
    for name, mesh in corpus.items():
        tables = _PassTables(mesh)
        faces = mesh.faces.tolist()
        incident = {}                   # edge key -> its faces, by scanning
        for f, face in enumerate(faces):
            for i in range(3):
                incident.setdefault(edge_key(face[i], face[(i + 1) % 3]),
                                    []).append(f)
        assert tables.faces == faces, name
        for f, face in enumerate(faces):
            for i in range(3):
                u, v = face[i], face[(i + 1) % 3]
                other = [n for n in incident[edge_key(u, v)] if n != f]
                assert tables.opp[3 * f + i] == (other or [-1])[0], (name, f, i)
                apex = [w for n in other for w in faces[n] if w not in (u, v)]
                assert tables.apex[3 * f + i] == (apex or [-1])[0], (name, f, i)
        boundary = {key for key, fs in incident.items() if len(fs) == 1}
        nv = mesh.vertex_count
        assert tables.boundary.tolist() == sorted(u * nv + v
                                                  for u, v in boundary), name
        assert set(np.flatnonzero(tables.on_boundary).tolist()) == \
            {v for e in boundary for v in e}, name
        neighbours = [set() for _ in range(nv)]
        for u, v in incident:
            neighbours[u].add(v)
            neighbours[v].add(u)
        assert tables.valence.tolist() == [len(n) for n in neighbours], name
    assert _PassTables(corpus["grid"]).on_boundary.any()   # open patch


# -- pinned hierarchies -----------------------------------------------------

def hierarchy_digest(records) -> str:
    """SHA-256 over every level's even vertices, parent edges and coarse
    faces, each face as `groups_of` reads it back."""
    h = hashlib.sha256()
    for r in records:
        h.update(repr([int(v) for v in r.coarse_to_fine]).encode())
        h.update(repr(sorted((int(k), (int(a), int(b)))
                             for k, (a, b) in r.parent_edge.items())).encode())
        h.update(repr(groups_of(r)).encode())
    return h.hexdigest()


# Hierarchy digests. Check order and candidate order in the matchers decide
# every grouping, so a change to either shows up here on far more meshes
# than the golden streams cover. cad_solid(subdivisions=2, seed=s) and
# random_convex(200, seed=s) for s = 0..9, default WGC:
CAD_PINS = [
    "2a2f33cf04ab53b087faba5b912e038ca2c03f7c72a0f0ebbd4c5fcb7a777404",
    "2b4e39a7f7759b8eb2f535e5d7f3d428a6ba220cc33baed6731119e12bc88c58",
    "a51fbb412eb93d8eba42abbcd43b20dbfda52f12dd1e4ad3cefd24591238b294",
    "8d1cf63fbe9b54deadb59cf9fa11b4b088c3aa7460fde669967e1cfabcf34aca",
    "9991e0a234d511d21a8e2b0f1de2e888528a81b7566dd5086c683ad1e1431cc8",
    "f1dc9858be6fd2ff9165335cae8b05c5ca85b00a06cd87b47bb7a42015449e24",
    "84e35a76d631b08f89a31e301a92cddea7f955c0a3be6b7381843ec4953a3c7c",
    "1bde90a83926365a3e51188de1f826ada9a07bb7d65a21d4bf518481c9f24b46",
    "0d5bc66cfec0da4004b546ed801b46191fa765c6f16f021575fd866724a8a201",
    "2dfb5f28e347297613c8eac051f514144392dce764bd69d42e5c867f5d67ce55",
]
CONVEX_PINS = [
    "8720654e4dd741a9cb4c8e624e6254cd15368aacd9877ca163f5d592b6596cad",
    "bd1e4f95f78e39bbec3944fca7a0e13786b0262db6c13ef27c0247cf7bcd8dde",
    "fc87f7ea654e69faffb357cb82aa62c3782d373bbf298b657e860fd72b5f7ddb",
    "af7a4a36118668b311b49c88ed94ab28a5a16607539bdf390c2562500cc9dae8",
    "19339eaa3bc71139d0d76bec4070b83fca4d7737c24f71123a99dec61479a33c",
    "cd66132494ae930c1b63fb4c976262b64804588ad45b648618950b109f79e038",
    "a57a1e1aabdc9464c1ff8721550a407bc521e570e8c385e17d9f8fea4b8bc71a",
    "68b8358fdceaf47029520d1d821f753408698368e09e6e552ea2333c1c8778d1",
    "b84a50d95c0c5397057a4079fb03d4aff120a14a18a92f0372bd82afca01f780",
    "d200c5c05eefd72911f55fbdc89dc6c75656c3f6edbf827c993a6a3f2d90c9ae",
]
NO_WGC, TIGHT_WGC = WgcConfig(enabled=False), WgcConfig(gamma=0.15)
CONFIG_PINS = {
    ("grid", NO_WGC): "8a19170606ddcfc0e620335072c64a98e126b31025fb18a55b0b8be802e49cfa",
    ("grid", TIGHT_WGC): "da740ef5dfee2d012c77515a9511d1a14ed4f4bed5876200ee04ebf6b00466d7",
    ("bumpy", NO_WGC): "15fd801f86236958342f960b0e8811385712381151b3c3e88863202528875ec5",
    ("bumpy", TIGHT_WGC): "e2691b53a5d003721006e025bc16ae34a671a3f14d0130c84d84b98539f4c085",
}


def test_hierarchy_is_pinned():
    def digests(make, seeds):
        return [hierarchy_digest(build_hierarchy(make(s))) for s in seeds]

    assert digests(lambda s: shapes.cad_solid(subdivisions=2, seed=s),
                   range(10)) == CAD_PINS
    assert digests(lambda s: shapes.random_convex(200, seed=s),
                   range(10)) == CONVEX_PINS
    meshes = {"grid": shapes.grid_patch(9, 9), "bumpy": shapes.bumpy_sphere(3)}
    got = {(name, wgc): hierarchy_digest(build_hierarchy(meshes[name], wgc))
           for name, wgc in CONFIG_PINS}
    assert got == CONFIG_PINS


def cascade_mesh(mesh, first, last):
    """Midpoint refinement at mixed scales: every `first`-th edge, then
    every edge, then every `last`-th. The coarser scale's groups cannot
    coexist with the finer one, so the demotion fixpoint stalls and
    `_dissolve_conflicts` has to give up deep regions."""
    mesh = shapes.subdivide_midpoint(mesh, edges=mesh.edges[::first])
    mesh = shapes.subdivide_midpoint(mesh)
    return shapes.subdivide_midpoint(mesh, edges=mesh.edges[::last])


# Hierarchy digests of meshes whose passes end in dissolve cascades, which
# the pins above do not reach: the hull's three spread 38, 39 and 44
# rounds of dissolved groups deep, the CAD mesh's four 7-8.
CASCADE_PINS = {
    "convex": "79f7c04135f8b91261b11c28b0d972845cfd66914bee2c3e513e65b1465ef9c9",
    "cad": "0b644b1e66dadaf4adf18e03639b1745dd03fb40e0d3e3ca52a1a75f83900582",
}


def test_hierarchy_is_pinned_on_dissolve_cascades(monkeypatch):
    meshes = {"convex": cascade_mesh(shapes.random_convex(100), 5, 2),
              "cad": cascade_mesh(shapes.cad_solid(subdivisions=1), 2, 7)}
    assert meshes["convex"].vertex_count == 1432
    calls = Counter()

    def counted(st, _dissolve=hierarchy._dissolve_conflicts):
        calls[name] += 1
        _dissolve(st)

    monkeypatch.setattr(hierarchy, "_dissolve_conflicts", counted)
    got = {}
    for name, mesh in meshes.items():
        got[name] = hierarchy_digest(build_hierarchy(mesh))
    assert got == CASCADE_PINS
    assert all(calls[name] for name in meshes), calls


def pass_meshes(mesh, wgc=None):
    """The input mesh of every pass build_hierarchy runs, the last one
    (which finds nothing to remove) included."""
    records = build_hierarchy(mesh, wgc)
    return [r.fine_mesh for r in records] + \
        [records[-1].coarse_mesh if records else mesh]


def static_candidates_digest(mesh) -> str:
    """SHA-256 over every pass's static candidates: per pattern and face,
    the ordered (corners, fine face ids, diagonal bit, coarse-edge entries
    with each code as its (a, b) pair and a kept edge's midpoint as None,
    scale, score, rank), the floats as hex."""
    h = hashlib.sha256()
    for fine in pass_meshes(mesh):
        t = _PassTables(fine)
        nv = fine.vertex_count
        # a trisect row's diagonal bit is 1 when its first fine face
        # holds its second midpoint; any other row's is 0
        h.update(repr([[(t.corners(r), t.fine_ids(r),
                         int(t.mid[1][r] in t.faces[t.fine[0][r]]),
                         tuple((divmod(k, nv), None if mid < 0 else mid)
                               for k, mid in t.entries(r)),
                         t.scale[r].hex(), t.score[r].hex(), t.rank[r])
                        for r in range(rows[f], rows[f + 1])]
                       for rows in t.bounds
                       for f in range(fine.face_count)]).encode())
    return h.hexdigest()


# The meshes of the two candidate-level pins below, each under one name.
PIN_MESHES = {
    **{f"cad{s}": (lambda s=s: shapes.cad_solid(subdivisions=2, seed=s))
       for s in range(3)},
    **{f"convex{s}": (lambda s=s: shapes.random_convex(200, seed=s))
       for s in range(3)},
}

# Recorded from the per-face scalar matchers before the array build
# replaced them. Stricter than CAD_PINS and CONVEX_PINS, which only see
# the candidates that commit: a reordered or dropped candidate that never
# commits on these meshes shows here.
STATIC_CANDIDATE_PINS = {
    "cad0": "d5a8b12ac466f211672d682e38702732a237d3f612fe1210d78f53c0fab093cf",
    "cad1": "e460b85a949827c53c3439aafbc6b2bdbdc50c9a528c5991dd95c262d91dbbf8",
    "cad2": "d3143a0cc0cefe39f00b8a644b77f9861264969247d3889430ef671db5d0e071",
    "convex0": "3a33762326007d344aa7e4b8648d55bbf27f66bc61d1a0ef60e8761da0908b82",
    "convex1": "84d0c65acb4e6e8540020a21bfb10af0252e554f294c1637440c83862d34a67b",
    "convex2": "06dcd24b29620909a3ba2088ff95a8e08362fcf133697dc2c62c0892d699d518",
}


def test_static_candidates_are_pinned():
    got = {name: static_candidates_digest(make())
           for name, make in PIN_MESHES.items()}
    assert got == STATIC_CANDIDATE_PINS


def test_vecdot_matches_scalar_norm(monkeypatch):
    """Every deviation and parent-edge length the array build reads equals
    `math.sqrt(d.dot(d))` of its 3-vector bit for bit, the expression the
    pinned streams were written with. If this fails on some BLAS, the fix
    is a per-triple `d.dot(d)` in `hierarchy._deviations`, not a changed
    stream."""
    reads = []

    def recorded(pos, v, a, b, _deviations=hierarchy._deviations):
        dev, length = _deviations(pos, v, a, b)
        reads.append((pos, v.tolist(), a.tolist(), b.tolist(),
                      dev.tolist(), length.tolist()))
        return dev, length

    monkeypatch.setattr(hierarchy, "_deviations", recorded)
    for make in PIN_MESHES.values():
        build_hierarchy(make())
    wrong, count = [], 0
    for pos, vs, as_, bs, devs, lengths in reads:
        for v, a, b, dev, length in zip(vs, as_, bs, devs, lengths):
            a, b = min(a, b), max(a, b)
            d, e = pos[v] - 0.5 * (pos[a] + pos[b]), pos[a] - pos[b]
            want = (math.sqrt(d.dot(d)), math.sqrt(e.dot(e)))
            count += 1
            if (dev, length) != want:
                wrong.append(f"({v}, {a}, {b}): {dev.hex()} {length.hex()} "
                             f"!= {want[0].hex()} {want[1].hex()}")
    assert count > 10000
    assert not wrong, f"{len(wrong)} of {count}: " + "; ".join(wrong[:5])


def reference_admissible(t, reading):
    """One pattern's readings through the odd-vertex rules as they ran
    per pattern, every split edge of every reading checked where it
    stands. Returns (face, corners, odd, fine, scale, score) of the
    readings that pass: corners and odd as (n, 3), odd -1 past the split
    edges, and fine padded with -1 to 4 columns."""
    face, corners, odd, fine, _ = reading
    n, splits = len(face), len(odd)
    corners = np.stack(corners, axis=1)
    odd = np.stack([*odd, *[np.full(n, -1)] * (3 - splits)], axis=1)
    fine = np.stack(fine, axis=1)
    v = odd[:, :splits]
    a, b = corners[:, :splits], corners[:, [1, 2, 0][:splits]]
    along = (hierarchy._isin(t.boundary, t._code(a, v))
             & hierarchy._isin(t.boundary, t._code(v, b)))
    keep = np.flatnonzero((np.where(t.on_boundary[v], along,
                                    t.valence[v] <= 6)
                           & ~hierarchy._isin(t._edges, t._code(a, b))).all(1))
    dev, length = (x.reshape(-1, splits) for x in hierarchy._deviations(
        t.mesh.vertices, v[keep].ravel(), a[keep].ravel(), b[keep].ravel()))
    if t.wgc.enabled:
        ok = ~(dev > t.wgc.gamma * length).any(axis=1)
        keep, dev, length = keep[ok], dev[ok], length[ok]
    total, worst = 0.0, np.zeros(len(keep))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = dev / length
    for j in range(splits):
        total = total + length[:, j]
        worst = np.where(length[:, j] > 0.0,
                         np.where(ratio[:, j] > worst, ratio[:, j], worst),
                         np.inf)
    fine = np.pad(fine[keep], ((0, 0), (0, 3 - splits)), constant_values=-1)
    return face[keep], corners[keep], odd[keep], fine, total / splits, worst


def test_admissible_matches_per_pattern_reference():
    """The one admissibility pass over distinct split triples keeps the
    rows the per-pattern rules keep on the same readings, in the same
    order: every column row for row, the floats by hex."""
    meshes = [make() for make in PIN_MESHES.values()] + [
        shapes.grid_patch(9, 9), shapes.bumpy_sphere(3)]
    passes = 0
    for mesh in meshes:
        for wgc in (WgcConfig(), NO_WGC, TIGHT_WGC):
            for fine_mesh in pass_meshes(mesh, wgc):
                t = _PassTables(fine_mesh, wgc)
                face, corners, odd, fine, scale, score = map(
                    np.concatenate, zip(*(reference_admissible(t, r) for r in (
                        t._quadrisects(), t._trisects(), t._bisects()))))
                pref = 3 - (odd >= 0).sum(axis=1)
                order = np.lexsort((*np.sort(fine, axis=1).T[::-1], face,
                                    pref))
                code = t._code(corners, np.roll(corners, -1, axis=1))
                assert t.corner == corners[order].T.tolist()
                assert t.mid == odd[order].T.tolist()
                assert t.fine == fine[order].T.tolist()
                assert t.code == code[order].T.tolist()
                assert [x.hex() for x in t.scale] == \
                    [x.hex() for x in scale[order].tolist()]
                assert [x.hex() for x in t.score] == \
                    [x.hex() for x in score[order].tolist()]
                nf = fine_mesh.face_count
                start = np.searchsorted(pref[order] * nf + face[order],
                                        np.arange(3 * nf + 1))
                assert t.bounds == [start[p * nf:(p + 1) * nf + 1].tolist()
                                    for p in range(3)]
                passes += len(order) > 0
    assert passes > 50


def test_split_triple_key_is_exact_near_the_vertex_ceiling():
    """The distinct-triple key stays exact at the format's 2^24 vertices:
    ids 2^16 apart, which a key (v * nv + lo) * nv + hi would fold
    together once it wraps past 2^63, stay apart."""
    nv = 1 << 24
    ids = nv - 1 - np.array([0, 1, 2, 1 << 16, (1 << 16) + 1, 1 << 20])
    v, a, b = np.random.default_rng(24).choice(ids, (3, 3000))
    code = np.minimum(a, b) * nv + np.maximum(a, b)
    pairs = list(zip(v.tolist(), code.tolist()))
    codes, which, odd, inverse = hierarchy._split_triples(v, code, nv)
    assert len(odd) == len(set(pairs)) > 100
    assert codes.tolist() == sorted({c for _, c in pairs})
    assert list(zip(odd[inverse].tolist(),
                    codes[which[inverse]].tolist())) == pairs


def test_equal_codes_share_one_object():
    """Each coarse-edge code is one int object however many rows hold it:
    split edges take the distinct triples' codes, kept edges the mesh's."""
    for mesh in (shapes.cad_solid(subdivisions=2), shapes.random_convex(200),
                 shapes.grid_patch(9, 9)):
        codes = [k for col in _PassTables(mesh).code for k in col]
        assert len({id(k) for k in codes}) <= len(set(codes))


# -- retraction --------------------------------------------------------------


def rebuilt_registry(tables, rows, nv):
    """`_PassState.edges` rebuilt from the committed rows alone: every
    coarse edge of every group, keyed by the code of its corners, carrying
    its midpoint when split (-1 when kept), counts summed."""
    table = {}
    for r in rows:
        face = tables.corners(r)
        for i, (key, mid) in enumerate(tables.entries(r)):
            assert divmod(key, nv) == edge_key(face[i], face[(i + 1) % 3])
            cur = table.setdefault(key, [mid, 0])
            assert cur[0] == mid
            cur[1] += 1
    return table


def test_retract_keeps_state_consistent(monkeypatch):
    calls = []

    def checked(st, bad, _retract=hierarchy._retract):
        before = list(st.groups)
        fresh = _retract(st, bad)
        freed = [f for f, (old, new) in enumerate(zip(st.grouped,
                                                      fresh.grouped))
                 if old >= 0 and new < 0]
        kept, t = fresh.groups, st.tables
        assert not any(v in bad for r in kept for v in t.odds(r))
        assert kept == [r for r in before
                        if not any(v in bad for v in t.odds(r))]
        nv = t.mesh.vertex_count
        assert {v: divmod(k, nv) for v, k in fresh.parent.items()} == {
            v: edge_key(t.corners(r)[i], t.corners(r)[(i + 1) % 3])
            for r in kept for i, (_, v) in enumerate(t.entries(r))
            if v >= 0}
        assert fresh.edges == rebuilt_registry(t, kept, nv)
        lost = {f for r in before for f in t.fine_ids(r)} - \
            {f for r in kept for f in t.fine_ids(r)}
        assert sorted(freed) == sorted(lost)
        for gid, r in enumerate(kept):
            assert all(fresh.grouped[f] == gid for f in t.fine_ids(r))
        calls.append(len(bad))
        return fresh

    monkeypatch.setattr(hierarchy, "_retract", checked)
    build_hierarchy(shapes.random_convex(200))
    assert calls            # the hull needs the demotion fixpoint


# -- matcher work ------------------------------------------------------------

# calls of each pattern's matcher (`first(pref, f)` from `_matcher`) during
# one build_hierarchy; before static candidates and one push per face per
# commit they were (4818, 4572, 4598) on the CAD mesh and (12319, 12555,
# 13106) on the hull, and before the per-slot cursor (1412, 1696, 1756)
# and (231, 2709, 5532)
@pytest.mark.parametrize("make, bounds", [
    (lambda: shapes.cad_solid(subdivisions=2), (886, 1034, 1029)),
    (lambda: shapes.random_convex(200), (143, 1818, 3846)),
], ids=["cad", "convex"])
def test_matcher_calls_bounded(monkeypatch, make, bounds):
    mesh = make()
    calls = Counter()

    def counting(st, _matcher=hierarchy._matcher):
        first = _matcher(st)

        def counted(pref, f):
            calls[pref] += 1
            return first(pref, f)
        return counted

    monkeypatch.setattr(hierarchy, "_matcher", counting)
    build_hierarchy(mesh)
    got = tuple(calls[pref] for pref in range(3))
    assert all(0 < n <= bound for n, bound in zip(got, bounds)), got


def admits(st, r):
    """Whether state `st` admits row r, checked from scratch: its fine
    faces are free, no corner is odd, each odd vertex is allowed, not
    even, and new or odd on the same parent edge, and each coarse edge is
    new or has the same midpoint and fewer than two groups."""
    t = st.tables
    if any(st.grouped[g] >= 0 for g in t.fine_ids(r)) or \
            any(v in st.parent for v in t.corners(r)):
        return False
    for key, v in t.entries(r):
        if v >= 0 and (v in st.forbidden or st.even[v]
                       or st.parent.get(v, key) != key):
            return False
        cur = st.edges.get(key)
        if cur is not None and (cur[0] != v or cur[1] >= 2):
            return False
    return True


def test_matcher_cursor_is_exact(monkeypatch):
    """Each `first(pref, f)` answer during build_hierarchy equals a scan
    of the whole slot from bounds[pref][f] with no cursor."""
    calls = 0

    def checked(st, _matcher=hierarchy._matcher):
        first, rows = _matcher(st), st.tables.bounds

        def scanned(pref, f):
            nonlocal calls
            want = next((r for r in range(rows[pref][f], rows[pref][f + 1])
                         if admits(st, r)), -1)
            got = first(pref, f)
            assert got == want, (pref, f, got, want)
            calls += 1
            return got
        return scanned

    monkeypatch.setattr(hierarchy, "_matcher", checked)
    cases = [(make(), None) for make in PIN_MESHES.values()] + [
        (make(), wgc) for make in (lambda: shapes.grid_patch(9, 9),
                                   lambda: shapes.bumpy_sphere(3))
        for wgc in (NO_WGC, TIGHT_WGC)]
    for mesh, wgc in cases:
        build_hierarchy(mesh, wgc)
    assert calls > 10000


def reuse_from_scratch(st, r):
    """Row r's split edges that `st` has committed with the same
    midpoint."""
    return sum(v >= 0 and st.edges.get(key, [None])[0] == v
               for key, v in st.tables.entries(r))


def test_pushes_count_reuse_on_free_faces(monkeypatch):
    """During build_hierarchy, `push` runs only on free faces: every
    `first` call and every heap entry is on one. Each heap entry's reuse
    (-key[1] in the frontier tier, 0 in the seed tier) equals a count
    from scratch of its row's reused split edges, on the state at push
    time; the row is the slot's first admitted one, by a full scan."""
    states, kinds = [], Counter()

    def checked(st, _matcher=hierarchy._matcher):
        states.append(st)
        first = _matcher(st)

        def on_free_face(pref, f):
            assert st.grouped[f] < 0, (pref, f)
            return first(pref, f)
        return on_free_face

    def counted(heap, entry, _heappush=heapq.heappush):
        st = states[-1]
        tier, term, *_, f, pref = entry
        rows = st.tables.bounds[pref]
        r = next(r for r in range(rows[f], rows[f + 1]) if admits(st, r))
        assert st.grouped[f] < 0, (pref, f)
        reuse = -term if tier == 0 else 0
        assert reuse == reuse_from_scratch(st, r), (pref, f, entry)
        kinds[tier, reuse > 0] += 1
        _heappush(heap, entry)

    monkeypatch.setattr(hierarchy, "_matcher", checked)
    monkeypatch.setattr(heapq, "heappush", counted)
    cases = [(make(), None) for make in PIN_MESHES.values()] + [
        (make(), wgc) for make in (lambda: shapes.grid_patch(9, 9),
                                   lambda: shapes.bumpy_sphere(3))
        for wgc in (NO_WGC, TIGHT_WGC)]
    for mesh, wgc in cases:
        build_hierarchy(mesh, wgc)
    # reused edges, frontier entries without reuse, and seed entries
    assert all(kinds[k] > 100 for k in [(0, True), (0, False), (1, False)]), \
        kinds


# -- the first grow's seed heap ----------------------------------------------


def test_sorted_seed_matches_pushed_seed():
    """On a fresh state every static candidate is admitted, so the sorted
    seed heap commits what pushing every face does, in the same order."""
    cases = [(make(), None) for make in PIN_MESHES.values()] + [
        (make(), wgc) for make in (lambda: shapes.grid_patch(9, 9),
                                   lambda: shapes.bumpy_sphere(3))
        for wgc in (NO_WGC, TIGHT_WGC)]
    passes = 0
    for mesh, wgc in cases:
        for fine in pass_meshes(mesh, wgc):
            tables = _PassTables(fine, wgc or WgcConfig())
            sorted_seed = _PassState(tables, set())
            hierarchy._grow(sorted_seed)
            pushed = _PassState(tables, set())
            hierarchy._grow(pushed, range(fine.face_count))
            assert sorted_seed.groups == pushed.groups
            assert sorted_seed.edges == pushed.edges
            passes += bool(pushed.groups)
    assert passes > 20


def test_first_grow_pulls_only_live_seeds(monkeypatch):
    """Every seed the first grow's merge pulls is on a free face with an
    unsettled slot: `_seeds` skips the stale ones before their keys are
    built. A pulled seed waits for its turn against the heap, so it can go
    stale before the merge takes it, but only if a group is committed in
    between. The merge resumes the generator right after taking a seed,
    before it revalidates, so the state checked there is the one the merge
    sees."""
    seeds, checks = hierarchy._seeds, []

    def checked(st):
        bounds = st.tables.bounds

        def live(f, pref):
            return (st.grouped[f] < 0
                    and st.cursor[pref][f] < bounds[pref][f + 1])

        for entry in seeds(st):
            f, pref = entry[-2], entry[-1]
            pulled, commits = live(f, pref), len(st.groups)
            yield entry
            checks.append((pulled, live(f, pref), len(st.groups) > commits))

    monkeypatch.setattr(hierarchy, "_seeds", checked)
    cases = [(make(), None) for make in PIN_MESHES.values()] + [
        (make(), wgc) for make in (lambda: shapes.grid_patch(9, 9),
                                   lambda: shapes.bumpy_sphere(3))
        for wgc in (NO_WGC, TIGHT_WGC)]
    for mesh, wgc in cases:
        for fine in pass_meshes(mesh, wgc):
            st = _PassState(_PassTables(fine, wgc or WgcConfig()), set())
            hierarchy._grow(st)
    assert all(pulled for pulled, _, _ in checks)
    assert all(taken or waited for _, taken, waited in checks)
    assert len(checks) > 100
    assert any(not taken for _, taken, _ in checks)


def test_pass_tables_hold_no_per_candidate_objects():
    """The static candidates are columns of ints and floats: building a
    pass's tables leaves about one tracked object per face (the face
    lists), not several per candidate."""
    mesh = shapes.cad_solid(subdivisions=3)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        tables = _PassTables(mesh)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(tables.scale) > 3 * mesh.face_count
    assert grown < mesh.face_count + 100, grown
