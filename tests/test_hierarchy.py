import numpy as np
import pytest

from meshpress import shapes
from meshpress.hierarchy import (Pattern, WgcConfig, _PassTables,
                                 build_hierarchy, resubdivide, simplify_once)
from meshpress.mesh import TriMesh, edge_key


def canonical_faces(faces):
    """Face set with orientation-preserving canonical rotation per face."""
    out = set()
    for face in faces:
        a, b, c = (int(v) for v in face)
        out.add(min((a, b, c), (b, c, a), (c, a, b)))
    return out


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
    groups = [g for g in record.face_groups]
    assert [g.pattern for g in groups] == [Pattern.QUADRISECT]
    assert len(record.odd_vertices) == 3
    assert_consistent(record)


def test_subdivided_icosahedron_inverts_fully():
    fine = shapes.icosphere(1)          # 42 vertices
    record = simplify_once(fine)
    assert record.coarse_mesh.vertex_count == 12
    assert all(g.pattern is Pattern.QUADRISECT for g in record.face_groups)
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
    patterns = sorted(g.pattern for g in record.face_groups)
    assert patterns == [Pattern.BISECT, Pattern.BISECT]
    assert record.coarse_mesh.vertex_count == 4
    assert_consistent(record)


def test_trisect_inverts():
    # split two edges of one triangle; its neighbors bisect
    base = shapes.subdivide_midpoint(shapes.triangle())
    split = [(0, 3), (3, 4)]            # two edges of the center face
    fine = shapes.subdivide_midpoint(base, edges=split)
    record = simplify_once(fine)
    assert record is not None
    assert Pattern.TRISECT in [g.pattern for g in record.face_groups]
    assert_consistent(record)


def test_mixed_subdivision_of_patch_inverts():
    base = shapes.grid_patch(3, 3)
    keys = sorted(base.edge_faces)
    fine = shapes.subdivide_midpoint(base, edges=keys[::2])
    record = simplify_once(fine)
    assert record is not None
    assert_consistent(record)


# -- whole-corpus structural properties -------------------------------------


def test_resubdivide_consistency_everywhere(hierarchies):
    for name, records in hierarchies.items():
        for record in records:
            assert_consistent(record)


def test_even_odd_partition(hierarchies):
    for records in hierarchies.values():
        for record in records:
            even = set(int(v) for v in record.even_vertices)
            odd = set(int(v) for v in record.odd_vertices)
            assert even | odd == set(range(record.fine_mesh.vertex_count))
            assert not (even & odd)
            assert odd == set(record.parent_edge)


def test_parents_joined_by_coarse_edge(hierarchies):
    for records in hierarchies.values():
        for record in records:
            for odd, (a, b) in record.parent_edge.items():
                ca = record.fine_to_coarse[a]
                cb = record.fine_to_coarse[b]
                assert record.coarse_mesh.has_edge(ca, cb)


def test_monotone_decimation(hierarchies):
    for records in hierarchies.values():
        for record in records:
            assert record.coarse_mesh.vertex_count < record.fine_mesh.vertex_count


def test_group_cardinality_matches_pattern(hierarchies):
    expected = {Pattern.UNCHANGED: 1, Pattern.BISECT: 2,
                Pattern.TRISECT: 3, Pattern.QUADRISECT: 4}
    for records in hierarchies.values():
        for record in records:
            seen = []
            for g in record.face_groups:
                assert len(g.fine_face_ids) == expected[g.pattern]
                assert len(g.split_edges) == expected[g.pattern] - 1
                seen.extend(g.fine_face_ids)
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


def test_boundary_vertex_collapses_only_along_boundary(hierarchies):
    for name, records in hierarchies.items():
        for record in records:
            boundary = record.fine_mesh.boundary_edges()
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
            assert np.array_equal(a.even_vertices, b.even_vertices)
            assert a.parent_edge == b.parent_edge
            assert [(g.pattern, g.coarse_face, g.fine_face_ids, g.diag_bit)
                    for g in a.face_groups] == \
                   [(g.pattern, g.coarse_face, g.fine_face_ids, g.diag_bit)
                    for g in b.face_groups]


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
        boundary = mesh.boundary_edges()
        assert tables.faces == mesh.faces.tolist(), name
        for f, face in enumerate(tables.faces):
            for i in range(3):
                u, v = face[i], face[(i + 1) % 3]
                other = mesh.neighbor_across(f, u, v)
                assert tables.opp[3 * f + i] == other, (name, f, i)
                if edge_key(u, v) in boundary:
                    assert other is None
                    assert tables.apex[3 * f + i] is None, (name, f, i)
                else:
                    assert tables.apex[3 * f + i] == mesh.face_apex(other, u, v)
        expected = {v for e in boundary for v in e}
        assert tables.boundary_vertices == expected, name
        assert tables.valence == [len(n) for n in mesh.vertex_neighbors]
    assert _PassTables(corpus["grid"]).boundary_vertices   # open patch
