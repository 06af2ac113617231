import numpy as np
import pytest

from meshpress import shapes
from meshpress.mesh import (BBox, MeshError, NonManifoldError, TriMesh,
                            bounding_box, edge_key, validate_manifold)


def test_edge_key_sorts():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(1, 3) == (1, 3)


def test_single_triangle_counts():
    m = shapes.triangle()
    assert m.vertex_count == 3
    assert m.face_count == 1


def test_face_index_out_of_range_rejected():
    with pytest.raises(MeshError):
        TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 99]])
    with pytest.raises(MeshError):
        TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, -1]])


def test_degenerate_face_rejected():
    with pytest.raises(MeshError):
        TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 1]])


def test_non_manifold_edge_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    faces = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]  # edge (0,1) in three faces
    with pytest.raises(NonManifoldError):
        TriMesh(verts, faces)


def test_adjacency_tables_agree_with_faces():
    m = shapes.icosphere(1)
    # rebuild edge->faces and vertex->faces by brute force and compare
    edges = {}
    stars = [[] for _ in range(m.vertex_count)]
    for fid, (a, b, c) in enumerate(m.faces):
        for u, v in ((a, b), (b, c), (c, a)):
            edges.setdefault(edge_key(int(u), int(v)), []).append(fid)
        for v in (a, b, c):
            stars[int(v)].append(fid)
    assert m.edge_faces == edges
    assert m.vertex_faces == stars
    for v, nbrs in enumerate(m.vertex_neighbors):
        expected = sorted({u for e in edges for u in e if v in e} - {v})
        assert nbrs == expected


def test_neighbor_across_and_apex():
    m = shapes.tetrahedron()
    a, b, c = (int(x) for x in m.faces[0])
    other = m.neighbor_across(0, a, b)
    assert other is not None and other != 0
    apex = m.face_apex(0, a, b)
    assert apex == c
    with pytest.raises(MeshError):
        m.face_apex(0, 99, 98)


def test_boundary_edges_on_open_patch():
    m = shapes.grid_patch(3, 3)
    boundary = m.boundary_edges()
    assert boundary  # an open patch has a rim
    for key in boundary:
        assert len(m.edge_faces[key]) == 1
    closed = shapes.icosahedron()
    assert closed.boundary_edges() == set()


def test_bbox_unit_cube_diagonal():
    corners = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    box = bounding_box(TriMesh(corners, np.empty((0, 3), dtype=np.int64)))
    assert box.diagonal == pytest.approx(np.sqrt(3))


def test_bbox_single_vertex():
    box = bounding_box(TriMesh([[2, 3, 4]], np.empty((0, 3), dtype=np.int64)))
    assert np.array_equal(box.min_corner, box.max_corner)
    assert box.diagonal == 0.0


def test_bbox_matches_scan_oracle_and_permutation_invariant():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(100, 3))
    empty = np.empty((0, 3), dtype=np.int64)
    box = bounding_box(TriMesh(pts, empty))
    mn = np.array([min(p[i] for p in pts) for i in range(3)])
    mx = np.array([max(p[i] for p in pts) for i in range(3)])
    assert np.array_equal(box.min_corner, mn)
    assert np.array_equal(box.max_corner, mx)
    shuffled = bounding_box(TriMesh(pts[rng.permutation(100)], empty))
    assert np.array_equal(shuffled.min_corner, box.min_corner)
    assert np.array_equal(shuffled.max_corner, box.max_corner)


def test_bbox_empty_mesh_rejected():
    with pytest.raises(MeshError):
        bounding_box(TriMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64)))


def test_validate_manifold_clean_meshes():
    assert validate_manifold(shapes.icosphere(1)) == []
    assert validate_manifold(shapes.grid_patch(4, 4)) == []


def test_validate_manifold_flags_bowtie_vertex():
    # two triangles sharing only vertex 0: the star is two disconnected fans
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0], [-1, -1, 0]]
    faces = [[0, 1, 2], [0, 3, 4]]
    report = validate_manifold(TriMesh(verts, faces))
    assert any("vertex 0" in line for line in report)


def test_vertices_are_immutable():
    m = shapes.triangle()
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.faces[0, 0] = 2


def test_with_vertices_keeps_connectivity():
    m = shapes.tetrahedron()
    moved = m.with_vertices(m.vertices * 2.0)
    assert np.array_equal(moved.faces, m.faces)
    assert np.allclose(moved.vertices, m.vertices * 2.0)
