import numpy as np
import pytest

from meshpress import shapes
from meshpress.mesh import (MeshError, NonManifoldError, TriMesh,
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
    with pytest.raises(NonManifoldError, match=r"edge \(0, 1\) shared by 3"):
        TriMesh(verts, faces)


def brute_force_adjacency(mesh):
    """Edge key -> its half-edges (3f + i, ascending) and vertex -> its
    faces (ascending), by scanning the faces."""
    halves, stars = {}, [[] for _ in range(mesh.vertex_count)]
    for f, face in enumerate(mesh.faces.tolist()):
        for i in range(3):
            halves.setdefault(edge_key(face[i], face[(i + 1) % 3]),
                              []).append(3 * f + i)
            stars[face[i]].append(f)
    return halves, stars


def mirrored(mesh, seed=7):
    """`mesh` with about half of its faces reversed."""
    faces = mesh.faces.copy()
    flip = np.random.default_rng(seed).random(len(faces)) < 0.5
    faces[flip] = faces[flip][:, ::-1]
    return TriMesh(mesh.vertices, faces)


def test_corner_table_matches_brute_force(corpus):
    meshes = {**corpus, "open": shapes.grid_patch(5, 3),
              "mirrored": mirrored(shapes.icosphere(1)),
              "faceless": TriMesh(np.ones((4, 3)), np.empty((0, 3), dtype=int))}
    for name, m in meshes.items():
        halves, stars = brute_force_adjacency(m)
        assert m.edges.tolist() == sorted(map(list, halves)), name
        row = [0] * (3 * m.face_count)
        for e, key in enumerate(sorted(halves)):
            for h in halves[key]:
                row[h] = e
        assert m.edge_of.tolist() == row, name
        want = [-1] * (3 * m.face_count)
        for pair in halves.values():
            if len(pair) == 2:
                want[pair[0]], want[pair[1]] = pair[1], pair[0]
        assert m.opposite.tolist() == want, name
        rim = [key for key, run in halves.items() if len(run) == 1]
        assert int((m.opposite < 0).sum()) == len(rim), name
        assert m.vertex_faces == stars, name
        assert all(u < v for u, v in m.edges.tolist()), name
    assert meshes["faceless"].edges.shape == (0, 2)
    assert meshes["faceless"].edge_of.shape == (0,)
    assert (meshes["open"].opposite < 0).any()
    assert (meshes["icosphere"].opposite >= 0).all()


def test_adjacency_tables_agree_with_faces():
    m = shapes.icosphere(1)
    # rebuild edge -> faces and vertex -> faces by brute force and compare
    edges = {}
    stars = [[] for _ in range(m.vertex_count)]
    for fid, (a, b, c) in enumerate(m.faces.tolist()):
        for u, v in ((a, b), (b, c), (c, a)):
            edges.setdefault(edge_key(u, v), []).append(fid)
        for v in (a, b, c):
            stars[v].append(fid)
    assert m.edges.tolist() == sorted(map(list, edges))
    across = {}
    for h, o in enumerate(m.opposite.tolist()):
        a, b = m.faces.ravel()[[h, h - h % 3 + (h + 1) % 3]].tolist()
        across.setdefault(edge_key(a, b), []).append(h // 3)
        assert o >= 0 and m.opposite[o] == h
    assert {k: sorted(v) for k, v in across.items()} == edges
    assert m.vertex_faces == stars
    for v in range(m.vertex_count):
        nbrs = sorted(int(u) for e in m.edges for u in e if v in e and u != v)
        assert nbrs == sorted({u for e in edges for u in e if v in e} - {v})


def test_neighbor_across_and_apex():
    m = shapes.tetrahedron()
    corners = m.faces.ravel()
    a, b, c = corners[:3].tolist()          # half-edge 0 runs a -> b, apex c
    o = int(m.opposite[0])
    assert o >= 0 and o // 3 != 0
    assert sorted(corners[[o, o - o % 3 + (o + 1) % 3]].tolist()) == sorted([a, b])
    other_apex = int(corners[o - o % 3 + (o + 2) % 3])
    assert other_apex not in (a, b, c)
    assert [98, 99] not in m.edges.tolist()


def test_boundary_edges_on_open_patch():
    m = shapes.grid_patch(3, 3)
    rim = np.flatnonzero(m.opposite < 0)
    assert rim.size  # an open patch has a rim
    counts = {}
    for face in m.faces.tolist():
        for i in range(3):
            key = edge_key(face[i], face[(i + 1) % 3])
            counts[key] = counts.get(key, 0) + 1
    keys = {edge_key(*m.faces.ravel()[[h, h - h % 3 + (h + 1) % 3]].tolist())
            for h in rim.tolist()}
    assert len(keys) == rim.size
    assert keys == {k for k, n in counts.items() if n == 1}
    closed = shapes.icosahedron()
    assert (closed.opposite >= 0).all()


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


def test_validate_manifold_flags_pinched_tetrahedra():
    # two closed tetrahedra sharing vertex 0: no boundary edge anywhere,
    # but the star of vertex 0 is two closed fans
    tet = shapes.tetrahedron()
    verts = np.vstack([tet.vertices, tet.vertices[1:] + 3.0])
    second = np.where(tet.faces == 0, 0, tet.faces + 3)
    mesh = TriMesh(verts, np.vstack([tet.faces, second]))
    assert (mesh.opposite >= 0).all()
    assert validate_manifold(mesh) == ["vertex 0 star is not a single fan"]


def fan_oracle(mesh):
    """Vertices whose faces are not connected across the edges at them."""
    halves, stars = brute_force_adjacency(mesh)
    bad = []
    for v, star in enumerate(stars):
        seen, todo = set(star[:1]), star[:1]
        while todo:
            for u in mesh.faces[todo.pop()].tolist():
                for h in halves[edge_key(u, v)] if u != v else ():
                    if h // 3 not in seen:
                        seen.add(h // 3)
                        todo.append(h // 3)
        if len(seen) != len(star):
            bad.append(v)
    return bad


def test_validate_manifold_matches_fan_oracle():
    bowtie = TriMesh([[0, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0], [-1, -1, 0]],
                     [[0, 1, 2], [0, 3, 4]])
    # two open patches glued at a rim vertex (two half-fans) and at an
    # interior vertex (two closed fans)
    grid = shapes.grid_patch(5, 5)
    other = grid.faces + 25
    other[other == 25] = 4
    other[other == 37] = 12
    glued = TriMesh(np.vstack([grid.vertices, grid.vertices + 2.0]),
                    np.vstack([grid.faces, other]))
    for mesh in (bowtie, grid, glued, mirrored(shapes.icosphere(1)),
                 mirrored(shapes.subdivide_midpoint(shapes.grid_patch(4, 4)))):
        want = [f"vertex {v} star is not a single fan" for v in fan_oracle(mesh)]
        assert validate_manifold(mesh) == want
    assert validate_manifold(bowtie) == ["vertex 0 star is not a single fan"]
    assert validate_manifold(glued) == [f"vertex {v} star is not a single fan"
                                        for v in (4, 12)]


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
