"""Indexed triangle mesh with adjacency queries and validation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["MeshError", "NonManifoldError", "TriMesh", "BBox", "bounding_box",
           "validate_manifold", "edge_key"]


class MeshError(ValueError):
    """Structurally invalid mesh data (bad indices, degenerate faces, ...)."""


class NonManifoldError(MeshError):
    """An edge with more than two incident faces."""


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (sorted) key for an undirected edge."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class BBox:
    min_corner: np.ndarray
    max_corner: np.ndarray

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.max_corner - self.min_corner))

    @property
    def extent(self) -> np.ndarray:
        return self.max_corner - self.min_corner


class TriMesh:
    """Immutable indexed triangle mesh.

    Vertices are float64 positions, faces are integer index triples.
    Adjacency tables are built lazily and cached; the mesh itself is never
    mutated after construction, so instances are safe to share across
    threads.
    """

    def __init__(self, vertices, faces, validate: bool = True):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.ascontiguousarray(faces, dtype=np.int64).reshape(-1, 3)
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)
        if validate:
            self._validate_structure()

    # -- basic properties -------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def _validate_structure(self) -> None:
        if self.face_count:
            lo = int(self.faces.min())
            hi = int(self.faces.max())
            if lo < 0 or hi >= self.vertex_count:
                raise MeshError(
                    f"face index {hi if hi >= self.vertex_count else lo} out of "
                    f"range for {self.vertex_count} vertices")
            f = self.faces
            if np.any((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])):
                raise MeshError("degenerate face (repeated vertex index)")
        for key, fids in self.edge_faces.items():
            if len(fids) > 2:
                raise NonManifoldError(
                    f"edge {key} shared by {len(fids)} faces")

    # -- adjacency --------------------------------------------------------

    @cached_property
    def edge_faces(self) -> dict[tuple[int, int], list[int]]:
        """Undirected edge -> incident face ids (ascending)."""
        table: dict[tuple[int, int], list[int]] = {}
        for fid, (a, b, c) in enumerate(self.faces):
            for u, v in ((a, b), (b, c), (c, a)):
                table.setdefault(edge_key(int(u), int(v)), []).append(fid)
        return table

    @cached_property
    def vertex_faces(self) -> list[list[int]]:
        """Vertex -> incident face ids (ascending)."""
        star: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for fid, face in enumerate(self.faces):
            for v in face:
                star[int(v)].append(fid)
        return star

    @cached_property
    def vertex_neighbors(self) -> list[list[int]]:
        """Vertex -> adjacent vertex ids (ascending, deduplicated)."""
        nbrs: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v in self.edge_faces:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return [sorted(s) for s in nbrs]

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edge_faces

    def neighbor_across(self, fid: int, u: int, v: int) -> int | None:
        """Face on the other side of edge (u, v), or None on a boundary."""
        fids = self.edge_faces.get(edge_key(u, v), ())
        for other in fids:
            if other != fid:
                return other
        return None

    def face_apex(self, fid: int, u: int, v: int) -> int:
        """The vertex of face `fid` that is neither u nor v."""
        verts = [int(x) for x in self.faces[fid]]
        if u not in verts or v not in verts:
            raise MeshError(f"face {fid} does not span edge ({u}, {v})")
        for x in verts:
            if x != u and x != v:
                return x
        raise MeshError(f"face {fid} does not span edge ({u}, {v})")

    def boundary_edges(self) -> set[tuple[int, int]]:
        return {key for key, fids in self.edge_faces.items() if len(fids) == 1}

    def with_vertices(self, vertices) -> "TriMesh":
        """Same connectivity, new geometry."""
        return TriMesh(vertices, self.faces, validate=False)


def bounding_box(mesh: TriMesh) -> BBox:
    if mesh.vertex_count == 0:
        raise MeshError("bounding box of an empty mesh")
    mn = mesh.vertices.min(axis=0)
    mx = mesh.vertices.max(axis=0)
    return BBox(mn, mx)


def validate_manifold(mesh: TriMesh) -> list[str]:
    """Report manifoldness violations; an empty list means clean.

    Boundary edges are allowed; an edge with more than two incident faces
    or a vertex whose star is not a single fan (or half-fan at a boundary)
    is a violation.
    """
    report: list[str] = []
    for key, fids in mesh.edge_faces.items():
        if len(fids) > 2:
            report.append(f"edge {key} has {len(fids)} incident faces")
    # Vertex fan check: faces around a vertex must form one connected
    # strip under shared-edge adjacency.
    for v in range(mesh.vertex_count):
        fids = mesh.vertex_faces[v]
        if len(fids) <= 1:
            continue
        adj = {fid: [] for fid in fids}
        for fid in fids:
            a, b, c = (int(x) for x in mesh.faces[fid])
            wings = [(a, b), (b, c), (c, a)]
            for u, w in wings:
                if v in (u, w):
                    other = mesh.neighbor_across(fid, u, w)
                    if other is not None and other in adj:
                        adj[fid].append(other)
        seen = {fids[0]}
        stack = [fids[0]]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(fids):
            report.append(f"vertex {v} star is not a single fan")
    return report
