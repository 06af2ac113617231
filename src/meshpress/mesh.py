"""Indexed triangle mesh with adjacency queries and validation.

Adjacency is a corner table as in Rossignac et al. (SMI 2001). Corner
3f + i is vertex faces[f][i]; half-edge 3f + i, local edge i of face f,
runs from it to corner 3f + (i + 1) % 3. One sort of the half-edges by
undirected key numbers the edges: `edges` lists them ascending and
`edge_of` gives each half-edge's row there. `opposite`, the half-edge
across, is derived from `edge_of` on first use.
"""

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
    The edge table is built by validation, or lazily without it, and
    cached; the mesh itself is never mutated after construction, so
    instances are safe to share across threads.
    """

    def __init__(self, vertices, faces, validate: bool = True):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64).reshape(-1, 3)
        try:
            self.faces = np.ascontiguousarray(faces, dtype=np.int64).reshape(-1, 3)
        except OverflowError:
            raise MeshError("face index outside the int64 range") from None
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
        self._edge_table        # raises NonManifoldError

    # -- adjacency --------------------------------------------------------

    @cached_property
    def _edge_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(edges, edge_of) from one sort of the half-edges' keys lo * n + hi,
        with n above every index. A boundary edge has one half-edge, an
        interior edge two, and more raise NonManifoldError."""
        start = self.faces.ravel()
        end = self.faces.take([1, 2, 0], axis=1).ravel()
        n = int(self.faces.max(initial=0)) + 1
        codes, edge_of = np.unique(
            np.minimum(start, end) * n + np.maximum(start, end),
            return_inverse=True)
        runs = np.bincount(edge_of)
        if runs.max(initial=0) > 2:
            k = np.argmax(runs > 2)             # the smallest such key
            raise NonManifoldError(
                f"edge {(int(codes[k] // n), int(codes[k] % n))} shared by "
                f"{runs[k]} faces")
        return np.stack(np.divmod(codes, n), axis=1), edge_of

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) undirected edge keys, ascending."""
        return self._edge_table[0]

    @property
    def edge_of(self) -> np.ndarray:
        """(3F,) the row in `edges` of each half-edge."""
        return self._edge_table[1]

    @cached_property
    def opposite(self) -> np.ndarray:
        """(3F,) the half-edge paired with each half-edge, -1 on a boundary."""
        order = np.argsort(self.edge_of, kind="stable")
        pair = np.flatnonzero(np.diff(self.edge_of[order]) == 0)
        opposite = np.full(len(order), -1, dtype=np.int64)
        opposite[order[pair]] = order[pair + 1]
        opposite[order[pair + 1]] = order[pair]
        return opposite

    @cached_property
    def vertex_faces(self) -> list[list[int]]:
        """Vertex -> incident face ids (ascending)."""
        corners = self.faces.ravel()
        fids = (np.argsort(corners, kind="stable") // 3).tolist()
        ends = np.bincount(corners, minlength=self.vertex_count).cumsum().tolist()
        return [fids[a:b] for a, b in zip([0] + ends, ends)]

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

    Boundary edges are allowed; a vertex whose star is not a single fan
    (or half-fan at a boundary) is a violation, and an edge with more than
    two incident faces raises NonManifoldError. Each corner is linked to
    the corner at the same vertex across both of its face's edges there;
    min-label propagation finds the components, and a vertex is clean when
    its corners form one.
    """
    vertex = mesh.faces.ravel()
    corner = np.arange(len(vertex))
    # the half-edges out of and into each corner, and across them
    o = mesh.opposite[np.stack([corner, corner - corner % 3 + (corner + 2) % 3])]
    # a neighbour wound against this face runs the shared edge the same way
    link = np.where(o < 0, corner,
                    np.where(vertex[o] == vertex, o, o - o % 3 + (o + 1) % 3))
    label, prev = corner, None
    while not np.array_equal(label, prev):
        low = np.minimum(label, label[link].min(axis=0))
        prev, label = label, low[low]
    fans = np.bincount(vertex[label == corner], minlength=mesh.vertex_count)
    return [f"vertex {v} star is not a single fan"
            for v in np.flatnonzero(fans > 1).tolist()]
