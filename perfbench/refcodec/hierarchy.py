"""Multiresolution hierarchy by inverting irregular subdivision.

Each simplification level recognizes groups of 1-4 fine faces as the image
of one coarse face under midpoint subdivision (quadrisect / trisect /
bisect / unchanged) and merges them. The master invariant is subdivision
consistency: re-subdividing the coarse mesh according to the recorded
groups reproduces the fine connectivity exactly.

The grouping strategy is greedy over faces in ascending index order with
an edge registry that keeps the per-coarse-edge split decision globally
consistent, followed by a demotion fixpoint: any vertex whose star cannot
be covered by consistent groups is forced even and the pass is rerun.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .mesh import TriMesh, edge_key

__all__ = ["Pattern", "WgcConfig", "FaceGroup", "LevelRecord",
           "simplify_once", "build_hierarchy", "resubdivide",
           "subdivide_connectivity"]

_UNKNOWN, _EVEN, _ODD = 0, 1, 2

class Pattern(IntEnum):
    UNCHANGED = 0
    BISECT = 1
    TRISECT = 2
    QUADRISECT = 3


@dataclass(frozen=True)
class WgcConfig:
    """Wavelet geometric criterion: admit a vertex as odd only when its
    offset from the parent-edge midpoint stays below gamma times the
    parent edge length."""
    enabled: bool = True
    gamma: float = 0.25

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class FaceGroup:
    pattern: Pattern
    coarse_face: tuple[int, int, int]          # even corners, fine indexing
    fine_face_ids: tuple[int, ...]
    split_edges: dict[int, tuple[int, int]]    # odd vertex -> (corner a, corner b)
    diag_bit: int = 0                          # trisect diagonal selector


@dataclass
class LevelRecord:
    level_index: int
    fine_mesh: TriMesh
    even_vertices: np.ndarray                  # sorted fine indices
    odd_vertices: np.ndarray
    parent_edge: dict[int, tuple[int, int]]
    face_groups: list[FaceGroup]
    coarse_mesh: TriMesh
    coarse_to_fine: np.ndarray
    fine_to_coarse: dict[int, int] = field(default_factory=dict)


class _Registry:
    """Split/unsplit bookkeeping per prospective coarse edge."""

    SPLIT, UNSPLIT = "s", "u"

    def __init__(self):
        self._table: dict[tuple[int, int], list] = {}

    def compatible(self, entries) -> bool:
        for key, kind, mid in entries:
            cur = self._table.get(key)
            if cur is None:
                continue
            if cur[0] != kind or (kind == self.SPLIT and cur[1] != mid):
                return False
            if cur[2] >= 2:
                return False
        return True

    def commit(self, entries) -> None:
        for key, kind, mid in entries:
            cur = self._table.get(key)
            if cur is None:
                self._table[key] = [kind, mid, 1]
            else:
                cur[2] += 1

    def split_midpoint(self, key):
        cur = self._table.get(key)
        return cur[1] if cur is not None and cur[0] == self.SPLIT else None

    def reuse_count(self, entries) -> int:
        """Number of entries that re-use an already-registered split edge
        (same edge, same midpoint). Such a candidate is the forced
        continuation of the committed tiling across that edge; unsplit
        matches carry no such information and are not counted."""
        n = 0
        for key, kind, mid in entries:
            cur = self._table.get(key)
            if (kind == self.SPLIT and cur is not None
                    and cur[0] == self.SPLIT and cur[1] == mid):
                n += 1
        return n


class _PassState:
    def __init__(self, mesh: TriMesh, wgc: WgcConfig, forbidden: set[int]):
        self.mesh = mesh
        self.wgc = wgc
        self.forbidden = forbidden
        self.mark = np.zeros(mesh.vertex_count, dtype=np.int8)
        self.parent: dict[int, tuple[int, int]] = {}
        self.grouped = np.full(mesh.face_count, -1, dtype=np.int64)
        self.groups: list[FaceGroup] = []
        self.registry = _Registry()
        self.boundary = mesh.boundary_edges()
        self.boundary_vertices = {v for e in self.boundary for v in e}

    # -- admissibility -----------------------------------------------------

    def can_be_even(self, v: int) -> bool:
        return self.mark[v] != _ODD

    def can_be_odd(self, v: int, a: int, b: int) -> bool:
        if v in self.forbidden or self.mark[v] == _EVEN:
            return False
        # an interior midpoint vertex has at most 6 star faces (<= 3 per
        # side of its parent edge), so higher valence rules odd out
        if (v not in self.boundary_vertices
                and len(self.mesh.vertex_neighbors[v]) > 6):
            return False
        if self.mark[v] == _ODD and self.parent[v] != edge_key(a, b):
            return False
        if v in self.boundary_vertices:
            # a boundary vertex may only collapse along the boundary
            if (edge_key(a, v) not in self.boundary
                    or edge_key(v, b) not in self.boundary):
                return False
        if self.wgc.enabled:
            pos = self.mesh.vertices
            mid = 0.5 * (pos[a] + pos[b])
            if (np.linalg.norm(pos[v] - mid)
                    > self.wgc.gamma * np.linalg.norm(pos[a] - pos[b])):
                return False
        return True

    def split_entry(self, a: int, b: int, mid: int):
        # a split coarse edge must not also exist as a fine edge
        if self.mesh.has_edge(a, b):
            return None
        return (edge_key(a, b), _Registry.SPLIT, mid)

    # -- commit ------------------------------------------------------------

    def commit(self, group: FaceGroup, entries) -> None:
        self.registry.commit(entries)
        gid = len(self.groups)
        self.groups.append(group)
        for fid in group.fine_face_ids:
            self.grouped[fid] = gid
        for corner in group.coarse_face:
            self.mark[corner] = _EVEN
        for odd, (a, b) in group.split_edges.items():
            self.mark[odd] = _ODD
            self.parent[odd] = edge_key(a, b)


def _distinct(*vals) -> bool:
    return len(set(vals)) == len(vals)


def _try_quadrisect(st: _PassState, f: int):
    mesh = st.mesh
    m1, m2, m3 = (int(x) for x in mesh.faces[f])
    n12 = mesh.neighbor_across(f, m1, m2)
    n23 = mesh.neighbor_across(f, m2, m3)
    n31 = mesh.neighbor_across(f, m3, m1)
    if n12 is None or n23 is None or n31 is None:
        return None
    if not _distinct(f, n12, n23, n31):
        return None
    if any(st.grouped[n] >= 0 for n in (n12, n23, n31)):
        return None
    a = mesh.face_apex(n31, m3, m1)
    b = mesh.face_apex(n12, m1, m2)
    c = mesh.face_apex(n23, m2, m3)
    if not _distinct(a, b, c, m1, m2, m3):
        return None
    if not (st.can_be_even(a) and st.can_be_even(b) and st.can_be_even(c)):
        return None
    if not (st.can_be_odd(m1, a, b) and st.can_be_odd(m2, b, c)
            and st.can_be_odd(m3, c, a)):
        return None
    entries = [st.split_entry(a, b, m1), st.split_entry(b, c, m2),
               st.split_entry(c, a, m3)]
    if None in entries or not st.registry.compatible(entries):
        return None
    group = FaceGroup(Pattern.QUADRISECT, (a, b, c), (n31, n12, n23, f),
                      {m1: (a, b), m2: (b, c), m3: (c, a)})
    return group, entries, (n12, n23, n31)


def _try_trisect(st: _PassState, f: int):
    """Match `f` as the middle face of a trisected coarse triangle."""
    mesh = st.mesh
    verts = [int(x) for x in mesh.faces[f]]
    candidates = []
    for rot in range(3):
        ma, b, mb = verts[rot], verts[(rot + 1) % 3], verts[(rot + 2) % 3]
        n3 = mesh.neighbor_across(f, mb, ma)
        if n3 is None or st.grouped[n3] >= 0 or n3 == f:
            continue
        y = mesh.face_apex(n3, ma, mb)
        for diag_bit, (hinge_u, hinge_v) in enumerate(((ma, y), (mb, y))):
            # bit 0: n3 = (ma, mb, C), diagonal from ma; bit 1: n3 = (A, ma, mb)
            n1 = mesh.neighbor_across(n3, hinge_u, hinge_v)
            if n1 is None or n1 == f or st.grouped[n1] >= 0:
                continue
            z = mesh.face_apex(n1, hinge_u, hinge_v)
            if diag_bit == 0:
                A, B, C = z, b, y
                fine_ids = (n1, f, n3)
            else:
                A, B, C = y, b, z
                fine_ids = (n3, f, n1)
            if not _distinct(A, B, C, ma, mb):
                continue
            if not all(st.can_be_even(v) for v in (A, B, C)):
                continue
            if not (st.can_be_odd(ma, A, B) and st.can_be_odd(mb, B, C)):
                continue
            if not mesh.has_edge(C, A):
                continue
            entries = [st.split_entry(A, B, ma), st.split_entry(B, C, mb),
                       (edge_key(C, A), _Registry.UNSPLIT, None)]
            if None in entries or not st.registry.compatible(entries):
                continue
            group = FaceGroup(Pattern.TRISECT, (A, B, C), fine_ids,
                              {ma: (A, B), mb: (B, C)}, diag_bit)
            candidates.append(((min(n1, n3), max(n1, n3)), group, entries,
                               (n1, n3)))
    if not candidates:
        return None
    candidates.sort(key=lambda t: t[0])
    _, group, entries, others = candidates[0]
    return group, entries, others


def _try_bisect(st: _PassState, f: int):
    mesh = st.mesh
    verts = [int(x) for x in mesh.faces[f]]
    candidates = []
    for rot in range(3):
        a, m, c = verts[rot], verts[(rot + 1) % 3], verts[(rot + 2) % 3]
        n = mesh.neighbor_across(f, m, c)
        if n is None or st.grouped[n] >= 0:
            continue
        b = mesh.face_apex(n, m, c)
        if not _distinct(a, b, c, m):
            continue
        if not all(st.can_be_even(v) for v in (a, b, c)):
            continue
        if not st.can_be_odd(m, a, b):
            continue
        entry = st.split_entry(a, b, m)
        if entry is None:
            continue
        entries = [entry,
                   (edge_key(b, c), _Registry.UNSPLIT, None),
                   (edge_key(c, a), _Registry.UNSPLIT, None)]
        if not st.registry.compatible(entries):
            continue
        group = FaceGroup(Pattern.BISECT, (a, b, c), (f, n), {m: (a, b)})
        candidates.append((n, group, entries, (n,)))
    if not candidates:
        return None
    candidates.sort(key=lambda t: t[0])
    _, group, entries, others = candidates[0]
    return group, entries, others


def _group_score(mesh: TriMesh, group: FaceGroup) -> float:
    """Worst midpoint deviation of the group's odd vertices, relative to
    the parent edge length. True subdivision structure scores low."""
    pos = mesh.vertices
    worst = 0.0
    for odd, (a, b) in group.split_edges.items():
        edge = float(np.linalg.norm(pos[a] - pos[b]))
        if edge <= 0.0:
            return np.inf
        mid = 0.5 * (pos[a] + pos[b])
        worst = max(worst, float(np.linalg.norm(pos[odd] - mid)) / edge)
    return worst


def _grow(st: _PassState, seed_faces) -> None:
    """Best-first region growing, one pattern at a time.

    In regular regions several incompatible groupings are locally valid
    (coset ambiguity of the refinement lattice), so the search commits
    low-deviation candidates first and gives strict priority to candidates
    that touch already-committed groups: each committed group's marks then
    force its neighborhood into the same consistent tiling, and conflicts
    can only arise along seams between independently seeded regions.
    """
    mesh = st.mesh
    valence = np.array([len(n) for n in mesh.vertex_neighbors])

    def seed_rank(group: FaceGroup) -> int:
        # Irregular interior vertices must survive every valid tiling, so
        # a candidate keeping one as an even corner is almost certainly in
        # the globally consistent coset: prefer such candidates as seeds.
        anchored = any(valence[v] != 6 and v not in st.boundary_vertices
                       for v in group.coarse_face)
        return 0 if anchored else 1

    def scale_of(group: FaceGroup) -> float:
        # parent-edge length is comparable across patterns (a coarse-face
        # perimeter would make bisects look finer than quadrisects)
        total = 0.0
        for a, b in group.split_edges.values():
            total += float(np.linalg.norm(mesh.vertices[a]
                                          - mesh.vertices[b]))
        return total / len(group.split_edges)

    attempts = (_try_quadrisect, _try_trisect, _try_bisect)
    seq = 0
    heap: list[tuple] = []

    def push(f: int, tier: int, ref_scale: float | None = None) -> None:
        nonlocal seq
        if st.grouped[f] >= 0:
            return
        for pref, attempt in enumerate(attempts):
            hit = attempt(st, f)
            if hit is None:
                continue
            group, entries, _ = hit
            reuse = st.registry.reuse_count(entries)
            scale = scale_of(group)
            # a candidate re-using a committed split edge is the forced
            # continuation of that region: frontier tier, ordered by how
            # strongly it is forced. Without reuse, a coarser candidate
            # next to a committed group is not a continuation but the next
            # subdivision level showing through; it waits as a seed.
            eff_tier = tier
            if reuse > 0:
                eff_tier = 0
            elif tier == 0 and ref_scale is not None \
                    and scale > 1.5 * ref_scale:
                eff_tier = 1
            score = _group_score(mesh, group)
            # fuller patterns beat a marginally better-scoring partial
            # match (almost always a spurious reading of a regular region)
            if eff_tier == 0:
                key = (0, -reuse, float(pref), 0.0, score)
            else:
                # between seeds of the same pattern, finer-scale
                # candidates go first so that on meshes refined at mixed
                # scales the finest structure claims its faces before any
                # coarser grouping can
                key = (1, seed_rank(group), float(pref), scale, score)
            heapq.heappush(heap, (*key, seq, f, pref))
            seq += 1

    for f in seed_faces:
        push(f, 1)
    while heap:
        *_, f, pref = heapq.heappop(heap)
        if st.grouped[f] >= 0:
            continue
        hit = attempts[pref](st, f)  # revalidate against the current state
        if hit is None:
            continue
        group, entries, _ = hit
        st.commit(group, entries)
        ref = scale_of(group)
        for v in (*group.coarse_face, *group.split_edges):
            for nf in mesh.vertex_faces[v]:
                push(nf, 0, ref)


def _finalize_violations(st: _PassState) -> set[int]:
    """Vertices that must be demoted for ungrouped faces to become
    UNCHANGED coarse faces."""
    bad: set[int] = set()
    for f in range(st.mesh.face_count):
        if st.grouped[f] >= 0:
            continue
        for v in st.mesh.faces[f]:
            if st.mark[v] == _ODD:
                bad.add(int(v))
    return bad


def _retract(st: _PassState, bad: set[int]) -> tuple[_PassState, list[int]]:
    """Drop every group that marks a vertex in `bad` odd; rebuild marks and
    registry from the survivors. Returns the new state and the freed faces."""
    survivors = [g for g in st.groups
                 if not any(v in bad for v in g.split_edges)]
    fresh = _PassState(st.mesh, st.wgc, st.forbidden)
    for g in survivors:
        entries = []
        for odd, (a, b) in g.split_edges.items():
            entries.append((edge_key(a, b), _Registry.SPLIT, odd))
        face = g.coarse_face
        mids = {edge_key(a, b) for (a, b) in g.split_edges.values()}
        for i in range(3):
            key = edge_key(face[i], face[(i + 1) % 3])
            if key not in mids:
                entries.append((key, _Registry.UNSPLIT, None))
        fresh.commit(g, entries)
    freed = [f for f in range(st.mesh.face_count)
             if st.grouped[f] >= 0 and fresh.grouped[f] < 0]
    return fresh, freed


def _dissolve_conflicts(st: _PassState) -> None:
    """Make the tiling consistent by giving up on conflicted structure.

    A face left ungrouped keeps all three of its vertices, so any group
    that wanted one of them removed is dissolved; its faces join the
    stranded set and the check propagates. Each group dissolves at most
    once, so this terminates. It is the last resort after local repair
    stalls: on meshes refined at mixed scales a grouping of the coarser
    scale can never coexist with the finer one, and this cascade removes
    exactly that doomed region while stopping at the frontier of the
    consistently tiled finer part (whose removed vertices no stranded
    face uses).
    """
    odd_groups: dict[int, list[int]] = {}
    for gid, g in enumerate(st.groups):
        for v in g.split_edges:        # a shared split edge puts its
            odd_groups.setdefault(v, []).append(gid)    # odd in 2 groups
    removed: set[int] = set()
    queue = [f for f in range(st.mesh.face_count) if st.grouped[f] < 0]
    while queue:
        f = queue.pop()
        for v in st.mesh.faces[f]:
            for gid in odd_groups.get(int(v), ()):
                if gid in removed:
                    continue
                removed.add(gid)
                group = st.groups[gid]
                for odd in group.split_edges:
                    if all(g in removed for g in odd_groups[odd]):
                        st.mark[odd] = _UNKNOWN
                        st.parent.pop(odd, None)
                for fid in group.fine_face_ids:
                    st.grouped[fid] = -1
                    queue.append(fid)
    if removed:
        survivors = [g for gid, g in enumerate(st.groups)
                     if gid not in removed]
        st.groups = survivors
        st.grouped.fill(-1)
        for gid, g in enumerate(survivors):
            for fid in g.fine_face_ids:
                st.grouped[fid] = gid


def simplify_once(mesh: TriMesh, wgc: WgcConfig | None = None) -> LevelRecord | None:
    """One inverse-subdivision step; None when nothing can be removed.

    Conflicts between independently grown regions are repaired locally
    while that makes progress: the vertices that stranded faces need to
    keep are forced even, only the groups contradicting that are
    retracted, and the freed area is regrown. Conflicts that local repair
    cannot shrink are structural, and the structure causing them is
    dissolved outright.
    """
    wgc = wgc or WgcConfig()
    forbidden: set[int] = set()
    st = _PassState(mesh, wgc, forbidden)
    _grow(st, range(mesh.face_count))
    prev = np.inf
    while True:
        bad = _finalize_violations(st)
        if not bad:
            break
        if len(bad) >= prev:
            _dissolve_conflicts(st)
            break
        prev = len(bad)
        forbidden |= bad
        st, freed = _retract(st, bad)
        stranded = [f for f in range(mesh.face_count) if st.grouped[f] < 0]
        _grow(st, sorted(set(freed) | set(stranded)))
    if not st.parent:
        return None

    # leftover faces survive unchanged
    for f in range(mesh.face_count):
        if st.grouped[f] >= 0:
            continue
        face = tuple(int(x) for x in mesh.faces[f])
        entries = [(edge_key(face[i], face[(i + 1) % 3]), _Registry.UNSPLIT, None)
                   for i in range(3)]
        st.commit(FaceGroup(Pattern.UNCHANGED, face, (f,), {}), entries)

    groups = sorted(st.groups, key=lambda g: min(g.fine_face_ids))
    odd = np.array(sorted(st.parent), dtype=np.int64)
    is_odd = np.zeros(mesh.vertex_count, dtype=bool)
    is_odd[odd] = True
    even = np.flatnonzero(~is_odd).astype(np.int64)
    fine_to_coarse = {int(v): i for i, v in enumerate(even)}
    coarse_faces = [[fine_to_coarse[v] for v in g.coarse_face] for g in groups]
    coarse = TriMesh(mesh.vertices[even], np.array(coarse_faces, dtype=np.int64))
    return LevelRecord(
        level_index=0,
        fine_mesh=mesh,
        even_vertices=even,
        odd_vertices=odd,
        parent_edge=dict(st.parent),
        face_groups=groups,
        coarse_mesh=coarse,
        coarse_to_fine=even,
        fine_to_coarse=fine_to_coarse,
    )


def build_hierarchy(mesh: TriMesh, wgc: WgcConfig | None = None,
                    max_levels: int = 32) -> list[LevelRecord]:
    """Repeated simplification; returns records finest-first."""
    records: list[LevelRecord] = []
    cur = mesh
    while len(records) < max_levels:
        rec = simplify_once(cur, wgc)
        if rec is None:
            break
        records.append(rec)
        cur = rec.coarse_mesh
    for i, rec in enumerate(records):
        rec.level_index = len(records) - i
    return records


# -- forward subdivision rules (shared by decoder and resubdivide) ---------

def _rotate_for_splits(face, split_flags):
    """Rotate a face so split edges occupy the leading positions.

    Edge i of face (v0, v1, v2) is (v_i, v_{i+1}). Returns the rotated
    vertex triple and rotated flags.
    """
    for rot in range(3):
        flags = tuple(split_flags[(rot + i) % 3] for i in range(3))
        n = sum(split_flags)
        if n == 0 or n == 3:
            return face, split_flags
        if n == 1 and flags == (True, False, False):
            return tuple(face[(rot + i) % 3] for i in range(3)), flags
        if n == 2 and flags == (True, True, False):
            return tuple(face[(rot + i) % 3] for i in range(3)), flags
    raise AssertionError("unreachable rotation")


def subdivide_face(face, midpoint_of, diag_bit: int = 0):
    """Fine faces produced by one coarse face given its edge midpoints.

    `midpoint_of` maps an undirected edge key to the inserted vertex id,
    returning None for unsplit edges. Winding of the input is preserved.
    """
    flags = tuple(midpoint_of(edge_key(face[i], face[(i + 1) % 3])) is not None
                  for i in range(3))
    n = sum(flags)
    if n == 0:
        return [tuple(face)]
    (p0, p1, p2), _ = _rotate_for_splits(tuple(face), flags)
    if n == 1:
        m = midpoint_of(edge_key(p0, p1))
        return [(p0, m, p2), (m, p1, p2)]
    if n == 2:
        m01 = midpoint_of(edge_key(p0, p1))
        m12 = midpoint_of(edge_key(p1, p2))
        if diag_bit == 0:
            return [(p0, m01, p2), (m01, p1, m12), (m01, m12, p2)]
        return [(p0, m01, m12), (m01, p1, m12), (p0, m12, p2)]
    m01 = midpoint_of(edge_key(p0, p1))
    m12 = midpoint_of(edge_key(p1, p2))
    m20 = midpoint_of(edge_key(p2, p0))
    return [(p0, m01, m20), (m01, p1, m12), (m20, m12, p2), (m01, m12, m20)]


def subdivide_connectivity(faces, split: dict[tuple[int, int], int],
                           diag_bits: dict[int, int] | None = None):
    """Apply per-edge splits to a whole face list (ascending face order)."""
    diag_bits = diag_bits or {}
    out = []
    for fid, face in enumerate(faces):
        face = tuple(int(v) for v in face)
        out.extend(subdivide_face(face, split.get, diag_bits.get(fid, 0)))
    return np.array(out, dtype=np.int64)


def resubdivide(record: LevelRecord) -> TriMesh:
    """Reconstruct the fine connectivity from the recorded groups.

    Geometry is a placeholder: even vertices keep the coarse positions,
    odd vertices sit at their parent-edge midpoints. Face order follows
    the group order, so compare connectivity as a face set.
    """
    nv = record.fine_mesh.vertex_count
    positions = np.zeros((nv, 3), dtype=np.float64)
    positions[record.coarse_to_fine] = record.coarse_mesh.vertices
    for odd, (a, b) in record.parent_edge.items():
        positions[odd] = 0.5 * (positions[a] + positions[b])

    faces = []
    for g in record.face_groups:
        mid_by_edge = {edge_key(a, b): v for v, (a, b) in g.split_edges.items()}
        expected = {Pattern.UNCHANGED: 0, Pattern.BISECT: 1,
                    Pattern.TRISECT: 2, Pattern.QUADRISECT: 3}[g.pattern]
        if len(mid_by_edge) != expected:
            raise ValueError(f"group pattern {g.pattern.name} has "
                             f"{len(mid_by_edge)} split edges")
        faces.extend(subdivide_face(g.coarse_face, mid_by_edge.get, g.diag_bit))
    return TriMesh(positions, np.array(faces, dtype=np.int64))
