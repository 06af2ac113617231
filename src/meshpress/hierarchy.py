"""Multiresolution hierarchy by inverting irregular subdivision.

Each simplification level recognizes groups of 1-4 fine faces as the image
of one coarse face under midpoint subdivision (quadrisect / trisect /
bisect / unchanged) and merges them. The master invariant is subdivision
consistency: re-subdividing the coarse mesh according to the recorded
groups reproduces the fine connectivity exactly. Forward subdivision is
one rule, `split_plan` and `subdivide` at the end of this module, shared
by `resubdivide`, the codec's encoder and decoder and
`shapes.subdivide_midpoint`. It takes a midpoint (-1: none) per edge of
`TriMesh.edges` and gathers each face's through `TriMesh.edge_of`.

The grouping strategy is greedy over faces in ascending index order,
keeping each coarse edge's split decision (its midpoint, or none)
globally consistent, followed by a demotion fixpoint: any vertex whose
star cannot be covered by consistent groups is forced even and the pass
is rerun. An edge is keyed by one int code, `_PassTables._code`, from the
static candidates to the grouping state; `simplify_once` turns the codes
back into (a, b) pairs once, for `LevelRecord.parent_edge`.

Each pass reads its adjacency once (`_PassTables`): faces as lists, the
face and apex across every (face, local edge), both from
`TriMesh.opposite`, which the mesh derives from its edge table, boundary
edges and vertices, and valences, as arrays.

Every matcher is split in two. The static half is one array build per
pass, in `_PassTables`: it gathers every quadrisect, trisect (rotation
and diagonal bit) and bisect reading of every face from the corner table
and keeps, as masks, the ones that pass every check no grouping state
can change (topology and distinctness, valence, the boundary rule, the
WGC test, fine edges looked up by code), with their ranking terms. The
midpoint deviations and parent-edge lengths are computed at once by
`_deviations`, and each must equal `sqrt(d.dot(d))` of its 3-vector bit
for bit: a last-ulp change flips `>` comparisons and with them the
stream. The survivors are ordered per face by their sorted fine face ids
with ties in matcher order and become one `_Candidate` list per face.
The dynamic half,
`_PassState.admits`, runs on every call: free faces, `even`,
`forbidden`, `parent` (a vertex is odd exactly when it has a parent
edge), and the committed coarse edges, `_PassState.edges`. Within one
`_grow` those state checks only get stricter (faces only fill, vertices
only become even or odd, edges are only added or gain groups), so
`_grow` pushes each face once per commit: a second push in the same
commit would add a heap entry with the same key and a larger sequence
number, which can never commit anything. A committed group stays its
`_Candidate` until the pass ends: `_retract` recommits the survivors'
edge entries, and the `FaceGroup`s are built once, for the
`LevelRecord`. Nothing cached outlives `simplify_once`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .mesh import TriMesh

__all__ = ["Pattern", "WgcConfig", "FaceGroup", "LevelRecord",
           "simplify_once", "build_hierarchy", "resubdivide",
           "split_plan", "subdivide"]


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
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and positive, "
                             f"got {self.gamma}")


@dataclass(frozen=True)
class FaceGroup:
    pattern: Pattern
    coarse_face: tuple[int, int, int]          # even corners, fine indexing
    fine_face_ids: tuple[int, ...]
    diag_bit: int = 0                          # trisect diagonal selector


@dataclass
class LevelRecord:
    # All ids are fine ids; coarse vertex i is fine vertex coarse_to_fine[i],
    # which is ascending (np.searchsorted maps even fine ids to coarse ids).
    level_index: int
    fine_mesh: TriMesh
    parent_edge: dict[int, tuple[int, int]]    # odd vertex -> edge key
    face_groups: list[FaceGroup]
    coarse_mesh: TriMesh
    coarse_to_fine: np.ndarray                 # the even vertices


class _Candidate(NamedTuple):
    """A group that passes every state-free check, with its ranking terms.
    entries[i] is (code, midpoint or None) of coarse edge i, (corners[i],
    corners[i + 1]), its code from `_PassTables._code`; the FaceGroup is
    only built for a candidate that is still committed when the pass ends."""
    corners: tuple[int, int, int]
    fine_face_ids: tuple[int, ...]
    diag_bit: int
    entries: tuple
    scale: float                # mean parent-edge length
    score: float                # worst relative midpoint deviation
    rank: int                   # 0 when an irregular interior vertex is a corner

    @property
    def odds(self) -> list[int]:
        """The midpoints of the split edges, in edge order."""
        return [v for _, v in self.entries if v is not None]

    def to_group(self) -> FaceGroup:
        return FaceGroup(Pattern(len(self.odds)), self.corners,
                         self.fine_face_ids, self.diag_bit)


def _deviations(pos: np.ndarray, v, a, b) -> tuple[np.ndarray, np.ndarray]:
    """(|p_v - midpoint(a, b)|, |p_a - p_b|) per triple, bitwise symmetric
    in a, b.

    Each norm must equal `math.sqrt(d.dot(d))` of its 3-vector d bit for
    bit: a last-ulp change flips `>` comparisons and with them the stream.
    `np.vecdot` reduces each row with the dot kernel `ndarray.dot` uses,
    while `(d * d).sum(1)` and `einsum` round differently on a fifth to a
    quarter of vectors. test_vecdot_matches_scalar_norm checks the
    equality on the corpus; if it fails on some BLAS, the fix is a
    per-triple `d.dot(d)` here, never a changed stream."""
    dev = pos[v] - 0.5 * (pos[a] + pos[b])
    edge = pos[a] - pos[b]
    return np.sqrt(np.vecdot(dev, dev)), np.sqrt(np.vecdot(edge, edge))


def _isin(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which keys the ascending array `table` holds."""
    i = np.searchsorted(table, keys)
    hit = i < len(table)
    hit[hit] = table[i[hit]] == keys[hit]
    return hit


def _distinct(*cols) -> np.ndarray:
    """Rows whose entries in `cols` are pairwise different."""
    ok = np.ones(len(cols[0]), dtype=bool)
    for i, u in enumerate(cols):
        for w in cols[i + 1:]:
            ok &= u != w
    return ok


class _PassTables:
    """Adjacency, geometry and static candidates of one pass's input mesh.

    Local edge i of face f runs from faces[f][i] to faces[f][(i + 1) % 3];
    opp[3 * f + i] and apex[3 * f + i] are the face and vertex across it
    (-1 on a boundary). Edges are coded u * nv + w with u < w, by
    `_code`, the module's one edge key; `boundary` holds the boundary
    edges' codes, ascending. candidates[pref][f] lists
    the quadrisect (pref 0), trisect (1) and bisect (2) groups seeded at f
    in matcher order.

    Each matcher reads every face at once, one (rotation, diagonal bit) at
    a time, keeps the readings that pass its topology and distinctness
    checks, and hands each such block to `_admissible` for the odd-vertex
    rules; `_collect` ranks and orders the survivors into those lists."""

    def __init__(self, mesh: TriMesh, wgc: WgcConfig = WgcConfig()):
        self.mesh = mesh
        self.wgc = wgc
        self.faces: list[list[int]] = mesh.faces.tolist()
        o, vertex = mesh.opposite, mesh.faces.ravel()
        lone = o < 0
        self.opp = np.where(lone, -1, o // 3)
        # the apex across half-edge o is the corner before o in its face
        self.apex = np.where(lone, -1, vertex[o - o % 3 + (o + 2) % 3])
        rim = mesh.edges[np.bincount(mesh.edge_of) == 1]
        self.boundary = self._code(*rim.T)
        self.on_boundary = np.zeros(mesh.vertex_count, dtype=bool)
        self.on_boundary[rim.ravel()] = True
        self.valence = np.bincount(mesh.edges.ravel(),
                                   minlength=mesh.vertex_count)
        self._edges = self._code(*mesh.edges.T)
        self._kept = max(mesh.vertex_count, mesh.face_count)
        ids = np.array([*range(self._kept), None], dtype=object)
        self.candidates = [self._collect(blocks, ids) for blocks in (
            self._quadrisects(), self._trisects(), self._bisects())]

    def _code(self, u, w):
        return np.minimum(u, w) * self.mesh.vertex_count + np.maximum(u, w)

    def _quadrisects(self) -> list[tuple]:
        f = np.arange(self.mesh.face_count)
        opp = self.opp.reshape(-1, 3)
        n12, n23, n31 = opp.T
        b, c, a = self.apex.reshape(-1, 3).T
        m1, m2, m3 = self.mesh.faces.T
        ok = ((opp >= 0).all(axis=1) & _distinct(f, n12, n23, n31)
              & _distinct(a, b, c, m1, m2, m3))
        return [self._admissible(f[ok], np.stack([a, b, c], 1)[ok],
                                 self.mesh.faces[ok], 0,
                                 np.stack([n31, n12, n23, f], 1)[ok])]

    def _trisects(self) -> list[tuple]:
        """Each face as the middle face of a trisected coarse triangle."""
        faces, f = self.mesh.faces, np.arange(self.mesh.face_count)
        blocks = []
        for rot in range(3):
            e = 3 * f + (rot + 2) % 3              # edge (mb, ma)
            has = self.opp[e] >= 0
            g, e = f[has], e[has]
            ma, b, mb = (faces[g, (rot + i) % 3] for i in range(3))
            n3, y = self.opp[e], self.apex[e]
            # bit 0: n3 = (ma, mb, C), diagonal from ma, hinge (ma, y);
            # bit 1: n3 = (A, ma, mb), hinge (mb, y). A hinge is the edge
            # of n3 that follows the vertex it leaves out.
            for diag_bit, left_out in enumerate((mb, ma)):
                at = np.argmax(faces[n3] == left_out[:, None], axis=1)
                h = 3 * n3 + (at + 1) % 3
                n1, z = self.opp[h], self.apex[h]
                if diag_bit == 0:
                    A, C, fine = z, y, (n1, g, n3)
                else:
                    A, C, fine = y, z, (n3, g, n1)
                ok = ((n1 >= 0) & (n1 != g) & _distinct(A, b, C, ma, mb)
                      & _isin(self._edges, self._code(C, A)))
                kept = np.full(ok.sum(), self._kept)
                blocks.append(self._admissible(
                    g[ok], np.stack([A, b, C], 1)[ok],
                    np.stack([ma[ok], mb[ok], kept], 1), diag_bit,
                    np.stack(fine, 1)[ok]))
        return blocks

    def _bisects(self) -> list[tuple]:
        faces, f = self.mesh.faces, np.arange(self.mesh.face_count)
        blocks = []
        for rot in range(3):
            a, m, c = (faces[:, (rot + i) % 3] for i in range(3))
            e = 3 * f + (rot + 1) % 3              # edge (m, c)
            n, b = self.opp[e], self.apex[e]
            ok = (n >= 0) & _distinct(a, b, c, m)
            kept = np.full(ok.sum(), self._kept)
            blocks.append(self._admissible(
                f[ok], np.stack([a, b, c], 1)[ok],
                np.stack([m[ok], kept, kept], 1), 0, np.stack([f, n], 1)[ok]))
        return blocks

    def _admissible(self, face, corners, odd, diag_bit: int, fine) -> tuple:
        """The readings whose odd vertices may all split their coarse
        edges, as (face, corners, odd, diag_bit, fine, scale, score). The
        split edges lead: 3, 2 or 1 of them for a quadrisect, trisect or
        bisect."""
        splits = fine.shape[1] - 1
        v = odd[:, :splits]
        a, b = corners[:, :splits], corners[:, [1, 2, 0][:splits]]
        # a boundary vertex may only collapse along the boundary; an
        # interior midpoint vertex has at most 6 star faces (<= 3 per side
        # of its parent edge), so higher valence rules odd out; a split
        # coarse edge must not also exist as a fine edge
        along = (_isin(self.boundary, self._code(a, v))
                 & _isin(self.boundary, self._code(v, b)))
        ok = (np.where(self.on_boundary[v], along, self.valence[v] <= 6)
              & ~_isin(self._edges, self._code(a, b))).all(axis=1)
        face, corners, odd, fine, v, a, b = (
            x[ok] for x in (face, corners, odd, fine, v, a, b))
        dev, length = (x.reshape(-1, splits) for x in _deviations(
            self.mesh.vertices, v.ravel(), a.ravel(), b.ravel()))
        if self.wgc.enabled:
            ok = ~(dev > self.wgc.gamma * length).any(axis=1)
            face, corners, odd, fine, dev, length = (
                x[ok] for x in (face, corners, odd, fine, dev, length))
        # scale: mean parent-edge length, comparable across patterns (a
        # coarse-face perimeter would make bisects look finer than
        # quadrisects); score: worst deviation relative to the parent edge
        # length, so true subdivision structure scores low. Both run over
        # the split edges in order, as a scalar sum and max would.
        total, worst = 0.0, np.zeros(len(face))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = dev / length
        for j in range(splits):
            total = total + length[:, j]
            worst = np.where(length[:, j] > 0.0,
                             np.where(ratio[:, j] > worst, ratio[:, j], worst),
                             np.inf)
        return (face, corners, odd, np.full(len(face), diag_bit), fine,
                total / splits, worst)

    def _collect(self, blocks, ids: np.ndarray) -> list[list[_Candidate]]:
        """One pattern's admissible readings, `blocks` in matcher order,
        ranked and ordered per face, as one `_Candidate` list per face.

        Column j of `cols` holds a, b, c, o0, o1, o2, diag_bit, rank and the
        fine face ids in turn: oi is the midpoint of coarse edge i,
        (corners[i], corners[i + 1]), or the pass's `kept` marker where
        that edge is kept. The ints come from `ids`, shared by the whole
        pass (`ids[kept]` is None), so that a vertex or face id is one
        object however many candidates hold it. `keys` holds the three
        coarse edges' codes."""
        face, corners, odd, diag_bit, fine, scale, score = (
            np.concatenate(x) for x in zip(*blocks))
        # Irregular interior vertices must survive every valid tiling, so
        # a candidate keeping one as an even corner is almost certainly in
        # the globally consistent coset: such candidates are preferred seeds.
        irregular = (self.valence != 6) & ~self.on_boundary
        rank = np.where(irregular[corners].any(axis=1), 0, 1)
        # per face, a stable sort by sorted fine face ids keeps ties in
        # matcher order
        order = np.lexsort((*np.sort(fine, axis=1).T[::-1], face))
        cols = ids[np.column_stack(
            [corners, odd, diag_bit, rank, fine])[order].T].tolist()
        keys = self._code(corners, np.roll(corners, -1, axis=1))[order].tolist()
        built = [
            _Candidate((a, b, c), fine, bit,
                       ((k0, o0), (k1, o1), (k2, o2)), s, w, r)
            for a, b, c, o0, o1, o2, bit, r, fine, (k0, k1, k2), s, w in zip(
                *cols[:8], zip(*cols[8:]), keys,
                scale[order].tolist(), score[order].tolist())]
        start = np.searchsorted(face[order],
                                np.arange(self.mesh.face_count + 1)).tolist()
        return [built[i:j] for i, j in zip(start, start[1:])]


class _PassState:
    """The grouping state of one pass. `parent` maps each odd vertex to its
    parent edge's code, and `edges` each coarse edge's code to [midpoint or
    None, number of groups using the edge]."""

    def __init__(self, tables: _PassTables, forbidden: set[int]):
        self.tables = tables
        self.forbidden = forbidden
        self.even = [False] * tables.mesh.vertex_count
        self.parent: dict[int, int] = {}
        self.grouped = [-1] * len(tables.faces)
        self.groups: list[_Candidate] = []
        self.edges: dict[int, list] = {}

    def admits(self, cand: _Candidate) -> bool:
        """The state-dependent checks: the faces are free, no corner is odd,
        each odd vertex is allowed, not even, and new or already odd on the
        same parent edge, and each coarse edge is new or has the same
        midpoint and fewer than two groups."""
        grouped, parent, even = self.grouped, self.parent, self.even
        for n in cand.fine_face_ids:
            if grouped[n] >= 0:
                return False
        for v in cand.corners:
            if v in parent:
                return False
        for key, v in cand.entries:
            if v is not None and (v in self.forbidden or even[v]
                                  or parent.get(v, key) != key):
                return False
        edges = self.edges
        for key, v in cand.entries:
            cur = edges.get(key)
            if cur is not None and (cur[0] != v or cur[1] >= 2):
                return False
        return True

    def commit(self, cand: _Candidate) -> None:
        gid = len(self.groups)
        self.groups.append(cand)
        for fid in cand.fine_face_ids:
            self.grouped[fid] = gid
        for corner in cand.corners:
            self.even[corner] = True
        edges, parent = self.edges, self.parent
        for key, v in cand.entries:
            edges.setdefault(key, [v, 0])[1] += 1
            if v is not None:
                parent[v] = key

    def reuse_count(self, cand: _Candidate) -> int:
        """Number of split edges of `cand` already committed with the same
        midpoint. Such a candidate is the forced continuation of the
        committed tiling across that edge; unsplit matches carry no such
        information and are not counted."""
        n = 0
        for key, v in cand.entries:
            cur = self.edges.get(key)
            if v is not None and cur is not None and cur[0] == v:
                n += 1
        return n


def _first_admitted(st: _PassState, cands) -> _Candidate | None:
    for cand in cands:
        if st.admits(cand):
            return cand
    return None


def _grow(st: _PassState, seed_faces) -> None:
    """Best-first region growing, one pattern at a time.

    In regular regions several incompatible groupings are locally valid
    (coset ambiguity of the refinement lattice), so the search commits
    low-deviation candidates first and gives strict priority to candidates
    that touch already-committed groups: each committed group's even and
    odd vertices then force its neighborhood into the same consistent
    tiling, and conflicts can only arise along seams between independently
    seeded regions.
    """
    vertex_faces = st.tables.mesh.vertex_faces
    seq = 0
    heap: list[tuple] = []

    def push(f: int, tier: int, ref_scale: float | None = None) -> None:
        nonlocal seq
        if st.grouped[f] >= 0:
            return
        for pref in range(3):
            cand = _first_admitted(st, st.tables.candidates[pref][f])
            if cand is None:
                continue
            reuse = st.reuse_count(cand)
            # a candidate re-using a committed split edge is the forced
            # continuation of that region: frontier tier, ordered by how
            # strongly it is forced. Without reuse, a coarser candidate
            # next to a committed group is not a continuation but the next
            # subdivision level showing through; it waits as a seed.
            eff_tier = tier
            if reuse > 0:
                eff_tier = 0
            elif tier == 0 and ref_scale is not None \
                    and cand.scale > 1.5 * ref_scale:
                eff_tier = 1
            # fuller patterns beat a marginally better-scoring partial
            # match (almost always a spurious reading of a regular region)
            if eff_tier == 0:
                key = (0, -reuse, float(pref), 0.0, cand.score)
            else:
                # between seeds of the same pattern, finer-scale
                # candidates go first so that on meshes refined at mixed
                # scales the finest structure claims its faces before any
                # coarser grouping can
                key = (1, cand.rank, float(pref), cand.scale, cand.score)
            heapq.heappush(heap, (*key, seq, f, pref))
            seq += 1

    for f in seed_faces:
        push(f, 1)
    while heap:
        *_, f, pref = heapq.heappop(heap)
        if st.grouped[f] >= 0:
            continue
        # revalidate against the current state
        cand = _first_admitted(st, st.tables.candidates[pref][f])
        if cand is None:
            continue
        st.commit(cand)
        # each face once per commit: exact, see the module docstring
        touched = (nf for v in (*cand.corners, *cand.odds)
                   for nf in vertex_faces[v])
        for nf in dict.fromkeys(touched):
            push(nf, 0, cand.scale)


def _finalize_violations(st: _PassState) -> set[int]:
    """Vertices that must be demoted for ungrouped faces to become
    UNCHANGED coarse faces."""
    parent, grouped = st.parent, st.grouped
    return {v for f, face in enumerate(st.tables.faces) if grouped[f] < 0
            for v in face if v in parent}


def _retract(st: _PassState, bad: set[int]) -> tuple[_PassState, list[int]]:
    """Drop every group that makes a vertex in `bad` odd and recommit the
    survivors into a fresh state. Returns it and the freed faces."""
    fresh = _PassState(st.tables, st.forbidden)
    for cand in st.groups:
        if not any(v in bad for v in cand.odds):
            fresh.commit(cand)
    freed = [f for f, (old, new) in enumerate(zip(st.grouped, fresh.grouped))
             if old >= 0 and new < 0]
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
    face uses). A dissolved group stays in `st.groups` but owns no face.
    """
    odd_groups: dict[int, list[int]] = {}
    for gid, cand in enumerate(st.groups):
        for v in cand.odds:            # a shared split edge puts its
            odd_groups.setdefault(v, []).append(gid)    # odd in 2 groups
    removed: set[int] = set()
    queue = [f for f, gid in enumerate(st.grouped) if gid < 0]
    while queue:
        f = queue.pop()
        for v in st.tables.faces[f]:
            for gid in odd_groups.get(v, ()):
                if gid in removed:
                    continue
                removed.add(gid)
                cand = st.groups[gid]
                for odd in cand.odds:
                    if all(g in removed for g in odd_groups[odd]):
                        st.parent.pop(odd, None)
                for fid in cand.fine_face_ids:
                    st.grouped[fid] = -1
                    queue.append(fid)


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
    st = _PassState(_PassTables(mesh, wgc), forbidden)
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
        stranded = [f for f, gid in enumerate(st.grouped) if gid < 0]
        _grow(st, sorted(set(freed) | set(stranded)))
    if not st.parent:
        return None

    # leftover faces survive unchanged; a dissolved group owns no face
    groups = [st.groups[gid].to_group() for gid in set(st.grouped) - {-1}]
    groups += [FaceGroup(Pattern.UNCHANGED, tuple(face), (f,))
               for f, face in enumerate(st.tables.faces) if st.grouped[f] < 0]
    groups.sort(key=lambda g: min(g.fine_face_ids))
    even = np.setdiff1d(np.arange(mesh.vertex_count, dtype=np.int64),
                        list(st.parent))
    corners = np.array([g.coarse_face for g in groups], dtype=np.int64)
    coarse = TriMesh(mesh.vertices[even], np.searchsorted(even, corners))
    return LevelRecord(
        level_index=0,
        fine_mesh=mesh,
        parent_edge={v: divmod(k, mesh.vertex_count)
                     for v, k in st.parent.items()},
        face_groups=groups,
        coarse_mesh=coarse,
        coarse_to_fine=even,
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


# -- forward subdivision rule (decoder, encoder, resubdivide, shapes) ------
#
# A face's split mask has bit i set when its edge i, (v_i, v_{i+1}), is
# split. The mask picks the rotation that brings the split edges to the
# front (a face with none or all three keeps its order) and the number of
# split edges; `split_plan` applies both and `subdivide` the templates.

_ROTATION = np.array([0, 0, 1, 0, 2, 2, 1, 0])
_SPLIT_COUNT = np.array([0, 1, 1, 2, 1, 2, 2, 3])
_CORNERS = (_ROTATION[:, None] + [0, 1, 2]) % 3     # rotated corner order


def split_plan(mesh: TriMesh, mid) -> list[list[int]]:
    """[p0, p1, p2, m01, m12, m20, n] per face in ascending order: the face
    rotated so its n split edges lead, and the midpoints of its edges
    (p0, p1), (p1, p2), (p2, p0). `mid` holds each edge's midpoint vertex
    in the order of `mesh.edges`, -1 for an edge that is not split."""
    m = np.asarray(mid, dtype=np.int64)[mesh.edge_of].reshape(-1, 3)
    mask = (m >= 0) @ [1, 2, 4]
    rows, cols = np.arange(len(m))[:, None], _CORNERS[mask]
    return np.column_stack([mesh.faces[rows, cols], m[rows, cols],
                            _SPLIT_COUNT[mask]]).tolist()


def subdivide(plan, diag_bits) -> np.ndarray:
    """Child faces of a split plan, each face's children in its place.

    `diag_bits` yields one diagonal bit per trisected face, in plan order.
    Children keep their parent's winding.
    """
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

    groups = record.face_groups
    coarse = TriMesh(positions, [g.coarse_face for g in groups],
                     validate=False)
    split = {key: v for v, key in record.parent_edge.items()}
    plan = split_plan(coarse, [split.get(key, -1) for key
                               in map(tuple, coarse.edges.tolist())])
    for g, (*_, n) in zip(groups, plan):
        if n != int(g.pattern):
            raise ValueError(f"group pattern {g.pattern.name} has {n} split "
                             f"edges on its face")
    faces = subdivide(plan, [g.diag_bit for g in groups
                             if g.pattern is Pattern.TRISECT])
    return TriMesh(positions, faces)
