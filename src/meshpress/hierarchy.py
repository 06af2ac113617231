"""Multiresolution hierarchy by inverting irregular subdivision.

Each simplification level recognizes groups of 1-4 fine faces as the image
of one coarse face under midpoint subdivision (quadrisect / trisect /
bisect / unchanged) and merges them. A `LevelRecord` is the partition
alone (coarse mesh, parent edges, fine mesh): `refinement` derives each
coarse edge's midpoint from the parent-edge codes and each trisect's
diagonal bit from the fine mesh's edge table, for the encoder and
`resubdivide`. The master invariant is subdivision consistency:
subdividing by them reproduces the fine connectivity. Forward subdivision
is one rule, `split_plan` and `subdivide` at the end of this module,
shared by `refinement`, the codec's decoder and
`shapes.subdivide_midpoint`. It takes a midpoint (-1: none) per edge of
`TriMesh.edges` and gathers each face's through `TriMesh.edge_of`; the
children are one gather through the child-template table `_TEMPLATES`.

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
pattern and pass, in `_PassTables`: it reads every face as a quadrisect,
a trisect (all rotations and diagonals at once) and a bisect from
the corner table and keeps, as masks, the readings that pass every check
no grouping state can change (topology and distinctness, valence, the
boundary rule, the WGC test, fine edges looked up by code), with their
ranking terms. The midpoint deviations and parent-edge lengths are
computed at once by `_deviations`, and each must equal `sqrt(d.dot(d))`
of its 3-vector bit for bit: a last-ulp change flips `>` comparisons and
with them the stream. Each survivor is one row of the pass's columns,
plain lists read by row id; no object is built per candidate. The
dynamic half, the `first` function `_matcher` binds once per `_grow`,
runs on every call: free faces, `even`, `forbidden`, `parent` (a vertex
is odd exactly when it has a parent edge), and the committed coarse
edges, `_PassState.edges`. Within one `_grow` those state checks only
get stricter (faces only fill, vertices only become even or odd, edges
are only added or gain groups), so `_grow` pushes each face once per
commit: a second push in the same commit would add a heap entry with the
same key and a larger sequence number, which can never commit anything.
The same holds for the whole life of a `_PassState` (`forbidden` only
grows, `_retract` starts a fresh state, and `_dissolve_conflicts` frees
faces only after the pass's last grow), so a row `first` has seen fail
never passes again: each pattern slot (pref, f) keeps a cursor,
`_PassState.cursor`, where `first` resumes its scan, and a slot whose
cursor is at its end is skipped without a call.
A pass starts from the empty state (nothing committed or forbidden),
where every static candidate is admitted and reuses no committed edge,
so pushing every face gives each face's first row of each pattern its
seed key: the first `_grow` reads those keys in the order of one sort
(`_PassTables.seed`), taking at each step the next seed or the push
heap's top, whichever is less, and only the regrows of the demotion
fixpoint push their seeds. A committed group stays its row until the
pass ends: `_retract` recommits the survivors' edge entries, and
`simplify_once` reads the coarse faces' corners from the rows once.
Nothing cached outlives `simplify_once`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .mesh import TriMesh

__all__ = ["WgcConfig", "LevelRecord", "simplify_once", "build_hierarchy",
           "refinement", "resubdivide", "split_plan", "subdivide"]


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


@dataclass
class LevelRecord:
    # All ids are fine ids; coarse vertex i is fine vertex coarse_to_fine[i],
    # which is ascending (np.searchsorted maps even fine ids to coarse ids).
    # Coarse faces keep their fine faces' winding, by first fine face.
    fine_mesh: TriMesh
    parent_edge: dict[int, tuple[int, int]]    # odd vertex -> edge key
    coarse_mesh: TriMesh
    coarse_to_fine: np.ndarray                 # the even vertices


def _deviations(pos: np.ndarray, v, a, b) -> tuple[np.ndarray, np.ndarray]:
    """(|p_v - midpoint(a, b)|, |p_a - p_b|) per triple, bitwise symmetric
    in a, b.

    Each norm must equal `math.sqrt(d.dot(d))` of its 3-vector d bit for
    bit: a last-ulp change flips `>` comparisons and with them the stream.
    `np.vecdot` reduces each row with the dot kernel `ndarray.dot` uses,
    while `(d * d).sum(1)` and `einsum` round differently on a fifth to a
    quarter of vectors. test_vecdot_matches_scalar_norm checks the
    equality on the corpus; if it fails on some BLAS, the fix is a
    per-triple `d.dot(d)` here, never a changed stream. In place, so that
    three (n, 3) arrays at most are alive: -0.5 * s + p_v rounds as
    p_v - 0.5 * s does."""
    edge, dev = pos[a], pos[a]
    edge -= pos[b]
    dev += pos[b]
    dev *= -0.5
    dev += pos[v]
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
    edges' codes, ascending.

    Each static candidate is one row r of per-pass columns, lists built
    by one `tolist()` each: corner[i][r] is coarse corner i, and coarse
    edge i, (corner i, corner i + 1), has code[i][r] and midpoint
    mid[i][r], -1 where the edge is kept; fine[j][r] is fine face j, -1
    past the pattern's 4, 3 or 2; then rank, scale and score.
    Rows run by pattern (quadrisect, trisect, bisect: pref 0, 1, 2), face
    and sorted fine face ids, ties in matcher order, and
    bounds[pref][f]:bounds[pref][f + 1] are pattern pref's rows seeded at
    face f. The array `seed` holds (seq, f, pref, row) of each face's
    first row of each pattern, ordered by the key `_grow` pushes it with
    on an empty state, seq numbering them f-major as pushes would.

    Each matcher reads every face in every rotation (and diagonal bit) at
    once, in (rotation, bit) blocks, and hands the readings that pass its
    topology checks to `_admissible` for the odd-vertex rules."""

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
        face, corners, odd, fine, scale, score = map(np.concatenate, zip(
            self._quadrisects(), self._trisects(), self._bisects()))
        pref = 3 - (odd >= 0).sum(axis=1)
        # stable, so ties keep matcher order; the -1 padding sorts first
        order = np.lexsort((*np.sort(fine, axis=1).T[::-1], face, pref))
        face, corners, odd, fine, scale, score, pref = (
            x[order] for x in (face, corners, odd, fine, scale, score, pref))
        # Irregular interior vertices must survive every valid tiling, so
        # a candidate keeping one as an even corner is almost certainly in
        # the globally consistent coset: such candidates are preferred seeds.
        irregular = (self.valence != 6) & ~self.on_boundary
        rank = np.where(irregular[corners].any(axis=1), 0, 1)
        nf = mesh.face_count
        start = np.searchsorted(pref * nf + face, np.arange(3 * nf + 1))
        self.bounds = [start[p * nf:(p + 1) * nf + 1].tolist()
                       for p in range(3)]
        # f-major, so the seeds' sequence numbers are their positions,
        # and lexsort is stable
        fs, ps = np.nonzero((np.diff(start) > 0).reshape(3, nf).T)
        row = start[ps * nf + fs]
        order = np.lexsort((score[row], scale[row], ps, rank[row]))
        self.seed = np.stack([order, fs[order], ps[order], row[order]])
        # one int object per vertex or face id, however many rows hold it;
        # ids[-1] is -1
        ids = np.array([*range(max(mesh.vertex_count, nf)), -1],
                       dtype=object)
        self.corner, self.mid, self.fine = (
            ids[x.T].tolist() for x in (corners, odd, fine))
        self.code = self._code(corners, np.roll(corners, -1, 1)).T.tolist()
        self.rank, self.scale, self.score = (
            x.tolist() for x in (rank, scale, score))

    def _code(self, u, w):
        return np.minimum(u, w) * self.mesh.vertex_count + np.maximum(u, w)

    def _quadrisects(self) -> tuple:
        f = np.arange(self.mesh.face_count)
        opp = self.opp.reshape(-1, 3)
        n12, n23, n31 = opp.T
        b, c, a = self.apex.reshape(-1, 3).T
        m1, m2, m3 = self.mesh.faces.T
        ok = ((opp >= 0).all(axis=1) & _distinct(f, n12, n23, n31)
              & _distinct(a, b, c, m1, m2, m3))
        return self._admissible(f[ok], np.stack([a, b, c], 1)[ok],
                                self.mesh.faces[ok],
                                np.stack([n31, n12, n23, f], 1)[ok])

    def _trisects(self) -> tuple:
        """Each face as the middle face of a trisected coarse triangle."""
        faces, nf = self.mesh.faces, self.mesh.face_count
        block, g = np.divmod(np.arange(6 * nf), nf)    # 2 * rotation + bit
        e = 3 * g + (block // 2 + 2) % 3               # edge (mb, ma)
        has = self.opp[e] >= 0
        block, g, e = block[has], g[has], e[has]
        ma, b, mb = (faces[g, (block // 2 + i) % 3] for i in range(3))
        n3, y = self.opp[e], self.apex[e]
        # bit 0: n3 = (ma, mb, C), diagonal from ma, hinge (ma, y);
        # bit 1: n3 = (A, ma, mb), hinge (mb, y). A hinge is the edge
        # of n3 that follows the vertex it leaves out.
        one = block % 2 == 1
        at = np.argmax(faces[n3] == np.where(one, ma, mb)[:, None], axis=1)
        e = 3 * n3 + (at + 1) % 3
        n1, z = self.opp[e], self.apex[e]
        A, C = np.where(one, y, z), np.where(one, z, y)
        ok = ((n1 >= 0) & (n1 != g) & _distinct(A, b, C, ma, mb)
              & _isin(self._edges, self._code(C, A)))
        g, A, b, C, ma, mb, n1, n3, one = (
            x[ok] for x in (g, A, b, C, ma, mb, n1, n3, one))
        return self._admissible(
            g, np.stack([A, b, C], 1),
            np.stack([ma, mb, np.full_like(g, -1)], 1),
            np.stack([np.where(one, n3, n1), g, np.where(one, n1, n3)], 1))

    def _bisects(self) -> tuple:
        faces, nf = self.mesh.faces, self.mesh.face_count
        rot, f = np.divmod(np.arange(3 * nf), nf)
        a, m, c = (faces[f, (rot + i) % 3] for i in range(3))
        e = 3 * f + (rot + 1) % 3                  # edge (m, c)
        n, b = self.opp[e], self.apex[e]
        ok = (n >= 0) & _distinct(a, b, c, m)
        f, a, b, c, m, n = (x[ok] for x in (f, a, b, c, m, n))
        kept = np.full_like(f, -1)
        return self._admissible(f, np.stack([a, b, c], 1),
                                np.stack([m, kept, kept], 1),
                                np.stack([f, n], 1))

    def _admissible(self, face, corners, odd, fine) -> tuple:
        """The readings whose odd vertices may all split their coarse
        edges, as (face, corners, odd, fine, scale, score), fine
        padded with -1 to 4 columns. The split edges lead: 3, 2 or 1 of
        them for a quadrisect, trisect or bisect."""
        splits = fine.shape[1] - 1
        v = odd[:, :splits]
        a, b = corners[:, :splits], corners[:, [1, 2, 0][:splits]]
        # a boundary vertex may only collapse along the boundary; an
        # interior midpoint vertex has at most 6 star faces (<= 3 per side
        # of its parent edge), so higher valence rules odd out; a split
        # coarse edge must not also exist as a fine edge
        along = (_isin(self.boundary, self._code(a, v))
                 & _isin(self.boundary, self._code(v, b)))
        keep = np.flatnonzero((np.where(self.on_boundary[v], along,
                                        self.valence[v] <= 6)
                               & ~_isin(self._edges, self._code(a, b))).all(1))
        dev, length = (x.reshape(-1, splits) for x in _deviations(
            self.mesh.vertices, v[keep].ravel(), a[keep].ravel(),
            b[keep].ravel()))
        if self.wgc.enabled:
            ok = ~(dev > self.wgc.gamma * length).any(axis=1)
            keep, dev, length = keep[ok], dev[ok], length[ok]
        # scale: mean parent-edge length, comparable across patterns (a
        # coarse-face perimeter would make bisects look finer than
        # quadrisects); score: worst deviation relative to the parent edge
        # length, so true subdivision structure scores low. Both run over
        # the split edges in order, as a scalar sum and max would.
        total, worst = 0.0, np.zeros(len(keep))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = dev / length
        for j in range(splits):
            total = total + length[:, j]
            worst = np.where(length[:, j] > 0.0,
                             np.where(ratio[:, j] > worst, ratio[:, j], worst),
                             np.inf)
        fine = np.pad(fine[keep], ((0, 0), (0, 3 - splits)),
                      constant_values=-1)
        return (face[keep], corners[keep], odd[keep], fine, total / splits,
                worst)

    def corners(self, r: int) -> tuple[int, int, int]:
        a, b, c = self.corner
        return a[r], b[r], c[r]

    def entries(self, r: int) -> list[tuple[int, int]]:
        """(code, midpoint or -1) of row r's coarse edges, in edge order."""
        return [(k[r], m[r]) for k, m in zip(self.code, self.mid)]

    def odds(self, r: int) -> list[int]:
        """The midpoints of row r's split edges, in edge order."""
        return [m[r] for m in self.mid if m[r] >= 0]

    def fine_ids(self, r: int) -> tuple[int, ...]:
        return tuple(g[r] for g in self.fine if g[r] >= 0)


class _PassState:
    """The grouping state of one pass: `groups` lists the committed rows,
    `parent` maps each odd vertex to its parent edge's code, and `edges`
    each coarse edge's code to [midpoint or -1, groups using it].
    cursor[pref][f] is the first row of slot (pref, f) that `first` has
    not yet seen fail, bounds[pref][f + 1] once none is left."""

    def __init__(self, tables: _PassTables, forbidden: set[int]):
        self.tables = tables
        self.forbidden = forbidden
        self.even = [False] * tables.mesh.vertex_count
        self.parent: dict[int, int] = {}
        self.grouped = [-1] * len(tables.faces)
        self.groups: list[int] = []
        self.edges: dict[int, list] = {}
        self.cursor = [list(rows) for rows in tables.bounds]

    def commit(self, r: int) -> None:
        gid = len(self.groups)
        self.groups.append(r)
        for fid in self.tables.fine_ids(r):
            self.grouped[fid] = gid
        for corner in self.tables.corners(r):
            self.even[corner] = True
        edges, parent = self.edges, self.parent
        for key, v in self.tables.entries(r):
            edges.setdefault(key, [v, 0])[1] += 1
            if v >= 0:
                parent[v] = key


def _matcher(st: _PassState):
    """`first(pref, f)`: the first of pattern pref's rows seeded at face f
    that `st` admits, -1 if none. The state-dependent checks: the faces
    are free, no corner is odd, each odd vertex is allowed, not even, and
    new or already odd on the same parent edge, and each coarse edge is
    new or has the same midpoint and fewer than two groups. The scan
    starts at the slot's cursor and leaves it at the row it returns, or
    at the slot's end."""
    t = st.tables
    bounds, (a, b, c), pairs = t.bounds, t.corner, tuple(zip(t.code, t.mid))
    slots = [t.fine[:4 - pref] for pref in range(3)]
    grouped, parent, even = st.grouped, st.parent, st.even
    edges, forbidden, cursor = st.edges, st.forbidden, st.cursor

    def first(pref: int, f: int) -> int:
        fine, at, end = slots[pref], cursor[pref], bounds[pref][f + 1]
        for r in range(at[f], end):
            for g in fine:
                if grouped[g[r]] >= 0:
                    break
            else:
                if a[r] in parent or b[r] in parent or c[r] in parent:
                    continue
                for code, mid in pairs:
                    key, v = code[r], mid[r]
                    if v >= 0 and (v in forbidden or even[v]
                                   or parent.get(v, key) != key):
                        break
                    cur = edges.get(key)
                    if cur is not None and (cur[0] != v or cur[1] >= 2):
                        break
                else:
                    at[f] = r
                    return r
        at[f] = end
        return -1
    return first


def _grow(st: _PassState, seed_faces=None) -> None:
    """Best-first region growing, one pattern at a time.

    In regular regions several incompatible groupings are locally valid
    (coset ambiguity of the refinement lattice), so the search commits
    low-deviation candidates first and gives strict priority to candidates
    that touch already-committed groups: each committed group's even and
    odd vertices then force its neighborhood into the same consistent
    tiling, and conflicts can only arise along seams between independently
    seeded regions. Without `seed_faces`, `st` must be empty, and every
    face is seeded from `_PassTables.seed` (see the module docstring).
    """
    t = st.tables
    first = _matcher(st)
    vertex_faces, grouped, edges = t.mesh.vertex_faces, st.grouped, st.edges
    bounds, cursor, pairs = t.bounds, st.cursor, tuple(zip(t.code, t.mid))
    rank, scale, score = t.rank, t.scale, t.score
    seq = 0
    heap: list[tuple] = []

    def push(f: int, tier: int, ref_scale: float | None = None) -> None:
        nonlocal seq
        if grouped[f] >= 0:
            return
        for pref in range(3):
            if cursor[pref][f] == bounds[pref][f + 1]:
                continue        # settled: no row of this slot is admitted
            r = first(pref, f)
            if r < 0:
                continue
            reuse = 0           # split edges committed with this midpoint
            for code, mid in pairs:
                v = mid[r]
                if v >= 0:
                    cur = edges.get(code[r])
                    reuse += cur is not None and cur[0] == v
            # a candidate re-using a committed split edge is the forced
            # continuation of that region: frontier tier, ordered by how
            # strongly it is forced. Without reuse, a coarser candidate
            # next to a committed group is not a continuation but the next
            # subdivision level showing through; it waits as a seed.
            eff_tier = tier
            if reuse > 0:
                eff_tier = 0
            elif tier == 0 and ref_scale is not None \
                    and scale[r] > 1.5 * ref_scale:
                eff_tier = 1
            # fuller patterns beat a marginally better-scoring partial
            # match (almost always a spurious reading of a regular region)
            if eff_tier == 0:
                key = (0, -reuse, float(pref), 0.0, score[r])
            else:
                # between seeds of the same pattern, finer-scale
                # candidates go first so that on meshes refined at mixed
                # scales the finest structure claims its faces before any
                # coarser grouping can
                key = (1, rank[r], float(pref), scale[r], score[r])
            heapq.heappush(heap, (*key, seq, f, pref))
            seq += 1

    seeds: list[tuple] = []
    if seed_faces is None:
        seeds = [(1, rank[r], float(p), scale[r], score[r], s, f, p)
                 for s, f, p, r in zip(*t.seed.tolist())]
        seq = len(seeds)
    else:
        for f in seed_faces:
            push(f, 1)
    i, n = 0, len(seeds)
    while i < n or heap:
        # the seeds are sorted, so the least entry is the next seed or
        # the heap's top (keys are unique through seq)
        if i < n and (not heap or seeds[i] < heap[0]):
            entry = seeds[i]
            i += 1
        else:
            entry = heapq.heappop(heap)
        f, pref = entry[-2], entry[-1]
        # revalidate against the current state
        if grouped[f] >= 0 or cursor[pref][f] == bounds[pref][f + 1]:
            continue
        r = first(pref, f)
        if r < 0:
            continue
        st.commit(r)
        # each face once per commit: exact, see the module docstring
        touched = (nf for v in (*t.corners(r), *t.odds(r))
                   for nf in vertex_faces[v])
        for nf in dict.fromkeys(touched):
            push(nf, 0, scale[r])


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
    for r in st.groups:
        if not any(v in bad for v in st.tables.odds(r)):
            fresh.commit(r)
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
    t = st.tables
    odd_groups: dict[int, list[int]] = {}
    for gid, r in enumerate(st.groups):
        for v in t.odds(r):            # a shared split edge puts its
            odd_groups.setdefault(v, []).append(gid)    # odd in 2 groups
    removed: set[int] = set()
    queue = [f for f, gid in enumerate(st.grouped) if gid < 0]
    while queue:
        f = queue.pop()
        for v in t.faces[f]:
            for gid in odd_groups.get(v, ()):
                if gid in removed:
                    continue
                removed.add(gid)
                r = st.groups[gid]
                for odd in t.odds(r):
                    if all(g in removed for g in odd_groups[odd]):
                        st.parent.pop(odd, None)
                for fid in t.fine_ids(r):
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
    _grow(st)
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

    # leftover faces stay as they are; a dissolved group owns no face
    t = st.tables
    first = {f: face for f, face in enumerate(t.faces) if st.grouped[f] < 0}
    for r in {st.groups[gid] for gid in st.grouped if gid >= 0}:
        first[min(t.fine_ids(r))] = t.corners(r)
    even = np.setdiff1d(np.arange(mesh.vertex_count, dtype=np.int64),
                        list(st.parent))
    corners = np.array([first[f] for f in sorted(first)], dtype=np.int64)
    coarse = TriMesh(mesh.vertices[even], np.searchsorted(even, corners))
    return LevelRecord(
        fine_mesh=mesh,
        parent_edge={v: divmod(k, mesh.vertex_count)
                     for v, k in st.parent.items()},
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
    return records


# -- forward subdivision rule (decoder, refinement, shapes) ----------------
#
# A face's split mask has bit i set when its edge i, (v_i, v_{i+1}), is
# split. The mask picks the rotation that brings the split edges to the
# front (a face with none or all three keeps its order) and the number of
# split edges; `split_plan` applies both and `subdivide` the templates.

_ROTATION = np.array([0, 0, 1, 0, 2, 2, 1, 0])
_SPLIT_COUNT = np.array([0, 1, 1, 2, 1, 2, 2, 3])
_CORNERS = (_ROTATION[:, None] + [0, 1, 2]) % 3     # rotated corner order

# Child templates by case: the split count, or 4 for a trisect with
# diagonal bit 1. Entries are plan columns (p0 p1 p2 m01 m12 m20 = 0-5);
# -1 rows pad a case with fewer than four children.
_TEMPLATES = np.array([
    [[0, 1, 2], [-1] * 3, [-1] * 3, [-1] * 3],          # unchanged
    [[0, 3, 2], [3, 1, 2], [-1] * 3, [-1] * 3],         # bisect
    [[0, 3, 2], [3, 1, 4], [3, 4, 2], [-1] * 3],        # trisect, bit 0
    [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]],       # quadrisect
    [[0, 3, 4], [3, 1, 4], [0, 4, 2], [-1] * 3],        # trisect, bit 1
])
_CHILDREN = _TEMPLATES[:, :, 0] >= 0                  # (case, slot)
_CHILD_COUNT = _CHILDREN.sum(axis=1)


def split_plan(mesh: TriMesh, mid) -> np.ndarray:
    """(F, 7) int64 rows [p0, p1, p2, m01, m12, m20, n] per face in
    ascending order: the face rotated so its n split edges lead, and the
    midpoints of its edges (p0, p1), (p1, p2), (p2, p0). `mid` holds each
    edge's midpoint vertex in the order of `mesh.edges`, -1 for an edge
    that is not split."""
    m = np.asarray(mid, dtype=np.int64)[mesh.edge_of].reshape(-1, 3)
    mask = (m >= 0) @ [1, 2, 4]
    rows, cols = np.arange(len(m))[:, None], _CORNERS[mask]
    return np.column_stack([mesh.faces[rows, cols], m[rows, cols],
                            _SPLIT_COUNT[mask]])


def subdivide(plan: np.ndarray, diag_bits) -> np.ndarray:
    """Child faces of a split plan, each face's children in its place.

    `diag_bits` holds one diagonal bit per trisected face, in plan order
    (bits past the last trisect are ignored). Children keep their
    parent's winding.
    """
    case = plan[:, 6].copy()
    tri = np.flatnonzero(case == 2)
    bits = np.asarray(diag_bits, dtype=np.int64).ravel()
    if len(bits) < len(tri):
        raise ValueError(f"{len(bits)} diagonal bits for {len(tri)} "
                         "trisected faces")
    case[tri] += 2 * (bits[:len(tri)] != 0)
    rows = np.repeat(np.arange(len(plan)), _CHILD_COUNT[case])
    return plan[rows[:, None], _TEMPLATES[case][_CHILDREN[case]]]


def refinement(record: LevelRecord, mesh: TriMesh, ids: np.ndarray):
    """(mid, plan, bits): how `mesh`, the record's coarse mesh in any vertex
    numbering, face order and winding, refines to its fine mesh. `ids`
    maps the vertices of `mesh` to fine ids.

    mid holds the fine-id midpoint of each edge of `mesh.edges`, -1 for a
    kept edge; plan is `split_plan(mesh, mid)`; bits holds each trisected
    face's diagonal bit in plan order, 1 when the fine mesh has the edge
    (p0, m12). A face wound the other way reads the mirrored split, and
    the other bit, so either winding subdivides to the fine faces.
    """
    n = record.fine_mesh.vertex_count
    codes, odd = np.array(sorted((a * n + b, v) for v, (a, b)
                                 in record.parent_edge.items()),
                          dtype=np.int64).reshape(-1, 2).T
    keys = np.sort(ids[mesh.edges], axis=1) @ [n, 1]
    hit = _isin(codes, keys)
    mid = np.full(len(keys), -1, dtype=np.int64)
    mid[hit] = odd[np.searchsorted(codes, keys[hit])]
    plan = split_plan(mesh, mid)
    tri = plan[plan[:, 6] == 2]
    u, w = ids[tri[:, 0]], tri[:, 4]
    bits = _isin(record.fine_mesh.edges @ [n, 1],
                 np.minimum(u, w) * n + np.maximum(u, w))
    return mid, plan, bits.astype(int).tolist()


def resubdivide(record: LevelRecord) -> TriMesh:
    """Reconstruct the fine connectivity from the record by `refinement`.

    Geometry is a placeholder: even vertices keep the coarse positions,
    odd vertices sit at their parent-edge midpoints. Face order follows
    the coarse faces, so compare connectivity as a face set.
    """
    nv = record.fine_mesh.vertex_count
    positions = np.zeros((nv, 3), dtype=np.float64)
    positions[record.coarse_to_fine] = record.coarse_mesh.vertices
    for odd, (a, b) in record.parent_edge.items():
        positions[odd] = 0.5 * (positions[a] + positions[b])
    corners = record.coarse_to_fine[record.coarse_mesh.faces]
    coarse = TriMesh(positions, corners, validate=False)
    _, plan, bits = refinement(record, coarse, np.arange(nv))
    return TriMesh(positions, subdivide(plan, bits))
