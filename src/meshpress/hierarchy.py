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
pass, in `_PassTables`: it reads every face as a quadrisect, a trisect
(all rotations and diagonals at once) and a bisect from the corner table
and keeps the readings that pass every check no grouping state can
change, with their ranking terms. Topology and distinctness are checked
per reading. The odd-vertex rules (valence, the boundary rule, a split
coarse edge that is not a fine edge, the WGC test) read only a split
triple (odd vertex, parent edge), so they run in one admissibility pass
over the distinct split triples of all three patterns (25-28 % of the
readings' split edges on the CAD and hull meshes), and each reading
gathers its triples' results. The midpoint deviations and parent-edge
lengths are computed at once by `_deviations`, and each must equal
`sqrt(d.dot(d))` of its 3-vector bit for bit: a last-ulp change flips
`>` comparisons and with them the stream. Each survivor is one row of
the pass's columns, plain lists read by row id; no object is built per
candidate. The dynamic half, the `first` function `_matcher` binds once
per `_grow`, runs on every call: free faces, `even`, `forbidden`,
`parent` (a vertex is odd exactly when it has a parent edge), and the
committed coarse edges, `_PassState.edges`. Within one `_grow` those
state checks only get stricter (faces only fill, vertices only become
even or odd, edges are only added or gain groups), so `_grow` pushes
each face once per commit: a second push in the same commit would add a
heap entry with the same key and a larger sequence number, which can
never commit anything. The same holds for the whole life of a
`_PassState` (`forbidden` only grows, `_retract` starts a fresh state,
and `_dissolve_conflicts` frees faces only after the pass's last grow),
so a row `first` has seen fail never passes again: each pattern slot
(pref, f) keeps a cursor, `_PassState.cursor`, where `first` resumes its
scan, and a slot whose cursor is at its end is skipped without a call.
A pass starts from the empty state (nothing committed or forbidden),
where every static candidate is admitted and reuses no committed edge,
so pushing every face gives each face's first row of each pattern its
seed key: the first `_grow` reads those keys in the order of one sort
(`_PassTables.seed`), taking at each step the next seed or the push
heap's top, whichever is less, and only the regrows of the demotion
fixpoint push their seeds. A seed whose face is grouped or whose slot
is settled by then is skipped before its key is built (`_seeds`). A
committed group stays its row until the pass ends: `_retract` recommits
the survivors' edge entries, and `simplify_once` reads the coarse faces'
corners from the rows once. Nothing cached outlives `simplify_once`.
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
    p_v - 0.5 * s does. A sum p_a + p_b past the float64 range (both
    coordinates above half of it) overflows quietly to an infinite
    deviation, which no WGC admits; the codec's extent ceiling keeps
    every other term finite."""
    edge, dev = pos[a], pos[a]
    edge -= pos[b]
    with np.errstate(over="ignore"):
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


def _split_triples(v: np.ndarray, code: np.ndarray, nv: int) -> tuple:
    """The distinct split triples among pairs (odd vertex v < nv, code of
    its parent edge), as (codes, which, odd, inverse): codes holds the
    distinct codes ascending, triple t is odd vertex odd[t] on the edge
    codes[which[t]], and pair i is triple inverse[i]. The triples are
    told apart by one key per pair, the code's index in codes times nv
    plus v, which stays below len(code) * nv and so is exact whatever the
    codes are (they run to nv**2)."""
    codes, key = np.unique(code, return_inverse=True)
    del code
    key *= nv
    key += v
    keys, inverse = np.unique(key, return_inverse=True)
    which, odd = np.divmod(keys, nv)
    return codes, which, odd, inverse


def _row_order(face, fine, nf: int) -> np.ndarray:
    """The order of one pattern's readings by face, then by their sorted
    fine face ids, ties kept in matcher order: one stable sort, face and
    least fine id as its primary key."""
    cols = np.sort(np.array(fine), axis=0)
    return np.lexsort((*cols[:0:-1], face * nf + cols[0]))


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
    past the pattern's 4, 3 or 2; then rank, scale and score. Equal ids
    and equal codes are one int object, however many rows hold them.
    Rows run by pattern (quadrisect, trisect, bisect: pref 0, 1, 2), face
    and sorted fine face ids, ties in matcher order, and
    bounds[pref][f]:bounds[pref][f + 1] are pattern pref's rows seeded at
    face f. The array `seed` holds (seq, f, pref, row) of each face's
    first row of each pattern, ordered by the key `_grow` pushes it with
    on an empty state, seq numbering them f-major as pushes would.

    Each matcher reads every face in every rotation (and diagonal bit) at
    once, face-major, and returns the readings that pass its topology
    checks. One admissibility pass over distinct split triples,
    `_admissible`, then applies the odd-vertex rules to all three
    patterns' readings at once."""

    def __init__(self, mesh: TriMesh, wgc: WgcConfig = WgcConfig()):
        self.mesh = mesh
        self.wgc = wgc
        self.faces: list[list[int]] = mesh.faces.tolist()
        o, self._vertex = mesh.opposite, mesh.faces.ravel()
        lone = o < 0
        self.opp = np.where(lone, -1, o // 3)
        # the apex across half-edge o is the corner before o in its face
        self.apex = np.where(lone, -1, self._vertex[o - o % 3 + (o + 2) % 3])
        rim = mesh.edges[np.bincount(mesh.edge_of) == 1]
        self.boundary = self._code(*rim.T)
        self.on_boundary = np.zeros(mesh.vertex_count, dtype=bool)
        self.on_boundary[rim.ravel()] = True
        self.valence = np.bincount(mesh.edges.ravel(),
                                   minlength=mesh.vertex_count)
        self._edges = self._code(*mesh.edges.T)
        face, pref, corners, mid, fine, code, scale, score = \
            self._admissible()
        # Irregular interior vertices must survive every valid tiling, so
        # a candidate keeping one as an even corner is almost certainly in
        # the globally consistent coset: such candidates are preferred seeds.
        irregular = (self.valence != 6) & ~self.on_boundary
        rank = np.where(irregular[corners].any(axis=0), 0, 1)
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
            ids[x].tolist() for x in (corners, mid, fine))
        self.code = code.tolist()
        self.rank, self.scale, self.score = (
            x.tolist() for x in (rank, scale, score))

    def _code(self, u, w):
        return np.minimum(u, w) * self.mesh.vertex_count + np.maximum(u, w)

    def _away(self, h, w):
        """The half-edge of h's face that leaves out w, an end of h."""
        return h - h % 3 + (h + 1 + (self._vertex[h] != w)) % 3

    # Each matcher returns its readings as (face, corners, odd, fine,
    # kept): coarse corners (a, b, c); the midpoints of the split coarse
    # edges, which lead, 3, 2 or 1 of them; the fine faces; and the fine
    # edge ids of the kept coarse edges, which follow.

    def _quadrisects(self) -> tuple:
        f = np.arange(self.mesh.face_count)
        opp = self.opp.reshape(-1, 3)
        n12, n23, n31 = opp.T
        b, c, a = self.apex.reshape(-1, 3).T
        m1, m2, m3 = self.mesh.faces.T
        ok = np.flatnonzero((opp >= 0).all(axis=1)
                            & _distinct(f, n12, n23, n31)
                            & _distinct(a, b, c, m1, m2, m3))
        f, a, b, c, m1, m2, m3, n12, n23, n31 = (
            x[ok] for x in (f, a, b, c, m1, m2, m3, n12, n23, n31))
        return f, (a, b, c), (m1, m2, m3), (n31, n12, n23, f), ()

    def _trisects(self) -> tuple:
        """Each face as the middle face of a trisected coarse triangle."""
        vertex, opposite = self._vertex, self.mesh.opposite
        g, k = np.divmod(np.arange(len(vertex)), 3)    # face, rotation
        e = 3 * g + (k + 2) % 3                        # edge (mb, ma)
        has = np.flatnonzero(self.opp[e] >= 0)
        g, k, e = g[has], k[has], e[has]
        ma, b, mb = (vertex[3 * g + (k + i) % 3] for i in range(3))
        n3, y = self.opp[e], self.apex[e]
        # Both diagonal bits of each rotation, as columns 0 and 1.
        # bit 0: n3 = (ma, mb, C), diagonal from ma, hinge (ma, y);
        # bit 1: n3 = (A, ma, mb), hinge (mb, y). A hinge is the edge
        # of n3 that leaves out mb (bit 0) or ma (bit 1); z is the apex
        # across it, and {A, C} = {y, z}.
        hinge = self._away(opposite[e][:, None], np.stack([mb, ma], axis=1))
        n1, z = self.opp[hinge], self.apex[hinge]
        ok = ((n1 >= 0) & (n1 != g[:, None])
              & _distinct(y, b, ma, mb)[:, None])
        for w in (y, b, ma, mb):
            ok &= z != w[:, None]
        ok = np.flatnonzero(ok)         # in (face, rotation, bit) order
        one = ok % 2 == 1
        hinge, n1, z = (x.ravel()[ok] for x in (hinge, n1, z))
        g, ma, b, mb, n3, y = (x[ok // 2] for x in (g, ma, b, mb, n3, y))
        # the kept coarse edge (C, A) is the edge of n1 that leaves out ma
        # (bit 0) or mb (bit 1)
        kept = self.mesh.edge_of[self._away(opposite[hinge],
                                            np.where(one, mb, ma))]
        return (g, (np.where(one, y, z), b, np.where(one, z, y)), (ma, mb),
                (np.where(one, n3, n1), g, np.where(one, n1, n3)), (kept,))

    def _bisects(self) -> tuple:
        vertex, edge_of = self._vertex, self.mesh.edge_of
        f, k = np.divmod(np.arange(len(vertex)), 3)    # face, rotation
        a, m, c = (vertex[3 * f + (k + i) % 3] for i in range(3))
        e = 3 * f + (k + 1) % 3                        # edge (m, c)
        n, b = self.opp[e], self.apex[e]
        ok = np.flatnonzero((n >= 0) & _distinct(a, b, c, m))
        f, k, a, b, c, m, n, e = (x[ok] for x in (f, k, a, b, c, m, n, e))
        # the kept coarse edges: (b, c), the edge of n that leaves out m,
        # and (c, a)
        kept = (edge_of[self._away(self.mesh.opposite[e], m)],
                edge_of[3 * f + (k + 2) % 3])
        return f, (a, b, c), (m,), (f, n), kept

    def _admissible(self) -> tuple:
        """The static candidates: the readings of all three matchers whose
        odd vertices may all split their coarse edges, as row columns
        (face, pref, corners, mid, fine, code, scale, score) in row order.

        Split j of a reading puts odd j on the coarse edge (corner j,
        corner j + 1). The rules read only its split triple (odd vertex,
        parent edge), so they run once per distinct triple, over the
        triples of every reading at once, and each reading gathers its
        triples' results. Each pattern's readings are dropped as soon as
        its rows are copied out."""
        nv, nf = self.mesh.vertex_count, self.mesh.face_count
        readings = [self._quadrisects(), self._trisects(), self._bisects()]
        codes, which, v, inverse = _split_triples(
            np.concatenate([x for r in readings for x in r[2]]),
            np.concatenate([self._code(c[j], c[(j + 1) % 3])
                            for _, c, odd, _, _ in readings
                            for j in range(len(odd))]), nv)
        a, b = (x[which] for x in np.divmod(codes, nv))
        # a boundary vertex may only collapse along the boundary; an
        # interior midpoint vertex has at most 6 star faces (<= 3 per side
        # of its parent edge), so higher valence rules odd out; a split
        # coarse edge must not also exist as a fine edge
        rim = self.on_boundary[v]
        ok = ((rim | (self.valence[v] <= 6))
              & ~_isin(self._edges, codes)[which])
        t = np.flatnonzero(rim)
        ok[t] &= (_isin(self.boundary, self._code(a[t], v[t]))
                  & _isin(self.boundary, self._code(v[t], b[t])))
        t = np.flatnonzero(ok)
        dev, length = _deviations(self.mesh.vertices, v[t], a[t], b[t])
        if self.wgc.enabled:
            ok[t] = ~(dev > self.wgc.gamma * length)
        lengths, ratios = np.zeros(len(v)), np.zeros(len(v))
        lengths[t] = length
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios[t] = dev / length

        keeps, split_codes, scale, score = [], [], [], []
        at = 0
        for face, _, odd, fine, _ in readings:
            splits, n = len(odd), len(face)
            tri = inverse[at:at + splits * n].reshape(splits, n)
            at += splits * n
            keep = np.flatnonzero(ok[tri].all(axis=0))
            keep = keep[_row_order(face[keep], [x[keep] for x in fine], nf)]
            tri = tri[:, keep]
            # scale: mean parent-edge length, comparable across patterns
            # (a coarse-face perimeter would make bisects look finer than
            # quadrisects); score: worst deviation relative to the parent
            # edge length, so true subdivision structure scores low. Both
            # run over the split edges in order, as a scalar sum and max
            # would.
            total, worst = 0.0, np.zeros(len(keep))
            for j in tri:
                total = total + lengths[j]
                worst = np.where(lengths[j] > 0.0,
                                 np.where(ratios[j] > worst, ratios[j], worst),
                                 np.inf)
            keeps.append(keep)
            split_codes.append(which[tri])
            scale.append(total / splits)
            score.append(worst)
        # the per-triple arrays go before the row columns are allocated,
        # which lowers the build's peak at scale
        del inverse, which, v, a, b, rim, ok, t, dev, length, lengths, ratios

        sizes = [len(keep) for keep in keeps]
        face = np.empty(sum(sizes), dtype=np.int64)
        corners, code = (np.empty((3, len(face)), dtype=np.int64)
                         for _ in range(2))
        mid, fine = np.full((3, len(face)), -1), np.full((4, len(face)), -1)
        lo = 0
        for p, keep in enumerate(keeps):
            rows = slice(lo, lo + len(keep))
            lo += len(keep)
            f, *cols, kept = readings[p]
            readings[p] = None
            face[rows] = f[keep]
            for out, col in zip((corners, mid, fine), cols):
                for i, x in enumerate(col):
                    out[i, rows] = x[keep]
            # the kept coarse edges, which are fine edges, follow the split
            # ones; their codes index the pool past the distinct codes
            splits = len(split_codes[p])
            code[:splits, rows] = split_codes[p]
            for i, x in enumerate(kept, splits):
                code[i, rows] = len(codes) + x[keep]
        # one int object per code: the split edges' codes and the kept
        # edges' never meet (a split coarse edge is not a fine edge)
        pool = np.concatenate([codes, self._edges]).astype(object)
        return (face, np.repeat(np.arange(3), sizes), corners, mid, fine,
                pool[code], np.concatenate(scale), np.concatenate(score))

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


_SEED_BLOCK = 4096      # columns of `_PassTables.seed` listed at a time


def _seeds(st: _PassState):
    """The heap entries of a first grow's seeds, in merge order, each
    built when the merge reaches it. A seed whose face is grouped or whose
    slot is settled is skipped: on one state both only ever turn true, so
    the merge would drop it when taken."""
    t = st.tables
    grouped, bounds, cursor = st.grouped, t.bounds, st.cursor
    rank, scale, score = t.rank, t.scale, t.score
    for lo in range(0, t.seed.shape[1], _SEED_BLOCK):
        for s, f, p, r in zip(*t.seed[:, lo:lo + _SEED_BLOCK].tolist()):
            if grouped[f] < 0 and cursor[p][f] < bounds[p][f + 1]:
                yield (1, rank[r], float(p), scale[r], score[r], s, f, p)


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

    seeds = iter(())
    if seed_faces is None:
        seeds = _seeds(st)
        seq = t.seed.shape[1]
    else:
        for f in seed_faces:
            push(f, 1)
    seed = next(seeds, None)
    while seed is not None or heap:
        # the seeds are sorted, so the least entry is the next seed or
        # the heap's top (keys are unique through seq)
        if seed is not None and (not heap or seed < heap[0]):
            entry = seed
            seed = next(seeds, None)
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


def _retract(st: _PassState, bad: set[int]) -> _PassState:
    """Drop every group that makes a vertex in `bad` odd and recommit the
    survivors into a fresh state, which it returns."""
    fresh = _PassState(st.tables, st.forbidden)
    for r in st.groups:
        if not any(v in bad for v in st.tables.odds(r)):
            fresh.commit(r)
    return fresh


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
        # regrow every ungrouped face, the ones the retraction freed too
        st = _retract(st, bad)
        _grow(st, [f for f, gid in enumerate(st.grouped) if gid < 0])
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
