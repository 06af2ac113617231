"""Progressive mesh codec: container format, encoder, decoder, R-D harness.

Stream layout (format version 2, see docs/format.md):

    header | chunk table | BASE_CONN | BASE_GEOM
           | LVL_CONN LVL_GEOM (per level, coarsest first) | COMPLETION

Every chunk is an independently framed range-coder segment; the adaptive
models persist across chunks, so any prefix of whole chunks decodes. The
COMPLETION chunk carries per-vertex integer residuals that pin the final
geometry to the q_max grid exactly. Each chunk-table entry is the
chunk's length and the zlib CRC32 of its bytes; :class:`_ChunkTable` is
the one place that slices chunks out of raw bytes, and it tells a stream
that ends inside a chunk (TruncatedStreamError) from a chunk whose bytes
changed (StreamFormatError). Decoding checks only the chunks it reads.

The encoder is closed-loop: it runs a real :class:`ProgressiveDecoder`
beside it and derives all stream-visible decisions (edge orderings,
precision assignment, predictions) from that decoder's state, which
makes encoder/decoder symmetry structural rather than aspirational.
Each `read_*` of the decoder is a parse half (chunk bytes to integers
and symbols, through the range-coder kernels) followed by an `apply_*`
half (integers to decoder state); the encoder runs the apply halves
alone, on the integers it has just coded, so every decoder state
change is shared and only parse(encode(x)) = x is left to the coder's
own tests. A level is read in two halves: the connectivity half fixes
the split edges and runs the precision rule once for all of them on the
positions decoded so far; the geometry half dequantizes the details
with those q_i and synthesizes. The q_i are never transmitted: the
encoder writes each level's geometry chunk with the q_i its decoder
derived in between.

Both sides number a level's edges by the edge table of the decoder's
faces (`TriMesh.edges`) and refine connectivity with one rule,
`hierarchy.split_plan` (each face rotated so its split edges lead, with
their midpoints and count) and `hierarchy.subdivide`. The encoder takes
its split flags and diagonal bits from `hierarchy.refinement`, given the
decoder's faces and `coarse_to_fine[pi]`, which maps the decoder's
vertices to the level's fine ids: each split edge's midpoint is looked up
by its parent-edge code, and a trisect's bit in the fine mesh's edges.
Every chunk of plain integers is written by :func:`_encode_ints` and
read by :func:`_decode_ints`.
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .entropy import AdaptiveModel, RangeDecoder, RangeEncoder, SignedIntCoder
from .hierarchy import (WgcConfig, build_hierarchy, refinement, split_plan,
                        subdivide)
from .mesh import MeshError, NonManifoldError, TriMesh, validate_manifold
from .quantize import (DEFAULT_THRESHOLD, QuantGrid, batch_precision,
                       make_grid, round_half_away)
from .wavelet import analyze, synthesize

__all__ = ["EncodeConfig", "ProgressiveStream", "RateReport", "ChunkInfo",
           "ProgressiveDecoder", "StreamFormatError", "TruncatedStreamError",
           "encode", "decode", "decode_debug", "bench_rows",
           "BenchRow", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"PMC1"
FORMAT_VERSION = 2

_HEADER = struct.Struct("<4sBBBBIdddddIIHI")
_ENTRY = struct.Struct("<II")       # chunk-table entry: length, zlib.crc32
# Ceilings on the header's counts (docs/format.md): they bound the work
# and memory a header can make a decoder commit to.
_MAX_VERTICES = 1 << 24     # original_vertex_count
_MAX_BASE_FACES = 1 << 25   # base_face_count
# Ceiling on the grid extent, (2^q_max - 1) / scale: it keeps squared
# distances between decoded positions finite.
_MAX_EXTENT = 1e100
# Positions at most this large in magnitude (NaN is not) have finite
# midpoint sums: the decoder checks them before it averages.
_MAX_AVERAGED = float(np.finfo(np.float64).max) / 2
_FLAG_WGC = 2
_FLAG_ADAPTIVE = 4


class StreamFormatError(ValueError):
    """Malformed container (bad magic, version, or structure)."""


class TruncatedStreamError(Exception):
    """Stream ends mid-chunk; carries whatever decoded cleanly."""

    def __init__(self, message: str, last_complete_level: int | None = None,
                 mesh: TriMesh | None = None, byte_offset: int | None = None):
        super().__init__(message)
        self.last_complete_level = last_complete_level
        self.mesh = mesh
        self.byte_offset = byte_offset


@dataclass(frozen=True)
class EncodeConfig:
    q_max: int = 12
    threshold: int = DEFAULT_THRESHOLD
    wgc: bool = True
    wgc_gamma: float = 0.25
    adaptive: bool = True
    max_levels: int = 32

    def __post_init__(self):
        # reject, before any work is done, values the header cannot hold
        # and values that would silently switch a stage off
        if not 4 <= self.q_max <= 16:
            raise ValueError(f"q_max must be in [4, 16], got {self.q_max}")
        if not 0 <= self.threshold < 1 << 32:
            raise ValueError(f"threshold must be in [0, 2^32), "
                             f"got {self.threshold}")
        WgcConfig(self.wgc, self.wgc_gamma)     # gamma finite and positive
        if self.max_levels < 0:
            raise ValueError(f"max_levels must be non-negative, "
                             f"got {self.max_levels}")


@dataclass
class ProgressiveStream:
    """Header and chunks (none when :func:`_parse_container` returns it).
    `vertex_map` and `q_sequences` are encoder-side debug metadata
    (decoder vertex index -> original vertex index; the q_i per level, as
    the encoder's closed-loop decoder derived them) and are not serialized."""

    q_max: int
    threshold: int
    wgc_enabled: bool
    wgc_gamma: float
    adaptive: bool
    origin: np.ndarray
    scale: float
    base_vertex_count: int
    base_face_count: int
    level_count: int
    original_vertex_count: int
    chunks: list[bytes]
    vertex_map: np.ndarray | None = None
    q_sequences: list[list[int]] | None = None
    lifting = False     # read by perfbench/run.py; not a field

    @property
    def chunk_count(self) -> int:
        return 3 + 2 * self.level_count

    def header_bytes(self) -> bytes:
        flags = ((_FLAG_WGC if self.wgc_enabled else 0)
                 | (_FLAG_ADAPTIVE if self.adaptive else 0))
        return _HEADER.pack(
            MAGIC, FORMAT_VERSION, flags, self.q_max, 0, self.threshold,
            self.wgc_gamma, float(self.origin[0]), float(self.origin[1]),
            float(self.origin[2]), self.scale, self.base_vertex_count,
            self.base_face_count, self.level_count,
            self.original_vertex_count)

    def to_bytes(self) -> bytes:
        if len(self.chunks) != self.chunk_count:
            raise StreamFormatError(
                f"expected {self.chunk_count} chunks, have {len(self.chunks)}")
        table = b"".join(_ENTRY.pack(len(c), zlib.crc32(c))
                         for c in self.chunks)
        return self.header_bytes() + table + b"".join(self.chunks)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProgressiveStream":
        stream, table = _parse_container(data)
        stream.chunks = [table.payload(i) for i in range(len(table.entries))]
        return stream


def _chunk_layout(level_count: int) -> list[tuple[str, int, str]]:
    """(name, level, rate category) of every chunk in stream order; the
    level is -1 for chunks outside the refinement levels."""
    layout = [("base_conn", -1, "connectivity"), ("base_geom", -1, "geometry")]
    for lvl in range(1, level_count + 1):
        layout += [("level_conn", lvl, "connectivity"),
                   ("level_geom", lvl, "geometry")]
    return layout + [("completion", -1, "geometry")]


class _ChunkTable:
    """The chunk table of a raw stream and the chunk payloads it frames."""

    def __init__(self, data: bytes, level_count: int):
        self.layout = _chunk_layout(level_count)
        end = _HEADER.size + _ENTRY.size * len(self.layout)
        if len(data) < end:
            raise TruncatedStreamError("stream ends inside the chunk table",
                                       byte_offset=len(data))
        self.data = data
        self.entries = list(_ENTRY.iter_unpack(data[_HEADER.size:end]))
        self.starts = list(itertools.accumulate(
            (n for n, _ in self.entries), initial=end))

    def payload(self, i: int) -> bytes:
        """Chunk i, provided the data holds all of it and its CRC32
        matches the table."""
        (length, crc), start = self.entries[i], self.starts[i]
        name, level, _ = self.layout[i]
        where = f"{name} chunk" + (f" of level {level}" if level > 0 else "")
        if start + length > len(self.data):
            last = None if i < 2 else (i - 2) // 2
            raise TruncatedStreamError(
                f"stream truncated inside the {where}" + (
                    "" if last is None else
                    f"; last complete level is {last}"),
                last_complete_level=last, byte_offset=start)
        chunk = self.data[start:start + length]
        if zlib.crc32(chunk) != crc:
            raise StreamFormatError(f"{where} (chunk {i}) fails its CRC32 "
                                    "check")
        return chunk


def _parse_container(data: bytes):
    """The header, as a stream with no chunks, and the chunk table."""
    if len(data) < _HEADER.size:
        raise TruncatedStreamError("stream shorter than the fixed header",
                                   byte_offset=len(data))
    (magic, version, flags, q_max, reserved, threshold, gamma,
     ox, oy, oz, scale, base_nv, base_nf, level_count,
     original_nv) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise StreamFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise StreamFormatError(f"unsupported format version {version}")
    if reserved:
        raise StreamFormatError(f"reserved header byte is {reserved}, not 0")
    if flags & 1:
        raise StreamFormatError("flag bit 0 is set: streams written with the "
                                "lifting step are not read")
    for bit in range(3, 8):
        if flags >> bit & 1:
            raise StreamFormatError(f"flag bit {bit} is set; bits 3-7 are "
                                    "undefined and must be 0")
    if not 4 <= q_max <= 16:
        raise StreamFormatError(f"q_max {q_max} outside [4, 16]")
    if original_nv > _MAX_VERTICES:
        raise StreamFormatError(f"{original_nv} vertices exceed the ceiling "
                                f"of {_MAX_VERTICES}")
    if base_nf > _MAX_BASE_FACES:
        raise StreamFormatError(f"{base_nf} base faces exceed the ceiling "
                                f"of {_MAX_BASE_FACES}")
    extent = ((1 << q_max) - 1) / scale if scale > 0 else math.nan
    if not all(map(math.isfinite, (scale, ox + extent, oy + extent,
                                   oz + extent))):
        raise StreamFormatError(f"origin ({ox}, {oy}, {oz}) and scale {scale} "
                                "do not give a finite grid")
    if extent > _MAX_EXTENT:
        raise StreamFormatError(f"grid extent {extent:g} exceeds the ceiling "
                                f"of {_MAX_EXTENT:g}")
    if base_nv > original_nv:
        raise StreamFormatError(f"base mesh has {base_nv} vertices, the "
                                f"full mesh only {original_nv}")
    if 3 * base_nf > base_nv * (base_nv - 1):  # each edge borders <= 2 faces
        raise StreamFormatError(f"{base_nf} base faces cannot be manifold "
                                f"over {base_nv} vertices")
    header = ProgressiveStream(
        q_max=q_max, threshold=threshold,
        wgc_enabled=bool(flags & _FLAG_WGC), wgc_gamma=gamma,
        adaptive=bool(flags & _FLAG_ADAPTIVE),
        origin=np.array([ox, oy, oz]), scale=scale,
        base_vertex_count=base_nv, base_face_count=base_nf,
        level_count=level_count, original_vertex_count=original_nv,
        chunks=[])
    return header, _ChunkTable(data, level_count)


# -- rate accounting -------------------------------------------------------

@dataclass(frozen=True)
class ChunkInfo:
    name: str
    level: int          # -1 for non-level chunks
    nbytes: int
    category: str       # "connectivity" | "geometry" | "overhead"


@dataclass
class RateReport:
    chunks: list[ChunkInfo]
    original_vertex_count: int

    def _bits(self, category: str) -> int:
        return 8 * sum(c.nbytes for c in self.chunks if c.category == category)

    @property
    def total_bits(self) -> int:
        return 8 * sum(c.nbytes for c in self.chunks)

    @property
    def connectivity_bits(self) -> int:
        return self._bits("connectivity")

    @property
    def geometry_bits(self) -> int:
        return self._bits("geometry")

    @property
    def overhead_bits(self) -> int:
        return self._bits("overhead")

    @property
    def completion_bits(self) -> int:
        return 8 * sum(c.nbytes for c in self.chunks if c.name == "completion")

    @property
    def progressive_geometry_bits(self) -> int:
        """Geometry payload excluding the lossless completion residuals."""
        return self.geometry_bits - self.completion_bits

    @property
    def total_bpv(self) -> float:
        return self.total_bits / self.original_vertex_count

    @property
    def geometry_bpv(self) -> float:
        return self.geometry_bits / self.original_vertex_count

    @property
    def connectivity_bpv(self) -> float:
        return self.connectivity_bits / self.original_vertex_count


# -- persistent model set --------------------------------------------------

class _Models:
    """All adaptive state shared across chunks of one stream direction."""

    def __init__(self, q_max: int):
        self.base_conn = SignedIntCoder(raw_bits=32)
        self.base_geom = SignedIntCoder(raw_bits=q_max + 2)
        self.split = AdaptiveModel(2)
        self.diag = AdaptiveModel(2)
        self.detail = SignedIntCoder(raw_bits=q_max + 8)
        self.completion = SignedIntCoder(raw_bits=q_max + 2)


# -- decoder ---------------------------------------------------------------

_BLOCK = 4096       # values per decoder kernel call: bounds the list it builds


def _decode_ints(coder: SignedIntCoder, dec: RangeDecoder,
                 count: int) -> np.ndarray:
    """The next `count` integers of `coder`, decoded in blocks of at most
    _BLOCK values into one preallocated int64 array."""
    out = np.empty(count, dtype=np.int64)
    for s in range(0, count, _BLOCK):
        n = min(_BLOCK, count - s)
        out[s:s + n] = coder.decode_many(dec, n)
    return out


class ProgressiveDecoder:
    """Chunk-at-a-time decoder; also used internally by the encoder."""

    # perfbench/run.py passes `lifting` and `level_count`; both are ignored.
    def __init__(self, grid: QuantGrid, threshold: int, adaptive: bool,
                 base_vertex_count: int, base_face_count: int,
                 original_vertex_count: int, lifting: bool = False,
                 level_count: int | None = None):
        self.grid = grid
        self.threshold = threshold
        self.adaptive = adaptive
        self.base_vertex_count = base_vertex_count
        self.base_face_count = base_face_count
        self.original_vertex_count = original_vertex_count
        self.models = _Models(grid.q_max)
        # the current faces, with their edge table (its vertices unused)
        self.conn: TriMesh | None = None
        self.positions: np.ndarray | None = None
        self.final_ints: np.ndarray | None = None     # set by completion
        # per level read: the q_i the decoder derived (one precision pass)
        self.q_recomputed: list[list[int]] = []
        # state of the level whose connectivity was read last
        self.last_split_edges = np.empty((0, 2), dtype=np.int64)
        self.level_q: list[int] = []
        self._plan: np.ndarray | None = None
        self._next_conn: TriMesh | None = None

    # -- state views ------------------------------------------------------

    @property
    def mesh(self) -> TriMesh:
        if self.positions is None or self.conn is None:
            raise StreamFormatError("no base mesh decoded yet")
        return self.conn.with_vertices(self.positions)

    # -- chunk readers -----------------------------------------------------
    # Each read_* parses its chunk and hands the integers to its apply_*
    # half; the encoder calls the apply halves alone.

    def read_base_conn(self, data: bytes) -> None:
        flat = _decode_ints(self.models.base_conn, RangeDecoder(data),
                            3 * self.base_face_count)
        self.apply_base_conn(np.cumsum(flat, out=flat))

    def apply_base_conn(self, faces: np.ndarray) -> None:
        """The base faces, as one flat or (F, 3) array of vertex ids."""
        nv, flat = self.base_vertex_count, np.ravel(faces)
        bad = (flat < 0) | (flat >= nv)
        if bad.any():
            raise StreamFormatError(
                f"base face index {flat[bad.argmax()]} outside [0, {nv})")
        # subdivision keeps distinct corners and at most two faces per
        # edge, so the levels need no check of their own
        try:
            self.conn = TriMesh(np.zeros((nv, 3)), flat.reshape(-1, 3))
        except MeshError as exc:
            raise StreamFormatError(f"base mesh: {exc}") from None

    def read_base_geom(self, data: bytes) -> None:
        ints = _decode_ints(self.models.base_geom, RangeDecoder(data),
                            3 * self.base_vertex_count).reshape(-1, 3)
        self.apply_base_geom(np.cumsum(ints, axis=0, out=ints))

    def apply_base_geom(self, ints: np.ndarray) -> None:
        """The base vertices' (V, 3) grid integers."""
        self.positions = self.grid.dequantize(ints)

    def read_level(self, conn_data: bytes, geom_data: bytes) -> None:
        self.read_level_conn(conn_data)
        self.read_level_geom(geom_data)

    def read_level_conn(self, data: bytes) -> None:
        """Split flags and diagonal bits of the next level, then the q_i
        of its split edges from the positions decoded so far."""
        m, dec = self.models, RangeDecoder(data)
        flags = dec.decode_symbols(m.split, len(self.conn.edges))
        trisects = self.apply_split(np.array(flags, dtype=bool))
        self.apply_diagonals(dec.decode_symbols(m.diag, trisects))

    def apply_split(self, flags: np.ndarray) -> int:
        """The next level's split flags, one bool per edge of
        `conn.edges`. Returns the number of trisected faces, which is the
        number of diagonal bits :meth:`apply_diagonals` takes."""
        nc, level = len(self.positions), len(self.q_recomputed) + 1
        split_edges = self.conn.edges[flags]
        if nc + len(split_edges) > self.original_vertex_count:
            raise StreamFormatError(
                f"level {level} splits {len(split_edges)} edges of a "
                f"{nc}-vertex mesh, beyond the header's "
                f"{self.original_vertex_count} vertices")
        mid = np.where(flags, nc - 1 + flags.cumsum(), -1)   # r-th: nc + r
        self._plan = split_plan(self.conn, mid)
        self.last_split_edges = split_edges
        return int(np.count_nonzero(self._plan[:, 6] == 2))

    def apply_diagonals(self, bits) -> None:
        """The diagonal bits of the level split by :meth:`apply_split`,
        then the q_i of its split edges."""
        self._next_conn = TriMesh((), subdivide(self._plan, bits),
                                  validate=False)
        split_edges = self.last_split_edges
        # checked on every stream before any midpoint sum (the prediction
        # here, synthesis after the details), which a forged origin can
        # overflow
        if not np.abs(self.positions).max(initial=0.0) <= _MAX_AVERAGED:
            raise StreamFormatError(
                f"level {len(self.q_recomputed) + 1} predicts from "
                "positions that are not finite or too large to average")
        if self.adaptive:
            prediction = 0.5 * (self.positions[split_edges[:, 0]]
                                + self.positions[split_edges[:, 1]])
            self.level_q = batch_precision(prediction, self.positions,
                                           self.grid, self.threshold).tolist()
        else:
            self.level_q = [self.grid.q_max] * len(split_edges)

    def read_level_geom(self, data: bytes) -> None:
        """Details of the level read by :meth:`read_level_conn`,
        dequantized with the q_i derived there, then synthesis."""
        self.apply_level_geom(_decode_ints(
            self.models.detail, RangeDecoder(data),
            3 * len(self.level_q)).reshape(-1, 3))

    def apply_level_geom(self, ints: np.ndarray) -> None:
        """The level's (S, 3) detail integers, one row per split edge."""
        steps = 1 << (self.grid.q_max - np.array(self.level_q, dtype=np.int64))
        details = ints * steps[:, None] / self.grid.scale
        self.positions = synthesize(self.positions, self.last_split_edges,
                                    details)
        self.conn = self._next_conn
        self.q_recomputed.append(self.level_q)

    def read_completion(self, data: bytes) -> None:
        if len(self.positions) != self.original_vertex_count:
            raise StreamFormatError(
                f"decoded {len(self.positions)} vertices, the header "
                f"claims {self.original_vertex_count}")
        self.apply_completion(_decode_ints(
            self.models.completion, RangeDecoder(data),
            3 * len(self.positions)).reshape(-1, 3))

    def apply_completion(self, residuals: np.ndarray) -> None:
        """The (V, 3) residuals from the rounded positions to the final
        grid integers."""
        ints = self.grid.quantize(self.positions)
        ints += residuals
        self.final_ints = ints
        self.positions = self.grid.dequantize(ints)


# -- encoder ---------------------------------------------------------------

def _encode_ints(coder: SignedIntCoder, values: np.ndarray) -> bytes:
    """A chunk holding `values` in C order; the mirror of
    :func:`_decode_ints`."""
    enc = RangeEncoder()
    coder.encode_many(enc, np.asarray(values).ravel().tolist())
    return enc.finish()


def encode(mesh: TriMesh, config: EncodeConfig | None = None):
    """Compress a manifold mesh; returns (ProgressiveStream, RateReport)."""
    config = config or EncodeConfig()
    if not np.isfinite(mesh.vertices).all():
        raise MeshError("vertex coordinates must be finite (found NaN or inf)")
    if mesh.vertex_count > _MAX_VERTICES or mesh.face_count > _MAX_BASE_FACES:
        raise MeshError(f"{mesh.vertex_count} vertices and {mesh.face_count} "
                        f"faces exceed the format's ceilings of "
                        f"{_MAX_VERTICES} and {_MAX_BASE_FACES}")
    problems = validate_manifold(mesh)
    if problems:
        raise NonManifoldError("; ".join(problems))
    grid = make_grid(mesh, config.q_max)
    if not math.isfinite(grid.scale):
        raise MeshError(f"mesh extent too small for the grid: its scale "
                        f"{grid.scale:g} is not finite")
    if grid.levels / grid.scale > _MAX_EXTENT:
        raise MeshError(f"mesh extent {grid.levels / grid.scale:g} exceeds "
                        f"the format's ceiling of {_MAX_EXTENT:g}")
    wgc = WgcConfig(enabled=config.wgc, gamma=config.wgc_gamma)
    records = build_hierarchy(mesh, wgc, config.max_levels)
    base_mesh = records[-1].coarse_mesh if records else mesh

    m = _Models(config.q_max)
    chunks = [_encode_ints(m.base_conn, np.diff(base_mesh.faces.ravel(),
                                                prepend=0))]
    stream = ProgressiveStream(
        q_max=config.q_max, threshold=config.threshold,
        wgc_enabled=config.wgc, wgc_gamma=config.wgc_gamma,
        adaptive=config.adaptive, origin=grid.origin, scale=grid.scale,
        base_vertex_count=base_mesh.vertex_count,
        base_face_count=base_mesh.face_count, level_count=len(records),
        original_vertex_count=mesh.vertex_count, chunks=chunks)
    sim = _decoder_for(stream)
    sim.apply_base_conn(base_mesh.faces)
    ints = grid.quantize(base_mesh.vertices)
    chunks.append(_encode_ints(m.base_geom, np.diff(ints, axis=0, prepend=0)))
    sim.apply_base_geom(ints)

    pi = np.arange(base_mesh.vertex_count, dtype=np.int64)
    for rec in reversed(records):
        fine = rec.coarse_to_fine[pi]           # decoder id -> fine id
        mid, _, bits = refinement(rec, sim.conn, fine)
        split = mid >= 0
        enc = RangeEncoder()
        enc.encode_symbols(m.split, split.astype(int).tolist())
        enc.encode_symbols(m.diag, bits)
        chunks.append(enc.finish())
        sim.apply_split(split)
        sim.apply_diagonals(bits)

        odds = mid[split]
        details = analyze(rec.fine_mesh.vertices, odds,
                          rec.coarse_to_fine[pi[sim.last_split_edges]])
        steps = 1 << (config.q_max - np.array(sim.level_q, dtype=np.int64))
        ints = round_half_away(details * grid.scale / steps[:, None])
        chunks.append(_encode_ints(m.detail, ints))
        sim.apply_level_geom(ints)

        pi = np.concatenate([fine, odds])
        if len(pi) != len(sim.positions):
            raise AssertionError("encoder/decoder vertex count diverged")

    target = grid.quantize(mesh.vertices)[pi]
    residuals = target - grid.quantize(sim.positions)
    chunks.append(_encode_ints(m.completion, residuals))
    sim.apply_completion(residuals)
    if not np.array_equal(sim.final_ints, target):
        raise AssertionError("completion residuals failed to close the loop")
    stream.vertex_map, stream.q_sequences = pi, sim.q_recomputed
    return stream, _build_report(stream)


def _build_report(stream: ProgressiveStream) -> RateReport:
    infos = [ChunkInfo("header", -1, _HEADER.size, "overhead"),
             ChunkInfo("chunk_table", -1, _ENTRY.size * stream.chunk_count,
                       "overhead")]
    infos += [ChunkInfo(name, level, len(chunk), category)
              for (name, level, category), chunk
              in zip(_chunk_layout(stream.level_count), stream.chunks)]
    report = RateReport(infos, stream.original_vertex_count)
    if report.total_bits != 8 * len(stream.to_bytes()):
        raise AssertionError("rate report does not account for every bit")
    return report


# -- decoding entry points -------------------------------------------------

def _decoder_for(header: ProgressiveStream) -> ProgressiveDecoder:
    """A fresh decoder for the stream described by `header`."""
    return ProgressiveDecoder(
        grid=QuantGrid(header.origin, header.scale, header.q_max),
        threshold=header.threshold, adaptive=header.adaptive,
        base_vertex_count=header.base_vertex_count,
        base_face_count=header.base_face_count,
        original_vertex_count=header.original_vertex_count)


def decode(source, up_to_level: int | None = None) -> TriMesh:
    """Decode a full stream or any prefix of whole levels.

    `up_to_level=None` decodes everything (all levels plus the lossless
    completion residuals); `up_to_level=0` yields the base mesh. Decoding
    the final level implies the completion chunk. A negative level, or one
    beyond the stream's level count, raises ValueError.
    """
    return decode_debug(source, up_to_level).mesh


def decode_debug(source, up_to_level: int | None = None) -> ProgressiveDecoder:
    """Like :func:`decode` but returns the decoder with its debug state
    (recomputed precision sequences, final grid integers)."""
    data = source.to_bytes() if isinstance(source, ProgressiveStream) \
        else bytes(source)
    if up_to_level is not None and up_to_level < 0:
        raise ValueError(f"requested level {up_to_level} is negative")
    header, table = _parse_container(data)
    level_count = header.level_count
    if up_to_level is not None and up_to_level > level_count:
        raise ValueError(
            f"requested level {up_to_level}, stream has {level_count}")
    target = level_count if up_to_level is None else up_to_level

    dec = _decoder_for(header)
    dec.read_base_conn(table.payload(0))
    dec.read_base_geom(table.payload(1))
    try:
        for lvl in range(target):
            dec.read_level(table.payload(2 + 2 * lvl),
                           table.payload(3 + 2 * lvl))
        if target == level_count:
            dec.read_completion(table.payload(2 + 2 * level_count))
    except TruncatedStreamError as exc:
        exc.mesh = dec.mesh             # the last complete level
        raise
    return dec


# -- rate-distortion harness ----------------------------------------------

@dataclass(frozen=True)
class BenchRow:
    level: int
    nbytes: int          # cumulative stream prefix size
    bpv: float
    rms_norm: float
    max_norm: float


def bench_rows(mesh: TriMesh, config: EncodeConfig | None = None,
               seed: int = 0, samples_per_unit_area: float | None = None,
               stream: ProgressiveStream | None = None) -> list[BenchRow]:
    """One row per decodable prefix; the final level includes completion."""
    from .metrics import sampled_distance

    if stream is None:
        stream, _ = encode(mesh, config)
    data = stream.to_bytes()
    fixed = _HEADER.size + _ENTRY.size * stream.chunk_count
    nv = stream.original_vertex_count
    rows = []
    for level in range(stream.level_count + 1):
        decoded = decode(data, up_to_level=level)
        nbytes = fixed + sum(len(c) for c in stream.chunks[:2 + 2 * level])
        if level == stream.level_count:
            nbytes += len(stream.chunks[-1])
        dist = sampled_distance(mesh, decoded, samples_per_unit_area, seed)
        rows.append(BenchRow(level, nbytes, 8 * nbytes / nv,
                             dist.rms, dist.max_dist))
    return rows
