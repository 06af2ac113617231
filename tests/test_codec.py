import functools
import time
import warnings
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshpress import codec, shapes
from meshpress.codec import (EncodeConfig, ProgressiveStream,
                             StreamFormatError, TruncatedStreamError,
                             decode, decode_debug, encode)
from meshpress.entropy import RangeEncoder, SignedIntCoder
from meshpress.mesh import MeshError, NonManifoldError, TriMesh
from meshpress.quantize import QuantGrid


def canonical_faces(faces):
    out = set()
    for face in faces:
        a, b, c = (int(v) for v in face)
        out.add(min((a, b, c), (b, c, a), (c, a, b)))
    return out


def assert_lossless(mesh, stream):
    """Decoded connectivity and grid coordinates must match the input
    exactly, up to the recorded decoder->original vertex relabeling."""
    dec = decode_debug(stream)
    pi = stream.vertex_map
    assert dec.mesh.vertex_count == mesh.vertex_count
    assert dec.mesh.face_count == mesh.face_count
    relabeled = pi[dec.mesh.faces]
    assert canonical_faces(relabeled) == canonical_faces(mesh.faces)
    grid = QuantGrid(stream.origin, stream.scale, stream.q_max)
    assert np.array_equal(dec.final_ints, grid.quantize(mesh.vertices)[pi])


# -- round trips ------------------------------------------------------------


def test_round_trip_whole_corpus(corpus, encoded):
    for name, mesh in corpus.items():
        stream, _ = encoded[name]
        assert_lossless(mesh, stream)


@pytest.mark.parametrize("q_max", [4, 10, 16])
def test_round_trip_across_precisions(q_max):
    mesh = shapes.icosphere(2)
    stream, _ = encode(mesh, EncodeConfig(q_max=q_max))
    assert_lossless(mesh, stream)


@pytest.mark.parametrize("kwargs", [
    dict(adaptive=False),
    dict(wgc=False),
    dict(threshold=0),
    dict(threshold=600),
    dict(max_levels=1),
])
def test_round_trip_across_configs(kwargs):
    mesh = shapes.icosphere(2)
    stream, _ = encode(mesh, EncodeConfig(**kwargs))
    assert_lossless(mesh, stream)


@pytest.mark.parametrize("make", [
    lambda: shapes.cad_solid(subdivisions=2),
    lambda: shapes.icosphere(3),
    lambda: shapes.grid_patch(9, 9),
], ids=["cad_solid_sub2", "icosphere_3", "grid_9x9"])
def test_windings_follow_the_base_mesh(make):
    """Windings are not coded: each decoded face is wound like its
    base-mesh ancestor. With about half the faces reversed, the decoded
    faces are the input's as unoriented triples, not as oriented ones,
    and the grid coordinates are exact."""
    mesh = make()
    flip = np.random.default_rng(1).random(mesh.face_count) < 0.5
    faces = mesh.faces.copy()
    faces[flip] = faces[flip][:, ::-1]
    mesh = TriMesh(mesh.vertices, faces)
    stream, _ = encode(mesh)
    dec = decode_debug(stream)
    pi = stream.vertex_map
    relabeled = pi[dec.mesh.faces]
    assert ({frozenset(f) for f in relabeled.tolist()}
            == {frozenset(f) for f in faces.tolist()})
    assert canonical_faces(relabeled) != canonical_faces(faces)
    grid = QuantGrid(stream.origin, stream.scale, stream.q_max)
    assert np.array_equal(dec.final_ints, grid.quantize(mesh.vertices)[pi])


def test_non_manifold_input_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0], [-1, -1, 0]]
    faces = [[0, 1, 2], [0, 3, 4]]      # bowtie at vertex 0
    with pytest.raises(NonManifoldError):
        encode(TriMesh(verts, faces))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected_before_analysis(monkeypatch, bad):
    mesh = shapes.icosphere(2)
    verts = mesh.vertices.copy()
    verts[5, 1] = bad

    def must_not_run(*args, **kwargs):
        raise AssertionError("non-finite input reached the pipeline")

    monkeypatch.setattr(codec, "validate_manifold", must_not_run)
    monkeypatch.setattr(codec, "build_hierarchy", must_not_run)
    with pytest.raises(MeshError, match="finite"):
        encode(TriMesh(verts, mesh.faces))


@pytest.mark.parametrize("kwargs", [
    dict(q_max=3), dict(q_max=17),
    dict(threshold=-1), dict(threshold=2**32),
    dict(wgc_gamma=0.0), dict(wgc_gamma=np.nan), dict(wgc_gamma=np.inf),
    dict(wgc=False, wgc_gamma=np.nan),
    dict(max_levels=-1),
])
def test_unusable_config_rejected_before_analysis(monkeypatch, kwargs):
    def must_not_run(*args, **kw):
        raise AssertionError("an unusable config reached the pipeline")

    monkeypatch.setattr(codec, "build_hierarchy", must_not_run)
    with pytest.raises(ValueError):
        encode(shapes.icosphere(1), EncodeConfig(**kwargs))


def test_config_range_limits_accepted():
    mesh = shapes.icosphere(1)
    stream, _ = encode(mesh, EncodeConfig(threshold=2**32 - 1, max_levels=0))
    assert stream.threshold == 2**32 - 1 and stream.level_count == 0
    assert_lossless(mesh, stream)


# -- container --------------------------------------------------------------


def test_container_parse_round_trip(encoded):
    stream, _ = encoded["icosphere"]
    back = ProgressiveStream.from_bytes(stream.to_bytes())
    assert back.q_max == stream.q_max
    assert back.threshold == stream.threshold
    assert back.adaptive == stream.adaptive
    assert back.level_count == stream.level_count
    assert np.array_equal(back.origin, stream.origin)
    assert back.scale == stream.scale
    assert back.chunks == stream.chunks


def test_bad_magic_rejected(encoded):
    data = bytearray(encoded["icosphere"][0].to_bytes())
    data[:4] = b"NOPE"
    with pytest.raises(StreamFormatError):
        decode(bytes(data))


def test_bad_version_rejected(encoded):
    data = bytearray(encoded["icosphere"][0].to_bytes())
    data[4] = 99
    with pytest.raises(StreamFormatError):
        decode(bytes(data))


_HEADER_FIELDS = ("magic", "version", "flags", "q_max", "reserved",
                  "threshold", "gamma", "ox", "oy", "oz", "scale", "base_nv",
                  "base_nf", "level_count", "original_nv")


def _with_header(data: bytes, **changes) -> bytes:
    fields = dict(zip(_HEADER_FIELDS, codec._HEADER.unpack_from(data)))
    fields.update(changes)
    return codec._HEADER.pack(*fields.values()) + data[codec._HEADER.size:]


@pytest.mark.parametrize("changes", [
    dict(reserved=1),
    dict(q_max=3),
    dict(q_max=17),
    dict(scale=0.0),
    dict(scale=-2.0),
    dict(scale=float("nan")),
    dict(scale=float("inf")),
    dict(scale=1e-320),                  # grid extent overflows
    dict(ox=float("nan")),
    dict(oz=float("-inf")),
    dict(oy=1.79e308, scale=1e-304),     # far grid corner overflows
], ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
def test_header_field_rejected(encoded, changes):
    data = _with_header(encoded["icosphere"][0].to_bytes(), **changes)
    with pytest.raises(StreamFormatError):
        ProgressiveStream.from_bytes(data)
    with pytest.raises(StreamFormatError):
        decode(data)


def test_header_base_counts_bounded(encoded):
    stream, _ = encoded["icosphere"]
    data = stream.to_bytes()
    nv = stream.base_vertex_count
    with pytest.raises(StreamFormatError, match="vertices"):
        decode(_with_header(data, base_nv=stream.original_vertex_count + 1))
    with pytest.raises(StreamFormatError, match="manifold"):
        decode(_with_header(data, base_nf=nv * (nv - 1) // 3 + 1))
    # the tetrahedron meets the face bound with equality
    tet, _ = encode(shapes.tetrahedron())
    assert 3 * tet.base_face_count == tet.base_vertex_count * (
        tet.base_vertex_count - 1)
    assert decode(tet).face_count == 4


@pytest.mark.parametrize("changes", [
    dict(original_nv=(1 << 24) + 1),
    dict(base_nv=1 << 24, original_nv=1 << 24, base_nf=(1 << 25) + 1),
], ids=["original_nv", "base_nf"])
def test_header_count_ceilings(monkeypatch, encoded, changes):
    """A header claiming counts above the ceilings of docs/format.md is
    rejected before any payload is decoded."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("a payload was decoded")

    monkeypatch.setattr(codec, "RangeDecoder", must_not_run)
    data = _with_header(encoded["icosphere"][0].to_bytes(), **changes)
    with pytest.raises(StreamFormatError, match="ceiling"):
        ProgressiveStream.from_bytes(data)
    with pytest.raises(StreamFormatError, match="ceiling"):
        decode(data)


@pytest.mark.parametrize("ceiling", ["_MAX_VERTICES", "_MAX_BASE_FACES"])
def test_encode_rejects_mesh_above_ceiling(monkeypatch, ceiling):
    mesh = shapes.icosphere(1)
    monkeypatch.setattr(codec, ceiling, min(mesh.vertex_count,
                                            mesh.face_count) - 1)

    def must_not_run(*args, **kwargs):
        raise AssertionError("a mesh above the ceilings reached the pipeline")

    monkeypatch.setattr(codec, "build_hierarchy", must_not_run)
    with pytest.raises(MeshError, match="ceiling"):
        encode(mesh)


@pytest.mark.parametrize("make", [lambda: shapes.icosphere(2),
                                  lambda: shapes.cad_solid(subdivisions=1)],
                         ids=["icosphere2", "cad1"])
@pytest.mark.parametrize("scale", [1e-160, 1e-199, 1e-300])
def test_header_scale_beyond_extent_ceiling(make, scale):
    """A scale whose grid is finite but wider than the extent ceiling
    would overflow squared distances in the precision rule: it is a
    format error, with no warning on the way."""
    data = _with_header(encode(make())[0].to_bytes(), scale=scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StreamFormatError, match="extent"):
            decode(data)


def test_forged_origin_overflow_raises_without_warning():
    """One bit flipped into header byte 35, the top exponent bit of
    origin[1], sets it to about -1.7e308. The header check passes, as
    origin + extent is finite, but the first level's midpoint sum would
    overflow: every level past the base is a format error, with no
    warning on the way, and the base mesh alone decodes. A fixed-precision
    stream predicts no q_i, but its synthesis sums the same midpoints."""
    for adaptive in (True, False):
        stream = encode(shapes.random_convex(60),
                        EncodeConfig(adaptive=adaptive))[0]
        data = bytearray(stream.to_bytes())
        assert data[35] == 0xBF
        data[35] |= 0x40
        data = bytes(data)
        assert stream.level_count >= 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert decode(data, up_to_level=0).vertex_count > 0
            for level in [*range(1, stream.level_count + 1), None]:
                with pytest.raises(StreamFormatError, match="too large"):
                    decode(data, up_to_level=level)


def test_encode_extent_ceiling():
    """The encoder rejects a mesh wider than the extent ceiling at the
    door, and one just inside it still round-trips losslessly."""
    mesh = shapes.cad_solid(subdivisions=1)
    with pytest.raises(MeshError, match="ceiling"):
        encode(TriMesh(mesh.vertices * 1e160, mesh.faces))
    wide = TriMesh(mesh.vertices * 1e90, mesh.faces)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stream, _ = encode(wide)
        assert_lossless(wide, stream)


def test_encode_rejects_non_finite_grid_scale():
    """A mesh so small that its grid scale overflows to inf is a
    MeshError at the door, with no warning on the way; one whose scale is
    large but finite still round-trips losslessly."""
    mesh = shapes.cad_solid(subdivisions=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for factor in (1e-318, 1e-310):
            with pytest.raises(MeshError, match="scale"):
                encode(TriMesh(mesh.vertices * factor, mesh.faces))
        tiny = TriMesh(mesh.vertices * 1e-300, mesh.faces)
        stream, _ = encode(tiny)
        assert_lossless(tiny, stream)


@pytest.mark.parametrize("place", [
    lambda v: np.zeros_like(v) + [1.5, -2.0, 3.0],     # one point
    lambda v: v * 1e-300 + 1e300,                      # extent lost to offset
], ids=["coincident", "offset"])
def test_encode_rejects_zero_extent(place):
    """A mesh whose vertices all sit at one point, exactly or after
    rounding, is a MeshError like any other unusable geometry."""
    mesh = shapes.icosphere(1)
    with pytest.raises(MeshError, match="zero-extent"):
        encode(TriMesh(place(mesh.vertices), mesh.faces))


_FIXED_CONNECTIVITY = {"icosphere": shapes.icosphere(1),
                       "cad": shapes.cad_solid(subdivisions=1)}
_AXIS_SCALE = st.one_of(st.just(0.0),
                        st.floats(-320, 308).map(lambda e: 10.0 ** e))
_OFFSET = st.one_of(st.just(0.0),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_FIXED_CONNECTIVITY)),
       st.tuples(_AXIS_SCALE, _AXIS_SCALE, _AXIS_SCALE),
       st.tuples(_OFFSET, _OFFSET, _OFFSET), st.data())
def test_any_coordinates_round_trip_or_raise_mesh_error(name, scale, offset,
                                                        data):
    """Fixed connectivity under any coordinates: each axis scaled by 0 (a
    flattened axis) or 1e-320 to 1e308 and offset by any finite float,
    with any set of vertices moved onto vertex 0. The mesh either
    round-trips losslessly on the q_max grid or raises MeshError, and
    nothing warns on the way."""
    base = _FIXED_CONNECTIVITY[name]
    with np.errstate(over="ignore"):
        vertices = base.vertices * scale + offset
    vertices[data.draw(st.lists(st.integers(0, base.vertex_count - 1)))] = \
        vertices[0]
    mesh = TriMesh(vertices, base.faces)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            stream, _ = encode(mesh)
        except MeshError:
            return
        assert_lossless(mesh, stream)


@pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "fixed"])
@pytest.mark.parametrize("make", [lambda: shapes.cad_solid(subdivisions=2),
                                  lambda: shapes.random_convex(200)],
                         ids=["cad", "convex"])
def test_encode_range_decodes_nothing(monkeypatch, make, adaptive):
    """The encoder applies the integers it has just coded to its decoder
    and parses none of its own chunks; the stream still decodes to the
    input exactly."""
    class Refused:
        def __init__(self, data):
            raise AssertionError("encode range-decoded a chunk")

    mesh = make()
    with monkeypatch.context() as patch:
        patch.setattr(codec, "RangeDecoder", Refused)
        stream, _ = encode(mesh, EncodeConfig(adaptive=adaptive))
    assert stream.level_count > 0
    assert_lossless(mesh, stream)


def test_non_finite_prediction_rejected(encoded):
    """An origin near the float limit passes the header checks, but the
    edge midpoints the precision rule searches from overflow."""
    data = _with_header(encoded["icosphere"][0].to_bytes(), ox=-1.5e308)
    with np.errstate(over="ignore"), \
            pytest.raises(StreamFormatError, match="not finite"):
        decode(data)


def test_decoded_vertex_count_matches_header(encoded):
    stream, _ = encoded["icosphere"]
    data = stream.to_bytes()
    nv = stream.original_vertex_count
    assert stream.base_vertex_count + 1 < nv
    # too small: the first level's splits overshoot the claim
    with pytest.raises(StreamFormatError, match="splits"):
        decode(_with_header(data, original_nv=stream.base_vertex_count + 1))
    # too large: every level fits, the completion finds the mesh short
    with pytest.raises(StreamFormatError, match="claims"):
        decode(_with_header(data, original_nv=nv + 1))


def test_base_face_index_out_of_range_rejected(encoded):
    stream, _ = encoded["icosphere"]
    coder = SignedIntCoder(raw_bits=32)
    enc = RangeEncoder()
    for delta in (0, 1, stream.base_vertex_count):  # third index == count
        coder.encode(enc, delta)
    stream = ProgressiveStream.from_bytes(stream.to_bytes())
    stream.chunks[0] = enc.finish()
    with pytest.raises(StreamFormatError, match="face index"):
        decode(stream)


def _stream_over_base(faces, nv, level_count):
    """A stream with valid CRCs whose base mesh is `faces` over `nv`
    vertices at the origin, followed by `level_count` levels that split
    no edge."""
    m = codec._Models(12)
    chunks = [codec._encode_ints(m.base_conn, np.diff(np.ravel(faces),
                                                      prepend=0)),
              codec._encode_ints(m.base_geom, np.zeros((nv, 3), dtype=int))]
    edge_count = len({tuple(sorted((f[i], f[(i + 1) % 3])))
                      for f in faces for i in range(3)})
    for _ in range(level_count):
        enc = RangeEncoder()
        enc.encode_symbols(m.split, [0] * edge_count)
        chunks += [enc.finish(), codec._encode_ints(m.detail, [])]
    chunks.append(codec._encode_ints(m.completion,
                                     np.zeros((nv, 3), dtype=int)))
    return ProgressiveStream(
        q_max=12, threshold=0, wgc_enabled=False, wgc_gamma=0.25,
        adaptive=False, origin=np.zeros(3), scale=1.0,
        base_vertex_count=nv, base_face_count=len(faces),
        level_count=level_count, original_vertex_count=nv,
        chunks=chunks).to_bytes()


@pytest.mark.parametrize("faces, nv, level_count", [
    ([(0, 1, 2), (1, 0, 3), (0, 1, 4)], 5, 0),
    ([(0, 1, 2), (1, 0, 3), (0, 1, 4)], 5, 1),
    ([(0, 0, 1)], 3, 0),
], ids=["edge_in_three_faces", "edge_in_three_faces_one_level",
        "repeated_index"])
def test_invalid_base_mesh_rejected(faces, nv, level_count):
    """A base mesh that TriMesh validation rejects is a format error,
    whatever the level count, even when every CRC matches."""
    data = _stream_over_base(faces, nv, level_count)
    with pytest.raises(StreamFormatError, match="base mesh"):
        decode(data)
    assert decode(_stream_over_base([(0, 1, 2)], nv,
                                    level_count)).face_count == 1


@pytest.mark.parametrize("block", [1, 7])
def test_decoder_block_size_does_not_change_the_mesh(monkeypatch, encoded,
                                                     block):
    """The readers decode in blocks; blocks far smaller than any chunk
    give the mesh that whole-chunk blocks give."""
    stream, _ = encoded["cad"]
    want = decode(stream)
    monkeypatch.setattr(codec, "_BLOCK", block)
    got = decode(stream)
    assert np.array_equal(got.faces, want.faces)
    assert np.array_equal(got.vertices, want.vertices)


def _table_end(stream) -> int:
    return codec._HEADER.size + codec._ENTRY.size * stream.chunk_count


def _chunk_bounds(stream) -> list[tuple[int, int]]:
    """(start, end) byte offsets of every chunk in `stream.to_bytes()`."""
    ends = np.cumsum([_table_end(stream)] + [len(c) for c in stream.chunks])
    return list(zip(ends[:-1].tolist(), ends[1:].tolist()))


def _flip(data: bytes, bit: int) -> bytes:
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


@pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "fixed"])
@pytest.mark.parametrize("make", [
    lambda: shapes.icosphere(2),
    lambda: shapes.cad_solid(subdivisions=2),
], ids=["icosphere_2", "cad_solid_sub2"])
def test_payload_bit_flips_raise_format_error(make, adaptive):
    """One seeded bit flip in every non-empty chunk, then 200 seeded
    flips over the whole payload: the CRC32 of the chunk table catches
    each one, whatever the chunk kind."""
    stream, _ = encode(make(), EncodeConfig(adaptive=adaptive))
    data = stream.to_bytes()
    rng = np.random.default_rng(5)
    bits = [int(rng.integers(8 * start, 8 * end))
            for start, end in _chunk_bounds(stream) if end > start]
    table_end = _table_end(stream)
    bits += (8 * table_end + rng.choice(8 * (len(data) - table_end), size=200,
                                        replace=False)).tolist()
    for bit in bits:
        with pytest.raises(StreamFormatError, match="CRC32"):
            decode(_flip(data, bit))


def test_truncation_and_corruption_told_apart(encoded):
    """A cut inside chunk k is a truncation that names the last complete
    level; one changed byte in the same chunk is corruption that names
    the chunk."""
    stream, _ = encoded["icosphere"]
    data = stream.to_bytes()
    layout = codec._chunk_layout(stream.level_count)
    for k, (start, end) in enumerate(_chunk_bounds(stream)):
        if end == start:
            continue
        with pytest.raises(TruncatedStreamError) as info:
            decode(data[:(start + end) // 2])
        assert info.value.last_complete_level == (None if k < 2
                                                  else (k - 2) // 2)
        name, level, _ = layout[k]
        with pytest.raises(StreamFormatError, match=name) as info:
            decode(_flip(data, 8 * ((start + end) // 2)))
        assert f"chunk {k}" in str(info.value)
        if level > 0:
            assert f"level {level}" in str(info.value)


def test_preview_skips_unread_damaged_chunks(encoded):
    stream, _ = encoded["icosphere"]
    start, end = _chunk_bounds(stream)[-1]
    assert end > start
    damaged = _flip(stream.to_bytes(), 8 * start + 3)
    preview = decode(damaged, up_to_level=stream.level_count - 1)
    assert preview.vertex_count < stream.original_vertex_count
    with pytest.raises(StreamFormatError, match="completion"):
        decode(damaged)


def test_bit_flips_raise_only_documented_errors():
    """Seeded single-bit flips over the header, the chunk table and the
    payload: each decodes to a mesh or raises one of the two documented
    stream errors, quickly and without numpy warnings."""
    stream, _ = encode(shapes.icosphere(2))
    data = stream.to_bytes()
    table_end = _table_end(stream)
    rng = np.random.default_rng(2024)
    header_bits = rng.choice(8 * table_end, size=150, replace=False)
    payload_bits = 8 * table_end + rng.choice(8 * (len(data) - table_end),
                                              size=250, replace=False)
    outcomes = {"mesh": 0, "format": 0, "truncated": 0}
    for bit in np.concatenate([header_bits, payload_bits]):
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                decode(_flip(data, int(bit)))
                outcomes["mesh"] += 1
            except StreamFormatError:
                outcomes["format"] += 1
            except TruncatedStreamError:
                outcomes["truncated"] += 1
        assert time.perf_counter() - start < 5.0, f"bit {bit}"
    assert all(outcomes.values()), outcomes


@functools.cache
def _fuzz_stream(name: str) -> ProgressiveStream:
    make = {"icosphere": lambda: shapes.icosphere(2),
            "cad": lambda: shapes.cad_solid(subdivisions=1),
            "convex": lambda: shapes.random_convex(60)}[name]
    return encode(make())[0]


@st.composite
def _mutated_streams(draw) -> bytes:
    """A corpus stream with 1-3 overwritten bytes, one flipped bit or a
    truncation. Overwrites and flips land past the fixed header: a forged
    header claim (counts, origin, scale) is not a random mutation, and
    bounding its cost needs a byte bound on the decoder's work. With
    `refresh`, every chunk-table entry gets the CRC32 of the bytes it now
    frames, so that a damaged payload reaches the range decoders."""
    stream = _fuzz_stream(draw(st.sampled_from(["cad", "convex",
                                                "icosphere"])))
    data = bytearray(stream.to_bytes())
    head, end = codec._HEADER.size, _table_end(stream)
    kind = draw(st.sampled_from(["overwrite", "flip", "truncate"]))
    if kind == "overwrite":
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(head, len(data) - 1))] = \
                draw(st.integers(0, 255))
    elif kind == "flip":
        bit = draw(st.integers(8 * head, 8 * len(data) - 1))
        data[bit // 8] ^= 1 << bit % 8
    else:
        del data[draw(st.integers(0, len(data) - 1)):]
    if kind != "truncate" and draw(st.booleans()):
        start = end
        for i in range(stream.chunk_count):
            at = head + codec._ENTRY.size * i
            length = codec._ENTRY.unpack_from(data, at)[0]
            codec._ENTRY.pack_into(data, at, length,
                                   zlib.crc32(data[start:start + length]))
            start += length
    return bytes(data)


def test_mutated_streams_decode_or_raise_documented_errors():
    """Any random mutation of a corpus stream decodes to a mesh or raises
    one of the two documented stream errors, with no warning, quickly."""
    outcomes = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_mutated_streams())
    def decode_one(data):
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                assert isinstance(decode(data), TriMesh)
                outcomes["mesh"] += 1
            except StreamFormatError:
                outcomes["format"] += 1
            except TruncatedStreamError:
                outcomes["truncated"] += 1
        assert time.perf_counter() - start < 1.0

    decode_one()
    assert min(outcomes.values()) > 20, outcomes


def test_encoding_is_deterministic():
    mesh = shapes.bumpy_sphere(2)
    a, _ = encode(mesh, EncodeConfig())
    b, _ = encode(mesh, EncodeConfig())
    assert a.to_bytes() == b.to_bytes()


# -- progressive decoding ---------------------------------------------------


def test_every_prefix_level_is_a_valid_mesh(corpus, encoded):
    from meshpress.mesh import validate_manifold

    mesh = corpus["icosphere"]
    stream, _ = encoded["icosphere"]
    data = stream.to_bytes()
    prev = 0
    for level in range(stream.level_count + 1):
        m = decode(data, up_to_level=level)
        assert m.vertex_count > prev
        prev = m.vertex_count
        assert validate_manifold(m) == []
    assert prev == mesh.vertex_count


def test_level_beyond_stream_rejected(encoded):
    stream, _ = encoded["icosphere"]
    with pytest.raises(ValueError):
        decode(stream.to_bytes(), up_to_level=stream.level_count + 1)


@pytest.mark.parametrize("level", [-1, -5])
def test_negative_level_rejected(encoded, level):
    # a negative level used to fall through to the base mesh
    data = encoded["icosphere"][0].to_bytes()
    with pytest.raises(ValueError, match="negative"):
        decode(data, up_to_level=level)
    with pytest.raises(ValueError, match="negative"):
        decode_debug(data, up_to_level=level)


def test_truncation_sweep_names_last_level(encoded):
    stream, _ = encoded["grid"]
    data = stream.to_bytes()
    # cut inside every chunk and check the reported resume point
    fixed = len(data) - sum(len(c) for c in stream.chunks)
    offset = fixed
    boundaries = []
    for c in stream.chunks:
        boundaries.append((offset, offset + len(c)))
        offset += len(c)
    for idx, (start, end) in enumerate(boundaries):
        cut = (start + end) // 2
        if cut == end:
            continue
        with pytest.raises(TruncatedStreamError) as info:
            decode(data[:cut])
        err = info.value
        if idx < 2:
            assert err.last_complete_level is None
        elif idx < len(boundaries) - 1:
            assert err.last_complete_level == (idx - 2) // 2
            assert err.mesh is not None
        else:
            assert err.last_complete_level == stream.level_count


def test_truncated_header_and_table():
    with pytest.raises(TruncatedStreamError):
        decode(b"PMC1")
    stream, _ = encode(shapes.icosphere(1), EncodeConfig())
    data = stream.to_bytes()
    with pytest.raises(TruncatedStreamError):
        decode(data[:40])  # inside the fixed header / chunk table


# -- rate accounting --------------------------------------------------------


def test_report_accounts_for_every_byte(encoded):
    for name, (stream, report) in encoded.items():
        assert report.total_bits == 8 * len(stream.to_bytes())
        split = (report.connectivity_bits + report.geometry_bits
                 + report.overhead_bits)
        assert split == report.total_bits
        assert report.progressive_geometry_bits == \
            report.geometry_bits - report.completion_bits
        assert report.total_bpv == pytest.approx(
            report.total_bits / stream.original_vertex_count)


def test_zero_level_stream_still_lossless():
    mesh = shapes.tetrahedron()
    stream, report = encode(mesh, EncodeConfig())
    assert stream.level_count == 0
    assert_lossless(mesh, stream)


# -- precision symmetry -----------------------------------------------------


@pytest.mark.parametrize("threshold", [0, 200, 600])
def test_decoder_recomputes_encoder_precisions(threshold):
    mesh = shapes.icosphere(2)
    stream, _ = encode(mesh, EncodeConfig(threshold=threshold))
    dec = decode_debug(stream)
    assert dec.q_recomputed == stream.q_sequences
    assert all(type(q) is int for level in dec.q_recomputed for q in level)


def test_fixed_precision_pins_qmax():
    mesh = shapes.icosphere(2)
    stream, _ = encode(mesh, EncodeConfig(adaptive=False, q_max=11))
    dec = decode_debug(stream)
    assert len(dec.q_recomputed) == stream.level_count
    for level in dec.q_recomputed:
        assert level and all(q == 11 for q in level)


@pytest.mark.parametrize("adaptive", [True, False])
def test_one_precision_pass_per_level(monkeypatch, adaptive):
    calls = []
    rule = codec.batch_precision

    def counted(*args):
        calls.append(len(args[0]))
        return rule(*args)

    monkeypatch.setattr(codec, "batch_precision", counted)
    stream, _ = encode(shapes.icosphere(2), EncodeConfig(adaptive=adaptive))
    assert stream.level_count >= 2
    assert len(calls) == (stream.level_count if adaptive else 0)
    calls.clear()
    decode(stream)
    assert len(calls) == (stream.level_count if adaptive else 0)
    if adaptive:
        assert calls == [len(level) for level in stream.q_sequences]


def test_level_details_within_quantizer_bound():
    """Each new vertex of a level, before completion, is off its input
    vertex by at most half its own quantizer step plus half a q_max grid
    unit (the rounding of the coarse vertices it is predicted from), per
    axis."""
    mesh = shapes.icosphere(2)
    stream, _ = encode(mesh, EncodeConfig(max_levels=1))
    assert stream.level_count == 1
    header, _ = codec._parse_container(stream.to_bytes())
    dec = codec._decoder_for(header)
    dec.read_base_conn(stream.chunks[0])
    dec.read_base_geom(stream.chunks[1])
    dec.read_level(stream.chunks[2], stream.chunks[3])
    assert dec.final_ints is None
    nc = stream.base_vertex_count
    q = np.array(dec.q_recomputed[0])
    assert len(q) == len(dec.positions) - nc > 0
    assert 4 <= q.min() and q.max() <= stream.q_max
    bound = (0.5 * 2.0 ** (stream.q_max - q) + 0.5) / stream.scale
    err = np.abs(dec.positions[nc:] - mesh.vertices[stream.vertex_map[nc:]])
    assert np.all(err <= bound[:, None] * (1 + 1e-9))


# -- rate-distortion harness ------------------------------------------------


def test_bench_rows_shape_and_monotone_rate(corpus, encoded):
    mesh = corpus["icosphere"]
    stream, _ = encoded["icosphere"]
    rows = codec.bench_rows(mesh, stream=stream, seed=0)
    assert len(rows) == stream.level_count + 1
    assert [r.level for r in rows] == list(range(stream.level_count + 1))
    nbytes = [r.nbytes for r in rows]
    assert nbytes == sorted(nbytes)
    assert rows[-1].nbytes == len(stream.to_bytes())
    for r in rows:
        assert r.bpv == pytest.approx(8 * r.nbytes / mesh.vertex_count)
