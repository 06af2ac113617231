import numpy as np
import pytest

from meshpress import codec, shapes
from meshpress.codec import (EncodeConfig, ProgressiveStream,
                             StreamFormatError, TruncatedStreamError,
                             decode, decode_debug, encode)
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
    dict(lifting=False),
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


# -- container --------------------------------------------------------------


def test_container_parse_round_trip(encoded):
    stream, _ = encoded["icosphere"]
    back = ProgressiveStream.from_bytes(stream.to_bytes())
    assert back.q_max == stream.q_max
    assert back.threshold == stream.threshold
    assert back.lifting == stream.lifting
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
    assert dec.q_transmitted == dec.q_recomputed
    assert dec.q_transmitted == stream.q_sequences


def test_fixed_precision_pins_qmax():
    mesh = shapes.icosphere(2)
    stream, _ = encode(mesh, EncodeConfig(adaptive=False, q_max=11))
    dec = decode_debug(stream)
    for level in dec.q_transmitted:
        assert all(q == 11 for q in level)


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
