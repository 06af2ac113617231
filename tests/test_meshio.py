import numpy as np
import pytest

from meshpress import shapes
from meshpress.meshio import ParseError, detect_format, load_mesh, save_mesh


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_detect_format():
    assert detect_format("a/b/mesh.obj") == "obj"
    assert detect_format("m.OFF") == "off"
    assert detect_format("m.ply") == "ply"
    with pytest.raises(ParseError):
        detect_format("mesh.stl")


def test_single_triangle_off(tmp_path):
    path = _write(tmp_path, "t.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    m = load_mesh(path)
    assert m.vertex_count == 3
    assert m.face_count == 1


def test_off_index_out_of_range(tmp_path):
    path = _write(tmp_path, "bad.off",
                  "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99\n")
    with pytest.raises(ParseError):
        load_mesh(path)


def test_off_with_comments_and_wrapping(tmp_path):
    text = "OFF # header\n3 1 0\n0 0 0  1 0 0\n0 1 0\n# comment line\n3 0 1 2\n"
    m = load_mesh(_write(tmp_path, "c.off", text))
    assert m.face_count == 1


def test_truncated_off(tmp_path):
    with pytest.raises(ParseError):
        load_mesh(_write(tmp_path, "t.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n"))


def test_missing_off_header(tmp_path):
    with pytest.raises(ParseError):
        load_mesh(_write(tmp_path, "h.off", "3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"))


def test_quad_face_rejected_not_triangulated(tmp_path):
    text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    with pytest.raises(ParseError):
        load_mesh(_write(tmp_path, "q.off", text))


def test_obj_basic(tmp_path):
    text = ("# comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\n"
            "vn 0 0 1\nvt 0 0\nf 1/1/1 2/2/1 3/3/1\n")
    m = load_mesh(_write(tmp_path, "t.obj", text))
    assert m.vertex_count == 3
    assert np.array_equal(m.faces, [[0, 1, 2]])


def test_obj_quad_rejected(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    with pytest.raises(ParseError):
        load_mesh(_write(tmp_path, "q.obj", text))


def test_obj_malformed_vertex(tmp_path):
    with pytest.raises(ParseError):
        load_mesh(_write(tmp_path, "m.obj", "v 0 0\n"))


def test_ply_basic(tmp_path):
    text = ("ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    m = load_mesh(_write(tmp_path, "t.ply", text))
    assert m.vertex_count == 3
    assert m.face_count == 1


def test_ply_binary_rejected(tmp_path):
    text = ("ply\nformat binary_little_endian 1.0\nelement vertex 0\n"
            "element face 0\nend_header\n")
    with pytest.raises(ParseError):
        load_mesh(_write(tmp_path, "b.ply", text))


def test_ply_truncated_body(tmp_path):
    text = ("ply\nformat ascii 1.0\nelement vertex 3\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n0 0 0\n1 0 0\n")
    with pytest.raises(ParseError):
        load_mesh(_write(tmp_path, "t.ply", text))


@pytest.mark.parametrize("count", ["abc", "", "-3", "3 4"])
def test_ply_bad_element_count(tmp_path, count):
    text = (f"ply\nformat ascii 1.0\nelement vertex {count}\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(ParseError, match="line 3: bad element count"):
        load_mesh(_write(tmp_path, "t.ply", text))


def test_ply_short_vertex_row(tmp_path):
    text = ("ply\nformat ascii 1.0\nelement vertex 3\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n0 0 0\n\n0 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(ParseError, match="line 9: vertex row with 2 values"):
        load_mesh(_write(tmp_path, "t.ply", text))


@pytest.mark.parametrize("name, face", [
    ("big.obj", "f 1 2 99999999999999999999999"),
    ("neg.obj", "f 1 2 -9223372036854775808"),      # -2^63, minus 1 for OBJ
    ("big.off", "3 0 1 99999999999999999999"),
])
def test_face_index_beyond_int64(tmp_path, name, face):
    if name.endswith(".obj"):
        text = f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{face}\n"
    else:
        text = f"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n{face}\n"
    with pytest.raises(ParseError, match="int64"):
        load_mesh(_write(tmp_path, name, text))


@pytest.mark.parametrize("ext", ["obj", "off", "ply"])
def test_non_utf8_file_rejected(tmp_path, ext):
    path = tmp_path / f"latin1.{ext}"
    path.write_bytes("# café\n".encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8"):
        load_mesh(str(path))


@pytest.mark.parametrize("ext", ["obj", "off", "ply"])
def test_save_load_round_trip(tmp_path, ext):
    mesh = shapes.icosphere(1)
    path = str(tmp_path / f"m.{ext}")
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert np.array_equal(back.faces, mesh.faces)
    # positions are written with 9 significant digits; a second pass
    # through the same writer must be bit-identical
    save_mesh(back, str(tmp_path / f"m2.{ext}"))
    again = load_mesh(str(tmp_path / f"m2.{ext}"))
    assert np.array_equal(again.vertices, back.vertices)
    assert np.allclose(back.vertices, mesh.vertices, rtol=1e-8, atol=1e-12)


def test_load_non_manifold_rejected(tmp_path):
    from meshpress.mesh import NonManifoldError

    text = ("OFF\n5 3 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n"
            "3 0 1 2\n3 0 1 3\n3 0 1 4\n")
    with pytest.raises(NonManifoldError):
        load_mesh(_write(tmp_path, "nm.off", text))
