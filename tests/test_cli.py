import numpy as np
import pytest
from click.testing import CliRunner

from meshpress import shapes
from meshpress.cli import CSV_HEADER, EXIT_PARSE, EXIT_TRUNCATED, main
from meshpress.codec import ProgressiveStream
from meshpress.mesh import TriMesh
from meshpress.meshio import load_mesh, save_mesh


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def mesh_file(tmp_path):
    path = str(tmp_path / "in.off")
    save_mesh(shapes.icosphere(2), path)
    return path


def _encode(runner, mesh_file, tmp_path, *extra):
    out = str(tmp_path / "out.pmc")
    result = runner.invoke(main, ["encode", mesh_file, out, *extra])
    assert result.exit_code == 0, result.output
    return out, result


def test_encode_decode_cycle(runner, mesh_file, tmp_path):
    out, result = _encode(runner, mesh_file, tmp_path)
    assert "total_bpv=" in result.output
    assert "levels=" in result.output
    back = str(tmp_path / "back.obj")
    result = runner.invoke(main, ["decode", out, back])
    assert result.exit_code == 0, result.output
    decoded = load_mesh(back)
    original = load_mesh(mesh_file)
    assert decoded.vertex_count == original.vertex_count
    assert decoded.face_count == original.face_count


def test_encode_dump_levels(runner, mesh_file, tmp_path):
    dump = tmp_path / "levels"
    _encode(runner, mesh_file, tmp_path, "--dump-levels", str(dump))
    files = sorted(p.name for p in dump.iterdir())
    assert "level_full.off" in files
    assert len(files) >= 2
    counts = [load_mesh(str(dump / f)).vertex_count for f in files]
    assert load_mesh(str(dump / "level_full.off")).vertex_count == max(counts)


def test_decode_prefix_level_zero(runner, mesh_file, tmp_path):
    out, _ = _encode(runner, mesh_file, tmp_path)
    base = str(tmp_path / "base.off")
    result = runner.invoke(main, ["decode", out, base, "--level", "0"])
    assert result.exit_code == 0, result.output
    original = load_mesh(mesh_file)
    assert load_mesh(base).vertex_count < original.vertex_count


def test_decode_negative_level_exits_parse(runner, mesh_file, tmp_path):
    out, _ = _encode(runner, mesh_file, tmp_path)
    result = runner.invoke(main, ["decode", out, str(tmp_path / "x.off"),
                                  "--level", "-1"])
    assert result.exit_code == EXIT_PARSE
    errors = [line for line in result.output.splitlines()
              if line.lower().startswith("error:")]
    assert len(errors) == 1 and "--level" in errors[0], result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "x.off").exists()


def test_encode_missing_file_exits_parse(runner, tmp_path):
    result = runner.invoke(main, ["encode", str(tmp_path / "nope.off"),
                                  str(tmp_path / "o.pmc")])
    assert result.exit_code != 0


def test_encode_malformed_mesh_exits_parse(runner, tmp_path):
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n")
    result = runner.invoke(main, ["encode", str(bad), str(tmp_path / "o.pmc")])
    assert result.exit_code == EXIT_PARSE
    assert "error:" in result.output


@pytest.mark.parametrize("name, data", [
    ("count.ply", b"ply\nformat ascii 1.0\nelement vertex abc\n"),
    ("nocount.ply", b"ply\nformat ascii 1.0\nelement vertex\n"),
    ("latin1.off", "OFF # café\n".encode("latin-1")),
])
def test_encode_unreadable_header_exits_parse(runner, tmp_path, name, data):
    src = tmp_path / name
    src.write_bytes(data)
    result = runner.invoke(main, ["encode", str(src), str(tmp_path / "o.pmc")])
    assert result.exit_code == EXIT_PARSE, result.output
    assert "error:" in result.output
    assert not (tmp_path / "o.pmc").exists()


BAD_MESH_FILES = {
    "bad.off": "OFF\n0 1 0\n3 0 1 2\n",
    "cut.off": "OFF\n3 1 0\n0 0 0\n1 0 0\n",
    "short.ply": ("ply\nformat ascii 1.0\nelement vertex 3\n"
                  "element face 1\nproperty list uchar int vertex_indices\n"
                  "end_header\n0 0\n1 0 0\n0 1 0\n3 0 1 2\n"),
    "big.obj": "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999999\n",
}


@pytest.mark.parametrize("name", list(BAD_MESH_FILES))
def test_encode_bad_mesh_file_names_path_once(runner, tmp_path, name):
    src = tmp_path / name
    src.write_text(BAD_MESH_FILES[name])
    result = runner.invoke(main, ["encode", str(src), str(tmp_path / "o.pmc")])
    assert result.exit_code == EXIT_PARSE, result.output
    errors = [line for line in result.output.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1, result.output
    assert errors[0].count(str(src)) == 1, errors[0]
    assert "Traceback" not in result.output
    assert not (tmp_path / "o.pmc").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_encode_non_finite_mesh_exits_parse(runner, tmp_path, bad):
    mesh = shapes.icosphere(2)
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
    lines[3] = f"v 0.5 {bad} 0.25"
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.faces.tolist()]
    src = tmp_path / "bad.obj"
    src.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["encode", str(src), str(tmp_path / "o.pmc")])
    assert result.exit_code == EXIT_PARSE, result.output
    assert "error:" in result.output and "finite" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "o.pmc").exists()


@pytest.mark.parametrize("option, value", [
    ("--threshold", "5000000000"), ("--gamma", "nan"), ("--gamma", "inf")])
def test_encode_unusable_setting_exits_parse(runner, mesh_file, tmp_path,
                                             option, value):
    out = tmp_path / "o.pmc"
    result = runner.invoke(main, ["encode", mesh_file, str(out), option, value])
    assert result.exit_code == EXIT_PARSE, result.output
    errors = [line for line in result.output.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1, result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_decode_truncated_exits_3_and_names_level(runner, mesh_file, tmp_path):
    out, _ = _encode(runner, mesh_file, tmp_path)
    data = open(out, "rb").read()
    cut = str(tmp_path / "cut.pmc")
    with open(cut, "wb") as fh:
        fh.write(data[:len(data) - 5])
    result = runner.invoke(main, ["decode", cut, str(tmp_path / "x.off")])
    assert result.exit_code == EXIT_TRUNCATED
    assert "last complete level" in result.output


def test_decode_corrupted_payload_exits_parse(runner, mesh_file, tmp_path):
    out, _ = _encode(runner, mesh_file, tmp_path)
    data = bytearray(open(out, "rb").read())
    stream = ProgressiveStream.from_bytes(bytes(data))
    assert len(stream.chunks[-1]) >= 2
    data[-2] ^= 0x10                     # inside the completion chunk
    bad = tmp_path / "bad.pmc"
    bad.write_bytes(bytes(data))
    result = runner.invoke(main, ["decode", str(bad), str(tmp_path / "x.off")])
    assert result.exit_code == EXIT_PARSE
    errors = [line for line in result.output.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1, result.output
    assert "completion chunk" in errors[0] and "CRC32" in errors[0]
    assert "Traceback" not in result.output
    assert not (tmp_path / "x.off").exists()


def test_decode_garbage_exits_parse(runner, tmp_path):
    bad = tmp_path / "bad.pmc"
    bad.write_bytes(b"NOPE" + bytes(120))
    result = runner.invoke(main, ["decode", str(bad), str(tmp_path / "x.off")])
    assert result.exit_code == EXIT_PARSE


def test_metric_command(runner, mesh_file, tmp_path):
    result = runner.invoke(main, ["metric", mesh_file, mesh_file])
    assert result.exit_code == 0, result.output
    assert "rms=" in result.output
    result = runner.invoke(main, ["metric", mesh_file, mesh_file, "--csv"])
    assert result.exit_code == 0
    header, row = result.output.strip().splitlines()
    assert header == "rms_norm,max_norm,samples"
    rms = float(row.split(",")[0])
    assert rms <= 1e-12


def test_metric_seed_env(runner, mesh_file, monkeypatch):
    r1 = runner.invoke(main, ["metric", mesh_file, mesh_file, "--csv"])
    monkeypatch.setenv("MESHPRESS_SEED", "7")
    r2 = runner.invoke(main, ["metric", mesh_file, mesh_file, "--csv"])
    s1 = int(r1.output.strip().splitlines()[1].split(",")[2])
    s2 = int(r2.output.strip().splitlines()[1].split(",")[2])
    assert s1 == s2  # same sample budget; seed changes points, not counts


@pytest.mark.parametrize("flat_arg", [0, 1], ids=["reference", "other"])
def test_metric_zero_area_input_names_its_path(runner, mesh_file, tmp_path,
                                               flat_arg):
    """Three collinear vertices make a mesh `encode` accepts but the metric
    cannot sample; the error names that input's path, once."""
    flat = str(tmp_path / "flat.off")
    save_mesh(TriMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]]), flat)
    args = [mesh_file, mesh_file]
    args[flat_arg] = flat
    result = runner.invoke(main, ["metric", *args])
    assert result.exit_code == EXIT_PARSE, result.output
    errors = [line for line in result.output.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: {flat}: cannot sample a zero-area mesh"], \
        result.output


@pytest.mark.parametrize("command", ["metric", "bench"])
def test_bad_seed_env_exits_parse(runner, mesh_file, monkeypatch, command):
    monkeypatch.setenv("MESHPRESS_SEED", "abc")
    args = [mesh_file, mesh_file] if command == "metric" else [mesh_file]
    result = runner.invoke(main, [command, *args])
    assert result.exit_code == EXIT_PARSE, result.output
    assert "error:" in result.output and "MESHPRESS_SEED" in result.output


def test_bench_csv_schema(runner, tmp_path):
    small = str(tmp_path / "s.off")
    save_mesh(shapes.icosphere(1), small)
    csv_path = str(tmp_path / "rd.csv")
    result = runner.invoke(main, ["bench", small, "-o", csv_path])
    assert result.exit_code == 0, result.output
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) >= 2
    last_rms = np.inf
    for line in lines[1:]:
        level, nbytes, bpv, rms, mx = line.split(",")
        assert int(level) >= 0 and int(nbytes) > 0
        assert float(rms) <= last_rms + 1e-9
        last_rms = float(rms)


def test_info_round_trips_configuration(runner, mesh_file, tmp_path):
    out, _ = _encode(runner, mesh_file, tmp_path,
                     "--qmax", "10", "--threshold", "600")
    result = runner.invoke(main, ["info", out])
    assert result.exit_code == 0, result.output
    fields = dict(line.split("=", 1) for line in result.output.strip().splitlines())
    assert fields["q_max"] == "10"
    assert fields["threshold"] == "600"
    assert fields["wgc"] == "on"
    assert fields["adaptive"] == "on"
    assert int(fields["levels"]) >= 1
    assert int(fields["original_vertices"]) == load_mesh(mesh_file).vertex_count


def test_info_truncated_exits_3(runner, mesh_file, tmp_path):
    out, _ = _encode(runner, mesh_file, tmp_path)
    data = open(out, "rb").read()
    cut = str(tmp_path / "cut.pmc")
    with open(cut, "wb") as fh:
        fh.write(data[:30])
    result = runner.invoke(main, ["info", cut])
    assert result.exit_code == EXIT_TRUNCATED


def _info_chunks(output):
    return [dict(field.split("=") for field in line.split())
            for line in output.splitlines() if line.startswith("chunk=")]


def test_info_prints_chunk_table(runner, mesh_file, tmp_path):
    out, _ = _encode(runner, mesh_file, tmp_path)
    stream = ProgressiveStream.from_bytes(open(out, "rb").read())
    result = runner.invoke(main, ["info", out])
    assert result.exit_code == 0, result.output
    chunks = _info_chunks(result.output)
    assert [int(c["chunk"]) for c in chunks] == list(range(stream.chunk_count))
    assert [int(c["bytes"]) for c in chunks] == [len(c) for c in stream.chunks]
    assert [c["name"] for c in chunks[:3]] == ["base_conn", "base_geom",
                                              "level_conn"]
    assert [c["level"] for c in chunks] == \
        ["-", "-"] + [str(1 + i // 2) for i in range(2 * stream.level_count)] \
        + ["-"]
    assert {c["crc"] for c in chunks} == {"ok"}


def test_info_flipped_payload_byte_exits_parse(runner, mesh_file, tmp_path):
    out, _ = _encode(runner, mesh_file, tmp_path)
    data = bytearray(open(out, "rb").read())
    stream = ProgressiveStream.from_bytes(bytes(data))
    data[-len(stream.chunks[-1]) - 1] ^= 0x04    # last byte of chunk -2
    bad = tmp_path / "bad.pmc"
    bad.write_bytes(bytes(data))
    result = runner.invoke(main, ["info", str(bad)])
    assert result.exit_code == EXIT_PARSE
    chunks = _info_chunks(result.output)
    assert len(chunks) == stream.chunk_count
    assert [c["crc"] for c in chunks] == \
        ["ok"] * (stream.chunk_count - 2) + ["bad", "ok"]
    errors = [line for line in result.output.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1, result.output
    assert f"chunk {stream.chunk_count - 2}" in errors[0]
    assert "CRC32" in errors[0]


def test_info_cut_inside_chunk_exits_3(runner, mesh_file, tmp_path):
    out, _ = _encode(runner, mesh_file, tmp_path)
    data = open(out, "rb").read()
    stream = ProgressiveStream.from_bytes(data)
    cut = tmp_path / "cut.pmc"
    cut.write_bytes(data[:len(data) - len(stream.chunks[-1]) // 2])
    result = runner.invoke(main, ["info", str(cut)])
    assert result.exit_code == EXIT_TRUNCATED
    assert "completion chunk" in result.output
