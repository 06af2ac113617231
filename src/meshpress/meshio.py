"""ASCII mesh file ingestion and export (OBJ, OFF, ascii PLY).

Only triangular faces are accepted; polygons with more sides are rejected
rather than triangulated so that vertex/face counts used in rate
accounting always match the source file.
"""

from __future__ import annotations

import os

from .mesh import MeshError, TriMesh

__all__ = ["ParseError", "load_mesh", "save_mesh", "detect_format"]

_FORMATS = ("obj", "off", "ply")


class ParseError(MeshError):
    """Malformed mesh file."""


def detect_format(path: str) -> str:
    ext = os.path.splitext(path)[1].lower().lstrip(".")
    if ext not in _FORMATS:
        raise ParseError(f"cannot infer mesh format from extension {ext!r}")
    return ext


def load_mesh(path: str, fmt: str | None = None) -> TriMesh:
    """Load and validate a triangle mesh from an ASCII file. Errors do not
    name `path`; the caller that knows how to present it adds it."""
    fmt = fmt or detect_format(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None
    if fmt == "obj":
        verts, faces = _parse_obj(text)
    elif fmt == "off":
        verts, faces = _parse_off(text)
    elif fmt == "ply":
        verts, faces = _parse_ply(text)
    else:
        raise ParseError(f"unsupported format {fmt!r}")
    try:
        return TriMesh(verts, faces)
    except MeshError as exc:
        if type(exc) is MeshError:
            # invalid file content (e.g. out-of-range index)
            raise ParseError(str(exc)) from exc
        raise


def save_mesh(mesh: TriMesh, path: str, fmt: str | None = None) -> None:
    fmt = fmt or detect_format(path)
    lines: list[str] = []
    if fmt == "obj":
        for x, y, z in mesh.vertices:
            lines.append(f"v {x:.9g} {y:.9g} {z:.9g}")
        for a, b, c in mesh.faces:
            lines.append(f"f {a + 1} {b + 1} {c + 1}")
    elif fmt == "off":
        lines.append("OFF")
        lines.append(f"{mesh.vertex_count} {mesh.face_count} 0")
        for x, y, z in mesh.vertices:
            lines.append(f"{x:.9g} {y:.9g} {z:.9g}")
        for a, b, c in mesh.faces:
            lines.append(f"3 {a} {b} {c}")
    elif fmt == "ply":
        lines += [
            "ply", "format ascii 1.0",
            f"element vertex {mesh.vertex_count}",
            "property double x", "property double y", "property double z",
            f"element face {mesh.face_count}",
            "property list uchar int vertex_indices",
            "end_header",
        ]
        for x, y, z in mesh.vertices:
            lines.append(f"{x:.9g} {y:.9g} {z:.9g}")
        for a, b, c in mesh.faces:
            lines.append(f"3 {a} {b} {c}")
    else:
        raise ParseError(f"unsupported format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_face_indices(parts: list[str], lineno: int) -> tuple[int, int, int]:
    if len(parts) != 3:
        raise ParseError(f"line {lineno}: non-triangular face with {len(parts)} vertices")
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


def _parse_obj(text: str):
    verts: list[list[float]] = []
    faces: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "v":
                if len(parts) < 4:
                    raise ValueError("short vertex line")
                verts.append([float(p) for p in parts[1:4]])
            elif tag == "f":
                idx = [p.split("/")[0] for p in parts[1:]]
                a, b, c = _parse_face_indices(idx, lineno)
                faces.append((a - 1, b - 1, c - 1))
            # other OBJ tags (vn, vt, o, g, usemtl, ...) are ignored
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return verts, faces


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for tok in line.split():
            yield lineno, tok


def _parse_off(text: str):
    toks = _tokens(text)
    try:
        lineno, header = next(toks)
    except StopIteration:
        raise ParseError("empty OFF file") from None
    if header.upper() != "OFF":
        raise ParseError(f"line {lineno}: missing OFF header")
    try:
        nv = int(next(toks)[1])
        nf = int(next(toks)[1])
        next(toks)  # edge count, unused
        verts = [[float(next(toks)[1]) for _ in range(3)] for _ in range(nv)]
        faces = []
        for _ in range(nf):
            lineno, tok = next(toks)
            n = int(tok)
            idx = [next(toks)[1] for _ in range(n)]
            faces.append(_parse_face_indices(idx, lineno))
    except StopIteration:
        raise ParseError("truncated OFF file") from None
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return verts, faces


def _ply_count(line: str, lineno: int) -> int:
    """The element count of a PLY `element <name> <count>` line."""
    parts = line.split()
    if len(parts) != 3 or not parts[2].isascii() or not parts[2].isdigit():
        raise ParseError(f"line {lineno}: bad element count: {line}")
    return int(parts[2])


def _parse_ply(text: str):
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError("missing ply header")
    nv = nf = None
    order: list[str] = []
    body_at = None
    for i, raw in enumerate(lines[1:], 1):
        line = raw.strip()
        if line.startswith("format"):
            if "ascii" not in line:
                raise ParseError("only ascii PLY is supported")
        elif line.startswith("element vertex"):
            nv = _ply_count(line, i + 1)
            order.append("vertex")
        elif line.startswith("element face"):
            nf = _ply_count(line, i + 1)
            order.append("face")
        elif line.startswith("element"):
            raise ParseError(f"unsupported PLY element: {line}")
        elif line == "end_header":
            body_at = i + 1
            break
    if body_at is None or nv is None or nf is None:
        raise ParseError("incomplete PLY header")
    if order != ["vertex", "face"]:
        raise ParseError("PLY elements must be vertex then face")
    body = [(lineno, ln.split())
            for lineno, ln in enumerate(lines[body_at:], body_at + 1)
            if ln.strip()]
    if len(body) < nv + nf:
        raise ParseError("truncated PLY body")
    try:
        verts = []
        for lineno, row in body[:nv]:
            if len(row) < 3:
                raise ParseError(f"line {lineno}: vertex row with "
                                 f"{len(row)} values")
            verts.append([float(x) for x in row[:3]])
        faces = []
        for lineno, row in body[nv:nv + nf]:
            n = int(row[0])
            faces.append(_parse_face_indices(row[1:1 + n], lineno))
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return verts, faces
