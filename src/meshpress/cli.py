"""Command-line front end: encode, decode, metric, bench, info.

Exit codes: 0 success, 2 parse/validation error, 3 truncated stream.
Defaults (q_max=12, threshold=200, WGC on with gamma 0.25) reproduce the
reference configuration; `info` prints everything needed to re-run an
identical encode, then the chunk table with each chunk's CRC32 status.
`MESHPRESS_SEED` overrides the sampling seed.
"""

from __future__ import annotations

import os
import sys

import click

from . import codec, metrics
from .mesh import MeshError
from .meshio import load_mesh, save_mesh

EXIT_PARSE = 2
EXIT_TRUNCATED = 3

CSV_HEADER = "level,bytes,bpv,rms_norm,max_norm"


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(path: str):
    try:
        return load_mesh(path)
    except MeshError as exc:
        _fail(EXIT_PARSE, f"{path}: {exc}")
    except OSError as exc:                  # its message names the path
        _fail(EXIT_PARSE, str(exc))


def _default_seed() -> int:
    value = os.environ.get("MESHPRESS_SEED", "0")
    try:
        return int(value)
    except ValueError:
        _fail(EXIT_PARSE, f"MESHPRESS_SEED must be an integer, got {value!r}")


def _encode_options(fn):
    fn = click.option("--qmax", "q_max", type=click.IntRange(4, 16),
                      default=12, show_default=True,
                      help="Quantization precision in bits.")(fn)
    fn = click.option("--threshold", type=click.IntRange(min=0), default=200,
                      show_default=True,
                      help="Adaptive-precision distance threshold.")(fn)
    fn = click.option("--wgc/--no-wgc", default=True, show_default=True,
                      help="Geometric criterion on odd-vertex selection.")(fn)
    fn = click.option("--gamma", type=float, default=0.25, show_default=True,
                      help="Geometric criterion tolerance.")(fn)
    fn = click.option("--adaptive/--no-adaptive", default=True,
                      show_default=True,
                      help="Per-vertex precision (off pins q_i to qmax).")(fn)
    fn = click.option("--max-levels", type=click.IntRange(min=0), default=32,
                      show_default=True,
                      help="Maximum simplification levels.")(fn)
    return fn


def _config(q_max, threshold, wgc, gamma, adaptive, max_levels):
    try:
        return codec.EncodeConfig(q_max=q_max, threshold=threshold, wgc=wgc,
                                  wgc_gamma=gamma, adaptive=adaptive,
                                  max_levels=max_levels)
    except ValueError as exc:
        _fail(EXIT_PARSE, str(exc))


@click.group()
def main():
    """Progressive triangle-mesh compression."""


@main.command(name="encode")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("output_path", type=click.Path(dir_okay=False, writable=True))
@click.option("--dump-levels", type=click.Path(file_okay=False), default=None,
              help="Write every hierarchy level as an OFF file here.")
@_encode_options
def cmd_encode(input_path, output_path, dump_levels, **opts):
    """Compress a mesh into a progressive .pmc stream."""
    config = _config(**opts)
    mesh = _load(input_path)
    try:
        stream, report = codec.encode(mesh, config)
    except ValueError as exc:               # the input mesh is unusable
        _fail(EXIT_PARSE, f"{input_path}: {exc}")
    with open(output_path, "wb") as fh:
        fh.write(stream.to_bytes())
    if dump_levels is not None:
        from .hierarchy import WgcConfig, build_hierarchy

        os.makedirs(dump_levels, exist_ok=True)
        records = build_hierarchy(mesh, WgcConfig(config.wgc, config.wgc_gamma),
                                  config.max_levels)
        save_mesh(mesh, os.path.join(dump_levels, "level_full.off"))
        for i, record in enumerate(records):
            name = f"level_{len(records) - i:02d}.off"
            save_mesh(record.coarse_mesh, os.path.join(dump_levels, name))
    click.echo(f"levels={stream.level_count}")
    click.echo(f"total_bpv={report.total_bpv:.4f}")
    click.echo(f"geometry_bpv={report.geometry_bpv:.4f}")
    click.echo(f"connectivity_bpv={report.connectivity_bpv:.4f}")


@main.command(name="decode")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("output_path", type=click.Path(dir_okay=False, writable=True))
@click.option("--level", type=click.IntRange(min=0), default=None,
              help="Stop after this many refinement levels (default: all).")
def cmd_decode(input_path, output_path, level):
    """Decode a .pmc stream (or a prefix of it) to a mesh file."""
    with open(input_path, "rb") as fh:
        data = fh.read()
    try:
        mesh = codec.decode(data, up_to_level=level)
    except codec.TruncatedStreamError as exc:
        if exc.last_complete_level is not None:
            _fail(EXIT_TRUNCATED, f"{input_path}: {exc} (last complete "
                                  f"level: {exc.last_complete_level})")
        _fail(EXIT_TRUNCATED, f"{input_path}: {exc}")
    except (codec.StreamFormatError, ValueError) as exc:
        _fail(EXIT_PARSE, f"{input_path}: {exc}")
    save_mesh(mesh, output_path)
    click.echo(f"vertices={mesh.vertex_count} faces={mesh.face_count}")


@main.command(name="metric")
@click.argument("reference", type=click.Path(exists=True, dir_okay=False))
@click.argument("other", type=click.Path(exists=True, dir_okay=False))
@click.option("--spua", type=float, default=None,
              help="Samples per unit surface area (default: adaptive).")
@click.option("--seed", type=int, default=None, help="Sampling seed.")
@click.option("--csv", "as_csv", is_flag=True, help="Machine-readable row.")
def cmd_metric(reference, other, spua, seed, as_csv):
    """Sampled symmetric distance between two meshes."""
    a = _load(reference)
    b = _load(other)
    for path, mesh in ((reference, a), (other, b)):
        try:
            metrics.check_samplable(mesh)
        except ValueError as exc:
            _fail(EXIT_PARSE, f"{path}: {exc}")
    seed = _default_seed() if seed is None else seed
    try:
        result = metrics.sampled_distance(a, b, spua, seed=seed)
    except ValueError as exc:
        _fail(EXIT_PARSE, str(exc))
    if as_csv:
        click.echo("rms_norm,max_norm,samples")
        click.echo(f"{result.rms:.9g},{result.max_dist:.9g},"
                   f"{result.sample_count}")
    else:
        click.echo(f"rms={result.rms:.9g} max={result.max_dist:.9g} "
                   f"samples={result.sample_count}")


@main.command(name="bench")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "-o", type=click.Path(dir_okay=False,
              writable=True), default=None,
              help="CSV destination (default: stdout).")
@click.option("--spua", type=float, default=None,
              help="Samples per unit surface area for distortion.")
@click.option("--seed", type=int, default=None, help="Sampling seed.")
@_encode_options
def cmd_bench(input_path, output, spua, seed, **opts):
    """Rate-distortion curve: one CSV row per decodable prefix."""
    config = _config(**opts)
    mesh = _load(input_path)
    seed = _default_seed() if seed is None else seed
    try:
        rows = codec.bench_rows(mesh, config, seed=seed,
                                samples_per_unit_area=spua)
    except ValueError as exc:               # the input mesh is unusable
        _fail(EXIT_PARSE, f"{input_path}: {exc}")
    lines = [CSV_HEADER]
    lines += [f"{r.level},{r.nbytes},{r.bpv:.6f},{r.rms_norm:.9g},"
              f"{r.max_norm:.9g}" for r in rows]
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@main.command(name="info")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
def cmd_info(input_path):
    """Print the header and chunk table of a .pmc stream.

    Every chunk gets one line with its index, name, level ("-" outside the
    refinement levels), byte length and CRC32 status. A stream whose
    chunks are all present but fail their CRC32 check prints the whole
    table, then exits 2 naming the first bad chunk."""
    with open(input_path, "rb") as fh:
        data = fh.read()
    crc_errors = []
    try:
        header, table = codec._parse_container(data)
        for i in range(len(table.entries)):
            try:
                table.payload(i)
            except codec.StreamFormatError as exc:
                crc_errors.append((i, exc))
    except codec.TruncatedStreamError as exc:
        _fail(EXIT_TRUNCATED, f"{input_path}: {exc}")
    except codec.StreamFormatError as exc:
        _fail(EXIT_PARSE, f"{input_path}: {exc}")
    origin = header.origin
    click.echo(f"format_version={codec.FORMAT_VERSION}")
    click.echo(f"q_max={header.q_max}")
    click.echo(f"threshold={header.threshold}")
    click.echo(f"wgc={'on' if header.wgc_enabled else 'off'}")
    click.echo(f"gamma={header.wgc_gamma:.9g}")
    click.echo(f"adaptive={'on' if header.adaptive else 'off'}")
    click.echo(f"origin={origin[0]:.17g},{origin[1]:.17g},{origin[2]:.17g}")
    click.echo(f"scale={header.scale:.17g}")
    click.echo(f"base_vertices={header.base_vertex_count}")
    click.echo(f"base_faces={header.base_face_count}")
    click.echo(f"levels={header.level_count}")
    click.echo(f"original_vertices={header.original_vertex_count}")
    bad = {i for i, _ in crc_errors}
    for i, ((name, level, _), (length, _)) in enumerate(
            zip(table.layout, table.entries)):
        click.echo(f"chunk={i} name={name} level={level if level > 0 else '-'} "
                   f"bytes={length} crc={'bad' if i in bad else 'ok'}")
    if crc_errors:
        _fail(EXIT_PARSE, f"{input_path}: {crc_errors[0][1]}")


if __name__ == "__main__":
    main()
