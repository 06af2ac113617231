"""meshpress pipeline benchmark: encode, decode and stream size.

Run from the repository root (no build step; the package is imported
from ``src/``):

    python3 perfbench/run.py --workload cad_adaptive --seed 1 \
        --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each exists):

    cad_adaptive  cad_solid(subdivisions=2), default EncodeConfig
    cad_fixed     the same mesh, EncodeConfig(adaptive=False)
    irregular     random_convex(200), default EncodeConfig

``--seed`` picks a rigid rotation of the workload's reference mesh, so
every seed gives the same connectivity and hierarchy but a different
quantization grid and different stream bytes. ``--mesh-seed`` feeds the
shape generator itself (``cad_solid(seed=)`` / ``random_convex(seed=)``);
its default is the reference mesh, and ``HELD_OUT_MESH_SEED`` is kept
for confirming claims.

With ``--trace 0`` the run times the public entry points only (``encode``,
``decode``, ``sampled_distance``) and reports the end-to-end metrics. Each
encode, decode and preview decode is paired with the same operation run
by ``perfbench/refcodec``, a frozen copy of the original codec, and the
gated timing metrics are the current/reference time ratios (``*_rel``);
raw seconds of both sides are printed next to them.
With ``--trace 1`` it also runs a traced encode and a chunk-by-chunk
traced decode next to untraced ones, and reports per-layer metrics plus
the tracing overhead; the spans are written to ``perfbench/out/``.

Every operation is checked: encodes must be byte-identical, full decodes
lossless on the q_max grid, previews deterministic, and the completion
chunk must re-encode to the same bytes. A failed check or an exception
counts as a failed operation and never aborts the run. The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin the coder backend and single-threaded numerical libraries before
# numpy or meshpress are imported.
os.environ["MESHPRESS_PURE_PYTHON"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from refcodec import codec as ref_codec  # noqa: E402
from refcodec import entropy as ref_entropy  # noqa: E402
from refcodec.mesh import TriMesh as RefTriMesh  # noqa: E402
from spans import Tracer, duration, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

sys.path.insert(0, str(SRC))
try:
    import meshpress
    from meshpress import codec, entropy, hierarchy, metrics, shapes
    from meshpress.mesh import TriMesh
    from meshpress.quantize import QuantGrid, assign_precision, make_grid
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import meshpress from {SRC}: {exc}")
if not Path(meshpress.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"perfbench: meshpress was imported from "
                     f"{meshpress.__file__}, not from {SRC}")
if entropy.BACKEND_NAME != "python" or ref_entropy.BACKEND_NAME != "python":
    raise SystemExit(f"perfbench: coder backend is {entropy.BACKEND_NAME!r}, "
                     "expected the pinned pure-Python coder")


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str          # "cad" or "convex"
    adaptive: bool
    mesh_seed: int      # generator seed of the reference mesh


WORKLOADS = {w.name: w for w in (
    Workload("cad_adaptive", "cad", True, 1),
    Workload("cad_fixed", "cad", False, 1),
    Workload("irregular", "convex", True, 3),
)}
HELD_OUT_MESH_SEED = 7
# cad_solid subdivisions / random_convex point count
SIZES = {"full": {"cad": 2, "convex": 200},
         "tiny": {"cad": 1, "convex": 100}}

SETUP_REPS = 3          # timed mesh generations per round
DECODE_SHARE = 0.35     # decode phase of a round vs. that round's encode
MIN_ROUNDS = 3          # the warm-up round and two timed rounds
MIN_DECODES = 2         # decode (and preview) operations per round
SAMPLE_SEED = 0         # surface sampling seed of preview_rms_norm

# An operation's *_rel metric is its wall time divided by the wall time of
# the same operation run by the frozen reference codec (perfbench/refcodec)
# right before or after it. The host's speed drifts by up to 1.8x over
# minutes; the ratio cancels that drift, raw seconds do not.
END_TO_END = {
    "setup_s": "s", "encode_rel": "x", "decode_rel": "x", "preview_rel": "x",
    "total_bpv": "bits/vertex", "progressive_bpv": "bits/vertex",
    "preview_rms_norm": "bbox_diag", "peak_rss_mb": "MB",
}
# Raw wall times of the current and the reference codec: printed, not
# gated, because they are not comparable between runs.
WALL = {f"{side}{op}_s": "s" for side in ("", "ref.")
        for op in ("encode", "decode", "preview")}
PER_LAYER = {
    "mesh.validate_s": "s",
    "hierarchy.simplify_s": "s", "hierarchy.finest_pass_s": "s",
    "hierarchy.passes": "count", "hierarchy.removed_frac": "frac",
    "hierarchy.base_vertices": "count",
    "wavelet.analyze_s": "s",
    "quantize.assign_precision_s": "s",
    "quantize.assign_precision_calls": "count", "quantize.mean_q": "bits",
    "entropy.completion_decode_s": "s", "entropy.completion_encode_s": "s",
    "entropy.completion_values": "count",
    "codec.read_base_s": "s", "codec.read_levels_s": "s",
    "codec.read_finest_level_s": "s", "codec.read_completion_s": "s",
    "codec.level_other_s": "s", "codec.encode_loop_s": "s",
    "codec.base_bytes": "bytes", "codec.level_conn_bytes": "bytes",
    "codec.level_geom_bytes": "bytes", "codec.completion_bytes": "bytes",
    "metrics.sampled_distance_s": "s",
    "trace.encode_s": "s", "trace.decode_s": "s",
    "trace.encode_overhead_s": "s", "trace.decode_overhead_s": "s",
}

# Layer functions the encoder looks up in module namespaces; the traced
# encode wraps them there. build_hierarchy calls simplify_once through the
# hierarchy module, so one span per pass is recorded.
ENCODE_LAYERS = (
    (codec, "validate_manifold", "mesh.validate"),
    (hierarchy, "simplify_once", "hierarchy.simplify_once"),
    (codec, "analyze", "wavelet.analyze"),
)


class CheckFailed(Exception):
    """An operation returned a wrong result."""


class Ops:
    """Attempted and failed operations; a failure never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # any failure is counted, not raised
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")


def rotation(seed: int) -> np.ndarray:
    """Uniformly random proper rotation, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def make_mesh(wl: Workload, size: str, mesh_seed: int, seed: int) -> TriMesh:
    n = SIZES[size][wl.shape]
    if wl.shape == "cad":
        base = shapes.cad_solid(subdivisions=n, seed=mesh_seed)
    else:
        base = shapes.random_convex(n, seed=mesh_seed)
    return TriMesh(base.vertices @ rotation(seed).T, base.faces)


def grid_signature(grid: QuantGrid, mesh: TriMesh):
    """The mesh as sorted q_max-grid points and sorted faces of grid
    points, each face in its smallest rotation (orientation kept). Equal
    signatures mean equal meshes up to vertex numbering."""
    ints = grid.quantize(mesh.vertices)
    keys = (ints[:, 0] << 32) | (ints[:, 1] << 16) | ints[:, 2]
    faces = [min((a, b, c), (b, c, a), (c, a, b))
             for a, b, c in keys[mesh.faces].tolist()]
    return sorted(keys.tolist()), sorted(faces)


def replay_completion(stream) -> tuple[int, float, float]:
    """Decode the completion chunk with a fresh coder, re-encode the
    values and require the same bytes. Returns (values, t_dec, t_enc)."""
    chunk = stream.chunks[-1]
    n = 3 * stream.original_vertex_count
    t0 = time.perf_counter()
    coder = entropy.SignedIntCoder(raw_bits=stream.q_max + 2)
    dec = entropy.RangeDecoder(chunk)
    values = [coder.decode(dec) for _ in range(n)]
    t1 = time.perf_counter()
    coder = entropy.SignedIntCoder(raw_bits=stream.q_max + 2)
    enc = entropy.RangeEncoder()
    for v in values:
        coder.encode(enc, v)
    again = enc.finish()
    t2 = time.perf_counter()
    if again != chunk:
        raise CheckFailed("completion chunk does not re-encode to itself")
    return n, t1 - t0, t2 - t1


def timed(fn, *args, **kwargs):
    gc.collect()    # no collection of earlier garbage inside the timer
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class Bench:
    def __init__(self, wl: Workload, args):
        self.wl = wl
        self.args = args
        self.config = codec.EncodeConfig(adaptive=wl.adaptive)
        self.ref_config = ref_codec.EncodeConfig(adaptive=wl.adaptive)
        self.ops = Ops()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.tracer = Tracer() if args.trace else None
        self.good_ops: set[int] = set()
        self.mesh = None
        self.stream = None      # first encode
        self.data = None
        self.grid = None
        self.signature = None
        self.preview = None     # first preview decode
        self.ref_stream = None  # first encode by the reference codec
        self.ref_data = None
        self.pair_ratios: dict[str, list[float]] = defaultdict(list)

    # -- operations -------------------------------------------------------

    def setup(self) -> TriMesh:
        a = self.args
        for _ in range(SETUP_REPS):
            mesh, dt = timed(make_mesh, self.wl, a.size, a.mesh_seed, a.seed)
            self.samples["setup_s"].append(dt)
        return mesh

    def paired(self, op: str, current, reference):
        """Time current() and, unless tracing, reference() back to back;
        successive pairs of one operation alternate the order. Returns
        (result, seconds, reference result, reference seconds)."""
        if self.tracer:
            return (*timed(current), None, None)
        if len(self.pair_ratios[op]) % 2 == 0:
            out, dt = timed(current)
            ref_out, ref_dt = timed(reference)
        else:
            ref_out, ref_dt = timed(reference)
            out, dt = timed(current)
        return out, dt, ref_out, ref_dt

    def record(self, op: str, dt: float, ref_dt: float | None) -> None:
        self.samples[f"{op}_s"].append(dt)
        if ref_dt is not None:
            self.samples[f"ref.{op}_s"].append(ref_dt)
            self.pair_ratios[op].append(dt / ref_dt)

    def encode(self, mesh: TriMesh) -> float | None:
        with self.ops.op("encode"):
            ref_mesh = (None if self.tracer
                        else RefTriMesh(mesh.vertices, mesh.faces))
            (stream, _), dt, ref, ref_dt = self.paired(
                "encode", lambda: codec.encode(mesh, self.config),
                lambda: ref_codec.encode(ref_mesh, self.ref_config))
            self._check_stream(mesh, stream)
            if ref is not None and self.ref_stream is None:
                self.ref_stream = ref[0]
                self.ref_data = ref[0].to_bytes()
            self.record("encode", dt, ref_dt)
            return dt
        return None

    def encode_traced(self, mesh: TriMesh) -> None:
        tr = self.tracer
        tr.op_id += 1
        with self.ops.op("traced encode"):
            gc.collect()
            with tr.patched(ENCODE_LAYERS), tr.span("codec.encode"):
                stream, _ = codec.encode(mesh, self.config)
            self._check_stream(mesh, stream)
            self.good_ops.add(tr.op_id)

    def _check_stream(self, mesh: TriMesh, stream) -> None:
        data = stream.to_bytes()
        if self.data is None:
            self.mesh, self.stream, self.data = mesh, stream, data
            self.grid = make_grid(mesh, self.config.q_max)
            self.signature = grid_signature(self.grid, mesh)
        elif data != self.data:
            raise CheckFailed("two encodes of the same mesh differ")

    def check_full_decode(self, data: bytes) -> None:
        """Timed full decode of `data`, checked against the input mesh."""
        with self.ops.op("decode"):
            mesh, dt, _, ref_dt = self.paired(
                "decode", lambda: codec.decode(data),
                lambda: ref_codec.decode(self.ref_data))
            if grid_signature(self.grid, mesh) != self.signature:
                raise CheckFailed("full decode is not lossless")
            self.record("decode", dt, ref_dt)

    def preview_decode(self) -> None:
        with self.ops.op("preview decode"):
            level = self.stream.level_count - 1
            ref_level = self.ref_stream.level_count - 1
            mesh, dt, _, ref_dt = self.paired(
                "preview", lambda: codec.decode(self.data, up_to_level=level),
                lambda: ref_codec.decode(self.ref_data, up_to_level=ref_level))
            nv = self.stream.original_vertex_count
            if not (0 < mesh.vertex_count < nv
                    and int(mesh.faces.max()) < mesh.vertex_count):
                raise CheckFailed("preview mesh has impossible counts")
            if self.preview is None:
                self.preview = mesh
            elif not (np.array_equal(mesh.vertices, self.preview.vertices)
                      and np.array_equal(mesh.faces, self.preview.faces)):
                raise CheckFailed("two preview decodes differ")
            self.record("preview", dt, ref_dt)

    def decode_traced(self) -> None:
        """Chunk-by-chunk decode through the public decoder classes, then
        the precision rule replayed per split edge on the positions the
        decoder saw when it read that level."""
        tr = self.tracer
        tr.op_id += 1
        with self.ops.op("traced decode"):
            gc.collect()
            with tr.span("codec.decode"):
                with tr.span("codec.from_bytes"):
                    stream = codec.ProgressiveStream.from_bytes(self.data)
                grid = QuantGrid(stream.origin, stream.scale, stream.q_max)
                dec = codec.ProgressiveDecoder(
                    grid=grid, threshold=stream.threshold,
                    lifting=stream.lifting, adaptive=stream.adaptive,
                    base_vertex_count=stream.base_vertex_count,
                    base_face_count=stream.base_face_count,
                    level_count=stream.level_count,
                    original_vertex_count=stream.original_vertex_count)
                chunks = stream.chunks
                with tr.span("codec.read_base"):
                    dec.read_base_conn(chunks[0])
                    dec.read_base_geom(chunks[1])
                seen = []
                for lvl in range(stream.level_count):
                    before = dec.positions
                    with tr.span("codec.read_level"):
                        dec.read_level(chunks[2 + 2 * lvl], chunks[3 + 2 * lvl])
                    seen.append((before, dec.last_split_edges))
                with tr.span("codec.read_completion"):
                    dec.read_completion(chunks[-1])
            if grid_signature(self.grid, dec.mesh) != self.signature:
                raise CheckFailed("traced decode is not lossless")

            for (before, edges), q_dec in zip(seen, dec.q_recomputed):
                with tr.span("quantize.assign_precision") as span:
                    q_replay = [assign_precision(0.5 * (before[u] + before[v]),
                                                 before, grid,
                                                 stream.threshold)[0]
                                for u, v in edges] if stream.adaptive else []
                span["calls"] = len(q_replay)
                if stream.adaptive and q_replay != q_dec:
                    raise CheckFailed("replayed precisions differ from the "
                                      "decoder's")
            q_all = [q for level in dec.q_recomputed for q in level]
            self.samples["quantize.mean_q"].append(float(np.mean(q_all)))
            self.good_ops.add(tr.op_id)

    def completion_replay(self) -> None:
        with self.ops.op("completion replay"):
            n, t_dec, t_enc = replay_completion(self.stream)
            self.samples["entropy.completion_values"].append(n)
            self.samples["entropy.completion_decode_s"].append(t_dec)
            self.samples["entropy.completion_encode_s"].append(t_enc)

    def preview_distance(self) -> None:
        with self.ops.op("preview distance"):
            if self.preview is None:
                level = self.stream.level_count - 1
                self.preview = codec.decode(self.data, up_to_level=level)
            dist, dt = timed(metrics.sampled_distance, self.mesh,
                             self.preview, seed=SAMPLE_SEED)
            self.samples["preview_rms_norm"].append(dist.rms)
            self.samples["metrics.sampled_distance_s"].append(dt)

    # -- schedule ---------------------------------------------------------

    def run(self) -> None:
        """Rounds of setup, encode and decodes until --seconds is spent
        (at least MIN_ROUNDS). A round's decode phase lasts DECODE_SHARE of
        its encode time, so every operation is sampled across the run.
        The first round is a warm-up: its operations are checked, but its
        timings are dropped, because the first call of each codec in a
        process is slower."""
        start = time.perf_counter()
        last = 0.0
        rounds = 0
        while (rounds < MIN_ROUNDS
               or time.perf_counter() - start + last <= self.args.seconds):
            t0 = time.perf_counter()
            mesh = self.setup()
            enc_s = self.encode(mesh) or 0.0
            if self.tracer:
                self.encode_traced(mesh)
            if self.data is not None:
                phase = time.perf_counter()
                n = 0
                while (n < MIN_DECODES or
                       time.perf_counter() - phase < DECODE_SHARE * enc_s):
                    self.check_full_decode(self.data)
                    if self.tracer:
                        self.decode_traced()
                    else:
                        self.preview_decode()
                    n += 1
                if self.tracer:
                    self.completion_replay()
            if rounds == 0:
                self.samples.clear()
                self.pair_ratios.clear()
                self.good_ops.clear()
            rounds += 1
            last = time.perf_counter() - t0
        # peak memory of the codec operations, before the quality check
        self.samples["peak_rss_mb"].append(peak_rss_mb())
        if self.data is not None:
            if not self.tracer:
                self.completion_replay()
            self.preview_distance()

    # -- results ----------------------------------------------------------

    def layer_samples(self) -> None:
        """Per-layer samples from the spans of every successful traced
        operation."""
        spans = self.tracer.spans
        selfs = self_times(spans)
        by_op = defaultdict(list)
        for i, s in enumerate(spans):
            if s["op"] in self.good_ops:
                by_op[s["op"]].append(i)
        out = self.samples
        for idxs in by_op.values():
            times = defaultdict(list)
            for i in idxs:
                times[spans[i]["name"]].append(duration(spans[i]))
            root = idxs[0]
            if spans[root]["name"] == "codec.encode":
                passes = times["hierarchy.simplify_once"]
                out["trace.encode_s"].append(duration(spans[root]))
                out["codec.encode_loop_s"].append(selfs[root])
                out["mesh.validate_s"].append(sum(times["mesh.validate"]))
                out["hierarchy.simplify_s"].append(sum(passes))
                out["hierarchy.finest_pass_s"].append(passes[0])
                out["hierarchy.passes"].append(len(passes))
                out["wavelet.analyze_s"].append(sum(times["wavelet.analyze"]))
            else:
                levels = times["codec.read_level"]
                precision = sum(times["quantize.assign_precision"])
                out["trace.decode_s"].append(duration(spans[root]))
                out["codec.read_base_s"].append(sum(times["codec.read_base"]))
                out["codec.read_levels_s"].append(sum(levels))
                out["codec.read_finest_level_s"].append(levels[-1])
                out["codec.read_completion_s"].append(
                    sum(times["codec.read_completion"]))
                out["codec.level_other_s"].append(sum(levels) - precision)
                out["quantize.assign_precision_s"].append(precision)
                out["quantize.assign_precision_calls"].append(
                    sum(spans[i].get("calls", 0) for i in idxs))

    def stream_facts(self) -> dict:
        s = self.stream
        nbytes = len(self.data)
        conn = sum(len(c) for c in s.chunks[2:-1:2])
        geom = sum(len(c) for c in s.chunks[3:-1:2])
        nv = s.original_vertex_count
        return {
            "total_bpv": 8 * nbytes / nv,
            "progressive_bpv": 8 * (nbytes - len(s.chunks[-1])) / nv,
            "hierarchy.removed_frac": (nv - s.base_vertex_count) / nv,
            "hierarchy.base_vertices": s.base_vertex_count,
            "codec.base_bytes": len(s.chunks[0]) + len(s.chunks[1]),
            "codec.level_conn_bytes": conn,
            "codec.level_geom_bytes": geom,
            "codec.completion_bytes": len(s.chunks[-1]),
        }

    def metric_values(self) -> dict[str, float | None]:
        # Two successive pairs, one in each order, make one sample: the
        # geometric mean of their ratios, so whatever the second call of a
        # pair gains from the first cancels out.
        for op, r in self.pair_ratios.items():
            self.samples[f"{op}_rel"] = [math.sqrt(r[i] * r[i + 1])
                                         for i in range(0, len(r) - 1, 2)]
        values: dict[str, float | None] = {
            k: median(v) for k, v in self.samples.items() if v}
        if self.stream is not None:
            values.update(self.stream_facts())
        if self.tracer:
            for kind in ("encode", "decode"):
                traced = values.get(f"trace.{kind}_s")
                plain = values.get(f"{kind}_s")
                if traced is not None and plain is not None:
                    values[f"trace.{kind}_overhead_s"] = traced - plain
        names = PER_LAYER if self.tracer else {**END_TO_END, **WALL}
        return {name: values.get(name) for name in names}


def median(samples: list) -> float:
    """Median; for counts, the lower middle sample, so counts stay whole."""
    if all(isinstance(x, int) for x in samples):
        return statistics.median_low(samples)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "coder_backend": entropy.BACKEND_NAME,
    }


def describe(bench: Bench) -> dict:
    a = bench.args
    out = {"workload": bench.wl.name, "size": a.size, "seed": a.seed,
           "mesh_seed": a.mesh_seed, "adaptive": bench.wl.adaptive}
    if bench.stream is not None:
        s = bench.stream
        out.update(vertices=s.original_vertex_count,
                   faces=bench.mesh.face_count, levels=s.level_count,
                   base_vertices=s.base_vertex_count,
                   stream_bytes=len(bench.data),
                   stream_sha256=hashlib.sha256(bench.data).hexdigest())
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="pose seed: rotation of the reference mesh")
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement time; at least three rounds always run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mesh-seed", type=int, default=None,
                   help="shape generator seed (default: the workload's "
                        f"reference mesh; held-out: {HELD_OUT_MESH_SEED})")
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="'tiny' shrinks the meshes for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0 or (args.mesh_seed is not None and args.mesh_seed < 0):
        p.error("seeds must be non-negative")
    if args.mesh_seed is None:
        args.mesh_seed = WORKLOADS[args.workload].mesh_seed
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = Bench(WORKLOADS[args.workload], args)
    t0 = time.perf_counter()
    bench.run()
    if bench.tracer:
        bench.layer_samples()
    values = bench.metric_values()

    print("env " + json.dumps(environment(), sort_keys=True))
    print("workload " + json.dumps(describe(bench), sort_keys=True))
    units = PER_LAYER if args.trace else {**END_TO_END, **WALL}
    for name, value in values.items():
        samples = bench.samples.get(name, ())
        spread = (f"  (median of {len(samples)}, min {min(samples):.6g}, "
                  f"max {max(samples):.6g})" if len(samples) > 1 else "")
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"metric {name} = {shown} {units[name]}{spread}")
    print("samples " + json.dumps({k: v for k, v in bench.samples.items()
                                   if len(v) > 1}))
    ops = bench.ops
    print(f"operations attempted={ops.attempted} failed={ops.failed} "
          f"failed_frac={ops.failed / max(ops.attempted, 1):.6g}")
    for err in ops.errors:
        print(f"failure {err}")
    if bench.tracer:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "env": environment(), "workload": describe(bench),
            "spans": bench.tracer.to_json(t0)}))
        parts = {k: values[k] or 0.0 for k in (
            "mesh.validate_s", "hierarchy.simplify_s", "wavelet.analyze_s",
            "codec.encode_loop_s")}
        traced = values["trace.encode_s"]
        untraced = traced - values["trace.encode_overhead_s"]
        print("trace encode medians: " + " + ".join(
            f"{k} {v:.4g}" for k, v in parts.items())
            + f" = {sum(parts.values()):.4g} s; traced encode {traced:.4g} s,"
            f" untraced {untraced:.4g} s; spans in {path.relative_to(ROOT)}")

    gated = PER_LAYER if args.trace else END_TO_END
    correct = (ops.failed == 0 and ops.attempted > 0
               and all(v is not None for v in values.values()))
    print(json.dumps({
        "correct": correct, "attempted": ops.attempted, "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in gated.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
