"""meshpress: progressive triangle-mesh compression.

Pipeline: inverse irregular subdivision builds a multiresolution
hierarchy; an interpolating lazy wavelet turns each level into a coarse
approximation plus detail vectors; per-vertex adaptive precision and an
adaptive range coder produce a progressive stream whose every prefix
decodes to a valid intermediate mesh, and whose full decode is lossless
at the chosen grid precision.
"""

from .codec import (BenchRow, EncodeConfig, ProgressiveStream, RateReport,
                    StreamFormatError, TruncatedStreamError, bench_rows,
                    decode, decode_debug, encode)
from .entropy import BACKEND_NAME
from .hierarchy import (LevelRecord, WgcConfig, build_hierarchy, resubdivide,
                        simplify_once)
from .mesh import (BBox, MeshError, NonManifoldError, TriMesh, bounding_box,
                   edge_key, validate_manifold)
from .meshio import ParseError, load_mesh, save_mesh
from .metrics import DistortionResult, point_to_triangle, sampled_distance
from .quantize import (DEFAULT_THRESHOLD, MIN_PRECISION, QuantGrid,
                       assign_precision, batch_precision, make_grid)
from .wavelet import analyze, synthesize

__version__ = "0.1.0"

__all__ = [
    "BACKEND_NAME", "BBox", "BenchRow", "DEFAULT_THRESHOLD",
    "DistortionResult", "EncodeConfig", "LevelRecord",
    "MIN_PRECISION", "MeshError", "NonManifoldError", "ParseError",
    "ProgressiveStream", "QuantGrid", "RateReport", "StreamFormatError",
    "TriMesh", "TruncatedStreamError", "WgcConfig", "analyze", "bench_rows",
    "batch_precision", "bounding_box", "build_hierarchy", "decode",
    "decode_debug", "edge_key", "encode", "load_mesh", "make_grid",
    "point_to_triangle", "resubdivide", "sampled_distance",
    "save_mesh", "simplify_once", "synthesize",
    "validate_manifold", "assign_precision", "__version__",
]
