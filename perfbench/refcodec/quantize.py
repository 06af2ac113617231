"""Grid quantization and the per-vertex adaptive precision rule.

The global grid maps model coordinates to integers on an isotropic
q_max-bit lattice anchored at the original mesh's bounding-box minimum.
Per-vertex precision q_i is the smallest bit count in [4, q_max] at which
a vertex and its nearest decoder-visible neighbor land at least
sqrt(threshold) scaled grid units apart; everything the rule consumes is
available to the decoder, which keeps both sides in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hierarchy import LevelRecord
from .mesh import TriMesh, bounding_box
from .wavelet import CoefficientSet

__all__ = ["QuantGrid", "make_grid", "scale_to_precision", "assign_precision",
           "quantize_details", "MIN_PRECISION", "DEFAULT_THRESHOLD"]

MIN_PRECISION = 4
DEFAULT_THRESHOLD = 200


@dataclass(frozen=True)
class QuantGrid:
    origin: np.ndarray          # bbox min of the original mesh
    scale: float                # model units -> [0, 2^q_max - 1]
    q_max: int

    def __post_init__(self):
        if not 4 <= self.q_max <= 16:
            raise ValueError("q_max must be in [4, 16]")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def levels(self) -> int:
        return (1 << self.q_max) - 1

    def quantize(self, points: np.ndarray) -> np.ndarray:
        """Round positions to integer grid coordinates (clipped)."""
        pts = np.asarray(points, dtype=np.float64)
        ints = np.floor((pts - self.origin) * self.scale + 0.5).astype(np.int64)
        return np.clip(ints, 0, self.levels)

    def dequantize(self, ints: np.ndarray) -> np.ndarray:
        return self.origin + np.asarray(ints, dtype=np.float64) / self.scale


def make_grid(mesh: TriMesh, q_max: int = 12) -> QuantGrid:
    """Isotropic grid over the mesh bounding box (longest axis rules)."""
    box = bounding_box(mesh)
    extent = float(box.extent.max())
    if extent <= 0.0:
        raise ValueError("zero-extent mesh (all vertices coincident)")
    scale = ((1 << q_max) - 1) / extent
    origin = box.min_corner.copy()
    origin.setflags(write=False)
    return QuantGrid(origin, scale, q_max)


def scale_to_precision(coords: np.ndarray, q_max: int, q_i: int) -> np.ndarray:
    """Keep the q_i most significant of q_max bits (floor scaling)."""
    if not MIN_PRECISION <= q_i <= q_max:
        raise ValueError(f"precision {q_i} outside [{MIN_PRECISION}, {q_max}]")
    return np.asarray(coords, dtype=np.int64) >> (q_max - q_i)


def _nearest_candidate(target: np.ndarray, candidates: np.ndarray) -> int:
    """Index of the Euclidean nearest candidate; first index wins ties."""
    d2 = np.sum((candidates - target) ** 2, axis=1)
    return int(np.argmin(d2))


def assign_precision(target: np.ndarray, candidates: np.ndarray,
                     grid: QuantGrid, threshold: int = DEFAULT_THRESHOLD,
                     exclude: int | None = None) -> tuple[int, np.ndarray]:
    """Smallest q_i whose scaled squared neighbor distance reaches the
    threshold, capped at q_max. Returns (q_i, target coords at q_i bits)."""
    candidates = np.asarray(candidates, dtype=np.float64).reshape(-1, 3)
    if exclude is not None:
        keep = np.arange(len(candidates)) != exclude
        candidates = candidates[keep]
    if not len(candidates):
        raise ValueError("empty candidate set")
    nn = candidates[_nearest_candidate(target, candidates)]
    ci = grid.quantize(target)
    cj = grid.quantize(nn)
    for q in range(MIN_PRECISION, grid.q_max + 1):
        a = ci >> (grid.q_max - q)
        b = cj >> (grid.q_max - q)
        if int(np.sum((a - b) ** 2)) >= threshold:
            return q, a
    q = grid.q_max
    return q, ci


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero."""
    x = np.asarray(x, dtype=np.float64)
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)


def canonical_odd_order(record: LevelRecord) -> list[int]:
    """Odd vertices sorted by coarse parent edge (min, then max index)."""
    def key(odd: int):
        a, b = record.parent_edge[odd]
        ca, cb = record.fine_to_coarse[a], record.fine_to_coarse[b]
        return (min(ca, cb), max(ca, cb))
    return sorted(record.parent_edge, key=key)


def quantize_details(coeffs: CoefficientSet, record: LevelRecord,
                     grid: QuantGrid, decoded_coarse: np.ndarray,
                     threshold: int = DEFAULT_THRESHOLD):
    """Per-odd-vertex precision and integer detail triples.

    `decoded_coarse` must be exactly the geometry the decoder holds before
    this level's details arrive; the prediction and the precision rule use
    only that data. The detail quantizer step for a vertex is the grid
    step at its own q_i.
    """
    if set(coeffs.details) != set(record.parent_edge):
        raise ValueError("coefficient set does not match the level record")
    decoded_coarse = np.asarray(decoded_coarse, dtype=np.float64)
    if len(decoded_coarse) != record.coarse_mesh.vertex_count:
        raise ValueError("decoded coarse geometry length mismatch")
    out = []
    fine_pos = {}
    for odd in record.parent_edge:
        a, b = record.parent_edge[odd]
        mid = 0.5 * (record.fine_mesh.vertices[a] + record.fine_mesh.vertices[b])
        fine_pos[odd] = mid + coeffs.details[odd]
    for odd in canonical_odd_order(record):
        a, b = record.parent_edge[odd]
        ca, cb = record.fine_to_coarse[a], record.fine_to_coarse[b]
        prediction = 0.5 * (decoded_coarse[ca] + decoded_coarse[cb])
        q_i, _ = assign_precision(prediction, decoded_coarse, grid, threshold)
        step = 1 << (grid.q_max - q_i)
        detail = fine_pos[odd] - prediction
        ints = round_half_away(detail * grid.scale / step)
        out.append((odd, q_i, ints))
    return out
