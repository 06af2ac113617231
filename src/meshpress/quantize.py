"""Grid quantization and the per-vertex adaptive precision rule.

The global grid maps model coordinates to integers on an isotropic
q_max-bit lattice anchored at the original mesh's bounding-box minimum.
Per-vertex precision q_i is the smallest bit count in [4, q_max] at which
a vertex and its nearest decoder-visible neighbor land at least
sqrt(threshold) scaled grid units apart; everything the rule consumes is
available to the decoder, which keeps both sides in lockstep.
:func:`batch_precision` is the rule's one implementation: it takes all
split vertices of a level at once, and the codec calls it once per level.
It finds each target's nearest candidate with one k-nearest query on a
k-d tree (Friedman, Bentley & Finkel, ACM TOMS 1977), k doubling until
every candidate that could tie the nearest is among the k, and ranks
those in the reference arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .mesh import MeshError, TriMesh, bounding_box

__all__ = ["QuantGrid", "make_grid", "batch_precision", "assign_precision",
           "MIN_PRECISION", "DEFAULT_THRESHOLD"]

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
        np.maximum(ints, 0, out=ints)
        return np.minimum(ints, self.levels, out=ints)

    def dequantize(self, ints: np.ndarray) -> np.ndarray:
        return self.origin + np.asarray(ints, dtype=np.float64) / self.scale


def make_grid(mesh: TriMesh, q_max: int = 12) -> QuantGrid:
    """Isotropic grid over the mesh bounding box (longest axis rules)."""
    box = bounding_box(mesh)
    with np.errstate(over="ignore"):
        extent = float(box.extent.max())
    if extent <= 0.0:
        raise MeshError("zero-extent mesh (all vertices coincident)")
    if extent == math.inf:
        raise MeshError("mesh extent overflows a float64")
    scale = ((1 << q_max) - 1) / extent
    origin = box.min_corner.copy()
    origin.setflags(write=False)
    return QuantGrid(origin, scale, q_max)


# Relative margin on the k-d distance: the tree and the reference
# arithmetic differ by a few ulps, so every candidate that could tie the
# nearest in the latter lies inside this ball.
_TIE_MARGIN = 1e-9


def _nearest(targets: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Index of each target's nearest candidate under the reference
    arithmetic `np.sum((c - t) ** 2, axis=1)`, first index winning ties.

    One k-d tree query takes each target's k nearest, k starting at 3 and
    doubling for the whole batch until, for every target, the k-th lies
    beyond its nearest distance times 1 + _TIE_MARGIN (plus 1e-150, which
    keeps distances whose squares underflow), or k reaches the candidate
    count. The k then hold every candidate that could tie the nearest,
    and they are ranked again in the reference arithmetic, written out
    per axis as `dx*dx + dy*dy + dz*dz` (the same sum, bit for bit)."""
    n = len(candidates)
    if not len(targets):
        return np.empty(0, dtype=np.int64)
    tree = cKDTree(candidates)
    k = min(3, n)
    while True:
        dist, idx = tree.query(targets, k)
        dist, idx = dist.reshape(len(targets), k), idx.reshape(len(targets), k)
        if k == n or (dist[:, -1] > dist[:, 0] * (1 + _TIE_MARGIN)
                      + 1e-150).all():
            break
        k = min(2 * k, n)
    d = candidates[idx] - targets[:, None, :]               # (m, k, axis)
    d *= d
    d2 = d[:, :, 0] + d[:, :, 1] + d[:, :, 2]
    tied = d2 == d2.min(axis=1, keepdims=True)
    return np.where(tied, idx, n).min(axis=1)


def batch_precision(targets: np.ndarray, candidates: np.ndarray,
                    grid: QuantGrid, threshold: int = DEFAULT_THRESHOLD
                    ) -> np.ndarray:
    """q_i of every target: the smallest q whose scaled squared distance
    to the Euclidean nearest candidate (first index wins ties) reaches the
    threshold, capped at q_max."""
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 3)
    candidates = np.asarray(candidates, dtype=np.float64).reshape(-1, 3)
    if len(targets) and not len(candidates):
        raise ValueError("empty candidate set")
    nearest = candidates[_nearest(targets, candidates)]
    shifts = grid.q_max - np.arange(MIN_PRECISION, grid.q_max + 1)
    ints = grid.quantize(np.concatenate([targets, nearest]))
    ints = ints[:, :, None] >> shifts                       # (2m, axis, q)
    d = ints[:len(targets)] - ints[len(targets):]
    d *= d
    reached = d[:, 0] + d[:, 1] + d[:, 2] >= threshold      # (m, q)
    return np.where(reached.any(axis=1),
                    MIN_PRECISION + reached.argmax(axis=1), grid.q_max)


def assign_precision(target: np.ndarray, candidates: np.ndarray,
                     grid: QuantGrid, threshold: int = DEFAULT_THRESHOLD
                     ) -> tuple[int, np.ndarray]:
    """One-target :func:`batch_precision`. Returns (q_i, target coords at
    q_i bits)."""
    q = int(batch_precision(target, candidates, grid, threshold)[0])
    return q, grid.quantize(target) >> (grid.q_max - q)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero."""
    x = np.asarray(x, dtype=np.float64)
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
