"""Lifted lazy-wavelet analysis and synthesis over one hierarchy level.

Prediction is the parent-edge midpoint; the optional lifting step updates
each even vertex with the mean of its incident detail vectors scaled by
1/4, which keeps the transform exactly invertible for any weight.

:func:`synthesize_edges` is the only synthesis kernel: the decoder calls
it on the split edges it reads, and :func:`synthesize` maps a
:class:`LevelRecord` onto it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hierarchy import LevelRecord

__all__ = ["CoefficientSet", "analyze", "synthesize", "synthesize_edges"]


@dataclass
class CoefficientSet:
    level_index: int
    approx_geometry: np.ndarray            # coarse-mesh vertex order
    details: dict[int, np.ndarray]         # odd fine vertex -> 3-vector
    lifted: bool


def _lifting_update(edges: np.ndarray, details: np.ndarray, count: int):
    """(touched mask, mean incident detail / 4) over `count` coarse
    vertices. Each vertex sums its details in edge order."""
    idx = edges.ravel()                    # u0, v0, u1, v1, ...
    acc = np.zeros((count, 3), dtype=np.float64)
    np.add.at(acc, idx, np.repeat(details, 2, axis=0))
    cnt = np.bincount(idx, minlength=count)
    touched = cnt > 0
    return touched, acc[touched] / (4.0 * cnt[touched, None])


def _coarse_edges(record: LevelRecord) -> np.ndarray:
    """Parent edges as coarse vertex pairs, in `parent_edge` order."""
    fine = np.array(list(record.parent_edge.values()), dtype=np.int64)
    return np.searchsorted(record.coarse_to_fine, fine.reshape(-1, 2))


def analyze(record: LevelRecord, fine_geometry: np.ndarray,
            lifting: bool = True) -> CoefficientSet:
    fine_geometry = np.asarray(fine_geometry, dtype=np.float64)
    if len(fine_geometry) != record.fine_mesh.vertex_count:
        raise ValueError("geometry length does not match the level's fine mesh")
    details = {}
    for odd, (a, b) in record.parent_edge.items():
        mid = 0.5 * (fine_geometry[a] + fine_geometry[b])
        details[odd] = fine_geometry[odd] - mid
    approx = fine_geometry[record.coarse_to_fine].copy()
    if lifting and details:
        touched, update = _lifting_update(
            _coarse_edges(record), np.array(list(details.values())),
            len(approx))
        approx[touched] -= update
    return CoefficientSet(record.level_index, approx, details, lifting)


def synthesize_edges(coarse: np.ndarray, edges: np.ndarray,
                     details: np.ndarray, lifted: bool) -> np.ndarray:
    """Inverse lifting step, then one new vertex per split edge (u, v) at
    the updated midpoint plus its detail. Returns the coarse vertices
    followed by the new ones, in edge order."""
    nc = len(coarse)
    fine = np.empty((nc + len(edges), 3), dtype=np.float64)
    fine[:nc] = coarse
    if lifted and len(edges):
        touched, update = _lifting_update(edges, details, nc)
        fine[:nc][touched] += update
    fine[nc:] = 0.5 * (fine[edges[:, 0]] + fine[edges[:, 1]]) + details
    return fine


def synthesize(record: LevelRecord, coeffs: CoefficientSet) -> np.ndarray:
    """Exact inverse of :func:`analyze`; returns fine-mesh geometry."""
    if coeffs.level_index != record.level_index:
        raise ValueError("coefficient set belongs to a different level")
    if set(coeffs.details) != set(record.parent_edge):
        raise ValueError("detail vertices do not match the level record")
    approx = np.asarray(coeffs.approx_geometry, dtype=np.float64)
    if len(approx) != record.coarse_mesh.vertex_count:
        raise ValueError("approx geometry length mismatch")
    odds = list(record.parent_edge)
    details = np.array([coeffs.details[o] for o in odds]).reshape(-1, 3)
    out = synthesize_edges(approx, _coarse_edges(record), details,
                           coeffs.lifted)
    fine = np.zeros((record.fine_mesh.vertex_count, 3), dtype=np.float64)
    fine[record.coarse_to_fine] = out[:len(approx)]
    fine[odds] = out[len(approx):]
    return fine
