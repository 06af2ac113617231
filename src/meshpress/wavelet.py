"""Interpolating lazy-wavelet analysis and synthesis over one hierarchy
level.

Even vertices pass through unchanged, so a level's approximation is its
coarse mesh's geometry. Each odd vertex is predicted by its parent-edge
midpoint, and its detail is the offset from that prediction.

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


def analyze(record: LevelRecord, fine_geometry: np.ndarray) -> CoefficientSet:
    fine_geometry = np.asarray(fine_geometry, dtype=np.float64)
    if len(fine_geometry) != record.fine_mesh.vertex_count:
        raise ValueError("geometry length does not match the level's fine mesh")
    details = {}
    for odd, (a, b) in record.parent_edge.items():
        mid = 0.5 * (fine_geometry[a] + fine_geometry[b])
        details[odd] = fine_geometry[odd] - mid
    approx = fine_geometry[record.coarse_to_fine]
    return CoefficientSet(record.level_index, approx, details)


def synthesize_edges(coarse: np.ndarray, edges: np.ndarray,
                     details: np.ndarray) -> np.ndarray:
    """One new vertex per split edge (u, v) at its midpoint plus its
    detail. Returns the coarse vertices followed by the new ones, in edge
    order."""
    nc = len(coarse)
    fine = np.empty((nc + len(edges), 3), dtype=np.float64)
    fine[:nc] = coarse
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
    fine_edges = np.array(list(record.parent_edge.values()), dtype=np.int64)
    edges = np.searchsorted(record.coarse_to_fine, fine_edges.reshape(-1, 2))
    out = synthesize_edges(approx, edges, details)
    fine = np.zeros((record.fine_mesh.vertex_count, 3), dtype=np.float64)
    fine[record.coarse_to_fine] = out[:len(approx)]
    fine[odds] = out[len(approx):]
    return fine
