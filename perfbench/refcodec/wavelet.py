"""Lifted lazy-wavelet analysis and synthesis over one hierarchy level.

Prediction is the parent-edge midpoint; the optional lifting step updates
each even vertex with the mean of its incident detail vectors scaled by
1/4, which keeps the transform exactly invertible for any weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hierarchy import LevelRecord

__all__ = ["CoefficientSet", "analyze", "synthesize"]


@dataclass
class CoefficientSet:
    level_index: int
    approx_geometry: np.ndarray            # coarse-mesh vertex order
    details: dict[int, np.ndarray]         # odd fine vertex -> 3-vector
    lifted: bool


def _incident_details(record: LevelRecord, details: dict[int, np.ndarray]):
    """Even fine vertex -> (count, summed detail) over incident parent edges."""
    acc: dict[int, np.ndarray] = {}
    cnt: dict[int, int] = {}
    for odd, (a, b) in record.parent_edge.items():
        d = details[odd]
        for e in (a, b):
            if e in acc:
                acc[e] = acc[e] + d
                cnt[e] += 1
            else:
                acc[e] = d.copy()
                cnt[e] = 1
    return cnt, acc


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
    if lifting:
        cnt, acc = _incident_details(record, details)
        for e, total in acc.items():
            ci = record.fine_to_coarse[e]
            approx[ci] -= total / (4.0 * cnt[e])
    return CoefficientSet(record.level_index, approx, details, lifting)


def synthesize(record: LevelRecord, coeffs: CoefficientSet) -> np.ndarray:
    """Exact inverse of :func:`analyze`; returns fine-mesh geometry."""
    if coeffs.level_index != record.level_index:
        raise ValueError("coefficient set belongs to a different level")
    if set(coeffs.details) != set(record.parent_edge):
        raise ValueError("detail vertices do not match the level record")
    approx = np.asarray(coeffs.approx_geometry, dtype=np.float64)
    if len(approx) != record.coarse_mesh.vertex_count:
        raise ValueError("approx geometry length mismatch")
    fine = np.zeros((record.fine_mesh.vertex_count, 3), dtype=np.float64)
    fine[record.coarse_to_fine] = approx
    if coeffs.lifted:
        cnt, acc = _incident_details(record, coeffs.details)
        for e, total in acc.items():
            fine[e] += total / (4.0 * cnt[e])
    for odd, (a, b) in record.parent_edge.items():
        fine[odd] = 0.5 * (fine[a] + fine[b]) + coeffs.details[odd]
    return fine
