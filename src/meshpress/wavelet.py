"""Interpolating lazy-wavelet analysis and synthesis over one hierarchy
level.

Even vertices pass through unchanged, so a level's approximation is its
coarse mesh's geometry. Each odd vertex is predicted by its parent-edge
midpoint, and its detail is the offset from that prediction.

The two functions are mutual inverses on arrays: the encoder calls
:func:`analyze` once per level and the decoder :func:`synthesize`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["analyze", "synthesize"]


def analyze(geometry: np.ndarray, odds, edges: np.ndarray) -> np.ndarray:
    """The (S, 3) details of the odd vertices `odds`, each the offset of
    its position in `geometry` from the midpoint of its parent edge, the
    matching row of `edges` (ids into `geometry`). The endpoint order
    does not change a bit: IEEE addition is commutative."""
    return geometry[odds] - 0.5 * (geometry[edges[:, 0]]
                                   + geometry[edges[:, 1]])


def synthesize(coarse: np.ndarray, edges: np.ndarray,
               details: np.ndarray) -> np.ndarray:
    """One new vertex per split edge (u, v) at its midpoint plus its
    detail. Returns the coarse vertices followed by the new ones, in edge
    order."""
    nc = len(coarse)
    fine = np.empty((nc + len(edges), 3), dtype=np.float64)
    fine[:nc] = coarse
    fine[nc:] = 0.5 * (fine[edges[:, 0]] + fine[edges[:, 1]]) + details
    return fine
