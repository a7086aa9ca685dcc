"""Rank function and inclusion probabilities (Section III).

The paper instantiates the rank function as ``r = f(w) = w / u`` with
``u ~ Uniform(0, 1]`` [GPS / priority sampling], for which

    P[r > tau] = min(1, w / tau)     (tau > 0; 1 when tau == 0).
"""
from __future__ import annotations

import numpy as np

__all__ = ["rank", "inclusion_prob"]

_INF = float("inf")


def rank(w: float, rng: np.random.Generator) -> float:
    """Probabilistic rank ``w / u`` of an edge with finite weight ``w > 0``.

    A NaN or infinite rank would silently break the reservoir's heap order,
    so such weights are rejected like non-positive ones."""
    if not 0 < w < _INF:
        raise ValueError(f"edge weight must be finite and positive, got {w}")
    u = 1.0 - rng.random()  # uniform in (0, 1]
    return w / u


def inclusion_prob(w: float, tau: float) -> float:
    """P[rank(w) > tau] = min(1, w / tau); 1 when the threshold is still 0."""
    if tau <= 0.0:
        return 1.0
    return min(1.0, w / tau)
