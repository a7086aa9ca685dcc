"""Sampler factory — maps the paper's algorithm names to kernel instances.

``ALGOS_DYNAMIC`` is the comparison set of Tables II/III/VII–X;
``ALGOS_INSERTION`` that of Table VI (where WSD-H and GPS-A degenerate to
GPS, as the paper notes).
"""
from __future__ import annotations

import numpy as np

from ..baselines.thinkd import ThinkD
from ..baselines.triest import Triest
from ..baselines.wrs import WRS
from ..core.gps import GPS, GPSA
from ..core.weights import heuristic_weight
from ..core.wsd import WSD
from ..rl.policy import LearnedPolicy

ALGOS_DYNAMIC = ["WSD-L", "WSD-H", "GPS-A", "Triest", "ThinkD", "WRS"]
ALGOS_INSERTION = ["WSD-L", "GPS", "Triest", "ThinkD", "WRS"]

__all__ = ["ALGOS_DYNAMIC", "ALGOS_INSERTION", "make_sampler"]


def make_sampler(
    name: str,
    M: int,
    pattern: str,
    seed: int,
    *,
    policy: LearnedPolicy | dict | None = None,
    wr_ratio: float = 0.1,
):
    """Instantiate algorithm ``name``. ``policy`` (a LearnedPolicy or its
    raw param dict, for Spark-closure friendliness) is required for WSD-L."""
    if name == "WSD-L":
        if policy is None:
            raise ValueError("WSD-L requires a trained policy")
        if isinstance(policy, dict):
            policy = LearnedPolicy(
                {"W": np.asarray(policy["W"]), "b": np.asarray(policy["b"])},
                pattern=policy.get("pattern", pattern),
                variant=policy.get("variant", "max"),
            )
        return WSD(M, pattern, policy.as_weight_fn(), seed)
    if name == "WSD-H":
        return WSD(M, pattern, heuristic_weight, seed)
    if name == "GPS":
        return GPS(M, pattern, heuristic_weight, seed)
    if name == "GPS-A":
        return GPSA(M, pattern, heuristic_weight, seed)
    if name == "Triest":
        return Triest(M, pattern, seed)
    if name == "ThinkD":
        return ThinkD(M, pattern, seed)
    if name == "WRS":
        return WRS(M, pattern, seed, wr_ratio=wr_ratio)
    raise ValueError(f"unknown algorithm {name!r}")
