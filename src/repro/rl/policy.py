"""Learned weight policy (the WSD-L actor) — Section IV-B.

The actor is ``a = ReLU(W s + b) + 1`` (Eq. 27, with the paper's "+1 to
avoid zero weights"). ``variant`` selects the temporal state aggregation of
Eq. (20): ``"max"`` (WSD-L) or ``"avg"`` (the Table XIII ablation).

A policy serialises to one plain dict (``to_dict``/``from_dict``): the
Spark broadcast payload, and, with its training info, the JSON file cached
under ``results/policies/``.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..core.patterns import PATTERN_EDGES
from ..core.weights import make_learned_weight

__all__ = ["LearnedPolicy", "heuristic_init_params"]


def heuristic_init_params(pattern: str) -> dict[str, np.ndarray]:
    """Actor parameters that reproduce the WSD-H heuristic exactly:
    W = [9, 0, …], b = 0 gives ReLU(9·|H_k|) + 1 = 9·|H(e)| + 1.

    Used to warm-start training so WSD-L starts as a refinement of WSD-H
    (see DESIGN.md substitutions — a stand-in for the paper's hours-long
    from-scratch training)."""
    d = PATTERN_EDGES[pattern] + 3
    W = np.zeros((1, d))
    W[0, 0] = 9.0
    return {"W": W, "b": np.zeros(1)}


class LearnedPolicy:
    def __init__(self, params: dict[str, np.ndarray], pattern: str, variant: str = "max") -> None:
        d = PATTERN_EDGES[pattern] + 3
        if np.shape(params["W"]) != (1, d) or np.shape(params["b"]) != (1,):
            raise ValueError(f"actor W must be (1, {d}) and b (1,) for pattern {pattern!r}")
        self.params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
        self.pattern = pattern
        self.variant = variant

    def __call__(self, state: np.ndarray) -> float:
        z = float((self.params["W"] @ state)[0] + self.params["b"][0])
        return max(z, 0.0) + 1.0

    def as_weight_fn(self):
        return make_learned_weight(self, self.variant)

    # -- persistence -------------------------------------------------------
    def to_dict(self) -> dict:
        """The policy as plain JSON-ready values (also the Spark payload)."""
        return {
            "pattern": self.pattern,
            "variant": self.variant,
            "W": self.params["W"].tolist(),
            "b": self.params["b"].tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LearnedPolicy":
        """Inverse of ``to_dict``; ``W`` and ``b`` may be lists or arrays."""
        return cls({"W": np.asarray(d["W"]), "b": np.asarray(d["b"])}, d["pattern"], d["variant"])

    def save(self, path: str | Path, info: dict | None = None) -> None:
        """Write the policy and its training ``info`` as one JSON file."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps({**self.to_dict(), "info": info or {}}, indent=1))

    @classmethod
    def load(cls, path: str | Path) -> tuple["LearnedPolicy", dict]:
        """Read a file written by ``save``; returns (policy, training info).
        Any unreadable or malformed file raises ``ValueError`` naming it."""
        try:
            d = json.loads(Path(path).read_text())
            return cls.from_dict(d), dict(d["info"])
        except (ValueError, KeyError, TypeError) as e:
            raise ValueError(f"unreadable policy file {path}: {e!r}") from e
