"""Triest-FD [De Stefani et al., TKDD'17] — uniform reservoir via random
pairing, counting pattern instances that lie *wholly inside the sample* and
rescaling by the inverse inclusion probability of |H| edges at query time.

This "count inside the sample" design is what gives Triest the highest
variance among the baselines (the arriving edge's instances only contribute
if the edge itself gets sampled), which is the property the paper's
comparison exercises.
"""
from __future__ import annotations

from ..core.patterns import PATTERN_EDGES, adj_add, adj_remove, count_instances, edge_key
from .random_pairing import RandomPairing

__all__ = ["Triest"]


class Triest:
    name = "Triest"
    supports_deletion = True

    def __init__(self, M: int, pattern: str, seed: int = 0) -> None:
        self.pattern = pattern
        self.h = PATTERN_EDGES[pattern]
        self.rp = RandomPairing(M, seed)
        self.adj: dict[int, set[int]] = {}
        self.sample_count = 0.0  # instances wholly inside the sample graph
        self.t = 0

    # -- adjacency/count hooks on sample membership changes ----------------
    def _count_with(self, key: tuple[int, int]) -> int:
        """Instances formed by ``key`` with the *other* sampled edges; the
        adjacency must not contain ``key`` when called."""
        return count_instances(self.pattern, self.adj, key[0], key[1])

    def _sample_add(self, key: tuple[int, int]) -> None:
        self.sample_count += self._count_with(key)
        adj_add(self.adj, key[0], key[1])

    def _sample_remove(self, key: tuple[int, int]) -> None:
        adj_remove(self.adj, key[0], key[1])
        self.sample_count -= self._count_with(key)

    # -- stream interface --------------------------------------------------
    def process(self, op: int, u: int, v: int) -> None:
        self.t += 1
        key = edge_key(u, v)
        if op > 0:
            decision, evicted = self.rp.on_insert(key)
            if decision == "replace":
                self._sample_remove(evicted)
            if decision in ("add", "replace"):
                self._sample_add(key)
        else:
            if self.rp.on_delete(key):
                self._sample_remove(key)

    @property
    def estimate(self) -> float:
        return self.sample_count / self.rp.inclusion_prob(self.h)
