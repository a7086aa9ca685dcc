"""GPS (insertion-only weighted sampling, Section III-A) and GPS-A (the
paper's straw-man fully-dynamic adaptation, Section III-B), as WSD with a
different deletion rule.

GPS maintains the top-M edges by rank; the estimation threshold
``z_star = r_{M+1}`` is the largest rank ever discarded, so
``P[e ∈ R] = min(1, w(e)/z_star)`` (Eq. 1). GPS rejects deletion events —
Example 1 of the paper shows it is *incorrect* on fully dynamic streams.

GPS-A handles a deletion by attaching a "DEL" tag: the edge stops forming
subgraphs and is excluded from the estimator, but keeps occupying reservoir
capacity until evicted by rank — the space-waste drawback WSD removes.

Why WSD's insertion rule is GPS's: neither sampler here ever removes an
edge outright (GPS rejects deletions, GPS-A only tags), so once full the
reservoir stays full, always holds the top-M ranks, and its minimum rank
never decreases. Every rank discarded so far is therefore at most the
current minimum ``r_min``, so GPS's ``z* = max(z*, r_min)`` on a replacement
is WSD's ``tau_q = tau_p = r_min``, and ``z* = max(z*, r)`` on a rejection
is WSD's ``if r > tau_q: tau_q = r``. While the reservoir fills,
``tau_p = 0 < r``, so every edge is admitted, as in GPS. Hence ``z_star``
is WSD's ``tau_q``, and only ``_delete`` differs.
"""
from __future__ import annotations

from .patterns import edge_key, instances
from .wsd import WSD

__all__ = ["GPS", "GPSA"]


class GPS(WSD):
    name = "GPS"
    supports_deletion = False

    @property
    def z_star(self) -> float:
        """r_{M+1}, the largest discarded rank (Eq. 1); equals ``tau_q``."""
        return self.tau_q

    def _delete(self, u: int, v: int) -> None:
        raise NotImplementedError(
            "GPS is insertion-only (Example 1 shows it is biased under deletions)"
        )


class GPSA(GPS):
    name = "GPS-A"
    supports_deletion = True

    def _delete(self, u: int, v: int) -> None:
        key = edge_key(u, v)
        res = self.res
        if key in res:
            res.tag(key)  # leaves the zombie occupying capacity
        inst = list(instances(self.pattern, res.adj, u, v))
        if inst:
            self.estimate -= self._contribution(inst)
