"""Subgraph pattern definitions and local instance enumeration.

A pattern instance containing a focal edge ``(u, v)`` is enumerated against an
adjacency structure ``adj: dict[int, set[int]]`` that must NOT contain the
focal edge itself (samplers insert the edge after enumeration and remove it
before enumeration on deletion — matching Algorithm 2's
``J ⊆ (R ∪ e_t), e_t ∈ J``).

``instances`` yields, per instance, the tuple of the *other* ``|H| - 1`` edge
keys (canonical ``(min, max)`` vertex pairs). Supported patterns and their
edge counts |H| (Section V-A): wedge (2), triangle (3), 4-clique (6).

``adj_add`` / ``adj_remove`` maintain that adjacency format for every
sampler and the exact counter: a vertex key is present iff it has at least
one neighbour.
"""
from __future__ import annotations

from typing import Iterator

PATTERN_EDGES = {"wedge": 2, "triangle": 3, "4clique": 6}

__all__ = [
    "PATTERN_EDGES",
    "edge_key",
    "adj_add",
    "adj_remove",
    "instances",
    "count_instances",
]


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical undirected edge key."""
    return (u, v) if u < v else (v, u)


def adj_add(adj: dict[int, set[int]], u: int, v: int) -> None:
    """Add undirected edge ``(u, v)`` to ``adj``."""
    adj.setdefault(u, set()).add(v)
    adj.setdefault(v, set()).add(u)


def adj_remove(adj: dict[int, set[int]], u: int, v: int) -> None:
    """Remove undirected edge ``(u, v)`` from ``adj`` (a no-op if absent),
    deleting a vertex key once its last neighbour is gone."""
    for a, b in ((u, v), (v, u)):
        s = adj.get(a)
        if s is not None:
            s.discard(b)
            if not s:
                del adj[a]


def instances(
    pattern: str, adj: dict[int, set[int]], u: int, v: int
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield the other-edge key tuples of every ``pattern`` instance formed by
    edge ``(u, v)`` together with edges of the graph described by ``adj``."""
    nu = adj.get(u, _EMPTY)
    nv = adj.get(v, _EMPTY)
    if pattern == "wedge":
        for w in nu:
            if w != v:
                yield (edge_key(u, w),)
        for w in nv:
            if w != u:
                yield (edge_key(v, w),)
    elif pattern == "triangle":
        if len(nu) > len(nv):
            nu, nv = nv, nu
        for w in nu:
            if w in nv:
                yield (edge_key(u, w), edge_key(v, w))
    elif pattern == "4clique":
        common = sorted(w for w in (nu if len(nu) <= len(nv) else nv) if w in nv and w in nu)
        for i in range(len(common)):
            wi = common[i]
            awi = adj.get(wi, _EMPTY)
            for j in range(i + 1, len(common)):
                wj = common[j]
                if wj in awi:
                    yield (
                        edge_key(u, wi),
                        edge_key(v, wi),
                        edge_key(u, wj),
                        edge_key(v, wj),
                        edge_key(wi, wj),
                    )
    else:
        raise ValueError(f"unknown pattern {pattern!r}")


def count_instances(pattern: str, adj: dict[int, set[int]], u: int, v: int) -> int:
    """Number of ``pattern`` instances formed by edge ``(u, v)`` — the exact
    per-event count delta, specialised for speed (no key materialisation)."""
    nu = adj.get(u, _EMPTY)
    nv = adj.get(v, _EMPTY)
    if pattern == "wedge":
        return len(nu) - (1 if v in nu else 0) + len(nv) - (1 if u in nv else 0)
    if pattern == "triangle":
        if len(nu) > len(nv):
            nu, nv = nv, nu
        return sum(1 for w in nu if w in nv)
    if pattern == "4clique":
        common = [w for w in (nu if len(nu) <= len(nv) else nv) if w in nv and w in nu]
        c = 0
        for i in range(len(common)):
            awi = adj.get(common[i], _EMPTY)
            for j in range(i + 1, len(common)):
                if common[j] in awi:
                    c += 1
        return c
    raise ValueError(f"unknown pattern {pattern!r}")


_EMPTY: frozenset[int] = frozenset()
