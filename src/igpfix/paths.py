"""Shortest paths, ECMP routing structure, and bounded path enumeration.

Paths are tuples of node ids ending at the destination; the empty path at d
is the one-element tuple (d,).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .netmodel import LinkKey, NetworkInstance, WeightError, link_key
from .routing import shortest_paths

RoutePath = tuple[str, ...]


def is_empty(p: RoutePath) -> bool:
    return len(p) == 1


def destination(p: RoutePath) -> str:
    return p[-1]


def links_of(p: RoutePath) -> list[LinkKey]:
    return [link_key(p[i], p[i + 1]) for i in range(len(p) - 1)]


def immediate_suffix(p: RoutePath) -> RoutePath:
    if is_empty(p):
        raise ValueError("empty path has no suffix")
    return p[1:]


def suffixes(p: RoutePath) -> list[RoutePath]:
    """All suffixes of p including p itself and the empty path."""
    return [p[i:] for i in range(len(p))]


def path_weight(p: RoutePath, w: Mapping[LinkKey, Optional[int]]) -> int:
    """Sum of link weights along p; 0 for the empty path."""
    total = 0
    for k in links_of(p):
        if k not in w or w[k] is None:
            raise WeightError(f"unknown weight on link {k}")
        total += w[k]
    return total


@dataclass(frozen=True)
class EcmpDag:
    """Minimum-weight next-hop DAG toward one destination."""

    destination: str
    dist: Mapping[str, float]
    next_hops: Mapping[str, tuple[str, ...]]

    def reachable(self, v: str) -> bool:
        return np.isfinite(self.dist[v])


def build_ecmp_dag(
    inst: NetworkInstance, d: str, w: Mapping[LinkKey, Optional[int]]
) -> EcmpDag:
    """DAG of all minimum-weight next hops toward d; rejects zero weights
    (see routing.Routing.require_positive)."""
    if d not in inst.nodes:
        raise KeyError(f"destination {d!r} not in instance")
    routing = shortest_paths(inst, [d], w)
    routing.require_positive()
    ga, dist = routing.ga, routing.dist[0]
    hops: dict[str, list[str]] = {v: [] for v in inst.nodes}
    for k in np.nonzero(routing.next_hop[0])[0]:
        u, v = ga.arcs[k]
        hops[u].append(v)
    next_hops = {v: tuple(sorted(hops[v])) if dist[ga.index[v]] > 0 else () for v in inst.nodes}
    return EcmpDag(d, {v: float(dist[ga.index[v]]) for v in inst.nodes}, next_hops)


def dijkstra_distances(
    inst: NetworkInstance, d: str, w: Mapping[LinkKey, Optional[int]]
) -> dict[str, float]:
    """Shortest-path distance of every node to d (inf if unreachable)."""
    routing = shortest_paths(inst, [d], w)
    return {v: float(routing.dist[0, routing.ga.index[v]]) for v in inst.nodes}


def enumerate_paths(inst: NetworkInstance, d: str, hop_bound: int) -> list[RoutePath]:
    """All simple paths to d with at most hop_bound links, plus the empty
    path, in lexicographic order."""
    if hop_bound < 1:
        raise ValueError("hop_bound must be >= 1")
    if d not in inst.nodes:
        raise KeyError(f"destination {d!r} not in instance")
    found: list[RoutePath] = [(d,)]

    def extend(p: RoutePath) -> None:
        # p currently starts at p[0]; grow backwards toward new sources
        if len(p) - 1 >= hop_bound:
            return
        for u in inst.neighbors(p[0]):
            if u not in p:
                q = (u,) + p
                found.append(q)
                extend(q)

    extend((d,))
    return sorted(found)


def enumerate_paths_multi(
    inst: NetworkInstance, egresses: list[str], hop_bound: int
) -> list[RoutePath]:
    """Union of bounded simple paths toward each egress, lexicographic."""
    out: set[RoutePath] = set()
    for e in egresses:
        out.update(enumerate_paths(inst, e, hop_bound))
    return sorted(out)
