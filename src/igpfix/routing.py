"""Shortest paths and split loads toward every demand destination at once.

One scipy csgraph Dijkstra call gives every node's distance to each
destination. The next-hop mask and the loads follow as array operations over
the directed arcs, one row per destination. Every routing view in the
package reads from here: the ECMP TE cost, shortest-path flow, the ECMP DAG
and plain distances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .netmodel import DemandMatrix, LinkKey, NetworkInstance, ValidationError, WeightError

Arc = tuple[str, str]
SplitTable = Mapping[str, Mapping[str, float]]


@dataclass(frozen=True)
class GraphArrays:
    """Both directions of every link as arcs, grouped by source node.

    Node u owns arcs adj_ptr[u]:adj_ptr[u + 1]. out_arcs lists each node's
    arcs, padded with len(arc_src), one past the last arc.
    """

    nodes: tuple[str, ...]
    index: Mapping[str, int]
    links: tuple[LinkKey, ...]
    adj_ptr: np.ndarray
    arc_src: np.ndarray
    arc_dst: np.ndarray
    arc_link: np.ndarray
    arcs: tuple[Arc, ...]
    out_arcs: np.ndarray

    def weight_array(self, w: Mapping[LinkKey, Optional[int]]) -> np.ndarray:
        out = np.empty(len(self.links))
        for i, k in enumerate(self.links):
            v = w.get(k)
            if v is None:
                raise WeightError(f"unknown weight on link {k}")
            out[i] = float(v)
        return out


@lru_cache(maxsize=64)
def _arrays_for(nodes: tuple[str, ...], links: tuple[LinkKey, ...]) -> GraphArrays:
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for li, (a, b) in enumerate(links):
        out[index[a]].append((index[b], li))
        out[index[b]].append((index[a], li))
    adj_ptr = np.cumsum([0] + [len(o) for o in out])
    n_arcs = int(adj_ptr[-1])
    arc_src = np.repeat(np.arange(n), np.diff(adj_ptr))
    arc_dst = np.array([v for o in out for v, _ in o], np.int64)
    arc_link = np.array([li for o in out for _, li in o], np.int64)
    out_arcs = np.full((n, max(map(len, out), default=0)), n_arcs, np.int64)
    for u in range(n):
        out_arcs[u, : len(out[u])] = np.arange(adj_ptr[u], adj_ptr[u + 1])
    arcs = tuple((nodes[s], nodes[t]) for s, t in zip(arc_src, arc_dst))
    return GraphArrays(nodes, index, links, adj_ptr, arc_src, arc_dst, arc_link, arcs, out_arcs)


def graph_arrays(inst: NetworkInstance) -> GraphArrays:
    return _arrays_for(inst.nodes, tuple(inst.link_keys()))


@dataclass(frozen=True)
class Routing:
    """Shortest-path structure toward several destinations, one row each.

    dist[i, v] is node v's distance to dests[i]; next_hop[i, k] marks arc k
    as lying on a shortest path toward dests[i]. When demands were routed,
    demand[i, v] is the demand from v to dests[i] and loads[i, k] its flow
    on arc k.
    """

    ga: GraphArrays
    dests: tuple[str, ...]
    arc_weight: np.ndarray
    dist: np.ndarray
    next_hop: np.ndarray
    demand: Optional[np.ndarray] = None
    loads: Optional[np.ndarray] = None

    def require_positive(self) -> None:
        """Ties across a zero-length link would make degenerate ECMP
        structures, so split routing needs strictly positive weights (the
        feasibility system still permits 0)."""
        if (self.arc_weight <= 0).any():
            bad = self.ga.links[int(self.ga.arc_link[np.argmin(self.arc_weight)])]
            raise WeightError(f"non-positive weight on link {bad}; ECMP requires >= 1")


def shortest_paths(
    inst: NetworkInstance, dests: Sequence[str], w: Mapping[LinkKey, Optional[int]]
) -> Routing:
    """Distances and next hops toward each destination (inf if unreachable)."""
    ga = graph_arrays(inst)
    rows = [ga.index[d] for d in dests]  # KeyError on an unknown destination
    arc_weight = ga.weight_array(w)[ga.arc_link]
    if (arc_weight < 0).any():
        raise WeightError("negative link weight; shortest paths need weights >= 0")
    n = len(ga.nodes)
    if rows:
        graph = csr_matrix((arc_weight, ga.arc_dst, ga.adj_ptr), shape=(n, n))
        # links are undirected: the distance from d is the distance to d
        dist = dijkstra(graph, directed=True, indices=rows)
    else:
        dist = np.zeros((0, n))
    next_hop = dist[:, ga.arc_src] == arc_weight + dist[:, ga.arc_dst]
    return Routing(ga, tuple(dests), arc_weight, dist, next_hop)


def route_demands(
    inst: NetworkInstance,
    demands: DemandMatrix,
    w: Mapping[LinkKey, Optional[int]],
    split: Optional[SplitTable] = None,
) -> Routing:
    """Loads of every demand on minimum-weight paths, one row per destination.

    A node splits its inflow evenly over its next hops, or, for the nodes a
    split table lists, by the table's fraction for each listed next hop.
    Rejects non-positive weights, negative demand, and demand that cannot
    reach its destination.
    """
    routing = shortest_paths(inst, demands.destinations(), w)
    routing.require_positive()
    ga = routing.ga
    row = {d: i for i, d in enumerate(routing.dests)}
    demand = np.zeros(routing.dist.shape)
    for (s, d), mbps in demands.entries.items():
        if mbps < 0:
            raise ValidationError(f"negative demand {s}->{d}")
        demand[row[d], ga.index[s]] += mbps
    return replace(routing, demand=demand, loads=_propagate(routing, demand, split))


def _propagate(
    routing: Routing, demand: np.ndarray, split: Optional[SplitTable]
) -> np.ndarray:
    """Push each destination's demand down its next hops, farthest node first.

    Every node's inflow is complete before it splits, and arc k out of u
    carries inflow[u] * num[k] / den[k]: 1 / (next-hop count) for an even
    split, fraction / 1 for a split-table entry. All destinations advance
    together, one distance rank per step. Each destination visits its nodes
    in np.argsort order of its distance row and adds into each inflow in
    that order, so its loads are bit-identical to a loop over that one
    destination.
    """
    ga, dist, hop = routing.ga, routing.dist, routing.next_hop
    n_dest, n = dist.shape
    hop = np.concatenate([hop, np.zeros((n_dest, 1), bool)], axis=1)  # pad arc
    count = hop[:, ga.out_arcs].sum(axis=2)
    can_split = np.isfinite(dist) & (dist != 0) & (count > 0)
    src = np.append(ga.arc_src, 0)  # the pad arc's source is arbitrary
    hop &= can_split[:, src]  # only nodes that split send flow
    per_hop = np.maximum(count, 1)[:, src].astype(float)
    if split is None:
        num, den = hop.astype(float), per_hop
    else:
        given = np.array([split.get(u, {}).get(v, np.nan) for u, v in ga.arcs] + [np.nan])
        num = np.where(hop, np.where(np.isnan(given), 1.0 / per_hop, given), 0.0)
        den = np.ones_like(num)

    # rank-major arrays over flat (destination, node) and (destination, arc)
    # indices; each destination gets a spare node n that pad arcs lead to
    order = np.argsort(dist, axis=1)
    col = np.arange(n_dest)[:, None]
    arcs = ga.out_arcs[order]  # (D, n, max degree)
    num = num[col[:, :, None], arcs].transpose(1, 0, 2)
    den = den[col[:, :, None], arcs].transpose(1, 0, 2)
    node = (col * (n + 1) + order).T
    dst = (col[:, :, None] * (n + 1) + np.append(ga.arc_dst, n)[arcs]).transpose(1, 0, 2)
    inflow = np.concatenate([demand, np.zeros((n_dest, 1))], axis=1).reshape(-1)
    moved = np.zeros(num.shape)
    for i in range(n - 1, -1, -1):
        moved[i] = inflow[node[i]][:, None] * num[i] / den[i]
        inflow[dst[i]] += moved[i]
    inflow = inflow.reshape(n_dest, n + 1)

    stuck = ~can_split & (dist != 0)
    stranded = np.where(stuck & (inflow[:, :n] > 0), inflow[:, :n], 0.0).sum(axis=1)
    if (stranded > 1e-12).any():
        raise ValidationError("demand between disconnected nodes")
    loads = np.zeros((n_dest, len(ga.arc_src) + 1))
    loads[col[:, :, None], arcs] = moved.transpose(1, 0, 2)
    return loads[:, :-1]
