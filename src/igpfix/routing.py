"""Shortest paths and split loads toward every demand destination at once.

One scipy csgraph Dijkstra call gives every node's distance to each
destination. The next-hop mask and the loads follow as array operations over
the directed arcs, one row per destination. Every routing view in the
package reads from here: the ECMP TE cost, the move scorer and
shortest-path flow.
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
    arcs, padded with len(arc_src), one past the last arc. link_arcs[i]
    holds the two arcs of links[i].
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
    link_arcs: np.ndarray

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
    link_arcs = np.argsort(arc_link, kind="stable").reshape(-1, 2)
    return GraphArrays(nodes, index, links, adj_ptr, arc_src, arc_dst, arc_link, arcs, out_arcs,
                       link_arcs)


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
    loads = _propagate(ga, routing.dist, routing.next_hop, demand, split)
    return replace(routing, demand=demand, loads=loads)


def total_load(loads: np.ndarray) -> np.ndarray:
    """Arc loads summed over destinations (axis -2), in row order."""
    total = np.zeros(loads.shape[:-2] + loads.shape[-1:])
    for i in range(loads.shape[-2]):
        total += loads[..., i, :]
    return total


# Cells the largest array of one batch of moves may hold. B moves toward D
# destinations over n nodes and 2m arcs recompute at most B * D rows, which
# fill B * n Dijkstra cells and 2m propagation cells each.
BATCH_CELLS = 1 << 17


def route_moves(
    base: Routing, links: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Total arc loads after each of several single-link weight moves.

    Move j sets link links[j] (an index into base.ga.links) to weights[j]
    and keeps every other weight of base, which must carry routed demand.
    Raising a link's weight can reroute only the destinations where one of
    its arcs is a next hop; lowering it to w only those where w plus the
    distance of one end is at most that of the other. Only those rows are
    recomputed; every other row of the move is base's row. The recomputed
    rows of a batch of moves get one Dijkstra call over the moves' graphs
    stacked block-diagonally, and one load propagation. Each move's rows
    are summed in destination order, so its total is bit-identical to
    total_load(route_demands(...).loads) of its weights.

    Returns the (moves, arcs) totals and the number of destinations
    recomputed for each move.
    """
    ga, dist = base.ga, base.dist
    links = np.asarray(links, np.int64)
    weights = np.asarray(weights, float)
    fwd, rev = ga.link_arcs[links].T
    old = base.arc_weight[fwd]
    da, db = dist[:, ga.arc_src[fwd]], dist[:, ga.arc_dst[fwd]]
    tight = base.next_hop[:, fwd] | base.next_hop[:, rev]
    shortcut = (weights + db <= da) | (weights + da <= db)
    rerouted = ((weights > old) & tight | (weights < old) & shortcut).T
    counts = rerouted.sum(axis=1)

    totals = np.repeat(total_load(base.loads)[None], len(links), axis=0)
    busy = np.flatnonzero(counts)
    n_dest, n = dist.shape
    size = max(1, min(int(np.sqrt(BATCH_CELLS / max(1, n_dest * n))),
                      BATCH_CELLS // max(1, n_dest * len(ga.arc_src))))
    for lo in range(0, len(busy), size):
        batch = busy[lo : lo + size]
        totals[batch] = _batch_totals(base, links[batch], weights[batch], rerouted[batch])
    return totals, counts


def _batch_totals(
    base: Routing, links: np.ndarray, weights: np.ndarray, rerouted: np.ndarray
) -> np.ndarray:
    ga = base.ga
    n = len(ga.nodes)
    n_moves, n_arcs = len(links), len(ga.arc_src)
    block = np.arange(n_moves)
    arc_weight = np.tile(base.arc_weight, (n_moves, 1))
    for arcs in ga.link_arcs[links].T:
        arc_weight[block, arcs] = weights
    indptr = np.append((ga.adj_ptr[:-1] + n_arcs * block[:, None]).ravel(), n_moves * n_arcs)
    indices = (ga.arc_dst + n * block[:, None]).ravel()
    graph = csr_matrix((arc_weight.ravel(), indices, indptr), shape=(n_moves * n,) * 2)

    move, row = np.nonzero(rerouted)
    dest = np.array([ga.index[d] for d in base.dests])
    first = (move * n)[:, None]
    dist = dijkstra(graph, directed=True, indices=first[:, 0] + dest[row])
    dist = np.take_along_axis(dist, first + np.arange(n), axis=1)
    hop = dist[:, ga.arc_src] == arc_weight[move] + dist[:, ga.arc_dst]
    loads = np.repeat(base.loads[None], n_moves, axis=0)
    loads[move, row] = _propagate(ga, dist, hop, base.demand[row], None)
    return total_load(loads)


def _propagate(
    ga: GraphArrays,
    dist: np.ndarray,
    hop: np.ndarray,
    demand: np.ndarray,
    split: Optional[SplitTable],
) -> np.ndarray:
    """Push each row's demand down its next hops, farthest node first.

    Row i holds one destination's distances dist[i], next-hop mask hop[i]
    and demand[i]. Every node's inflow is complete before it splits. Under
    an even split, arc k out of u carries inflow[u] / (u's next-hop count),
    and inflow[u] / inf = 0 when k is no next hop. A split table gives the
    listed next hops inflow[u] * fraction and the others of its nodes
    inflow[u] * (1 / next-hop count). All rows advance together, one
    distance rank per step, over flat indices into (row, node) and (row,
    arc), each (row, arc) pair once. Each row visits its nodes in
    np.argsort order of its distance row and adds into each inflow in that
    order, so its loads are bit-identical to a loop over that one row.
    """
    n_dest, n = dist.shape
    n_arcs = len(ga.arc_src)
    # out_arcs pads with index n_arcs, which this extra column keeps False
    padded = np.concatenate([hop, np.zeros((n_dest, 1), bool)], axis=1)
    count = padded[:, ga.out_arcs].sum(axis=2)
    can_split = np.isfinite(dist) & (dist != 0) & (count > 0)
    hop = hop & can_split[:, ga.arc_src]  # only nodes that split send flow
    per_hop = np.maximum(count, 1)[:, ga.arc_src].astype(float)
    if split is None:
        share, factor = np.divide, np.where(hop, per_hop, np.inf)
    else:
        given = np.array([split.get(u, {}).get(v, np.nan) for u, v in ga.arcs])
        share = np.multiply
        factor = np.where(hop, np.where(np.isnan(given), 1.0 / per_hop, given), 0.0)

    # every (row, arc) pair once, rank-major: step i holds the arcs of the
    # node each row visits at distance rank i
    order = np.argsort(dist, axis=1).T.ravel()
    row = np.tile(np.arange(n_dest), n)
    degree = np.diff(ga.adj_ptr)[order]
    step = np.append(0, np.cumsum(degree.reshape(n, n_dest).sum(axis=1)))
    first = np.cumsum(degree) - degree
    arc = np.arange(step[-1]) + np.repeat(ga.adj_ptr[order] - first, degree)
    arc_row = np.repeat(row, degree)
    flat = arc_row * n_arcs + arc
    factor = factor.ravel().take(flat)
    src_node = np.repeat(row * n + order, degree)
    dst_node = arc_row * n + ga.arc_dst[arc]
    inflow = demand.ravel().copy()
    moved = np.empty(len(flat))
    for i in range(n - 1, -1, -1):
        lo, hi = step[i], step[i + 1]
        share(inflow.take(src_node[lo:hi]), factor[lo:hi], out=moved[lo:hi])
        # a node's arcs lead to distinct nodes, so no target repeats
        dst = dst_node[lo:hi]
        inflow.put(dst, inflow.take(dst) + moved[lo:hi])
    inflow = inflow.reshape(n_dest, n)

    stuck = ~can_split & (dist != 0)
    stranded = np.where(stuck & (inflow > 0), inflow, 0.0).sum(axis=1)
    if (stranded > 1e-12).any():
        raise ValidationError("demand between disconnected nodes")
    loads = np.zeros(n_dest * n_arcs)
    loads.put(flat, moved)
    return loads.reshape(n_dest, n_arcs)
