"""Independent reference implementations used as test oracles.

Everything here is deliberately written against a different algorithmic
route than the package (exhaustive enumeration, a textbook O(n^2) Dijkstra
run once per destination, scalar loops) so agreement between the two is
meaningful evidence, not a tautology. The package routes with scipy's
csgraph Dijkstra over all destinations at once.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Optional

import numpy as np

from igpfix.bgp_prefs import MandatedPreferences
from igpfix.netmodel import DemandMatrix, LinkKey, NetworkInstance, ValidationError, WeightError, link_key
from igpfix.paths import path_weight
from igpfix.repair import FeasibilitySystem, RepairConfig


def adjacency(inst: NetworkInstance):
    """CSR adjacency (adj_ptr, adj_node, adj_link) over inst.link_keys()
    order; arc k runs from the node that owns it to adj_node[k]."""
    idx = {v: i for i, v in enumerate(inst.nodes)}
    out: list[list[tuple[int, int]]] = [[] for _ in inst.nodes]
    for li, (a, b) in enumerate(inst.link_keys()):
        out[idx[a]].append((idx[b], li))
        out[idx[b]].append((idx[a], li))
    adj_ptr = np.cumsum([0] + [len(o) for o in out])
    adj_node = np.array([v for o in out for v, _ in o], np.int64)
    adj_link = np.array([li for o in out for _, li in o], np.int64)
    return adj_ptr, adj_node, adj_link


def _weights(inst: NetworkInstance, w: Mapping[LinkKey, int]) -> np.ndarray:
    return np.array([float(w[k]) for k in inst.link_keys()])


def dijkstra_py(adj_ptr, adj_node, adj_link, wlink, dest):
    """Distances from every node to dest over undirected link weights.

    Textbook O(n^2) selection loop, one destination per call.
    """
    n = adj_ptr.shape[0] - 1
    dist = np.full(n, np.inf)
    done = np.zeros(n, np.bool_)
    dist[dest] = 0.0
    for _ in range(n):
        u = -1
        best = np.inf
        for v in range(n):
            if not done[v] and dist[v] < best:
                best = dist[v]
                u = v
        if u < 0:
            break
        done[u] = True
        for k in range(adj_ptr[u], adj_ptr[u + 1]):
            v = adj_node[k]
            nd = best + wlink[adj_link[k]]
            if nd < dist[v]:
                dist[v] = nd
    return dist


def ecmp_loads_py(adj_ptr, adj_node, adj_link, wlink, dist, demand):
    """Equal-split loads toward one destination.

    Arc k (u -> adj_node[k]) is an ECMP next hop iff
    dist[u] == wlink + dist[v]. Flow is pushed farthest-first so every node's
    inflow is complete before it splits. Returns per-arc loads plus the
    demand volume stranded at unreachable nodes.
    """
    n = adj_ptr.shape[0] - 1
    loads = np.zeros(adj_node.shape[0])
    inflow = demand.astype(np.float64).copy()
    order = np.argsort(dist)
    stranded = 0.0
    for idx in range(n - 1, -1, -1):
        u = order[idx]
        if inflow[u] <= 0.0:
            continue
        if not np.isfinite(dist[u]):
            stranded += inflow[u]
            continue
        if dist[u] == 0.0:
            continue  # destination absorbs
        cnt = 0
        for k in range(adj_ptr[u], adj_ptr[u + 1]):
            if dist[u] == wlink[adj_link[k]] + dist[adj_node[k]]:
                cnt += 1
        if cnt == 0:
            stranded += inflow[u]
            continue
        share = inflow[u] / cnt
        for k in range(adj_ptr[u], adj_ptr[u + 1]):
            v = adj_node[k]
            if dist[u] == wlink[adj_link[k]] + dist[v]:
                loads[k] += share
                inflow[v] += share
    return loads, stranded


def all_pairs_distances(
    inst: NetworkInstance, w: Mapping[LinkKey, int]
) -> dict[str, dict[str, float]]:
    """All-pairs shortest distances, one dijkstra_py run per destination."""
    adj_ptr, adj_node, adj_link = adjacency(inst)
    wlink = _weights(inst, w)
    out: dict[str, dict[str, float]] = {u: {} for u in inst.nodes}
    for j, d in enumerate(inst.nodes):
        dist = dijkstra_py(adj_ptr, adj_node, adj_link, wlink, j)
        for i, u in enumerate(inst.nodes):
            out[u][d] = float(dist[i])
    return out


def _ecmp_loop(inst: NetworkInstance, demands: DemandMatrix, w: Mapping[LinkKey, int]):
    """Directed arcs in CSR order, and per destination the arc loads of one
    dijkstra_py plus ecmp_loads_py run."""
    adj_ptr, adj_node, adj_link = adjacency(inst)
    wlink = _weights(inst, w)
    if (wlink <= 0).any():
        raise WeightError("equal-split routing requires strictly positive weights")
    idx = {v: i for i, v in enumerate(inst.nodes)}
    src = np.repeat(np.arange(len(inst.nodes)), np.diff(adj_ptr))
    arcs = [(inst.nodes[s], inst.nodes[t]) for s, t in zip(src, adj_node)]
    rows: dict[str, np.ndarray] = {}
    for d in demands.destinations():
        vec = np.zeros(len(inst.nodes))
        for (s, dd), mbps in demands.entries.items():
            if dd == d:
                vec[idx[s]] += mbps
        dist = dijkstra_py(adj_ptr, adj_node, adj_link, wlink, idx[d])
        loads, stranded = ecmp_loads_py(adj_ptr, adj_node, adj_link, wlink, dist, vec)
        if stranded > 1e-12:
            raise ValidationError("demand between disconnected nodes")
        rows[d] = loads
    return arcs, rows


def ecmp_arc_loads(
    inst: NetworkInstance, demands: DemandMatrix, w: Mapping[LinkKey, int]
) -> dict[str, dict[tuple[str, str], float]]:
    """Equal-split loads per destination and directed arc (nonzero only)."""
    arcs, rows = _ecmp_loop(inst, demands, w)
    return {d: {arcs[k]: float(row[k]) for k in np.nonzero(row)[0]} for d, row in rows.items()}


def phi_py(model, load: float, capacity: float) -> float:
    """Piecewise-linear penalty of one directed load, one segment at a time
    from the model's breakpoints and slopes."""
    if load <= 0:
        return 0.0
    cost = 0.0
    prev = 0.0
    for bp, slope in zip(model.breakpoints, model.slopes):
        edge = bp * capacity
        if load <= edge:
            return cost + slope * (load - prev)
        cost += slope * (edge - prev)
        prev = edge
    return cost + model.slopes[-1] * (load - prev)


def ecmp_cost_py(inst, demands, w, model) -> float:
    """Equal-split TE cost: loads summed per arc in destination order, then
    the penalty summed in arc order."""
    arcs, rows = _ecmp_loop(inst, demands, w)
    agg = np.zeros(len(arcs))
    for row in rows.values():
        agg += row
    return float(sum(
        phi_py(model, float(agg[k]), model.capacities[link_key(*arcs[k])])
        for k in np.nonzero(agg)[0]
    ))


def mandates_feasible(
    prefs: MandatedPreferences, w: Mapping[LinkKey, int], w_max: int
) -> bool:
    """Every mandated gap realizable as a legal virtual weight in [1, w_max]."""
    for _, (p, q) in prefs.all_pairs():
        gap = path_weight(q, w) - path_weight(p, w)
        if not 1 <= gap <= w_max:
            return False
    return True


def min_change_key(
    sys: FeasibilitySystem,
    prefs: MandatedPreferences,
    w_initial: Mapping[LinkKey, Optional[int]],
    cfg: RepairConfig,
) -> Optional[tuple[float, int, tuple[int, ...]]]:
    """Exhaustive minimum of (change cost, changed known-weight links, weight
    vector over sys.links) over every feasible weight vector on the
    constrained links; None when no assignment is feasible."""
    eps, big_m, w_max = cfg.resolved(sys, max(len(w_initial), 1))
    lo = max(cfg.min_weight, 0)
    best = None
    for combo in itertools.product(range(lo, w_max + 1), repeat=len(sys.links)):
        w = dict(zip(sys.links, combo))
        if not mandates_feasible(prefs, w, w_max):
            continue
        cost = changed = 0
        for k, v in w.items():
            init = w_initial.get(k)
            if init is None or v == init:
                continue
            d = v - init
            cost += d * d if abs(d) < eps else big_m
            changed += 1
        key = (float(cost), changed, combo)
        if best is None or key < best:
            best = key
    return best


def brute_force_min_change(
    sys: FeasibilitySystem,
    prefs: MandatedPreferences,
    w_initial: Mapping[LinkKey, Optional[int]],
    cfg: RepairConfig,
) -> Optional[float]:
    """Exhaustive minimum change cost; None when no assignment is feasible."""
    key = min_change_key(sys, prefs, w_initial, cfg)
    return None if key is None else key[0]


def enum_equal_split_loads(
    inst: NetworkInstance,
    w: Mapping[LinkKey, int],
    dest: str,
    demand: Mapping[str, float],
) -> dict[tuple[str, str], float]:
    """Equal-split loads toward dest computed from first principles.

    Distances come from all_pairs_distances; flow is pushed node by node in
    order of decreasing distance, splitting each node's accumulated inflow
    evenly over its distance-decreasing neighbors.
    """
    all_dist = all_pairs_distances(inst, w)
    dist = {v: all_dist[v][dest] for v in inst.nodes}
    inflow = {v: float(demand.get(v, 0.0)) for v in inst.nodes}
    loads: dict[tuple[str, str], float] = {}
    for u in sorted(inst.nodes, key=lambda v: -dist[v]):
        if inflow[u] <= 0 or u == dest:
            continue
        hops = [
            v for v in inst.neighbors(u)
            if dist[u] == w[link_key(u, v)] + dist[v]
        ]
        assert hops, f"node {u} has demand but no downhill neighbor"
        share = inflow[u] / len(hops)
        for v in hops:
            loads[(u, v)] = loads.get((u, v), 0.0) + share
            inflow[v] += share
    return loads


def enum_ecmp_cost(inst, w, entries, model) -> float:
    """Equal-split TE cost from first principles: per-destination enumeration
    loads aggregated per directed arc, then the convex penalty applied once."""
    agg: dict[tuple[str, str], float] = {}
    for dest in sorted({d for (_, d) in entries}):
        demand: dict[str, float] = {}
        for (s, d), mbps in entries.items():
            if d == dest:
                demand[s] = demand.get(s, 0.0) + mbps
        for arc, x in enum_equal_split_loads(inst, w, dest, demand).items():
            agg[arc] = agg.get(arc, 0.0) + x
    return sum(
        phi_py(model, x, model.capacities[link_key(u, v)]) for (u, v), x in agg.items()
    )


def random_small_instance(seed: int, n_lo: int = 4, n_hi: int = 8, w_max: int = 16):
    """Connected random instance: spanning tree plus a few chords."""
    import random as _random

    from igpfix.netmodel import Link, NetworkInstance

    rng = _random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    names = [f"v{i}" for i in range(n)]
    links = set()
    for i in range(1, n):
        links.add(link_key(names[i], names[rng.randrange(i)]))
    extra = rng.randint(1, max(1, n // 2))
    for _ in range(extra * 3):
        if len(links) >= n - 1 + extra:
            break
        a, b = rng.sample(names, 2)
        links.add(link_key(a, b))
    cap = 10000.0
    return NetworkInstance(
        tuple(names), tuple(Link(a, b, None, cap) for a, b in sorted(links)), w_max
    )


def search_py(inst, demands, prefs, start, cfg, model, baseline_cost):
    """Reference loop for local_search.search: the same sampling, visited
    set and acceptance rule, with every neighbour scored one at a time by
    ecmp_cost_py. Returns the incumbent weights and cost after each
    iteration, starting with the start itself."""
    import random as _random
    from collections import OrderedDict

    def holds(w):
        return all(path_weight(p, w) < path_weight(q, w) for _, (p, q) in prefs.all_pairs())

    threshold = baseline_cost * (1 + cfg.gamma / 100.0)
    rng = _random.Random(cfg.seed)
    cur = dict(start)
    cur_cost = ecmp_cost_py(inst, demands, cur, model)
    trail = [(dict(cur), cur_cost)]
    visited = OrderedDict({tuple(sorted(cur.items())): None})
    moves = [(k, v) for k in sorted(cur) for v in range(1, inst.w_max + 1)]
    frac, stagnant = cfg.frac_start, 0
    while cur_cost > threshold and len(trail) <= cfg.max_iters:
        best = None
        for k, v in rng.sample(moves, max(1, int(frac * len(moves)))):
            if cur[k] == v:
                continue
            cand = {**cur, k: v}
            key = tuple(sorted(cand.items()))
            if key in visited:
                continue
            visited[key] = None
            while len(visited) > cfg.visited_cap:
                visited.popitem(last=False)
            if not holds(cand):
                continue
            c = ecmp_cost_py(inst, demands, cand, model)
            if c < cur_cost and (best is None or c < best[0]):
                best = (c, cand)
        if best is not None:
            cur_cost, cur = best
            frac, stagnant = max(cfg.frac_min, frac / 2), 0
        else:
            stagnant += 1
            if stagnant >= cfg.stagnation:
                frac, stagnant = min(cfg.frac_max, frac * 2), 0
        trail.append((dict(cur), cur_cost))
    return trail


def simulate_py(pspp, schedule, max_steps: int):
    """Reference loop for sim.simulate. It steps with sim.step, keeps every
    state after every step, and applies the definitions literally: at each
    step it tests every earlier occurrence of the current state, and the
    first one with a change in between whose segment is fair (every node is
    activated inside it or stable in one of its states) proves an
    oscillation. Convergence is no change across 2*window steps in a state
    where no node would move if activated."""
    from igpfix.sim import Converged, Oscillating, ProtocolState, Undetermined, step

    nodes = sorted(set(pspp.permitted) | {p[1] for ps in pspp.permitted.values() for p in ps if len(p) > 1})

    def choice(v, s):
        return step(ProtocolState(s), v, pspp).selections[v]

    acts = schedule.activations(max_steps)

    def fair(t0, t):
        active = set(acts[t0 + 1 : t + 1])
        return all(
            v in active or any(choice(v, states[s]) == states[s][v] for s in range(t0, t + 1))
            for v in nodes
        )

    state = {v: None for v in nodes}
    states, changes, occurrences = [], [], {}
    n_changes, last_change = 0, -1
    for t, v in enumerate(acts):
        new = choice(v, state)
        if new != state[v]:
            n_changes, last_change = n_changes + 1, t
        state = {**state, v: new}
        states.append(state)
        changes.append(n_changes)
        key = tuple(state[u] for u in nodes)
        for t0 in occurrences.get(key, []):
            if changes[t0] < n_changes and fair(t0, t):
                return Oscillating(tuple(states[t0 : t + 1]), t0, t)
        occurrences.setdefault(key, []).append(t)
        if t - last_change >= 2 * schedule.window and all(choice(u, state) == state[u] for u in nodes):
            return Converged(state, t + 1)
    return Undetermined(len(acts))


def random_pspp(seed: int):
    """Small random instance toward egresses "e" (and sometimes "f") with
    2-5 further nodes of at most 4 simple paths each. Paths mostly extend a
    path permitted at their next hop; a few have a suffix that is not
    permitted. Half the instances hold a dispute wheel: a ring of nodes,
    each with a direct path and one through the next. Each node ranks its
    paths longest first (four times in five) or at random. A node with 3 or
    more paths gets, at random, that total order or a random tournament
    (usually cyclic) with the ranking as its order list."""
    import random as _random

    from igpfix.pspp import PsppInstance

    rng = _random.Random(seed)
    egresses = ["e", "f"][: rng.randint(1, 2)]
    inner = ["a", "b", "c", "d", "g"][: rng.randint(2, 5)]
    permitted = {x: {(x,)} for x in egresses}
    for v in inner:
        permitted[v] = {(v, x) for x in egresses if rng.random() < 0.6}
    if rng.random() < 0.5:
        ring = inner[: rng.randint(2, len(inner))]
        for v, u in zip(ring, ring[1:] + ring[:1]):
            permitted[v] |= {(v, egresses[0]), (v, u, egresses[0])}
    for _ in range(2):
        for v in inner:
            ext = sorted((v, *p) for u in inner if u != v for p in permitted[u] if v not in p)
            room = 4 - len(permitted[v])
            permitted[v].update(rng.sample(ext, min(room, len(ext), rng.randint(1, 3))))
    for v in inner:
        others = [u for u in inner if u != v]
        if len(permitted[v]) < 4 and rng.random() < 0.3:
            permitted[v].add((v, *rng.sample(others, min(2, len(others))), rng.choice(egresses)))
    prefs, order = {}, {}
    for v, ps in permitted.items():
        paths = sorted(ps)
        if not paths:
            continue
        ranked = rng.sample(paths, len(paths))
        if rng.random() < 0.8:
            ranked.sort(key=len, reverse=True)
        order[v] = tuple(ranked)
        if len(paths) >= 3 and rng.random() < 0.4:
            prefs[v] = frozenset(
                (p, q) if rng.random() < 0.5 else (q, p)
                for i, p in enumerate(paths) for q in paths[i + 1 :]
            )
        else:
            prefs[v] = frozenset((p, q) for i, p in enumerate(ranked) for q in ranked[i + 1 :])
    permitted = {v: tuple(sorted(ps)) for v, ps in permitted.items() if ps}
    return PsppInstance("pfx", frozenset(egresses), permitted, prefs, order)


def bounded_paths_py(inst: NetworkInstance, egresses, hop_bound: int) -> list[tuple[str, ...]]:
    """Every simple path of at most hop_bound links that ends at an egress
    (the egresses' empty paths included), grown forward from each source."""
    egresses = set(egresses)
    out = set()

    def grow(p):
        if p[-1] in egresses:
            out.add(p)
        if len(p) <= hop_bound:
            for u in inst.neighbors(p[-1]):
                if u not in p:
                    grow(p + (u,))

    for s in inst.nodes:
        grow((s,))
    return sorted(out)


def closure_py(pairs) -> set:
    """Transitive closure of a relation by a DFS from every element."""
    succ: dict = {}
    for a, b in pairs:
        succ.setdefault(a, []).append(b)
    out = set()
    for a, nexts in succ.items():
        seen, stack = set(), list(nexts)
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(succ.get(b, ()))
        out.update((a, b) for b in seen)
    return out


def weights_to_relation_py(inst, prefs: MandatedPreferences, w, prefix, hop_bound):
    """Reference for sim.weights_to_pspp: (permitted, prefs, mandates, order)
    per node. Each same-source pair is decided on its own: a mandate of the
    closed mandated relation wins (tested with p the lexicographically
    smaller path first), else the lighter path, ties to the lexicographically
    smaller one. order ranks by weight alone, with the same tie-break."""
    mand = closure_py(prefs.pairs.get(prefix, ()))
    permitted: dict = {}
    for p in bounded_paths_py(inst, prefs.egresses[prefix], hop_bound):
        permitted.setdefault(p[0], []).append(p)
    rel, mandates, order = {}, {}, {}
    for v, ps in permitted.items():
        rel[v], mandates[v] = set(), set()
        for p, q in itertools.combinations(ps, 2):
            if (p, q) in mand:
                pair = (p, q)
                mandates[v].add(pair)
            elif (q, p) in mand:
                pair = (q, p)
                mandates[v].add(pair)
            elif path_weight(p, w) < path_weight(q, w) or (path_weight(p, w) == path_weight(q, w) and p < q):
                pair = (p, q)
            else:
                pair = (q, p)
            rel[v].add(pair)
        order[v] = tuple(sorted(ps, key=lambda p: (path_weight(p, w), p)))
    return {v: tuple(ps) for v, ps in permitted.items()}, rel, mandates, order


def path_digraph_py(permitted, prefs):
    """Reference for pspp.build_path_digraph and is_cyclic_at: (sorted arcs,
    cyclic nodes, closure per node). A node is cyclic when its closed
    relation relates some path to itself. Its preference arcs are its raw
    pairs; every other node's are its closed pairs. Both only between paths
    permitted at the node."""
    paths = {p for ps in permitted.values() for p in ps}
    arcs = [(p[1:], p, "suffix") for p in paths if len(p) > 1 and p[1:] in paths]
    cyclic, closures = set(), {}
    for v, ps in permitted.items():
        raw = set(prefs.get(v, ()))
        closures[v] = closure_py(raw)
        if any(a == b for a, b in closures[v]):
            cyclic.add(v)
        rel = raw if v in cyclic else closures[v]
        arcs += [(p, q, "pref") for p in ps for q in ps if p != q and (p, q) in rel]
    return sorted(arcs), cyclic, closures


def longest_ranks_py(paths, arcs) -> Optional[dict]:
    """Longest-path ranks (0 at every path without a predecessor), found by
    relaxing every arc until nothing changes; None when the arcs hold a
    cycle, i.e. when relaxation goes on past len(paths) rounds."""
    ranks = {p: 0 for p in paths}
    for _ in range(len(paths) + 1):
        changed = False
        for a, b, _ in arcs:
            if ranks[b] < ranks[a] + 1:
                ranks[b] = ranks[a] + 1
                changed = True
        if not changed:
            return ranks
    return None
