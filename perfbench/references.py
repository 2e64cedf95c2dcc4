"""Reference computations the benchmark checks igpfix's outputs against.

Each one takes a different route from the package, so agreement is evidence
rather than a tautology:

- mandates are checked by summing link weights along each path here;
- ECMP TE cost is built on an all-pairs numpy Floyd-Warshall and an explicit
  Fortz-Thorup penalty table, not on the package's Dijkstra or cost model;
- minimum-change repair is a MILP (scipy.optimize.milp / HiGHS) over the
  weights themselves, with one binary per constrained link and weight value,
  not the package's potential system and branch-and-bound;
- acyclicity of a path digraph uses scipy csgraph strongly connected
  components;
- simulator witnesses are replayed with the selection rule written out here.

Nothing in this module is timed.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

Path = tuple[str, ...]
Link = tuple[str, str]

# Fortz & Thorup's convex link penalty: slope per unit of load between
# utilization breakpoints.
FT_BREAKPOINTS = (0.0, 1 / 3, 2 / 3, 9 / 10, 1.0, 11 / 10)
FT_SLOPES = (1.0, 3.0, 10.0, 70.0, 500.0, 5000.0)


def _key(a: str, b: str) -> Link:
    return (a, b) if a <= b else (b, a)


def path_links(p: Path) -> list[Link]:
    return [_key(p[i], p[i + 1]) for i in range(len(p) - 1)]


# --- mandates --------------------------------------------------------------


def mandate_violations(
    pairs: Iterable[tuple[Path, Path]],
    weights: Mapping[Link, int],
    w_max: int,
) -> list[str]:
    """Why a weight setting fails: weights outside [1, w_max], or a mandated
    pair (p, q) whose path p is not strictly lighter than q."""
    bad = [f"weight {k}={v} outside [1, {w_max}]" for k, v in sorted(weights.items())
           if not 1 <= v <= w_max]
    for p, q in pairs:
        wp = sum(weights[k] for k in path_links(p))
        wq = sum(weights[k] for k in path_links(q))
        if not wp < wq:
            bad.append(f"mandate {p} < {q} broken: {wp} >= {wq}")
    return bad


# --- ECMP TE cost ------------------------------------------------------------


def ft_penalty(load: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Piecewise-linear penalty of each directed load, elementwise."""
    out = np.zeros_like(load, dtype=float)
    for i, slope in enumerate(FT_SLOPES):
        lo = FT_BREAKPOINTS[i] * capacity
        hi = FT_BREAKPOINTS[i + 1] * capacity if i + 1 < len(FT_BREAKPOINTS) else np.inf
        out += slope * np.clip(load - lo, 0.0, hi - lo)
    return out


def floyd_warshall(nodes: Sequence[str], weights: Mapping[Link, int]) -> np.ndarray:
    """All-pairs shortest distances over undirected integer link weights."""
    idx = {v: i for i, v in enumerate(nodes)}
    d = np.full((len(nodes), len(nodes)), np.inf)
    np.fill_diagonal(d, 0.0)
    for (a, b), w in weights.items():
        d[idx[a], idx[b]] = d[idx[b], idx[a]] = float(w)
    for k in range(len(nodes)):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    return d


def ecmp_te_cost(
    nodes: Sequence[str],
    weights: Mapping[Link, int],
    capacities: Mapping[Link, float],
    demands: Mapping[tuple[str, str], float],
) -> float:
    """TE cost when every router splits equally over all shortest next hops.

    Loads are pushed toward each destination from the farthest node inward,
    summed per directed arc over destinations, and penalized once per arc.
    """
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    dist = floyd_warshall(nodes, weights)
    w = np.full((n, n), np.inf)
    cap = np.ones((n, n))
    for (a, b), x in weights.items():
        i, j = idx[a], idx[b]
        w[i, j] = w[j, i] = float(x)
        cap[i, j] = cap[j, i] = capacities[(a, b)]
    load = np.zeros((n, n))
    for dest in sorted({d for _, d in demands}):
        t = idx[dest]
        inflow = np.zeros(n)
        for (s, d), mbps in demands.items():
            if d == dest:
                inflow[idx[s]] += mbps
        # an arc u->v is a shortest next hop iff dist(u) = w(u,v) + dist(v)
        nxt = np.isfinite(w) & (dist[:, t][:, None] == w + dist[:, t][None, :])
        for u in np.argsort(-dist[:, t], kind="stable"):
            if u == t or inflow[u] == 0.0:
                continue
            hops = np.nonzero(nxt[u])[0]
            if len(hops) == 0:
                raise ValueError(f"{nodes[u]} has demand toward {dest} but no route")
            share = inflow[u] / len(hops)
            load[u, hops] += share
            inflow[hops] += share
    used = load > 0
    return float(ft_penalty(load[used], cap[used]).sum())


# --- minimum-change repair ---------------------------------------------------


def milp_min_change(
    links: Sequence[Link],
    pairs: Sequence[tuple[Path, Path]],
    w_initial: Mapping[Link, Optional[int]],
    w_max: int,
    min_weight: int = 0,
    epsilon: Optional[int] = None,
    big_m: Optional[int] = None,
) -> Optional[float]:
    """Optimal change cost, or None when no weight setting realizes the pairs.

    Variables are binaries y[k, v] (link k takes value v) over the links of
    the mandated paths. Each pair (p, q) needs 1 <= w(q) - w(p) <= w_max, the
    gap being realizable as a virtual link weight. A link with a known
    initial weight costs d^2 for a change d with |d| < epsilon and big_m
    otherwise (defaults: epsilon = w_max, big_m = w_max^2 * |links| + 1);
    an unknown initial weight is free.
    """
    eps = w_max if epsilon is None else epsilon
    m = w_max * w_max * max(len(w_initial), 1) + 1 if big_m is None else big_m
    constrained = sorted({k for p, q in pairs for k in path_links(p) + path_links(q)})
    if not constrained:
        return 0.0
    values = np.arange(min_weight, w_max + 1)
    nv = len(values)
    col = {k: i * nv for i, k in enumerate(constrained)}
    cost = np.zeros(len(constrained) * nv)
    for k in constrained:
        init = w_initial.get(k)
        if init is not None:
            d = values - init
            cost[col[k] : col[k] + nv] = np.where(np.abs(d) < eps, d * d, m)
    rows, lo, hi = [], [], []
    for k in constrained:  # exactly one value per link
        r = np.zeros(len(cost))
        r[col[k] : col[k] + nv] = 1.0
        rows.append(r)
        lo.append(1.0)
        hi.append(1.0)
    for p, q in pairs:
        r = np.zeros(len(cost))
        for k in path_links(q):
            r[col[k] : col[k] + nv] += values
        for k in path_links(p):
            r[col[k] : col[k] + nv] -= values
        rows.append(r)
        lo.append(1.0)
        hi.append(float(w_max))
    res = milp(
        cost,
        constraints=LinearConstraint(np.array(rows), lo, hi),
        integrality=np.ones(len(cost)),
        bounds=Bounds(0, 1),
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"reference MILP did not finish: {res.message}")
    return float(round(res.fun))


# --- path digraph acyclicity -------------------------------------------------


def scc_acyclic(paths: Sequence[Path], arcs: Iterable[tuple[Path, Path]]) -> bool:
    """True iff the digraph has no cycle: every strongly connected component
    is a single node without a self-loop."""
    idx = {p: i for i, p in enumerate(paths)}
    src, dst = [], []
    for a, b in arcs:
        if a == b:
            return False
        src.append(idx[a])
        dst.append(idx[b])
    g = csr_matrix((np.ones(len(src)), (src, dst)), shape=(len(paths), len(paths)))
    n_comp, _ = connected_components(g, directed=True, connection="strong")
    return n_comp == len(paths)


def cycle_witness_ok(cycle: Sequence[Path], arcs: Iterable[tuple[Path, Path]]) -> bool:
    """The witness is a simple closed walk along arcs of the digraph."""
    arcset = set(arcs)
    if not cycle or len(set(cycle)) != len(cycle):
        return False
    return all((cycle[i], cycle[(i + 1) % len(cycle)]) in arcset for i in range(len(cycle)))


def rank_witness_ok(
    paths: Sequence[Path], arcs: Iterable[tuple[Path, Path]], ranks: Mapping[Path, float]
) -> bool:
    """Every path is ranked and rank strictly increases along every arc."""
    return set(ranks) == set(paths) and all(ranks[b] > ranks[a] for a, b in arcs)


# --- simulator witnesses -----------------------------------------------------


class SelectionRule:
    """The route-selection rule of the simulated protocol, per node.

    permitted[v] lists v's candidate paths, better[v] the strictly-better
    pairs (p, q) among them, order[v] the fallback list of a node whose
    relation has a cycle. A path is available when it is empty (ends at v)
    or its suffix is what its next hop currently selects. A node with an
    acyclic relation takes the available path that beats every other
    available one. A node with a cyclic relation keeps an available
    incumbent unless an available path beats it, then takes the first such
    in its list; without an available incumbent it takes the first
    available path in its list.
    """

    def __init__(
        self,
        permitted: Mapping[str, Sequence[Path]],
        better: Mapping[str, Iterable[tuple[Path, Path]]],
        order: Mapping[str, Sequence[Path]],
    ) -> None:
        self.permitted = {v: tuple(ps) for v, ps in permitted.items()}
        self.better = {v: set(better.get(v, ())) for v in self.permitted}
        self.order = order
        self.cyclic = {v for v in self.permitted if _has_cycle(self.better[v])}

    def choice(self, v: str, sel: Mapping[str, Optional[Path]]) -> Optional[Path]:
        if v not in self.permitted:
            return None

        def available(p: Path) -> bool:
            return len(p) == 1 or sel.get(p[1]) == p[1:]

        avail = [p for p in self.permitted[v] if available(p)]
        rel = self.better[v]
        cur = sel.get(v)
        if v in self.cyclic:
            if cur is not None and cur in avail:
                for q in self.order[v]:
                    if q in avail and (q, cur) in rel:
                        return q
                return cur
            return next((p for p in self.order[v] if p in avail), None)
        for p in avail:
            if all(p == q or (p, q) in rel for q in avail):
                return p
        return None


def _has_cycle(rel: set[tuple[Path, Path]]) -> bool:
    nodes = sorted({x for pair in rel for x in pair})
    if not nodes:
        return False
    return not scc_acyclic(nodes, rel)


def converged_ok(rule: SelectionRule, nodes: Iterable[str], assignment: Mapping[str, Optional[Path]]) -> bool:
    """A converged assignment is a fixed point: no activation changes it."""
    return all(rule.choice(v, assignment) == assignment.get(v) for v in nodes)


def oscillation_ok(
    rule: SelectionRule,
    nodes: Sequence[str],
    witness: Sequence[Mapping[str, Optional[Path]]],
    activations: Sequence[str],
) -> list[str]:
    """Problems with an oscillation witness: states[i] is the state after
    activation first_step + i.

    The witness must replay (each state follows from the previous one by
    activating the scheduled node), recur (last state equals the first),
    contain a change, and be fair: every node is activated inside the cycle
    or is stable in at least one of its states, so repeating the cycle is a
    fair schedule.
    """
    problems = []
    if len(witness) < 2 or dict(witness[0]) != dict(witness[-1]):
        problems.append("witness does not recur")
    if all(dict(witness[i]) == dict(witness[0]) for i in range(len(witness))):
        problems.append("no selection changes inside the cycle")
    for i in range(1, len(witness)):
        v = activations[i - 1]
        want = dict(witness[i - 1])
        want[v] = rule.choice(v, witness[i - 1])
        if want != dict(witness[i]):
            problems.append(f"step {i} of the witness does not follow from activating {v}")
            break
    active = set(activations[: len(witness) - 1])
    for v in nodes:
        if v not in active and not any(rule.choice(v, s) == s.get(v) for s in witness):
            problems.append(f"{v} is never activated in the cycle and never stable in it")
    return problems


def geometric_mean(xs: Sequence[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))
