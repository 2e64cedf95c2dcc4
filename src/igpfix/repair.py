"""Feasibility system over mandated preferences and exact minimal-change repair.

The feasibility system ties a potential (the path's total weight) to every
mandated path and suffix; mandated pairs become strict integer gaps realized
by virtual weights. The exact solver is a branch-and-bound over the
constrained integer link weights, using Bellman-Ford feasibility of the
potential difference system as its relaxation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .bgp_prefs import MandatedPreferences, close_suffixes
from .netmodel import LinkKey, NetworkInstance, ValidationError, link_key
from .paths import RoutePath, is_empty, links_of, path_weight


class InfeasibleRepairError(Exception):
    """The mandated preferences admit no weight assignment.

    conflict holds a subset of constraints that cannot hold together.
    """

    def __init__(self, message: str, conflict: Sequence[str] = ()) -> None:
        super().__init__(message)
        self.conflict = list(conflict)


@dataclass(frozen=True)
class SuffixRow:
    """lambda_p - lambda_q = w_link for the one-link extension p of q."""

    p: RoutePath
    q: RoutePath
    link: LinkKey


@dataclass(frozen=True)
class PrefRow:
    """lambda_worse - lambda_pref = w' with 1 <= w' <= w_max.

    tied_link is set when worse is the one-link extension of pref, in which
    case the virtual weight coincides with that real link's weight.
    """

    prefix: str
    pref: RoutePath
    worse: RoutePath
    tied_link: Optional[LinkKey]


@dataclass(frozen=True)
class FeasibilitySystem:
    paths: tuple[RoutePath, ...]  # all closure paths, sorted
    suffix_rows: tuple[SuffixRow, ...]
    pref_rows: tuple[PrefRow, ...]
    links: tuple[LinkKey, ...]  # links appearing in suffix rows
    eps_paths: tuple[RoutePath, ...]
    n_nodes: int
    w_max: int

    def constraint_count(self) -> int:
        return len(self.suffix_rows) + len(self.pref_rows) + len(self.eps_paths)

    def lambda_bound(self) -> int:
        return self.n_nodes * self.w_max


def build_system(inst: NetworkInstance, prefs: MandatedPreferences) -> FeasibilitySystem:
    """Assemble the potential/weight constraint system over the suffix closure."""
    if not prefs.is_closed():
        prefs = close_suffixes(prefs)
    all_paths: set[RoutePath] = set()
    for pfx in prefs.prefixes():
        all_paths.update(prefs.closure[pfx])
    for p in sorted(all_paths):
        for a, b in links_of(p):
            if not inst.has_link(a, b):
                raise ValidationError(f"mandated path {p} uses missing link {(a, b)}")
    suffix_rows = []
    for p in sorted(all_paths):
        if is_empty(p):
            continue
        q = p[1:]
        suffix_rows.append(SuffixRow(p, q, link_key(p[0], p[1])))
    pref_rows = []
    for pfx, (p, q) in prefs.all_pairs():
        tied = link_key(q[0], q[1]) if q[1:] == p else None
        pref_rows.append(PrefRow(pfx, p, q, tied))
    links = tuple(sorted({r.link for r in suffix_rows}))
    eps = tuple(sorted(p for p in all_paths if is_empty(p)))
    return FeasibilitySystem(
        tuple(sorted(all_paths)),
        tuple(suffix_rows),
        tuple(pref_rows),
        links,
        eps,
        len(inst.nodes),
        inst.w_max,
    )


@dataclass(frozen=True)
class RepairConfig:
    """Change-cost and budget knobs for the exact solve.

    epsilon: change-magnitude cap in h; defaults to w_max (pure quadratic).
    big_m: penalty for changes at or beyond epsilon; must dominate any
    achievable quadratic total, default w_max^2 * |E| + 1.
    """

    epsilon: Optional[int] = None
    big_m: Optional[int] = None
    w_max: Optional[int] = None
    time_budget: float = 60.0
    min_weight: int = 0  # raise to 1 when the result must route ECMP traffic

    def resolved(self, sys: FeasibilitySystem, n_links: int) -> tuple[int, int, int]:
        w_max = self.w_max if self.w_max is not None else sys.w_max
        eps = self.epsilon if self.epsilon is not None else w_max
        if eps < 1:
            raise ValidationError("epsilon must be >= 1")
        big_m = self.big_m if self.big_m is not None else w_max * w_max * n_links + 1
        if big_m <= eps * eps:
            raise ValidationError("big_m must exceed epsilon^2")
        return eps, big_m, w_max


def h_cost(delta: int, cfg: RepairConfig, w_max: int = 1, n_links: int = 1) -> int:
    """Quadratic change cost below the epsilon cap, M at or beyond it."""
    eps = cfg.epsilon if cfg.epsilon is not None else w_max
    big_m = cfg.big_m if cfg.big_m is not None else w_max * w_max * n_links + 1
    return delta * delta if abs(delta) < eps else big_m


@dataclass(frozen=True)
class VerificationRecord:
    ok: bool
    violations: tuple[tuple[str, RoutePath, RoutePath, int, int], ...]
    suffix_ok: bool


def verify_solution(
    inst: NetworkInstance,
    prefs: MandatedPreferences,
    weights: Mapping[LinkKey, int],
) -> VerificationRecord:
    """Strict mandated inequalities plus suffix monotonicity over the closure."""
    if not prefs.is_closed():
        prefs = close_suffixes(prefs)
    violations = []
    for pfx, (p, q) in prefs.all_pairs():
        wp, wq = path_weight(p, weights), path_weight(q, weights)
        if not wp < wq:
            violations.append((pfx, p, q, wp, wq))
    suffix_ok = True
    for pfx in prefs.prefixes():
        for p in prefs.closure[pfx]:
            if not is_empty(p) and path_weight(p[1:], weights) > path_weight(p, weights):
                suffix_ok = False
    return VerificationRecord(not violations and suffix_ok, tuple(violations), suffix_ok)


@dataclass(frozen=True)
class RepairSolution:
    weights: dict[LinkKey, int]
    changed_links: dict[LinkKey, tuple[Optional[int], int]]
    realized: VerificationRecord
    objective: float
    n_changed: int  # known-weight links whose value moved (unknowns are free)
    stage: str  # "exact" | "relaxed+rounded" | "local-search"
    budget_exceeded: bool = False
    te_cost_before: Optional[float] = None
    te_cost_after: Optional[float] = None
    early_terminated: bool = False  # local search hit the gamma threshold
    iterations: int = 0
    # local search work: moves scored, destination rows recomputed for them,
    # and why it stopped ("threshold", "max_iters" or "stopped")
    neighbours_scored: int = 0
    destinations_recomputed: int = 0
    stop_reason: Optional[str] = None


def changed_links_of(
    initial: Mapping[LinkKey, Optional[int]], final: Mapping[LinkKey, int]
) -> tuple[dict[LinkKey, tuple[Optional[int], int]], int]:
    changed = {}
    n = 0
    for k, v in final.items():
        old = initial.get(k)
        if old != v:
            changed[k] = (old, v)
            if old is not None:
                n += 1
    return changed, n


def solution_lambdas(sys: FeasibilitySystem, weights: Mapping[LinkKey, int]) -> dict[RoutePath, int]:
    """Potentials induced by a weight assignment over the closure paths."""
    return {p: path_weight(p, weights) for p in sys.paths}


# --- Bellman-Ford relaxation over the potential difference graph ---------


class _DiffGraph:
    """x_v - x_u <= c edges over (ZERO + non-empty closure paths)."""

    def __init__(self, sys: FeasibilitySystem) -> None:
        self.sys = sys
        nonempty = [p for p in sys.paths if not is_empty(p)]
        # all empty paths share the anchor node 0
        self.node_of = {p: 0 for p in sys.paths if is_empty(p)}
        self.node_of.update({p: i + 1 for i, p in enumerate(nonempty)})
        self.n = len(nonempty) + 1

    def edges(self, dom: Mapping[LinkKey, tuple[int, int]]) -> list[tuple[int, int, float, str]]:
        """(u, v, cost, tag) meaning x_v - x_u <= cost."""
        sys = self.sys
        out: list[tuple[int, int, float, str]] = []
        bound = sys.lambda_bound()
        for i in range(1, self.n):
            out.append((0, i, float(bound), "lambda-ub"))
            out.append((i, 0, 0.0, "lambda-lb"))
        for r in sys.suffix_rows:
            lo, hi = dom[r.link]
            u, v = self.node_of[r.q], self.node_of[r.p]
            out.append((u, v, float(hi), f"suffix {r.p}"))
            out.append((v, u, float(-lo), f"suffix {r.p}"))
        for r in sys.pref_rows:
            if r.tied_link is not None:
                continue  # equality already carried by the suffix row + link domain
            u, v = self.node_of[r.pref], self.node_of[r.worse]
            out.append((u, v, float(sys.w_max), f"pref {r.prefix}:{r.pref}<{r.worse}"))
            out.append((v, u, -1.0, f"pref {r.prefix}:{r.pref}<{r.worse}"))
        return out


def _bellman_ford(n: int, edges: list[tuple[int, int, float, str]], source: Optional[int] = None):
    """Shortest distances over x_v - x_u <= c edges.

    With source=None every node starts at 0 (virtual super-source): pure
    feasibility mode, detecting any negative cycle. With a concrete source
    the distances are single-source shortest paths, i.e. tight upper bounds
    on x_v - x_source. Returns (dist, None) or (None, cycle_tags).
    """
    us = np.array([e[0] for e in edges], np.int64)
    vs = np.array([e[1] for e in edges], np.int64)
    cs = np.array([e[2] for e in edges])
    if source is None:
        dist = np.zeros(n)
    else:
        dist = np.full(n, np.inf)
        dist[source] = 0.0
    for it in range(n + 1):
        cand = dist[us] + cs
        new = dist.copy()
        np.minimum.at(new, vs, cand)
        if np.array_equal(new, dist):
            return dist, None
        dist = new
    # a negative cycle exists; collect still-relaxable constraint tags
    cand = dist[us] + cs
    bad = cand < dist[vs] - 1e-9
    tags = sorted({edges[i][3] for i in np.nonzero(bad)[0]})
    return None, tags


def _propagated_domains(
    sys: FeasibilitySystem,
    dg: _DiffGraph,
    dom: dict[LinkKey, tuple[int, int]],
) -> Optional[dict[LinkKey, tuple[int, int]]]:
    """Tighten link domains via interval arithmetic on potential bounds.

    Returns None when some domain empties (prune) or the difference system
    has a negative cycle.
    """
    edges = dg.edges(dom)
    feas, _ = _bellman_ford(dg.n, edges)
    if feas is None:
        return None
    # one pass of interval tightening: lambda_p - lambda_anchor in
    # [lam_lo, lam_hi], from single-source shortest paths out of the anchor
    # (forward graph for upper bounds, reversed for lower bounds)
    lam_hi, _ = _bellman_ford(dg.n, edges, source=0)
    rev = [(v, u, c, t) for (u, v, c, t) in edges]
    neg_lo, _ = _bellman_ford(dg.n, rev, source=0)
    if lam_hi is None or neg_lo is None:
        return None
    lam_lo = -neg_lo
    new = dict(dom)
    for r in sys.suffix_rows:
        ip, iq = dg.node_of[r.p], dg.node_of[r.q]
        lo, hi = new[r.link]
        lo = max(lo, int(np.ceil(lam_lo[ip] - lam_hi[iq] - 1e-9)))
        hi = min(hi, int(np.floor(lam_hi[ip] - lam_lo[iq] + 1e-9)))
        if lo > hi:
            return None
        new[r.link] = (lo, hi)
    return new


def _leaf_feasible(sys: FeasibilitySystem, weights: Mapping[LinkKey, int]) -> bool:
    for r in sys.pref_rows:
        gap = path_weight(r.worse, weights) - path_weight(r.pref, weights)
        if not 1 <= gap <= sys.w_max:
            return False
    return True


def solve_min_change(
    sys: FeasibilitySystem,
    w_initial: Mapping[LinkKey, Optional[int]],
    cfg: RepairConfig = RepairConfig(),
) -> RepairSolution:
    """Exact branch-and-bound minimizing the total change cost.

    Ties break by fewest changed links, then by the lexicographically
    smallest weight vector over the constrained links. Unconstrained links
    keep their initial weight (unknowns get 1). On budget exhaustion the
    best incumbent is returned with budget_exceeded set.
    """
    n_links = len(w_initial)
    eps, big_m, w_max = cfg.resolved(sys, max(n_links, 1))
    deadline = time.monotonic() + cfg.time_budget
    dg = _DiffGraph(sys)

    tied_links = {r.tied_link for r in sys.pref_rows if r.tied_link is not None}
    lo0 = {k: max(cfg.min_weight, 1 if k in tied_links else 0) for k in sys.links}
    dom0 = {k: (lo0[k], w_max) for k in sys.links}
    dom0 = _propagated_domains(sys, dg, dom0)
    if dom0 is None:
        edges = dg.edges({k: (lo0[k], w_max) for k in sys.links})
        _, tags = _bellman_ford(dg.n, edges)
        raise InfeasibleRepairError(
            "mandated preferences admit no weight assignment", tags or ["(domain wipeout)"]
        )

    occ: dict[LinkKey, int] = {k: 0 for k in sys.links}
    for r in sys.suffix_rows:
        occ[r.link] += 1
    order = sorted(sys.links, key=lambda k: (-occ[k], k))

    def link_cost(k: LinkKey, v: int) -> int:
        init = w_initial.get(k)
        if init is None:
            return 0
        d = v - init
        return d * d if abs(d) < eps else big_m

    def candidates(k: LinkKey, dom: tuple[int, int]) -> list[int]:
        lo, hi = dom
        vals = list(range(lo, hi + 1))
        # prefer cheap moves; among zero-cost options avoid weight 0 (ECMP
        # rejects it) before falling back to it
        return sorted(vals, key=lambda v: (link_cost(k, v), v == 0, v))

    best: Optional[tuple[float, int, tuple[int, ...], dict[LinkKey, int]]] = None
    budget_hit = False

    def incumbent_key(cost: float, assign: dict[LinkKey, int]) -> tuple:
        n_changed = sum(
            1
            for k in sys.links
            if w_initial.get(k) is not None and assign[k] != w_initial[k]
        )
        vec = tuple(assign[k] for k in sys.links)
        return (cost, n_changed, vec)

    def dfs(idx: int, assign: dict[LinkKey, int], cost: float, dom: dict) -> None:
        nonlocal best, budget_hit
        if time.monotonic() > deadline:
            budget_hit = True
            return
        if best is not None and cost > best[0]:
            return
        if idx == len(order):
            if _leaf_feasible(sys, assign):
                key = incumbent_key(cost, assign)
                if best is None or key < best[:3]:
                    best = (key[0], key[1], key[2], dict(assign))
            return
        k = order[idx]
        for v in candidates(k, dom[k]):
            c = cost + link_cost(k, v)
            if best is not None and c > best[0]:
                break  # candidates sorted by cost: nothing cheaper follows
            child = dict(dom)
            child[k] = (v, v)
            child = _propagated_domains(sys, dg, child)
            if child is None:
                continue
            assign[k] = v
            dfs(idx + 1, assign, c, child)
            del assign[k]
            if budget_hit:
                return

    dfs(0, {}, 0.0, dom0)

    if best is None:
        if budget_hit:
            raise InfeasibleRepairError(
                "time budget exhausted before any feasible assignment was found",
                [f"pref {r.prefix}:{r.pref}<{r.worse}" for r in sys.pref_rows],
            )
        raise InfeasibleRepairError(
            "no integer assignment satisfies the mandated preferences",
            [f"pref {r.prefix}:{r.pref}<{r.worse}" for r in sys.pref_rows],
        )

    weights: dict[LinkKey, int] = {}
    for k, init in w_initial.items():
        weights[k] = init if init is not None else max(1, cfg.min_weight)
    weights.update(best[3])
    changed, n_changed = changed_links_of(w_initial, weights)
    return RepairSolution(
        weights=weights,
        changed_links=changed,
        realized=VerificationRecord(True, (), True),
        objective=best[0],
        n_changed=n_changed,
        stage="exact",
        budget_exceeded=budget_hit,
    )


# --- continuous relaxation (shared with the TE stage) ---------------------


def solve_relaxed(
    sys: FeasibilitySystem,
    w_initial: Mapping[LinkKey, Optional[int]],
    push: Optional[Mapping[LinkKey, float]] = None,
    mu: float = 0.0,
    margin: int = 1,
    min_weight: int = 0,
    raise_infeasible: bool = False,
) -> Optional[dict[LinkKey, float]]:
    """LP relaxation: minimize L1 weight change (plus an optional linear
    push term) over the relaxed feasibility polytope. Returns fractional
    weights for the constrained links, or None if the LP has no solution.

    With raise_infeasible, an LP that HiGHS proves infeasible (linprog
    status 2) raises InfeasibleRepairError instead; any other failure still
    returns None. For margin 1 the polytope holds every assignment
    solve_min_change accepts with min_weight at least this one and w_max at
    most sys.w_max (link weights in [min_weight, w_max], tied links >= 1,
    path potentials in [0, lambda_bound], preference gaps in [1, w_max]),
    so the proof covers that solver too.
    """
    from scipy.optimize import linprog

    links = sys.links
    if not links:
        return {}  # no mandated paths: the empty assignment is feasible
    nonempty = [p for p in sys.paths if not is_empty(p)]
    li = {k: i for i, k in enumerate(links)}
    ti0 = len(links)
    pi0 = ti0 + len(links)
    pidx = {p: pi0 + i for i, p in enumerate(nonempty)}
    untied = [r for r in sys.pref_rows if r.tied_link is None]
    wi0 = pi0 + len(nonempty)
    nvar = wi0 + len(untied)

    cobj = np.zeros(nvar)
    cobj[ti0 : ti0 + len(links)] = 1.0
    if push is not None and mu != 0.0:
        for k, val in push.items():
            if k in li:
                cobj[li[k]] += mu * val

    rows_eq, rhs_eq = [], []

    def lam(p: RoutePath) -> Optional[int]:
        return None if is_empty(p) else pidx[p]

    for r in sys.suffix_rows:
        row = np.zeros(nvar)
        row[pidx[r.p]] = 1.0
        q = lam(r.q)
        if q is not None:
            row[q] = -1.0
        row[li[r.link]] = -1.0
        rows_eq.append(row)
        rhs_eq.append(0.0)
    for i, r in enumerate(untied):
        row = np.zeros(nvar)
        row[pidx[r.worse]] = 1.0
        p = lam(r.pref)
        if p is not None:
            row[p] = -1.0
        row[wi0 + i] = -1.0
        rows_eq.append(row)
        rhs_eq.append(0.0)

    rows_ub, rhs_ub = [], []
    for k in links:
        init = w_initial.get(k)
        if init is None:
            continue
        row = np.zeros(nvar)
        row[li[k]] = 1.0
        row[ti0 + li[k]] = -1.0
        rows_ub.append(row)
        rhs_ub.append(float(init))
        row = np.zeros(nvar)
        row[li[k]] = -1.0
        row[ti0 + li[k]] = -1.0
        rows_ub.append(row)
        rhs_ub.append(float(-init))

    tied_links = {r.tied_link for r in sys.pref_rows if r.tied_link is not None}
    bounds = []
    for k in links:
        lo = float(max(min_weight, margin if k in tied_links else 0))
        bounds.append((lo, float(sys.w_max)))
    bounds += [(0.0, None)] * len(links)
    bounds += [(0.0, float(sys.lambda_bound()))] * len(nonempty)
    bounds += [(float(margin), float(sys.w_max))] * len(untied)

    res = linprog(
        cobj,
        A_eq=np.array(rows_eq) if rows_eq else None,
        b_eq=np.array(rhs_eq) if rhs_eq else None,
        A_ub=np.array(rows_ub) if rows_ub else None,
        b_ub=np.array(rhs_ub) if rhs_ub else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2 and raise_infeasible:
        raise InfeasibleRepairError(
            "LP relaxation of the mandated preferences is infeasible",
            [f"pref {r.prefix}:{r.pref}<{r.worse}" for r in sys.pref_rows],
        )
    if not res.success:
        return None
    return {k: float(res.x[li[k]]) for k in links}


def round_to_feasible(
    sys: FeasibilitySystem,
    w_float: Mapping[LinkKey, float],
    w_initial: Mapping[LinkKey, Optional[int]],
    min_weight: int = 0,
    max_fix_steps: int = 200,
) -> Optional[dict[LinkKey, int]]:
    """Round a relaxed solution to integers and nudge out any violated
    mandated gaps; None when the nudge loop fails."""
    weights: dict[LinkKey, int] = {}
    for k, init in w_initial.items():
        if k in w_float:
            v = int(round(w_float[k]))
        elif init is not None:
            v = init
        else:
            v = 1
        weights[k] = min(max(v, min_weight), sys.w_max)

    for _ in range(max_fix_steps):
        worst = None
        for r in sys.pref_rows:
            gap = path_weight(r.worse, weights) - path_weight(r.pref, weights)
            if gap < 1 and (worst is None or gap < worst[0]):
                worst = (gap, r)
        if worst is None:
            return weights
        gap, r = worst
        deficit = 1 - gap
        pref_links = set(links_of(r.pref))
        worse_links = set(links_of(r.worse))
        up = [k for k in worse_links - pref_links if weights[k] + deficit <= sys.w_max]
        down = [k for k in pref_links - worse_links if weights[k] - deficit >= min_weight]
        if up:
            k = max(up, key=lambda k_: (sys.w_max - weights[k_], k_))
            weights[k] += deficit
        elif down:
            k = max(down, key=lambda k_: (weights[k_], k_))
            weights[k] -= deficit
        else:
            return None
    return None


def export_lp(sys: FeasibilitySystem, w_initial: Mapping[LinkKey, Optional[int]]) -> str:
    """CPLEX-LP text of the feasibility system with an L1 change objective."""
    def wname(k: LinkKey) -> str:
        return f"w_{k[0]}_{k[1]}"

    def lname(p: RoutePath) -> str:
        return "lam_" + "_".join(p)

    lines = ["Minimize", " obj: " + " + ".join(f"t_{i}" for i in range(len(sys.links)))]
    lines.append("Subject To")
    ci = 0
    for r in sys.suffix_rows:
        ci += 1
        q = "" if is_empty(r.q) else f" - {lname(r.q)}"
        lines.append(f" c{ci}: {lname(r.p)}{q} - {wname(r.link)} = 0")
    wpi = 0
    for r in sys.pref_rows:
        ci += 1
        p = "" if is_empty(r.pref) else f" - {lname(r.pref)}"
        if r.tied_link is not None:
            lines.append(f" c{ci}: {lname(r.worse)}{p} - {wname(r.tied_link)} = 0")
            ci += 1
            lines.append(f" c{ci}: {wname(r.tied_link)} >= 1")
        else:
            wpi += 1
            lines.append(f" c{ci}: {lname(r.worse)}{p} - wp_{wpi} = 0")
    for i, k in enumerate(sys.links):
        init = w_initial.get(k)
        if init is None:
            continue
        ci += 1
        lines.append(f" c{ci}: {wname(k)} - t_{i} <= {init}")
        ci += 1
        lines.append(f" c{ci}: - {wname(k)} - t_{i} <= {-init}")
    lines.append("Bounds")
    for k in sys.links:
        lines.append(f" 0 <= {wname(k)} <= {sys.w_max}")
    for i in range(wpi):
        lines.append(f" 1 <= wp_{i + 1} <= {sys.w_max}")
    for p in sys.paths:
        if not is_empty(p):
            lines.append(f" 0 <= {lname(p)} <= {sys.lambda_bound()}")
    lines.append("General")
    for k in sys.links:
        lines.append(f" {wname(k)}")
    lines.append("End")
    return "\n".join(lines) + "\n"
