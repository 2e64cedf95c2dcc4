"""Feasibility system over mandated preferences and exact minimal-change repair.

The feasibility system ties a potential (the path's total weight) to every
mandated path and suffix; mandated pairs become strict integer gaps realized
by virtual weights. The exact solver is a branch-and-bound over the
constrained integer link weights. Bellman-Ford over the potential difference
system tightens the link domains. The cheapest change left inside them bounds
the cost, and on a cost tie the cheapest values bound the whole tie-break key.
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
        eps, big_m = _eps_big_m(self, w_max, n_links)
        if eps < 1:
            raise ValidationError("epsilon must be >= 1")
        if big_m <= eps * eps:
            raise ValidationError("big_m must exceed epsilon^2")
        return eps, big_m, w_max


def _eps_big_m(cfg: RepairConfig, w_max: int, n_links: int) -> tuple[int, int]:
    """cfg's epsilon and big_m, defaulting to w_max and w_max^2 * n_links + 1."""
    eps = cfg.epsilon if cfg.epsilon is not None else w_max
    big_m = cfg.big_m if cfg.big_m is not None else w_max * w_max * n_links + 1
    return eps, big_m


def h_cost(delta: int, cfg: RepairConfig, w_max: int = 1, n_links: int = 1) -> int:
    """Quadratic change cost below the epsilon cap, M at or beyond it."""
    eps, big_m = _eps_big_m(cfg, w_max, n_links)
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
    # and why it stopped ("threshold" or "max_iters")
    neighbours_scored: int = 0
    destinations_recomputed: int = 0
    stop_reason: Optional[str] = None
    nodes: int = 0  # exact solve: domain propagations made
    exact_seed_skipped: Optional[str] = None  # joint solve: why its exact seed failed


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


def _pref_tag(r: PrefRow) -> str:
    return f"pref {r.prefix}:{r.pref}<{r.worse}"


def _grouped(tails: np.ndarray, heads: np.ndarray, n: int):
    """(permutation, tails, group starts) of the edges sorted by head."""
    perm = np.argsort(heads, kind="stable")
    return perm, tails[perm], np.searchsorted(heads[perm], np.arange(n))


class _DiffGraph:
    """x_v - x_u <= c edges over (anchor + non-empty closure paths), built once
    per solve.

    Node 0 is the anchor that all empty paths share. Only the two edges of a
    suffix row depend on the link domains: hi on q -> p and -lo on p -> q.
    Every node also has a zero-cost self-loop, so each node has an incoming
    edge in either direction and one relaxation round is a segmented minimum
    over the edges grouped by head.
    """

    def __init__(self, sys: FeasibilitySystem) -> None:
        self.sys = sys
        nonempty = [p for p in sys.paths if not is_empty(p)]
        node_of = {p: 0 for p in sys.paths if is_empty(p)}
        node_of.update({p: i + 1 for i, p in enumerate(nonempty)})
        n = self.n = len(nonempty) + 1
        # a tied pair's gap is its link's weight: the suffix row and the
        # link domain already carry it
        self.untied = [r for r in sys.pref_rows if r.tied_link is None]
        rows = sys.suffix_rows
        link_idx = {k: i for i, k in enumerate(sys.links)}
        self.row_p = np.array([node_of[r.p] for r in rows], np.int64)
        self.row_q = np.array([node_of[r.q] for r in rows], np.int64)
        self.row_link = np.array([link_idx[r.link] for r in rows], np.int64)
        pref = np.array([node_of[r.pref] for r in self.untied], np.int64)
        worse = np.array([node_of[r.worse] for r in self.untied], np.int64)
        ids, anchor, loops = np.arange(1, n), np.zeros(n - 1, np.int64), np.arange(n)
        # blocks: lambda-ub, lambda-lb, suffix hi, suffix -lo, pref gap
        # <= w_max, pref gap >= 1, self-loops
        self.us = np.concatenate([anchor, ids, self.row_q, self.row_p, pref, worse, loops])
        self.vs = np.concatenate([ids, anchor, self.row_p, self.row_q, worse, pref, loops])
        m, k = len(rows), len(self.untied)
        self.base = np.concatenate([
            np.full(n - 1, float(sys.lambda_bound())), np.zeros(n - 1), np.zeros(2 * m),
            np.full(k, float(sys.w_max)), np.full(k, -1.0), np.zeros(n),
        ])
        self.hi_pos = 2 * (n - 1) + np.arange(m)
        self.lo_pos = self.hi_pos + m
        self.fwd = _grouped(self.us, self.vs, n)
        self.rev = _grouped(self.vs, self.us, n)

    def costs(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        c = self.base.copy()
        c[self.hi_pos] = hi[self.row_link]
        c[self.lo_pos] = -lo[self.row_link]
        return c

    def relax(self, dist: np.ndarray, grouped, c: np.ndarray) -> tuple[np.ndarray, bool]:
        """Bellman-Ford rounds from dist; (dist, converged). Without a
        negative cycle, n rounds reach the fixed point from any start that
        bounds the shortest distances from above and is 0 at its source."""
        perm, tails, starts = grouped
        cp = c[perm]
        for _ in range(self.n + 1):
            new = np.minimum.reduceat(dist[tails] + cp, starts)
            # the self-loops keep new <= dist, so equal bytes mean a fixed
            # point (the sums of these costs make no -0.0 and no NaN)
            if new.tobytes() == dist.tobytes():
                return dist, True
            dist = new
        return dist, False

    def propagate(self, lo: np.ndarray, hi: np.ndarray, warm=None):
        """Tighten link domains via interval arithmetic on potential bounds.

        lambda_p - lambda_anchor lies in [lam_lo, lam_hi], from shortest
        paths out of the anchor in the forward graph (lam_hi) and the
        reversed one (-lam_lo). The anchor has an edge to every node, so
        the forward pass fails to converge exactly when the system has a
        negative cycle. warm holds the distances of a parent whose
        domains contain these; the distances only fall from there. Returns
        (lo, hi, distances), or None when the system has a negative cycle
        or a domain empties.
        """
        c = self.costs(lo, hi)
        if warm is None:
            start = np.full(self.n, np.inf)
            start[0] = 0.0
            warm = (start, start)
        lam_hi, ok = self.relax(warm[0], self.fwd, c)
        if not ok:
            return None
        neg_lo, _ = self.relax(warm[1], self.rev, c)  # same cycles: converges
        lam_lo = -neg_lo
        p, q = self.row_p, self.row_q
        lo, hi = lo.copy(), hi.copy()
        # intersecting intervals does not depend on the order of the rows
        np.maximum.at(lo, self.row_link, np.ceil(lam_lo[p] - lam_hi[q] - 1e-9).astype(np.int64))
        np.minimum.at(hi, self.row_link, np.floor(lam_hi[p] - lam_lo[q] + 1e-9).astype(np.int64))
        if (lo > hi).any():
            return None
        return lo, hi, (lam_hi, neg_lo)

    def conflict(self, lo: np.ndarray, hi: np.ndarray) -> list[str]:
        """Constraints still relaxable after n + 1 rounds from a virtual
        super-source (every node at 0); empty without a negative cycle."""
        c = self.costs(lo, hi)
        dist, ok = self.relax(np.zeros(self.n), self.fwd, c)
        if ok:
            return []
        sys, n = self.sys, self.n
        tags = (
            ["lambda-ub"] * (n - 1) + ["lambda-lb"] * (n - 1)
            + [f"suffix {r.p}" for r in sys.suffix_rows] * 2
            + [_pref_tag(r) for r in self.untied] * 2
        )
        bad = np.nonzero(dist[self.us] + c < dist[self.vs] - 1e-9)[0]
        return sorted({tags[i] for i in bad})  # self-loops are never relaxable


def _leaf_feasible(sys: FeasibilitySystem, weights: Mapping[LinkKey, int]) -> bool:
    for r in sys.pref_rows:
        gap = path_weight(r.worse, weights) - path_weight(r.pref, weights)
        if not 1 <= gap <= sys.w_max:
            return False
    return True


def _verify_rows(sys: FeasibilitySystem, weights: Mapping[LinkKey, int]) -> VerificationRecord:
    """verify_solution over the system's rows: its pref rows are the closed
    preferences' pairs in order, its suffix rows the closure's paths."""
    violations = []
    for r in sys.pref_rows:
        wp, wq = path_weight(r.pref, weights), path_weight(r.worse, weights)
        if not wp < wq:
            violations.append((r.prefix, r.pref, r.worse, wp, wq))
    suffix_ok = all(path_weight(r.q, weights) <= path_weight(r.p, weights) for r in sys.suffix_rows)
    return VerificationRecord(not violations and suffix_ok, tuple(violations), suffix_ok)


def solve_min_change(
    sys: FeasibilitySystem,
    w_initial: Mapping[LinkKey, Optional[int]],
    cfg: RepairConfig = RepairConfig(),
) -> RepairSolution:
    """Exact branch-and-bound minimizing the total change cost.

    Ties break by fewest changed links, then by the lexicographically
    smallest weight vector over the constrained links: the answer is the
    leaf with the least key (cost, changed links, vector). Unconstrained
    links keep their initial weight (unknowns get 1). A subtree's cost floor
    is its cost so far plus, for every unassigned link, the cheapest change
    inside its domain; the subtree is cut when the floor exceeds the
    incumbent's cost. When the floor equals it, a leaf below can only tie
    on cost by giving every link a cheapest value of its domain, which
    bounds that leaf's changed links and vector from below; the subtree is
    also cut when that bound is no less than the incumbent's key. Both cuts
    are tested on the parent's domains with the candidate fixed, and again
    on the child's propagated domains. No cut drops a leaf whose key is
    below the incumbent's, so the answer is the least key. On budget
    exhaustion the best incumbent is returned with budget_exceeded set;
    with no incumbent, an infeasible LP relaxation still proves the mandates
    infeasible.
    """
    n_links = max(len(w_initial), 1)
    eps, _, w_max = cfg.resolved(sys, n_links)
    deadline = time.monotonic() + cfg.time_budget
    dg = _DiffGraph(sys)
    links = sys.links

    tied_links = {r.tied_link for r in sys.pref_rows if r.tied_link is not None}
    lo0 = np.array([max(cfg.min_weight, 1 if k in tied_links else 0) for k in links], np.int64)
    hi0 = np.full(len(links), w_max, np.int64)
    nodes = 1
    root = dg.propagate(lo0, hi0)
    if root is None:
        raise InfeasibleRepairError(
            "mandated preferences admit no weight assignment",
            dg.conflict(lo0, hi0) or ["(domain wipeout)"],
        )

    # cost[i][v]: change cost of weight v on link i (unknown initial: free)
    init = [w_initial.get(k) for k in links]
    cost = [
        [0 if w0 is None else h_cost(v - w0, cfg, w_max, n_links) for v in range(w_max + 1)]
        for w0 in init
    ]
    cost_arr = np.array(cost, dtype=float).reshape(len(links), w_max + 1)
    target = np.array([0 if w0 is None else w0 for w0 in init], np.int64)
    known = np.array([w0 is not None for w0 in init], bool)
    # prefer cheap moves; among zero-cost options avoid weight 0 (ECMP
    # rejects it) before falling back to it
    ranked = [sorted(range(w_max + 1), key=lambda v: (row[v], v == 0, v)) for row in cost]

    occ = np.bincount(dg.row_link, minlength=len(links))
    order = sorted(range(len(links)), key=lambda i: (-occ[i], links[i]))
    rests = [np.array(order[j + 1:], np.int64) for j in range(len(order))]

    def bound(lo: np.ndarray, hi: np.ndarray, rest: np.ndarray) -> float:
        # the change cost grows with |delta|, so each link's cheapest value
        # is the one nearest its initial weight
        near = np.minimum(np.maximum(target[rest], lo[rest]), hi[rest])
        return float(cost_arr[rest, near].sum())

    best: Optional[tuple[float, int, tuple[int, ...]]] = None
    best_vec: Optional[np.ndarray] = None  # best[2] as an array
    budget_hit = False

    def ties_lose(lo: np.ndarray, hi: np.ndarray) -> bool:
        # True when no leaf below domains lo..hi that costs exactly the
        # incumbent's cost has a smaller key. Such a leaf gives each link a
        # cheapest value of its domain: the initial weight when the domain
        # holds it, else the nearer end while that is within epsilon; past
        # epsilon every value costs big_m and an unknown initial weight makes
        # every value free, so lo bounds it there. A fixed link gets its value.
        near = np.minimum(np.maximum(target, lo), hi)
        vec = np.where(np.abs(near - target) < eps, near, lo)
        changed = int(np.count_nonzero(known & (near != target)))
        if changed != best[1]:
            return changed > best[1]
        diff = np.flatnonzero(vec != best_vec)
        return diff.size == 0 or vec[diff[0]] > best_vec[diff[0]]

    def dfs(idx: int, c0: float, lo: np.ndarray, hi: np.ndarray, dist) -> None:
        nonlocal best, best_vec, budget_hit, nodes
        if time.monotonic() > deadline:
            budget_hit = True
            return
        if idx == len(order):
            vec = tuple(lo.tolist())  # every link is fixed here
            if _leaf_feasible(sys, dict(zip(links, vec))):
                n_changed = sum(1 for w0, v in zip(init, vec) if w0 is not None and v != w0)
                key = (c0, n_changed, vec)
                if best is None or key < best:
                    best, best_vec = key, lo
            return
        i, rest = order[idx], rests[idx]
        floor = bound(lo, hi, rest)
        lo_i, hi_i = int(lo[i]), int(hi[i])
        for v in ranked[i]:
            if not lo_i <= v <= hi_i:
                continue
            c = c0 + cost[i][v]
            if best is not None and c + floor > best[0]:
                break  # candidates sorted by cost: nothing cheaper follows
            clo, chi = lo.copy(), hi.copy()
            clo[i] = chi[i] = v
            if best is not None and c + floor == best[0] and ties_lose(clo, chi):
                continue
            nodes += 1
            child = dg.propagate(clo, chi, dist)
            if child is None:
                continue
            if best is not None:
                c_floor = c + bound(child[0], child[1], rest)
                if c_floor > best[0] or (c_floor == best[0] and ties_lose(child[0], child[1])):
                    continue
            dfs(idx + 1, c, *child)
            if budget_hit:
                return

    dfs(0, 0.0, *root)

    if best is None:
        conflict = [_pref_tag(r) for r in sys.pref_rows]
        if budget_hit and w_max <= sys.w_max:
            # the relaxation holds every integer point this search accepts
            # (see solve_relaxed), so its proof settles an unfinished search
            try:
                solve_relaxed(sys, w_initial, min_weight=cfg.min_weight, raise_infeasible=True)
            except InfeasibleRepairError:
                budget_hit = False
        if budget_hit:
            raise InfeasibleRepairError(
                "time budget exhausted before any feasible assignment was found", conflict
            )
        raise InfeasibleRepairError(
            "no integer assignment satisfies the mandated preferences", conflict
        )

    weights: dict[LinkKey, int] = {}
    for k, w0 in w_initial.items():
        weights[k] = w0 if w0 is not None else max(1, cfg.min_weight)
    weights.update(zip(links, best[2]))
    changed, n_changed = changed_links_of(w_initial, weights)
    return RepairSolution(
        weights=weights,
        changed_links=changed,
        realized=_verify_rows(sys, weights),
        objective=best[0],
        n_changed=n_changed,
        stage="exact",
        budget_exceeded=budget_hit,
        nodes=nodes,
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
            [_pref_tag(r) for r in sys.pref_rows],
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
