"""Local search over link weights for the equal-splitting (ECMP) regime.

Classic single-weight-change neighborhood search with three twists: states
violating a mandated preference are never explored, the search stops early
once the TE cost is back within the operator's tolerance of the baseline,
and several searches run one after another from distinct feasible starts
(either the first to reach the threshold wins or the best of all is kept),
with the same result for the same seed every time.
"""

from __future__ import annotations

import json
import random
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .bgp_prefs import MandatedPreferences
from .netmodel import DemandMatrix, LinkKey, NetworkInstance, ValidationError, WeightError
from .paths import links_of, path_weight
from .repair import RepairConfig, RepairSolution, VerificationRecord, changed_links_of, verify_solution
from .routing import route_demands, route_moves, total_load
from .te import JointConfig, TECostModel, arc_capacities, cost_model_for, solve_joint_unequal, te_costs


def ecmp_cost(
    inst: NetworkInstance,
    demands: DemandMatrix,
    w: Mapping[LinkKey, Optional[int]],
    model: Optional[TECostModel] = None,
) -> float:
    """Total convex utilization penalty under equal splitting at every
    ECMP branch. Rejects non-positive weights and stranded demand."""
    if model is None:
        model = cost_model_for(inst)
    routing = route_demands(inst, demands, w)
    caps = arc_capacities(model, routing.ga)
    return te_costs(model, total_load(routing.loads)[None], caps)[0]


@dataclass(frozen=True)
class SearchConfig:
    gamma: float = 10.0
    max_iters: int = 150
    frac_start: float = 0.2
    frac_min: float = 0.05
    frac_max: float = 1.0
    stagnation: int = 3  # stagnant rounds before the sample fraction doubles
    seed: int = 0
    starts: int = 1
    visited_cap: int = 10000

    def __post_init__(self) -> None:
        if not (0 < self.frac_start <= 1 and 0 < self.frac_min <= self.frac_max <= 1):
            raise ValidationError("sampling fractions must lie in (0, 1]")
        if self.starts < 1:
            raise ValidationError("starts must be >= 1")


def _mandates_hold(prefs: MandatedPreferences, weights: Mapping[LinkKey, int]) -> bool:
    for _, (p, q) in prefs.all_pairs():
        if not path_weight(p, weights) < path_weight(q, weights):
            return False
    return True


def _baseline_cost(
    inst: NetworkInstance,
    demands: DemandMatrix,
    w_initial: Mapping[LinkKey, Optional[int]],
    model: TECostModel,
) -> float:
    """ECMP cost of the initial weights, unknown weights read as 1."""
    base_w = {k: (v if v is not None else 1) for k, v in w_initial.items()}
    return ecmp_cost(inst, demands, base_w, model)


def _mandate_incidence(prefs: MandatedPreferences, links: Sequence[LinkKey]) -> np.ndarray:
    """One row per mandated pair (p over q) of prefs.all_pairs() and one
    column per link: +1 on each link of q, -1 on each link of p. A row times
    a weight vector is w(q) - w(p), positive iff the pair holds."""
    col = {k: i for i, k in enumerate(links)}
    pairs = prefs.all_pairs()
    inc = np.zeros((len(pairs), len(links)), np.int64)
    for r, (_, (p, q)) in enumerate(pairs):
        for sign, path in ((1, q), (-1, p)):
            for k in links_of(path):
                if k not in col:
                    raise WeightError(f"unknown weight on link {k}")
                inc[r, col[k]] += sign
    return inc


def _keeps_mandates(
    inc: np.ndarray, gaps: np.ndarray, w: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> np.ndarray:
    """Whether each move j, which sets link cols[j] of the weights w to
    vals[j], keeps every mandated pair strictly ordered, given the pairs'
    gaps inc @ w. Integer arithmetic, so exact."""
    return (gaps[:, None] + inc[:, cols] * (vals - w[cols]) > 0).all(axis=0)


def search(
    inst: NetworkInstance,
    demands: DemandMatrix,
    prefs: MandatedPreferences,
    start: Mapping[LinkKey, int],
    cfg: SearchConfig,
    w_initial: Optional[Mapping[LinkKey, Optional[int]]] = None,
    baseline_cost: Optional[float] = None,
    model: Optional[TECostModel] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> RepairSolution:
    """Single-link-change descent from one feasible start.

    The incumbent always satisfies the mandated preferences and its cost is
    nonincreasing. Terminates early once cost <= baseline * (1 + gamma/100).
    The neighborhood sampling fraction adapts: halves on improvement, doubles
    after a few stagnant rounds. Each iteration drops the sampled moves that
    were already visited, then those that break a mandate (one integer
    product against the incumbent's mandate gaps), then scores the rest
    together from the incumbent's cached routing (routing.route_moves),
    bit-identically to ecmp_cost; the first strictly cheapest move in sample
    order wins. The first iterations of a run do not depend on max_iters.
    """
    if model is None:
        model = cost_model_for(inst)
    if w_initial is None:
        w_initial = inst.initial_weights()
    cur = dict(start)
    links = sorted(cur)
    w = np.array([cur[k] for k in links], np.int64)
    inc = _mandate_incidence(prefs, links)
    gaps = inc @ w
    if not (gaps > 0).all():
        raise ValidationError("local search start violates a mandated preference")
    if baseline_cost is None:
        baseline_cost = _baseline_cost(inst, demands, w_initial, model)
    threshold = baseline_cost * (1 + cfg.gamma / 100.0)

    rng = random.Random(cfg.seed)
    incumbent = route_demands(inst, demands, cur)
    caps = arc_capacities(model, incumbent.ga)
    cur_cost = te_costs(model, total_load(incumbent.loads)[None], caps)[0]
    # visited states are keyed by their weights in link order
    cur_t = tuple(cur[k] for k in links)
    visited: OrderedDict[tuple, None] = OrderedDict()
    visited[cur_t] = None

    column = {k: i for i, k in enumerate(incumbent.ga.links)}
    ga_col = np.array([column[k] for k in links], np.int64)
    moves = [(i, v) for i in range(len(links)) for v in range(1, inst.w_max + 1)]
    frac = cfg.frac_start
    stagnant = 0
    scored = recomputed = 0
    early = cur_cost <= threshold
    stop_reason = "threshold" if early else "max_iters"
    it = 0
    while not early and it < cfg.max_iters:
        it += 1
        sample = rng.sample(moves, max(1, int(frac * len(moves))))
        fresh = []
        for i, v in sample:
            if cur_t[i] == v:
                continue
            key = cur_t[:i] + (v,) + cur_t[i + 1 :]
            if key in visited:
                continue
            visited[key] = None
            while len(visited) > cfg.visited_cap:
                visited.popitem(last=False)
            fresh.append((i, v))
        cols = np.array([i for i, _ in fresh], np.int64)
        vals = np.array([v for _, v in fresh], np.int64)
        keep = _keeps_mandates(inc, gaps, w, cols, vals)
        cols, vals = cols[keep], vals[keep]
        totals, rerouted = route_moves(incumbent, ga_col[cols], vals)
        scored += len(cols)
        recomputed += int(rerouted.sum())
        best_move = None
        for i, v, c in zip(cols.tolist(), vals.tolist(), te_costs(model, totals, caps)):
            if c < cur_cost and (best_move is None or c < best_move[0]):
                best_move = (c, i, v)
        if best_move is not None:
            cur_cost, i, v = best_move
            cur = {**cur, links[i]: v}
            cur_t = cur_t[:i] + (v,) + cur_t[i + 1 :]
            w[i] = v
            gaps = inc @ w
            incumbent = route_demands(inst, demands, cur)
            frac = max(cfg.frac_min, frac / 2)
            stagnant = 0
            action = "improve"
        else:
            stagnant += 1
            if stagnant >= cfg.stagnation:
                frac = min(cfg.frac_max, frac * 2)
                stagnant = 0
                action = "expand"
            else:
                action = "stagnate"
        if cur_cost <= threshold:
            early = True
            stop_reason = action = "threshold"
        if progress is not None:
            progress(json.dumps({
                "iter": it, "cost": cur_cost,
                "feasible_neighbors": len(cols), "action": action,
                "neighbours_scored": scored, "destinations_recomputed": recomputed,
            }))

    record = verify_solution(inst, prefs, cur)
    if not record.ok:  # the in-loop mandate filter should make this impossible
        raise RuntimeError("local search incumbent drifted infeasible")
    changed, n_changed = changed_links_of(w_initial, cur)
    return RepairSolution(
        weights=cur,
        changed_links=changed,
        realized=record,
        objective=cur_cost,
        n_changed=n_changed,
        stage="local-search",
        te_cost_before=baseline_cost,
        te_cost_after=cur_cost,
        early_terminated=early,
        iterations=it,
        neighbours_scored=scored,
        destinations_recomputed=recomputed,
        stop_reason=stop_reason,
    )


def parallel_search(
    inst: NetworkInstance,
    demands: DemandMatrix,
    prefs: MandatedPreferences,
    starts: Sequence[Mapping[LinkKey, int]],
    cfg: SearchConfig,
    mode: str = "best-of",
    w_initial: Optional[Mapping[LinkKey, Optional[int]]] = None,
    baseline_cost: Optional[float] = None,
    model: Optional[TECostModel] = None,
) -> RepairSolution:
    """One search per start, run in start order on one thread; start i
    searches with seed cfg.seed + i. The baseline cost is computed once and
    shared by every search.

    best-of: every search runs, and the result with the least (cost, sorted
    weights) is returned. first-wins: the search that reaches the gamma
    threshold in the fewest iterations wins, the lower start index breaking
    ties. Once a winner exists, each later start runs for at most one
    iteration fewer than the winner took, and is skipped when that is none:
    a search's first iterations do not depend on max_iters, so this picks
    the same winner as stepping every search in turn, with less work. When
    no search reaches the threshold, first-wins returns what best-of would.
    Both modes are deterministic per seed.
    """
    if mode not in ("best-of", "first-wins"):
        raise ValidationError(f"unknown mode {mode!r}")
    if not starts:
        raise ValidationError("parallel_search needs at least one start")
    if model is None:
        model = cost_model_for(inst)
    if w_initial is None:
        w_initial = inst.initial_weights()
    if baseline_cost is None:
        baseline_cost = _baseline_cost(inst, demands, w_initial, model)

    results: list[RepairSolution] = []
    winner: Optional[RepairSolution] = None
    for i, start in enumerate(starts):
        max_iters = cfg.max_iters
        if winner is not None:
            max_iters = winner.iterations - 1
            if max_iters < 0:
                break
        sub = replace(cfg, seed=cfg.seed + i, starts=1, max_iters=max_iters)
        r = search(inst, demands, prefs, start, sub,
                   w_initial=w_initial, baseline_cost=baseline_cost, model=model)
        results.append(r)
        if mode == "first-wins" and r.early_terminated:
            winner = r
    if winner is not None:
        return winner
    return min(results, key=lambda r: (r.objective, tuple(sorted(r.weights.items()))))


def generate_starts(
    inst: NetworkInstance,
    demands: DemandMatrix,
    prefs: MandatedPreferences,
    w_initial: Mapping[LinkKey, Optional[int]],
    k: int,
    cfg: RepairConfig = RepairConfig(),
    jcfg: JointConfig = JointConfig(),
    extra: Sequence[Mapping[LinkKey, int]] = (),
) -> list[dict[LinkKey, int]]:
    """Up to k distinct feasible starts: the joint solution first, then any
    verified extras (e.g. an exact repair), then joint re-solves that
    exclude everything already returned."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    out: list[dict[LinkKey, int]] = []
    seen: set[tuple] = set()

    def admit(w: Mapping[LinkKey, int]) -> bool:
        key = tuple(sorted(w.items()))
        if key in seen or min(w.values()) < 1 or not verify_solution(inst, prefs, w).ok:
            return False
        seen.add(key)
        out.append(dict(w))
        return True

    first = solve_joint_unequal(inst, demands, prefs, w_initial, cfg, jcfg)
    if not first.realized.ok:
        raise ValidationError("joint solve produced an infeasible start")
    admit(first.weights)
    for w in extra:
        if len(out) >= k:
            break
        admit(w)
    for i in range(1, k):
        if len(out) >= k:
            break
        try:
            sol = solve_joint_unequal(
                inst, demands, prefs, w_initial, cfg,
                JointConfig(jcfg.gamma, jcfg.m_prime, jcfg.iterations, 0.0,
                            jcfg.seed + i),
                exclude=tuple(out),
            )
        except ValidationError:
            break  # no further distinct feasible solutions from the solver
        if not admit(sol.weights):
            break
    # fill remaining slots by perturbing links that no mandated path uses:
    # those weights are free, so feasibility of the first start is preserved
    if out and len(out) < k:
        from .repair import build_system

        sys = build_system(inst, prefs)
        constrained = set(sys.links)
        free = [lk for lk in sorted(out[0]) if lk not in constrained]
        rng = random.Random(jcfg.seed)
        attempts = 0
        while free and len(out) < k and attempts < 50 * k:
            attempts += 1
            cand = dict(out[0])
            for lk in rng.sample(free, rng.randint(1, len(free))):
                cand[lk] = rng.randint(1, inst.w_max)
            admit(cand)
    return out
