"""Local search over link weights for the equal-splitting (ECMP) regime.

Classic single-weight-change neighborhood search with three twists: states
violating a mandated preference are never explored, the search stops early
once the TE cost is back within the operator's tolerance of the baseline,
and several searches run in parallel from distinct feasible starts (either
first-to-threshold wins or best-of-all).
"""

from __future__ import annotations

import json
import random
import threading
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .bgp_prefs import MandatedPreferences
from .netmodel import DemandMatrix, LinkKey, NetworkInstance, ValidationError
from .paths import path_weight
from .repair import RepairConfig, RepairSolution, VerificationRecord, changed_links_of, verify_solution
from .routing import GraphArrays, route_demands, route_moves, total_load
from .te import JointConfig, TECostModel, cost_model_for, solve_joint_unequal


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
    return _te_costs(model, routing.ga, total_load(routing.loads)[None])[0]


def _te_costs(model: TECostModel, ga: GraphArrays, totals: np.ndarray) -> list[float]:
    """Penalty of each row of directed arc loads (summed across
    destinations in destination order), added up over the loaded arcs in
    arc order."""
    caps = np.array([model.capacities[k] for k in ga.links])[ga.arc_link]
    penalty = model.phi_array(totals, caps)
    return [float(sum(p[t != 0].tolist())) for p, t in zip(penalty, totals)]


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


def search(
    inst: NetworkInstance,
    demands: DemandMatrix,
    prefs: MandatedPreferences,
    start: Mapping[LinkKey, int],
    cfg: SearchConfig,
    w_initial: Optional[Mapping[LinkKey, Optional[int]]] = None,
    baseline_cost: Optional[float] = None,
    model: Optional[TECostModel] = None,
    stop: Optional[threading.Event] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> RepairSolution:
    """Single-link-change descent from one feasible start.

    The incumbent always satisfies the mandated preferences and its cost is
    nonincreasing. Terminates early once cost <= baseline * (1 + gamma/100).
    The neighborhood sampling fraction adapts: halves on improvement, doubles
    after a few stagnant rounds. Each iteration filters its sample (visited,
    mandates), then scores the feasible moves together from the incumbent's
    cached routing (routing.route_moves), bit-identically to ecmp_cost; the
    first strictly cheapest move in sample order wins.
    """
    if model is None:
        model = cost_model_for(inst)
    if w_initial is None:
        w_initial = inst.initial_weights()
    if not _mandates_hold(prefs, start):
        raise ValidationError("local search start violates a mandated preference")
    if baseline_cost is None:
        baseline_cost = _baseline_cost(inst, demands, w_initial, model)
    threshold = baseline_cost * (1 + cfg.gamma / 100.0)

    rng = random.Random(cfg.seed)
    cur = dict(start)
    cur_cost = ecmp_cost(inst, demands, cur, model)
    visited: OrderedDict[tuple, None] = OrderedDict()
    visited[tuple(sorted(cur.items()))] = None

    links = sorted(cur)
    incumbent = route_demands(inst, demands, cur)
    column = {k: i for i, k in enumerate(incumbent.ga.links)}
    moves = [(k, v) for k in links for v in range(1, inst.w_max + 1)]
    frac = cfg.frac_start
    stagnant = 0
    scored = recomputed = 0
    early = cur_cost <= threshold
    stop_reason = "threshold" if early else "max_iters"
    it = 0
    while not early and it < cfg.max_iters:
        if stop is not None and stop.is_set():
            stop_reason = "stopped"
            break
        it += 1
        sample = rng.sample(moves, max(1, int(frac * len(moves))))
        feasible = []
        for k, v in sample:
            if cur[k] == v:
                continue
            cand = dict(cur)
            cand[k] = v
            key = tuple(sorted(cand.items()))
            if key in visited:
                continue
            visited[key] = None
            while len(visited) > cfg.visited_cap:
                visited.popitem(last=False)
            if _mandates_hold(prefs, cand):
                feasible.append((k, v))
        totals, rerouted = route_moves(
            incumbent, [column[k] for k, _ in feasible], [v for _, v in feasible]
        )
        scored += len(feasible)
        recomputed += int(rerouted.sum())
        best_move = None
        for (k, v), c in zip(feasible, _te_costs(model, incumbent.ga, totals)):
            if c < cur_cost and (best_move is None or c < best_move[0]):
                best_move = (c, k, v)
        if best_move is not None:
            cur_cost, k, v = best_move
            cur = {**cur, k: v}
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
                "feasible_neighbors": len(feasible), "action": action,
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
    threads: Optional[int] = None,
    w_initial: Optional[Mapping[LinkKey, Optional[int]]] = None,
    baseline_cost: Optional[float] = None,
    model: Optional[TECostModel] = None,
) -> RepairSolution:
    """One search per start, on threads.

    first-wins: the first search to reach the gamma threshold wins and the
    rest are cancelled cooperatively. best-of: all searches complete and the
    minimum-cost result is returned (deterministic given the seeds). The
    baseline cost is computed once and shared by every search.
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
    stop = threading.Event() if mode == "first-wins" else None
    threads = threads or len(starts)

    def run(i: int, start: Mapping[LinkKey, int]) -> RepairSolution:
        sub = SearchConfig(
            cfg.gamma, cfg.max_iters, cfg.frac_start, cfg.frac_min, cfg.frac_max,
            cfg.stagnation, cfg.seed + i, 1, cfg.visited_cap,
        )
        return search(
            inst, demands, prefs, start, sub,
            w_initial=w_initial, baseline_cost=baseline_cost, model=model, stop=stop,
        )

    results: list[RepairSolution] = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(run, i, s) for i, s in enumerate(starts)]
        if stop is not None:
            pending = set(futures)
            winner = None
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for f in done:
                    r = f.result()
                    results.append(r)
                    if r.early_terminated and winner is None:
                        winner = r
                        stop.set()
            if winner is not None:
                return winner
        else:
            results = [f.result() for f in futures]
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
