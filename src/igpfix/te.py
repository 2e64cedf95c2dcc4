"""Traffic-engineering cost model, shortest-path flow, and the joint
repair-plus-TE optimization for routers that can split traffic unequally.

The link cost is the classic piecewise-linear convex utilization penalty
(slopes 1/3/10/70/500/5000 at utilization breakpoints 1/3, 2/3, 9/10, 1,
11/10); any convex table can be substituted via CSV override.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

import numpy as np

from .bgp_prefs import MandatedPreferences
from .netmodel import (
    DemandMatrix,
    LinkKey,
    NetworkInstance,
    ParseError,
    ValidationError,
    WeightError,
    link_key,
)
from .repair import (
    InfeasibleRepairError,
    RepairConfig,
    RepairSolution,
    build_system,
    changed_links_of,
    round_to_feasible,
    solve_min_change,
    solve_relaxed,
    verify_solution,
)
from .routing import Arc, GraphArrays, route_demands

DEFAULT_BREAKPOINTS = (1 / 3, 2 / 3, 9 / 10, 1.0, 11 / 10)
DEFAULT_SLOPES = (1.0, 3.0, 10.0, 70.0, 500.0, 5000.0)


@dataclass(frozen=True)
class TECostModel:
    """Convex piecewise-linear per-link cost phi(load) given capacity."""

    capacities: Mapping[LinkKey, float]
    breakpoints: tuple[float, ...] = DEFAULT_BREAKPOINTS
    slopes: tuple[float, ...] = DEFAULT_SLOPES
    baseline_loads: Optional[Mapping[Arc, float]] = None
    baseline_cost: Optional[float] = None

    def __post_init__(self) -> None:
        if len(self.slopes) != len(self.breakpoints) + 1:
            raise ValidationError("need one more slope than breakpoints")
        if list(self.slopes) != sorted(self.slopes) or list(self.breakpoints) != sorted(
            self.breakpoints
        ):
            raise ValidationError("breakpoints and slopes must be nondecreasing (convexity)")

    def phi(self, load: float, capacity: float) -> float:
        """Piecewise-linear cost of a single directed load."""
        if load <= 0:
            return 0.0
        cost = 0.0
        prev = 0.0
        for bp, slope in zip(self.breakpoints, self.slopes):
            edge = bp * capacity
            if load <= edge:
                return cost + slope * (load - prev)
            cost += slope * (edge - prev)
            prev = edge
        return cost + self.slopes[-1] * (load - prev)

    def phi_array(self, loads: np.ndarray, capacities: np.ndarray) -> np.ndarray:
        """phi of each load against the capacity broadcast with it, with
        the same operations in the same order, so bit-identical to phi."""
        out = np.zeros(np.broadcast_shapes(np.shape(loads), np.shape(capacities)))
        done = loads <= 0
        cost = prev = np.zeros(np.shape(capacities))
        for bp, slope in zip(self.breakpoints, self.slopes):
            edge = bp * capacities
            here = ~done & (loads <= edge)
            out = np.where(here, cost + slope * (loads - prev), out)
            done = done | here
            cost = cost + slope * (edge - prev)
            prev = edge
        return np.where(done, out, cost + self.slopes[-1] * (loads - prev))

    def phi_slope(self, load: float, capacity: float) -> float:
        """Marginal cost at the given load."""
        u = load / capacity if capacity > 0 else math.inf
        for bp, slope in zip(self.breakpoints, self.slopes):
            if u < bp:
                return slope
        return self.slopes[-1]

    def with_baseline(self, loads: Mapping[Arc, float]) -> "TECostModel":
        total = sum(
            self.phi(x, self.capacities[link_key(u, v)]) for (u, v), x in loads.items()
        )
        return replace(self, baseline_loads=dict(loads), baseline_cost=total)


def cost_model_for(inst: NetworkInstance) -> TECostModel:
    return TECostModel({ln.key: ln.capacity for ln in inst.links})


def load_cost_table(path: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Override CSV with columns breakpoint,slope; one extra row with an
    empty breakpoint carries the final slope."""
    bps: list[float] = []
    slopes: list[float] = []
    try:
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].strip().lower() == "breakpoint":
                    continue
                if row[0].strip():
                    bps.append(float(row[0]))
                slopes.append(float(row[1]))
    except (OSError, ValueError, IndexError) as exc:
        raise ParseError(f"malformed cost table {path}: {exc}") from exc
    return tuple(bps), tuple(slopes)


@dataclass(frozen=True)
class FlowSolution:
    """Directed per-link loads."""

    loads: Mapping[Arc, float]
    objective: float  # w^T x of the returned loads
    lp_objective: Optional[float] = None


def _lp_flow_objective(ga: GraphArrays, arc_weight: np.ndarray, dest_idx: int,
                       demand_vec: np.ndarray) -> float:
    """Min-cost (w^T x) routing LP toward one destination, solved exactly."""
    from scipy.optimize import linprog

    n, m = len(ga.nodes), len(ga.arc_src)
    keep = np.arange(n) != dest_idx  # one conservation row per other node
    a_eq = np.zeros((n, m))
    a_eq[ga.arc_src, np.arange(m)] += 1.0
    a_eq[ga.arc_dst, np.arange(m)] -= 1.0
    res = linprog(arc_weight, A_eq=a_eq[keep], b_eq=demand_vec[keep],
                  bounds=[(0, None)] * m, method="highs")
    if not res.success:
        raise ValidationError("flow LP infeasible (disconnected demand?)")
    return float(res.fun)


def solve_flow(
    inst: NetworkInstance,
    demands: DemandMatrix,
    w: Mapping[LinkKey, Optional[int]],
    split: Optional[Mapping[str, Mapping[str, float]]] = None,
    with_lp: bool = False,
) -> FlowSolution:
    """Route every demand on minimum-weight paths.

    Ties are decomposed proportionally over the ECMP DAG successors (equal
    fractions unless a split table is supplied); this attains the optimum of
    the min w^T x flow LP, which is solved independently when with_lp is set.
    """
    demands.validate(inst)
    routing = route_demands(inst, demands, w, split)
    ga = routing.ga
    total: dict[Arc, float] = {}
    for row in routing.loads:
        for k in np.nonzero(row)[0]:
            arc = ga.arcs[k]
            total[arc] = total.get(arc, 0.0) + float(row[k])
    lp_total = None
    if with_lp:
        lp_total = sum(
            _lp_flow_objective(ga, routing.arc_weight, ga.index[d], vec)
            for d, vec in zip(routing.dests, routing.demand)
        )
    wk = {k: float(v) for k, v in w.items() if v is not None}
    objective = sum(wk[link_key(u, v)] * x for (u, v), x in total.items())
    return FlowSolution(total, objective, lp_total)


def te_cost(flow: FlowSolution, model: TECostModel) -> float:
    """Total convex utilization penalty of the directed loads."""
    return sum(
        model.phi(x, model.capacities[link_key(u, v)]) for (u, v), x in flow.loads.items()
    )


@dataclass(frozen=True)
class JointConfig:
    """Knobs for the joint repair + TE problem.

    gamma: allowed percent deviation of TE cost from baseline. m_prime:
    scale of the TE penalty against the change cost. exact_budget: seconds
    granted to the exact solver for seeding the candidate pool (0 skips it).
    """

    gamma: float = 0.0
    m_prime: float = 1.0
    iterations: int = 4
    exact_budget: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValidationError("gamma must be >= 0")
        if self.m_prime <= 0:
            raise ValidationError("m_prime must be > 0")


def _with_unknowns_filled(w: Mapping[LinkKey, Optional[int]]) -> dict[LinkKey, int]:
    return {k: (v if v is not None else 1) for k, v in w.items()}


def joint_objective(
    model: TECostModel,
    threshold: float,
    w_initial: Mapping[LinkKey, Optional[int]],
    weights: Mapping[LinkKey, int],
    flow: FlowSolution,
    cfg: RepairConfig,
    jcfg: JointConfig,
    w_max: int,
    n_links: int,
) -> tuple[float, float]:
    """(joint objective, TE cost) of one candidate weight assignment, given
    its shortest-path flow.

    The TE term penalizes only the total cost in excess of the baseline
    scaled by (1 + gamma/100); within tolerance it contributes 0, so an
    enormous gamma reduces the problem to pure minimal change.
    """
    from .repair import h_cost

    change = 0.0
    for k, init in w_initial.items():
        if init is not None:
            change += h_cost(weights[k] - init, cfg, w_max, n_links)
    cost = te_cost(flow, model)
    return change + jcfg.m_prime * max(0.0, cost - threshold), cost


def solve_joint_unequal(
    inst: NetworkInstance,
    demands: DemandMatrix,
    prefs: MandatedPreferences,
    w_initial: Mapping[LinkKey, Optional[int]],
    cfg: RepairConfig = RepairConfig(),
    jcfg: JointConfig = JointConfig(),
    exclude: tuple[Mapping[LinkKey, int], ...] = (),
) -> RepairSolution:
    """Alternating heuristic for the bilevel repair + TE problem.

    Fixes weights, routes the flow, then re-optimizes weights over the
    relaxed feasibility polytope with a linear push away from expensive
    links; rounds, re-verifies the mandates, and keeps the best candidate by
    joint objective. Falls back to the exact integer solve when rounding
    cannot be made feasible, and raises InfeasibleRepairError at once when
    the relaxation proves that solve infeasible. Candidates listed in
    exclude are rejected (used for alternative-start generation). Each
    distinct weight vector is routed once. When the exact seed finds the
    mandates infeasible, the result's exact_seed_skipped says why.
    """
    sys = build_system(inst, prefs)
    eps, big_m, w_max = cfg.resolved(sys, max(len(w_initial), 1))
    model = cost_model_for(inst)
    flows: dict[tuple, FlowSolution] = {}

    def flow_of(w: Mapping[LinkKey, int]) -> FlowSolution:
        key = tuple(sorted(w.items()))
        if key not in flows:
            flows[key] = solve_flow(inst, demands, w)
        return flows[key]

    base_cost = te_cost(flow_of(_with_unknowns_filled(w_initial)), model)
    threshold = base_cost * (1 + jcfg.gamma / 100.0)
    excluded = {tuple(sorted(e.items())) for e in exclude}
    rng = random.Random(jcfg.seed)

    candidates: list[tuple[dict[LinkKey, int], str]] = []
    exact_seed_skipped = None
    if jcfg.exact_budget > 0:
        try:
            exact = solve_min_change(
                sys, w_initial,
                RepairConfig(cfg.epsilon, cfg.big_m, cfg.w_max, jcfg.exact_budget,
                             min_weight=max(1, cfg.min_weight)),
            )
            candidates.append((exact.weights, "exact"))
        except InfeasibleRepairError as exc:
            exact_seed_skipped = str(exc)  # seeding only; the relaxation may still succeed

    # without a candidate the fallback below is solve_min_change, whose
    # integer points this relaxation contains when its w_max is at most
    # sys.w_max: an infeasible LP then ends the repair at once
    proves = not candidates and (cfg.w_max is None or cfg.w_max <= sys.w_max)
    w_rel = solve_relaxed(sys, w_initial, min_weight=1, raise_infeasible=proves)
    if w_rel is not None:
        rounded = round_to_feasible(sys, w_rel, w_initial, min_weight=1)
        if rounded is not None and verify_solution(inst, prefs, rounded).ok:
            candidates.append((rounded, "relaxed+rounded"))
            current = rounded
            for it in range(jcfg.iterations):
                try:
                    flow = flow_of(current)
                except ValidationError:
                    break
                push = {}
                for k in sys.links:
                    load = flow.loads.get((k[0], k[1]), 0.0) + flow.loads.get((k[1], k[0]), 0.0)
                    price = model.phi_slope(load, model.capacities[k])
                    # expensive links want higher weight: negative LP cost on w
                    push[k] = -price / max(model.capacities[k], 1.0)
                mu = (1.0 + it) * (1.0 + 0.1 * rng.random())
                w_it = solve_relaxed(sys, w_initial, push=push, mu=mu, min_weight=1)
                if w_it is None:
                    break
                rounded_it = round_to_feasible(sys, w_it, w_initial, min_weight=1)
                if rounded_it is None or not verify_solution(inst, prefs, rounded_it).ok:
                    continue
                candidates.append((rounded_it, "relaxed+rounded"))
                current = rounded_it

    if not candidates:
        exact = solve_min_change(  # fall back to the full integer solve
            sys, w_initial,
            RepairConfig(cfg.epsilon, cfg.big_m, cfg.w_max, cfg.time_budget,
                         min_weight=max(1, cfg.min_weight)),
        )
        candidates.append((exact.weights, "exact"))

    best = None
    for weights, stage in candidates:
        if tuple(sorted(weights.items())) in excluded:
            continue
        try:
            obj, cost = joint_objective(
                model, threshold, w_initial, weights, flow_of(weights), cfg, jcfg,
                w_max, len(w_initial),
            )
        except WeightError:
            continue  # zero-weight candidate: unroutable under ECMP
        _, n_changed = changed_links_of(w_initial, weights)
        key = (obj, cost, n_changed, tuple(weights[k] for k in sorted(weights)))
        if best is None or key < best[0]:
            best = (key, weights, stage, cost)
    if best is None:
        raise ValidationError("all joint candidates were excluded")

    _, weights, stage, cost = best
    changed, n_changed = changed_links_of(w_initial, weights)
    return RepairSolution(
        weights=dict(weights),
        changed_links=changed,
        realized=verify_solution(inst, prefs, weights),
        objective=best[0][0],
        n_changed=n_changed,
        stage=stage,
        te_cost_before=base_cost,
        te_cost_after=cost,
        exact_seed_skipped=exact_seed_skipped,
    )
