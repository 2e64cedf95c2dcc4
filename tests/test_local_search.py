import pytest

import json

from igpfix.bgp_prefs import MandatedPreferences, derive_med_preferences
from igpfix.local_search import (
    SearchConfig,
    _mandates_hold,
    ecmp_cost,
    generate_starts,
    parallel_search,
    search,
)
from igpfix.netmodel import (
    DemandMatrix,
    Link,
    NetworkInstance,
    ValidationError,
    assign_random_weights,
    random_demands,
)
from igpfix.paths import WeightError
from igpfix.repair import RepairConfig, VerificationRecord, verify_solution
from igpfix.scenarios import random_pref_paths, two_prefix_med
from igpfix.te import JointConfig, cost_model_for

from oracles import enum_equal_split_loads, phi_py, random_small_instance, search_py


def _square():
    links = (
        Link("a", "b", 1, 100.0),
        Link("b", "d", 1, 100.0),
        Link("a", "c", 1, 100.0),
        Link("c", "d", 1, 100.0),
    )
    return NetworkInstance(("a", "b", "c", "d"), links, 10)


def _setup(seed=1001):
    inst, routes = two_prefix_med()
    inst = inst.with_weights(assign_random_weights(inst, seed=seed, low=1, high=16))
    prefs = derive_med_preferences(inst, routes, hop_bound=2)
    return inst, random_demands(inst, pairs=8, seed=3), prefs


def test_ecmp_cost_matches_enumeration_oracle():
    inst = _square()
    w = {k: 1 for k in inst.link_keys()}
    dm = DemandMatrix({("a", "d"): 8.0, ("b", "d"): 2.0})
    model = cost_model_for(inst)
    loads = enum_equal_split_loads(inst, w, "d", {"a": 8.0, "b": 2.0})
    want = sum(phi_py(model, x, 100.0) for x in loads.values())
    assert ecmp_cost(inst, dm, w, model) == pytest.approx(want, rel=1e-12)


def test_ecmp_cost_rejects_bad_inputs():
    inst = _square()
    w = {k: 1 for k in inst.link_keys()}
    w[("a", "b")] = 0
    with pytest.raises(WeightError):
        ecmp_cost(inst, DemandMatrix({("a", "d"): 1.0}), w)


def test_mandates_hold():
    _, _, prefs = _setup()
    good = {("A", "R"): 5, ("B", "R"): 1, ("C", "S"): 1, ("R", "S"): 1,
            ("R", "T"): 1, ("S", "T"): 1}
    bad = {**good, ("B", "R"): 9}
    assert _mandates_hold(prefs, good)
    assert not _mandates_hold(prefs, bad)


def test_search_rejects_infeasible_start():
    inst, dm, prefs = _setup()
    start = {k: 8 for k in inst.link_keys()}
    start[("A", "R")] = 1  # A-paths lighter: violates the B-over-A mandate
    with pytest.raises(ValidationError, match="start violates"):
        search(inst, dm, prefs, start, SearchConfig(seed=0))


def test_search_monotone_and_feasible():
    inst, dm, prefs = _setup()
    start = {k: 8 for k in inst.link_keys()}
    start[("B", "R")] = 1
    costs = []
    sol = search(
        inst, dm, prefs, start, SearchConfig(gamma=0.0, max_iters=10, seed=0),
        progress=lambda line: costs.append(json.loads(line)["cost"]),
    )
    assert verify_solution(inst, prefs, sol.weights).ok
    assert all(c2 <= c1 + 1e-9 for c1, c2 in zip(costs, costs[1:]))
    assert sol.stage == "local-search"


def test_search_early_terminates_within_gamma():
    inst, dm, prefs = _setup()
    start = {k: 8 for k in inst.link_keys()}
    start[("B", "R")] = 1
    sol = search(inst, dm, prefs, start, SearchConfig(gamma=1e6, max_iters=50, seed=0))
    assert sol.early_terminated and sol.iterations == 0


def test_parallel_search_modes_agree_on_feasibility():
    inst, dm, prefs = _setup()
    s1 = {k: 8 for k in inst.link_keys()}
    s1[("B", "R")] = 1
    s2 = {**s1, ("C", "S"): 3}
    cfg = SearchConfig(gamma=10.0, max_iters=20, seed=0)
    best = parallel_search(inst, dm, prefs, [s1, s2], cfg, mode="best-of")
    first = parallel_search(inst, dm, prefs, [s1, s2], cfg, mode="first-wins")
    assert verify_solution(inst, prefs, best.weights).ok
    assert verify_solution(inst, prefs, first.weights).ok
    # best-of is deterministic per seed
    again = parallel_search(inst, dm, prefs, [s1, s2], cfg, mode="best-of")
    assert again.weights == best.weights
    with pytest.raises(ValidationError):
        parallel_search(inst, dm, prefs, [s1], cfg, mode="banana")


def test_generate_starts_distinct_feasible():
    inst, dm, prefs = _setup()
    starts = generate_starts(inst, dm, prefs, inst.initial_weights(), 3,
                             RepairConfig(min_weight=1), JointConfig(gamma=10.0))
    assert 1 <= len(starts) <= 3
    keys = {tuple(sorted(s.items())) for s in starts}
    assert len(keys) == len(starts)
    for s in starts:
        assert verify_solution(inst, prefs, s).ok
        assert min(s.values()) >= 1


def test_generate_starts_admits_extra():
    inst, dm, prefs = _setup()
    extra = {k: 8 for k in inst.link_keys()}
    extra[("B", "R")] = 1
    starts = generate_starts(inst, dm, prefs, inst.initial_weights(), 5,
                             RepairConfig(min_weight=1), JointConfig(gamma=10.0),
                             extra=[extra])
    assert any(s == extra for s in starts)


def test_search_raises_when_incumbent_fails_verification(monkeypatch):
    import igpfix.local_search as ls

    inst, dm, prefs = _setup()
    start = {k: 8 for k in inst.link_keys()}
    start[("B", "R")] = 1
    monkeypatch.setattr(
        ls, "verify_solution", lambda *a, **k: VerificationRecord(False, (), False)
    )
    with pytest.raises(RuntimeError, match="drifted infeasible"):
        search(inst, dm, prefs, start, SearchConfig(gamma=0.0, max_iters=1, seed=0))


def _oracle_cases():
    """Census instances, whose mandates filter moves, and tie-heavy random
    graphs with no mandates, whose demand is scaled up into the steep part
    of the cost curve, where moves differ in cost."""
    for seed in (1001, 1002):
        inst, dm, prefs = _setup(seed)
        start = {k: 8 for k in inst.link_keys()}
        start[("B", "R")] = 1
        yield inst, dm, prefs, start, seed
    for seed in range(8):
        inst = random_small_instance(seed, n_lo=8, n_hi=10, w_max=4)
        start = assign_random_weights(inst, seed=seed, low=1, high=4)
        dm = random_demands(inst, pairs=12, seed=seed)
        dm = DemandMatrix({k: 4 * v for k, v in dm.entries.items()})
        yield inst, dm, MandatedPreferences({}, {}), start, seed


def test_search_follows_per_move_oracle():
    """search's incumbent and cost after every iteration, and its iteration
    count, equal those of a loop that scores each neighbour from scratch
    with the pure-Python oracle. search is deterministic per seed, so
    max_iters=i gives its incumbent after i iterations."""
    improved = 0
    for inst, dm, prefs, start, seed in _oracle_cases():
        model = cost_model_for(inst)
        base = 0.0  # out of reach: every iteration runs
        cfg = SearchConfig(gamma=0.0, max_iters=8, frac_start=0.3, stagnation=2, seed=seed)
        trail = search_py(inst, dm, prefs, start, cfg, model, base)
        lines = []
        sol = search(inst, dm, prefs, start, cfg, w_initial=start, baseline_cost=base,
                     model=model, progress=lambda line: lines.append(json.loads(line)))
        assert sol.iterations == len(trail) - 1 == cfg.max_iters
        assert [ln["cost"] for ln in lines] == [c for _, c in trail[1:]]
        assert (sol.weights, sol.objective) == trail[-1]
        for i in range(1, cfg.max_iters):
            cut = SearchConfig(gamma=0.0, max_iters=i, frac_start=0.3, stagnation=2, seed=seed)
            part = search(inst, dm, prefs, start, cut, w_initial=start, baseline_cost=base,
                          model=model)
            assert (part.weights, part.objective) == trail[i], (seed, i)
        improved += sum(ln["action"] == "improve" for ln in lines)
    assert improved >= 15


def test_search_reports_work_and_stop_reason():
    inst, dm, prefs = _setup()
    start = {k: 8 for k in inst.link_keys()}
    start[("B", "R")] = 1
    lines = []
    sol = search(inst, dm, prefs, start, SearchConfig(gamma=0.0, max_iters=5, seed=0),
                 baseline_cost=0.0, progress=lambda line: lines.append(json.loads(line)))
    assert sol.stop_reason == "max_iters" and sol.iterations == 5
    assert sol.neighbours_scored == sum(ln["feasible_neighbors"] for ln in lines) > 0
    dests = len(dm.destinations())
    assert 0 < sol.destinations_recomputed <= sol.neighbours_scored * dests
    assert (lines[-1]["neighbours_scored"], lines[-1]["destinations_recomputed"]) == (
        sol.neighbours_scored, sol.destinations_recomputed)

    done = search(inst, dm, prefs, start, SearchConfig(gamma=1e6, seed=0))
    assert (done.stop_reason, done.neighbours_scored, done.destinations_recomputed) == (
        "threshold", 0, 0)


def test_parallel_search_computes_the_baseline_once(monkeypatch):
    import igpfix.local_search as ls

    inst, dm, prefs = _setup()
    s1 = {k: 8 for k in inst.link_keys()}
    s1[("B", "R")] = 1
    s2 = {**s1, ("C", "S"): 3}
    cfg = SearchConfig(gamma=0.0, max_iters=3, seed=0)
    alone = search(inst, dm, prefs, s1, cfg)
    seen = []
    real = ls.search
    monkeypatch.setattr(ls, "search", lambda *a, **k: seen.append(k["baseline_cost"]) or real(*a, **k))
    best = parallel_search(inst, dm, prefs, [s1, s2], cfg, mode="best-of")
    assert seen == [alone.te_cost_before] * 2
    assert best.te_cost_before == alone.te_cost_before


def _fw_case(seed):
    """A tie-heavy random graph, four random starts and no mandates."""
    inst = random_small_instance(seed, n_lo=8, n_hi=10, w_max=6)
    dm = random_demands(inst, pairs=12, seed=seed)
    dm = DemandMatrix({k: 4 * v for k, v in dm.entries.items()})
    starts = [assign_random_weights(inst, seed=100 * seed + j, low=1, high=6) for j in range(4)]
    return inst, dm, MandatedPreferences({}, {}), starts


def test_first_wins_matches_every_start_run_to_the_end():
    """first-wins returns the search that reaches the threshold in the fewest
    iterations, the lower start index breaking ties, as found by running
    every start uncapped; with no such search, the least-cost result. Two
    runs give the same weights."""
    contested = fallback = 0
    for seed in (0, 1, 2):
        inst, dm, prefs, starts = _fw_case(seed)
        lowest = min(ecmp_cost(inst, dm, s) for s in starts)
        for q in (0.6, 0.75, 0.9):
            base = q * lowest
            full = [
                search(inst, dm, prefs, s,
                       SearchConfig(gamma=0.0, max_iters=25, frac_start=0.2, seed=seed + i),
                       w_initial=starts[0], baseline_cost=base)
                for i, s in enumerate(starts)
            ]
            hits = sorted((r.iterations, i) for i, r in enumerate(full) if r.early_terminated)
            if hits:
                want = full[hits[0][1]]
            else:
                want = min(full, key=lambda r: (r.objective, tuple(sorted(r.weights.items()))))
            cfg = SearchConfig(gamma=0.0, max_iters=25, frac_start=0.2, seed=seed)
            runs = [parallel_search(inst, dm, prefs, starts, cfg, mode="first-wins",
                                    w_initial=starts[0], baseline_cost=base) for _ in range(2)]
            assert runs[0].weights == runs[1].weights == want.weights, (seed, q)
            assert (runs[0].iterations, runs[0].objective, runs[0].early_terminated) == (
                want.iterations, want.objective, want.early_terminated)
            contested += len(hits) >= 2 and hits[0][1] > 0
            fallback += not hits
    assert contested >= 2 and fallback >= 1


def test_mandate_filter_keeps_exactly_the_moves_mandates_hold_keeps(monkeypatch):
    """Over every sampled move that search tests against the mandates, the
    integer gap product keeps a move iff _mandates_hold keeps the weights it
    leads to; the weights it tests from are the incumbent's."""
    import igpfix.local_search as ls

    calls = []
    keeps, route = ls._keeps_mandates, ls.route_moves

    def keeps_spy(inc, gaps, w, cols, vals):
        keep = keeps(inc, gaps, w, cols, vals)
        calls.append(["filter", w.tolist(), cols.tolist(), vals.tolist(), keep.tolist()])
        return keep

    def route_spy(base, links, weights):
        ga = base.ga
        calls.append(["route", dict(zip(ga.links, base.arc_weight[ga.link_arcs[:, 0]].tolist()))])
        return route(base, links, weights)

    monkeypatch.setattr(ls, "_keeps_mandates", keeps_spy)
    monkeypatch.setattr(ls, "route_moves", route_spy)
    kept = dropped = 0
    for seed in range(4):
        inst = random_small_instance(seed, n_lo=9, n_hi=11, w_max=8)
        inst = inst.with_weights(assign_random_weights(inst, seed=seed))
        prefs = random_pref_paths(inst, n_paths=14, seed=seed)
        dm = random_demands(inst, pairs=12, seed=seed)
        start = generate_starts(inst, dm, prefs, inst.initial_weights(), 1,
                                RepairConfig(min_weight=1), JointConfig(exact_budget=0.0))[0]
        calls.clear()
        search(inst, dm, prefs, start,
               SearchConfig(gamma=0.0, max_iters=6, frac_start=0.5, seed=seed),
               baseline_cost=0.0)
        links = sorted(start)
        assert len(calls) == 12
        for (_, w, cols, vals, keep), (_, routed) in zip(calls[::2], calls[1::2]):
            cur = dict(zip(links, w))
            assert cur == routed
            for c, v, k in zip(cols, vals, keep):
                assert k == _mandates_hold(prefs, {**cur, links[c]: v}), (seed, links[c], v)
                kept += k
                dropped += not k
    assert kept > 50 and dropped > 50
