import pytest

from igpfix.bgp_prefs import derive_med_preferences, preferences_from_pairs
from igpfix.netmodel import (
    Link,
    NetworkInstance,
    ValidationError,
    WaxmanParams,
    assign_random_weights,
    generate_waxman,
)
from igpfix.paths import path_weight
from igpfix.repair import (
    InfeasibleRepairError,
    RepairConfig,
    _verify_rows,
    build_system,
    export_lp,
    h_cost,
    round_to_feasible,
    solution_lambdas,
    solve_min_change,
    solve_relaxed,
    verify_solution,
)
from igpfix.scenarios import inject_med_conflicts, random_pref_paths, two_prefix_med

from oracles import brute_force_min_change, mandates_feasible, min_change_key, random_small_instance


def _line4():
    links = (
        Link("r", "a", 4, 1.0),
        Link("r", "b", 2, 1.0),
        Link("r", "s", 3, 1.0),
        Link("s", "c", 1, 1.0),
    )
    return NetworkInstance(("a", "b", "c", "r", "s"), links, 6)


def _prefs():
    # r must prefer its a-egress over both the b-egress and the path via s
    return preferences_from_pairs(
        {"p": {(("r", "a"), ("r", "b")), (("r", "a"), ("r", "s", "c"))}}
    )


def test_build_system_shape():
    sys = build_system(_line4(), _prefs())
    assert set(sys.links) == {("a", "r"), ("b", "r"), ("r", "s"), ("c", "s")}
    assert len(sys.eps_paths) == 3  # (a,), (b,), (c,)
    tied = [r for r in sys.pref_rows if r.tied_link is not None]
    assert not tied  # no pair here is a one-link extension of the other
    assert sys.constraint_count() == len(sys.suffix_rows) + 2 + 3


def test_build_system_rejects_missing_link():
    prefs = preferences_from_pairs({"p": {(("r", "c"), ("r", "b"))}})
    with pytest.raises(ValidationError, match="missing link"):
        build_system(_line4(), prefs)


def test_tied_pair_forces_link_minimum():
    # worse = one-link extension of pref: the extension link itself must be
    # >= 1; such pairs have distinct sources, so they bypass the same-router
    # CSV/derivation path and are built directly
    from igpfix.bgp_prefs import MandatedPreferences, close_suffixes

    prefs = close_suffixes(MandatedPreferences(
        {"p": frozenset({(("r", "a"), ("s", "r", "a"))})},
        {"p": frozenset({"a"})},
    ))
    sys = build_system(_line4(), prefs)
    assert [r.tied_link for r in sys.pref_rows] == [("r", "s")]
    sol = solve_min_change(sys, {k: 0 for k in sys.links}, RepairConfig())
    assert sol.weights[("r", "s")] >= 1


def test_h_cost_semantics():
    cfg = RepairConfig(epsilon=3, big_m=100)
    assert h_cost(0, cfg) == 0
    assert h_cost(2, cfg) == 4 == h_cost(-2, cfg)
    assert h_cost(3, cfg) == 100 == h_cost(-7, cfg)


def test_solve_min_change_already_feasible_is_free():
    inst = _line4()
    sys = build_system(inst, _prefs())
    w = {("a", "r"): 1, ("b", "r"): 2, ("r", "s"): 3, ("c", "s"): 1}
    sol = solve_min_change(sys, w, RepairConfig())
    assert sol.objective == 0.0 and sol.n_changed == 0
    assert verify_solution(inst, _prefs(), sol.weights).ok


def test_solve_min_change_matches_bruteforce_here():
    inst = _line4()
    prefs = _prefs()
    sys = build_system(inst, prefs)
    w = inst.initial_weights()  # a-r=4 is too heavy: a repair is needed
    cfg = RepairConfig()
    sol = solve_min_change(sys, w, cfg)
    assert verify_solution(inst, prefs, sol.weights).ok
    assert sol.objective == brute_force_min_change(sys, prefs, w, cfg)


def test_solve_min_change_tie_break_is_deterministic():
    inst = _line4()
    sys = build_system(inst, _prefs())
    w = inst.initial_weights()
    s1 = solve_min_change(sys, w, RepairConfig())
    s2 = solve_min_change(sys, w, RepairConfig())
    assert s1.weights == s2.weights


@pytest.mark.parametrize(
    "cfg",
    [RepairConfig(), RepairConfig(epsilon=1, big_m=100), RepairConfig(epsilon=2, big_m=9),
     RepairConfig(epsilon=3, big_m=10)],
    ids=["quadratic", "count", "eps2", "eps3"],
)
def test_solve_min_change_matches_exhaustive_key(cfg):
    # the full key: cost, then fewest changed links, then the smallest
    # vector; with epsilon=1 every change costs the same, so ties are common,
    # and epsilon 2 and 3 step from quadratic costs to big_m inside w_max
    checked = 0
    for seed in range(400):
        inst = random_small_instance(seed, 4, 6, w_max=5)
        try:
            prefs = random_pref_paths(inst, n_paths=4, n_prefs=3, seed=seed, max_len=2,
                                      max_attempts=5)
            sys_ = build_system(inst, prefs)
        except ValidationError:
            continue
        if len(sys_.links) > 4:
            continue
        w0 = assign_random_weights(inst, seed=seed, low=0, high=5)
        if seed % 3 == 0:
            w0[sys_.links[0]] = None  # an unknown weight changes for free
        want = min_change_key(sys_, prefs, w0, cfg)
        try:
            sol = solve_min_change(sys_, w0, cfg)
            got = (sol.objective, sol.n_changed, tuple(sol.weights[k] for k in sys_.links))
        except InfeasibleRepairError:
            got = None
        assert got == want, f"seed {seed}"
        checked += 1
        if checked == 50:
            break
    assert checked == 50


def test_tie_cut_bounds_a_domain_one_epsilon_below_by_its_low_end():
    # s must prefer s-b over s-b-c over s-a; every link starts at 4. Two
    # changes are needed, and the least vector over (a-s, b-c, b-s) is
    # (4, 1, 0). After s-b = 0 and s-a = 4, b-c's domain is [1, 3], exactly
    # epsilon below its initial weight: every value there costs big_m, so a
    # leaf that ties on cost may take 1. Bounding b-c by the nearer end 3
    # instead would cut that subtree once (4, 1, 1) is the incumbent.
    inst = NetworkInstance(
        ("a", "b", "c", "s"),
        (Link("s", "a", 4, 1.0), Link("b", "c", 4, 1.0), Link("s", "b", 4, 1.0)),
        5,
    )
    prefs = preferences_from_pairs({"p": {
        (("s", "b"), ("s", "b", "c")), (("s", "b", "c"), ("s", "a")), (("s", "b"), ("s", "a")),
    }})
    sys_ = build_system(inst, prefs)
    cfg = RepairConfig(epsilon=1, big_m=100)
    want = min_change_key(sys_, prefs, inst.initial_weights(), cfg)
    assert want == (200.0, 2, (4, 1, 0))
    sol = solve_min_change(sys_, inst.initial_weights(), cfg)
    assert (sol.objective, sol.n_changed, tuple(sol.weights[k] for k in sys_.links)) == want


def test_changed_count_breaks_cost_ties():
    # the cheapest assignments cost 13; one changes 4 links, another 5
    inst = random_small_instance(359, 4, 7, w_max=4)
    prefs = random_pref_paths(inst, n_paths=5, n_prefs=4, seed=359, max_len=3, max_attempts=5)
    sys_ = build_system(inst, prefs)
    w0 = assign_random_weights(inst, seed=359, low=0, high=4)
    want = min_change_key(sys_, prefs, w0, RepairConfig())
    sol = solve_min_change(sys_, w0, RepairConfig())
    assert want[:2] == (13.0, 4)
    assert (sol.objective, sol.n_changed, tuple(sol.weights[k] for k in sys_.links)) == want


def _census(seed):
    inst, routes = two_prefix_med()
    inst = inst.with_weights(assign_random_weights(inst, seed=seed, low=1, high=16))
    return inst, derive_med_preferences(inst, routes, hop_bound=2)


def test_realized_record_is_verify_solution():
    cases = [(_line4(), _prefs())] + [_census(seed) for seed in range(1000, 1012)]
    for inst, prefs in cases:
        sys = build_system(inst, prefs)
        for cfg in (RepairConfig(), RepairConfig(epsilon=1, big_m=100, min_weight=1)):
            sol = solve_min_change(sys, inst.initial_weights(), cfg)
            assert sol.realized == verify_solution(inst, prefs, sol.weights)
    # and on weights that break both the mandates and suffix monotonicity
    inst, prefs = _line4(), _prefs()
    bad = {("a", "r"): 5, ("b", "r"): 1, ("r", "s"): 1, ("c", "s"): 1}
    assert _verify_rows(build_system(inst, prefs), bad) == verify_solution(inst, prefs, bad)


def test_census_repairs_match_exhaustive_key_with_fewer_nodes():
    # the census vectors among seeds 1000-1027 whose weights need a repair,
    # under the change count; cutting only on a strict cost excess took
    # 1194 propagations over them, the tie cut takes 102
    cfg = RepairConfig(epsilon=1, big_m=100, min_weight=1)
    nodes = 0
    for seed in (1001, 1007, 1014, 1015, 1016, 1018, 1019, 1021, 1022, 1024, 1026, 1027):
        inst, prefs = _census(seed)
        sys_ = build_system(inst, prefs)
        w0 = inst.initial_weights()
        sol = solve_min_change(sys_, w0, cfg)
        got = (sol.objective, sol.n_changed, tuple(sol.weights[k] for k in sys_.links))
        assert got == min_change_key(sys_, prefs, w0, cfg), f"seed {seed}"
        assert sol.objective > 0
        nodes += sol.nodes
    assert nodes < 1194


def test_node_count_repeats():
    inst, prefs = _census(1001)
    sys = build_system(inst, prefs)
    cfg = RepairConfig(epsilon=1, big_m=100, min_weight=1)
    runs = [solve_min_change(sys, inst.initial_weights(), cfg) for _ in range(2)]
    assert runs[0].nodes == runs[1].nodes > 0


def test_change_count_objective_via_epsilon_one():
    inst = _line4()
    sys = build_system(inst, _prefs())
    # epsilon=1 makes every change cost exactly big_m: objective counts changes
    sol = solve_min_change(sys, inst.initial_weights(), RepairConfig(epsilon=1, big_m=100))
    assert sol.objective == 100 * sol.n_changed


def test_infeasible_conflict_reported():
    prefs = preferences_from_pairs(
        {"p": {(("r", "a"), ("r", "b")), (("s", "r", "b"), ("s", "r", "a"))}}
    )
    sys = build_system(_line4(), prefs)
    with pytest.raises(InfeasibleRepairError) as ei:
        solve_min_change(sys, {k: None for k in sys.links})
    assert ei.value.conflict  # names a subset of clashing constraints


def test_min_weight_floor_respected():
    inst = _line4()
    sys = build_system(inst, _prefs())
    sol = solve_min_change(sys, {k: None for k in inst.link_keys()},
                           RepairConfig(min_weight=1))
    assert min(sol.weights.values()) >= 1


def test_budget_exhaustion_flagged():
    inst = _line4()
    sys = build_system(inst, _prefs())
    with pytest.raises(InfeasibleRepairError, match="budget"):
        solve_min_change(sys, inst.initial_weights(), RepairConfig(time_budget=0.0))


def test_budget_exhausted_without_incumbent_asks_the_relaxation():
    # the root Bellman-Ford passes these infeasible mandates and the search
    # cannot refute them within its budget; the LP relaxation does
    inst = generate_waxman(WaxmanParams(n=20, seed=8), w_max=16)
    inst = inst.with_weights(assign_random_weights(inst, seed=8))
    prefs = derive_med_preferences(inst, inject_med_conflicts(inst, 3, seed=8), hop_bound=2)
    sys = build_system(inst, prefs)
    with pytest.raises(InfeasibleRepairError, match="no integer assignment"):
        solve_min_change(sys, inst.initial_weights(), RepairConfig(min_weight=0, time_budget=1.0))


def test_solution_lambdas_satisfy_rows():
    inst = _line4()
    prefs = _prefs()
    sys = build_system(inst, prefs)
    sol = solve_min_change(sys, inst.initial_weights())
    lam = solution_lambdas(sys, sol.weights)
    for r in sys.suffix_rows:
        assert lam[r.p] - lam[r.q] == sol.weights[r.link]
    for r in sys.pref_rows:
        assert 1 <= lam[r.worse] - lam[r.pref] <= sys.w_max
    for p in sys.eps_paths:
        assert lam[p] == 0


def test_relaxed_then_rounded_is_feasible():
    inst = _line4()
    prefs = _prefs()
    sys = build_system(inst, prefs)
    w = inst.initial_weights()
    frac = solve_relaxed(sys, w, min_weight=1)
    assert frac is not None
    rounded = round_to_feasible(sys, frac, w, min_weight=1)
    assert rounded is not None
    assert verify_solution(inst, prefs, rounded).ok
    assert mandates_feasible(prefs, rounded, sys.w_max)


def test_relaxed_reports_infeasibility():
    prefs = preferences_from_pairs(
        {"p": {(("r", "a"), ("r", "b")), (("s", "r", "b"), ("s", "r", "a"))}}
    )
    sys = build_system(_line4(), prefs)
    assert solve_relaxed(sys, {k: None for k in sys.links}) is None


def test_verify_solution_catches_violation():
    inst = _line4()
    prefs = _prefs()
    bad = {("a", "r"): 5, ("b", "r"): 1, ("r", "s"): 1, ("c", "s"): 1}
    rec = verify_solution(inst, prefs, bad)
    assert not rec.ok and rec.violations
    pfx, p, q, wp, wq = rec.violations[0]
    assert path_weight(p, bad) == wp and path_weight(q, bad) == wq


def test_export_lp_contains_all_parts():
    sys = build_system(_line4(), _prefs())
    text = export_lp(sys, _line4().initial_weights())
    assert text.startswith("Minimize")
    for section in ("Subject To", "Bounds", "General", "End"):
        assert section in text
    assert "w_a_r" in text and "lam_r_a" in text
