import numpy as np
import pytest

from igpfix.bgp_prefs import derive_med_preferences
from igpfix.local_search import ecmp_cost
from igpfix.netmodel import (
    DemandMatrix,
    Link,
    NetworkInstance,
    ValidationError,
    WaxmanParams,
    assign_random_weights,
    generate_waxman,
    random_demands,
)
from igpfix.paths import WeightError
from igpfix.repair import (
    InfeasibleRepairError,
    RepairConfig,
    build_system,
    solve_min_change,
    solve_relaxed,
)
from igpfix.scenarios import inject_med_conflicts
from igpfix.te import (
    JointConfig,
    TECostModel,
    cost_model_for,
    joint_objective,
    load_cost_table,
    solve_flow,
    solve_joint_unequal,
    te_cost,
)

from oracles import all_pairs_distances, phi_py


def _square():
    links = (
        Link("a", "b", 1, 100.0),
        Link("b", "d", 1, 100.0),
        Link("a", "c", 1, 100.0),
        Link("c", "d", 1, 100.0),
    )
    return NetworkInstance(("a", "b", "c", "d"), links, 10)


def _phi(m, load, capacity):
    return float(m.phi_array(np.array(load), np.array(capacity)))


def test_phi_piecewise_values():
    m = TECostModel({("a", "b"): 3.0})
    # below the first breakpoint the slope is 1
    assert _phi(m, 0.5, 3.0) == pytest.approx(0.5)
    assert _phi(m, 0.0, 3.0) == 0.0
    # 1.5 = cap * 1/2: one unit at slope 1, then 0.5 at slope 3
    assert _phi(m, 1.5, 3.0) == pytest.approx(1.0 + 3 * 0.5)
    # overload region uses the terminal slope 5000
    assert _phi(m, 3.5, 3.0) > 5000 * 0.19


def test_phi_is_convex_increasing():
    m = TECostModel({("a", "b"): 10.0})
    xs = [i * 0.5 for i in range(30)]
    ys = m.phi_array(np.array(xs), np.array(10.0)).tolist()
    slopes = [ys[i + 1] - ys[i] for i in range(len(ys) - 1)]
    assert all(s2 >= s1 - 1e-12 for s1, s2 in zip(slopes, slopes[1:]))


def test_phi_slope_matches_phi():
    m = TECostModel({("a", "b"): 10.0})
    for load in (1.0, 5.0, 8.5, 9.5, 10.5, 12.0):
        num = (_phi(m, load + 1e-6, 10.0) - _phi(m, load, 10.0)) / 1e-6
        assert m.phi_slope(load, 10.0) == pytest.approx(num, rel=1e-4)


def test_cost_model_rejects_nonconvex_table():
    with pytest.raises(ValidationError):
        TECostModel({}, breakpoints=(0.5,), slopes=(3.0, 1.0))
    with pytest.raises(ValidationError):
        TECostModel({}, breakpoints=(0.5,), slopes=(1.0,))


def test_load_cost_table(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("breakpoint,slope\n0.5,1\n1.0,10\n,100\n")
    bps, slopes = load_cost_table(str(p))
    assert bps == (0.5, 1.0) and slopes == (1.0, 10.0, 100.0)
    TECostModel({}, breakpoints=bps, slopes=slopes)  # consumable


def test_solve_flow_equal_split_on_tie():
    inst = _square()
    dm = DemandMatrix({("a", "d"): 8.0})
    flow = solve_flow(inst, dm, {k: 1 for k in inst.link_keys()})
    assert flow.loads[("a", "b")] == pytest.approx(4.0)
    assert flow.loads[("a", "c")] == pytest.approx(4.0)
    assert flow.objective == pytest.approx(16.0)  # 8 units over distance 2


def test_solve_flow_objective_matches_distance_and_lp():
    inst = _square()
    w = {("a", "b"): 1, ("b", "d"): 4, ("a", "c"): 2, ("c", "d"): 1}
    dm = DemandMatrix({("a", "d"): 5.0, ("b", "d"): 2.0})
    flow = solve_flow(inst, dm, w, with_lp=True)
    dist = all_pairs_distances(inst, w)
    want = 5.0 * dist["a"]["d"] + 2.0 * dist["b"]["d"]
    assert flow.objective == pytest.approx(want, rel=1e-12)
    assert flow.lp_objective == pytest.approx(want, rel=1e-9)


def test_solve_flow_custom_split():
    inst = _square()
    dm = DemandMatrix({("a", "d"): 9.0})
    flow = solve_flow(
        inst, dm, {k: 1 for k in inst.link_keys()}, split={"a": {"b": 2 / 3, "c": 1 / 3}}
    )
    assert flow.loads[("a", "b")] == pytest.approx(6.0)
    assert flow.loads[("a", "c")] == pytest.approx(3.0)
    # unequal split over equal-length paths keeps the w^T x optimum
    assert flow.objective == pytest.approx(18.0)


def test_solve_flow_rejects_zero_weight():
    inst = _square()
    w = {k: 1 for k in inst.link_keys()}
    w[("a", "b")] = 0
    with pytest.raises(WeightError):
        solve_flow(inst, DemandMatrix({("a", "d"): 1.0}), w)


def test_te_cost_sums_phi():
    inst = _square()
    model = cost_model_for(inst)
    dm = DemandMatrix({("a", "d"): 8.0})
    flow = solve_flow(inst, dm, {k: 1 for k in inst.link_keys()})
    assert te_cost(flow, model) == pytest.approx(4 * phi_py(model, 4.0, 100.0))


def _joint_setup(seed=1001):
    from igpfix.netmodel import random_demands
    from igpfix.scenarios import two_prefix_med

    inst, routes = two_prefix_med()
    inst = inst.with_weights(assign_random_weights(inst, seed=seed, low=1, high=16))
    prefs = derive_med_preferences(inst, routes, hop_bound=2)
    return inst, random_demands(inst, pairs=8, seed=3), prefs


def _assert_costs_are_ecmp_costs(inst, dm, w_initial, sol):
    """The joint solve prices with the one TE cost evaluator: its costs
    equal ecmp_cost bit for bit, unknown initial weights read as 1."""
    base_w = {k: 1 if v is None else v for k, v in w_initial.items()}
    assert sol.te_cost_before == ecmp_cost(inst, dm, base_w)
    assert sol.te_cost_after == ecmp_cost(inst, dm, sol.weights)


def test_joint_solution_verifies_and_reports_costs():
    inst, dm, prefs = _joint_setup()
    sol = solve_joint_unequal(inst, dm, prefs, inst.initial_weights(),
                              RepairConfig(min_weight=1), JointConfig(gamma=10.0))
    assert sol.realized.ok
    _assert_costs_are_ecmp_costs(inst, dm, inst.initial_weights(), sol)
    assert min(sol.weights.values()) >= 1


def test_huge_gamma_reduces_to_min_change():
    inst, dm, prefs = _joint_setup()
    cfg = RepairConfig(min_weight=1)
    exact = solve_min_change(build_system(inst, prefs), inst.initial_weights(), cfg)
    sol = solve_joint_unequal(inst, dm, prefs, inst.initial_weights(), cfg,
                              JointConfig(gamma=1e9))
    # within an unbounded tolerance the TE penalty vanishes, so the joint
    # objective of the winner cannot exceed the pure change optimum
    assert sol.objective <= exact.objective + 1e-9


def test_joint_objective_penalizes_only_excess():
    inst, dm, prefs = _joint_setup()
    model = cost_model_for(inst)
    w = {k: v for k, v in inst.initial_weights().items()}
    cfg, jcfg = RepairConfig(min_weight=1), JointConfig(gamma=0.0)
    base = te_cost(solve_flow(inst, dm, w), model)
    # no change, cost below threshold
    assert joint_objective(base * 2, inst.initial_weights(), w, base,
                           cfg, jcfg, inst.w_max, len(w)) == 0.0
    # no change, cost above threshold: only the excess, scaled by m_prime
    assert joint_objective(base / 2, inst.initial_weights(), w, base, cfg,
                           JointConfig(m_prime=3.0), inst.w_max, len(w)) == 3.0 * (base - base / 2)


def test_joint_exclude_forces_alternative():
    inst, dm, prefs = _joint_setup()
    cfg, jcfg = RepairConfig(min_weight=1), JointConfig(gamma=10.0)
    first = solve_joint_unequal(inst, dm, prefs, inst.initial_weights(), cfg, jcfg)
    second = solve_joint_unequal(inst, dm, prefs, inst.initial_weights(), cfg, jcfg,
                                 exclude=(first.weights,))
    assert second.weights != first.weights
    assert second.realized.ok
    _assert_costs_are_ecmp_costs(inst, dm, inst.initial_weights(), second)


def test_joint_exact_seed_propagates_unrelated_errors(monkeypatch):
    import igpfix.te as te

    def broken(*args, **kwargs):
        raise ZeroDivisionError("not an infeasibility")

    monkeypatch.setattr(te, "solve_min_change", broken)
    inst, dm, prefs = _joint_setup()
    with pytest.raises(ZeroDivisionError):
        solve_joint_unequal(inst, dm, prefs, inst.initial_weights(),
                            RepairConfig(min_weight=1), JointConfig(gamma=10.0, exact_budget=1.0))


def test_phi_array_is_bit_identical_to_phi():
    model = TECostModel({})
    caps = np.array([1.0, 3.0, 100.0, 7777.0])
    edges = [bp * c for bp in model.breakpoints for c in caps]
    rng = np.random.default_rng(0)
    loads = np.concatenate([[0.0, -1.0], edges, np.nextafter(edges, np.inf),
                            rng.uniform(0, 2 * caps.max(), 400)])
    got = model.phi_array(loads[:, None], caps)
    want = [[phi_py(model, float(x), float(c)) for c in caps] for x in loads]
    assert got.tolist() == want


def _found_instance():
    """Waxman n=30, 4 injected MED conflicts: infeasible mandates whose
    branch-and-bound search does not end within its budget; the LP
    relaxation refutes them."""
    base = generate_waxman(WaxmanParams(n=30, seed=0), w_max=100)
    w0 = assign_random_weights(base, seed=0)
    inst = base.with_weights(w0)
    prefs = derive_med_preferences(inst, inject_med_conflicts(inst, 4, seed=0))
    return inst, random_demands(inst, pairs=60, seed=0), prefs, w0


def test_joint_stops_at_once_when_the_relaxation_is_infeasible(monkeypatch):
    import igpfix.te as te

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_min_change called on LP-infeasible mandates")

    inst, dm, prefs, w0 = _found_instance()
    sys_ = build_system(inst, prefs)
    assert solve_relaxed(sys_, w0, min_weight=1) is None
    with pytest.raises(InfeasibleRepairError, match="no integer assignment"):
        solve_min_change(sys_, w0, RepairConfig(min_weight=1, time_budget=0.5))
    monkeypatch.setattr(te, "solve_min_change", forbidden)
    with pytest.raises(InfeasibleRepairError, match="LP relaxation"):
        solve_joint_unequal(inst, dm, prefs, w0, RepairConfig(min_weight=1),
                            JointConfig(exact_budget=0.0))


def test_joint_keeps_the_fallback_when_its_w_max_exceeds_the_lp(monkeypatch):
    """A fallback allowed weights above sys.w_max has integer points the LP
    lacks, so an infeasible LP proves nothing and the fallback runs."""
    import igpfix.te as te

    inst, dm, prefs, w0 = _found_instance()
    calls = []

    def fallback(*args, **kwargs):
        calls.append(args)
        raise InfeasibleRepairError("fallback ran")

    monkeypatch.setattr(te, "solve_min_change", fallback)
    with pytest.raises(InfeasibleRepairError, match="fallback ran"):
        solve_joint_unequal(inst, dm, prefs, w0, RepairConfig(min_weight=1, w_max=200),
                            JointConfig(exact_budget=0.0))
    assert len(calls) == 1


def test_joint_routes_each_weight_vector_once(monkeypatch):
    """The base flow, the push loop and candidate scoring share one routing
    per distinct weight vector, and the result is unchanged: the expected
    values are those of the solver that routed every candidate again."""
    import igpfix.te as te

    seen = []
    real = te.route_demands

    def spy(inst, demands, w, split=None):
        seen.append(tuple(sorted(w.items())))
        return real(inst, demands, w, split)

    monkeypatch.setattr(te, "route_demands", spy)
    inst, dm, prefs = _joint_setup()
    cases = [
        (JointConfig(gamma=10.0, exact_budget=1.0), "exact", 18.0, 2,
         {("A", "R"): 5, ("B", "R"): 4, ("C", "S"): 3, ("R", "S"): 13, ("R", "T"): 6,
          ("S", "T"): 14}),
        (JointConfig(gamma=0.0, exact_budget=0.0), "relaxed+rounded", 36.0, 1,
         {("A", "R"): 2, ("B", "R"): 1, ("C", "S"): 3, ("R", "S"): 13, ("R", "T"): 6,
          ("S", "T"): 14}),
    ]
    for jcfg, stage, objective, n_changed, weights in cases:
        seen.clear()
        sol = solve_joint_unequal(inst, dm, prefs, inst.initial_weights(),
                                  RepairConfig(min_weight=1), jcfg)
        assert len(seen) == len(set(seen)) >= 3
        assert (sol.stage, sol.objective, sol.n_changed, sol.weights) == (
            stage, objective, n_changed, weights)
        assert sol.te_cost_before == sol.te_cost_after == 15878.848472052257
        assert sol.exact_seed_skipped is None
        _assert_costs_are_ecmp_costs(inst, dm, inst.initial_weights(), sol)


def test_joint_records_a_skipped_exact_seed(monkeypatch):
    import igpfix.te as te

    def infeasible(*args, **kwargs):
        raise InfeasibleRepairError("no integer assignment within the seed's budget")

    monkeypatch.setattr(te, "solve_min_change", infeasible)
    inst, dm, prefs = _joint_setup()
    sol = solve_joint_unequal(inst, dm, prefs, inst.initial_weights(),
                              RepairConfig(min_weight=1), JointConfig(gamma=0.0, exact_budget=1.0))
    assert sol.exact_seed_skipped == "no integer assignment within the seed's budget"
    assert sol.stage == "relaxed+rounded" and sol.realized.ok
