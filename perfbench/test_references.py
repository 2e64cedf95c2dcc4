"""Tests of the benchmark's references on hand-computed cases, and of each
check rejecting a corrupted output.

    python3 -m pytest perfbench/test_references.py
"""

from __future__ import annotations

import itertools
import random
import sys
from types import SimpleNamespace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import references as ref  # noqa: E402
import workloads  # noqa: E402
from igpfix.bgp_prefs import derive_med_preferences  # noqa: E402
from igpfix.local_search import ecmp_cost  # noqa: E402
from igpfix.netmodel import WaxmanParams, assign_random_weights, generate_waxman, random_demands  # noqa: E402
from igpfix.pspp import PathDigraph, from_total_orders, is_safe  # noqa: E402
from igpfix.repair import InfeasibleRepairError, RepairConfig, build_system, solve_min_change  # noqa: E402
from igpfix.scenarios import inject_med_conflicts  # noqa: E402
from igpfix.sim import Converged, Oscillating, Schedule, Undetermined, simulate  # noqa: E402

# --- mandates ------------------------------------------------------------------

TRIANGLE = {("a", "b"): 5, ("b", "c"): 1, ("a", "c"): 2}


def test_mandate_sums_path_weights():
    # a-b weighs 5, a-c-b weighs 3
    assert ref.mandate_violations([(("a", "c", "b"), ("a", "b"))], TRIANGLE, 16) == []
    assert len(ref.mandate_violations([(("a", "b"), ("a", "c", "b"))], TRIANGLE, 16)) == 1


def test_mandate_check_rejects_a_vector_breaking_one_mandate():
    pairs = [(("a", "c", "b"), ("a", "b")), (("c", "b"), ("c", "a"))]
    assert ref.mandate_violations(pairs, TRIANGLE, 16) == []
    broken = {**TRIANGLE, ("a", "b"): 3}  # a-b now ties a-c-b
    assert len(ref.mandate_violations(pairs, broken, 16)) == 1


def test_mandate_check_rejects_weights_out_of_range():
    assert ref.mandate_violations([], {("a", "b"): 0}, 16)
    assert ref.mandate_violations([], {("a", "b"): 17}, 16)


# --- ECMP TE cost --------------------------------------------------------------


def test_penalty_table_by_hand():
    cap = 300.0  # breakpoints at loads 100, 200, 270, 300, 330
    loads = [50.0, 240.0, 330.0, 340.0]
    want = [50.0, 100 + 300 + 40 * 10, 100 + 300 + 700 + 2100 + 15000, 18200 + 10 * 5000]
    assert ref.ft_penalty(ref.np.array(loads), ref.np.full(4, cap)).tolist() == want


def test_floyd_warshall_by_hand():
    d = ref.floyd_warshall(["a", "b", "c"], TRIANGLE)
    assert d.tolist() == [[0, 3, 2], [3, 0, 1], [2, 1, 0]]


def test_ecmp_cost_splits_equally_by_hand():
    # square a-b-c-d-a with unit weights: a->c splits over a-b-c and a-d-c
    w = {("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("a", "d"): 1}
    caps = {k: 300.0 for k in w}
    assert ref.ecmp_te_cost("abcd", w, caps, {("a", "c"): 120.0}) == 4 * 60.0
    # a heavier a-d sends everything over a-b-c: 240 on two arcs
    w[("a", "d")] = 2
    assert ref.ecmp_te_cost("abcd", w, caps, {("a", "c"): 240.0}) == 2 * 800.0


@pytest.mark.parametrize("seed", [1, 2])
def test_ecmp_cost_matches_the_package(seed):
    inst = generate_waxman(WaxmanParams(n=30, seed=seed), w_max=20)
    w = assign_random_weights(inst, seed=seed)
    dm = random_demands(inst, pairs=30, seed=seed)
    caps = {ln.key: ln.capacity for ln in inst.links}
    want = ref.ecmp_te_cost(inst.nodes, w, caps, dict(dm.entries))
    assert ecmp_cost(inst, dm, w) == pytest.approx(want, rel=1e-9)
    # the cost of another weight vector is told apart
    other = assign_random_weights(inst, seed=seed + 100)
    assert ecmp_cost(inst, dm, other) != pytest.approx(want, rel=1e-9)


# --- minimum-change MILP -------------------------------------------------------

# path a-c-b mandated lighter than the direct link a-b
REVERSED = [(("a", "c", "b"), ("a", "b"))]
ONES = {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1}
LINKS = sorted(ONES)


def test_milp_by_hand():
    assert ref.milp_min_change(LINKS, REVERSED, ONES, 4, min_weight=1) == 4.0  # a-b: 1 -> 3
    assert ref.milp_min_change(LINKS, REVERSED, ONES, 4, min_weight=0) == 2.0  # a-b 2, a-c 0
    assert ref.milp_min_change(LINKS, REVERSED, ONES, 4, min_weight=1, epsilon=1, big_m=100) == 100.0
    assert ref.milp_min_change(LINKS, [(("a", "b"), ("a", "c", "b"))], ONES, 4) == 0.0


def test_milp_infeasible_by_hand():
    both_ways = REVERSED + [(("a", "b"), ("a", "c", "b"))]
    assert ref.milp_min_change(LINKS, both_ways, ONES, 4) is None
    # a-b would need weight 3 to outweigh a-c-b
    assert ref.milp_min_change(LINKS, REVERSED, ONES, 2, min_weight=1) is None


def _brute_force(links, pairs, w0, w_max, min_weight):
    best = None
    for combo in itertools.product(range(min_weight, w_max + 1), repeat=len(links)):
        w = dict(zip(links, combo))
        gaps = [sum(w[k] for k in ref.path_links(q)) - sum(w[k] for k in ref.path_links(p))
                for p, q in pairs]
        if all(1 <= g <= w_max for g in gaps):
            cost = sum((w[k] - w0[k]) ** 2 for k in links)
            best = cost if best is None else min(best, cost)
    return best


def test_milp_matches_brute_force_on_random_cases():
    square = [("a", "b"), ("a", "d"), ("b", "c"), ("c", "d")]
    paths = {"a": [("a", "b", "c"), ("a", "d", "c")], "b": [("b", "c"), ("b", "a", "d", "c")]}
    rng = random.Random(7)
    for _ in range(10):
        w0 = {k: rng.randint(1, 5) for k in square}
        pairs = [tuple(rng.sample(paths[src], 2)) for src in "ab"]
        want = _brute_force(square, pairs, w0, 5, 1)
        got = ref.milp_min_change(square, pairs, w0, 5, min_weight=1)
        assert got == (None if want is None else float(want))


def _waxman20(seed):
    inst = generate_waxman(WaxmanParams(n=20, seed=seed), w_max=16)
    w0 = assign_random_weights(inst, seed=seed)
    inst = inst.with_weights(w0)
    prefs = derive_med_preferences(inst, inject_med_conflicts(inst, 3, seed=seed), hop_bound=2)
    return inst, w0, prefs


def test_milp_rejects_a_budget_bound_incumbent():
    inst, w0, prefs = _waxman20(5)
    pairs = [pq for _, pq in prefs.all_pairs()]
    sol = solve_min_change(build_system(inst, prefs), w0, RepairConfig(min_weight=1, time_budget=0.3))
    assert sol.budget_exceeded and ref.mandate_violations(pairs, sol.weights, 16) == []
    assert sol.objective > ref.milp_min_change(inst.link_keys(), pairs, w0, 16, min_weight=1)


def test_milp_agrees_on_a_root_infeasible_instance():
    inst, w0, prefs = _waxman20(1)
    with pytest.raises(InfeasibleRepairError):
        solve_min_change(build_system(inst, prefs), w0, RepairConfig(min_weight=1, time_budget=5.0))
    assert ref.milp_min_change(inst.link_keys(), [pq for _, pq in prefs.all_pairs()], w0, 16,
                               min_weight=1) is None


def test_known_fault_excuses_only_a_non_minimal_objective(monkeypatch):
    x = workloads._waxman20(5, RepairConfig(min_weight=1, time_budget=0.3), known_fault=True)
    rnd = workloads.Round()
    workloads.exact_repair(rnd, x)  # a valid incumbent above the optimum
    assert (rnd.attempted, rnd.failed, rnd.problems) == (1, 1, [])
    assert rnd.te_ratios == [] and rnd.weights_changed == 0
    x.known_fault = False  # the same incumbent on an instance not named as faulty
    rnd = workloads.Round()
    workloads.exact_repair(rnd, x)
    assert rnd.failed == 1 and any("differs from the MILP optimum" in p for p in rnd.problems)
    x.known_fault = True
    w0 = x.inst.initial_weights()
    # the start weights break the mandates: that is not excused
    monkeypatch.setattr(workloads, "solve_min_change",
                        lambda *a: SimpleNamespace(objective=0.0, weights=dict(w0)))
    rnd = workloads.Round()
    workloads.exact_repair(rnd, x)
    assert rnd.failed == 1 and any(p.startswith("mandate") for p in rnd.problems)

    def infeasible(*a):
        raise InfeasibleRepairError("no assignment")

    monkeypatch.setattr(workloads, "solve_min_change", infeasible)
    rnd = workloads.Round()
    workloads.exact_repair(rnd, x)
    assert rnd.failed == 1 and any("reported infeasible" in p for p in rnd.problems)


# --- path digraph acyclicity -------------------------------------------------------

P, Q, R = ("x", "d"), ("y", "d"), ("y", "x", "d")
DAG_ARCS = [(P, R), (Q, R)]


def test_scc_acyclic_by_hand():
    assert ref.scc_acyclic([P, Q, R], DAG_ARCS)
    assert not ref.scc_acyclic([P, Q, R], DAG_ARCS + [(R, P)])
    assert not ref.scc_acyclic([P, Q, R], [(P, P)])


def test_witness_checks_reject_corrupted_witnesses():
    assert ref.rank_witness_ok([P, Q, R], DAG_ARCS, {P: 0, Q: 0, R: 1})
    assert not ref.rank_witness_ok([P, Q, R], DAG_ARCS, {P: 1, Q: 0, R: 1})
    cyclic = DAG_ARCS + [(R, P)]
    assert ref.cycle_witness_ok([P, R], cyclic)
    assert not ref.cycle_witness_ok([P, Q, R], cyclic)
    assert not ref.cycle_witness_ok([Q, R], cyclic)


def test_scc_rejects_a_corrupted_verdict():
    dg = PathDigraph((P, Q, R), ((P, R, "suffix"), (Q, R, "pref"), (R, P, "pref")))
    verdict = is_safe(dg)
    assert not verdict.safe and not ref.scc_acyclic(dg.paths, [(a, b) for a, b, _ in dg.arcs])
    # the same arcs with the back arc dropped are acyclic: a "safe" claim for
    # the cyclic graph would disagree with the SCC test
    assert ref.scc_acyclic(dg.paths, DAG_ARCS) != verdict.safe


# --- simulator witnesses ---------------------------------------------------------


def bad_gadget():
    """Three routers around destination 0, each preferring the route through
    its clockwise neighbour to its own direct route: no stable state."""
    order = {"0": [("0",)]}
    for v, nxt in (("1", "2"), ("2", "3"), ("3", "1")):
        order[v] = [(v, nxt, "0"), (v, "0")]
    return from_total_orders("0", ["0"], order)


def _rule(pspp):
    return ref.SelectionRule(pspp.permitted, pspp.prefs, pspp.order)


def test_selection_rule_by_hand():
    rule = _rule(bad_gadget())
    sel = {"0": ("0",), "1": ("1", "0"), "2": ("2", "0"), "3": None}
    assert rule.choice("1", sel) == ("1", "2", "0")  # 2 sits on its direct route
    assert rule.choice("2", sel) == ("2", "0")  # 3 selects nothing
    assert rule.choice("0", sel) == ("0",)


def test_oscillation_witness_from_the_simulator_passes():
    pspp = bad_gadget()
    sched = Schedule(("0", "1", "2", "3"), window=4, explicit=("0", "1", "2", "3"))
    out = simulate(pspp, sched)
    assert isinstance(out, Oscillating)
    acts = sched.activations(out.recurrence_step + 1)[out.first_step + 1 : out.recurrence_step + 1]
    rule = _rule(pspp)
    assert ref.oscillation_ok(rule, list(out.witness[0]), out.witness, acts) == []


def test_oscillation_check_rejects_corrupted_witnesses():
    pspp = bad_gadget()
    sched = Schedule(("0", "1", "2", "3"), window=4, explicit=("0", "1", "2", "3"))
    out = simulate(pspp, sched)
    acts = sched.activations(out.recurrence_step + 1)[out.first_step + 1 : out.recurrence_step + 1]
    rule, nodes, wit = _rule(pspp), list(out.witness[0]), list(out.witness)
    assert ref.oscillation_ok(rule, nodes, wit[:-1], acts)  # does not recur
    bent = [dict(s) for s in wit]
    bent[1]["1"] = None
    assert ref.oscillation_ok(rule, nodes, bent, acts)  # a step that the rule does not take
    assert ref.oscillation_ok(rule, nodes, [wit[0], wit[0]], acts[:1])  # no change inside
    # activations that never reach router 3, which is unstable in every state
    assert ref.oscillation_ok(rule, nodes, wit, ["1"] * len(acts))


def test_converged_check_rejects_a_non_fixed_point():
    order = {"0": [("0",)], "1": [("1", "0")], "2": [("2", "1", "0"), ("2", "0")]}
    pspp = from_total_orders("0", ["0"], order)
    out = simulate(pspp, Schedule(("0", "1", "2"), window=3, seed=1))
    assert isinstance(out, Converged)
    rule = _rule(pspp)
    assert ref.converged_ok(rule, ["0", "1", "2"], out.assignment)
    assert not ref.converged_ok(rule, ["0", "1", "2"], {**out.assignment, "2": ("2", "0")})


def _converging():
    order = {"0": [("0",)], "1": [("1", "0")], "2": [("2", "1", "0"), ("2", "0")]}
    return from_total_orders("0", ["0"], order)


def test_undetermined_simulation_fails_and_is_rejected_on_a_safe_state():
    pspp = _converging()
    sched = Schedule(("0", "1", "2"), window=3, seed=1)
    out = simulate(pspp, sched, max_steps=1)  # a cap too short to decide
    assert isinstance(out, Undetermined)
    safe = workloads.Verdict(pspp, True, _rule(pspp))
    problems, excused = workloads.sim_problems(safe, ["0", "1", "2"], sched, out)
    assert problems and not excused
    rnd = workloads.Round()
    rnd.done(problems, excused)
    assert (rnd.attempted, rnd.failed) == (1, 1) and rnd.problems


def test_undetermined_simulation_of_an_unsafe_state_fails_without_a_problem():
    pspp = bad_gadget()
    sched = Schedule(("0", "1", "2", "3"), window=4, explicit=("0", "1", "2", "3"))
    out = simulate(pspp, sched, max_steps=2)
    assert isinstance(out, Undetermined)
    unsafe = workloads.Verdict(pspp, False, _rule(pspp))
    problems, excused = workloads.sim_problems(unsafe, ["0", "1", "2", "3"], sched, out)
    assert not problems and excused
    rnd = workloads.Round()
    rnd.done(problems, excused)
    assert (rnd.attempted, rnd.failed, rnd.problems) == (1, 1, [])


def test_safe_state_that_oscillates_is_rejected():
    pspp = bad_gadget()
    sched = Schedule(("0", "1", "2", "3"), window=4, explicit=("0", "1", "2", "3"))
    out = simulate(pspp, sched)
    claimed_safe = workloads.Verdict(pspp, True, _rule(pspp))
    problems, _ = workloads.sim_problems(claimed_safe, ["0", "1", "2", "3"], sched, out)
    assert "a safe state oscillated" in problems
