"""End-to-end validation suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (visible with -s, or via the test's own PASSED/FAILED status under
-v). The heavy sampled data is shared through module-scoped fixtures.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from igpfix.bgp_prefs import derive_med_preferences
from igpfix.local_search import SearchConfig, _mandates_hold, ecmp_cost, generate_starts, parallel_search, search
from igpfix.netmodel import (
    ValidationError,
    WaxmanParams,
    assign_random_weights,
    generate_waxman,
    random_demands,
)
from igpfix.netmodel import link_key
from igpfix.paths import enumerate_paths_multi, immediate_suffix, path_weight
from igpfix.pspp import build_path_digraph, is_safe
from igpfix.repair import (
    InfeasibleRepairError,
    RepairConfig,
    build_system,
    round_to_feasible,
    solution_lambdas,
    solve_min_change,
    solve_relaxed,
    verify_solution,
)
from igpfix.scenarios import inject_med_conflicts, random_pref_paths, two_prefix_med
from igpfix.sim import Oscillating, fair_schedule, simulate, weights_to_pspp
from igpfix.te import JointConfig, cost_model_for, solve_flow, solve_joint_unequal

from oracles import (
    all_pairs_distances,
    brute_force_min_change,
    enum_ecmp_cost,
    random_small_instance,
)

N_VECTORS = 1000
N_SCHEDULES = 100


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _safe_after(inst, prefs, weights) -> bool:
    """Every prefix's combined preference structure is acyclic under the
    given weights."""
    for pfx in prefs.prefixes():
        pspp = weights_to_pspp(inst, prefs, weights, pfx, hop_bound=2)
        if not is_safe(build_path_digraph(pspp)).safe:
            return False
    return True


# ---------------------------------------------------------------------------
# shared sampled data


@pytest.fixture(scope="module")
def med_sample():
    """Safety/oscillation census of the 6-node two-prefix instance over
    N_VECTORS random weight vectors x N_SCHEDULES fair schedules, plus a
    minimum-change repair of every unsafe vector."""
    t0 = time.monotonic()
    inst0, routes = two_prefix_med()
    prefs = derive_med_preferences(inst0, routes, hop_bound=2)

    safe_osc = 0
    n_safe = 0
    unsafe_states: list[int] = []  # vector index per unsafe (vector, prefix)
    unsafe_osc = 0
    unsafe_vectors: dict[int, dict] = {}
    for i in range(N_VECTORS):
        w = assign_random_weights(inst0, seed=5000 + i, low=1, high=16)
        inst = inst0.with_weights(w)
        for pfx in prefs.prefixes():
            pspp = weights_to_pspp(inst, prefs, w, pfx, hop_bound=2)
            state_safe = is_safe(build_path_digraph(pspp)).safe
            nodes = sorted(pspp.permitted)
            oscillated = any(
                isinstance(simulate(pspp, fair_schedule(nodes, s)), Oscillating)
                for s in range(N_SCHEDULES)
            )
            if state_safe:
                n_safe += 1
                safe_osc += oscillated
            else:
                unsafe_states.append(i)
                unsafe_osc += oscillated
                if i not in unsafe_vectors:
                    unsafe_vectors[i] = {"weights": w, "inst": inst}
    census_elapsed = time.monotonic() - t0

    # minimum-change repair of each unsafe vector (both prefixes at once)
    repairs = []
    sys_ = build_system(inst0, prefs)
    for i, rec in unsafe_vectors.items():
        sol = solve_min_change(sys_, rec["weights"], RepairConfig(epsilon=1, big_m=100))
        rec["n_changed"] = sol.n_changed
        repairs.append((rec["inst"], prefs, sol))

    return {
        "inst0": inst0,
        "prefs": prefs,
        "n_safe": n_safe,
        "safe_osc": safe_osc,
        "unsafe_states": unsafe_states,
        "unsafe_osc": unsafe_osc,
        "unsafe_vectors": unsafe_vectors,
        "repairs": repairs,
        "census_elapsed": census_elapsed,
    }


@pytest.fixture(scope="module")
def te_runs():
    """20 seeded Waxman n=20 runs with injected MED conflicts: exact repair,
    the equal-split pipeline, and (on the first few) the unequal-split
    heuristic. Seeds whose injected conflicts are unrealizable by any weight
    assignment are skipped."""
    runs = []
    seed = -1
    while len(runs) < 20 and seed < 200:
        seed += 1
        try:
            inst = generate_waxman(WaxmanParams(n=20, seed=seed), w_max=16)
        except ValidationError:
            continue
        w0 = assign_random_weights(inst, seed=seed)
        inst = inst.with_weights(w0)
        demands = random_demands(inst, pairs=40, seed=seed)
        routes = inject_med_conflicts(inst, 3, seed=seed)
        try:
            prefs = derive_med_preferences(inst, routes, hop_bound=2)
            sys_ = build_system(inst, prefs)
            base = ecmp_cost(inst, demands, w0)
            exact = solve_min_change(sys_, w0, RepairConfig(min_weight=1, time_budget=10.0))
            starts = generate_starts(
                inst, demands, prefs, w0, 4,
                RepairConfig(min_weight=1),
                JointConfig(gamma=10.0, seed=seed, exact_budget=3.0),
                extra=[exact.weights],
            )
            equal = parallel_search(
                inst, demands, prefs, starts,
                SearchConfig(gamma=10.0, seed=seed, max_iters=60),
                w_initial=w0, baseline_cost=base,
            )
            unequal = None
            if len(runs) < 5:
                unequal = solve_joint_unequal(
                    inst, demands, prefs, w0,
                    RepairConfig(min_weight=1),
                    JointConfig(gamma=10.0, seed=seed, exact_budget=2.0),
                )
        except (InfeasibleRepairError, ValidationError):
            continue
        runs.append({
            "seed": seed, "inst": inst, "prefs": prefs, "demands": demands,
            "base": base, "exact": exact, "equal": equal, "unequal": unequal,
        })
    assert len(runs) == 20, "could not collect 20 feasible seeded runs"
    return runs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_safe_states_never_oscillate(med_sample):
    ok = med_sample["safe_osc"] == 0 and med_sample["census_elapsed"] < 600
    _verdict(
        "criterion 1 (safety soundness)", ok,
        f"{med_sample['safe_osc']} oscillations across {med_sample['n_safe']} safe "
        f"states x {N_SCHEDULES} schedules in {med_sample['census_elapsed']:.0f}s",
    )


def test_criterion_02_unsafe_states_realizably_oscillate(med_sample):
    n_unsafe = len(med_sample["unsafe_states"])
    frac = med_sample["unsafe_osc"] / n_unsafe if n_unsafe else 0.0
    ok = n_unsafe > 0 and frac >= 0.10
    _verdict(
        "criterion 2 (unsafe oscillation realizability)", ok,
        f"{med_sample['unsafe_osc']}/{n_unsafe} unsafe states oscillate ({frac:.1%})",
    )


def test_criterion_03_all_repairs_verified_and_safe(med_sample, te_runs):
    solutions = list(med_sample["repairs"])
    for run in te_runs:
        for key in ("exact", "equal", "unequal"):
            if run[key] is not None:
                solutions.append((run["inst"], run["prefs"], run[key]))
    bad = 0
    for inst, prefs, sol in solutions:
        if not verify_solution(inst, prefs, sol.weights).ok:
            bad += 1
        elif not _safe_after(inst, prefs, sol.weights):
            bad += 1
    _verdict(
        "criterion 3 (repair correctness)", bad == 0,
        f"{bad}/{len(solutions)} repair solutions failed verification or safety",
    )


def test_criterion_04_exact_matches_brute_force():
    t0 = time.monotonic()
    checked = 0
    mismatches = 0
    seed = -1
    while checked < 50 and seed < 400:
        seed += 1
        inst = random_small_instance(seed, 4, 6, w_max=6)
        try:
            prefs = random_pref_paths(
                inst, n_paths=4, n_prefs=3, seed=seed, max_len=2, max_attempts=5
            )
            sys_ = build_system(inst, prefs)
        except ValidationError:
            continue
        if len(sys_.links) > 5:
            continue
        w0 = assign_random_weights(inst, seed=seed, low=0, high=6)
        cfg = RepairConfig(time_budget=10.0)
        want = brute_force_min_change(sys_, prefs, w0, cfg)
        try:
            got = solve_min_change(sys_, w0, cfg).objective
        except InfeasibleRepairError:
            got = None
        if got != want:
            mismatches += 1
        checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 50 and mismatches == 0 and elapsed < 300
    _verdict(
        "criterion 4 (exact minimality vs brute force)", ok,
        f"{mismatches} mismatches over {checked} instances in {elapsed:.1f}s",
    )


def test_criterion_05_sum_of_weights_extension_consistent():
    checked = 0
    violations = 0
    seed = -1
    while checked < 30 and seed < 300:
        seed += 1
        inst = random_small_instance(seed, 4, 8)
        try:
            prefs = random_pref_paths(
                inst, n_paths=5, n_prefs=4, seed=seed, max_len=3, max_attempts=10
            )
            sys_ = build_system(inst, prefs)
            # any feasible (not necessarily optimal) solve suffices here
            sol = solve_min_change(
                sys_, assign_random_weights(inst, seed=seed), RepairConfig(time_budget=2.0)
            )
        except (ValidationError, InfeasibleRepairError):
            continue
        w = {k: sol.weights.get(k, 1) for k in inst.link_keys()}
        lam = {p: path_weight(p, w) for p in enumerate_paths_multi(inst, list(inst.nodes), 3)}
        # the restricted solution's potentials coincide with the extension
        lam_sys = solution_lambdas(sys_, sol.weights)
        for p, v in lam_sys.items():
            if v != path_weight(p, w):
                violations += 1
        # suffix relations hold across the full enumeration
        for p in lam:
            if len(p) < 2:
                continue
            q = immediate_suffix(p)
            if q in lam and lam[p] - lam[q] != w[link_key(p[0], p[1])]:
                violations += 1
        # every mandated gap stays a realizable virtual weight
        for _, (p, q) in prefs.all_pairs():
            gap = lam.get(q, path_weight(q, w)) - lam.get(p, path_weight(p, w))
            if not 1 <= gap <= inst.w_max:
                violations += 1
        checked += 1
    ok = checked == 30 and violations == 0
    _verdict(
        "criterion 5 (sum-of-weights extension)", ok,
        f"{violations} relation violations over {checked} instances",
    )


def test_criterion_06_few_changes_suffice(med_sample):
    states = med_sample["unsafe_states"]
    vectors = med_sample["unsafe_vectors"]
    one = sum(vectors[i]["n_changed"] <= 1 for i in states)
    three = sum(vectors[i]["n_changed"] <= 3 for i in states)
    ok = bool(states) and one / len(states) >= 0.85 and three == len(states)
    _verdict(
        "criterion 6 (few-changes repair)", ok,
        f"<=1 change: {one}/{len(states)}, <=3 changes: {three}/{len(states)}",
    )


def test_criterion_07_te_cost_preserved(te_runs):
    within = 0
    worse = 0
    for run in te_runs:
        norm = ecmp_cost(run["inst"], run["demands"], run["equal"].weights) / run["base"]
        norm_exact = ecmp_cost(run["inst"], run["demands"], run["exact"].weights) / run["base"]
        if norm <= 1.10:
            within += 1
        if norm > norm_exact + 0.02:
            worse += 1
    ok = within >= 16 and worse == 0
    _verdict(
        "criterion 7 (TE preservation at gamma=10)", ok,
        f"{within}/20 runs within 1.10x baseline; {worse} worse than exact + 0.02",
    )


def test_criterion_08_warm_starts_beat_cold_starts():
    def cold_start(inst, prefs, sys_, seed):
        import random as _random

        rng = _random.Random(seed)
        for _ in range(200):
            w = {k: rng.randint(1, inst.w_max) for k in inst.link_keys()}
            fixed = round_to_feasible(
                sys_, {k: float(v) for k, v in w.items()}, w, min_weight=1
            )
            if fixed is not None and _mandates_hold(prefs, fixed):
                return fixed
        return None

    warm_iters: list[int] = []
    cold_iters: list[int] = []
    seed = -1
    while len(warm_iters) < 20 and seed < 200:
        seed += 1
        try:
            inst = generate_waxman(WaxmanParams(n=20, seed=seed), w_max=16)
        except ValidationError:
            continue
        w0 = assign_random_weights(inst, seed=seed)
        inst = inst.with_weights(w0)
        demands = random_demands(inst, pairs=40, seed=seed)
        routes = inject_med_conflicts(inst, 3, seed=seed)
        try:
            prefs = derive_med_preferences(inst, routes, hop_bound=2)
            sys_ = build_system(inst, prefs)
            base = ecmp_cost(inst, demands, w0)
            warm = generate_starts(
                inst, demands, prefs, w0, 1,
                RepairConfig(min_weight=1),
                JointConfig(gamma=0.0, seed=seed, exact_budget=3.0),
            )[0]
            cold = cold_start(inst, prefs, sys_, seed)
            if cold is None:
                continue
            scfg = SearchConfig(gamma=0.0, seed=seed, max_iters=40)
            sw = search(inst, demands, prefs, warm, scfg, w_initial=w0, baseline_cost=base)
            sc = search(inst, demands, prefs, cold, scfg, w_initial=w0, baseline_cost=base)
        except (InfeasibleRepairError, ValidationError):
            continue
        warm_iters.append(sw.iterations if sw.early_terminated else scfg.max_iters)
        cold_iters.append(sc.iterations if sc.early_terminated else scfg.max_iters)
    med_warm = float(np.median(warm_iters))
    med_cold = float(np.median(cold_iters))
    ok = len(warm_iters) == 20 and med_warm <= med_cold
    _verdict(
        "criterion 8 (warm-start benefit)", ok,
        f"median iterations to tolerance: warm {med_warm} vs cold {med_cold} "
        f"over {len(warm_iters)} paired trials",
    )


def test_criterion_09_pipeline_beats_exact_at_scale():
    seed = 0
    inst = generate_waxman(WaxmanParams(n=40, seed=seed), w_max=16)
    w0 = assign_random_weights(inst, seed=seed)
    inst = inst.with_weights(w0)
    demands = random_demands(inst, pairs=80, seed=seed)
    prefs = random_pref_paths(inst, n_paths=40, n_prefs=40, seed=seed)
    sys_ = build_system(inst, prefs)

    t0 = time.monotonic()
    starts = generate_starts(
        inst, demands, prefs, w0, 4,
        RepairConfig(min_weight=1), JointConfig(gamma=10.0, seed=seed, exact_budget=3.0),
    )
    sol = parallel_search(
        inst, demands, prefs, starts,
        SearchConfig(gamma=10.0, seed=seed, max_iters=30),
        mode="first-wins", w_initial=w0,
    )
    pipeline_time = time.monotonic() - t0
    assert verify_solution(inst, prefs, sol.weights).ok

    budget = 150.0
    t0 = time.monotonic()
    try:
        exact = solve_min_change(sys_, w0, RepairConfig(time_budget=budget))
        exceeded = exact.budget_exceeded
    except InfeasibleRepairError:
        exceeded = True
    exact_time = time.monotonic() - t0
    # when the exact solver exhausts its budget, the budget itself lower-
    # bounds its true wall time to optimality
    exact_floor = budget if exceeded else exact_time
    ok = pipeline_time < exact_floor / 5
    _verdict(
        "criterion 9 (hybrid faster than exact)", ok,
        f"pipeline {pipeline_time:.1f}s vs exact >= {exact_floor:.1f}s "
        f"(budget exceeded: {exceeded})",
    )


def test_criterion_10_scaling_is_linear_in_constraints(tmp_path):
    from igpfix.cli import main as cli_main

    # every benchmark size finishes well inside its slot
    size_times = {}
    for n in (20, 30, 40, 60, 70):
        out = tmp_path / f"bench{n}.csv"
        t0 = time.monotonic()
        rc = cli_main([
            "bench", "--sizes", str(n), "--seeds", "0",
            "--paths", str(n), "--prefs-count", str(n), "--out", str(out),
        ])
        size_times[n] = time.monotonic() - t0
        assert rc == 0 and out.exists()
    sizes_ok = all(t < 300 for t in size_times.values())

    # relaxation solve time scales linearly with the constraint count
    systems = []
    for npref in range(10, 81, 10):
        got = 0
        for seed in range(20):
            if got >= 3:
                break
            try:
                inst = generate_waxman(WaxmanParams(n=40, seed=seed), w_max=16)
            except ValidationError:
                continue
            w0 = assign_random_weights(inst, seed=seed)
            inst = inst.with_weights(w0)
            try:
                prefs = random_pref_paths(inst, n_paths=npref, n_prefs=npref, seed=seed)
                sys_ = build_system(inst, prefs)
            except ValidationError:
                continue
            t = _timed_relax(sys_, w0)
            if t is None:
                continue  # not realizable with every weight >= 1: skip
            systems.append((sys_, w0, [t]))
            got += 1
    # the repeats take turns across the sweep, so a slow spell of the
    # machine costs each point one sample rather than all of its samples
    for _ in range(4):
        for sys_, w0, times in systems:
            times.append(_timed_relax(sys_, w0))
    xs = [sys_.constraint_count() for sys_, _, _ in systems]
    ys = [min(times) for _, _, times in systems]
    x = np.array(xs)
    y = np.array(ys)
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    r2 = 1 - float((resid ** 2).sum() / ((y - y.mean()) ** 2).sum())
    ok = sizes_ok and len(xs) >= 16 and r2 >= 0.8
    _verdict(
        "criterion 10 (linear scaling)", ok,
        f"max size time {max(size_times.values()):.1f}s; "
        f"R^2 = {r2:.3f} over {len(xs)} sweep points",
    )


def _timed_relax(sys_, w0):
    t0 = time.perf_counter()
    if solve_relaxed(sys_, w0, min_weight=1) is None:
        return None
    return time.perf_counter() - t0


def test_criterion_11_equal_split_cost_matches_enumeration():
    checked = 0
    worst = 0.0
    seed = -1
    while checked < 30 and seed < 200:
        seed += 1
        inst = random_small_instance(seed)
        w = assign_random_weights(inst, seed=seed, low=1, high=inst.w_max)
        dm = random_demands(inst, pairs=6, seed=seed)
        model = cost_model_for(inst)
        got = ecmp_cost(inst, dm, w, model)
        want = enum_ecmp_cost(inst, w, dm.entries, model)
        if want:
            worst = max(worst, abs(got - want) / want)
        checked += 1
    ok = checked == 30 and worst <= 1e-9
    _verdict(
        "criterion 11 (ECMP cost oracle)", ok,
        f"worst relative error {worst:.2e} over {checked} instances",
    )


def test_criterion_12_flow_objective_matches_distances():
    checked = 0
    worst = 0.0
    seed = -1
    while checked < 30 and seed < 200:
        seed += 1
        inst = random_small_instance(seed)
        w = assign_random_weights(inst, seed=seed, low=1, high=inst.w_max)
        dm = random_demands(inst, pairs=6, seed=seed)
        dist = all_pairs_distances(inst, w)
        want = sum(x * dist[s][d] for (s, d), x in dm.entries.items())
        flow = solve_flow(inst, dm, w, with_lp=True)
        if want:
            worst = max(
                worst,
                abs(flow.objective - want) / want,
                abs(flow.lp_objective - want) / want,
            )
        checked += 1
    ok = checked == 30 and worst <= 1e-9
    _verdict(
        "criterion 12 (flow LP oracle)", ok,
        f"worst relative error {worst:.2e} over {checked} instances",
    )
