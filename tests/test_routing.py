import numpy as np
import pytest

from igpfix import routing as routing_mod
from igpfix.bgp_prefs import MandatedPreferences
from igpfix.local_search import ecmp_cost
from igpfix.netmodel import (
    DemandMatrix,
    Link,
    NetworkInstance,
    ValidationError,
    WeightError,
    assign_random_weights,
    random_demands,
)
from igpfix.repair import RepairConfig
from igpfix.routing import route_demands, route_moves, shortest_paths
from igpfix.te import (
    JointConfig,
    arc_capacities,
    cost_model_for,
    solve_flow,
    solve_joint_unequal,
    te_cost,
    te_costs,
)

from oracles import all_pairs_distances, ecmp_arc_loads, ecmp_cost_py, random_small_instance


def test_evaluator_matches_loop_oracle_exactly():
    """Distances, per-arc loads and ECMP cost equal the per-destination loop
    bit for bit, and so do the other views of the one TE cost evaluator:
    te_cost of the shortest-path flow, and the costs before and after a
    joint repair (no mandates) equal ecmp_cost. Weights in 1..2-4 make equal-cost ties common; up to 14
    nodes and 20 demands give three-way splits and inflows summed from
    several nodes at one distance, where a changed visiting or rounding
    order shows."""
    tied = 0
    for seed in range(240):
        w_max = 2 + seed % 3
        inst = random_small_instance(seed, n_hi=14, w_max=w_max)
        w = assign_random_weights(inst, seed=seed, low=1, high=w_max)
        dm = random_demands(inst, pairs=20, seed=seed)

        routing = route_demands(inst, dm, w)
        ga = routing.ga
        got = {
            d: {ga.arcs[k]: float(row[k]) for k in np.nonzero(row)[0]}
            for d, row in zip(routing.dests, routing.loads)
        }
        assert got == ecmp_arc_loads(inst, dm, w), seed
        model = cost_model_for(inst)
        cost = ecmp_cost(inst, dm, w, model)
        assert cost == ecmp_cost_py(inst, dm, w, model), seed
        assert te_cost(solve_flow(inst, dm, w), model) == cost, seed
        if seed % 4 == 0:
            # unknown initial weights are priced as 1
            w_initial = w if seed % 8 else {**w, inst.link_keys()[0]: None}
            base_w = {k: 1 if v is None else v for k, v in w_initial.items()}
            sol = solve_joint_unequal(inst, dm, MandatedPreferences({}, {}), w_initial,
                                      RepairConfig(min_weight=1), JointConfig(exact_budget=0.0))
            assert sol.te_cost_before == ecmp_cost(inst, dm, base_w, model), seed
            assert sol.te_cost_after == ecmp_cost(inst, dm, sol.weights, model), seed

        dist = all_pairs_distances(inst, w)
        for i, d in enumerate(routing.dests):
            assert [dist[v][d] for v in inst.nodes] == routing.dist[i].tolist(), seed
        hops = routing.next_hop.astype(int)
        counts = np.add.reduceat(hops, ga.adj_ptr[:-1], axis=1)
        tied += bool(((counts > 1) & (routing.demand > 0)).any())
    assert tied >= 100, f"only {tied} instances split demand over equal-cost next hops"


def test_disconnected_demand_raises(monkeypatch):
    monkeypatch.setattr(NetworkInstance, "_check_connected", lambda self: None)
    inst = NetworkInstance(
        ("a", "b", "c", "d"), (Link("a", "b", 1, 10.0), Link("c", "d", 1, 10.0)), 4
    )
    w = {k: 1 for k in inst.link_keys()}
    dm = DemandMatrix({("a", "b"): 1.0, ("c", "b"): 2.0})
    assert np.isinf(shortest_paths(inst, ["b"], w).dist[0, 2])
    with pytest.raises(ValidationError):
        ecmp_arc_loads(inst, dm, w)
    with pytest.raises(ValidationError):
        ecmp_cost(inst, dm, w)
    with pytest.raises(ValidationError):
        solve_flow(inst, dm, w)


def test_zero_weight_raises():
    inst = random_small_instance(3, w_max=3)
    dm = random_demands(inst, pairs=6, seed=3)
    w = {k: 1 for k in inst.link_keys()}
    w[inst.link_keys()[0]] = 0
    with pytest.raises(WeightError):
        ecmp_arc_loads(inst, dm, w)
    with pytest.raises(WeightError):
        ecmp_cost(inst, dm, w)
    with pytest.raises(WeightError):
        route_demands(inst, dm, w)
    w[inst.link_keys()[0]] = -1
    with pytest.raises(WeightError):
        route_demands(inst, dm, w)


def test_move_scores_match_loop_oracle_exactly(monkeypatch):
    """The TE cost of every single-weight move, scored from an incumbent by
    route_moves, equals a from-scratch run of the per-destination loop bit
    for bit. Weights in 1..2-4 make ties common, so raising a link often
    takes it off some shortest paths and lowering one often ties it with
    another path. 1 to 8 demands leave some moves rerouting nothing. The
    batch budget cycles so that moves are scored one per batch, a few per
    batch, and all in one batch."""
    batches = []
    real_batch = routing_mod._batch_totals

    def counted(base, links, weights, rerouted):
        batches.append(len(links))
        return real_batch(base, links, weights, rerouted)

    monkeypatch.setattr(routing_mod, "_batch_totals", counted)
    up_tight = down_tie = untouched = scored = 0
    for seed in range(300):
        monkeypatch.setattr(routing_mod, "BATCH_CELLS", (1, 300, 1 << 16)[seed % 3])
        w_max = 2 + seed % 3
        inst = random_small_instance(seed, n_hi=10, w_max=w_max)
        w = assign_random_weights(inst, seed=seed, low=1, high=w_max)
        dm = random_demands(inst, pairs=1 + seed % 8, seed=seed)
        model = cost_model_for(inst)
        base = route_demands(inst, dm, w)
        ga = base.ga
        moves = [(i, v) for i, k in enumerate(ga.links) for v in range(1, w_max + 1) if v != w[k]]
        totals, rerouted = route_moves(base, [i for i, _ in moves], [v for _, v in moves])
        costs = te_costs(model, totals, arc_capacities(model, ga))
        for (i, v), cost, r in zip(moves, costs, rerouted):
            k = ga.links[i]
            assert cost == ecmp_cost_py(inst, dm, {**w, k: v}, model), (seed, k, v)
            scored += 1
            untouched += r == 0
            up_tight += v > w[k] and r > 0
            da, db = base.dist[:, ga.index[k[0]]], base.dist[:, ga.index[k[1]]]
            down_tie += v < w[k] and bool(((v + db == da) | (v + da == db)).any())
    assert min(up_tight, down_tie, untouched) >= 100, (up_tight, down_tie, untouched, scored)
    assert sum(n > 1 for n in batches) >= 100 and batches.count(1) >= 100
