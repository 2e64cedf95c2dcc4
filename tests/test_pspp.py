import random

import pytest

from igpfix.bgp_prefs import derive_med_preferences
from igpfix.netmodel import ValidationError, WaxmanParams, assign_random_weights, generate_waxman
from igpfix.pspp import (
    PsppInstance,
    build_path_digraph,
    check_refinement,
    export_digraph,
    from_total_orders,
    is_safe,
    rank_witness,
    robustness_check,
    validate_rank_witness,
)
from igpfix.scenarios import inject_med_conflicts, two_prefix_med
from igpfix.sim import weights_to_pspp

from oracles import longest_ranks_py, path_digraph_py, random_pspp, weights_to_relation_py

E = ("e",)


def _triangle_orders(cyclic: bool):
    """Three nodes around egress e; each prefers the path through its
    clockwise neighbor over its direct path (the classic bad gadget)."""
    order = {
        "x": [("x", "y", "e"), ("x", "e")],
        "y": [("y", "z", "e"), ("y", "e")],
        "z": [("z", "x", "e"), ("z", "e")],
    }
    if not cyclic:
        order = {v: list(reversed(ps)) for v, ps in order.items()}
    order["e"] = [("e",)]
    return from_total_orders("pfx", ["e"], order)


def test_from_total_orders_builds_strict_relation():
    pspp = _triangle_orders(cyclic=False)
    assert pspp.strictly_prefers("x", ("x", "e"), ("x", "y", "e"))
    assert not pspp.strictly_prefers("x", ("x", "y", "e"), ("x", "e"))
    assert pspp.is_total()
    assert not pspp.is_cyclic_at("x")


def test_instance_validation():
    with pytest.raises(ValidationError, match="starts at"):
        PsppInstance("p", frozenset({"e"}), {"x": (("y", "e"),)}, {})
    with pytest.raises(ValidationError, match="egress"):
        PsppInstance("p", frozenset({"e"}), {"x": (("x", "y"),)}, {})
    with pytest.raises(ValidationError, match="not simple"):
        PsppInstance("p", frozenset({"e"}), {"x": (("x", "y", "x", "e"),)}, {})
    with pytest.raises(ValidationError, match="both orientations"):
        PsppInstance(
            "p", frozenset({"e"}), {"x": (("x", "e"), ("x", "y", "e"))},
            {"x": frozenset({(("x", "e"), ("x", "y", "e")),
                             (("x", "y", "e"), ("x", "e"))})},
        )


def test_cyclic_relation_is_flagged_not_rejected():
    a, b, c = ("x", "a", "e"), ("x", "b", "e"), ("x", "c", "e")
    pspp = PsppInstance(
        "p", frozenset({"e"}), {"x": (a, b, c)},
        {"x": frozenset({(a, b), (b, c), (c, a)})},
    )
    assert pspp.is_cyclic_at("x")
    # a cyclic relation yields raw arcs only, so the digraph stays unsafe
    assert not pspp.strictly_prefers("x", a, c)
    assert not is_safe(build_path_digraph(pspp)).safe


def test_bad_gadget_unsafe_with_cycle_witness():
    res = is_safe(build_path_digraph(_triangle_orders(cyclic=True)))
    assert not res.safe
    cyc = res.cycle
    assert len(cyc) >= 2
    # the witness is an actual cycle in the digraph
    dg = build_path_digraph(_triangle_orders(cyclic=True))
    succ = {a: {b for b, _ in nbrs} for a, nbrs in dg.successors().items()}
    for i, p in enumerate(cyc):
        assert cyc[(i + 1) % len(cyc)] in succ[p]


def test_good_gadget_safe_with_valid_ranks():
    pspp = _triangle_orders(cyclic=False)
    dg = build_path_digraph(pspp)
    res = is_safe(dg)
    assert res.safe
    assert validate_rank_witness(dg, res.ranks)
    assert res.ranks[E] == 0


def test_rank_witness_raises_on_cycle():
    with pytest.raises(ValidationError):
        rank_witness(build_path_digraph(_triangle_orders(cyclic=True)))


def test_restrict_and_removals():
    pspp = _triangle_orders(cyclic=True)
    sub = pspp.without_node("y")
    assert all("y" not in p for p in sub.all_paths())
    # breaking the gadget at any node makes the remainder safe
    assert is_safe(build_path_digraph(sub)).safe
    sub2 = pspp.without_link("x", "y")
    assert ("x", "y", "e") not in sub2.all_paths()


def test_robustness_check():
    good = _triangle_orders(cyclic=False)
    assert robustness_check(good, ["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert not robustness_check(_triangle_orders(cyclic=True), [], [])


def test_check_refinement():
    total = _triangle_orders(cyclic=False)
    partial = PsppInstance(
        total.destination, total.egresses, total.permitted,
        {"x": frozenset({(("x", "e"), ("x", "y", "e"))})},
    )
    assert check_refinement(total, partial)
    assert not check_refinement(partial, total)  # partial lacks y's ordering


def test_export_digraph_mentions_every_arc():
    dg = build_path_digraph(_triangle_orders(cyclic=False))
    dot = export_digraph(dg)
    assert dot.startswith("digraph")
    assert dot.count("->") == len(dg.arcs)
    assert '"x y e"' in dot


def _matches_digraph_oracle(pspp):
    """build_path_digraph, is_cyclic_at, pref_closure, ranked and is_safe
    against oracles.path_digraph_py: the same arcs, the same cyclic nodes
    and closures, a best-first order exactly where the closure orders every
    pair of permitted paths, the oracle's longest-path ranks when safe, and
    a cycle of the oracle's arcs when not. Returns the verdict."""
    arcs, cyclic, closures = path_digraph_py(pspp.permitted, pspp.prefs)
    dg = build_path_digraph(pspp)
    assert dg.arcs == tuple(arcs)
    assert {v for v in pspp.permitted if pspp.is_cyclic_at(v)} == cyclic
    for v, ps in pspp.permitted.items():
        c = closures[v]
        assert set(pspp.pref_closure(v)) == c
        total = v not in cyclic and all(
            (p, q) in c or (q, p) in c for i, p in enumerate(ps) for q in ps[i + 1 :]
        )
        best_first = tuple(sorted(ps, key=lambda p: sum((q, p) in c for q in ps)))
        assert pspp.ranked(v) == (best_first if total else None)
    res = is_safe(dg)
    ranks = longest_ranks_py(dg.paths, arcs)
    assert res.safe == (ranks is not None)
    if res.safe:
        assert res.ranks == ranks
    else:
        succ = {(a, b) for a, b, _ in arcs}
        assert len(set(res.cycle)) == len(res.cycle)
        assert all((p, res.cycle[(i + 1) % len(res.cycle)]) in succ for i, p in enumerate(res.cycle))
    return res.safe


def _matches_weights_oracle(inst, prefs, w, prefix, hop_bound):
    """weights_to_pspp against oracles.weights_to_relation_py, then the
    digraph oracle. Returns the instance and its verdict."""
    pspp = weights_to_pspp(inst, prefs, w, prefix, hop_bound=hop_bound)
    permitted, rel, mandates, order = weights_to_relation_py(inst, prefs, w, prefix, hop_bound)
    assert dict(pspp.permitted) == permitted
    assert {v: set(r) for v, r in pspp.prefs.items()} == rel
    assert {v: set(m) for v, m in pspp.mandates.items()} == mandates
    assert dict(pspp.order) == order
    return pspp, _matches_digraph_oracle(pspp)


def test_check_path_matches_oracle_on_census():
    """The six-node census vectors of perfbench's check-sim, both prefixes."""
    inst0, routes = two_prefix_med(w_max=16)
    prefs = derive_med_preferences(inst0, routes, hop_bound=2)
    verdicts, cyclic = [], 0
    for i in range(80):
        w = assign_random_weights(inst0, seed=5000 + i, low=1, high=16)
        inst = inst0.with_weights(w)
        for prefix in prefs.prefixes():
            pspp, safe = _matches_weights_oracle(inst, prefs, w, prefix, 2)
            verdicts.append(safe)
            cyclic += any(pspp.is_cyclic_at(v) for v in pspp.permitted)
    assert len(verdicts) == 160 and 0 < sum(verdicts) < 160 and cyclic > 0


def test_check_path_matches_oracle_on_waxman():
    inst = generate_waxman(WaxmanParams(n=30, seed=0), w_max=100)
    w = assign_random_weights(inst, seed=0)
    inst = inst.with_weights(w)
    prefs = derive_med_preferences(inst, inject_med_conflicts(inst, 3, seed=0), hop_bound=3)
    cyclic = 0
    for prefix in prefs.prefixes():
        pspp, _ = _matches_weights_oracle(inst, prefs, w, prefix, 3)
        cyclic += sum(pspp.is_cyclic_at(v) for v in pspp.permitted)
    assert len(prefs.prefixes()) == 3 and cyclic > 0


def test_check_path_matches_oracle_on_random_instances():
    """oracles.random_pspp: total orders and random tournaments, many of
    them cyclic."""
    transitive = cyclic = 0
    for seed in range(200):
        pspp = random_pspp(seed)
        _matches_digraph_oracle(pspp)
        for v, ps in pspp.permitted.items():
            if len(ps) >= 3:
                cyclic += pspp.is_cyclic_at(v)
                transitive += pspp.ranked(v) is not None
    assert cyclic >= 30 and transitive >= 100


def _thinned(seed):
    """random_pspp's instance with every relation cut to a random subset
    (acyclic ones become partial orders that are not closed), and the
    complete relations of some nodes given one pair with a path that is not
    permitted there, which keeps the pair count of a tournament."""
    base = random_pspp(seed)
    rng = random.Random(seed)
    prefs = {}
    for v, pairs in base.prefs.items():
        pairs = sorted(pairs)
        if pairs and rng.random() < 0.3:
            a, b = pairs.pop(rng.randrange(len(pairs)))
            foreign = (v, "q", sorted(base.egresses)[0])
            pairs.append((a, foreign) if rng.random() < 0.5 else (foreign, b))
        elif pairs:
            pairs = rng.sample(pairs, rng.randint(0, len(pairs) - 1))
        prefs[v] = frozenset(pairs)
    return PsppInstance(base.destination, base.egresses, base.permitted, prefs, base.order)


def test_check_path_matches_oracle_on_partial_orders():
    """Relations that are not tournaments take the closure path."""
    foreign = partial = 0
    for seed in range(200):
        pspp = _thinned(seed)
        _matches_digraph_oracle(pspp)
        for v, pairs in pspp.prefs.items():
            if pairs:
                if any(p not in pspp.permitted[v] for pair in pairs for p in pair):
                    foreign += 1
                else:
                    partial += 1
        sub = pspp.without_node("a")
        _matches_digraph_oracle(sub)
    assert foreign >= 50 and partial >= 100
