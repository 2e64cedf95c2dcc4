import json
import random
import tracemalloc
from collections import Counter

import pytest

from igpfix.bgp_prefs import derive_med_preferences
from igpfix.netmodel import ValidationError, assign_random_weights
from igpfix.pspp import OrderedPrefs, PsppInstance, build_path_digraph, from_total_orders, is_safe
from igpfix.sim import (
    Converged,
    Oscillating,
    ProtocolState,
    Schedule,
    Undetermined,
    fair_schedule,
    simulate,
    step,
    trace,
    weights_to_pspp,
)

from oracles import random_pspp, simulate_py


def _bad_gadget():
    """Each node prefers the route through its neighbor over its direct one."""
    return from_total_orders("pfx", ["e"], {
        "x": [("x", "y", "e"), ("x", "e")],
        "y": [("y", "z", "e"), ("y", "e")],
        "z": [("z", "x", "e"), ("z", "e")],
        "e": [("e",)],
    })


def _good_gadget():
    return from_total_orders("pfx", ["e"], {
        "x": [("x", "e"), ("x", "y", "e")],
        "y": [("y", "e"), ("y", "z", "e")],
        "z": [("z", "e"), ("z", "x", "e")],
        "e": [("e",)],
    })


def _spoke_gadget(via):
    """The bad gadget plus a node u whose one permitted path is via."""
    return from_total_orders("pfx", ["e"], {
        "x": [("x", "y", "e"), ("x", "e")],
        "y": [("y", "z", "e"), ("y", "e")],
        "z": [("z", "x", "e"), ("z", "e")],
        "e": [("e",)],
        "u": [via],
    })


def _cyclic_node():
    """One node whose pairwise relation is itself a cycle (MED-style)."""
    a, b, c = ("r", "a", "e"), ("r", "b", "e"), ("r", "c", "e")
    return PsppInstance(
        "pfx", frozenset({"e"}),
        {"r": (a, b, c), "a": (("a", "e"),), "b": (("b", "e"),),
         "c": (("c", "e"),), "e": (("e",),)},
        {"r": frozenset({(a, b), (b, c), (c, a)}),
         "a": frozenset(), "b": frozenset(), "c": frozenset(), "e": frozenset()},
        order={"r": (a, b, c), "a": (("a", "e"),), "b": (("b", "e"),),
               "c": (("c", "e"),), "e": (("e",),)},
    )


def test_fair_schedule_covers_every_node_per_window():
    sch = fair_schedule(["b", "a", "c"], seed=7)
    acts = sch.activations(12)
    for i in range(0, 12, sch.window):
        assert set(acts[i : i + sch.window]) == {"a", "b", "c"}


def test_explicit_schedule_repeats():
    sch = Schedule(("a", "b"), window=2, explicit=("a", "b", "b"))
    assert sch.activations(7) == ["a", "b", "b", "a", "b", "b", "a"]


def test_safe_instance_converges_to_best_paths():
    out = simulate(_good_gadget(), seed=0)
    assert isinstance(out, Converged)
    assert out.assignment["x"] == ("x", "e")
    assert out.assignment["e"] == ("e",)


def test_bad_gadget_oscillates_under_some_schedule():
    osc = None
    for seed in range(30):
        out = simulate(_bad_gadget(), fair_schedule(["x", "y", "z", "e"], seed))
        if isinstance(out, Oscillating):
            osc = out
            break
    assert osc is not None
    # witness states genuinely recur with a change in between
    assert osc.witness[0] == osc.witness[-1]
    assert any(s != osc.witness[0] for s in osc.witness)
    assert osc.recurrence_step > osc.first_step


def test_cyclic_relation_node_oscillates():
    pspp = _cyclic_node()
    assert not is_safe(build_path_digraph(pspp)).safe
    hits = sum(
        isinstance(simulate(pspp, fair_schedule(["r", "a", "b", "c", "e"], s)), Oscillating)
        for s in range(10)
    )
    assert hits > 0


def test_cyclic_node_requires_order_list():
    pspp = _cyclic_node()
    stripped = PsppInstance(pspp.destination, pspp.egresses, pspp.permitted, pspp.prefs)
    with pytest.raises(ValidationError, match="order"):
        simulate(stripped)


def test_fast_loop_states_match_step():
    """Every witness state and converged assignment of the fast loop is the
    state that reference stepping with `step` reaches after that step."""
    checked = Counter()
    for pspp in (_bad_gadget(), _good_gadget(), _cyclic_node(), _spoke_gadget(("u", "x", "e"))):
        nodes = sorted(pspp.permitted)
        for seed in range(10):
            sch = fair_schedule(nodes, seed)
            out = simulate(pspp, sch)
            if isinstance(out, Oscillating):
                last, want = out.recurrence_step, dict(enumerate(out.witness, out.first_step))
            else:
                assert isinstance(out, Converged)
                last, want = out.steps - 1, {out.steps - 1: out.assignment}
            state = ProtocolState({}, 0)
            for t, node in enumerate(sch.activations(last + 1)):
                state = step(state, node, pspp)
                if t in want:
                    got = want[t]
                    assert {v: state.selections.get(v) for v in got} == got
            checked[type(out).__name__] += 1
    assert checked["Oscillating"] >= 10 and checked["Converged"] >= 10


def _schedules(pspp, seed):
    """Three fair schedules, one that never activates a node (one without a
    direct path, where there is such a node), an explicit sequence that may
    skip that node, and one that activates it once per several rounds."""
    nodes = sorted(pspp.permitted)
    rng = random.Random(seed)
    out = [fair_schedule(nodes, 3 * seed + k) for k in range(3)]
    indirect = [v for v in nodes if all(len(p) > 2 for p in pspp.permitted[v])] or nodes
    left = rng.choice(indirect)
    out.append(fair_schedule([v for v in nodes if v != left], seed))
    ex = [v for v in rng.sample(nodes, len(nodes)) if v != left or rng.random() < 0.5] or nodes
    ex += rng.choices(ex, k=rng.randint(0, 2))
    out.append(Schedule(tuple(nodes), window=len(ex), explicit=tuple(ex)))
    # the node left out above activated once per several rounds
    ex = [v for v in rng.sample(nodes, len(nodes)) if v != left] * rng.randint(2, 4) + [left]
    out.append(Schedule(tuple(nodes), window=len(ex), explicit=tuple(ex)))
    return out


def test_simulate_matches_stepping_oracle():
    """simulate against oracles.simulate_py on 200 random small instances
    (some with cyclic-relation nodes) and the bad gadget with a spoke node,
    each under fair, node-skipping and explicit schedules: the same outcome
    type, step counts, assignment and witness."""
    # 469, 623 and 853 are the seeds among the first 2,000 where replaying
    # a segment one activation off changes the outcome
    cases = [(random_pspp(seed), seed) for seed in [*range(200), 469, 623, 853]]
    cases += [(_spoke_gadget(via), seed) for seed in range(20)
              for via in (("u", "e"), ("u", "x", "e"), ("u", "y", "e"))]
    seen, cyclic = Counter(), 0
    for pspp, seed in cases:
        cyclic += any(pspp.is_cyclic_at(v) for v in pspp.permitted)
        for sch in _schedules(pspp, seed):
            want = simulate_py(pspp, sch, 150)
            assert simulate(pspp, sch, max_steps=150) == want, (seed, sch)
            seen[type(want).__name__] += 1
    assert cyclic >= 30
    assert seen["Oscillating"] >= 100 and seen["Undetermined"] >= 10 and seen["Converged"] >= 100


def test_undetermined_on_tiny_step_cap():
    # convergence needs 2 * window = 8 steps without a change
    out = simulate(_bad_gadget(), fair_schedule(["x", "y", "z", "e"], 1), max_steps=3)
    assert out == Undetermined(steps=3)


def test_unfair_recurrence_is_not_an_oscillation():
    """u's one path is always available and u is never activated, so no
    segment of the round robin over the other nodes is fair."""
    sched = Schedule(("e", "u", "x", "y", "z"), window=4, explicit=("x", "y", "z", "e"))
    assert not isinstance(simulate(_spoke_gadget(("u", "e")), sched), Oscillating)
    # through x, u is stable whenever x routes via y: the cycle is fair
    out = simulate(_spoke_gadget(("u", "x", "e")), sched)
    assert isinstance(out, Oscillating)
    assert all(s["u"] is None for s in out.witness)


def test_converged_only_at_a_fixed_point():
    """The good gadget plus a node u whose one path u-e is always
    available. A schedule that never activates u leaves the other nodes
    quiet, but u could still move, so the run does not converge."""
    orders = {v: list(ps) for v, ps in _good_gadget().order.items()}
    pspp = from_total_orders("pfx", ["e"], {**orders, "u": [("u", "e")]})
    sched = fair_schedule(["x", "y", "z", "e"], 0)
    out = simulate(pspp, sched)
    assert out == Undetermined(steps=320)
    assert simulate_py(pspp, sched, 320) == out
    out = simulate(pspp, fair_schedule(["u", "x", "y", "z", "e"], 0))
    assert isinstance(out, Converged) and out.assignment["u"] == ("u", "e")


def test_memory_is_bounded_by_states_not_steps():
    tracemalloc.start()
    try:
        out = simulate(_good_gadget(), max_steps=10**6)
        first = next(trace(_good_gadget(), fair_schedule(["x", "y", "z", "e"]), 10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(out, Converged)
    assert json.loads(first)["step"] == 0
    assert peak < 1 << 20


def test_weights_to_pspp_mandate_overrides_weight(six_node):
    inst, routes = six_node
    # make the A-egress paths light so weight and mandate disagree at R
    w = {k: 8 for k in inst.link_keys()}
    w[("A", "R")] = 1
    inst = inst.with_weights(w)
    prefs = derive_med_preferences(inst, routes, hop_bound=2)
    pspp = weights_to_pspp(inst, prefs, w, "pfx1", hop_bound=2)
    # mandated verdict: R prefers R-B over R-A despite the weights
    assert (("R", "B"), ("R", "A")) in pspp.prefs["R"]
    # pure-IGP order list still ranks by weight
    assert pspp.order["R"].index(("R", "A")) < pspp.order["R"].index(("R", "B"))
    # non-mandated comparisons follow the weights (S-C weighs 8, S-R-A 9)
    assert pspp.strictly_prefers("S", ("S", "C"), ("S", "R", "A")) is True
    assert pspp.strictly_prefers("S", ("S", "R", "A"), ("S", "C")) is False


def test_weights_to_pspp_flags_intransitive_nodes(six_node):
    inst, routes = six_node
    found = False
    for seed in range(50):
        w = assign_random_weights(inst, seed=1000 + seed, low=1, high=16)
        wi = inst.with_weights(w)
        prefs = derive_med_preferences(wi, routes, hop_bound=2)
        for pfx in prefs.prefixes():
            pspp = weights_to_pspp(wi, prefs, w, pfx, hop_bound=2)
            if any(pspp.is_cyclic_at(v) for v in pspp.permitted):
                found = True
                # an intransitive node is a preference cycle: never safe
                assert not is_safe(build_path_digraph(pspp)).safe
    assert found, "no sampled weighting produced a MED/IGP conflict"


def test_simulate_reads_orders_not_pair_sets(six_node, monkeypatch):
    """On weights_to_pspp's instances, cyclic nodes included, the encoding
    reads each node's order and exceptions, never its pair set, and every
    run matches a run on the same instance given as pair sets."""
    inst, routes = six_node
    reads = []
    real = OrderedPrefs.__getitem__
    monkeypatch.setattr(OrderedPrefs, "__getitem__", lambda self, v: reads.append(v) or real(self, v))
    kinds, cyclic = Counter(), 0
    for seed in range(30):
        w = assign_random_weights(inst, seed=1000 + seed, low=1, high=16)
        wi = inst.with_weights(w)
        prefs = derive_med_preferences(wi, routes, hop_bound=2)
        for pfx in prefs.prefixes():
            pspp = weights_to_pspp(wi, prefs, w, pfx, hop_bound=2)
            outs = [simulate(pspp, seed=s) for s in range(3)]
            assert reads == []
            pairs = PsppInstance(pspp.destination, pspp.egresses, pspp.permitted,
                                 {v: frozenset(r) for v, r in pspp.prefs.items()}, pspp.order, pspp.mandates)
            assert outs == [simulate(pairs, seed=s) for s in range(3)]
            reads.clear()
            cyclic += any(pspp.is_cyclic_at(v) for v in pspp.permitted)
            kinds.update(type(out).__name__ for out in outs)
    assert cyclic > 0 and kinds["Oscillating"] > 0 and kinds["Converged"] > 0


def test_weights_to_pspp_requires_known_egresses(six_node):
    inst, _ = six_node
    w = {k: 1 for k in inst.link_keys()}
    with pytest.raises(ValidationError):
        weights_to_pspp(inst, None, w, "nope")
    pspp = weights_to_pspp(inst, None, w, "direct", egresses=["B"])
    assert pspp.egresses == frozenset({"B"})


def test_simulate_encodes_each_instance_once(monkeypatch):
    """Runs of one instance share its encoding, and give the outcomes of
    runs on a fresh copy; a copy made with dataclasses.replace encodes anew."""
    import dataclasses

    import igpfix.sim as sim

    built = []
    real = sim._Encoded
    monkeypatch.setattr(sim, "_Encoded", lambda pspp: built.append(pspp) or real(pspp))
    pspp = _bad_gadget()
    outs = [simulate(pspp, seed=seed) for seed in range(4)]
    assert built == [pspp]
    assert outs == [simulate(_bad_gadget(), seed=seed) for seed in range(4)]
    assert len(built) == 5
    copy = dataclasses.replace(pspp, order=None)
    assert simulate(copy, seed=0) == outs[0] and built[-1] is copy
    # a copy under other preferences derives its own ranks, leaving these be
    good = dataclasses.replace(pspp, prefs=_good_gadget().prefs)
    assert good.ranked("x") == (("x", "e"), ("x", "y", "e"))
    assert pspp.ranked("x") == (("x", "y", "e"), ("x", "e"))
