import pytest

from igpfix.bgp_prefs import derive_med_preferences
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
from igpfix.scenarios import two_prefix_med
from igpfix.te import JointConfig, cost_model_for

from oracles import enum_equal_split_loads


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
    want = sum(model.phi(x, 100.0) for x in loads.values())
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
        progress=lambda line: costs.append(__import__("json").loads(line)["cost"]),
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
