"""The benchmark's three workloads.

Each workload builds its inputs once from the run's seed (set-up), then runs
rounds: every round makes the same operations on the same inputs, in the
order given, and times each call into igpfix. An operation is one repair,
one safety verdict (weights_to_pspp -> build_path_digraph -> is_safe for one
prefix) or one simulate run. Every output is checked against references.py
or against properties the method must have, outside the timed calls.

Times are CPU seconds of the whole process (all threads) spent inside the
timed calls. On a shared virtual machine wall time spreads far more than CPU
time: 19% against 5% (quartile distance over median) for a fixed Python
loop timed in 2 s windows.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from igpfix.bgp_prefs import derive_med_preferences
from igpfix.local_search import SearchConfig, ecmp_cost, generate_starts, parallel_search
from igpfix.netmodel import Link, NetworkInstance, WaxmanParams, assign_random_weights, generate_waxman, random_demands
from igpfix.pspp import build_path_digraph, is_safe
from igpfix.repair import InfeasibleRepairError, RepairConfig, build_system, solve_min_change
from igpfix.scenarios import inject_med_conflicts, two_prefix_med
from igpfix.sim import Converged, Oscillating, Undetermined, fair_schedule, simulate, weights_to_pspp
from igpfix.te import JointConfig

import references as ref

REL_TOL = 1e-9


@dataclass
class Round:
    """Per-operation outcomes of one round."""

    repair_times: list[float] = field(default_factory=list)
    check_times: list[float] = field(default_factory=list)
    sim_times: list[float] = field(default_factory=list)
    te_ratios: list[float] = field(default_factory=list)
    weights_changed: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # failures not named as known faults

    def done(self, problems: list[str], excused: Sequence[str] = ()) -> None:
        """Count one operation. It fails on any problem or excused failure;
        only the problems make the run incorrect."""
        self.attempted += 1
        if problems or excused:
            self.failed += 1
            self.problems.extend(problems)


def timed(fn: Callable[..., Any], *args, **kwargs) -> tuple[Any, float]:
    t0 = time.process_time()
    out = fn(*args, **kwargs)
    return out, time.process_time() - t0


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _capacities(inst: NetworkInstance) -> dict[Link, float]:
    return {ln.key: ln.capacity for ln in inst.links}


def _te(inst: NetworkInstance, w: dict[Link, int], demands) -> float:
    return ref.ecmp_te_cost(inst.nodes, w, _capacities(inst), dict(demands.entries))


def _changed(w0: dict[Link, int], w: dict[Link, int]) -> int:
    return sum(1 for k, v in w0.items() if w[k] != v)


# --- verdicts and simulations, shared by every workload ----------------------


@dataclass
class Verdict:
    pspp: Any
    safe: bool
    rule: ref.SelectionRule


def check_prefix(rnd: Round, inst, prefs, w, prefix: str, hop_bound: int) -> Verdict:
    """One timed safety verdict, checked against the SCC test and its
    witness."""
    def verdict():
        pspp = weights_to_pspp(inst, prefs, w, prefix, hop_bound=hop_bound)
        dg = build_path_digraph(pspp)
        return pspp, dg, is_safe(dg)

    (pspp, dg, res), dt = timed(verdict)
    rnd.check_times.append(dt)
    arcs = [(a, b) for a, b, _ in dg.arcs]
    problems = []
    if ref.scc_acyclic(dg.paths, arcs) != res.safe:
        problems.append(f"{prefix}: verdict safe={res.safe} disagrees with the SCC test")
    elif res.safe and not ref.rank_witness_ok(dg.paths, arcs, res.ranks):
        problems.append(f"{prefix}: invalid rank witness")
    elif not res.safe and not ref.cycle_witness_ok(res.cycle, arcs):
        problems.append(f"{prefix}: invalid cycle witness")
    rnd.done(problems)
    return Verdict(pspp, res.safe, ref.SelectionRule(pspp.permitted, pspp.prefs, pspp.order))


def sim_problems(v: Verdict, nodes: list[str], schedule, out) -> tuple[list[str], list[str]]:
    """Problems and excused failures of one simulation outcome. A safe state
    must converge under a fair schedule; an unsafe one may stop undecided at
    the step cap, which fails the operation without making the run
    incorrect."""
    problems, excused = [], []
    if isinstance(out, Oscillating):
        if v.safe:
            problems.append("a safe state oscillated")
        acts = schedule.activations(out.recurrence_step + 1)
        problems += ref.oscillation_ok(v.rule, list(out.witness[0]), out.witness,
                                       acts[out.first_step + 1 : out.recurrence_step + 1])
    elif isinstance(out, Converged):
        if not ref.converged_ok(v.rule, nodes, out.assignment):
            problems.append("converged assignment is not a fixed point")
    elif isinstance(out, Undetermined) and not v.safe:
        excused.append(f"undetermined after {out.steps} steps")
    else:
        problems.append(f"safe={v.safe} state gave {out!r}")
    return problems, excused


def simulate_prefix(rnd: Round, v: Verdict, schedule_seed: int) -> None:
    """One timed fair-schedule simulation, checked against the verdict and
    by replaying its witness."""
    nodes = sorted(v.pspp.permitted)
    schedule = fair_schedule(nodes, schedule_seed)
    out, dt = timed(simulate, v.pspp, schedule)
    rnd.sim_times.append(dt)
    rnd.done(*sim_problems(v, nodes, schedule, out))


# --- equal-search --------------------------------------------------------------


@dataclass
class EqualInstance:
    inst: NetworkInstance
    w0: dict[Link, int]
    demands: Any
    prefs: Any
    seed: int
    ref_before: float = 0.0


# (n, Waxman seed, weight seed) per slot; the Waxman seed also draws the MED
# conflicts. Every input is fixed, --seed included: the TE-cost ratio of a
# repair hangs on the demand draw (over five run seeds, the geometric mean of
# five repairs ranged 0.77-0.98) and so did the number of redraws set-up
# makes, which would set the run-to-run spread of te_cost_ratio and setup_s.
# Each weight seed is one under which one of the first three demand draws
# puts both starts above the gamma threshold, so set-up redraws little.
EQUAL_SLOTS = ((30, 1, 0), (30, 3, 1), (34, 2, 0), (37, 1, 2), (40, 2, 3))
EQUAL_W_MAX = 100
EQUAL_HOP_BOUND = 2  # mandates
EQUAL_CHECK_HOP_BOUND = 3  # the post-repair check, igpfix's default
EQUAL_CONFLICTS = 3
EQUAL_GAMMA = 0.0
EQUAL_STARTS = 2
# each search scores one fixed-size neighbourhood sample from its start
EQUAL_SAMPLE = 0.01
EQUAL_ITERS = 1


def _equal_configs(seed: int) -> tuple[RepairConfig, JointConfig, SearchConfig]:
    return (
        RepairConfig(min_weight=1),
        JointConfig(gamma=EQUAL_GAMMA, seed=seed, exact_budget=0.0),
        SearchConfig(gamma=EQUAL_GAMMA, seed=seed, max_iters=EQUAL_ITERS,
                     frac_start=EQUAL_SAMPLE, frac_min=EQUAL_SAMPLE, frac_max=EQUAL_SAMPLE),
    )


def setup_equal(seed: int) -> list[EqualInstance]:
    """Uniform random weights, as `igpfix bench` draws them, and random
    demands, redrawn until both starts sit above the gamma threshold and the
    search iterates. The inputs do not depend on seed (see EQUAL_SLOTS)."""
    out = []
    for slot, (n, topo, weight_seed) in enumerate(EQUAL_SLOTS):
        base = generate_waxman(WaxmanParams(n=n, seed=topo), w_max=EQUAL_W_MAX)
        routes = inject_med_conflicts(base, EQUAL_CONFLICTS, seed=topo)
        prefs = derive_med_preferences(base, routes, hop_bound=EQUAL_HOP_BOUND)
        w0 = assign_random_weights(base, seed=weight_seed)
        inst = base.with_weights(w0)
        for attempt in range(100):
            s = slot * 100 + attempt
            demands = random_demands(inst, pairs=2 * n, seed=s)
            cfg, jcfg, _ = _equal_configs(s)
            starts = generate_starts(inst, demands, prefs, w0, EQUAL_STARTS, cfg, jcfg)
            threshold = ecmp_cost(inst, demands, w0) * (1 + EQUAL_GAMMA / 100)
            if len(starts) == EQUAL_STARTS and all(ecmp_cost(inst, demands, x) > threshold for x in starts):
                out.append(EqualInstance(inst, w0, demands, prefs, s))
                break
        else:
            raise RuntimeError(f"no equal-search instance with starts above threshold in slot {slot}")
    return out


def round_equal(rnd: Round, instances: list[EqualInstance]) -> None:
    for e in instances:
        cfg, jcfg, scfg = _equal_configs(e.seed)

        def repair():
            starts = generate_starts(e.inst, e.demands, e.prefs, e.w0, EQUAL_STARTS, cfg, jcfg)
            sol = parallel_search(e.inst, e.demands, e.prefs, starts, scfg,
                                  mode="best-of", w_initial=e.w0)
            return starts, sol

        (starts, sol), dt = timed(repair)
        rnd.repair_times.append(dt)
        if not e.ref_before:
            e.ref_before = _te(e.inst, e.w0, e.demands)
        pairs = [pq for _, pq in e.prefs.all_pairs()]
        problems = ref.mandate_violations(pairs, sol.weights, e.inst.w_max)
        ref_after = _te(e.inst, sol.weights, e.demands)
        best_start = min(_te(e.inst, s, e.demands) for s in starts)
        if not (_rel_close(sol.te_cost_before, e.ref_before) and _rel_close(sol.te_cost_after, ref_after)):
            problems.append(f"TE costs {sol.te_cost_before}, {sol.te_cost_after} differ from "
                            f"the reference {e.ref_before}, {ref_after}")
        if ref_after > best_start * (1 + REL_TOL):
            problems.append(f"final cost {ref_after} above the best start {best_start}")
        if sol.early_terminated and ref_after > e.ref_before * (1 + EQUAL_GAMMA / 100) * (1 + REL_TOL):
            problems.append("early termination reported above the gamma threshold")
        rnd.done(problems)
        rnd.te_ratios.append(ref_after / e.ref_before)
        rnd.weights_changed += _changed(e.w0, sol.weights)
        # the post-repair safety check of `igpfix repair --mode equal`, then
        # one simulation per prefix of the repaired state
        for i, prefix in enumerate(e.prefs.prefixes()):
            v = check_prefix(rnd, e.inst, e.prefs, sol.weights, prefix, EQUAL_CHECK_HOP_BOUND)
            simulate_prefix(rnd, v, e.seed + i)


# --- exact-repair --------------------------------------------------------------


@dataclass
class ExactInstance:
    name: str
    inst: NetworkInstance  # with initial weights
    prefs: Any
    system: Any
    cfg: RepairConfig
    demands: Any
    verify: bool  # follow a correct repair with a verdict and a simulation per prefix
    known_fault: bool = False
    optimum: Optional[float] = None
    solved: bool = False  # optimum computed
    ref_before: float = 0.0


CENSUS_W_MAX = 16
CENSUS_HOP_BOUND = 2
# changing any link costs the same, so the objective counts changed links
CENSUS_CFG = RepairConfig(epsilon=1, big_m=100, min_weight=1, time_budget=10.0)
EXACT_CENSUS_UNSAFE = 120
# Waxman n=20, w_max 16, 3 injected MED conflicts, hop bound 2.
EXACT_INFEASIBLE = (1, 6)  # proven infeasible at the root
# The branch-and-bound runs out of budget on these and returns a non-minimal
# incumbent: the objective is above the MILP optimum on every run.
EXACT_BUDGET_BOUND = (5, 9, 11)
EXACT_FAULT_BUDGET = 0.3


def _census():
    inst0, routes = two_prefix_med(w_max=CENSUS_W_MAX)
    prefs = derive_med_preferences(inst0, routes, hop_bound=CENSUS_HOP_BOUND)
    return inst0, prefs, build_system(inst0, prefs)


def _unsafe(inst, prefs, w) -> bool:
    return not all(
        is_safe(build_path_digraph(weights_to_pspp(inst, prefs, w, p, hop_bound=CENSUS_HOP_BOUND))).safe
        for p in prefs.prefixes()
    )


def _waxman20(seed: int, cfg: RepairConfig, known_fault: bool) -> ExactInstance:
    inst = generate_waxman(WaxmanParams(n=20, seed=seed), w_max=CENSUS_W_MAX)
    inst = inst.with_weights(assign_random_weights(inst, seed=seed))
    prefs = derive_med_preferences(inst, inject_med_conflicts(inst, 3, seed=seed),
                                   hop_bound=CENSUS_HOP_BOUND)
    return ExactInstance(f"waxman20-seed{seed}", inst, prefs, build_system(inst, prefs), cfg,
                         random_demands(inst, pairs=40, seed=seed), verify=False,
                         known_fault=known_fault)


def setup_exact(seed: int) -> list[ExactInstance]:
    """The first EXACT_CENSUS_UNSAFE unsafe weight vectors the seed draws for
    the six-node census, then the fixed Waxman instances."""
    inst0, prefs, system = _census()
    rng = random.Random(seed)
    out = []
    while len(out) < EXACT_CENSUS_UNSAFE:
        w = {k: rng.randint(1, CENSUS_W_MAX) for k in inst0.link_keys()}
        inst = inst0.with_weights(w)
        if _unsafe(inst, prefs, w):
            out.append(ExactInstance(f"census-{len(out)}", inst, prefs, system, CENSUS_CFG,
                                     random_demands(inst, pairs=8, seed=rng.randrange(1 << 30)),
                                     verify=True))
    cfg = RepairConfig(min_weight=1, time_budget=10.0)
    out += [_waxman20(s, cfg, False) for s in EXACT_INFEASIBLE]
    fault_cfg = RepairConfig(min_weight=1, time_budget=EXACT_FAULT_BUDGET)
    out += [_waxman20(s, fault_cfg, True) for s in EXACT_BUDGET_BOUND]
    return out


def exact_repair(rnd: Round, x: ExactInstance) -> None:
    """One timed solve_min_change, checked against the MILP."""
    w0 = x.inst.initial_weights()

    def repair():
        try:
            return solve_min_change(x.system, w0, x.cfg), None
        except InfeasibleRepairError as exc:
            return None, exc

    (sol, err), dt = timed(repair)
    rnd.repair_times.append(dt)
    if not x.solved:
        x.optimum = ref.milp_min_change(
            x.inst.link_keys(), [pq for _, pq in x.prefs.all_pairs()], w0, x.inst.w_max,
            min_weight=x.cfg.min_weight, epsilon=x.cfg.epsilon, big_m=x.cfg.big_m)
        x.solved = True
    problems, excused = [], []
    if sol is None:
        if x.optimum is not None:
            problems.append(f"{x.name}: reported infeasible ({err}) but the MILP optimum is {x.optimum}")
        rnd.done(problems)
        return
    if x.optimum is None:
        problems.append(f"{x.name}: returned weights but the MILP proves the mandates infeasible")
    elif sol.objective != x.optimum:
        # the named fault excuses only a non-minimal incumbent
        (excused if x.known_fault else problems).append(
            f"{x.name}: objective {sol.objective} differs from the MILP optimum {x.optimum}")
    problems += ref.mandate_violations([pq for _, pq in x.prefs.all_pairs()], sol.weights, x.inst.w_max)
    rnd.done(problems, excused)
    if x.known_fault:
        return  # an incumbent cut off by a wall-clock budget depends on host speed
    if not x.ref_before:
        x.ref_before = _te(x.inst, w0, x.demands)
    rnd.te_ratios.append(_te(x.inst, sol.weights, x.demands) / x.ref_before)
    rnd.weights_changed += _changed(w0, sol.weights)
    if x.verify and not problems:
        for i, prefix in enumerate(x.prefs.prefixes()):
            v = check_prefix(rnd, x.inst, x.prefs, sol.weights, prefix, CENSUS_HOP_BOUND)
            simulate_prefix(rnd, v, i)


def round_exact(rnd: Round, instances: list[ExactInstance]) -> None:
    for x in instances:
        exact_repair(rnd, x)


# --- check-sim -----------------------------------------------------------------


@dataclass
class CheckInput:
    inst: NetworkInstance
    prefs: Any
    w: dict[Link, int]
    hop_bound: int
    schedules: dict[str, list[int]]  # prefix -> schedule seeds; every prefix is checked
    repair: Optional[ExactInstance] = None  # set for unsafe census vectors


# The census vectors and the n=70 instance are fixed, so the verdict mix,
# the repairs and the simulator's trajectory sizes are the same in every
# run; the run's seed draws the census activation schedules. At n=70 one
# simulation runs about 7x longer when it oscillates than when it converges, so a
# seed-drawn weight vector there would set the run-to-run spread. All three
# n=70 prefixes are checked; one is simulated, which keeps a round short
# enough to repeat within a run.
CHECK_CENSUS_VECTORS = 80
CHECK_CENSUS_SCHEDULES = 4
CHECK_BIG = dict(n=70, topology=0, conflicts=3, conflict_seed=0, weight_seed=0, hop_bound=3,
                 w_max=100, simulated="p0", schedule_seed=0)


def setup_check(seed: int) -> list[CheckInput]:
    rng = random.Random(seed)
    inst0, prefs, system = _census()
    out = []
    for i in range(CHECK_CENSUS_VECTORS):
        w = assign_random_weights(inst0, seed=5000 + i, low=1, high=CENSUS_W_MAX)
        inst = inst0.with_weights(w)
        repair = None
        if _unsafe(inst, prefs, w):
            repair = ExactInstance(f"census-5000+{i}", inst, prefs, system, CENSUS_CFG,
                                   random_demands(inst, pairs=8, seed=5000 + i), verify=False)
        schedules = {p: [rng.randrange(1 << 30) for _ in range(CHECK_CENSUS_SCHEDULES)]
                     for p in prefs.prefixes()}
        out.append(CheckInput(inst, prefs, w, CENSUS_HOP_BOUND, schedules, repair))
    b = CHECK_BIG
    big = generate_waxman(WaxmanParams(n=b["n"], seed=b["topology"]), w_max=b["w_max"])
    w = assign_random_weights(big, seed=b["weight_seed"])
    big = big.with_weights(w)
    prefs = derive_med_preferences(big, inject_med_conflicts(big, b["conflicts"], seed=b["conflict_seed"]),
                                   hop_bound=b["hop_bound"])
    schedules = {p: [b["schedule_seed"]] if p == b["simulated"] else [] for p in prefs.prefixes()}
    out.append(CheckInput(big, prefs, w, b["hop_bound"], schedules))
    return out


def round_check(rnd: Round, inputs: list[CheckInput]) -> None:
    """The verdict of `igpfix check` per prefix, each followed by
    fair-schedule simulations. Unsafe census vectors are then repaired, as
    `igpfix repair --mode exact` would after the check reports them; the
    result line carries every end-to-end metric on every workload."""
    for c in inputs:
        for prefix, seeds in c.schedules.items():
            v = check_prefix(rnd, c.inst, c.prefs, c.w, prefix, c.hop_bound)
            for s in seeds:
                simulate_prefix(rnd, v, s)
        if c.repair is not None:
            exact_repair(rnd, c.repair)


WORKLOADS = {
    "equal-search": (setup_equal, round_equal),
    "exact-repair": (setup_exact, round_exact),
    "check-sim": (setup_check, round_check),
}
