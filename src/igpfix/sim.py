"""Asynchronous selection-dynamics simulator over totally ordered instances.

Each activation lets one node re-select its most-preferred permitted path
whose immediate suffix is currently selected by the next-hop node (the empty
path is always available at its own node). The simulator is the empirical
oscillation oracle: a safe instance must converge under every fair schedule,
and an observed recurrence of a global state with an intervening change is a
proof of oscillation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Union

import numpy as np

from .bgp_prefs import MandatedPreferences
from .netmodel import LinkKey, NetworkInstance, ValidationError
from .paths import RoutePath, enumerate_paths_multi, is_empty, path_weight
from .pspp import PsppInstance, _transitive_closure, from_total_orders


@dataclass(frozen=True)
class ProtocolState:
    """Selections per node (None = no path) plus a step counter."""

    selections: Mapping[str, Optional[RoutePath]]
    step: int = 0


@dataclass(frozen=True)
class Schedule:
    """Node-activation sequence with a fairness window.

    Seeded schedules concatenate independent random permutations of the node
    set, so every node activates at least once per window (= |nodes|) steps.
    An explicit sequence overrides the generator; fairness is then the
    caller's responsibility.
    """

    nodes: tuple[str, ...]
    window: int
    seed: int = 0
    explicit: Optional[tuple[str, ...]] = None

    def activations(self, max_steps: int) -> list[str]:
        if self.explicit is not None:
            reps = -(-max_steps // len(self.explicit))
            return (list(self.explicit) * reps)[:max_steps]
        rng = random.Random(self.seed)
        out: list[str] = []
        block = list(self.nodes)
        while len(out) < max_steps:
            rng.shuffle(block)
            out.extend(block)
        return out[:max_steps]


def fair_schedule(nodes: Iterable[str], seed: int = 0) -> Schedule:
    nodes = tuple(sorted(nodes))
    return Schedule(nodes, window=len(nodes), seed=seed)


@dataclass(frozen=True)
class Converged:
    assignment: Mapping[str, Optional[RoutePath]]
    steps: int


@dataclass(frozen=True)
class Oscillating:
    """A recurring global state with at least one selection change between
    the two occurrences; witness lists the states along the cycle."""

    witness: tuple[Mapping[str, Optional[RoutePath]], ...]
    first_step: int
    recurrence_step: int


@dataclass(frozen=True)
class Undetermined:
    steps: int


SimOutcome = Union[Converged, Oscillating, Undetermined]


def _node_order(pspp: PsppInstance, v: str) -> tuple[RoutePath, ...]:
    """Best-first candidate list for one node.

    Acyclic relation: the relation's own total order (derived, since an
    explicit order field may rank by IGP distance only). Cyclic relation:
    there is no best-first order; the explicit (IGP) order list is required
    and serves as the no-incumbent fallback sequence.
    """
    if pspp.is_cyclic_at(v):
        if pspp.order is None:
            raise ValidationError(f"node {v} has a cyclic relation and no order list")
        return tuple(pspp.order[v])
    paths = pspp.permitted[v]
    c = pspp.pref_closure(v)
    ranked = sorted(paths, key=lambda p: (sum(1 for q in paths if (q, p) in c and q != p), p))
    for i, p in enumerate(ranked):  # demand a genuine total order
        for q in ranked[i + 1 :]:
            if (p, q) not in c:
                raise ValidationError(f"preference order at {v} is not total: {p} vs {q}")
    return tuple(ranked)


class _Encoded:
    """Integer encoding of a totally ordered instance for _simulate_run."""

    def __init__(self, pspp: PsppInstance) -> None:
        nodes = set(pspp.permitted)
        for paths in pspp.permitted.values():
            for p in paths:
                if not is_empty(p):
                    nodes.add(p[1])
        self.nodes = tuple(sorted(nodes))
        self.nidx = {v: i for i, v in enumerate(self.nodes)}
        self.paths = tuple(sorted({p for ps in pspp.permitted.values() for p in ps}))
        pidx = {p: i for i, p in enumerate(self.paths)}
        ptr = [0]
        order_path: list[int] = []
        for v in self.nodes:
            for p in _node_order(pspp, v) if v in pspp.permitted else ():
                order_path.append(pidx[p])
            ptr.append(len(order_path))
        self.order_ptr = np.array(ptr, np.int64)
        self.order_path = np.array(order_path, np.int64)
        # -1 next hop marks the always-available empty path; a missing suffix
        # gets tail -2, which never matches any selection (including "none")
        self.path_next = np.array(
            [-1 if is_empty(p) else self.nidx[p[1]] for p in self.paths], np.int64
        )
        self.path_tail = np.array(
            [-1 if is_empty(p) else pidx.get(p[1:], -2) for p in self.paths], np.int64
        )
        self.node_cyclic = np.array(
            [pspp.is_cyclic_at(v) for v in self.nodes], np.bool_
        )
        # beaters of each path at cyclic nodes, in that node's list order
        doms: dict[int, list[int]] = {i: [] for i in range(len(self.paths))}
        for v in self.nodes:
            if v not in pspp.permitted or not pspp.is_cyclic_at(v):
                continue
            raw = pspp.prefs.get(v, frozenset())
            listed = _node_order(pspp, v)
            for p in pspp.permitted[v]:
                doms[pidx[p]] = [pidx[q] for q in listed if (q, p) in raw]
        dptr = [0]
        dom_path: list[int] = []
        for i in range(len(self.paths)):
            dom_path.extend(doms[i])
            dptr.append(len(dom_path))
        self.dom_ptr = np.array(dptr, np.int64)
        self.dom_path = np.array(dom_path, np.int64)

    def decode(self, sel: np.ndarray) -> dict[str, Optional[RoutePath]]:
        return {
            v: (self.paths[sel[i]] if sel[i] >= 0 else None)
            for i, v in enumerate(self.nodes)
        }


def _simulate_run(order_ptr, order_path, path_next, path_tail, node_cyclic,
                  dom_ptr, dom_path, sched, window, traj, max_steps):
    """Run the selection dynamics; record the full trajectory.

    A path is available when its immediate suffix is the current selection
    of its next hop (empty paths, next hop -1, are always available at their
    own node). A node whose preference relation is a (total) order adopts
    the first available path of its best-first order list. A node whose
    pairwise relation is cyclic has no best path: it behaves like the real
    decision process and switches relative to its incumbent — if any
    available path beats the current one (dom_ptr/dom_path list the beaters
    of each path) it adopts the first such, otherwise it keeps the incumbent;
    with no usable incumbent it takes the first available path of its list.
    Returns (converged, steps, changes) where changes[t] marks steps that
    altered a selection. Convergence: no change across 2*window steps.
    """
    n = order_ptr.shape[0] - 1
    sel = np.full(n, -1, np.int32)
    changes = np.zeros(max_steps, np.bool_)
    last_change = -1
    steps = 0
    for t in range(max_steps):
        node = sched[t]
        new = -1
        cur = sel[node]
        if node_cyclic[node] and cur >= 0:
            nh = path_next[cur]
            if nh < 0 or sel[nh] == path_tail[cur]:
                new = cur
                for j in range(dom_ptr[cur], dom_ptr[cur + 1]):
                    q = dom_path[j]
                    nq = path_next[q]
                    if nq < 0 or sel[nq] == path_tail[q]:
                        new = q
                        break
        if new < 0:
            for k in range(order_ptr[node], order_ptr[node + 1]):
                p = order_path[k]
                nh = path_next[p]
                if nh < 0 or sel[nh] == path_tail[p]:
                    new = p
                    break
        if new != sel[node]:
            sel[node] = new
            last_change = t
            changes[t] = True
        traj[t, :] = sel
        steps = t + 1
        if t - last_change >= 2 * window:
            return True, steps, changes
    return False, steps, changes


def step(state: ProtocolState, node: str, pspp: PsppInstance) -> ProtocolState:
    """One activation (reference implementation of _simulate_run's rule).

    A node with an acyclic relation adopts its best available path. A node
    whose pairwise relation is cyclic switches relative to its incumbent:
    the first listed available path beating the current one, else keeps it.
    """
    sel = dict(state.selections)

    def available(p: RoutePath) -> bool:
        return is_empty(p) or sel.get(p[1]) == p[1:]

    listed = _node_order(pspp, node) if node in pspp.permitted else ()
    new: Optional[RoutePath] = None
    cur = sel.get(node)
    if pspp.is_cyclic_at(node) and cur is not None and available(cur):
        raw = pspp.prefs.get(node, frozenset())
        new = cur
        for q in listed:
            if (q, cur) in raw and available(q):
                new = q
                break
    else:
        for p in listed:
            if available(p):
                new = p
                break
    sel[node] = new
    return ProtocolState(sel, state.step + 1)


def simulate(
    pspp: PsppInstance,
    schedule: Optional[Schedule] = None,
    max_steps: Optional[int] = None,
    seed: int = 0,
) -> SimOutcome:
    """Run the dynamics to a fixed point, an oscillation proof, or a cap.

    Converged: no selection changed over two full fairness windows.
    Oscillating: some global selection state recurred with at least one
    change in between (exact, since the state space is finite).
    Undetermined: max_steps exhausted without either verdict.
    """
    enc = _Encoded(pspp)
    if schedule is None:
        schedule = fair_schedule(enc.nodes, seed)
    if max_steps is None:
        max_steps = max(1, 10 * schedule.window * max(len(enc.paths), 1))
    acts = schedule.activations(max_steps)
    sched = np.array([enc.nidx[v] for v in acts], np.int64)
    traj = np.full((max_steps, len(enc.nodes)), -1, np.int32)
    converged, steps, changes = _simulate_run(
        enc.order_ptr, enc.order_path, enc.path_next, enc.path_tail,
        enc.node_cyclic, enc.dom_ptr, enc.dom_path,
        sched, schedule.window, traj, max_steps,
    )
    if converged:
        return Converged(enc.decode(traj[steps - 1]), steps)
    # exact recurrence scan: state bytes -> first step, with change counts
    change_prefix = np.cumsum(changes[:steps])
    seen: dict[bytes, int] = {}
    for t in range(steps):
        key = traj[t].tobytes()
        t0 = seen.get(key)
        if t0 is None:
            seen[key] = t
            continue
        if change_prefix[t] > change_prefix[t0]:
            witness = tuple(enc.decode(traj[i]) for i in range(t0, t + 1))
            return Oscillating(witness, int(t0), int(t))
    return Undetermined(steps)


def trace(
    pspp: PsppInstance,
    schedule: Schedule,
    max_steps: int,
) -> Iterator[str]:
    """Per-step selections as JSON lines (reference Python stepping)."""
    state = ProtocolState({}, 0)
    for t, node in enumerate(schedule.activations(max_steps)):
        state = step(state, node, pspp)
        sel = {
            v: (list(p) if p is not None else None) for v, p in state.selections.items()
        }
        yield json.dumps({"step": t, "node": node, "selections": sel}, sort_keys=True)


def _mandate_relation(
    prefs: MandatedPreferences, prefix: str
) -> dict[RoutePath, set[RoutePath]]:
    """Transitively closed mandated relation for one prefix (better -> worse)."""
    closed = _transitive_closure(prefs.pairs.get(prefix, frozenset()))
    succ: dict[RoutePath, set[RoutePath]] = {}
    for a, b in closed:
        succ.setdefault(a, set()).add(b)
    return succ


def weights_to_pspp(
    inst: NetworkInstance,
    prefs: Optional[MandatedPreferences],
    w: Mapping[LinkKey, Optional[int]],
    prefix: str,
    hop_bound: int = 3,
    egresses: Optional[Iterable[str]] = None,
) -> PsppInstance:
    """Instance induced by link weights plus mandates.

    Permitted paths are the bounded simple paths toward the prefix's
    egresses. Each same-source pair is compared the way the decision process
    does: the mandated verdict when one exists (the external attribute is
    decisive), otherwise by path weight with a lexicographic tie-break. The
    pairwise relation need not be transitive — exactly the conflicts the
    repair removes — and the order field carries the pure IGP ranking the
    simulator uses after mandate elimination.
    """
    if egresses is None:
        if prefs is None or prefix not in prefs.egresses:
            raise ValidationError(f"no egresses known for prefix {prefix!r}")
        egresses = prefs.egresses[prefix]
    egresses = sorted(set(egresses))
    mand = _mandate_relation(prefs, prefix) if prefs is not None else {}

    all_paths = enumerate_paths_multi(inst, egresses, hop_bound)
    by_source: dict[str, list[RoutePath]] = {}
    for p in all_paths:
        by_source.setdefault(p[0], []).append(p)

    permitted: dict[str, tuple[RoutePath, ...]] = {}
    order: dict[str, tuple[RoutePath, ...]] = {}
    relation: dict[str, frozenset[tuple[RoutePath, RoutePath]]] = {}
    mandates: dict[str, frozenset[tuple[RoutePath, RoutePath]]] = {}
    for v, paths in by_source.items():
        permitted[v] = tuple(sorted(paths))
        order[v] = tuple(sorted(paths, key=lambda p: (path_weight(p, w), p)))
        rel: set[tuple[RoutePath, RoutePath]] = set()
        mset: set[tuple[RoutePath, RoutePath]] = set()
        for i, p in enumerate(permitted[v]):
            for q in permitted[v][i + 1 :]:
                if q in mand.get(p, ()):
                    rel.add((p, q))
                    mset.add((p, q))
                elif p in mand.get(q, ()):
                    rel.add((q, p))
                    mset.add((q, p))
                elif (path_weight(p, w), p) < (path_weight(q, w), q):
                    rel.add((p, q))
                else:
                    rel.add((q, p))
        relation[v] = frozenset(rel)
        mandates[v] = frozenset(mset)
    return PsppInstance(
        prefix, frozenset(egresses), permitted, relation, order, mandates
    )
