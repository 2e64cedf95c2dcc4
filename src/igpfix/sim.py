"""Asynchronous selection-dynamics simulator over totally ordered instances.

Each activation lets one node re-select its most-preferred permitted path
whose immediate suffix is currently selected by the next-hop node (the empty
path is always available at its own node). The simulator is the empirical
oscillation oracle: a safe instance must converge under every fair schedule,
and a recurrence of a global state whose repeated segment is fair and holds
a change is a proof of oscillation.
"""

from __future__ import annotations

import json
import random
from array import array
from dataclasses import dataclass
from itertools import cycle, islice
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

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

    Seeded schedules concatenate random permutations of the node set, drawn
    by successive shuffles of one `random.Random(seed)`, so every node
    activates at least once per window (= |nodes|) steps. An explicit
    sequence overrides the generator and is cycled. Either way the sequence
    is drawn lazily and is fully determined by the schedule, so a run can be
    replayed. An explicit sequence need not be fair: `simulate` reports an
    oscillation only when the repeated segment is fair, and convergence only
    at a fixed point.
    """

    nodes: tuple[str, ...]
    window: int
    seed: int = 0
    explicit: Optional[tuple[str, ...]] = None

    def stream(self) -> Iterator[str]:
        """The endless activation sequence."""
        if self.explicit is not None:
            return cycle(self.explicit)
        return _shuffled_blocks(list(self.nodes), random.Random(self.seed))

    def activations(self, max_steps: int) -> list[str]:
        return list(islice(self.stream(), max_steps))


def _shuffled_blocks(block: list[str], rng: random.Random) -> Iterator[str]:
    while block:
        rng.shuffle(block)
        yield from block


def fair_schedule(nodes: Iterable[str], seed: int = 0) -> Schedule:
    nodes = tuple(sorted(nodes))
    return Schedule(nodes, window=len(nodes), seed=seed)


@dataclass(frozen=True)
class Converged:
    assignment: Mapping[str, Optional[RoutePath]]
    steps: int


@dataclass(frozen=True)
class Oscillating:
    """A fair recurrence: the global state after step first_step recurs
    after step recurrence_step, with a selection change in between, and
    every node is activated in between or stable in one of the states.
    Repeating that segment forever is a fair schedule that never converges.
    witness lists the states after steps first_step..recurrence_step."""

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
    ranked = pspp.ranked(v)
    if ranked is None:
        raise ValidationError(f"preference order at {v} is not total")
    return ranked


class _Encoded:
    """Integer encoding of a totally ordered instance: nodes and paths are
    indices, a selection state is a list of path indices (-1 = none)."""

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
        # each path as (index, next hop, suffix index): next hop -1 marks the
        # always-available empty path; a missing suffix gets -2, which never
        # matches any selection (including "none")
        self.cand = cand = [
            (i, -1, -1) if is_empty(p) else (i, self.nidx[p[1]], pidx.get(p[1:], -2))
            for i, p in enumerate(self.paths)
        ]
        self.order = [
            [cand[pidx[p]] for p in _node_order(pspp, v)] if v in pspp.permitted else []
            for v in self.nodes
        ]
        # beaters of each path at a cyclic node, in that node's list order;
        # None at nodes whose relation is an order
        self.beaters: list[Optional[list]] = [None] * len(self.paths)
        for v in self.nodes:
            if v not in pspp.permitted or not pspp.is_cyclic_at(v):
                continue
            raw = pspp.prefs.get(v, frozenset())
            listed = _node_order(pspp, v)
            for p in pspp.permitted[v]:
                self.beaters[pidx[p]] = [cand[pidx[q]] for q in listed if (q, p) in raw]

    def choose(self, v: int, sel: list[int]) -> int:
        """The path node v adopts when activated in state sel.

        A path is available when its immediate suffix is the current
        selection of its next hop. A node whose preference relation is a
        (total) order adopts the first available path of its best-first
        list. A node whose pairwise relation is cyclic has no best path: it
        behaves like the real decision process and switches relative to its
        incumbent. If an available path beats the current one it adopts the
        first such, otherwise it keeps the incumbent; with no usable
        incumbent it takes the first available path of its list.
        """
        cur = sel[v]
        if cur >= 0 and self.beaters[cur] is not None:
            _, nh, tail = self.cand[cur]
            if nh < 0 or sel[nh] == tail:
                for q, nq, tq in self.beaters[cur]:
                    if nq < 0 or sel[nq] == tq:
                        return q
                return cur
        for p, nh, tail in self.order[v]:
            if nh < 0 or sel[nh] == tail:
                return p
        return -1

    def decode(self, sel: list[int]) -> dict[str, Optional[RoutePath]]:
        return {v: (self.paths[s] if s >= 0 else None) for v, s in zip(self.nodes, sel)}


def _simulate_run(enc: _Encoded, schedule: Schedule, max_steps: int) -> SimOutcome:
    """Run the selection dynamics online, in memory bounded by the number of
    distinct states seen.

    stream() draws the schedule's activations as node indices, the same
    sequence on every call, so a segment can be replayed. Each state that a
    step changes is keyed as bytes and mapped to the step it first held
    after. A recurrence (necessarily with a change in between) ends the run
    when its segment is fair, see _fair; an unfair one keeps the run going.
    Convergence: no change across 2*window steps, and no node would move if
    activated. A quiet state that is not a fixed point (a node the schedule
    skips could still move) keeps the run going; it is tested again only
    after the next change.
    """

    def stream() -> Iterator[int]:
        return map(enc.nidx.__getitem__, schedule.stream())

    n = len(enc.nodes)
    window = schedule.window
    choose = enc.choose
    sel = [-1] * n
    npaths = len(enc.paths)
    key = array("B" if npaths < 255 else "H" if npaths < 65535 else "L", [0]) * n
    seen: dict[bytes, int] = {}
    last_act = [-1] * n
    last_change = -1
    stale_at = -2  # last_change when the quiet state was found not to be a fixed point
    t = -1
    for t, v in enumerate(islice(stream(), max_steps)):
        last_act[v] = t
        new = choose(v, sel)
        if new != sel[v]:
            sel[v] = new
            key[v] = new + 1
            last_change = t
            t0 = seen.setdefault(key.tobytes(), t)
            if t0 != t and _fair(enc, stream, sel, last_act, t0, t):
                return Oscillating(_replay(enc, stream(), t0, t), t0, t)
        elif t == 0:  # the state after a first step that changed nothing
            seen[key.tobytes()] = 0
        if t - last_change >= 2 * window and stale_at != last_change:
            if all(choose(u, sel) == sel[u] for u in range(n)):
                return Converged(enc.decode(sel), t + 1)
            stale_at = last_change  # a node the schedule skips could still move
    return Undetermined(t + 1)


def _fair(
    enc: _Encoded,
    stream: Callable[[], Iterator[int]],
    sel: list[int],
    last_act: list[int],
    t0: int,
    t: int,
) -> bool:
    """Whether the segment between two occurrences of state sel (after
    steps t0 and t) is fair: each node is activated after t0 or stable in
    one of the segment's states. Nodes left unactivated keep their
    selection, so they are tested along a replay of the segment from sel.
    Under a schedule that activates every node once per window, only a
    segment shorter than two windows needs the replay."""
    if min(last_act) > t0:
        return True
    stale = [u for u, a in enumerate(last_act) if a <= t0 and enc.choose(u, sel) != sel[u]]
    if not stale:
        return True
    state = list(sel)
    for v in islice(stream(), t0 + 1, t + 1):
        state[v] = enc.choose(v, state)
        stale = [u for u in stale if enc.choose(u, state) != state[u]]
        if not stale:
            return True
    return False


def _replay(enc: _Encoded, acts: Iterator[int], t0: int, t: int) -> tuple[dict, ...]:
    """The states after steps t0..t, replayed from step 0."""
    state = [-1] * len(enc.nodes)
    witness = []
    for s, v in enumerate(islice(acts, t + 1)):
        state[v] = enc.choose(v, state)
        if s >= t0:
            witness.append(enc.decode(state))
    return tuple(witness)


def step(state: ProtocolState, node: str, pspp: PsppInstance) -> ProtocolState:
    """One activation (reference implementation of _Encoded.choose).

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

    The schedule is drawn lazily and the run stops at the first verdict, in
    memory bounded by the number of distinct states seen (not by
    max_steps x nodes).
    Converged: no selection changed over two full fairness windows, and the
    state is a fixed point (no node would move if activated).
    Oscillating: the first fair recurrence of a global selection state with
    a change in between, detected online (exact, since the state space is
    finite). Its witness is rebuilt by replaying the schedule.
    Undetermined: max_steps exhausted without either verdict.
    """
    enc = pspp._encoded
    if enc is None:  # encoded once per instance, then shared by every run
        enc = _Encoded(pspp)
        object.__setattr__(pspp, "_encoded", enc)
    if schedule is None:
        schedule = fair_schedule(enc.nodes, seed)
    if max_steps is None:
        max_steps = max(1, 10 * schedule.window * max(len(enc.paths), 1))
    return _simulate_run(enc, schedule, max_steps)


def trace(
    pspp: PsppInstance,
    schedule: Schedule,
    max_steps: int,
) -> Iterator[str]:
    """Per-step selections as JSON lines (reference Python stepping)."""
    state = ProtocolState({}, 0)
    for t, node in enumerate(islice(schedule.stream(), max_steps)):
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
        key = {p: (path_weight(p, w), p) for p in paths}
        permitted[v] = tuple(sorted(paths))
        order[v] = tuple(sorted(paths, key=key.__getitem__))
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
                elif key[p] < key[q]:
                    rel.add((p, q))
                else:
                    rel.add((q, p))
        relation[v] = frozenset(rel)
        mandates[v] = frozenset(mset)
    return PsppInstance(
        prefix, frozenset(egresses), permitted, relation, order, mandates
    )
