"""Partial path-preference instances, path digraphs, safety, rank witnesses.

An instance holds, per node, the permitted paths toward a destination prefix
and a partial preference order on them. The prefix may be reachable through
several egress nodes; the empty path at each egress anchors the structure.
Safety is acyclicity of the path digraph; a rank witness is a numeric
linearization of it. Both are decided on a subgraph with the same
reachability, which build_path_digraph derives from each node's preference
order without listing its pairs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import AbstractSet, Iterable, Iterator, Mapping, Optional

import numpy as np

from .netmodel import ValidationError, link_key
from .paths import RoutePath, immediate_suffix, is_empty, links_of

PrefPair = tuple[RoutePath, RoutePath]


def _transitive_closure(pairs: Iterable[PrefPair]) -> set[PrefPair]:
    closure = set(pairs)
    changed = True
    succ: dict[RoutePath, set[RoutePath]] = {}
    for a, b in closure:
        succ.setdefault(a, set()).add(b)
    while changed:
        changed = False
        for a, bs in list(succ.items()):
            for b in list(bs):
                for c in succ.get(b, ()):
                    if c not in bs:
                        bs.add(c)
                        changed = True
    return {(a, b) for a, bs in succ.items() for b in bs}


def _by_score(beaten: Mapping[RoutePath, int]) -> Optional[tuple[RoutePath, ...]]:
    """The paths best-first when they are beaten 0, 1, ..., k-1 times, else
    None. For an antisymmetric relation that holds iff it orders every pair."""
    ranked = sorted(beaten, key=beaten.__getitem__)
    if all(beaten[p] == i for i, p in enumerate(ranked)):
        return tuple(ranked)
    return None


class OrderedPrefs(Mapping[str, frozenset[PrefPair]]):
    """Per-node tournaments, each stated as a best-first order plus the pairs
    that invert it.

    orders[v] lists v's paths; (p, q) in exceptions[v] means that p beats q
    although orders[v] lists q first. Every other pair follows the order. So
    a path is beaten by as many paths as precede it, less one per exception
    it wins and plus one per exception it loses, and the node is transitive
    iff those counts are 0, 1, ..., k-1 (Landau 1953). As a mapping it reads
    like a relation given as pair sets: a node's frozenset of (better,
    worse) pairs is built on first access, for readers that want pairs.
    """

    def __init__(
        self,
        orders: Mapping[str, tuple[RoutePath, ...]],
        exceptions: Optional[Mapping[str, AbstractSet[PrefPair]]] = None,
    ) -> None:
        self.orders = orders
        self.exceptions = exceptions if exceptions is not None else {}
        self._pairs: dict[str, frozenset[PrefPair]] = {}
        self._pos: dict[str, dict[RoutePath, int]] = {}

    def __getitem__(self, v: str) -> frozenset[PrefPair]:
        pairs = self._pairs.get(v)
        if pairs is None:
            order = self.orders[v]
            flip = self.exceptions.get(v, frozenset())
            # through a set, so that the frozenset is sized once
            pairs = self._pairs[v] = frozenset({
                (q, p) if (q, p) in flip else (p, q)
                for i, p in enumerate(order)
                for q in order[i + 1 :]
            })
        return pairs

    def __contains__(self, v: object) -> bool:
        return v in self.orders

    def __iter__(self) -> Iterator[str]:
        return iter(self.orders)

    def __len__(self) -> int:
        return len(self.orders)

    def _position(self, v: str) -> dict[RoutePath, int]:
        pos = self._pos.get(v)
        if pos is None:
            pos = self._pos[v] = {p: i for i, p in enumerate(self.orders[v])}
        return pos

    def beats(self, v: str, p: RoutePath, q: RoutePath) -> bool:
        pos = self._position(v)
        if p not in pos or q not in pos:
            return False
        exc = self.exceptions.get(v, ())
        if (p, q) in exc:
            return True
        return pos[p] < pos[q] and (q, p) not in exc

    def beaters(self, v: str) -> dict[RoutePath, set[RoutePath]]:
        """Each path of v with the paths that beat it."""
        order = self.orders[v]
        out = {p: set(order[:j]) for j, p in enumerate(order)}
        for a, b in self.exceptions.get(v, ()):
            out[a].discard(b)
            out[b].add(a)
        return out

    def best_first(self, v: str) -> Optional[tuple[RoutePath, ...]]:
        """v's paths best-first when its tournament is transitive, else
        None."""
        order = self.orders[v]
        exc = self.exceptions.get(v)
        if not exc:
            return order
        pos = self._position(v)
        beaten = list(range(len(order)))
        for a, b in exc:
            i, j = pos.get(a, -1), pos.get(b, -1)
            if j < 0 or i <= j:
                raise ValidationError(f"pair {a} over {b} at {v} does not invert its order")
            beaten[i] -= 1
            beaten[j] += 1
        ranked: list = [None] * len(order)
        for p, s in zip(order, beaten):
            if ranked[s] is not None:
                return None
            ranked[s] = p
        return tuple(ranked)

    def three_cycle(self, v: str) -> tuple[RoutePath, RoutePath, RoutePath]:
        """Three paths of a cyclic node, each beating the next and the last
        beating the first."""
        order = self.orders[v]
        pos = self._position(v)
        k = len(order)
        won: list[set[int]] = [set() for _ in range(k)]  # beaten against the order
        lost = [0] * k
        for a, b in self.exceptions[v]:
            won[pos[a]].add(pos[b])
            lost[pos[b]] += 1
        beaten = [j - len(won[j]) + lost[j] for j in range(k)]
        by_score = sorted(range(k), key=beaten.__getitem__)
        top = next(i for i, j in enumerate(by_score) if beaten[j] != i)

        def beats(i: int, j: int) -> bool:
            return j in won[i] or (i < j and i not in won[j])

        # by_score[:top] beat each other in turn and every later path, so
        # each later path is beaten by another later one. u, the first of
        # them, is beaten by the fewest, and so some path u beats beats y:
        # else y would be beaten by fewer than u
        rest = by_score[top:]
        u = rest[0]
        y = next(j for j in rest if beats(j, u))
        w = next(j for j in rest if beats(u, j) and beats(j, y))
        return order[u], order[w], order[y]

    def restrict(self, keep: AbstractSet[RoutePath], nodes: Iterable[str]) -> "OrderedPrefs":
        """The sub-tournaments over the kept paths of the given nodes."""
        nodes = set(nodes)
        return OrderedPrefs(
            {v: tuple(p for p in self.orders[v] if p in keep) for v in nodes},
            {
                v: frozenset((a, b) for a, b in exc if a in keep and b in keep)
                for v, exc in self.exceptions.items()
                if v in nodes
            },
        )


@dataclass(frozen=True)
class PsppInstance:
    """Permitted paths with per-node preference relations.

    prefs holds the raw strictly-better relation. It is usually a partial
    order (mandates only) or a total order, but it may be cyclic: the real
    decision process compares some pairs by an external attribute and the
    rest by IGP distance, and nothing forces those verdicts to be mutually
    transitive. A node with a cyclic relation is itself a preference cycle
    and shows up as such in the path digraph.

    mandates marks the subset of prefs pairs that are externally mandated
    (decisive regardless of IGP distance); the simulator's selection rule
    eliminates mandate-dominated paths before comparing the rest.

    The representation is chosen by the prefs object. An OrderedPrefs (as
    weights_to_pspp and from_total_orders build) orders every pair of each
    node's permitted paths; its orders and exceptions decide each node with
    no pair set, and a transitive node is its own closure. Any other
    mapping holds pair sets, which are closed when the instance is built;
    a node whose closure orders every pair of its permitted paths gets
    best-first ranks from its closure's scores.
    """

    destination: str
    egresses: frozenset[str]
    permitted: Mapping[str, tuple[RoutePath, ...]]
    prefs: Mapping[str, frozenset[PrefPair]]  # (p, q): p strictly better than q
    order: Optional[Mapping[str, tuple[RoutePath, ...]]] = None  # IGP-best-first
    mandates: Mapping[str, frozenset[PrefPair]] = field(default_factory=dict)
    # derived from the fields above, so never passed in: a copy made with
    # dataclasses.replace builds its own
    _closure: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _cyclic: set = field(default_factory=set, init=False, compare=False, repr=False)
    _ranked: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # the simulator's integer encoding (sim._Encoded), built on first use
    _encoded: Optional[object] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for v, paths in self.permitted.items():
            for p in paths:
                if p[0] != v:
                    raise ValidationError(f"path {p} permitted at {v} but starts at {p[0]}")
                if p[-1] not in self.egresses:
                    raise ValidationError(f"path {p} does not end at an egress")
                if len(set(p)) != len(p):
                    raise ValidationError(f"path {p} is not simple")
        if isinstance(self.prefs, OrderedPrefs):
            self._decide_orders(self.prefs)
            return
        for v, pairs in self.prefs.items():
            for a, b in pairs:
                if a == b:
                    raise ValidationError(f"reflexive preference at {v}: {a}")
                if (b, a) in pairs:
                    raise ValidationError(f"both orientations at {v}: {a} vs {b}")
            closure = self._closure[v] = _transitive_closure(pairs)
            if any(a != b and (b, a) in closure for a, b in closure):
                self._cyclic.add(v)
        for v, paths in self.permitted.items():
            if v in self._cyclic:
                continue
            closure = self.pref_closure(v)
            ranked = _by_score({p: sum((q, p) in closure for q in paths) for p in paths})
            if ranked is not None and len(ranked) == len(paths):
                self._ranked[v] = ranked

    def _decide_orders(self, prefs: OrderedPrefs) -> None:
        if len(prefs.orders) != len(self.permitted):
            raise ValidationError("the preference orders do not cover exactly the permitted nodes")
        for v, paths in self.permitted.items():
            order = prefs.orders.get(v)
            listed = set(order) if order is not None else None
            if listed is None or len(listed) != len(order) or listed != set(paths):
                raise ValidationError(f"the preference order at {v} does not list its permitted paths")
            ranked = prefs.best_first(v)
            if ranked is None:
                self._cyclic.add(v)
            else:
                self._ranked[v] = ranked

    def pref_closure(self, v: str) -> AbstractSet[PrefPair]:
        c = self._closure.get(v)
        if c is None:
            if v not in self.prefs:
                return set()
            if v in self._ranked and isinstance(self.prefs, OrderedPrefs):
                c = self.prefs[v]  # a transitive tournament is its own closure
            else:
                c = _transitive_closure(self.prefs[v])
            self._closure[v] = c
        return c

    def is_cyclic_at(self, v: str) -> bool:
        return v in self._cyclic

    def ranked(self, v: str) -> Optional[tuple[RoutePath, ...]]:
        """permitted[v] best-first when the closure of prefs[v] orders it
        totally, else None."""
        return self._ranked.get(v)

    def strictly_prefers(self, v: str, p: RoutePath, q: RoutePath) -> bool:
        if isinstance(self.prefs, OrderedPrefs):
            return v in self.prefs and self.prefs.beats(v, p, q)
        raw = self.prefs.get(v, frozenset())
        if (p, q) in raw:
            return True
        if (q, p) in raw or v in self._cyclic:
            return False  # cyclic relations contribute raw pairs only
        c = self.pref_closure(v)
        return (p, q) in c and (q, p) not in c

    def beaters(self, v: str) -> dict[RoutePath, set[RoutePath]]:
        """Each permitted path at v with the paths that beat it in the raw
        relation."""
        if isinstance(self.prefs, OrderedPrefs):
            return self.prefs.beaters(v)
        out: dict[RoutePath, set[RoutePath]] = {p: set() for p in self.permitted.get(v, ())}
        for a, b in self.prefs.get(v, ()):
            if b in out:
                out[b].add(a)
        return out

    def all_paths(self) -> list[RoutePath]:
        out: set[RoutePath] = set()
        for paths in self.permitted.values():
            out.update(paths)
        return sorted(out)

    def restrict(self, keep: Iterable[RoutePath]) -> "PsppInstance":
        """Sub-instance containing only the given paths."""
        keep = set(keep)
        permitted = {
            v: tuple(p for p in paths if p in keep)
            for v, paths in self.permitted.items()
        }
        permitted = {v: ps for v, ps in permitted.items() if ps}
        if isinstance(self.prefs, OrderedPrefs):
            prefs: Mapping[str, frozenset[PrefPair]] = self.prefs.restrict(keep, permitted)
        else:
            prefs = {
                v: frozenset((a, b) for a, b in self.prefs.get(v, frozenset())
                             if a in keep and b in keep)
                for v in permitted
            }
        order = None
        if self.order is not None:
            order = {v: tuple(p for p in self.order[v] if p in keep) for v in permitted}
        mandates = {
            v: frozenset((a, b) for a, b in self.mandates.get(v, frozenset())
                         if a in keep and b in keep)
            for v in permitted
        }
        return PsppInstance(self.destination, self.egresses, permitted, prefs, order, mandates)

    def without_node(self, node: str) -> "PsppInstance":
        return self.restrict(p for p in self.all_paths() if node not in p)

    def without_link(self, a: str, b: str) -> "PsppInstance":
        k = link_key(a, b)
        return self.restrict(p for p in self.all_paths() if k not in links_of(p))


def from_total_orders(
    destination: str,
    egresses: Iterable[str],
    order: Mapping[str, Iterable[RoutePath]],
) -> PsppInstance:
    """Instance with total preference orders given best-first per node."""
    order = {v: tuple(paths) for v, paths in order.items()}
    permitted = {v: tuple(sorted(paths)) for v, paths in order.items()}
    return PsppInstance(destination, frozenset(egresses), permitted, OrderedPrefs(order), order)


class PathDigraph:
    """Directed graph over paths: suffix arcs and strict-preference arcs.

    Built by hand from its arcs, or by build_path_digraph, which keeps only
    a reduced arc set and builds arcs, the full list of (from, to,
    "suffix"|"pref") sorted by (from, to), on first access.
    """

    def __init__(self, paths: Iterable[RoutePath], arcs: Iterable[tuple[RoutePath, RoutePath, str]]) -> None:
        self.paths = tuple(paths)
        self._arcs: Optional[tuple[tuple[RoutePath, RoutePath, str], ...]] = tuple(arcs)
        self._succ: Optional[_Successors] = None
        self._pspp: Optional[PsppInstance] = None

    @classmethod
    def _reduced(cls, paths: tuple[RoutePath, ...], succ: _Successors, pspp: PsppInstance) -> "PathDigraph":
        """A digraph held as reduced successor lists, whose full arc list
        is built from pspp when read."""
        dg = cls.__new__(cls)
        dg.paths, dg._arcs, dg._succ, dg._pspp = paths, None, succ, pspp
        return dg

    @property
    def arcs(self) -> tuple[tuple[RoutePath, RoutePath, str], ...]:
        if self._arcs is None:
            self._arcs = _full_arcs(self._pspp, self.paths)
        return self._arcs

    def _index_successors(self) -> _Successors:
        """Successor lists over path indices: the reduced arcs of a built
        digraph, else the arcs in their order."""
        if self._succ is None:
            index = {p: i for i, p in enumerate(self.paths)}
            succ: list[list[int]] = [[] for _ in self.paths]
            for a, b, _ in self.arcs:
                succ[index[a]].append(index[b])
            self._succ = _Successors(succ)
        return self._succ


class _Successors:
    """Successor lists packed into two flat arrays, a few bytes per arc:
    the successors of node i are heads[offsets[i]:offsets[i + 1]]."""

    def __init__(self, succ: list[list[int]]) -> None:
        self.heads = array("q", chain.from_iterable(succ))
        self.offsets = array("q", accumulate(map(len, succ), initial=0))


def _pref_arcs(pspp: PsppInstance, v: str) -> list[PrefPair]:
    """v's preference arcs in the full digraph: the pairs of its closure (a
    cyclic node: its raw pairs) between its permitted paths."""
    rel = pspp.prefs.get(v, ()) if pspp.is_cyclic_at(v) else pspp.pref_closure(v)
    pv = set(pspp.permitted[v])
    return [(p, q) for p, q in rel if p in pv and q in pv]


def _full_arcs(pspp: PsppInstance, paths: tuple[RoutePath, ...]) -> tuple[tuple[RoutePath, RoutePath, str], ...]:
    index = {p: i for i, p in enumerate(paths)}
    n = len(paths)
    arcs: list[tuple[RoutePath, RoutePath, str]] = []
    keys = array("q")  # tail index * n + head index, with no int object per arc
    for p, i in index.items():
        if not is_empty(p):
            j = index.get(immediate_suffix(p))
            if j is not None:
                arcs.append((paths[j], p, "suffix"))
                keys.append(j * n + i)
    for v in sorted(pspp.permitted):
        for p, q in _pref_arcs(pspp, v):
            arcs.append((p, q, "pref"))
            keys.append(index[p] * n + index[q])
    # paths are sorted, so the index pairs sort as the paths do; no suffix
    # arc joins two same-source paths, so no two arcs share a key. The
    # stable kind runs the sort code that repair and routing already use;
    # the default kind pages in about 0.3 MB more of numpy's code.
    order = np.argsort(np.frombuffer(keys, np.int64), kind="stable")
    return tuple(arcs[k] for k in order)


def build_path_digraph(pspp: PsppInstance) -> PathDigraph:
    """The path digraph: immediate suffix -> extension, and strictly
    preferred -> worse among same-source permitted paths.

    It holds a subgraph with the same reachability: the suffix arcs; at a
    node whose relation orders its permitted paths totally, the chain of
    that order; at a cyclic node of an OrderedPrefs relation, the three
    arcs of one of its 3-cycles; at any other node, the arcs of the full
    digraph. So its cycles are cycles of the full digraph, it has one
    exactly when the full digraph does, and its longest-path ranks are the
    full digraph's. arcs, the full list, is built on first access.
    """
    paths = tuple(pspp.all_paths())
    index = {p: i for i, p in enumerate(paths)}
    succ: list[list[int]] = [[] for _ in paths]
    for p, i in index.items():
        if len(p) > 1:
            j = index.get(p[1:])
            if j is not None:
                succ[j].append(i)
    ordered = isinstance(pspp.prefs, OrderedPrefs)
    for v in sorted(pspp.permitted):
        ranked = pspp.ranked(v)
        if ranked is not None:
            links = [index[p] for p in ranked]
        elif ordered:  # an OrderedPrefs node is ranked or cyclic
            links = [index[p] for p in pspp.prefs.three_cycle(v)]
            links.append(links[0])
        else:
            for p, q in sorted(_pref_arcs(pspp, v)):
                succ[index[p]].append(index[q])
            continue
        for a, b in zip(links, links[1:]):
            succ[a].append(b)
    return PathDigraph._reduced(paths, _Successors(succ), pspp)


@dataclass(frozen=True)
class SafetyResult:
    safe: bool
    cycle: Optional[tuple[RoutePath, ...]] = None  # first back-edge cycle if unsafe
    ranks: Optional[Mapping[RoutePath, int]] = None  # topological witness if safe

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.safe


def is_safe(dg: PathDigraph) -> SafetyResult:
    """Acyclicity check; returns a cycle witness or a rank witness."""
    succ = dg._index_successors()
    cycle, finished = _depth_first(succ)
    if cycle is not None:
        return SafetyResult(False, tuple(dg.paths[i] for i in cycle))
    return SafetyResult(True, None, _longest_ranks(dg.paths, succ, finished))


def rank_witness(dg: PathDigraph) -> dict[RoutePath, int]:
    """Longest-path ranks: rank strictly increases along every arc."""
    succ = dg._index_successors()
    cycle, finished = _depth_first(succ)
    if cycle is not None:
        raise ValidationError("digraph is cyclic; no rank witness exists")
    return _longest_ranks(dg.paths, succ, finished)


def _depth_first(succ: _Successors) -> tuple[Optional[list[int]], list[int]]:
    """(the cycle closed by the first back arc, []), or (None, every node in
    the order its search finished) when there is no cycle."""
    ON_STACK, DONE = 1, 2
    off, heads = succ.offsets, succ.heads
    state = bytearray(len(off) - 1)
    finished: list[int] = []
    for root in range(len(state)):
        if state[root]:
            continue
        state[root] = ON_STACK
        stack = [root]
        nexts = [iter(heads[off[root] : off[root + 1]])]
        while nexts:
            for j in nexts[-1]:
                if state[j] == ON_STACK:
                    return stack[stack.index(j) :], []
                if not state[j]:
                    state[j] = ON_STACK
                    stack.append(j)
                    nexts.append(iter(heads[off[j] : off[j + 1]]))
                    break
            else:
                nexts.pop()
                j = stack.pop()
                state[j] = DONE
                finished.append(j)
    return None, finished


def _longest_ranks(
    paths: tuple[RoutePath, ...], succ: _Successors, finished: list[int]
) -> dict[RoutePath, int]:
    """Longest-path ranks of an acyclic digraph, relaxed in topological
    order (the reverse of the depth-first finishing order)."""
    off, heads = succ.offsets, succ.heads
    ranks = [0] * len(paths)
    for i in reversed(finished):
        r = ranks[i] + 1
        for j in heads[off[i] : off[i + 1]]:
            if ranks[j] < r:
                ranks[j] = r
    return dict(zip(paths, ranks))


def validate_rank_witness(dg: PathDigraph, ranks: Mapping[RoutePath, float]) -> bool:
    """True iff rank strictly increases along every arc of dg."""
    return all(ranks[b] > ranks[a] for a, b, _ in dg.arcs)


def check_refinement(p: PsppInstance, q: PsppInstance) -> bool:
    """True iff p refines q: identical structure and every ordered pair of q
    ordered the same way in p."""
    if (
        p.destination != q.destination
        or p.egresses != q.egresses
        or set(p.permitted) != set(q.permitted)
    ):
        return False
    for v in q.permitted:
        if set(p.permitted[v]) != set(q.permitted[v]):
            return False
        pc = p.pref_closure(v)
        for pair in q.pref_closure(v):
            if pair not in pc:
                return False
    return True


def robustness_check(pspp: PsppInstance, nodes: Iterable[str], links: Iterable[tuple[str, str]]) -> bool:
    """Exhaustive sub-instance safety over single node/link removals.

    Exponential in spirit; intended for small instances only.
    """
    if not is_safe(build_path_digraph(pspp)).safe:
        return False
    for v in nodes:
        if not is_safe(build_path_digraph(pspp.without_node(v))).safe:
            return False
    for a, b in links:
        if not is_safe(build_path_digraph(pspp.without_link(a, b))).safe:
            return False
    return True


def export_digraph(dg: PathDigraph) -> str:
    """DOT text; path nodes rendered as space-joined node sequences."""
    def name(p: RoutePath) -> str:
        return '"' + " ".join(p) + '"'

    lines = ["digraph paths {"]
    for p in dg.paths:
        lines.append(f"  {name(p)};")
    for a, b, kind in dg.arcs:
        style = "solid" if kind == "suffix" else "dashed"
        lines.append(f"  {name(a)} -> {name(b)} [label={kind}, style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
