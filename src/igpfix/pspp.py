"""Partial path-preference instances, path digraphs, safety, rank witnesses.

An instance holds, per node, the permitted paths toward a destination prefix
and a partial preference order on them. The prefix may be reachable through
several egress nodes; the empty path at each egress anchors the structure.
Safety is acyclicity of the path digraph; a rank witness is a numeric
linearization of it.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Mapping, Optional

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


def _beaten_counts(
    pairs: frozenset[PrefPair], paths: tuple[RoutePath, ...]
) -> Optional[dict[RoutePath, int]]:
    """How many pairs beat each path, when pairs order every pair of the
    distinct paths exactly once (a tournament); None otherwise. pairs must
    hold no reflexive pair and no pair in both orientations."""
    k = len(paths)
    if len(pairs) != k * (k - 1) // 2:
        return None
    beaten = dict.fromkeys(paths, 0)
    if len(beaten) != k:
        return None
    for a, b in pairs:
        if a not in beaten or b not in beaten:
            return None
        beaten[b] += 1
    return beaten


def _by_score(beaten: Mapping[RoutePath, int]) -> Optional[tuple[RoutePath, ...]]:
    """The paths best-first when they are beaten 0, 1, ..., k-1 times, else
    None. For a tournament that holds iff it is transitive (Landau 1953);
    for an antisymmetric relation iff it orders every pair."""
    ranked = sorted(beaten, key=beaten.__getitem__)
    if all(beaten[p] == i for i, p in enumerate(ranked)):
        return tuple(ranked)
    return None


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

    A relation that orders every pair of permitted[v] exactly once (a
    tournament, as weights_to_pspp builds) is never closed eagerly: it is
    acyclic iff its paths are beaten 0, 1, ..., k-1 times, and then it is
    its own closure and that count is each path's best-first rank. Other
    relations are closed when the instance is built, and ranked the same
    way on their closure when it orders every pair of permitted paths.
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
        for v, pairs in self.prefs.items():
            for a, b in pairs:
                if a == b:
                    raise ValidationError(f"reflexive preference at {v}: {a}")
                if (b, a) in pairs:
                    raise ValidationError(f"both orientations at {v}: {a} vs {b}")
            beaten = _beaten_counts(pairs, self.permitted.get(v, ()))
            if beaten is not None:
                # a tournament: acyclic iff transitive iff its scores are
                # 0..k-1; a cyclic one is closed only on demand
                ranked = _by_score(beaten)
                if ranked is None:
                    self._cyclic.add(v)
                else:
                    self._closure[v] = pairs
                    self._ranked[v] = ranked
                continue
            closure = self._closure[v] = _transitive_closure(pairs)
            if any(a != b and (b, a) in closure for a, b in closure):
                self._cyclic.add(v)
        for v, paths in self.permitted.items():
            if v in self._ranked or v in self._cyclic:
                continue
            closure = self.pref_closure(v)
            ranked = _by_score({p: sum((q, p) in closure for q in paths) for p in paths})
            if ranked is not None and len(ranked) == len(paths):
                self._ranked[v] = ranked

    def pref_closure(self, v: str) -> AbstractSet[PrefPair]:
        c = self._closure.get(v)
        if c is None:
            if v not in self.prefs:
                return set()
            c = self._closure[v] = _transitive_closure(self.prefs[v])
        return c

    def is_cyclic_at(self, v: str) -> bool:
        return v in self._cyclic

    def ranked(self, v: str) -> Optional[tuple[RoutePath, ...]]:
        """permitted[v] best-first when the closure of prefs[v] orders it
        totally, else None."""
        return self._ranked.get(v)

    def strictly_prefers(self, v: str, p: RoutePath, q: RoutePath) -> bool:
        raw = self.prefs.get(v, frozenset())
        if (p, q) in raw:
            return True
        if (q, p) in raw or v in self._cyclic:
            return False  # cyclic relations contribute raw pairs only
        c = self.pref_closure(v)
        return (p, q) in c and (q, p) not in c

    def all_paths(self) -> list[RoutePath]:
        out: set[RoutePath] = set()
        for paths in self.permitted.values():
            out.update(paths)
        return sorted(out)

    def is_total(self) -> bool:
        for v, paths in self.permitted.items():
            c = self.pref_closure(v)
            for i, p in enumerate(paths):
                for q in paths[i + 1 :]:
                    if (p, q) not in c and (q, p) not in c:
                        return False
        return True

    def restrict(self, keep: Iterable[RoutePath]) -> "PsppInstance":
        """Sub-instance containing only the given paths."""
        keep = set(keep)
        permitted = {
            v: tuple(p for p in paths if p in keep)
            for v, paths in self.permitted.items()
        }
        permitted = {v: ps for v, ps in permitted.items() if ps}
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
    prefs = {
        v: frozenset(
            (paths[i], paths[j])
            for i in range(len(paths))
            for j in range(i + 1, len(paths))
        )
        for v, paths in order.items()
    }
    return PsppInstance(destination, frozenset(egresses), permitted, prefs, order)


@dataclass(frozen=True)
class PathDigraph:
    """Directed graph over paths: suffix arcs and strict-preference arcs."""

    paths: tuple[RoutePath, ...]
    arcs: tuple[tuple[RoutePath, RoutePath, str], ...]  # (from, to, "suffix"|"pref")

    def successors(self) -> dict[RoutePath, list[tuple[RoutePath, str]]]:
        succ: dict[RoutePath, list[tuple[RoutePath, str]]] = {p: [] for p in self.paths}
        for a, b, kind in self.arcs:
            succ[a].append((b, kind))
        return succ


def build_path_digraph(pspp: PsppInstance) -> PathDigraph:
    """Arcs: immediate suffix -> extension, and strictly-preferred -> worse
    among same-source permitted paths, sorted by (tail, head)."""
    paths = tuple(pspp.all_paths())
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
        # a cyclic relation contributes its raw pairs only
        rel = pspp.prefs.get(v, ()) if pspp.is_cyclic_at(v) else pspp.pref_closure(v)
        pv = set(pspp.permitted[v])
        for p, q in rel:
            if p in pv and q in pv:
                arcs.append((p, q, "pref"))
                keys.append(index[p] * n + index[q])
    # paths are sorted, so the index pairs sort as the paths do; no suffix
    # arc joins two same-source paths, so no two arcs share a key. The
    # stable kind runs the sort code that repair and routing already use;
    # the default kind pages in about 0.3 MB more of numpy's code.
    order = np.argsort(np.frombuffer(keys, np.int64), kind="stable")
    return PathDigraph(paths, tuple(arcs[k] for k in order))


@dataclass(frozen=True)
class SafetyResult:
    safe: bool
    cycle: Optional[tuple[RoutePath, ...]] = None  # first back-edge cycle if unsafe
    ranks: Optional[Mapping[RoutePath, int]] = None  # topological witness if safe

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.safe


def is_safe(dg: PathDigraph) -> SafetyResult:
    """Acyclicity check; returns a cycle witness or a rank witness."""
    succ = dg.successors()
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {p: WHITE for p in dg.paths}
    parent: dict[RoutePath, Optional[RoutePath]] = {}
    for root in dg.paths:
        if color[root] != WHITE:
            continue
        stack: list[tuple[RoutePath, int]] = [(root, 0)]
        parent[root] = None
        color[root] = GRAY
        while stack:
            node, idx = stack[-1]
            nbrs = succ[node]
            if idx < len(nbrs):
                stack[-1] = (node, idx + 1)
                nxt = nbrs[idx][0]
                if color[nxt] == GRAY:
                    # back edge: unwind the explicit stack for the cycle
                    cyc = [nxt]
                    cur = node
                    while cur != nxt:
                        cyc.append(cur)
                        cur = parent[cur]
                    cyc.reverse()
                    return SafetyResult(False, tuple(cyc))
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
                stack.pop()
    return SafetyResult(True, None, _longest_ranks(dg, succ))


def rank_witness(dg: PathDigraph) -> dict[RoutePath, int]:
    """Longest-path ranks: rank strictly increases along every arc."""
    return _longest_ranks(dg, dg.successors())


def _longest_ranks(
    dg: PathDigraph, succ: Mapping[RoutePath, list[tuple[RoutePath, str]]]
) -> dict[RoutePath, int]:
    indeg = {p: 0 for p in dg.paths}
    for _, b, _ in dg.arcs:
        indeg[b] += 1
    ranks = {p: 0 for p in dg.paths}
    queue = deque(sorted(p for p in dg.paths if indeg[p] == 0))
    done = 0
    while queue:
        p = queue.popleft()
        done += 1
        for q, _ in succ[p]:
            ranks[q] = max(ranks[q], ranks[p] + 1)
            indeg[q] -= 1
            if indeg[q] == 0:
                queue.append(q)
    if done != len(dg.paths):
        raise ValidationError("digraph is cyclic; no rank witness exists")
    return ranks


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
