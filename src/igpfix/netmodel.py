"""Network instance and demand data model, file I/O, Waxman generation."""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from typing import Mapping, Optional

LinkKey = tuple[str, str]


class ValidationError(Exception):
    """Instance or demand data violates a structural invariant."""


class ParseError(Exception):
    """Input file is malformed."""


class WeightError(Exception):
    """A required link weight is unknown or invalid."""


def link_key(a: str, b: str) -> LinkKey:
    """Canonical undirected link key (sorted endpoint pair)."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Link:
    a: str
    b: str
    weight: Optional[int]  # None = unknown, to be set by the repair pipeline
    capacity: float

    @property
    def key(self) -> LinkKey:
        return link_key(self.a, self.b)


@dataclass
class NetworkInstance:
    """Undirected weighted graph with per-link capacity and a weight cap.

    Immutable after construction; safe to share across threads.
    """

    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    w_max: int
    _adj: dict[str, list[str]] = field(init=False, repr=False)
    _by_key: dict[LinkKey, Link] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.nodes = tuple(self.nodes)
        self.links = tuple(self.links)
        adj: dict[str, list[str]] = {v: [] for v in self.nodes}
        by_key: dict[LinkKey, Link] = {}
        for ln in self.links:
            if ln.a == ln.b:
                raise ValidationError(f"self-loop on node {ln.a!r}")
            if ln.a not in adj or ln.b not in adj:
                raise ValidationError(f"link {ln.key} references unknown node")
            if ln.key in by_key:
                raise ValidationError(f"duplicate link {ln.key}")
            if ln.weight is not None and not (0 <= ln.weight <= self.w_max):
                raise ValidationError(
                    f"weight {ln.weight} on {ln.key} outside [0, {self.w_max}]"
                )
            by_key[ln.key] = ln
            adj[ln.a].append(ln.b)
            adj[ln.b].append(ln.a)
        for v in adj:
            adj[v].sort()
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_by_key", by_key)
        if self.w_max < 1:
            raise ValidationError("w_max must be a positive integer")
        self._check_connected()

    def _check_connected(self) -> None:
        if not self.nodes:
            raise ValidationError("instance has no nodes")
        seen = {self.nodes[0]}
        stack = [self.nodes[0]]
        while stack:
            for u in self._adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(self.nodes):
            missing = sorted(set(self.nodes) - seen)
            raise ValidationError(f"graph is disconnected; unreachable: {missing}")

    def neighbors(self, v: str) -> list[str]:
        return self._adj[v]

    def link(self, a: str, b: str) -> Link:
        return self._by_key[link_key(a, b)]

    def has_link(self, a: str, b: str) -> bool:
        return link_key(a, b) in self._by_key

    def link_keys(self) -> list[LinkKey]:
        return sorted(self._by_key)

    def initial_weights(self) -> dict[LinkKey, Optional[int]]:
        return {k: self._by_key[k].weight for k in self.link_keys()}

    def unknown_links(self) -> list[LinkKey]:
        return [k for k, ln in sorted(self._by_key.items()) if ln.weight is None]

    def with_weights(self, w: Mapping[LinkKey, int]) -> "NetworkInstance":
        links = tuple(
            Link(ln.a, ln.b, w.get(ln.key, ln.weight), ln.capacity) for ln in self.links
        )
        return NetworkInstance(self.nodes, links, self.w_max)


@dataclass(frozen=True)
class DemandMatrix:
    """Traffic demand in Mbps per (source, destination) pair."""

    entries: Mapping[tuple[str, str], float]

    def validate(self, inst: NetworkInstance) -> None:
        nodes = set(inst.nodes)
        for (s, d), mbps in self.entries.items():
            if s not in nodes or d not in nodes:
                raise ValidationError(f"demand {s}->{d} references unknown node")
            if mbps < 0:
                raise ValidationError(f"negative demand {s}->{d}")

    def destinations(self) -> list[str]:
        return sorted({d for (_, d) in self.entries})


@dataclass(frozen=True)
class WaxmanParams:
    n: int
    alpha: float = 0.15
    beta: float = 0.5
    seed: int = 0
    high_bw: float = 25000.0
    low_bw: float = 10000.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValidationError("Waxman n must be >= 2")
        if not (0 < self.alpha <= 1) or not (0 < self.beta <= 1):
            raise ValidationError("alpha and beta must lie in (0, 1]")


def waxman_link_probability(dist: float, alpha: float, beta: float, scale: float) -> float:
    """Connection probability alpha * exp(-d / (beta * L))."""
    return alpha * math.exp(-dist / (beta * scale))


def generate_waxman(params: WaxmanParams, w_max: int = 100, max_attempts: int = 100) -> NetworkInstance:
    """Random Waxman topology in the unit square, regenerated until connected.

    Link bandwidth is a pure function of Euclidean length: links shorter than
    L/2 get high_bw, longer ones low_bw, with L = sqrt(2) * max pairwise
    distance. Weights are left unknown. Deterministic per seed.
    """
    rng = random.Random(params.seed)
    names = [f"n{i}" for i in range(params.n)]
    for _ in range(max_attempts):
        pos = {v: (rng.random(), rng.random()) for v in names}
        dists = {}
        dmax = 0.0
        for i, u in enumerate(names):
            for v in names[i + 1 :]:
                d = math.dist(pos[u], pos[v])
                dists[(u, v)] = d
                dmax = max(dmax, d)
        scale = math.sqrt(2) * dmax
        links = []
        for (u, v), d in sorted(dists.items()):
            if rng.random() < waxman_link_probability(d, params.alpha, params.beta, scale):
                bw = params.high_bw if d < scale / 2 else params.low_bw
                links.append(Link(u, v, None, bw))
        try:
            return NetworkInstance(tuple(names), tuple(links), w_max)
        except ValidationError:
            continue
    raise ValidationError(
        f"no connected Waxman graph after {max_attempts} attempts (n={params.n})"
    )


def assign_random_weights(
    inst: NetworkInstance, seed: int, low: int = 1, high: Optional[int] = None
) -> dict[LinkKey, int]:
    """Uniform random integer weights in [low, high] for every link."""
    rng = random.Random(seed)
    high = inst.w_max if high is None else high
    return {k: rng.randint(low, high) for k in inst.link_keys()}


def load_instance(path: str) -> NetworkInstance:
    """Load a topology file: JSON with nodes, edges, w_max.

    Edge weights are decimal integers or the string "unknown".
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read topology {path}: {exc}") from exc
    try:
        nodes = tuple(str(v) for v in doc["nodes"])
        w_max = int(doc["w_max"])
        links = []
        for e in doc["edges"]:
            raw = e["weight"]
            if raw == "unknown":
                weight = None
            else:
                weight = int(raw)
            links.append(Link(str(e["a"]), str(e["b"]), weight, float(e["capacity"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed topology {path}: {exc}") from exc
    return NetworkInstance(nodes, tuple(links), w_max)


def save_instance(inst: NetworkInstance, path: str) -> None:
    doc = {
        "nodes": list(inst.nodes),
        "edges": [
            {
                "a": ln.a,
                "b": ln.b,
                "weight": "unknown" if ln.weight is None else ln.weight,
                "capacity": ln.capacity,
            }
            for ln in inst.links
        ],
        "w_max": inst.w_max,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_demands(path: str, inst: Optional[NetworkInstance] = None) -> DemandMatrix:
    """Load a demand CSV with columns src,dst,mbps (header optional)."""
    entries: dict[tuple[str, str], float] = {}
    try:
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].strip().lower() == "src":
                    continue
                if len(row) != 3:
                    raise ParseError(f"demand row needs 3 fields: {row}")
                s, d, mbps = row[0].strip(), row[1].strip(), float(row[2])
                entries[(s, d)] = entries.get((s, d), 0.0) + mbps
    except OSError as exc:
        raise ParseError(f"cannot read demands {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"malformed demands {path}: {exc}") from exc
    dm = DemandMatrix(entries)
    if inst is not None:
        dm.validate(inst)
    return dm


def save_demands(dm: DemandMatrix, path: str) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["src", "dst", "mbps"])
        for (s, d), mbps in sorted(dm.entries.items()):
            wr.writerow([s, d, mbps])


def random_demands(inst: NetworkInstance, pairs: int, seed: int, low: float = 100.0, high: float = 2000.0) -> DemandMatrix:
    """Random demand matrix over distinct node pairs."""
    rng = random.Random(seed)
    entries: dict[tuple[str, str], float] = {}
    nodes = list(inst.nodes)
    attempts = 0
    while len(entries) < pairs and attempts < pairs * 20:
        s, d = rng.sample(nodes, 2)
        if (s, d) not in entries:
            entries[(s, d)] = rng.uniform(low, high)
        attempts += 1
    return DemandMatrix(entries)
