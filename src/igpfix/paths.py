"""Route paths, their weights, and bounded path enumeration.

Paths are tuples of node ids ending at the destination; the empty path at d
is the one-element tuple (d,).
"""

from __future__ import annotations

from typing import Mapping, Optional

from .netmodel import LinkKey, NetworkInstance, WeightError, link_key

RoutePath = tuple[str, ...]


def is_empty(p: RoutePath) -> bool:
    return len(p) == 1


def destination(p: RoutePath) -> str:
    return p[-1]


def links_of(p: RoutePath) -> list[LinkKey]:
    return [link_key(p[i], p[i + 1]) for i in range(len(p) - 1)]


def immediate_suffix(p: RoutePath) -> RoutePath:
    if is_empty(p):
        raise ValueError("empty path has no suffix")
    return p[1:]


def suffixes(p: RoutePath) -> list[RoutePath]:
    """All suffixes of p including p itself and the empty path."""
    return [p[i:] for i in range(len(p))]


def path_weight(p: RoutePath, w: Mapping[LinkKey, Optional[int]]) -> int:
    """Sum of link weights along p; 0 for the empty path."""
    total = 0
    for a, b in zip(p, p[1:]):
        k = link_key(a, b)
        x = w.get(k)
        if x is None:
            raise WeightError(f"unknown weight on link {k}")
        total += x
    return total


def enumerate_paths(inst: NetworkInstance, d: str, hop_bound: int) -> list[RoutePath]:
    """All simple paths to d with at most hop_bound links, plus the empty
    path, in lexicographic order."""
    if hop_bound < 1:
        raise ValueError("hop_bound must be >= 1")
    if d not in inst.nodes:
        raise KeyError(f"destination {d!r} not in instance")
    found: list[RoutePath] = [(d,)]

    def extend(p: RoutePath) -> None:
        # p currently starts at p[0]; grow backwards toward new sources
        if len(p) - 1 >= hop_bound:
            return
        for u in inst.neighbors(p[0]):
            if u not in p:
                q = (u,) + p
                found.append(q)
                extend(q)

    extend((d,))
    return sorted(found)


def enumerate_paths_multi(
    inst: NetworkInstance, egresses: list[str], hop_bound: int
) -> list[RoutePath]:
    """Union of bounded simple paths toward each egress, lexicographic."""
    out: set[RoutePath] = set()
    for e in egresses:
        out.update(enumerate_paths(inst, e, hop_bound))
    return sorted(out)
