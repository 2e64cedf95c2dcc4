import itertools

import pytest

from igpfix.netmodel import Link, NetworkInstance
from igpfix.paths import (
    WeightError,
    enumerate_paths,
    enumerate_paths_multi,
    immediate_suffix,
    is_empty,
    links_of,
    path_weight,
    suffixes,
)


def _square():
    # a-b, b-d, a-c, c-d: two equal-cost routes a->d when symmetric
    links = (
        Link("a", "b", 1, 1.0),
        Link("b", "d", 1, 1.0),
        Link("a", "c", 1, 1.0),
        Link("c", "d", 1, 1.0),
    )
    return NetworkInstance(("a", "b", "c", "d"), links, 10)


def test_path_primitives():
    p = ("x", "y", "z")
    assert not is_empty(p) and is_empty(("z",))
    assert links_of(p) == [("x", "y"), ("y", "z")]
    assert immediate_suffix(p) == ("y", "z")
    assert suffixes(p) == [("x", "y", "z"), ("y", "z"), ("z",)]
    with pytest.raises(ValueError):
        immediate_suffix(("z",))


def test_path_weight_and_unknown():
    w = {("a", "b"): 2, ("b", "d"): 3}
    assert path_weight(("a", "b", "d"), w) == 5
    assert path_weight(("d",), w) == 0
    with pytest.raises(WeightError):
        path_weight(("a", "c"), w)


def _all_simple_paths(inst, d, hop_bound):
    """Oracle: filter every node permutation that forms a valid path to d."""
    out = {(d,)}
    nodes = list(inst.nodes)
    for r in range(2, hop_bound + 2):
        for perm in itertools.permutations(nodes, r):
            if perm[-1] != d:
                continue
            if all(inst.has_link(perm[i], perm[i + 1]) for i in range(r - 1)):
                out.add(perm)
    return sorted(out)


def test_enumerate_paths_matches_bruteforce():
    inst = _square()
    for hb in (1, 2, 3):
        assert enumerate_paths(inst, "d", hb) == _all_simple_paths(inst, "d", hb)


def test_enumerate_paths_multi_is_union():
    inst = _square()
    union = sorted(set(enumerate_paths(inst, "b", 2)) | set(enumerate_paths(inst, "c", 2)))
    assert enumerate_paths_multi(inst, ["b", "c"], 2) == union


def test_enumerate_paths_bad_args():
    inst = _square()
    with pytest.raises(ValueError):
        enumerate_paths(inst, "d", 0)
    with pytest.raises(KeyError):
        enumerate_paths(inst, "zz", 2)
