import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchrom.errors import InvalidMatching, NotAugmenting
from bchrom.graph import Graph, path_graph
from bchrom.matching import (
    augment,
    find_short_augmenting,
    is_strongly_maximal,
    s1_s2,
)
from bchrom.oracle import min_length_augmenting_path, oracle_shortest_augmenting

from conftest import random_graph_corpus

P6 = path_graph(6)


def _random_matching(g: Graph, rng: random.Random) -> frozenset:
    edges = list(g.edges)
    rng.shuffle(edges)
    used = set()
    out = []
    for u, v in edges:
        if u not in used and v not in used and rng.random() < 0.6:
            used.update((u, v))
            out.append((u, v))
    return frozenset(out)


def test_is_strongly_maximal_examples():
    assert is_strongly_maximal(P6, frozenset({(1, 2), (3, 4)}))
    assert not is_strongly_maximal(P6, frozenset({(2, 3)}))
    assert not is_strongly_maximal(path_graph(2), frozenset())


def test_invalid_matching_rejected():
    with pytest.raises(InvalidMatching):
        is_strongly_maximal(P6, frozenset({(0, 2)}))
    with pytest.raises(InvalidMatching):
        is_strongly_maximal(P6, frozenset({(0, 1), (1, 2)}))


def test_find_short_augmenting_examples():
    # 0 and 1 are both unmatched, so the single edge (0,1) wins over any
    # length-3 witness such as 1-2-3-4
    assert find_short_augmenting(P6, frozenset({(2, 3)})) == (0, 1)
    assert find_short_augmenting(P6, frozenset({(1, 2), (3, 4)})) is None
    assert find_short_augmenting(path_graph(2), frozenset()) == (0, 1)
    # a length-3 witness is produced when no single edge augments
    p4 = path_graph(4)
    assert find_short_augmenting(p4, frozenset({(1, 2)})) == (0, 1, 2, 3)


def test_min_length_augmenting_examples():
    assert min_length_augmenting_path(P6, frozenset({(1, 2), (3, 4)})) == (
        0,
        1,
        2,
        3,
        4,
        5,
    )
    assert min_length_augmenting_path(P6, frozenset({(2, 3)})) == (0, 1)
    assert min_length_augmenting_path(path_graph(2), frozenset({(0, 1)})) is None


def test_augment_examples():
    m = frozenset({(1, 2), (3, 4)})
    assert augment(m, (0, 1, 2, 3, 4, 5)) == frozenset({(0, 1), (2, 3), (4, 5)})
    assert augment(frozenset(), (0, 1)) == frozenset({(0, 1)})
    with pytest.raises(NotAugmenting):
        augment(m, (0, 1))


def test_s1_s2_examples():
    assert s1_s2(P6, frozenset({(2, 3)})) == (4, 1)
    assert s1_s2(P6, frozenset({(1, 2), (3, 4)})) == (0, 0)
    assert s1_s2(P6, frozenset()) == (6, 0)


def test_min_length_against_oracle():
    rng = random.Random(31)
    for g in random_graph_corpus(120, 9, seed=32):
        m = _random_matching(g, rng)
        got = min_length_augmenting_path(g, m)
        want = oracle_shortest_augmenting(g, m)
        if want is None:
            assert got is None
        else:
            assert got is not None and len(got) - 1 == want


def test_min_length_path_is_augmenting():
    rng = random.Random(41)
    for g in random_graph_corpus(80, 9, seed=42):
        m = _random_matching(g, rng)
        p = min_length_augmenting_path(g, m)
        if p is not None:
            bigger = augment(m, p)
            assert len(bigger) == len(m) + 1


def _repair_to_strongly_maximal(g: Graph, m: frozenset) -> frozenset:
    while True:
        p = find_short_augmenting(g, m)
        if p is None:
            return m
        m = augment(m, p)


def test_augmenting_preserves_strong_maximality():
    # strongly maximal + minimum-length augmentation -> strongly maximal,
    # all the way up to a maximum matching
    from bchrom.generators import random_labeled_tree
    from bchrom.tree_dp import min_smm_tree

    rng = random.Random(51)
    checked = 0
    for _ in range(120):
        g = random_labeled_tree(rng.randint(5, 12), rng)
        _, m = min_smm_tree(g)
        assert is_strongly_maximal(g, m)
        while True:
            p = min_length_augmenting_path(g, m)
            if p is None:
                break
            m2 = augment(m, p)
            assert len(m2) == len(m) + 1
            assert is_strongly_maximal(g, m2)
            m = m2
            checked += 1
    assert checked >= 40


@settings(max_examples=80)
@given(st.integers(2, 8), st.randoms(use_true_random=False))
def test_s1_s2_zero_iff_strongly_maximal(n, rnd):
    g = Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.4]
    )
    rng = random.Random(rnd.random())
    m = _random_matching(g, rng)
    s1, s2 = s1_s2(g, m)
    assert (s1 + s2 == 0) == is_strongly_maximal(g, m)


def test_tie_break_orientation():
    # every returned path starts at its smaller endpoint
    rng = random.Random(71)
    for g in random_graph_corpus(60, 8, seed=72):
        m = _random_matching(g, rng)
        p = min_length_augmenting_path(g, m)
        if p is not None:
            assert p[0] < p[-1]
