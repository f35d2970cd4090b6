import random

import pytest

from bchrom.bcoloring import (
    Coloring,
    coloring_to_matching,
    continuity_chain,
    matching_to_coloring,
    verify_coloring,
)
from bchrom.errors import (
    EmptyClass,
    ImproperColoring,
    NotABColoring,
    StabilityTooLarge,
)
from bchrom.generators import random_labeled_tree
from bchrom.graph import (
    complement,
    complete_graph,
    empty_graph,
    path_graph,
)
from bchrom.matching import is_strongly_maximal
from bchrom.oracle import oracle_chi_b, oracle_chromatic
from bchrom.route import plan

from conftest import all_graphs, random_stability2


def test_verify_coloring_examples():
    k3 = complete_graph(3)
    verdict = verify_coloring(k3, Coloring((0, 1, 2), 3))
    assert verdict.is_b_coloring and len(verdict.dominant_classes) == 3
    p5 = path_graph(5)
    c = Coloring((2, 0, 1, 2, 0), 3)  # classes {1,4},{2},{0,3}
    verdict = verify_coloring(p5, c)
    assert verdict.is_b_coloring
    assert dict(verdict.witnesses) == {0: 1, 1: 2, 2: 3}


def test_verify_coloring_errors():
    p3 = path_graph(3)
    with pytest.raises(EmptyClass):
        verify_coloring(p3, Coloring((0, 1, 0), 3))
    with pytest.raises(ImproperColoring):
        verify_coloring(p3, Coloring((0, 0, 1), 2))


def test_bijection_examples():
    co_p6 = complement(path_graph(6))
    # classes {1,2},{3,4},{0},{5}
    c = Coloring((2, 0, 0, 1, 1, 3), 4)
    m = coloring_to_matching(co_p6, c)
    assert m == frozenset({(1, 2), (3, 4)})
    assert is_strongly_maximal(path_graph(6), m)
    assert coloring_to_matching(complete_graph(4), Coloring((0, 1, 2, 3), 4)) == frozenset()
    perfect = Coloring((0, 0, 1, 1, 2, 2), 3)
    assert len(coloring_to_matching(co_p6, perfect)) == 3
    with pytest.raises(StabilityTooLarge):
        coloring_to_matching(empty_graph(3), Coloring((0, 1, 2), 3))


def test_matching_to_coloring_round_trip():
    co_p6 = complement(path_graph(6))
    m = frozenset({(1, 2), (3, 4)})
    c = matching_to_coloring(co_p6, m)
    assert c.t == 4
    assert coloring_to_matching(co_p6, c) == m
    c0 = matching_to_coloring(co_p6, frozenset())
    assert c0.t == 6
    cp = matching_to_coloring(co_p6, frozenset({(0, 1), (2, 3), (4, 5)}))
    assert cp.t == 3
    verify_coloring(co_p6, cp)


def test_bijection_equivalence_small_exhaustive():
    # for every stability-2 graph on <= 5 vertices and every proper coloring:
    # b-coloring iff the complement matching is strongly maximal
    from bchrom.oracle import _Counter, _scan_colorings

    for g in all_graphs(5):
        if not _stability2(g):
            continue
        co = complement(g)
        counter = _Counter(10**6)
        seen = []

        def visit(masks):
            seen.append([m for m in masks])

        _scan_colorings(g, counter, visit)
        for masks in seen:
            color = [0] * g.n
            for ci, mask in enumerate(masks):
                for v in range(g.n):
                    if (mask >> v) & 1:
                        color[v] = ci
            c = Coloring(tuple(color), len(masks))
            m = coloring_to_matching(g, c)
            assert verify_coloring(g, c).is_b_coloring == is_strongly_maximal(co, m)


def _stability2(g):
    from bchrom.graph import stability_at_most_two

    return stability_at_most_two(g)


def test_continuity_chain_examples():
    co_p6 = complement(path_graph(6))
    chain = continuity_chain(co_p6, plan(co_p6, "witness").witness)
    assert [c.t for c in chain] == [4, 3]
    k4 = complete_graph(4)
    chain = continuity_chain(k4, Coloring((0, 1, 2, 3), 4))
    assert [c.t for c in chain] == [4]
    co_p5 = complement(path_graph(5))
    assert [c.t for c in continuity_chain(co_p5, plan(co_p5, "witness").witness)] == [3]


def test_continuity_chain_levels_all_verified():
    rng = random.Random(8)
    for _ in range(50):
        g = random_stability2(rng.randint(2, 9), rng)
        route = plan(g, "witness")
        value, chain = route.value, continuity_chain(g, route.witness)
        chi = oracle_chromatic(g)
        assert [c.t for c in chain] == list(range(value, chi - 1, -1))
        for c in chain:
            assert verify_coloring(g, c).is_b_coloring


def test_chain_steps_are_strongly_maximal_matchings_of_the_complement():
    """The stability-2 bijection on every step of the continuity chain of
    co-trees up to 30 vertices: a step's two-vertex classes are a strongly
    maximal matching of the complement, and that matching gives the step back."""
    rng = random.Random(30)
    sizes = (12, 18, 24, 30, 30)
    steps = 0
    for n in sizes:
        tree = random_labeled_tree(n, rng)
        g = complement(tree)
        for c in continuity_chain(g, plan(g, "witness").witness):
            m = coloring_to_matching(g, c)
            assert is_strongly_maximal(tree, m)
            assert matching_to_coloring(g, m) == c
            steps += 1
    assert steps > len(sizes)  # some chain goes past its first coloring


def test_chain_rejects_non_b_coloring():
    co_p6 = complement(path_graph(6))
    c = matching_to_coloring(co_p6, frozenset({(2, 3)}))
    with pytest.raises(NotABColoring):
        continuity_chain(co_p6, c)


def test_monotonicity_under_deletion_sampled():
    from bchrom.graph import delete_vertex

    rng = random.Random(9)
    for _ in range(40):
        g = random_stability2(rng.randint(2, 8), rng)
        chib = oracle_chi_b(g)
        for v in range(g.n):
            h = delete_vertex(g, v)
            if h.n == 0:
                continue
            assert oracle_chi_b(h) <= chib
