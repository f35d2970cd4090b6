import random

import pytest

from bchrom.bcoloring import (
    BVerdict,
    Coloring,
    coloring_to_matching,
    matching_to_coloring,
    verify_coloring,
    verify_on_complement,
)
from bchrom.errors import (
    BchromError,
    ClassTooLarge,
    EmptyClass,
    ImproperColoring,
    NotABColoring,
    StabilityTooLarge,
)
from bchrom.generators import random_graph, random_labeled_tree
from bchrom.graph import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_union,
    induced_subgraph,
    path_graph,
)
from bchrom.matching import is_strongly_maximal
from bchrom.oracle import continuity_chain, oracle_chi_b, oracle_chromatic
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
    p6 = path_graph(6)  # the complement of the colored graph
    # classes {1,2},{3,4},{0},{5}
    c = Coloring((2, 0, 0, 1, 1, 3), 4)
    m = coloring_to_matching(p6, c)
    assert m == frozenset({(1, 2), (3, 4)})
    assert is_strongly_maximal(p6, m)
    assert coloring_to_matching(empty_graph(4), Coloring((0, 1, 2, 3), 4)) == frozenset()
    perfect = Coloring((0, 0, 1, 1, 2, 2), 3)
    assert len(coloring_to_matching(p6, perfect)) == 3
    # defined on any complement: a triangle's vertices are three classes, or one too large
    assert coloring_to_matching(complete_graph(3), Coloring((0, 1, 2), 3)) == frozenset()
    with pytest.raises(ClassTooLarge):
        coloring_to_matching(complete_graph(3), Coloring((0, 0, 0), 1))
    with pytest.raises(ImproperColoring, match="adjacent vertices 0,2 share a class"):
        coloring_to_matching(p6, Coloring((0, 1, 0, 2, 3, 4), 5))


def test_matching_to_coloring_round_trip():
    p6 = path_graph(6)
    m = frozenset({(1, 2), (3, 4)})
    c = matching_to_coloring(p6, m)
    assert c.t == 4
    assert coloring_to_matching(p6, c) == m
    c0 = matching_to_coloring(p6, frozenset())
    assert c0.t == 6
    cp = matching_to_coloring(p6, frozenset({(0, 1), (2, 3), (4, 5)}))
    assert cp.t == 3
    verify_coloring(complement(p6), cp)


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
            m = coloring_to_matching(co, c)
            assert verify_coloring(g, c).is_b_coloring == is_strongly_maximal(co, m)


def _stability2(g):
    from bchrom.graph import stability_at_most_two

    return stability_at_most_two(g)


def test_continuity_chain_examples():
    p6 = path_graph(6)
    chain = continuity_chain(p6, plan(complement(p6), "witness").witness)
    assert [c.t for c in chain] == [4, 3]
    chain = continuity_chain(empty_graph(4), Coloring((0, 1, 2, 3), 4))  # K4 colored
    assert [c.t for c in chain] == [4]
    p5 = path_graph(5)
    assert [c.t for c in continuity_chain(p5, plan(complement(p5), "witness").witness)] == [3]


def test_continuity_chain_levels_all_verified():
    rng = random.Random(8)
    for _ in range(50):
        g = random_stability2(rng.randint(2, 9), rng)
        route = plan(g, "witness")
        value, chain = route.value, continuity_chain(complement(g), route.witness)
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
        for c in continuity_chain(tree, plan(g, "witness").witness):
            m = coloring_to_matching(tree, c)
            assert is_strongly_maximal(tree, m)
            assert matching_to_coloring(tree, m) == c
            steps += 1
    assert steps > len(sizes)  # some chain goes past its first coloring


def test_chain_rejects_non_b_coloring():
    p6 = path_graph(6)
    c = matching_to_coloring(p6, frozenset({(2, 3)}))
    with pytest.raises(NotABColoring):
        continuity_chain(p6, c)


def test_chain_refuses_a_complement_with_a_triangle():
    """Three pairwise non-adjacent vertices leave the bijection: refused
    before the start is checked, whatever it is."""
    with pytest.raises(StabilityTooLarge, match="bijection requires stability <= 2"):
        continuity_chain(complete_graph(3), Coloring((0, 1, 2), 3))
    co = graph_union(cycle_graph(5), complete_graph(3))
    with pytest.raises(StabilityTooLarge):
        continuity_chain(co, Coloring((0,) * 8, 1))


def test_monotonicity_under_deletion_sampled():
    rng = random.Random(9)
    for _ in range(40):
        g = random_stability2(rng.randint(2, 8), rng)
        chib = oracle_chi_b(g)
        for v in range(g.n):
            h = induced_subgraph(g, [u for u in range(g.n) if u != v])
            if h.n == 0:
                continue
            assert oracle_chi_b(h) <= chib


def _relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _union(pieces: list[Graph]) -> Graph:
    out = pieces[0]
    for piece in pieces[1:]:
        out = graph_union(out, piece)
    return out


def _triangle_free_complements(rng: random.Random):
    """Randomly labelled triangle-free graphs: forests, bipartite graphs,
    and C5/C7 beside trees, each the complement of a stability-2 graph."""
    for _ in range(10):
        n = rng.randint(1, 14)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(3, n - 1))))
        yield _relabel(_union([random_labeled_tree(b - a, rng)
                               for a, b in zip([0] + cuts, cuts + [n])]), rng)
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        p = rng.uniform(0.2, 0.9)
        yield _relabel(Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)
                                                if rng.random() < p]), rng)
        pieces = [cycle_graph(rng.choice((5, 7))) for _ in range(rng.randint(1, 2))]
        pieces += [random_labeled_tree(rng.randint(1, 6), rng) for _ in range(rng.randint(0, 2))]
        yield _relabel(_union(pieces), rng)


def _random_proper(co: Graph, rng: random.Random) -> Coloring:
    """A random matching of co as a coloring, its classes numbered at random."""
    edges = list(co.edges)
    rng.shuffle(edges)
    used: set[int] = set()
    color = [-1] * co.n
    t = 0
    for u, v in edges[: rng.randint(0, len(edges))]:
        if u not in used and v not in used:
            used |= {u, v}
            color[u] = color[v] = t
            t += 1
    for v in range(co.n):
        if color[v] < 0:
            color[v] = t
            t += 1
    names = list(range(t))
    rng.shuffle(names)
    return Coloring(tuple(names[x] for x in color), t)


def _mutations(c: Coloring, rng: random.Random):
    """c with two classes merged, a pair split, two vertices swapped, and
    an empty class added."""
    n, t = len(c.assignment), c.t
    if t >= 2:
        a, b = rng.sample(range(t), 2)  # b joins a, and class t - 1 takes b's number
        yield Coloring(tuple(a if x == b else b if x == t - 1 else x for x in c.assignment), t - 1)
    pairs = [v for v in range(n) if c.assignment.count(c.assignment[v]) == 2]
    if pairs:
        v = rng.choice(pairs)
        yield Coloring(tuple(t if w == v else x for w, x in enumerate(c.assignment)), t + 1)
    if t >= 2:
        u, v = rng.sample(range(n), 2)
        swapped = list(c.assignment)
        swapped[u], swapped[v] = swapped[v], swapped[u]
        yield Coloring(tuple(swapped), t)
    yield Coloring(c.assignment, t + 1)


def _outcome(verify, graph: Graph, c: Coloring):
    try:
        return verify(graph, c)
    except BchromError as exc:
        return type(exc), str(exc)


def test_verify_on_complement_equals_verify_coloring():
    """On the complement alone, the same verdict, witnesses and error as
    on the dense graph: for route answers, random proper colorings and
    their mutations."""
    rng = random.Random(2113)
    kinds = set()
    for co in _triangle_free_complements(rng):
        g = Graph(co.n, complement(co).adj)  # a fresh graph, keeping no complement
        colorings = [_random_proper(co, rng) for _ in range(4)]
        colorings.append(plan(g, "witness").witness)
        route = plan(g, "coloring")
        vec = plan(g, "vector").vector
        colorings += [route.coloring(k) for k in {vec.chi, (vec.chi + g.n) // 2, g.n}]
        colorings += [m for c in list(colorings) for m in _mutations(c, rng)]
        for c in colorings:
            want = _outcome(verify_coloring, g, c)
            assert _outcome(verify_on_complement, co, c) == want, (co, c)
            kinds.add(want[0] if isinstance(want, tuple) else want.is_b_coloring)
    assert kinds == {True, False, ImproperColoring, EmptyClass}


def _verify_coloring_reference(g: Graph, c: Coloring):
    """``verify_coloring`` as it was written on ``g.edges`` and ``g.bits``:
    the first edge within a class in (u, v) order, and a vertex dominant when
    its neighbourhood mask meets every other class's mask."""
    if len(c.assignment) != g.n:
        raise ImproperColoring("assignment length differs from vertex count")
    if any(not 0 <= x < c.t for x in c.assignment):
        raise ImproperColoring("color index out of range")
    classes = c.classes()
    for idx, members in enumerate(classes):
        if not members:
            raise EmptyClass(f"class {idx} is empty")
    for u, v in g.edges:
        if c.assignment[u] == c.assignment[v]:
            raise ImproperColoring(f"adjacent vertices {u},{v} share a class")
    masks = [0] * c.t
    for v, col in enumerate(c.assignment):
        masks[col] |= 1 << v
    dominant, witnesses = [], []
    for idx, members in enumerate(classes):
        for v in members:
            if g.degree(v) < c.t - 1:
                continue
            if all(g.bits[v] & masks[j] for j in range(c.t) if j != idx):
                dominant.append(idx)
                witnesses.append((idx, v))
                break
    return BVerdict(len(dominant) == c.t, frozenset(dominant), tuple(witnesses))


def _greedy(g: Graph, rng: random.Random) -> Coloring:
    """A proper coloring: vertices in random order, each the least color
    its colored neighbours lack, the colors then numbered at random."""
    color = [-1] * g.n
    for v in rng.sample(range(g.n), g.n):
        taken = {color[w] for w in g.adj[v]}
        color[v] = next(x for x in range(g.n) if x not in taken)
    t = max(color, default=-1) + 1
    names = rng.sample(range(t), t)
    return Coloring(tuple(names[x] for x in color), t)


def test_verify_coloring_equals_its_reference_on_random_graphs():
    """The same verdict, witnesses and error line as the reference, on
    random trees and random graphs with proper, mutated and random colorings."""
    rng = random.Random(3108)
    kinds = set()
    graphs = [random_labeled_tree(rng.randint(1, 30), rng) for _ in range(40)]
    graphs += [random_graph(rng.randint(1, 16), rng.uniform(0.1, 0.9), rng) for _ in range(40)]
    for g in graphs:
        colorings = [_greedy(g, rng) for _ in range(3)]
        colorings += [m for c in list(colorings) for m in _mutations(c, rng) if len(c.assignment) > 1]
        for _ in range(3):
            t = rng.randint(1, g.n)
            colorings.append(Coloring(tuple(rng.randrange(t) for _ in range(g.n)), t))
        for c in colorings:
            want = _outcome(_verify_coloring_reference, g, c)
            assert _outcome(verify_coloring, g, c) == want, (g, c)
            kinds.add(want[0] if isinstance(want, tuple) else want.is_b_coloring)
    assert kinds == {True, False, ImproperColoring, EmptyClass}


def test_verify_on_complement_refuses_an_independent_class():
    with pytest.raises(ClassTooLarge):
        verify_on_complement(complete_graph(3), Coloring((0, 0, 0), 1))
    with pytest.raises(ImproperColoring, match="adjacent vertices 0,2 share a class"):
        verify_on_complement(path_graph(3), Coloring((0, 0, 0), 1))
