import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchrom.errors import NotTreeCograph, RangeError
from bchrom.graph import (
    Graph,
    TcJoin,
    TcLeaf,
    TcUnion,
    _complement_of,
    complement,
    complete_bipartite,
    complete_graph,
    count_degrees,
    cycle_graph,
    decompose_tree_cograph,
    empty_graph,
    evaluate_tc,
    graph_join,
    graph_union,
    is_tree,
    is_triangle_free,
    m_degree_bound,
    m_i_count,
    path_graph,
    stability_at_most_two,
    star_graph,
)
from bchrom.dominance import dominance_vector_tree, find_pivot
from bchrom.oracle import oracle_chi_b, oracle_chromatic

from conftest import all_graphs, labelled_trees, random_graph_corpus, random_stability2, relabelled


def test_complement_examples():
    assert complement(complete_graph(3)) == empty_graph(3)
    assert complement(empty_graph(1)) == empty_graph(1)
    p4 = path_graph(4)
    assert set(complement(p4).edges) == {(0, 2), (0, 3), (1, 3)}


@settings(max_examples=60)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_complement_involution(n, rnd):
    g = Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.5]
    )
    assert complement(complement(g)) == g


def test_complement_rows_of_sparse_and_dense_graphs():
    rng = random.Random(4)
    for n in (1, 2, 5, 12, 40):
        for p in (0.0, 0.02, 0.1, 0.5, 0.9, 1.0):
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            co = complement(Graph(g.n, g.adj))
            for v in range(n):
                assert co.adj[v] == tuple(w for w in range(n) if w != v and w not in g.adj[v])
    star = star_graph(30)
    assert complement(star).adj[0] == ()


@pytest.mark.parametrize("first", ["adj", "degrees", "bits", "nbr_sets", "edges"])
def test_complement_of_a_sparse_graph_makes_its_rows_on_first_read(first):
    """Every view of a sparse graph's complement, whichever is read first,
    equals that of the same rows built at once; the rows are made on the
    first read of ``adj``, ``edges`` or ``==``, and never before."""
    rng = random.Random(f"lazy:{first}")
    for n in (1, 2, 3, 7, 40):
        for p in (0.0, 0.5 / n, 1.5 / n):
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            if g.m >= n:
                continue
            co = complement(g)
            ref = Graph(n, tuple(tuple(w for w in range(n) if w != v and w not in g.adj[v])
                                 for v in range(n)))
            assert "adj" not in vars(co)
            assert getattr(co, first) == getattr(ref, first)
            assert ("adj" in vars(co)) is (first in ("adj", "edges"))
            assert (co.n, co.m, co.degrees) == (ref.n, ref.m, ref.degrees)
            assert co.bits == ref.bits and co.nbr_sets == ref.nbr_sets
            assert hash(co) == hash(ref) and co == ref and co.adj == ref.adj
            assert complement(co) is g and vars(co)["_complement"] is g
    with pytest.raises(AttributeError):
        complement(path_graph(3)).missing


def _pairs_with_defect(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Pairs 0 <= u < v < n in (u, v) order, sometimes with one defect: a
    duplicate, two pairs swapped, a pair reversed or an endpoint out of
    range."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    if pairs and rng.random() < 0.7:
        i = rng.randrange(len(pairs))
        u, v = pairs[i]
        kind = rng.randrange(5)
        if kind == 0:
            pairs.insert(i, (u, v))
        elif kind == 1 and i + 1 < len(pairs):
            pairs[i], pairs[i + 1] = pairs[i + 1], pairs[i]
        elif kind == 2:
            pairs[i] = (v, u)
        elif kind == 3:
            pairs[i] = (u, n + rng.randrange(2))
        else:
            pairs[i] = (-1, v)
    return pairs


def test_from_sorted_pairs_builds_canonical_pairs_only():
    # every canonical pair list, of any density, builds the graph
    # from_edges builds; any other list gives None
    rng = random.Random(6)
    built = coforests = 0
    for trial in range(3000):
        n = rng.randint(0, 9)
        p = rng.choice([0.0, 0.1, 0.3, 0.5, 0.9, 0.97, 1.0])
        pairs = _pairs_with_defect(n, p, rng)
        g = Graph.from_sorted_pairs(n, [u for u, _ in pairs], [v for _, v in pairs])
        canonical = all(0 <= u < v < n for u, v in pairs) and all(
            a < b for a, b in zip(pairs, pairs[1:])
        )
        if canonical:
            assert g == Graph.from_edges(n, pairs), pairs
            assert complement(g) == complement(Graph(g.n, g.adj))
            built += 1
            coforests += n * (n - 1) // 2 - len(pairs) < max(n, 1)
        else:
            assert g is None, pairs
    assert built > 1000 and coforests > 300


def test_triangle_free_examples():
    assert is_triangle_free(cycle_graph(5))
    assert not is_triangle_free(complete_graph(3))
    assert is_triangle_free(path_graph(6))


def test_triangle_free_agrees_with_the_bitmask_test_either_side_of_m_equal_n():
    # graphs with fewer edges than vertices are tested with neighbor sets
    rng = random.Random(12)
    sides = set()
    for trial in range(600):
        n, p = rng.randint(1, 14), rng.random() * 0.4
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        with_masks = not any(g.bits[u] & g.bits[v] for u, v in g.edges)
        assert is_triangle_free(g) == with_masks, g.edges
        sides.add((g.m < g.n, with_masks))
    assert sides == {(True, True), (True, False), (False, True), (False, False)}


def test_stability_examples():
    assert stability_at_most_two(complete_graph(4))
    assert stability_at_most_two(complement(path_graph(6)))
    assert not stability_at_most_two(empty_graph(3))


def _triples(g: Graph, edge: bool):
    """The triples of vertices that are pairwise adjacent (``edge``) or
    pairwise non-adjacent in g, found by scanning all of them."""
    return [t for t in combinations(range(g.n), 3)
            if all(g.has_edge(a, b) == edge for a, b in combinations(t, 2))]


def _triangle_test_corpus(rng: random.Random) -> list[Graph]:
    """Random graphs whose edge counts fall below, near and above the
    Mantel bound floor(n^2/4), for the graph and for its complement, and
    complements of triangle-free graphs, where both tests answer yes."""
    graphs = []
    for _ in range(120):
        n = rng.randint(3, 16)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        bound = n * n // 4
        for m in (rng.randint(0, n), bound + rng.randint(-2, 2),
                  len(pairs) - bound + rng.randint(-2, 2), len(pairs) - rng.randint(0, n)):
            graphs.append(Graph.from_edges(n, pairs[:max(0, m)]))
        graphs.append(random_stability2(n, rng))
        graphs.append(complement(random_stability2(n, rng)))
    return graphs


@pytest.mark.parametrize("kept", ["nothing", "bits", "complement"])
def test_triangle_and_stability_tests_match_a_scan_of_all_triples(kept):
    rng = random.Random(f"triples:{kept}")
    answers = set()
    for g in _triangle_test_corpus(rng):
        g = Graph(g.n, g.adj)  # a fresh graph, keeping no view
        if kept == "bits":
            assert len(g.bits) == g.n
        elif kept == "complement":
            co = complement(g)
        triangle_free = not _triples(g, True)
        stable = not _triples(g, False)
        assert is_triangle_free(g) is triangle_free, g.adj
        assert stability_at_most_two(g) is stable, g.adj
        answers.add((g.m < g.n, triangle_free, stable))
        if kept == "complement":
            assert vars(g)["_complement"] is co
        elif stable:  # the rows the search built are kept as the complement
            co = vars(g)["_complement"]
            assert co == _complement_of(Graph(g.n, g.adj)) and vars(co)["_complement"] is g
        else:
            assert "_complement" not in vars(g)
    assert {(False, True, True), (False, False, True), (False, True, False),
            (False, False, False), (True, True, False)} <= answers


def test_m_degree_bound_examples():
    assert m_degree_bound(path_graph(5)) == 3
    assert m_degree_bound(complete_graph(4)) == 4
    assert m_degree_bound(star_graph(4)) == 2


def test_m_degree_bound_at_most_max_degree_plus_one():
    for g in random_graph_corpus(120, 9):
        assert m_degree_bound(g) <= g.max_degree() + 1


def _sorted_bound(degrees) -> int:
    """The m-bound by its definition, on the degrees sorted largest first:
    the largest i whose i-th degree is at least i - 1."""
    ranked = sorted(degrees, reverse=True)
    return max(i for i, d in enumerate(ranked, 1) if d >= i - 1)


def _check_degree_facts(t: Graph) -> None:
    """The facts read off a tree's per-degree count against the sort and
    scan definitions: the count itself, the m-bound of the tree and of its
    degree list (left as it was), the max degree, m_i, the dense set and
    the degree counts in the dominance vector."""
    degrees = list(t.degrees)
    kept = list(degrees)
    delta = max(degrees)
    assert t.degree_counts == tuple(degrees.count(d) for d in range(delta + 1))
    assert count_degrees(degrees) == t.degree_counts
    m = _sorted_bound(degrees)
    assert m_degree_bound(t) == m_degree_bound(degrees) == m, degrees
    assert degrees == kept
    assert t.max_degree() == delta
    for i in range(m + 1, delta + 2):
        assert m_i_count(t, i) == sum(d >= i - 1 for d in degrees)
    assert find_pivot(t).dense == frozenset(v for v, d in enumerate(degrees) if d >= m - 1)
    if t.n >= 2:
        vec = dominance_vector_tree(t)
        for i in range(m + 1, t.n + 1):  # at_least[i - 1] above the bound, then zeros
            assert vec.value_at(i) == sum(d >= i - 1 for d in degrees), (t.adj, i)


@settings(max_examples=200, deadline=None)
@given(labelled_trees(min_n=1, max_n=60))
def test_degree_facts_of_drawn_trees_match_their_definitions(t):
    _check_degree_facts(t)


def test_degree_facts_of_one_and_two_vertices_stars_and_hubs():
    rng = random.Random(38)
    one, two = Graph(1, ((),)), path_graph(2)
    assert one.degree_counts == (1,) and m_degree_bound(one) == 1 and one.max_degree() == 0
    assert two.degree_counts == (0, 2) and m_degree_bound(two) == 2
    assert find_pivot(one).dense == {0} and find_pivot(two).dense == {0, 1}
    trees = [one, two]
    # every degree under 32 (bytes only); a hub of 32 to 255 (bytes, then
    # the sorted count); a hub of 256 or more (no bytes)
    for legs in (3, 31, 32, 40, 255, 256, 300, 2000):
        trees.append(relabelled(star_graph(legs), rng))
        spider = [(0, v) for v in range(1, legs + 1)]  # a star with a path on each of 5 legs
        spider += [(v, legs + v) for v in range(1, 6)] + [(legs + v, legs + 5 + v) for v in range(1, 6)]
        trees.append(relabelled(Graph.from_edges(legs + 11, spider), rng))
    for t in trees:
        _check_degree_facts(t)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 300) | st.integers(0, 6), min_size=1, max_size=80))
def test_m_degree_bound_of_drawn_degree_lists_leaves_them_as_they_are(degrees):
    kept = list(degrees)
    assert m_degree_bound(degrees) == _sorted_bound(degrees)
    assert count_degrees(degrees) == tuple(degrees.count(d) for d in range(max(degrees) + 1))
    assert degrees == kept


def test_m_degree_bound_of_no_vertices_is_refused():
    for degrees in ([], (), Graph(0, ())):
        with pytest.raises(RangeError):
            m_degree_bound(degrees)


def test_m_i_count_star():
    star = star_graph(4)
    assert m_i_count(star, 3) == 1
    assert m_i_count(star, 5) == 1
    with pytest.raises(RangeError):
        m_i_count(star, 2)
    with pytest.raises(RangeError):
        m_i_count(star, 6)


def test_is_tree():
    assert is_tree(path_graph(6))
    assert not is_tree(cycle_graph(5))
    assert not is_tree(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_decompose_path_is_leaf():
    expr = decompose_tree_cograph(path_graph(6))
    assert isinstance(expr, TcLeaf) and not expr.co


def test_decompose_k3_is_join_of_singletons():
    expr = decompose_tree_cograph(complete_graph(3))
    assert isinstance(expr, TcJoin)
    assert len(expr.children) == 3
    assert all(isinstance(c, TcLeaf) and not c.co and c.tree.n == 1 for c in expr.children)


def test_decompose_c5_fails():
    with pytest.raises(NotTreeCograph):
        decompose_tree_cograph(cycle_graph(5))


def test_decompose_prefers_tree_leaf():
    for g in (path_graph(2), empty_graph(1)):
        expr = decompose_tree_cograph(g)
        assert isinstance(expr, TcLeaf) and not expr.co


def test_decompose_round_trips():
    rng = random.Random(5)
    cases = [
        complete_graph(4),
        complement(path_graph(6)),
        graph_union(complete_graph(3), complete_graph(3)),
        graph_join(path_graph(3), empty_graph(1)),
        graph_union(complement(path_graph(4)), path_graph(5)),
        complete_bipartite(2, 3),
    ]
    for g in cases:
        expr = decompose_tree_cograph(g)
        assert evaluate_tc(expr) == g
    # random unions/joins of small trees round-trip too
    for _ in range(30):
        parts = [path_graph(rng.randint(1, 4)) for _ in range(rng.randint(2, 3))]
        g = parts[0]
        for p in parts[1:]:
            g = graph_union(g, p) if rng.random() < 0.5 else graph_join(g, p)
        expr = decompose_tree_cograph(g)
        assert evaluate_tc(expr) == g


def test_union_join_children_ordering():
    g = graph_union(complete_graph(3), complete_graph(3))
    expr = decompose_tree_cograph(g)
    assert isinstance(expr, TcUnion)
    firsts = [min(c.vertices) if hasattr(c, "vertices") else None for c in expr.children]
    spans = []
    for c in expr.children:
        if isinstance(c, TcLeaf):
            spans.append(min(c.vertices))
        else:
            spans.append(min(min(l.vertices) for l in _leaves(c)))
    assert spans == sorted(spans)


def _leaves(expr):
    if isinstance(expr, TcLeaf):
        return [expr]
    return [l for c in expr.children for l in _leaves(c)]


def test_chi_le_chib_le_m_sampled():
    # sample of random graphs: chromatic <= b-chromatic <= degree bound
    rng = random.Random(3)
    for _ in range(250):
        n = rng.randint(1, 7)
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.random()]
        )
        chi = oracle_chromatic(g)
        chib = oracle_chi_b(g)
        assert chi <= chib <= m_degree_bound(g)


def test_all_graphs_n4_chain():
    for g in all_graphs(4):
        chi = oracle_chromatic(g)
        chib = oracle_chi_b(g)
        assert chi <= chib <= m_degree_bound(g)
