"""Differential tests for the tree-cograph path of the graph layer.

The reference below is the original four-case recursion, which builds an
induced subgraph and a complement at every node.  It is kept here, small
and obviously correct, so the stack-based decomposition on vertex subsets
can be checked against it on randomly labelled expressions.
"""

import io
import random
from contextlib import redirect_stdout
from itertools import combinations, count, islice, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bchrom import tree_dp
from bchrom.cli import main
from bchrom.dominance import dominance_tc, dominance_vector_tree
from bchrom.errors import NotTreeCograph
from bchrom.fileio import format_edgelist, format_tc_expression, parse_tc_expression
from bchrom.generators import random_graph, random_labeled_tree
from bchrom.graph import (
    Graph,
    TcJoin,
    TcExpr,
    TcLeaf,
    TcUnion,
    _co_components,
    _components,
    _fold,
    _leaf_tree,
    complement,
    complete_bipartite,
    connected_components,
    decompose_tree_cograph,
    evaluate_tc,
    graph_union,
    induced_subgraph,
    is_coforest,
    is_forest,
    is_tree,
    m_degree_bound,
    m_i_count,
    path_graph,
    stability_at_most_two,
    star_graph,
    tc_postorder,
)

from conftest import all_graphs, random_expression


# ---------------------------------------------------------------------------
# Reference: the four-case recursion on materialized subgraphs
# ---------------------------------------------------------------------------


def _reference_complement(g: Graph) -> Graph:
    return Graph.from_edges(
        g.n, [(u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)]
    )


def _reference_induced(g: Graph, keep) -> Graph:
    """The subgraph induced by ``keep``, relabelled in sorted order, built
    from its pairs u < v, as ``_reference_complement`` builds."""
    verts = sorted(set(keep))
    return Graph.from_edges(
        len(verts),
        [(i, j) for (i, u), (j, v) in combinations(enumerate(verts), 2) if g.has_edge(u, v)],
    )


def reference_decompose(g: Graph):
    def rec(sub: Graph, ids: tuple[int, ...]):
        if is_tree(sub):
            return TcLeaf(sub, ids)
        co = _reference_complement(sub)
        if is_tree(co):
            return TcLeaf(co, ids, co=True)
        for graph, kind in ((sub, TcUnion), (co, TcJoin)):
            parts = connected_components(graph)
            if len(parts) > 1:
                return kind(
                    tuple(
                        rec(_reference_induced(sub, c), tuple(ids[v] for v in c))
                        for c in parts
                    )
                )
        raise NotTreeCograph("neither a tree, a co-tree, a union nor a join")

    return rec(g, tuple(range(g.n)))


FAMILIES = ("chain", "wide", "nested")


@pytest.mark.parametrize("family", FAMILIES)
def test_decompose_matches_reference(family):
    rng = random.Random(f"decompose:{family}")
    for _ in range(25):
        g = evaluate_tc(random_expression(family, rng.randint(2, 40), rng))
        expr = decompose_tree_cograph(g)
        assert expr == reference_decompose(g)
        assert evaluate_tc(expr) == g


@pytest.mark.parametrize("family", FAMILIES)
def test_decompose_round_trips_at_300(family):
    rng = random.Random(f"large:{family}")
    g = evaluate_tc(random_expression(family, 300, rng))
    assert evaluate_tc(decompose_tree_cograph(g)) == g


def test_induced_subgraph_equals_its_reference_on_random_graphs():
    # keep in any order, with repeats; and a leaf's tree is the same graph
    # whether it is built from rows or from neighbor sets
    rng = random.Random(40)
    for _ in range(200):
        g = random_graph(rng.randint(1, 30), rng.random(), rng)
        keep = rng.choices(range(g.n), k=rng.randint(0, 2 * g.n))
        assert induced_subgraph(g, keep) == _reference_induced(g, keep)
        verts = sorted(set(keep))
        for co in (False, True):
            assert _leaf_tree(g.adj, verts, co) == _leaf_tree(g.nbr_sets, verts, co)
        assert _leaf_tree(g.adj, verts, True) == _reference_complement(_reference_induced(g, keep))


def test_non_tree_cographs_fail_in_both():
    rng = random.Random(17)
    failures = 0
    for _ in range(150):
        g = random_graph(rng.randint(1, 11), rng.uniform(0.2, 0.8), rng)
        try:
            expected = reference_decompose(g)
        except NotTreeCograph:
            failures += 1
            with pytest.raises(NotTreeCograph):
                decompose_tree_cograph(g)
        else:
            assert decompose_tree_cograph(g) == expected
    assert failures > 50


# ---------------------------------------------------------------------------
# Second reference: the stack-based decomposition that searches every node
# ---------------------------------------------------------------------------

# The decomposition before nodes were split on their isolated and universal
# vertices, kept verbatim: it runs ``_components`` or ``_co_components`` on
# every node that is not a leaf, so its output is the canonical one to match.
def search_decompose(g: Graph) -> TcExpr:
    """Four-case decomposition: a leaf for a tree, a ``co`` leaf for a
    co-tree, a union over components, a join over co-components; fails
    with NotTreeCograph otherwise.

    A plain leaf wins over a ``co`` leaf when both apply, and children are
    ordered by their smallest contained vertex, so the result is canonical.

    Nodes are sorted vertex lists of g, kept on an explicit stack.  The
    degree of each vertex inside its current list is kept too: a component
    keeps it, and a co-component loses the vertices outside it, to which
    each of its vertices is adjacent.  So a node's edge count is a sum, and
    the tree and co-tree tests run a search only when the edge count
    allows.  A node then costs O(|S| + m(S)) for a list S with m(S) edges,
    and no node builds an induced subgraph or a complement; only a leaf
    builds its tree, which has |S| - 1 edges.
    """
    nbr = g.nbr_sets
    degree = list(g.degrees)
    done: list[TcExpr] = []
    # a vertex list to decompose, or (operation, child count) once its
    # children, pushed above it, are done
    todo: list = [list(range(g.n))]
    while todo:
        item = todo.pop()
        if isinstance(item, tuple):
            kind, k = item
            children = tuple(done[-k:])
            del done[-k:]
            done.append(kind(children))
            continue
        verts = item
        s = len(verts)
        m = sum(degree[v] for v in verts) // 2
        comps = cocomps = None
        if m == s - 1:
            comps = _components(nbr, verts)
            if len(comps) == 1:
                done.append(TcLeaf(_leaf_tree(nbr, verts, False), tuple(verts)))
                continue
        if s * (s - 1) // 2 - m == s - 1:
            cocomps = _co_components(nbr, verts)
            if len(cocomps) == 1:
                done.append(TcLeaf(_leaf_tree(nbr, verts, True), tuple(verts), co=True))
                continue
        if comps is None:
            comps = _components(nbr, verts)
        if len(comps) > 1:
            todo.append((TcUnion, len(comps)))
            todo.extend(reversed(comps))
            continue
        if cocomps is None:
            cocomps = _co_components(nbr, verts)
        if len(cocomps) < 2:
            raise NotTreeCograph(
                "connected graph with connected complement that is neither a "
                "tree nor a co-tree"
            )
        for part in cocomps:
            outside = s - len(part)
            for v in part:
                degree[v] -= outside
        todo.append((TcJoin, len(cocomps)))
        todo.extend(reversed(cocomps))
    return done[0]


def _leaf_chain(levels: int, sizes: tuple[int, ...], rng: random.Random) -> TcExpr:
    """Alternating unions and joins, each level adding a leaf of a size
    drawn from ``sizes`` on a random side, with random vertex ids; a leaf
    of three or more vertices is a ``co`` leaf half of the time."""
    drawn = [rng.choice(sizes) for _ in range(levels + 1)]
    labels = list(range(sum(drawn)))
    rng.shuffle(labels)
    leaves = []
    for size in drawn:
        ids = tuple(labels.pop() for _ in range(size))
        leaves.append(TcLeaf(random_labeled_tree(size, rng), ids, co=size > 2 and rng.random() < 0.5))
    ops = (TcUnion, TcJoin) if rng.random() < 0.5 else (TcJoin, TcUnion)
    expr = leaves[0]
    for level, leaf in enumerate(leaves[1:]):
        pair = [leaf, expr]
        rng.shuffle(pair)
        expr = ops[level % 2](tuple(pair))
    return expr


def test_decompose_matches_the_search_at_every_node():
    rng = random.Random("search")
    graphs = [evaluate_tc(random_expression(family, rng.randint(2, 60), rng))
              for family in FAMILIES for _ in range(20)]
    # two-vertex levels have no isolated or universal vertex at a union
    graphs += [evaluate_tc(_leaf_chain(rng.randint(1, 40), sizes, rng))
               for sizes in ((2,), (1, 2, 3), (3, 4)) for _ in range(15)]
    graphs += [random_graph(rng.randint(1, 12), rng.uniform(0.1, 0.9), rng) for _ in range(150)]
    failures = 0
    for g in graphs:
        try:
            expected = search_decompose(g)
        except NotTreeCograph:
            failures += 1
            with pytest.raises(NotTreeCograph):
                decompose_tree_cograph(g)
        else:
            assert decompose_tree_cograph(g) == expected
    assert 30 < failures < 150


def _counted(searches: list[int], search):
    def counted(nbr, verts):
        searches.append(len(verts))
        return search(nbr, verts)

    return counted


def test_chain_decomposition_searches_a_linear_number_of_vertices(monkeypatch):
    from bchrom import graph

    n = 400
    g = evaluate_tc(random_expression("chain", n, random.Random(400)))
    searched, before = [], []
    for name in ("_components", "_co_components"):
        monkeypatch.setattr(graph, name, _counted(searched, getattr(graph, name)))
        monkeypatch.setitem(globals(), name, _counted(before, globals()[name]))
    expr = decompose_tree_cograph(g)
    assert sum(searched) <= 2 * n
    assert search_decompose(g) == expr
    assert sum(before) >= n * n // 4  # the search at every node visits about n^2 / 2


def test_chain_decomposition_peels_without_searches_or_whole_graph_sets(monkeypatch):
    from bchrom import graph

    g = evaluate_tc(random_expression("chain", 400, random.Random(401)))
    searched = []
    for name in ("_components", "_co_components"):
        monkeypatch.setattr(graph, name, _counted(searched, getattr(graph, name)))
    expr = decompose_tree_cograph(g)
    assert "nbr_sets" not in vars(g)
    assert searched == []
    assert expr == search_decompose(g)


# blocks a creation step adds, as (vertex count, edges): a 2- or 3-vertex
# tree or co-tree leaf, or a union of two 2-vertex leaves, so that a peel
# run reaching one ends on a leaf or on a search
_BLOCKS = {
    "edge": (2, [(0, 1)]),
    "non-edge": (2, []),
    "path": (3, [(0, 1), (1, 2)]),
    "co-path": (3, [(0, 1)]),
    "two edges": (4, [(0, 1), (2, 3)]),
    "edge and non-edge": (4, [(0, 1)]),
}


@st.composite
def creation_graphs(draw) -> Graph:
    """A graph grown from a creation sequence, randomly labelled.  Each step
    adds one to three isolated or dominating vertices, as a threshold
    graph's sequence does, or now and then a block of ``_BLOCKS`` beside
    what is there or joined to all of it."""
    kinds = st.sampled_from(["isolated"] * 4 + ["dominating"] * 4 + sorted(_BLOCKS))
    steps = draw(st.lists(st.tuples(kinds, st.integers(1, 3), st.booleans()),
                          min_size=1, max_size=40))
    n, edges = 0, []
    for kind, count, joined in steps:
        if kind == "isolated":
            size, inner, joined = count, [], False
        elif kind == "dominating":
            size, inner, joined = count, list(combinations(range(count), 2)), True
        else:
            size, inner = _BLOCKS[kind]
        edges += [(n + a, n + b) for a, b in inner]
        if joined:
            edges += [(u, n + i) for u in range(n) for i in range(size)]
        n += size
    label = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


@settings(max_examples=150, deadline=None)
@given(creation_graphs())
def test_creation_sequences_decompose_as_the_search(g):
    expr = decompose_tree_cograph(g)
    assert expr == search_decompose(g)
    assert evaluate_tc(expr) == g


def _relabelled(e: TcExpr, label) -> TcExpr:
    """e with each vertex v renamed ``label[v]``."""
    return _fold(e, lambda leaf: TcLeaf(leaf.tree, tuple(label[v] for v in leaf.vertices), leaf.co),
                 lambda node, children: type(node)(tuple(children)))


_ONE = Graph(1, ((),))
_OPERATIONS = st.sampled_from((TcUnion, TcJoin))


@st.composite
def run_split_expressions(draw) -> TcExpr:
    """A union/join expression in which runs of threshold points hold
    multi-part splits and splits hold runs, one to three levels deep, in a
    random labelling.  A run wraps what it holds in one to six levels, each
    a union or a join with one to three points, as a threshold graph's
    creation sequence adds isolated or dominating vertices; a split is a
    union or a join of two or three such expressions; the innermost are
    trees or co-trees of one to four vertices.  ``creation_graphs`` grows
    one part only, so none of its splits holds two runs."""
    ids = count()

    def expression(depth: int, shapes: tuple[str, ...] = ("leaf", "run", "split")) -> TcExpr:
        shape = draw(st.sampled_from(shapes)) if depth else "leaf"
        if shape == "split":
            kind = draw(_OPERATIONS)
            return kind(tuple(expression(depth - 1) for _ in range(draw(st.integers(2, 3)))))
        if shape == "run":
            e = expression(depth - 1)
            for kind, points in draw(st.lists(st.tuples(_OPERATIONS, st.integers(1, 3)),
                                              min_size=1, max_size=6)):
                e = kind((e, *(TcLeaf(_ONE, (next(ids),)) for _ in range(points))))
            return e
        size = draw(st.integers(1, 4))
        tree = Graph.from_edges(size, [(draw(st.integers(0, v - 1)), v) for v in range(1, size)])
        return TcLeaf(tree, tuple(islice(ids, size)), co=size > 2 and draw(st.booleans()))

    e = expression(draw(st.integers(1, 3)), ("run", "split"))
    return _relabelled(e, draw(st.permutations(range(e.span))))


def _two_runs() -> TcExpr:
    """A union of two runs of points, each ending in a join of a 2- and a
    3-vertex leaf, in a random labelling."""
    ids = count()

    def run(levels: int) -> TcExpr:
        e = TcJoin((TcLeaf(path_graph(2), tuple(islice(ids, 2))),
                    TcLeaf(path_graph(3), tuple(islice(ids, 3)), co=True)))
        for level in range(levels):
            e = (TcJoin if level % 2 else TcUnion)((TcLeaf(_ONE, (next(ids),)), e))
        return e

    e = TcUnion((run(5), run(6)))
    label = list(range(e.span))
    random.Random("two runs").shuffle(label)
    return _relabelled(e, label)


@settings(max_examples=150, deadline=None)
@given(run_split_expressions())
@example(_two_runs())
def test_runs_and_splits_decompose_as_the_search(e):
    g = evaluate_tc(e)
    expr = decompose_tree_cograph(g)
    assert expr == search_decompose(g)
    assert evaluate_tc(expr) == g


def _two_chains(kind) -> TcExpr:
    """A union or a join of two 1000-level chains, in a random labelling."""
    label = list(range(2000))
    random.Random(f"two chains:{kind.head}").shuffle(label)
    return kind((_relabelled(_chain(1000), label[:1000]), _relabelled(_chain(1000), label[1000:])))


_AT_SCALE = {
    "nested": lambda: random_expression("nested", 2000, random.Random("scale:nested")),
    "wide": lambda: random_expression("wide", 2000, random.Random("scale:wide")),
    "union of chains": lambda: _two_chains(TcUnion),
    "join of chains": lambda: _two_chains(TcJoin),
    "leaf chain": lambda: _leaf_chain(300, (2,), random.Random("scale:leaf chain")),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(_AT_SCALE))
def test_decomposition_at_scale(name):
    g = evaluate_tc(_AT_SCALE[name]())
    expr = decompose_tree_cograph(g)
    assert "nbr_sets" not in vars(g)
    assert evaluate_tc(expr) == g
    assert expr == search_decompose(g)


def _explicit_graph(e: TcExpr) -> Graph:
    """The graph an expression denotes, from explicit edges: a leaf's tree
    edges, or its non-edges for a ``co`` leaf, and at a join every pair of
    vertices from two different children."""
    edges, spans = [], []
    for node in tc_postorder(e):
        if isinstance(node, TcLeaf):
            ids, tree = node.vertices, node.tree
            edges += [(ids[a], ids[b]) for a, b in combinations(range(tree.n), 2)
                      if tree.has_edge(a, b) != node.co]
            spans.append(list(ids))
        else:
            k = len(node.children)
            parts = spans[-k:]
            del spans[-k:]
            if isinstance(node, TcJoin):
                for x, y in combinations(parts, 2):
                    edges += product(x, y)
            spans.append([v for part in parts for v in part])
    return Graph.from_edges(len(spans[0]), edges)


def test_evaluate_matches_explicit_edges():
    rng = random.Random("evaluate")
    wide_joins = co_leaves = 0
    for family in FAMILIES:
        for _ in range(30):
            e = random_expression(family, rng.randint(2, 50), rng)
            assert evaluate_tc(e) == _explicit_graph(e)
            for node in tc_postorder(e):
                wide_joins += isinstance(node, TcJoin) and len(node.children) >= 3
                co_leaves += isinstance(node, TcLeaf) and node.co
    for sizes in ((2,), (1, 2, 3), (3, 4)):
        e = _leaf_chain(rng.randint(1, 30), sizes, rng)
        assert evaluate_tc(e) == _explicit_graph(e)
    assert wide_joins > 20 and co_leaves > 50


def test_evaluate_refuses_leaf_maps_that_do_not_partition():
    one = Graph(1, ((),))
    for ids in (((0,), (0,)), ((0,), (2,)), ((1,), (2,)), ((-1,), (0,))):
        with pytest.raises(ValueError, match="partition"):
            evaluate_tc(TcJoin((TcLeaf(one, ids[0]), TcLeaf(one, ids[1]))))


def test_decompose_empty_graph_fails():
    with pytest.raises(NotTreeCograph, match="^the empty graph has no vertices$"):
        decompose_tree_cograph(Graph(0, ()))


def test_decompose_builds_no_complement():
    rng = random.Random(4)
    g = evaluate_tc(random_expression("nested", 80, rng))
    decompose_tree_cograph(g)
    assert "_complement" not in vars(g)


# ---------------------------------------------------------------------------
# Complement memo and the edge-count tests
# ---------------------------------------------------------------------------


def test_complement_is_built_once_and_inverts():
    g = random_labeled_tree(30, random.Random(2))
    co = complement(g)
    assert complement(g) is co
    assert complement(co) is g
    assert co == _reference_complement(g)


def test_is_coforest_matches_complement():
    rng = random.Random(8)
    graphs = [complement(random_labeled_tree(rng.randint(1, 12), rng)) for _ in range(40)]
    graphs += [  # co-forests that are not co-trees
        complement(graph_union(*(random_labeled_tree(rng.randint(1, 6), rng) for _ in "ab")))
        for _ in range(40)
    ]
    graphs += [random_graph(rng.randint(0, 9), rng.uniform(0.3, 0.95), rng) for _ in range(200)]
    for g in graphs:
        assert is_coforest(g) == is_forest(_reference_complement(g))


def _has_independent_triple(g: Graph) -> bool:
    return any(
        not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c))
        for a, b, c in combinations(range(g.n), 3)
    )


def test_stability_matches_brute_force_up_to_six():
    for n in range(1, 7):
        for g in all_graphs(n):
            assert stability_at_most_two(g) == (not _has_independent_triple(g))


@pytest.mark.parametrize("n", [4, 5, 9, 10, 31])
def test_stability_either_side_of_mantel_bound(n):
    # the complement of K_{a,b} has exactly floor(n^2/4) non-edges
    at = complement(complete_bipartite(n // 2, n - n // 2))
    missing = [(u, v) for u, v in combinations(range(n), 2) if not at.has_edge(u, v)]
    plus = Graph.from_edges(n, list(at.edges) + [missing[0]])
    minus = Graph.from_edges(n, at.edges[1:])
    for g, expected in ((at, True), (plus, True), (minus, False)):
        assert stability_at_most_two(g) is expected
        assert (not _has_independent_triple(g)) is expected


# ---------------------------------------------------------------------------
# Deep expressions: no walk recurses
# ---------------------------------------------------------------------------


def _chain(levels: int, deepest_co: bool = False):
    """Alternating joins and unions of one-vertex leaves, each level adding
    a leaf on the left; vertex ids run left to right, as the parser gives."""
    expr = TcLeaf(Graph(1, ((),)), (levels - 1,), co=deepest_co)
    for v in range(1, levels):
        leaf = TcLeaf(Graph(1, ((),)), (levels - 1 - v,))
        expr = (TcJoin if v % 2 else TcUnion)((leaf, expr))
    return expr


def _shape(e):
    return [
        (type(x).__name__, x.span, getattr(x, "tree", None), getattr(x, "co", None))
        for x in tc_postorder(e)
    ]


def test_deep_expression_round_trips_through_text():
    e = _chain(10**4)
    text = format_tc_expression(e)
    parsed = parse_tc_expression(text)
    assert format_tc_expression(parsed) == text
    assert _shape(parsed) == _shape(e)
    assert parsed.span == 10**4
    assert parse_tc_expression(text) == parsed
    assert parsed == e and hash(parsed) == hash(e)


def test_deep_expressions_compare_hash_and_print():
    a, b = _chain(2000), _chain(2000)
    c = _chain(2000, deepest_co=True)  # differs only at the deepest leaf
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert repr(a) == repr(b) != repr(c)
    assert repr(a).count("co=False)") == 2000 and repr(c).count("co=False)") == 1999
    assert a != a.children[1] and a != 1


def test_expression_repr_matches_dataclass_form():
    leaf = Graph(1, ((),))
    e = TcUnion((TcLeaf(leaf, (0,)), TcJoin((TcLeaf(leaf, (1,), co=True), TcLeaf(leaf, (2,))))))
    assert repr(e) == (
        "TcUnion(children=(TcLeaf(tree=Graph(n=1, adj=((),)), vertices=(0,), co=False), "
        "TcJoin(children=(TcLeaf(tree=Graph(n=1, adj=((),)), vertices=(1,), co=True), "
        "TcLeaf(tree=Graph(n=1, adj=((),)), vertices=(2,), co=False)))))"
    )
    assert len({e, TcUnion(e.children), e.children[1]}) == 2


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_deep_chain_dominance_edge_list_matches_tcx(tmp_path):
    rng = random.Random(600)
    e = random_expression("chain", 620, rng)
    tcx = tmp_path / "chain.tcx"
    tcx.write_text(format_tc_expression(e))
    edges = tmp_path / "chain.txt"
    edges.write_text(format_edgelist(evaluate_tc(e)))
    code_tcx, out_tcx = _run(["dominance", str(tcx)])
    code_edges, out_edges = _run(["dominance", str(edges)])
    assert code_tcx == 0 and code_edges == 0
    assert out_edges == out_tcx
    assert len(out_tcx.splitlines()) == 620 - dominance_tc(e).chi + 1


# ---------------------------------------------------------------------------
# Tree dominance degree counts and the deficiency witness
# ---------------------------------------------------------------------------


def test_star_dominance_closed_form():
    leaves = 2 * 10**4
    vec = dominance_vector_tree(star_graph(leaves))
    assert vec.chi == 2
    assert vec.values == (2,) + (1,) * (leaves - 1)


def test_tree_dominance_degree_counts_match_m_i():
    rng = random.Random(21)
    for _ in range(60):
        t = random_labeled_tree(rng.randint(2, 40), rng)
        vec = dominance_vector_tree(t)
        for i in range(m_degree_bound(t) + 1, t.max_degree() + 2):
            assert vec.value_at(i) == m_i_count(t, i)


def test_deficiency_matching_builds_tables_once(monkeypatch):
    calls = []
    build = tree_dp.deficiency_tables

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(tree_dp, "deficiency_tables", counted)
    t = random_labeled_tree(40, random.Random(9))
    value, matching = tree_dp.deficiency_matching(t, 5)
    assert len(calls) == 1
    assert len(matching) == 5
    assert value == tree_dp.deficiency_vector(t)[5]
