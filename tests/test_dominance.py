import random
from functools import reduce

import pytest

from bchrom.bcoloring import verify_coloring
from bchrom.dominance import (
    DominanceVector,
    b_chromatic_tree,
    b_coloring_tree,
    _leaf_dominance,
    dominance_join,
    dominance_tc,
    dominance_union,
    dominance_vector_tree,
    find_pivot,
)
from bchrom.errors import NotATree
from bchrom.generators import random_graph, random_labeled_tree
from bchrom.graph import (
    Graph,
    TcJoin,
    TcLeaf,
    TcUnion,
    _fold,
    complement,
    complete_graph,
    cycle_graph,
    decompose_tree_cograph,
    empty_graph,
    graph_join,
    graph_union,
    induced_subgraph,
    path_graph,
    star_graph,
    tc_postorder,
)
from bchrom.oracle import oracle_dominance
from bchrom.route import StabilityTwoRoute, TreeCographRoute, plan

from conftest import random_expression, random_stability2, tree_catalog
from test_decompose import _chain


def test_pivot_examples(piv11):
    rep = find_pivot(piv11)
    assert rep.m_value == 4
    assert rep.dense == frozenset({1, 2, 3, 4})
    assert rep.pivot == 0
    assert find_pivot(path_graph(5)).pivot is None
    rep_star = find_pivot(star_graph(3))
    assert rep_star.pivot is None and len(rep_star.dense) == 4 != rep_star.m_value


def test_b_chromatic_tree_examples(piv11):
    assert b_chromatic_tree(piv11) == 3
    assert b_chromatic_tree(path_graph(5)) == 3
    assert b_chromatic_tree(path_graph(2)) == 2


def test_dominance_vector_tree_examples(piv11):
    assert dominance_vector_tree(star_graph(4)).values == (2, 1, 1, 1)
    dv = dominance_vector_tree(piv11)
    assert dv.value_at(2) == 2
    assert dv.value_at(3) == 3
    assert dv.value_at(4) == 3
    assert all(dv.value_at(t) == 0 for t in range(5, 12))
    assert dominance_vector_tree(path_graph(5)).values == (2, 3, 0, 0)


def test_tree_dominance_against_oracle():
    for t in tree_catalog(8, extra_random=60, seed=91):
        dv = dominance_vector_tree(t)
        want = oracle_dominance(t)
        assert dv.chi == want.chi == 2
        assert dv.values == want.values, f"tree {t.edges}"
        assert b_chromatic_tree(t) == want.b_chromatic()


def test_pivot_unique_when_present():
    # scan the full candidate set; at most one vertex can qualify
    for t in tree_catalog(9, extra_random=120, seed=92):
        rep = find_pivot(t)
        m = rep.m_value
        if len(rep.dense) != m:
            assert rep.pivot is None
            continue
        found = []
        for v in range(t.n):
            if v in rep.dense:
                continue
            near = set(t.adj[v])
            if not all(
                d in near or any(x in rep.dense and x in near for x in t.adj[d])
                for d in rep.dense
            ):
                continue
            if any(
                any(x in rep.dense for x in t.adj[d]) and t.degree(d) != m - 1
                for d in rep.dense & near
            ):
                continue
            found.append(v)
        assert len(found) <= 1
        assert rep.pivot == (found[0] if found else None)


def test_b_coloring_tree_examples(piv11):
    p5 = path_graph(5)
    c = b_coloring_tree(p5, 3)
    verdict = verify_coloring(p5, c)
    assert verdict.is_b_coloring
    c = b_coloring_tree(piv11, 4)
    verdict = verify_coloring(piv11, c)
    assert len(verdict.dominant_classes) == 3
    star = star_graph(4)
    c = b_coloring_tree(star, 2)
    assert verify_coloring(star, c).is_b_coloring


def test_b_coloring_tree_all_k_matches_dominance():
    for t in tree_catalog(8, extra_random=40, seed=93):
        dv = dominance_vector_tree(t)
        for k in range(2, t.n + 1):
            c = b_coloring_tree(t, k)
            assert c.t == k
            verdict = verify_coloring(t, c)
            assert len(verdict.dominant_classes) == dv.value_at(k), (
                f"tree {t.edges} k={k}"
            )


def test_cotree_dominance_examples():
    co_p6 = complement(path_graph(6))
    dv = plan(co_p6, "vector").vector
    assert dv.chi == 3
    assert dv.values == (3, 4, 1, 0)
    co_p3 = complement(path_graph(3))
    dv = plan(co_p3, "vector").vector
    assert dv.chi == 2 and dv.value_at(3) == 0
    co_p5 = complement(path_graph(5))
    dv = plan(co_p5, "vector").vector
    assert dv.chi == 3 and dv.value_at(5) == 0
    assert TreeCographRoute.attempt(co_p6, 16) == "a co-forest, left to the stability-two route"
    assert StabilityTwoRoute.attempt(complement(cycle_graph(5)), 4) == (
        "a non-tree component of the complement has 5 vertices, over the cap 4")


def test_cotree_dominance_against_oracle():
    for t in tree_catalog(9, extra_random=50, seed=94):
        ct = complement(t)
        dv = plan(ct, "vector").vector
        want = oracle_dominance(ct)
        assert dv.chi == want.chi and dv.values == want.values, f"tree {t.edges}"


def test_union_examples():
    k3 = DominanceVector(3, (3,))
    got = dominance_union(k3, k3)
    assert got.value_at(3) == 3
    assert got.value_at(4) == 0
    co_p3 = plan(complement(path_graph(3)), "vector").vector
    got = dominance_union(co_p3, co_p3)
    want = oracle_dominance(graph_union(complement(path_graph(3)), complement(path_graph(3))))
    assert got.chi == want.chi and got.values == want.values


def test_join_examples():
    k3 = DominanceVector(3, (3,))
    k1 = DominanceVector(1, (1,))
    assert dominance_join(k3, k3).value_at(6) == 6
    assert dominance_join(k1, k1).value_at(2) == 2
    p3 = dominance_vector_tree(path_graph(3))
    got = dominance_join(p3, k1)
    assert got.chi == 3 and got.value_at(3) == 3
    want = oracle_dominance(graph_join(path_graph(3), empty_graph(1)))
    assert got.values == want.values


def _oracle_graph_pairs():
    """60 pairs drawn, with seed 95, from 40 random graphs on 1-4 vertices."""
    rng = random.Random(95)
    pool = []
    for _ in range(40):
        n = rng.randint(1, 4)
        pool.append(
            Graph.from_edges(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.6
                ],
            )
        )
    for _ in range(60):
        yield rng.choice(pool), rng.choice(pool)


def test_union_join_against_oracle_random_pairs():
    for a, b in _oracle_graph_pairs():
        da, db = oracle_dominance(a), oracle_dominance(b)
        got_u = dominance_union(da, db)
        want_u = oracle_dominance(graph_union(a, b))
        assert (got_u.chi, got_u.values) == (want_u.chi, want_u.values)
        got_j = dominance_join(da, db)
        want_j = oracle_dominance(graph_join(a, b))
        assert (got_j.chi, got_j.values) == (want_j.chi, want_j.values)


def _vector_pool(rng: random.Random) -> list[DominanceVector]:
    """Oracle vectors of graphs up to 4 vertices and routed vectors of tree
    and co-tree leaves up to 60 vertices."""
    pool = [oracle_dominance(random_graph(n, 0.5, rng)) for n in (1, 1, 2, 2, 3, 3, 4, 4, 4, 4)]
    for co in (False, True):
        for n in (1, 2, 3, 7, 20, 60):
            tree = random_labeled_tree(n, rng)
            pool.append(plan(TcLeaf(tree, tuple(range(n)), co=co), "vector").vector)
    return pool


def test_union_and_join_are_commutative_and_associative():
    rng = random.Random(97)
    pool = _vector_pool(rng)
    for _ in range(60):
        a, b, c = (rng.choice(pool) for _ in range(3))
        for combine in (dominance_union, dominance_join):
            assert combine(a, b) == combine(b, a), combine.__name__
            assert combine(combine(a, b), c) == combine(a, combine(b, c)), combine.__name__
    for a in pool:  # every join window is nonempty
        for b in pool:
            assert dominance_join(a, b).n == a.n + b.n


# ---------------------------------------------------------------------------
# Reference: union and join cell by cell, through ``value_at``
# ---------------------------------------------------------------------------


def _reference_union(a: DominanceVector, b: DominanceVector) -> DominanceVector:
    chi = max(a.chi, b.chi)
    values = tuple(min(t, a.value_at(t) + b.value_at(t)) for t in range(chi, a.n + b.n + 1))
    return DominanceVector(chi, values)


def _reference_join(a: DominanceVector, b: DominanceVector) -> DominanceVector:
    """A t-coloring of a join gives j classes to a and t - j to b.  The
    window of j, [max(a.chi, t - b.n), min(a.n, t - b.chi)], is never
    empty for t in [a.chi + b.chi, a.n + b.n]: each lower end is at most
    each upper end, as a.chi <= a.n, t >= a.chi + b.chi, t <= a.n + b.n
    and b.chi <= b.n."""
    values = tuple(
        max(
            a.value_at(j) + b.value_at(t - j)
            for j in range(max(a.chi, t - b.n), min(a.n, t - b.chi) + 1)
        )
        for t in range(a.chi + b.chi, a.n + b.n + 1)
    )
    return DominanceVector(a.chi + b.chi, values)


def _random_vector(rng: random.Random) -> DominanceVector:
    """chi from 1, one entry or up to 40, and often a tail of zeros."""
    chi = rng.choice((1, 1, 2, 3, rng.randint(4, 30)))
    size = rng.choice((1, 1, 2, rng.randint(3, 40)))
    zeros_from = rng.randint(1, size) if rng.random() < 0.6 else size
    values = [chi] + [rng.randint(0, t) for t in range(chi + 1, chi + zeros_from)]
    return DominanceVector(chi, tuple(values + [0] * (size - len(values))))


def _assert_both_rules_match(a: DominanceVector, b: DominanceVector) -> None:
    for x, y in ((a, b), (b, a)):
        assert dominance_union(x, y) == _reference_union(x, y), (x, y)
        assert dominance_join(x, y) == _reference_join(x, y), (x, y)


def test_union_and_join_equal_the_reference_on_random_vectors():
    rng = random.Random(98)
    for _ in range(3000):
        _assert_both_rules_match(_random_vector(rng), _random_vector(rng))
    one = DominanceVector(1, (1,))
    for b in (one, DominanceVector(1, (1, 0, 0)), DominanceVector(5, (5, 0)), _random_vector(rng)):
        _assert_both_rules_match(one, b)


def test_union_and_join_equal_the_reference_on_oracle_pairs():
    for a, b in _oracle_graph_pairs():
        _assert_both_rules_match(oracle_dominance(a), oracle_dominance(b))


@pytest.mark.parametrize("family", ("nested", "wide", "chain"))
def test_dominance_tc_equals_the_reference_fold(family):
    rng = random.Random(f"reference fold:{family}")
    for n in (2, 7, 40, 120, 300):
        expr = random_expression(family, n, rng)
        want = _fold(
            expr,
            _leaf_dominance,
            lambda node, vecs: reduce(
                _reference_union if isinstance(node, TcUnion) else _reference_join, vecs
            ),
        )
        assert dominance_tc(expr) == want, (family, n)


def _pairwise_fold(expr):
    """The composition node by node, each node's children folded pairwise by
    ``dominance_union`` or ``dominance_join``: the reference that the point
    runs of ``dominance_tc`` must equal."""
    return _fold(expr, _leaf_dominance, lambda node, vecs: reduce(
        dominance_union if isinstance(node, TcUnion) else dominance_join, vecs))


@pytest.mark.parametrize("family", ("nested", "wide", "chain"))
def test_point_runs_equal_the_pairwise_fold(family):
    rng = random.Random(f"point runs:{family}")
    for n in range(2, 61):
        expr = random_expression(family, n, rng)
        assert dominance_tc(expr) == _pairwise_fold(expr), (family, n)


def _points(*ids: int, co: bool = False) -> tuple:
    return tuple(TcLeaf(Graph(1, ((),)), (v,), co=co) for v in ids)


def test_point_runs_by_hand():
    # a node of points alone: E_p for a union, K_p for a join
    assert dominance_tc(TcUnion(_points(0, 1, 2, 3))) == DominanceVector(1, (1, 0, 0, 0))
    assert dominance_tc(TcJoin(_points(0, 1, 2, 3))) == DominanceVector(4, (4,))
    assert dominance_tc(TcJoin(_points(0, 1, co=True))) == DominanceVector(2, (2,))
    p4 = TcLeaf(path_graph(4), (10, 11, 12, 13))
    co5 = TcLeaf(path_graph(5), (20, 21, 22, 23, 24), co=True)
    cases = {
        "points beside two non-point children": [
            TcJoin(_points(0) + (p4,) + _points(1) + (co5,)),
            TcUnion((p4, co5) + _points(0, 1, 2)),
        ],
        "a run at the root": [
            TcJoin(_points(0) + (TcUnion(_points(1, 2) + (TcJoin(_points(3) + (p4,)),)),)),
            TcUnion(_points(0) + (TcJoin((p4,) + _points(1, 2)),)),
        ],
        "a run that ends in a co leaf": [
            TcUnion(_points(0) + (TcJoin((co5,) + _points(1, 2)),)),
            TcJoin(_points(0) + (TcUnion(_points(1) + (co5,)),)),
            TcJoin((TcUnion(_points(0) + (co5,)), TcUnion(_points(1, 2) + (p4,)))),
        ],
        "points on both sides of the rest": [
            TcUnion(_points(0, 1) + (TcJoin(_points(2) + (co5,) + _points(3)),) + _points(4)),
            TcJoin(_points(0) + (TcUnion(_points(1) + (p4,) + _points(2, 3)),) + _points(4)),
        ],
        "a run under a node of two runs": [
            TcJoin((TcUnion(_points(0) + (TcJoin(_points(1, 2)),)),
                    TcUnion(_points(3) + (TcJoin(_points(4) + (p4,)),)))),
        ],
    }
    for name, exprs in cases.items():
        for expr in exprs:
            assert dominance_tc(expr) == _pairwise_fold(expr), (name, expr)


def test_a_chain_of_point_peels_composes_without_pairwise_steps(monkeypatch):
    """Every node of a threshold graph's chain has one child besides its
    points, so the whole chain is one run, applied once at the root."""
    import bchrom.dominance as dominance

    want = _pairwise_fold(_chain(300))
    for name in ("dominance_union", "dominance_join"):
        monkeypatch.setattr(dominance, name, None)  # a call fails
    assert dominance_tc(_chain(300)) == want


@pytest.mark.slow
@pytest.mark.parametrize("family", ("chain", "nested", "wide"))
def test_point_runs_equal_the_pairwise_fold_at_scale(family):
    rng = random.Random(f"point runs at scale:{family}")
    exprs = [random_expression(family, n, rng) for n in (1000, 3000)]
    if family == "chain":
        exprs += [_chain(2000), _chain(2001, deepest_co=True)]
    for expr in exprs:
        assert dominance_tc(expr) == _pairwise_fold(expr), (family, expr.span)


# ---------------------------------------------------------------------------
# Tree-cographs are b-monotonic and b-continuous (result 4)
# ---------------------------------------------------------------------------


def _delete_leaf_vertex(expr, rng: random.Random):
    """The expression with one vertex of degree at most 1 in one leaf's tree
    deleted, so that leaf stays a tree; a leaf left empty is dropped and an
    operation left with one child is replaced by that child."""
    leaves = [node for node in tc_postorder(expr) if isinstance(node, TcLeaf)]
    target = rng.choice(leaves)
    tree = target.tree
    gone = rng.choice([v for v in range(tree.n) if tree.degree(v) <= 1])
    keep = [v for v in range(tree.n) if v != gone]

    def leaf(node):
        if node is not target:
            return node
        if not keep:
            return None
        return TcLeaf(induced_subgraph(tree, keep), tuple(node.vertices[v] for v in keep), node.co)

    def operation(node, children):
        children = tuple(c for c in children if c is not None)
        return children[0] if len(children) == 1 else type(node)(children)

    return _fold(expr, leaf, operation)


@pytest.mark.parametrize("family", ("nested", "wide", "chain"))
def test_b_monotonicity_of_tree_cographs_beyond_the_oracle(family):
    """Deleting vertices one at a time, each from a leaf's tree, never raises
    the b-chromatic number, and each expression along the way is
    b-continuous: every t in [chi, chi_b] is a fixed point."""
    rng = random.Random(f"monotonicity:{family}")
    for n, deletions in ((12, 11), (60, 30), (200, 40)):
        expr = random_expression(family, n, rng)
        last = None
        for _ in range(deletions + 1):
            vec = dominance_tc(expr)
            value = vec.b_chromatic()
            assert vec.fixed_points() == list(range(vec.chi, value + 1)), (family, expr.span)
            assert last is None or value <= last, (family, expr.span)
            last = value
            expr = _delete_leaf_vertex(expr, rng)


def test_dominance_tc_examples(piv11):
    assert dominance_tc(TcLeaf(piv11, tuple(range(11)))).b_chromatic() == 3
    assert dominance_tc(TcLeaf(path_graph(6), tuple(range(6)), co=True)).b_chromatic() == 4
    k1 = TcLeaf(path_graph(1), (0,))
    k1b = TcLeaf(path_graph(1), (1,))
    join = TcJoin((k1, k1b))
    assert dominance_tc(join).b_chromatic() == 2
    assert dominance_tc(join).values == (2,)


def test_tree_cograph_chromatic_examples():
    assert dominance_tc(TcLeaf(path_graph(6), tuple(range(6)))).chi == 2
    assert dominance_tc(TcLeaf(path_graph(6), tuple(range(6)), co=True)).chi == 3
    expr = TcJoin(
        (
            TcLeaf(path_graph(6), tuple(range(6))),
            TcLeaf(path_graph(6), tuple(range(6, 12)), co=True),
        )
    )
    assert dominance_tc(expr).chi == 5


def test_tc_fixed_points_form_interval():
    rng = random.Random(96)
    for _ in range(40):
        g = _random_tree_cograph(rng, max_n=9)
        expr = decompose_tree_cograph(g)
        vec = dominance_tc(expr)
        fps = vec.fixed_points()
        assert fps == list(range(vec.chi, vec.b_chromatic() + 1))
        want = oracle_dominance(g)
        assert (vec.chi, vec.values) == (want.chi, want.values)


def _random_tree_cograph(rng: random.Random, max_n: int) -> Graph:
    g = random_labeled_tree(rng.randint(1, 4), rng)
    if rng.random() < 0.3:
        g = complement(g)
    while g.n < max_n and rng.random() < 0.75:
        extra = random_labeled_tree(rng.randint(1, max_n - g.n), rng)
        if rng.random() < 0.3:
            extra = complement(extra)
        g = graph_union(g, extra) if rng.random() < 0.5 else graph_join(g, extra)
    return g


def test_rejects_non_trees():
    with pytest.raises(NotATree):
        b_chromatic_tree(complete_graph(3))
    with pytest.raises(NotATree):
        dominance_vector_tree(path_graph(1))
