"""Shared graph corpora for the test-suite."""

from __future__ import annotations

import heapq
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import strategies as st

from bchrom.generators import random_graph, random_labeled_tree, random_triangle_free
from bchrom.graph import (
    Graph,
    TcJoin,
    TcLeaf,
    TcUnion,
    complement,
    complete_bipartite,
    cycle_graph,
    graph_union,
    path_graph,
    star_graph,
)


_HERE = os.path.dirname(os.path.abspath(__file__))
_PATH = os.pathsep.join([os.path.join(_HERE, os.pardir, "src"), _HERE])


def fresh_python(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """``python *args`` run by a fresh interpreter that imports bchrom from
    src and the test modules from tests, its output captured as text; past
    ``timeout`` seconds it is killed and ``subprocess.TimeoutExpired`` fails
    the test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_PATH, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


def all_graphs(n: int):
    """Every labeled graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, (p for i, p in enumerate(pairs) if (mask >> i) & 1))


def spider(legs: list[int]) -> Graph:
    """One hub with paths of the given lengths hanging off it."""
    edges = []
    nid = 1
    for leg in legs:
        prev = 0
        for _ in range(leg):
            edges.append((prev, nid))
            prev = nid
            nid += 1
    return Graph.from_edges(nid, edges)


def _partitions(total: int, parts: int, minimum: int = 1):
    if parts == 1:
        if total >= minimum:
            yield [total]
        return
    for first in range(minimum, total - (parts - 1) * minimum + 1):
        for rest in _partitions(total - first, parts - 1, first):
            yield [first] + rest


def tree_catalog(max_n: int, extra_random: int, seed: int = 2024) -> list[Graph]:
    """Paths, stars and spiders up to max_n, topped up with random trees."""
    rng = random.Random(seed)
    out: list[Graph] = []
    for n in range(2, max_n + 1):
        out.append(path_graph(n))
        if n >= 3:
            out.append(star_graph(n - 1))
    for n in range(4, max_n + 1):
        for parts in range(3, n):
            for legs in _partitions(n - 1, parts):
                g = spider(legs)
                if g.n <= max_n:
                    out.append(g)
    while len(out) < extra_random:
        out.append(random_labeled_tree(rng.randint(2, max_n), rng))
    return out


def relabelled(g: Graph, rng: random.Random) -> Graph:
    """g under a random permutation of its vertices."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def random_stability2(n: int, rng: random.Random, p: float | None = None) -> Graph:
    tri_free = random_triangle_free(n, rng.uniform(0.2, 0.9) if p is None else p, rng)
    return complement(tri_free)


def random_graph_corpus(count: int, max_n: int, seed: int = 99) -> list[Graph]:
    rng = random.Random(seed)
    return [
        random_graph(rng.randint(1, max_n), rng.uniform(0.1, 0.9), rng)
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# Randomly labelled expressions
# ---------------------------------------------------------------------------


def _leaf(size: int, rng: random.Random, labels: list[int]) -> TcLeaf:
    tree = random_labeled_tree(size, rng)
    ids = tuple(labels.pop() for _ in range(size))
    return TcLeaf(tree, ids, co=size > 2 and rng.random() < 0.5)


def _sizes(total: int, parts: int, rng: random.Random) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def random_expression(family: str, n: int, rng: random.Random):
    """An expression on exactly n vertices whose leaves take a random
    permutation of 0..n-1 as their vertex ids."""
    labels = list(range(n))
    rng.shuffle(labels)
    ops = (TcUnion, TcJoin) if rng.random() < 0.5 else (TcJoin, TcUnion)
    if family == "chain":
        expr = _leaf(1, rng, labels)
        for level in range(n - 1):
            pair = [_leaf(1, rng, labels), expr]
            rng.shuffle(pair)
            expr = ops[level % 2](tuple(pair))
        return expr
    if family == "wide":
        parts = min(n, max(4, n // 6))
        leaves = [_leaf(s, rng, labels) for s in _sizes(n, parts, rng)]
        cut = len(leaves) // 2
        if cut < 2:
            return ops[0](tuple(leaves))
        return ops[0]((ops[1](tuple(leaves[:cut])), ops[1](tuple(leaves[cut:]))))
    # nested: split the budget recursively, alternating operations
    todo = [(n, 0)]
    done = []
    order = []
    while todo:
        budget, depth = todo.pop()
        parts = rng.randint(2, 4)
        if budget < 2 * parts or (budget <= 8 and rng.random() < 0.5):
            order.append(("leaf", budget))
        else:
            sizes = _sizes(budget, parts, rng)
            order.append(("op", depth, len(sizes)))
            todo.extend((s, depth + 1) for s in reversed(sizes))
    for item in reversed(order):
        if item[0] == "leaf":
            done.append(_leaf(item[1], rng, labels))
        else:
            _, depth, k = item
            children = tuple(reversed(done[-k:]))
            del done[-k:]
            done.append(ops[depth % 2](children))
    return done[0]


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------


def _pruefer_edges(seq: list[int], n: int) -> list[tuple[int, int]]:
    """The edges of the tree on 0..n-1 whose Prüfer sequence is seq, n - 2
    entries long: each entry is joined to the least leaf left."""
    if n < 2:
        return []
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return edges


@st.composite
def labelled_trees(draw, min_n: int = 1, max_n: int = 40) -> Graph:
    """A tree decoded from a drawn Prüfer sequence, under a drawn
    permutation of its vertices."""
    n = draw(st.integers(min_n, max_n))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in _pruefer_edges(seq, n)])


def co_trees(min_n: int = 1, max_n: int = 40):
    """The complement of a drawn labelled tree."""
    return labelled_trees(min_n, max_n).map(complement)


@st.composite
def triangle_free_complements(draw, max_n: int = 9) -> Graph:
    """The complement of a triangle-free graph on at most max_n >= 5
    vertices: a forest plus one C5, C7 or K(a, b) component with a, b >= 2,
    under a drawn permutation of its vertices."""
    cycles = st.sampled_from([cycle_graph(c) for c in (5, 7) if c <= max_n])
    bipartite = st.integers(2, max_n // 2).flatmap(
        lambda a: st.integers(a, max_n - a).map(lambda b: complete_bipartite(a, b)))
    piece = draw(cycles | bipartite)
    rest = draw(st.integers(0, max_n - piece.n))
    # each forest vertex after the first hangs off an earlier one or starts a tree
    parents = [draw(st.one_of(st.none(), st.integers(0, v - 1))) for v in range(1, rest)]
    forest = Graph.from_edges(rest, [(p, v) for v, p in enumerate(parents, 1) if p is not None])
    g = graph_union(piece, forest)
    perm = draw(st.permutations(range(g.n)))
    return complement(Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges]))


@pytest.fixture(scope="session")
def piv11() -> Graph:
    """Pivoted tree: hub 1 with subtrees making vertices 1..4 dense and
    vertex 0 the pivot."""
    return Graph.from_edges(
        11,
        [(0, 1), (1, 2), (1, 3), (0, 4), (2, 5), (2, 6), (3, 7), (3, 8), (4, 9), (4, 10)],
    )
