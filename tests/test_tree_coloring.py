"""The tree b-coloring construction against the closed-form dominance vector.

``b_coloring_tree(t, k)`` must return a proper k-coloring whose number of
dominant classes is exactly ``dominance_vector_tree(t).value_at(k)``: on
every small tree in a random labelling, on trees where picking witnesses
greedily or completing with one level of lookahead goes wrong, and on trees
far beyond the reach of any search.
"""

import io
import random
from contextlib import redirect_stdout

import networkx as nx
import pytest

from bchrom.bcoloring import verify_coloring
from bchrom.cli import main
from bchrom.dominance import b_chromatic_tree, b_coloring_tree, dominance_vector_tree
from bchrom.fileio import format_edgelist
from bchrom.generators import random_labeled_tree
from bchrom.graph import Graph, star_graph


def relabel(n: int, edges, rng: random.Random) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def caterpillar(n: int, rng: random.Random) -> Graph:
    """A path on n/4 vertices with the rest hung on it as legs, relabelled."""
    spine = max(2, n // 4)
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(v, rng.randrange(spine)) for v in range(spine, n)]
    return relabel(n, edges, rng)


def assert_attains_dominance(t: Graph, k: int) -> None:
    c = b_coloring_tree(t, k)
    assert c.t == k
    found = len(verify_coloring(t, c).dominant_classes)
    assert found == dominance_vector_tree(t).value_at(k), f"tree {t.edges} k={k}"


def test_every_tree_up_to_ten_vertices_every_k():
    rng = random.Random(1310)
    for n in range(2, 11):
        for tree in nx.nonisomorphic_trees(n):
            t = relabel(n, tree.edges(), rng)
            for k in range(2, n + 1):
                assert_attains_dominance(t, k)


def test_random_twenty_vertex_trees_at_two_and_above_max_degree():
    rng = random.Random(20)
    for _ in range(20):
        t = random_labeled_tree(20, rng)
        assert_attains_dominance(t, 2)
        assert_attains_dominance(t, t.max_degree() + 2)


# Trees where choosing the first k dense vertices, or skipping dense vertices
# that share a neighbour with a chosen one, or completing greedily with one
# level of lookahead misses the b-coloring.  In E a free vertex is left one
# color by its witness children, and its parent must not take that color.
# In F a witness's missing colors are covered only after an augmenting path
# reassigns a child that the greedy pass of the matching gave another color.
PINNED = {
    "A": ([(0, 1), (0, 6), (1, 2), (2, 3), (3, 4), (3, 5), (6, 7), (6, 10), (7, 8),
           (7, 9), (10, 11), (10, 12)], 4),
    "B": ([(0, 1), (0, 8), (1, 2), (1, 5), (2, 3), (2, 4), (5, 6), (5, 7), (8, 9),
           (8, 12), (9, 10), (9, 11)], 4),
    "C": ([(0, 1), (0, 7), (0, 11), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6), (7, 8),
           (8, 9), (8, 10), (11, 12), (11, 13)], 4),
    "D": ([(0, 19), (1, 8), (2, 12), (3, 6), (3, 11), (3, 21), (4, 16), (4, 19),
           (4, 26), (5, 14), (7, 16), (8, 17), (8, 20), (8, 25), (9, 18), (10, 12),
           (12, 18), (12, 20), (13, 16), (14, 21), (14, 22), (14, 27), (15, 19),
           (16, 20), (18, 23), (19, 24), (20, 22)], 5),
    "E": ([(0, 16), (1, 17), (2, 4), (3, 18), (4, 8), (4, 15), (5, 15), (6, 12), (7, 15),
           (8, 18), (8, 19), (9, 12), (10, 12), (11, 16), (12, 16), (12, 17), (12, 19),
           (13, 18), (14, 16)], 4),
    "F": ([(0, 5), (1, 6), (2, 5), (3, 4), (3, 7), (3, 10), (5, 9), (6, 9), (6, 10),
           (8, 10), (8, 11)], 4),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_trees_get_a_b_coloring(name):
    edges, k = PINNED[name]
    t = Graph.from_edges(len(edges) + 1, edges)
    assert b_chromatic_tree(t) == k
    c = b_coloring_tree(t, k)
    assert verify_coloring(t, c).is_b_coloring


@pytest.mark.parametrize("shape", ["random", "caterpillar"])
def test_ten_thousand_vertices(shape):
    rng = random.Random(10**4)
    t = random_labeled_tree(10**4, rng) if shape == "random" else caterpillar(10**4, rng)
    delta = t.max_degree()
    for k in sorted({2, 3, b_chromatic_tree(t), delta + 1, delta + 2}):
        assert_attains_dominance(t, k)


def test_star_with_two_thousand_leaves_at_max_degree_plus_one():
    star = star_graph(2000)
    for t in (star, relabel(star.n, star.edges, random.Random(7))):
        c = b_coloring_tree(t, 2001)
        assert len(verify_coloring(t, c).dominant_classes) == 1


def test_cli_witness_on_a_two_thousand_vertex_tree(tmp_path):
    t = random_labeled_tree(2000, random.Random(2000))
    tree_file = tmp_path / "t.g"
    tree_file.write_text(format_edgelist(t))
    witness = tmp_path / "w.col"
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["bchromatic", "--witness", str(witness), str(tree_file)]) == 0
        assert main(["verify", str(tree_file), str(witness)]) == 0
    out = buf.getvalue().splitlines()
    assert out[0] == str(b_chromatic_tree(t))
    assert out[1] == "B-COLORING yes"
