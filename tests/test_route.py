"""The route planner: one route per input and question, answers equal to
the brute-force oracle on randomly labelled inputs, and refusals that name
why every route was rejected."""

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from bchrom import tree_dp
from bchrom.bcoloring import verify_coloring
from bchrom.cli import main
from bchrom.errors import NoRoute
from bchrom.fileio import format_edgelist, format_tc_expression, parse_coloring
from bchrom.generators import random_labeled_tree
from bchrom.graph import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    decompose_tree_cograph,
    empty_graph,
    graph_join,
    graph_union,
    is_forest,
    is_tree,
    path_graph,
    stability_at_most_two,
)
from bchrom.oracle import oracle_chi_b, oracle_dominance
from bchrom.route import plan


def _relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _tree_cograph(n: int, rng: random.Random) -> Graph:
    """A random union/join of trees and co-trees on n vertices."""
    if n <= 3 or rng.random() < 0.3:
        t = random_labeled_tree(n, rng)
        return t if rng.random() < 0.5 else complement(t)
    a = rng.randint(1, n - 1)
    combine = graph_union if rng.random() < 0.5 else graph_join
    return combine(_tree_cograph(a, rng), _tree_cograph(n - a, rng))


def _coforest(n: int, rng: random.Random) -> Graph:
    a = rng.randint(1, n - 1)
    return complement(graph_union(random_labeled_tree(a, rng), random_labeled_tree(n - a, rng)))


WHEEL5 = graph_join(cycle_graph(5), complete_graph(1))


def _families(rng: random.Random):
    """(family, randomly labelled graph) pairs, all with n <= 10."""
    for _ in range(8):
        yield "tree", random_labeled_tree(rng.randint(2, 10), rng)
        yield "co-tree", complement(random_labeled_tree(rng.randint(1, 10), rng))
        yield "co-forest", _relabel(_coforest(rng.randint(2, 10), rng), rng)
        yield "tree-cograph", _relabel(_tree_cograph(rng.randint(1, 10), rng), rng)
    yield "c5", _relabel(cycle_graph(5), rng)
    yield "wheel", _relabel(WHEEL5, rng)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_answers_equal_the_oracle_on_every_family(tmp_path):
    rng = random.Random(11)
    for i, (family, g) in enumerate(_families(rng)):
        path = tmp_path / f"g{i}.g"
        path.write_text(format_edgelist(g))
        files = [str(path)]
        if family not in ("c5", "wheel"):
            tcx = tmp_path / f"g{i}.tcx"
            tcx.write_text(format_tc_expression(decompose_tree_cograph(g)))
            files.append(str(tcx))
        vec = oracle_dominance(g)
        dominance = "".join(f"{t} {vec.value_at(t)}\n" for t in range(vec.chi, g.n + 1))
        for f in files:
            assert _run(["bchromatic", f]) == (0, f"{oracle_chi_b(g)}\n", ""), (family, g)
            assert _run(["dominance", f]) == (0, dominance, ""), (family, g)


def test_route_names_per_family():
    seen = set()
    for family, g in _families(random.Random(12)):
        name = plan(g, "value").name
        if family in ("c5", "wheel"):
            assert name == "exact-search"
        elif g.n >= 2 and is_tree(g):  # some co-trees and co-forests are trees too
            assert name == "tree"
        elif is_forest(complement(g)):
            assert name == "co-forest"
        else:
            assert family == "tree-cograph" and name == "tree-cograph"
        seen.add(name)
    assert seen == {"tree", "co-forest", "tree-cograph", "exact-search"}
    assert plan(path_graph(1), "value").name == "co-forest"  # a vertex is a co-forest


def test_expressions_are_routed_without_their_graph_for_values():
    t = random_labeled_tree(7, random.Random(3))
    assert plan(decompose_tree_cograph(t), "vector").name == "tree"
    assert plan(decompose_tree_cograph(complement(t)), "vector").name == "co-forest"
    e = decompose_tree_cograph(graph_union(complete_graph(3), complete_graph(3)))
    assert plan(e, "value").name == "tree-cograph"
    witness = plan(e, "witness")  # the tree-cograph route gives no witness
    assert witness.name == "exact-search"
    assert witness.rejected[2] == "tree-cograph: gives no witness"


def test_rejection_reasons_on_c5_plus_vertex():
    g = graph_union(cycle_graph(5), empty_graph(1))
    with pytest.raises(NoRoute) as exc:
        plan(g, "value")
    message = str(exc.value)
    for reason in (
        "tree: not a tree on two or more vertices",
        "co-forest: the complement is not a forest",
        "tree-cograph: not a tree-cograph",
        "exact-search: stability above two",
    ):
        assert reason in message
    assert "\n" not in message
    route = plan(cycle_graph(5), "value")
    assert [line.split(":")[0] for line in route.rejected] == ["tree", "co-forest", "tree-cograph"]


def test_two_disjoint_k15_are_answered(tmp_path):
    path = tmp_path / "cliques.g"
    path.write_text(format_edgelist(graph_union(complete_graph(15), complete_graph(15))))
    assert _run(["bchromatic", str(path)]) == (0, "15\n", "")


def test_witness_of_a_small_stability2_tree_cograph(tmp_path):
    g = graph_union(complete_graph(3), complete_graph(3))
    assert stability_at_most_two(g) and not is_forest(complement(g))
    path, out = tmp_path / "k3k3.g", tmp_path / "w.col"
    path.write_text(format_edgelist(g))
    assert _run(["bchromatic", str(path), "--witness", str(out)]) == (0, "3\n", "")
    coloring = parse_coloring(out.read_text(), g.n)
    assert coloring.t == 3 and verify_coloring(g, coloring).is_b_coloring


def test_bcolor_refuses_a_tree_cograph_above_stability_two(tmp_path):
    g = graph_union(path_graph(3), empty_graph(1))
    assert not stability_at_most_two(g)
    path = tmp_path / "p3k1.g"
    path.write_text(format_edgelist(g))
    code, out, err = _run(["bcolor", str(path), "2"])
    assert code == 1 and out == ""
    assert "tree-cograph: gives no coloring" in err
    assert "exact-search: stability above two" in err


def test_zero_vertices_get_one_answer(tmp_path):
    path = tmp_path / "empty.g"
    path.write_text("p 0 0\n")
    for argv in (["bchromatic", str(path)], ["dominance", str(path)], ["bcolor", str(path), "1"]):
        assert _run(argv) == (1, "", "error: the graph has no vertices\n")
    coloring = tmp_path / "empty.col"
    coloring.write_text("")
    assert _run(["verify", str(path), str(coloring)]) == (0, "B-COLORING yes\n", "")


def test_dump_tables_builds_the_deficiency_tables_once(tmp_path, monkeypatch):
    calls = []
    original = tree_dp.deficiency_tables

    def counted(t):
        calls.append(t.n)
        return original(t)

    for name, module in list(sys.modules.items()):  # every module that bound the name
        if name.startswith("bchrom.") and getattr(module, "deficiency_tables", None) is original:
            monkeypatch.setattr(module, "deficiency_tables", counted)
    path = tmp_path / "cotree.g"
    path.write_text(format_edgelist(complement(random_labeled_tree(30, random.Random(4)))))
    code, out, _ = _run(["dominance", str(path), "--dump-tables"])
    assert code == 0 and "pair-free" in out
    assert calls == [30]


def test_coforest_and_tree_cograph_routes_agree_beyond_the_oracle():
    rng = random.Random(13)
    for _ in range(6):
        g = _relabel(_coforest(rng.randint(20, 60), rng), rng)
        expr = decompose_tree_cograph(g)
        assert plan(g, "vector").name == "co-forest"
        assert plan(expr, "vector").vector == plan(g, "vector").vector
        assert plan(expr, "value").value == plan(g, "value").value
