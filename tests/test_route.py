"""The route planner: one route per input and question, answers equal to
the brute-force oracle on randomly labelled inputs, and refusals that name
why every route was rejected."""

import io
import itertools
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchrom import dominance, fileio, graph, tree_dp
from bchrom.bcoloring import coloring_to_matching, matching_to_coloring, verify_coloring
from bchrom.cli import main
from bchrom.dominance import dominance_from_deficiency
from bchrom.errors import BudgetExceeded, InvariantViolation, NoRoute
from bchrom.fileio import (
    format_edgelist,
    format_tc_expression,
    parse_coloring,
    parse_edgelist,
    parse_tc_expression,
)
from bchrom.generators import random_labeled_tree, random_triangle_free
from bchrom.graph import (
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    TcJoin,
    TcLeaf,
    TcUnion,
    decompose_tree_cograph,
    empty_graph,
    evaluate_tc,
    graph_join,
    graph_union,
    induced_subgraph,
    is_forest,
    is_tree,
    path_graph,
    stability_at_most_two,
)
from bchrom.matching import least_deficiency_matchings, s1_s2
from bchrom.oracle import _Counter, oracle_chi_b, oracle_dominance, oracle_f_t_k
from bchrom.oracle import continuity_chain, oracle_min_smm, oracle_nu
from bchrom.route import StabilityTwoRoute, plan
from bchrom.tree_dp import INF, combine_all, deficiency_vector, min_smm_tree

from conftest import co_trees, labelled_trees, random_expression, random_stability2
from conftest import triangle_free_complements


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
            assert name == "stability-two"
        elif g.n >= 2 and is_tree(g):  # some co-trees and co-forests are trees too
            assert name == "tree"
        elif is_forest(complement(g)):
            assert name == "stability-two"
        else:
            assert family == "tree-cograph" and name == "tree-cograph"
        seen.add(name)
    assert seen == {"tree", "tree-cograph", "stability-two"}
    assert plan(path_graph(1), "value").name == "stability-two"  # a vertex is a co-forest


def test_expressions_are_routed_without_their_graph_for_values():
    t = random_labeled_tree(7, random.Random(3))
    assert plan(decompose_tree_cograph(t), "vector").name == "tree"
    assert plan(decompose_tree_cograph(complement(t)), "vector").name == "stability-two"
    e = decompose_tree_cograph(graph_union(complete_graph(3), complete_graph(3)))
    assert plan(e, "value").name == "tree-cograph"
    witness = plan(e, "witness")  # the tree-cograph route gives no witness
    assert witness.name == "stability-two"
    assert witness.rejected[1] == "tree-cograph: gives no witness"
    # one leaf rule: a plain leaf on two or more vertices is a tree, every other leaf a
    # co-forest, which the tree-cograph route leaves to the stability-two route
    for text, name in (("(tree 2 0 1)", "tree"), ("(tree 1)", "stability-two"),
                       ("(cotree 1)", "stability-two"), ("(cotree 2 0 1)", "stability-two")):
        for need in ("value", "vector"):
            route = plan(parse_tc_expression(text), need)
            assert route.name == name, (text, need)
            if name == "stability-two":
                assert route.rejected[1] == "tree-cograph: a co-forest, left to the stability-two route"
    assert plan(parse_edgelist("p 1 0\n"), "vector").name == "stability-two"


def test_rejection_reasons_on_c5_plus_vertex():
    g = graph_union(cycle_graph(5), empty_graph(1))
    with pytest.raises(NoRoute) as exc:
        plan(g, "value")
    message = str(exc.value)
    for reason in (
        "tree: not a tree on two or more vertices",
        "tree-cograph: not a tree-cograph",
        "stability-two: stability above two",
    ):
        assert reason in message
    assert "\n" not in message
    route = plan(cycle_graph(5), "value")
    assert [line.split(":")[0] for line in route.rejected] == ["tree", "tree-cograph"]


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
    assert "stability-two: stability above two" in err


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
        assert plan(g, "vector").name == "stability-two"
        assert plan(expr, "vector").vector == plan(g, "vector").vector
        assert plan(expr, "value").value == plan(g, "value").value


def test_dump_tables_builds_the_scalar_tables_once(tmp_path, monkeypatch):
    calls = []
    original = tree_dp.smm_tables

    def counted(t):
        calls.append(t.n)
        return original(t)

    for name, module in list(sys.modules.items()):
        if name.startswith("bchrom.") and getattr(module, "smm_tables", None) is original:
            monkeypatch.setattr(module, "smm_tables", counted)
    path = tmp_path / "cotree.g"
    path.write_text(format_edgelist(complement(random_labeled_tree(30, random.Random(4)))))
    code, out, _ = _run(["bchromatic", str(path), "--dump-tables"])
    assert code == 0 and "held-free" in out
    assert calls == [30]


def test_tree_requests_search_the_tree_once(tmp_path, monkeypatch):
    """The tree route's checks (route, pivot scan, rooting, coloring) all
    read the components kept on the graph, so a request searches once."""
    searched = []
    original = graph._search_components

    def counted(g):
        searched.append(g.n)
        return original(g)

    monkeypatch.setattr(graph, "_search_components", counted)
    path = tmp_path / "tree.g"
    path.write_text(format_edgelist(random_labeled_tree(2000, random.Random(8))))
    code, out, _ = _run(["bchromatic", str(path)])
    chi_b = int(out)
    for argv in (
        ["dominance", str(path)],
        ["bchromatic", str(path)],
        ["bchromatic", str(path), "--witness", str(tmp_path / "w.col")],
        ["bcolor", str(path), str(chi_b)],
        ["bcolor", str(path), "1999"],
        ["chain", str(path)],
    ):
        searched.clear()
        code, _, err = _run(argv)
        assert (code, err) == (0, "") and searched == [2000], argv


def test_tree_requests_scan_for_the_pivot_once(tmp_path, monkeypatch):
    """The tree route keeps one pivot report for its value, vector and
    colorings; a witness is colored at dom[chi_b] = chi_b with no vector, and
    a chain colors every t from chi_b down to 2 off one vector."""
    calls = []
    for fn in (dominance.find_pivot, dominance.dominance_vector_tree):

        def counted(*args, _fn=fn):
            calls.append(_fn.__name__)
            return _fn(*args)

        for name, module in list(sys.modules.items()):  # every module that bound the name
            if name.startswith("bchrom.") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    path = tmp_path / "tree.g"
    path.write_text(format_edgelist(random_labeled_tree(2000, random.Random(8))))
    code, out, _ = _run(["bchromatic", str(path)])
    chi_b = int(out)
    for argv, vectors in (
        (["dominance", str(path)], 1),
        (["bchromatic", str(path)], 0),
        (["bchromatic", str(path), "--witness", str(tmp_path / "w.col")], 0),
        (["bcolor", str(path), str(chi_b)], 1),
        (["bcolor", str(path), "1999"], 1),
        (["chain", str(path)], 1),
    ):
        calls.clear()
        code, _, err = _run(argv)
        assert (code, err) == (0, "") and calls.count("find_pivot") == 1, (argv, calls)
        assert calls.count("dominance_vector_tree") == vectors, (argv, calls)


def test_kept_components_cannot_be_changed():
    g = graph_union(path_graph(3), path_graph(2))
    comps = connected_components(g)
    with pytest.raises(TypeError):
        comps[0] = (4,)
    with pytest.raises(TypeError):
        comps[1][0] = 0
    with pytest.raises(AttributeError):
        comps[0].append(4)
    assert connected_components(g) is comps
    assert comps == ((0, 1, 2), (3, 4))


def test_plan_stability2_examples():
    co_p6 = complement(path_graph(6))
    route = plan(co_p6, "witness")
    assert route.value == 4
    assert verify_coloring(co_p6, route.witness).is_b_coloring
    route = plan(complete_graph(5), "witness")
    assert route.value == 5 and route.witness.t == 5
    co_c7 = complement(cycle_graph(7))
    route = plan(co_c7, "witness", max_n=7)
    assert route.value == 7 - 3
    assert verify_coloring(co_c7, route.witness).is_b_coloring


def test_plan_refuses_a_large_stability2_non_coforest():
    co = complement(cycle_graph(18))
    with pytest.raises(NoRoute):
        plan(co, "witness", max_n=16)


def test_plan_stability2_against_oracle():
    rng = random.Random(7)
    for _ in range(80):
        g = random_stability2(rng.randint(1, 8), rng)
        route = plan(g, "witness")
        value, witness = route.value, route.witness
        assert value == oracle_chi_b(g)
        verdict = verify_coloring(g, witness)
        assert verdict.is_b_coloring and witness.t == value


def _cotree_or_coforest(rng: random.Random) -> Graph:
    if rng.random() < 0.5:
        return complement(random_labeled_tree(rng.randint(1, 10), rng))
    return _relabel(_coforest(rng.randint(2, 10), rng), rng)


def _assert_bcolor_answers_every_k(tmp_path, name: str, g: Graph) -> None:
    """``bcolor`` gives a verified coloring with the oracle's dom[k] dominant
    classes at every k in [chi, n], and refuses k = chi - 1 and k = n + 1 in one line."""
    vec = oracle_dominance(g)
    path, out = tmp_path / f"{name}.g", tmp_path / f"{name}.col"
    path.write_text(format_edgelist(g))
    for k in range(vec.chi, g.n + 1):
        assert _run(["bcolor", str(path), str(k), "-o", str(out)]) == (0, "", ""), (g, k)
        coloring = parse_coloring(out.read_text(), g.n)
        verdict = verify_coloring(g, coloring)
        assert coloring.t == k and len(verdict.dominant_classes) == vec.value_at(k), (g, k)
    for k in (vec.chi - 1, g.n + 1):
        code, text, err = _run(["bcolor", str(path), str(k)])
        assert (code, text) == (1, "") and err.startswith("error: k=") and err.count("\n") == 1


def test_bcolor_answers_every_k_from_chi_to_n_on_coforests(tmp_path):
    rng = random.Random(14)
    for i in range(24):
        _assert_bcolor_answers_every_k(tmp_path, f"g{i}", _cotree_or_coforest(rng))


def test_bcolor_on_a_300_vertex_cotree_at_chi_needs_no_chain(tmp_path):
    t = random_labeled_tree(300, random.Random(15))
    g = complement(t)
    chi = plan(g, "vector").vector.chi
    path = tmp_path / "cotree300.g"
    path.write_text(format_edgelist(g))
    script = (
        "import sys\n"
        "from bchrom import cli\n"
        f"code = cli.main(['bcolor', {str(path)!r}, '{chi}', '-o', {str(tmp_path / 'c.col')!r}])\n"
        "print(code, sorted({'networkx', 'bchrom.oracle'} & sys.modules.keys()))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (done.stdout, done.stderr) == ("0 []\n", "")
    coloring = parse_coloring((tmp_path / "c.col").read_text(), g.n)
    verdict = verify_coloring(g, coloring)
    assert coloring.t == chi and verdict.is_b_coloring


def test_exact_search_bcolor_answers_its_b_spectrum_only(tmp_path):
    """Exact search on a complement component that is not a tree answers
    every k in [chi, n], not the b-spectrum only."""
    k3k3 = graph_union(complete_graph(3), complete_graph(3))
    for name, g in (("k3k3", k3k3), ("c5", cycle_graph(5)), ("wheel", WHEEL5)):
        assert plan(g, "coloring").name == "stability-two"
        _assert_bcolor_answers_every_k(tmp_path, name, g)


def test_exact_search_reads_every_answer_off_one_matching_table():
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        g = random_stability2(rng.randint(4, 10), rng)
        co = complement(g)
        if is_forest(co):
            continue
        checked += 1
        least, found = least_deficiency_matchings(co, _Counter(10**6))
        nu = oracle_nu(co)
        assert least == [oracle_f_t_k(co, k) for k in range(g.n // 2 + 1)], g
        assert least[nu] == 0 and len(found[nu]) == nu  # a maximum matching is strongly maximal
        route = StabilityTwoRoute.attempt(g, 16)
        vec = route.vector
        assert vec == oracle_dominance(g), g
        assert route.value == oracle_chi_b(g) == g.n - oracle_min_smm(co)[0], g
        assert route.witness.t == route.value and verify_coloring(g, route.witness).is_b_coloring
        for k in range(vec.chi, g.n + 1):
            coloring = route.coloring(k)
            pairs = coloring_to_matching(co, coloring)
            assert len(pairs) == g.n - k and sum(s1_s2(co, pairs)) == k - vec.value_at(k), (g, k)
            assert matching_to_coloring(co, pairs) == coloring, (g, k)
    k3k3 = graph_union(complete_graph(3), complete_graph(3))  # K(3,3) has 34 matchings
    route = StabilityTwoRoute.attempt(k3k3, 16)
    route.max_states = 10
    with pytest.raises(BudgetExceeded, match="exact search"):
        route.vector


def test_every_route_answers_without_networkx_or_the_oracle_searches(tmp_path):
    rng = random.Random(2)
    graphs = {"tree": random_labeled_tree(8, rng), "co-tree": complement(random_labeled_tree(12, rng)),
              "co-triangle-free": complement(random_triangle_free(12, 0.3, random.Random(2)))}
    vectors = {name: oracle_dominance(g) for name, g in graphs.items()}
    argvs = []
    for name, g in graphs.items():
        assert plan(g, "coloring").name == ("tree" if name == "tree" else "stability-two")
        path = tmp_path / f"{name}.g"
        path.write_text(format_edgelist(g))
        argvs += [["bchromatic", str(path), "--witness", f"{path}.w"], ["dominance", str(path)]]
        argvs += [["bcolor", str(path), str(k), "-o", f"{path}.{k}"]
                  for k in range(vectors[name].chi, g.n + 1)]
    expr = random_expression("nested", 12, random.Random(5))
    assert plan(expr, "vector").name == "tree-cograph"
    tcx = tmp_path / "tc.tcx"
    tcx.write_text(format_tc_expression(expr))
    argvs += [["bchromatic", str(tcx)], ["dominance", str(tcx)]]
    script = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "from bchrom import cli, oracle, route\n"
        "for module in (oracle, route):  # wherever the names are bound\n"
        "    module.oracle_dominance = module.oracle_min_smm = None\n"
        "oracle.continuity_chain = oracle.min_length_augmenting_path = None\n"
        f"print([cli.main(argv) for argv in {argvs!r}])\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.stderr == "" and done.stdout.endswith(f"{[0] * len(argvs)}\n")
    for name, g in graphs.items():
        vec, path = vectors[name], tmp_path / f"{name}.g"
        witness = parse_coloring((tmp_path / f"{name}.g.w").read_text(), g.n)
        assert witness.t == vec.b_chromatic() and verify_coloring(g, witness).is_b_coloring
        for k in range(vec.chi, g.n + 1):
            coloring = parse_coloring((tmp_path / f"{name}.g.{k}").read_text(), g.n)
            verdict = verify_coloring(g, coloring)
            assert coloring.t == k and len(verdict.dominant_classes) == vec.value_at(k), (name, k)


def test_exact_search_spends_its_own_budget(tmp_path):
    g = complement(cycle_graph(18))
    path, out = tmp_path / "co_c18.g", tmp_path / "w.col"
    path.write_text(format_edgelist(g))
    assert _run(["dominance", str(path), "--max-n", "18"])[0] == 0
    assert _run(["bchromatic", str(path), "--max-n", "18"]) == (0, "10\n", "")
    argv = ["bchromatic", str(path), "--max-n", "18", "--witness", str(out)]
    assert _run(argv) == (0, "10\n", "")
    code, text, _ = _run(["verify", str(path), str(out)])
    assert code == 0 and text.startswith("B-COLORING yes\n")
    coloring = parse_coloring(out.read_text(), g.n)
    assert coloring.t == 10 and verify_coloring(g, coloring).is_b_coloring


def _assert_b_continuous(route):
    """The fixed points of the vector run from chi to the route's value."""
    vec = route.vector
    assert vec.fixed_points() == list(range(vec.chi, route.value + 1)), route.name


def test_b_continuity_of_trees_beyond_the_oracle():
    rng = random.Random(16)
    for n in (2, 3, 50, 400, 2000):
        for _ in range(2):
            route = plan(random_labeled_tree(n, rng), "vector")
            assert route.name == "tree"
            _assert_b_continuous(route)


def test_b_continuity_of_coforests_beyond_the_oracle():
    rng = random.Random(17)
    for n in (5, 40, 120, 300):
        for g in (complement(random_labeled_tree(n, rng)), _relabel(_coforest(n, rng), rng)):
            route = plan(g, "vector")
            assert route.name in ("tree", "stability-two")
            _assert_b_continuous(route)


@settings(max_examples=150, deadline=None)
@given(st.one_of(labelled_trees(max_n=9), co_trees(max_n=9), triangle_free_complements(max_n=9)))
def test_drawn_trees_co_trees_and_triangle_free_complements_match_the_oracle(g):
    assert plan(g, "vector").vector == oracle_dominance(g)


@settings(max_examples=100, deadline=None)
@given(st.one_of(labelled_trees(max_n=40), co_trees(max_n=40)), st.data())
def test_drawn_trees_and_co_trees_are_b_continuous_and_colored_as_dom_says(g, data):
    route = plan(g, "coloring")
    _assert_b_continuous(route)
    vec = route.vector
    k = data.draw(st.integers(vec.chi, g.n))
    coloring = route.coloring(k)
    assert coloring.t == k
    assert len(verify_coloring(g, coloring).dominant_classes) == vec.value_at(k)


def test_co_tree_answers_are_the_same_in_every_labelling_and_text():
    # canonical texts are read by comparison with the text of K_n and come
    # linked to their forest; shuffled and CRLF texts are read in pieces
    rng = random.Random(19)
    tree = random_labeled_tree(300, rng)
    answers = set()
    for _ in range(3):
        text = format_edgelist(complement(_relabel(tree, rng)))
        header, *rows = text.splitlines(keepends=True)
        rng.shuffle(rows)
        for form, body in (("canonical", text), ("shuffled", header + "".join(rows)),
                           ("crlf", text.replace("\n", "\r\n"))):
            g = parse_edgelist(body)
            if form == "canonical":
                assert "_complement" in vars(g)
            answers.add((plan(g, "vector").vector, plan(g, "value").value))
    assert len(answers) == 1


def _recorded_parses(monkeypatch) -> list[Graph]:
    """The graphs that ``fileio.read_edgelist`` returns from now on."""
    parsed = []
    read = fileio.read_edgelist

    def recording(path):
        parsed.append(read(path))
        return parsed[-1]

    monkeypatch.setattr(fileio, "read_edgelist", recording)
    return parsed


def test_canonical_co_forests_are_answered_without_dense_rows(tmp_path, monkeypatch):
    """Value, witness, vector and colorings of a co-tree and a co-forest
    read from their canonical text are found and checked on the forest:
    the parsed graph holds no row, edge list, bitmask or neighbor set, and
    its rows, once read, are the complement of the forest."""
    rng = random.Random(21)
    n = 300
    tree = random_labeled_tree(n, rng)
    parsed = _recorded_parses(monkeypatch)
    for forest in (_relabel(tree, rng), _relabel(graph_union(tree, path_graph(2)), rng)):
        path, witness = tmp_path / "co.g", tmp_path / "w.col"
        path.write_text(format_edgelist(complement(forest)))
        del parsed[:]
        code, out, _ = _run(["dominance", str(path)])
        assert code == 0
        vec = {int(t): int(d) for t, d in (line.split() for line in out.splitlines())}
        chi = min(vec)
        assert _run(["bchromatic", str(path), "--witness", str(witness)])[0] == 0
        colorings = [parse_coloring(witness.read_text(), forest.n)]
        for k in (chi, (chi + forest.n) // 2, forest.n):
            code, out, _ = _run(["bcolor", str(path), str(k)])
            assert code == 0
            colorings.append(parse_coloring(out, forest.n))
        assert len(parsed) == 5
        for g in parsed:
            assert not {"adj", "edges", "bits", "nbr_sets"} & vars(g).keys()
            assert vars(g)["_complement"] == forest and complement(vars(g)["_complement"]) is g
        g = parsed[0]
        dense = Graph.from_edges(forest.n, [(u, v) for u in range(forest.n)
                                            for v in range(u + 1, forest.n)
                                            if not forest.has_edge(u, v)])
        assert g.adj == graph._complement_of(Graph(forest.n, forest.adj)).adj == dense.adj
        for c in colorings:  # dom[k] dominant classes, checked on the dense graph
            assert len(verify_coloring(dense, c).dominant_classes) == vec[c.t]


def _bad_matching(co: Graph, size: int, dom: int):
    """A matching of co of that size whose coloring of the complement has
    other than dom dominant classes, or None."""
    g = complement(co)
    for pairs in itertools.combinations(co.edges, size):
        if len({v for e in pairs for v in e}) == 2 * size:
            c = matching_to_coloring(co, frozenset(pairs))
            if len(verify_coloring(g, c).dominant_classes) != dom:
                return frozenset(pairs)
    return None


def test_stability_two_colorings_are_checked(monkeypatch):
    """A witness or a coloring made from a matching that is not of least
    deficiency raises InvariantViolation rather than being returned."""
    co = path_graph(6)
    g = complement(co)
    assert plan(g, "witness").witness.t == 4
    bad = _bad_matching(co, 2, 4)
    assert bad is not None
    monkeypatch.setattr(StabilityTwoRoute, "_smm", (2, bad))
    with pytest.raises(InvariantViolation):
        plan(g, "witness").witness
    monkeypatch.undo()
    vec = plan(g, "vector").vector
    wrong = 0
    for k in range(vec.chi, g.n + 1):
        bad = _bad_matching(co, g.n - k, vec.value_at(k))
        if bad is not None:
            wrong += 1
            monkeypatch.setattr(StabilityTwoRoute, "_matching", lambda self, size: bad)
            with pytest.raises(InvariantViolation):
                plan(g, "coloring").coloring(k)
            monkeypatch.undo()
    assert wrong


def test_b_monotonicity_of_coforests_beyond_the_oracle():
    """Deleting vertices of a co-tree one after another leaves co-forests,
    whose b-chromatic numbers never increase along the chain."""
    rng = random.Random(18)
    for n, deletions in ((40, 39), (120, 60), (300, 20)):
        g = complement(random_labeled_tree(n, rng))
        last = plan(g, "vector").vector.b_chromatic()
        for _ in range(deletions):
            g = induced_subgraph(g, rng.sample(range(g.n), g.n - 1))
            route = plan(g, "vector")
            assert route.name in ("tree", "stability-two")
            value = route.vector.b_chromatic()
            assert value <= last, (n, g.n)
            last = value


@pytest.mark.parametrize("family", ("nested", "wide", "chain"))
def test_b_continuity_of_tree_cographs_beyond_the_oracle(family):
    rng = random.Random(f"continuity:{family}")
    for n in (12, 60, 200):
        _assert_b_continuous(plan(random_expression(family, n, rng), "vector"))


def _mixed_complement(rng: random.Random) -> Graph:
    """A randomly labelled graph on at most 10 vertices whose complement is
    a forest plus small triangle-free pieces, at least one with a cycle."""
    pieces = [rng.choice((cycle_graph(4), cycle_graph(5), complete_bipartite(2, 3)))]
    target = rng.randint(pieces[0].n, 10)
    while (left := target - sum(p.n for p in pieces)) > 0:
        size = rng.randint(1, left)
        pieces.append(random_labeled_tree(size, rng) if rng.random() < 0.7
                      else random_triangle_free(size, 0.8, rng))
    return complement(_relabel(reduce(graph_union, pieces), rng))


def test_stability_two_answers_equal_the_oracle_on_mixed_complements():
    rng = random.Random(31)
    for _ in range(40):
        g = _mixed_complement(rng)
        vec = oracle_dominance(g)
        assert plan(g, "value").value == oracle_chi_b(g) == vec.b_chromatic(), g
        assert plan(g, "vector").vector == vec, g
        witness = plan(g, "witness").witness
        assert witness.t == vec.b_chromatic() and verify_coloring(g, witness).is_b_coloring, g
        route = plan(g, "coloring")
        assert route.name == "stability-two"
        for k in range(vec.chi, g.n + 1):
            coloring = route.coloring(k)
            verdict = verify_coloring(g, coloring)
            assert coloring.t == k and len(verdict.dominant_classes) == vec.value_at(k), (g, k)


def _f_of(vec, size: int) -> list[float]:
    """F[j] = t - dom[t] at t = n - j, infinite below chi, padded to ``size`` entries."""
    return [t - vec.value_at(t) if t >= vec.chi else INF for t in range(vec.n, vec.n - size, -1)]


def test_stability_two_f_adds_up_over_complement_components():
    """Beyond the oracle: the F vector of a disjoint union of complements,
    read off dom[t] = t - F[n - t], is combine_all of each part's F found
    alone, and the minimum strongly maximal matchings add up."""
    rng = random.Random(32)
    pieces = [random_labeled_tree(40, rng), cycle_graph(7), complete_bipartite(3, 3),
              random_labeled_tree(9, rng), empty_graph(1), random_triangle_free(8, 0.6, rng)]
    g = complement(_relabel(reduce(graph_union, pieces), rng))
    alone = [plan(complement(piece), "vector") for piece in pieces]
    route = plan(g, "coloring")
    assert route.name == "stability-two"
    f = combine_all([_f_of(r.vector, r.vector.n // 2 + 1) for r in alone])
    f += [INF] * (g.n // 2 + 1 - len(f))
    assert _f_of(route.vector, g.n // 2 + 1) == f
    assert route.vector == dominance_from_deficiency(g.n, f)
    assert route.value == g.n - sum(r.vector.n - r.value for r in alone)
    assert route.witness.t == route.value and verify_coloring(g, route.witness).is_b_coloring
    for k in range(route.vector.chi, g.n + 1):
        coloring = route.coloring(k)
        verdict = verify_coloring(g, coloring)
        assert coloring.t == k and len(verdict.dominant_classes) == route.vector.value_at(k), k


def test_stability_two_spends_one_budget_over_its_components():
    k33 = complete_bipartite(3, 3)  # 34 matchings, one state each
    one, two = complement(k33), complement(graph_union(k33, k33))
    for g, states, fails in ((two, 10, True), (one, 40, False), (two, 40, True)):
        route = StabilityTwoRoute.attempt(g, 16)
        route.max_states = states
        if fails:
            with pytest.raises(BudgetExceeded, match="exact search"):
                route.vector
        else:
            assert route.vector == oracle_dominance(g)


def test_tree_plus_c5_complement_is_answered_for_every_need():
    rng = random.Random(35)
    tree = random_labeled_tree(30, rng)
    g = complement(_relabel(graph_union(tree, cycle_graph(5)), rng))
    for need in ("value", "vector", "witness", "coloring"):
        assert plan(g, need).name == "stability-two", need
    route = plan(g, "coloring")
    assert route.value == 35 - min_smm_tree(tree)[0] - oracle_min_smm(cycle_graph(5))[0]
    assert route.witness.t == route.value and verify_coloring(g, route.witness).is_b_coloring
    vec = route.vector
    nu = max(k for k, x in enumerate(deficiency_vector(tree)) if x != INF) + 2
    assert vec.chi == 35 - nu and vec.b_chromatic() == route.value
    for k in range(vec.chi, g.n + 1):
        coloring = route.coloring(k)
        verdict = verify_coloring(g, coloring)
        assert coloring.t == k and len(verdict.dominant_classes) == vec.value_at(k), k


def test_complement_of_a_large_tree_plus_cycles_is_answered_at_the_default_cap(tmp_path):
    """The cap bounds each non-tree component of the complement, not n."""
    rng = random.Random(33)
    tree = random_labeled_tree(300, rng)
    g = complement(_relabel(reduce(graph_union, (tree, cycle_graph(5), cycle_graph(7))), rng))
    path, out = tmp_path / "mixed.g", tmp_path / "w.col"
    path.write_text(format_edgelist(g))
    smm = min_smm_tree(tree)[0] + oracle_min_smm(cycle_graph(5))[0] + oracle_min_smm(cycle_graph(7))[0]
    assert _run(["bchromatic", str(path), "--witness", str(out)]) == (0, f"{312 - smm}\n", "")
    code, text, _ = _run(["verify", str(path), str(out)])
    assert code == 0 and text.startswith("B-COLORING yes\n")
    nu = max(k for k, x in enumerate(deficiency_vector(tree)) if x != INF) + 2 + 3
    vec = plan(g, "vector").vector
    assert vec.chi == 312 - nu
    assert _run(["bcolor", str(path), str(vec.chi), "-o", str(out)]) == (0, "", "")
    coloring = parse_coloring(out.read_text(), g.n)
    verdict = verify_coloring(g, coloring)
    assert coloring.t == vec.chi and len(verdict.dominant_classes) == vec.value_at(vec.chi)


def test_a_non_tree_component_over_the_cap_is_refused_by_its_size(tmp_path):
    g = complement(graph_union(random_labeled_tree(20, random.Random(34)), cycle_graph(18)))
    path = tmp_path / "tree20_c18.g"
    path.write_text(format_edgelist(g))
    code, out, err = _run(["bchromatic", str(path), "--witness", str(tmp_path / "w.col")])
    assert (code, out) == (1, "") and err.count("\n") == 1
    assert ("stability-two: a non-tree component of the complement has 18 vertices, "
            "over the cap 16") in err


def _stability2_expression(n: int, rng: random.Random):
    """A join of co-tree leaves, randomly labelled, and unions of two cliques
    on n vertices: a tree-cograph of stability at most two whose complement
    is a forest plus complete bipartite pieces of at most 8 vertices.  Ids
    run in leaf order, as in the text of the expression."""
    ids = itertools.count()

    def clique(size: int):
        leaves = [TcLeaf(path_graph(1), (next(ids),)) for _ in range(size)]
        return leaves[0] if size == 1 else TcJoin(tuple(leaves))

    parts = []
    while (left := n - sum(p.span for p in parts)) > 0:
        size = rng.randint(1, left)
        if 2 <= size <= 8 and rng.random() < 0.6:
            a = rng.randint(1, size - 1)
            parts.append(TcUnion((clique(a), clique(size - a))))
        else:
            tree = random_labeled_tree(size, rng)
            parts.append(TcLeaf(tree, tuple(itertools.islice(ids, size)), co=True))
    return parts[0] if len(parts) == 1 else TcJoin(tuple(parts))


def _chain_inputs(rng: random.Random):
    """(family, file text, suffix, dense graph) on every input ``chain`` answers."""
    for _ in range(10):
        for family, g in (
            ("tree", random_labeled_tree(rng.randint(2, 60), rng)),
            ("co-tree", complement(random_labeled_tree(rng.randint(1, 30), rng))),
            ("co-forest", _relabel(_coforest(rng.randint(2, 30), rng), rng)),
            ("tree + C5", complement(_relabel(
                graph_union(random_labeled_tree(rng.randint(1, 25), rng), cycle_graph(5)), rng))),
        ):
            yield family, format_edgelist(g), ".g", g
        text = format_tc_expression(_stability2_expression(rng.randint(1, 24), rng))
        yield "tcx", text, ".tcx", evaluate_tc(parse_tc_expression(text))


def _chain_colorings(out: str, n: int) -> list:
    """The colorings of ``chain`` output lines, ``colors: t assignment: a,b,...``."""
    found = []
    for line in out.splitlines():
        _, t, _, assignment = line.split()
        found.append(parse_coloring("".join(f"{v} {c}\n" for v, c in
                                            enumerate(assignment.split(","))), n))
        assert found[-1].t == int(t), line
    return found


def test_chain_prints_a_b_coloring_at_every_t_from_chi_b_down_to_chi(tmp_path):
    """On trees, co-trees, co-forests, tree + C5 complements and stability-two
    expressions, ``chain`` prints a verified b-coloring at every t from chi_b
    down to chi, and from the witness on with ``--coloring``; on stability
    two, the t run is that of the reference walk down augmenting paths."""
    rng = random.Random(36)
    for i, (family, text, suffix, g) in enumerate(_chain_inputs(rng)):
        path, witness = tmp_path / f"g{i}{suffix}", tmp_path / f"g{i}.col"
        path.write_text(text)
        code, value, _ = _run(["bchromatic", str(path), "--witness", str(witness)])
        assert code == 0, (family, text)
        runs = []
        for argv in (["chain", str(path)], ["chain", str(path), "--coloring", str(witness)]):
            code, out, err = _run(argv)
            assert (code, err) == (0, ""), (argv, text)
            colorings = _chain_colorings(out, g.n)
            for c in colorings:
                assert verify_coloring(g, c).is_b_coloring, (argv, text, c)
            runs.append([c.t for c in colorings])
        start = parse_coloring(witness.read_text(), g.n)
        assert start.t == int(value) and colorings[0] == start, text  # from --coloring
        if stability_at_most_two(g):
            walk = [c.t for c in continuity_chain(complement(g), start)]
            assert runs[1] == walk, (family, text)
            chi = walk[-1]
        else:
            assert family == "tree", text
            chi = 2
        assert runs == [list(range(int(value), chi - 1, -1))] * 2, (family, text)
