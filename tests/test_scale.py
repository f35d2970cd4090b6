"""Scale checks of the paper's four results, run only with ``-m slow``.

- Result 3: the deficiency DP's tables and witnesses against the reference
  on trees of up to 8200 vertices, the scalar DP at 2e4 and 1e5 vertices,
  and ``chain`` on a 2000-vertex co-tree.
- Result 4: tree-cograph recognition, decomposition and composition on
  2000-10000-vertex edge lists and expressions, in any line order and any
  labelling, and ``.tcx`` requests on a chain of depth 1e5.
- Result 1: co-trees read from canonical and shuffled text give the same
  answers and colorings.
- ``analyze`` answers a 20 000-vertex star alike wherever its hub is.
- Every subcommand answers in a fresh interpreter.

A check that once ran as one process under a time limit runs so still: in
a fresh interpreter that ``fresh_python`` kills after that many seconds.
Each CLI call runs in a fresh interpreter too, so no call sees another's
cached kernels or tables.
"""

import random
import time

import pytest

from bchrom.dominance import dominance_tc
from bchrom.fileio import format_edgelist, format_tc_expression, read_edgelist, read_tc_expression
from bchrom.generators import random_labeled_tree
from bchrom.graph import (
    Graph,
    TcJoin,
    TcLeaf,
    TcUnion,
    complement,
    complete_bipartite,
    decompose_tree_cograph,
    evaluate_tc,
    is_triangle_free,
    path_graph,
    star_graph,
)
from bchrom.matching import is_strongly_maximal, s1_s2
from bchrom.tree_dp import (
    INF,
    deficiency_matching,
    deficiency_tables,
    deficiency_vector,
    min_smm_tree,
    reconstruct_deficiency_matching,
    smm_tables,
)

from conftest import fresh_python, random_expression, relabelled
from test_cli import run
from test_decompose import _chain
from test_tree_dp_rules import _caterpillar, _reference_deficiency, _reference_smm, _spider

pytestmark = pytest.mark.slow


def _answer(*argv, timeout: float = 120) -> str:
    """What ``bchrom *argv`` prints in a fresh interpreter; it must exit 0."""
    done = fresh_python("-m", "bchrom.cli", *map(str, argv), timeout=timeout)
    assert done.returncode == 0, (argv, done.stderr)
    return done.stdout


def _in_fresh_interpreter(seconds: float, check, *args) -> None:
    """``check(*args)``, its arguments as strings, in a fresh interpreter
    that is killed after ``seconds``."""
    script = f"import sys, test_scale; test_scale.{check.__name__}(*sys.argv[1:])"
    done = fresh_python("-c", script, *map(str, args), timeout=seconds)
    assert done.returncode == 0, done.stderr


def _shuffled(text: str, rng: random.Random) -> str:
    header, *rows = text.splitlines(keepends=True)
    rng.shuffle(rows)
    return header + "".join(rows)


# ---------------------------------------------------------------------------
# Result 3: the deficiency DP and the scalar DP
# ---------------------------------------------------------------------------


def _deficiency_dp_at_scale() -> None:
    # from 8191 vertices on, the tables take 64-bit lanes; in the broom, dist
    # falls to a leaf at some sizes and to the long leg at others
    trees = {"random 1500": random_labeled_tree(1500, random.Random(1500)),
             "path 1500": path_graph(1500), "star 1500": star_graph(1499),
             "caterpillar 1500": _caterpillar(1500),
             "random 8200": random_labeled_tree(8200, random.Random(8200)),
             "broom 701": _spider([1] * 300 + [400])}
    for name, t in trees.items():
        tables = deficiency_tables(t)
        assert tables.values == _reference_deficiency(t), f"tables differ from the reference on the {name}"
        f = deficiency_vector(t, tables)
        sizes = [k for k in range(1, len(f)) if f[k] != INF]
        if name in ("random 1500", "caterpillar 1500", "broom 701"):
            ks = [0] + sizes  # a witness at every feasible size
        elif name in ("random 8200", "star 1500"):
            # witnesses at the smallest positive, the middle and the largest feasible size
            ks = [sizes[0], sizes[len(sizes) // 2], sizes[-1]]
        else:
            ks = []
        for k in ks:
            m = reconstruct_deficiency_matching(tables, k)
            assert len(m) == k and sum(s1_s2(t, m)) == f[k], (
                f"{name} witness at {k}: {len(m)} edges, deficiency {sum(s1_s2(t, m))}, F {f[k]}")
        if name in ("random 8200", "star 1500", "caterpillar 1500"):
            # the scalar witness: a minimum strongly maximal matching
            size, m = min_smm_tree(t)
            best = min(_reference_smm(t)[tables.tree.anchor][:2])
            assert size == best and len(m) == best and is_strongly_maximal(t, m), (
                f"{name} scalar witness: {len(m)} edges, size {size}, reference {best}")
    t = random_labeled_tree(20000, random.Random(20000))
    assert smm_tables(t).values == _reference_smm(t), "scalar tables differ from the reference on 20000 vertices"
    min_smm_tree(random_labeled_tree(100000, random.Random(5)))
    p = path_graph(3000)
    value, m = deficiency_matching(p, 700)
    assert len(m) == 700 and sum(s1_s2(p, m)) == value, (
        f"path witness: {len(m)} edges, deficiency {sum(s1_s2(p, m))}, value {value}")


def test_deficiency_dp_at_scale():
    _in_fresh_interpreter(120, _deficiency_dp_at_scale)


def _chain_on_a_co_tree(path: str) -> None:
    with open(path, "w") as fh:
        fh.write(format_edgelist(complement(random_labeled_tree(2000, random.Random(1)))))
    status, _ = run(["chain", path])
    assert status == 0, f"chain exited with {status}"


def test_chain_on_a_2000_vertex_co_tree(tmp_path):
    _in_fresh_interpreter(60, _chain_on_a_co_tree, tmp_path / "cotree2000.g")


# ---------------------------------------------------------------------------
# Result 4: tree-cographs
# ---------------------------------------------------------------------------


def _chain_edge_list_answers(path: str) -> None:
    e = _chain(2000)
    with open(path, "w") as fh:
        fh.write(format_edgelist(evaluate_tc(e)))
    vec = dominance_tc(e)
    for cmd, expected in (("analyze", "tree-cograph: yes"), ("dominance", f"{vec.chi} {vec.values[0]}")):
        status, out = run([cmd, path])
        lines = out.splitlines()
        assert status == 0 and expected in (lines if cmd == "analyze" else lines[:1]), (
            f"{cmd} exited with {status}; {expected!r} not printed")


def test_the_2000_level_chain_edge_list_is_analyzed_and_composed(tmp_path):
    _in_fresh_interpreter(60, _chain_edge_list_answers, tmp_path / "chain2000.g")


def _nested_2000(tmp_path):
    """A nested 2000-vertex expression as .tcx, and its edge list made from
    that text."""
    tcx, edges = tmp_path / "nested.tcx", tmp_path / "nested.g"
    tcx.write_text(format_tc_expression(random_expression("nested", 2000, random.Random(2000))))
    edges.write_text(format_edgelist(evaluate_tc(read_tc_expression(str(tcx)))))
    return tcx, edges


def test_a_nested_tcx_and_its_edge_list_analyze_alike(tmp_path):
    # analyze reads a .tcx off the expression: the same bytes as on its evaluated edge list
    tcx, edges = _nested_2000(tmp_path)
    out = _answer("analyze", tcx, timeout=60)
    assert "tree-cograph: yes" in out.splitlines()
    assert _answer("analyze", edges, timeout=60) == out


def _decompositions(nested: str) -> None:
    """Peel runs on the chain, splits on the nested edge list."""
    n = 2000
    g = evaluate_tc(_chain(n))
    # the deepest three vertices, a vertex beside an edge, form a co-tree: the
    # complement of a star centred on the first
    canonical = TcLeaf(star_graph(2), (n - 3, n - 2, n - 1), co=True)
    for v in range(3, n):
        canonical = (TcJoin if v % 2 else TcUnion)((TcLeaf(Graph(1, ((),)), (n - 1 - v,)), canonical))
    assert decompose_tree_cograph(g) == canonical, (
        "the 2000-level chain does not decompose to its canonical expression")
    g = read_edgelist(nested)
    assert evaluate_tc(decompose_tree_cograph(g)) == g, (
        "the nested 2000-vertex edge list does not evaluate back from its decomposition")


def test_the_chain_and_a_nested_edge_list_decompose(tmp_path):
    _, edges = _nested_2000(tmp_path)
    _in_fresh_interpreter(60, _decompositions, edges)


def test_tcx_requests_at_scale(tmp_path):
    nested, chain = tmp_path / "nested10000.tcx", tmp_path / "chain2000.tcx"
    nested.write_text(format_tc_expression(random_expression("nested", 10000, random.Random(10000))))
    chain.write_text(format_tc_expression(_chain(2000)))
    _answer("analyze", nested, timeout=60)
    _answer("bchromatic", nested, timeout=60)
    # the chain's first join makes an edge, and each of its 999 other joins adds a color
    assert _answer("dominance", chain, timeout=60).splitlines()[0] == "1001 1001"


def test_a_chain_of_depth_100000_as_tcx_is_answered(tmp_path):
    e, path = _chain(100000), tmp_path / "chain100000.tcx"
    path.write_text(format_tc_expression(e))
    vec = dominance_tc(e)
    assert "tree-cograph: yes" in _answer("analyze", path, timeout=60).splitlines()
    assert _answer("dominance", path, timeout=60).splitlines()[0] == f"{vec.chi} {vec.values[0]}"
    assert _answer("bchromatic", path, timeout=60) == f"{vec.b_chromatic()}\n"


def test_canonical_shuffled_and_commented_tree_cograph_edge_lists_answer_alike(tmp_path):
    rng = random.Random(300)
    g = evaluate_tc(random_expression("wide", 300, rng))
    assert g.m >= 12 * g.n and 8 * g.m >= g.n * g.n, "too few edges to be read one row at a time"
    text = format_edgelist(g)
    header, *rows = text.splitlines(keepends=True)
    half = len(rows) // 2
    paths = [tmp_path / f"{name}.g" for name in ("tcograph", "tcograph-commented", "tcograph-shuffled")]
    paths[0].write_text(text)
    paths[1].write_text(header + "".join(rows[:half]) + "# a comment\n" + "".join(rows[half:]))
    paths[2].write_text(_shuffled(text, rng))
    for cmd in ("analyze", "bchromatic", "dominance"):
        out = _answer(cmd, paths[0])
        assert [_answer(cmd, path) for path in paths[1:]] == [out, out], cmd
        if cmd == "analyze":
            assert "tree-cograph: yes" in out.splitlines()


@pytest.mark.parametrize("family", ("nested", "wide"))
def test_tree_cograph_answers_are_the_same_in_a_random_labelling(family, tmp_path):
    rng = random.Random(f"relabelled {family}")
    g = evaluate_tc(random_expression(family, 2000, rng))
    paths = tmp_path / "g.g", tmp_path / "relabelled.g"
    paths[0].write_text(format_edgelist(g))
    paths[1].write_text(format_edgelist(relabelled(g, rng)))
    for cmd in ("analyze", "dominance", "bchromatic"):
        out = _answer(cmd, paths[0])
        assert _answer(cmd, paths[1]) == out, cmd
        if cmd == "analyze":
            assert "tree-cograph: yes" in out.splitlines()


# ---------------------------------------------------------------------------
# Result 1: trees and co-trees in canonical and shuffled text
# ---------------------------------------------------------------------------


def test_canonical_and_shuffled_tree_edge_lists_answer_alike(tmp_path):
    rng = random.Random(20000)
    text = format_edgelist(random_labeled_tree(20000, rng))
    tree, shuffled = tmp_path / "tree.g", tmp_path / "tree-shuffled.g"
    tree.write_text(text)
    shuffled.write_text(_shuffled(text, rng))
    for cmd in ("dominance", "bchromatic"):
        assert _answer(cmd, tree) == _answer(cmd, shuffled), cmd


def test_canonical_and_shuffled_co_tree_edge_lists_answer_and_color_alike(tmp_path):
    rng = random.Random(700)
    text = format_edgelist(complement(random_labeled_tree(700, rng)))
    cotree, shuffled = tmp_path / "cotree.g", tmp_path / "cotree-shuffled.g"
    cotree.write_text(text)
    shuffled.write_text(_shuffled(text, rng))
    answers = {cmd: _answer(cmd, cotree) for cmd in ("dominance", "bchromatic")}
    for cmd, out in answers.items():
        assert _answer(cmd, shuffled) == out, cmd
    chi = answers["dominance"].split(" ", 1)[0]
    colorings = []
    for path in (cotree, shuffled):
        col = path.with_suffix(".col")
        out = _answer("bchromatic", path, "--witness", col)
        out += _answer("verify", path, col) + _answer("bcolor", path, chi)
        colorings.append((col.read_text(), out))
    assert colorings[0] == colorings[1]
    assert "B-COLORING yes" in colorings[0][1].splitlines()


def test_analyze_answers_a_star_alike_wherever_its_hub_is(tmp_path):
    # the sparse triangle test walks the smaller of each edge's two
    # neighbor sets, so a hub labelled above its leaves is never walked:
    # the test costs about as much with the hub at n/2 or n - 1 as at 0
    n = 20000
    answers, costs = set(), []
    for hub in (0, n // 2, n - 1):
        star = Graph.from_edges(n, [(min(hub, v), max(hub, v)) for v in range(n) if v != hub])
        path = tmp_path / f"star-{hub}.g"
        path.write_text(format_edgelist(star))
        answers.add(_answer("analyze", path, timeout=60))
        assert len(star.nbr_sets) == len(star.edges) + 1  # made before the clock starts
        start = time.perf_counter()
        assert is_triangle_free(star)
        costs.append(time.perf_counter() - start)
    assert answers == {f"vertices: {n}\nedges: {n - 1}\ntree: yes\ntriangle-free: yes\n"
                       "stability-at-most-two: no\ntree-cograph: yes\nm-bound: 2\n"
                       f"max-degree: {n - 1}\n"}
    assert max(costs) < 20 * costs[0] + 0.05, costs


# ---------------------------------------------------------------------------
# Every subcommand
# ---------------------------------------------------------------------------


def test_every_subcommand_answers_in_a_fresh_interpreter(tmp_path):
    tree, cotree, k2_3 = (tmp_path / f"{name}.g" for name in ("small-tree", "small-cotree", "k2_3"))
    tree.write_text(format_edgelist(random_labeled_tree(12, random.Random(12))))
    cotree.write_text(format_edgelist(complement(random_labeled_tree(12, random.Random(13)))))
    k2_3.write_text(format_edgelist(complete_bipartite(2, 3)))
    argvs = [[cmd, path] for path in (tree, cotree, k2_3) for cmd in ("analyze", "bchromatic", "dominance")]
    argvs += [["reduce", path, "-o", path.with_name(f"{path.stem}-gadget.g")] for path in (tree, k2_3)]
    for path in (tree, cotree):
        col = path.with_suffix(".col")
        argvs += [["bchromatic", path, "--witness", col, "--dump-tables"], ["verify", path, col],
                  ["bcolor", path, 12]]
    argvs.append(["dominance", cotree, "--dump-tables"])
    for path in (tree, cotree):
        argvs += [["chain", path], ["chain", path, "--coloring", path.with_suffix(".col")]]
    argvs += [["certify", k2_3], ["oracle", "chi-b", k2_3], ["tables", "min-smm", tree],
              ["tables", "deficiency", tree]]
    for argv in argvs:
        _answer(*argv)
    undecodable = tmp_path / "undecodable.g"
    undecodable.write_bytes(b"p 2 1\ne 0 \xff\n")
    done = fresh_python("-m", "bchrom.cli", "analyze", str(undecodable))
    assert done.returncode == 1 and done.stderr.count("\n") == 1, done.stderr
