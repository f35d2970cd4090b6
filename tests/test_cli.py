import io
import os
import random
import subprocess
import sys
import tracemalloc
from collections import deque
from contextlib import redirect_stderr, redirect_stdout

import pytest

from bchrom.bcoloring import Coloring, verify_coloring
from bchrom.cli import _expression_facts, _write_vector, main
from bchrom.dominance import DominanceVector
from bchrom.fileio import format_edgelist, format_tc_expression, parse_edgelist, parse_coloring
from bchrom.generators import random_labeled_tree
from bchrom.graph import (
    Graph,
    TcJoin,
    TcLeaf,
    TcUnion,
    complement,
    cycle_graph,
    empty_graph,
    evaluate_tc,
    graph_union,
    is_tree,
    is_triangle_free,
    m_degree_bound,
    path_graph,
    stability_at_most_two,
    star_graph,
)

from conftest import random_expression


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, g in {
        "p6": path_graph(6),
        "cop6": complement(path_graph(6)),
        "c5": cycle_graph(5),
        "k2": path_graph(2),
    }.items():
        p = tmp_path / f"{name}.g"
        p.write_text(format_edgelist(g))
        paths[name] = str(p)
    tcx = tmp_path / "pair.tcx"
    tcx.write_text("(join (tree 1) (tree 1))\n")
    paths["tcx"] = str(tcx)
    paths["dir"] = tmp_path
    return paths


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_bchromatic_cotree(files):
    code, out = run(["bchromatic", files["cop6"]])
    assert code == 0 and out == "4\n"


def test_bchromatic_on_tcx(files):
    code, out = run(["bchromatic", files["tcx"]])
    assert code == 0 and out == "2\n"


def test_analyze_c5(files):
    code, out = run(["analyze", files["c5"]])
    assert code == 0
    assert "tree-cograph: no" in out


def test_analyze_of_a_long_path_allocates_linearly(tmp_path):
    # the path's n-bit adjacency masks alone would hold 25 MB
    path = tmp_path / "p20000.g"
    path.write_text(format_edgelist(path_graph(20000)))
    tracemalloc.start()
    try:
        code, out = run(["analyze", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "triangle-free: yes" in out
    assert peak < 16 << 20


def test_verify_yes_and_no(files, tmp_path):
    col = tmp_path / "c.col"
    col.write_text("0 2\n1 0\n2 0\n3 1\n4 1\n5 3\n")
    code, out = run(["verify", files["cop6"], str(col)])
    assert code == 0 and out.splitlines()[0] == "B-COLORING yes"
    col.write_text("0 0\n1 0\n2 1\n3 2\n4 3\n5 4\n")
    code, out = run(["verify", files["cop6"], str(col)])
    assert code == 0 and out.splitlines()[0] == "B-COLORING no"


def test_verify_of_a_co_tree_reads_alike_on_its_forest_and_dense(tmp_path, monkeypatch):
    """``verify`` on a canonical co-tree file, checked on the forest the
    reader keeps, prints what it prints on a shuffled copy, which is read
    dense, and what ``verify_coloring`` finds on the dense graph: for a
    b-coloring, a coloring that is not one, an improper one and one with an
    empty class."""
    from bchrom import fileio
    from bchrom.bcoloring import Coloring, verify_coloring
    from bchrom.errors import BchromError
    from bchrom.route import plan

    rng = random.Random(23)
    n = 200
    text = format_edgelist(complement(_relabelled(random_labeled_tree(n, rng), rng)))
    header, *rows = text.splitlines(keepends=True)
    rng.shuffle(rows)
    canonical, shuffled = tmp_path / "co.g", tmp_path / "co-shuffled.g"
    canonical.write_text(text)
    shuffled.write_text(header + "".join(rows))
    route = plan(parse_edgelist(text), "coloring")
    witness = route.witness
    g = parse_edgelist(header + "".join(rows))
    a = witness.assignment
    u = next(u for u in range(n) if a.count(a[u]) == 2)  # its class keeps its partner
    v = next(v for v in g.adj[u] if a[v] != a[u])
    moved = tuple(a[v] if w == u else x for w, x in enumerate(a))
    gap = tuple(x + (x == witness.t - 1) for x in a)  # class t - 1 left empty
    colorings = [witness, route.coloring((route.vector.chi + n) // 2),
                 Coloring(moved, witness.t), Coloring(gap, witness.t + 1)]
    parsed = []
    read = fileio.read_edgelist
    monkeypatch.setattr(fileio, "read_edgelist", lambda path: parsed.append(read(path)) or parsed[-1])
    firsts = set()
    for i, c in enumerate(colorings):
        col = tmp_path / f"{i}.col"
        col.write_text(fileio.format_coloring(c))
        try:
            verdict = verify_coloring(g, c)
            lines = [f"B-COLORING {'yes' if verdict.is_b_coloring else 'no'}"]
            lines += [f"dominant {cls} witness {v}" for cls, v in verdict.witnesses]
            expected = (0, "".join(line + "\n" for line in lines), "")
        except BchromError as exc:
            expected = (1, "", f"error: {exc}\n")
        answers = []
        for f in (canonical, shuffled):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["verify", str(f), str(col)])
            answers.append((code, out.getvalue(), err.getvalue()))
        assert answers == [expected, expected]
        firsts.add((expected[1] or expected[2]).split("\n")[0])
        assert "_complement" in vars(parsed[-2]) and "adj" not in vars(parsed[-2])
        assert "adj" in vars(parsed[-1])
    assert {"B-COLORING yes", "B-COLORING no"} <= firsts and len(firsts) == 4


def test_dominance_output(files):
    code, out = run(["dominance", files["cop6"]])
    assert code == 0
    assert out == "3 3\n4 4\n5 1\n6 0\n"


def test_dominance_tree_output(files):
    code, out = run(["dominance", files["p6"]])
    assert code == 0
    assert out.splitlines()[0] == "2 2"


def test_chain_output(files):
    code, out = run(["chain", files["cop6"]])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("colors: 4")
    assert lines[-1].startswith("colors: 3")


def test_chain_and_analyze_of_a_co_tree_keep_it_sparse(tmp_path, monkeypatch):
    """``chain``, with and without ``--coloring``, and ``analyze`` on a
    canonical co-tree file answer from the forest the reader keeps, and
    print what they print on a shuffled copy, which is read dense."""
    from bchrom import fileio
    from bchrom.route import plan

    rng = random.Random(5)
    text = format_edgelist(complement(random_labeled_tree(30, rng)))
    header, *rows = text.splitlines(keepends=True)
    rng.shuffle(rows)
    canonical, shuffled = tmp_path / "co.g", tmp_path / "co-shuffled.g"
    canonical.write_text(text)
    shuffled.write_text(header + "".join(rows))
    witness = tmp_path / "w.col"
    witness.write_text(fileio.format_coloring(plan(parse_edgelist(text), "witness").witness))
    parsed = []
    read = fileio.read_edgelist
    monkeypatch.setattr(fileio, "read_edgelist", lambda path: parsed.append(read(path)) or parsed[-1])
    for argv in (["chain"], ["chain", "--coloring", str(witness)], ["analyze"]):
        answers = []
        for f in (canonical, shuffled):
            code, out = run([argv[0], str(f), *argv[1:]])
            answers.append((code, out))
        assert answers[0] == answers[1] and answers[0][0] == 0, argv
        assert "_complement" in vars(parsed[-2]) and "adj" not in vars(parsed[-2]), argv
        assert "adj" in vars(parsed[-1])
    assert [line.split()[1] for line in answers[0][1].splitlines()[:2]] == ["30", "406"]
    chain = run(["chain", str(canonical)])[1].splitlines()
    assert [line.split()[1] for line in chain] == ["18", "17", "16"]


def test_chain_refuses_stability_above_two_with_and_without_a_coloring(files, tmp_path):
    """P6 is a tree and answers; P6 with an isolated vertex is neither a tree
    nor of stability two, and is refused before its coloring file is read."""
    col = tmp_path / "c.col"
    col.write_text("".join(f"{v} {v % 3}\n" for v in range(6)))
    for argv in (["chain", files["p6"]], ["chain", files["p6"], "--coloring", str(col)]):
        code, out = run(argv)
        assert code == 0 and [line.split()[1] for line in out.splitlines()] == ["3", "2"], argv
    p6k1 = tmp_path / "p6k1.g"
    p6k1.write_text(format_edgelist(graph_union(path_graph(6), empty_graph(1))))
    for argv in (["chain", str(p6k1)], ["chain", str(p6k1), "--coloring", str(tmp_path / "none")]):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run(argv)
        assert (code, out) == (1, ""), argv
        assert err.getvalue().startswith("error: no exact route gives the coloring: "), argv
        assert err.getvalue().endswith("stability-two: stability above two\n"), argv
        assert err.getvalue().count("\n") == 1, argv


def test_bcolor_writes_verifiable_coloring(files, tmp_path):
    out_file = tmp_path / "w.col"
    code, _ = run(["bcolor", files["p6"], "2", "-o", str(out_file)])
    assert code == 0
    coloring = parse_coloring(out_file.read_text(), 6)
    assert coloring.t == 2


def test_back_to_back_calls_keep_no_options_of_the_last(files, tmp_path):
    """``main`` parses every call with one parser; what one call was given
    must not reach the next."""
    witness, out_file = tmp_path / "w.col", tmp_path / "o.col"
    assert run(["bchromatic", files["cop6"], "--witness", str(witness)]) == (0, "4\n")
    witness.unlink()
    assert run(["bchromatic", files["cop6"]]) == (0, "4\n")
    assert not witness.exists()
    assert run(["bcolor", files["p6"], "2", "-o", str(out_file)]) == (0, "")
    out_file.unlink()
    code, out = run(["bcolor", files["p6"], "2"])
    assert code == 0 and parse_coloring(out, 6).t == 2 and not out_file.exists()
    code, dumped = run(["dominance", files["cop6"], "--dump-tables"])
    vector = "".join(line for line in dumped.splitlines(True) if len(line.split()) == 2)
    assert code == 0 and vector != dumped and run(["dominance", files["cop6"]]) == (0, vector)
    assert run(["analyze", files["tcx"], "--format", "tcx"])[0] == 0
    assert run(["analyze", files["p6"]]) == run(["analyze", files["p6"], "--format", "edgelist"])


def test_reduce_and_certify(files, tmp_path):
    out_file = tmp_path / "gadget.g"
    code, out = run(["reduce", files["k2"], "-o", str(out_file)])
    assert code == 0
    host = parse_edgelist(out_file.read_text())
    assert host.n == 10 and host.m == 9
    map_lines = (tmp_path / "gadget.g.map").read_text().splitlines()
    assert map_lines == ["map: 0 1 -> 2 3 4 5 6 7 8 9"]
    code, out = run(["certify", files["k2"]])
    assert code == 0
    assert "identity-holds: yes" in out


def test_certify_refuses_a_budget_below_one_before_searching(files):
    for budget in ("0", "-5"):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run(["certify", files["k2"], "--budget", budget])
        assert (code, out) == (1, "")
        assert err.getvalue() == "error: certification search budget must be positive\n"
    buf = io.StringIO()
    with redirect_stdout(buf), pytest.raises(SystemExit):
        main(["certify", "--help"])
    assert "--budget BUDGET cap on the table entries" in " ".join(buf.getvalue().split())


def test_oracle_subcommand(files):
    code, out = run(["oracle", "min-smm", files["p6"]])
    assert code == 0 and "min-smm: 2" in out
    code, out = run(["oracle", "f-t-k", files["p6"], "--k", "1"])
    assert code == 0 and "f: 4" in out


def test_oracle_f_t_k_refuses_a_negative_k_before_searching(files):
    err = io.StringIO()
    with redirect_stderr(err):
        # a budget of one state: any search would end in a budget error instead
        code, out = run(["oracle", "f-t-k", files["c5"], "--k", "-1", "--max-states", "1"])
    assert (code, out, err.getvalue()) == (1, "", "error: k=-1 is negative\n")


def test_tables_flag(files):
    code, out = run(["dominance", files["cop6"], "--dump-tables"])
    assert code == 0
    assert "pair-free" in out


def test_deterministic_output(files):
    a = run(["dominance", files["cop6"]])
    b = run(["dominance", files["cop6"]])
    assert a == b


def test_error_exit_codes(files, tmp_path):
    # C5 plus an isolated vertex: stability three, no decomposition route
    from bchrom.graph import empty_graph, graph_union

    hard = tmp_path / "hard.g"
    hard.write_text(format_edgelist(graph_union(cycle_graph(5), empty_graph(1))))
    code, _ = run(["bchromatic", str(hard)])
    assert code == 1
    missing = str(tmp_path / "nope.g")
    code, _ = run(["analyze", missing])
    assert code == 1
    with pytest.raises(SystemExit) as exc:
        run(["bogus-command"])
    assert exc.value.code == 2


def test_bchromatic_c5_via_oracle_route(files):
    # C5's complement is a C5, triangle-free and within the cap on a component
    # that is not a tree, so the stability-two route searches its matchings
    code, out = run(["bchromatic", files["c5"]])
    assert code == 0 and out == "3\n"


def _python(script: str) -> subprocess.CompletedProcess:
    """``script`` run by a fresh interpreter that imports bchrom from src."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)


def test_requests_import_no_reference_code(files, tmp_path):
    """Importing the CLI loads neither the exhaustive reference, the hardness
    gadget, the compiled DP rows, networkx nor the class machinery of
    ``dataclasses`` and ``inspect``; answering a tree, a co-tree and a .tcx
    expression, ``chain`` and ``chain --coloring`` included, loads no
    reference, gadget, networkx or class machinery."""
    tcx = tmp_path / "join.tcx"  # K1 joined to co-P4: a tree-cograph of stability two
    tcx.write_text("(join (tree 1) (cotree 4 0 1 1 3 2 3))\n")
    witness = str(tmp_path / "w.col")
    argvs = [argv for path in (files["p6"], files["cop6"], str(tcx))
             for argv in (["bchromatic", path, "--witness", witness],
                          ["dominance", path], ["bcolor", path, "3", "-o", str(tmp_path / "c.col")],
                          ["chain", path], ["chain", path, "--coloring", witness])]
    done = _python(
        "import sys, bchrom.cli\n"
        "bchrom.cli.build_parser()\n"
        "absent = {'bchrom.oracle', 'bchrom.reduction', 'networkx', 'dataclasses', 'inspect'}\n"
        "print(sorted((absent | {'bchrom.rows'}) & sys.modules.keys()))\n"
        f"print([bchrom.cli.main(argv) for argv in {argvs!r}])\n"
        "print(sorted(absent & sys.modules.keys()))\n"
    )
    assert done.stderr == ""
    lines = done.stdout.splitlines()  # the answers come between the reports
    assert [lines[0], *lines[-2:]] == ["[]", str([0] * len(argvs)), "[]"]


def test_vector_lines_keep_inner_zeros_and_join_the_zero_tail():
    for vec in (DominanceVector(2, (2, 2, 1, 0, 0, 0)), DominanceVector(3, (3, 4, 5, 0, 6)),
                DominanceVector(3, (3, 0, 0)), DominanceVector(1, (1,))):
        buf = io.StringIO()
        with redirect_stdout(buf):
            _write_vector(vec)
        assert buf.getvalue() == "".join(f"{t} {d}\n" for t, d in enumerate(vec.values, vec.chi))


def test_chain_without_networkx_answers_with_b_colorings(tmp_path):
    # the reference walk down from this co-tree's witness needs an augmenting path of length five
    g = complement(random_labeled_tree(20, random.Random(3)))
    path, witness = tmp_path / "co20.g", tmp_path / "w.col"
    path.write_text(format_edgelist(g))
    assert run(["bchromatic", str(path), "--witness", str(witness)])[0] == 0
    outs = []
    for argv in (["chain", str(path)], ["chain", str(path), "--coloring", str(witness)]):
        done = _python(
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "from bchrom.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        assert (done.returncode, done.stderr) == (0, ""), argv
        outs.append(done.stdout.splitlines())
    assert [line.split()[1] for line in outs[0]] == [line.split()[1] for line in outs[1]]
    assert len(outs[0]) >= 2  # the walk past the start needs that length-five path
    for line in outs[0] + outs[1]:
        _, t, _, assignment = line.split()
        coloring = Coloring(tuple(map(int, assignment.split(","))), int(t))
        assert verify_coloring(g, coloring).is_b_coloring, line


def test_searches_deeper_than_the_recursion_limit_end_in_one_error_line(tmp_path):
    path = str(tmp_path / "p1501.g")
    with open(path, "w") as fh:
        fh.write(format_edgelist(path_graph(1501)))
    cap = ["--max-n", "5000"]
    for argv in (
        ["certify", path, "--budget", "100000"],
        ["oracle", "min-smm", path, *cap],
        ["oracle", "chi-b", path, *cap],
        ["oracle", "chromatic", path, *cap],
        ["oracle", "f-t-k", path, *cap, "--k", "3"],
    ):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run(argv)
        assert (code, out) == (1, ""), argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
    # certify no longer recurses: at the default budget it answers P1501
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["certify", path])
    assert (code, err.getvalue()) == (0, "")
    assert "identity-holds: yes" in out.splitlines()


def test_dump_tables_without_tables_prints_nothing_before_the_error(files, tmp_path):
    # the tree route builds no deficiency tables, a co-forest of two trees
    # and a lone vertex build neither kind, nor do tree-cograph expressions
    from bchrom.graph import Graph, graph_union

    inputs = {}
    for name, g in {
        "p5": path_graph(5),
        "co-two-trees": complement(graph_union(path_graph(3), path_graph(4))),
        "one-vertex": Graph.from_edges(1, []),
    }.items():
        inputs[name] = tmp_path / f"{name}.g"
        inputs[name].write_text(format_edgelist(g))
    cases = [
        ["dominance", inputs["p5"]],
        ["dominance", inputs["co-two-trees"]],
        ["dominance", inputs["one-vertex"]],
        ["dominance", files["tcx"]],
        ["bchromatic", inputs["co-two-trees"]],
        ["bchromatic", inputs["one-vertex"]],
        ["bchromatic", files["tcx"]],
        ["bchromatic", files["c5"]],
    ]
    for command, path in cases:
        argv = [command, str(path), "--dump-tables"]
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run(argv)
        assert (code, out) == (1, ""), argv
        assert err.getvalue().startswith("error: no ") and err.getvalue().count("\n") == 1, argv


# Reference copies of the tree route before its components and degrees were
# kept on the graph: one search per test, degrees from generators, and one
# print per entry of the dominance vector.


def _old_components(g):
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def _old_m(g):
    return sum(len(a) for a in g.adj) // 2


def _old_is_tree(g):
    return g.n >= 1 and _old_m(g) == g.n - 1 and (g.n <= 1 or len(_old_components(g)) == 1)


def _old_max_degree(g):
    return max((len(a) for a in g.adj), default=0)


def _old_m_degree_bound(g):
    degs = sorted((len(a) for a in g.adj), reverse=True)
    m = 0
    for i, d in enumerate(degs, start=1):
        if d < i - 1:
            break
        m = i
    return m


def _old_pivot(t, m):
    dense = frozenset(v for v in range(t.n) if t.degree(v) >= m - 1)
    if len(dense) != m:
        return None
    for v in range(t.n):
        if v in dense:
            continue
        near = set(t.adj[v])
        if not all(d in near or any(x in dense and x in near for x in t.adj[d]) for d in dense):
            continue
        if all(not any(x in dense for x in t.adj[d]) or t.degree(d) == m - 1
               for d in dense & near):
            return v
    return None


def _old_dominance_text(t):
    assert _old_is_tree(t) and t.n >= 2
    m = _old_m_degree_bound(t)
    pivot = _old_pivot(t, m)
    delta = _old_max_degree(t)
    chi_b = m - 1 if pivot is not None else m
    at_least = [0] * (delta + 2)
    for nbrs in t.adj:
        at_least[len(nbrs)] += 1
    for d in range(delta - 1, -1, -1):
        at_least[d] += at_least[d + 1]
    values = []
    for i in range(2, t.n + 1):
        if i <= chi_b:
            values.append(i)
        elif pivot is not None and i == m:
            values.append(m - 1)
        elif i <= delta + 1:
            values.append(at_least[i - 1])
        else:
            values.append(0)
    buf = io.StringIO()
    with redirect_stdout(buf):
        for t_ in range(2, t.n + 1):
            print(f"{t_} {values[t_ - 2]}")
    return buf.getvalue(), pivot is not None


def _old_analyze_text(g):
    n, m = g.n, _old_m(g)
    stable = n * (n - 1) // 2 - m <= n * n // 4 and is_triangle_free(complement(g))
    return "".join(f"{line}\n" for line in (
        f"vertices: {n}",
        f"edges: {m}",
        f"tree: {'yes' if _old_is_tree(g) else 'no'}",
        f"triangle-free: {'yes' if is_triangle_free(g) else 'no'}",
        f"stability-at-most-two: {'yes' if stable else 'no'}",
        "tree-cograph: yes",  # a tree is one leaf
        f"m-bound: {_old_m_degree_bound(g)}",
        f"max-degree: {_old_max_degree(g)}",
    ))


def _caterpillar(spine, legs):
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i * legs + j) for i in range(spine) for j in range(legs)]
    return Graph.from_edges(spine * (legs + 1), edges)


def _pivoted(m, extra):
    """Pivot 0 beside hub 1 and dense vertex m; the hub's other neighbors
    2..m-1 are dense; each dense vertex has degree m - 1; a path of
    ``extra`` vertices hangs from the last leaf."""
    edges = [(0, 1), (0, m)] + [(1, d) for d in range(2, m)]
    n = m + 1
    for d in range(2, m + 1):
        edges += [(d, leaf) for leaf in range(n, n + m - 2)]
        n += m - 2
    edges += [(v, v + 1) for v in range(n - 1, n + extra - 1)]
    return Graph.from_edges(n + extra, edges)


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_tree_answers_match_the_per_entry_reference(tmp_path):
    nx = pytest.importorskip("networkx")
    rng = random.Random(1310)
    small = [
        _relabelled(Graph.from_edges(n, list(t.edges())), rng)
        for n in range(2, 11)
        for t in nx.nonisomorphic_trees(n)
    ]
    assert len(small) == 200
    large = [path_graph(n) for n in (50, 2000)] + [star_graph(n) for n in (50, 1999)]
    large += [_caterpillar(s, legs) for s, legs in ((10, 3), (400, 4), (1000, 1))]
    large += [_pivoted(m, extra) for m, extra in ((4, 0), (7, 10), (20, 0), (44, 100))]
    large = [_relabelled(t, rng) for t in large]
    pivoted = 0
    for i, t in enumerate(small + large):
        path = tmp_path / f"t{i}.g"
        path.write_text(format_edgelist(t))
        want, has_pivot = _old_dominance_text(t)
        pivoted += has_pivot
        assert run(["dominance", str(path)]) == (0, want), t
        assert run(["analyze", str(path)]) == (0, _old_analyze_text(t)), t
        if t.n <= 9:  # the brute-force oracle is exponential in n
            assert run(["oracle", "dominance", str(path)]) == (0, want), t
    assert pivoted == 4  # the _pivoted trees; no tree below 11 vertices has a pivot


# ---------------------------------------------------------------------------
# ``analyze`` on a .tcx reads every fact off the expression
# ---------------------------------------------------------------------------


def _clique_number(g: Graph) -> int:
    """The largest clique, by a branch over each vertex's bitmask."""
    best = 0

    def grow(size: int, cand: int) -> None:
        nonlocal best
        best = max(best, size)
        while cand and size + bin(cand).count("1") > best:
            v = cand.bit_length() - 1
            cand ^= 1 << v
            grow(size + 1, cand & g.bits[v])

    grow(0, (1 << g.n) - 1)
    return best


def _folded_against_evaluated(e) -> tuple:
    """The folded facts of e, once each is checked against the same fact of
    its evaluated graph; alpha and omega exactly up to 14 vertices."""
    n, m, tree, alpha, omega, degrees = _expression_facts(e)
    g = evaluate_tc(e)
    assert (n, m, tree) == (g.n, g.m, is_tree(g)), e
    assert (omega <= 2, alpha <= 2) == (is_triangle_free(g), stability_at_most_two(g)), e
    assert sorted(degrees) == sorted(g.degrees), e
    assert (m_degree_bound(degrees), max(degrees)) == (m_degree_bound(g), g.max_degree()), e
    if g.n <= 14:
        assert (alpha, omega) == (_clique_number(complement(g)), _clique_number(g)), e
    return n, m, tree, alpha, omega


def _lone_leaves() -> list:
    """(expression, its n, m, tree, alpha, omega) for leaves and a star."""
    point = Graph(1, ((),))
    star = TcJoin((TcLeaf(point, (0,)), TcUnion(tuple(TcLeaf(point, (v,)) for v in range(1, 5)))))
    return [
        (TcLeaf(path_graph(4), (0, 1, 2, 3), co=True), (4, 3, True, 2, 2)),  # co-P4 is P4
        (TcLeaf(star_graph(3), (0, 1, 2, 3), co=True), (4, 3, False, 2, 3)),  # K3 and a point
        (TcLeaf(point, (0,)), (1, 0, True, 1, 1)),
        (TcLeaf(point, (0,), co=True), (1, 0, True, 1, 1)),
        (TcLeaf(path_graph(2), (0, 1), co=True), (2, 0, False, 2, 1)),
        (TcLeaf(path_graph(2), (0, 1)), (2, 1, True, 1, 2)),
        (star, (5, 4, True, 4, 2)),
    ]


def test_tcx_analyze_facts_equal_those_of_the_evaluated_graph():
    rng = random.Random("tcx analyze facts")
    for family in ("chain", "wide", "nested"):
        for n in (2, 3, 4, 5, 7, 9, 12, 14, 30, 60):
            for _ in range(3):
                _folded_against_evaluated(random_expression(family, n, rng))
    for e, want in _lone_leaves():
        assert _folded_against_evaluated(e) == want, e


def test_tcx_analyze_prints_what_its_edge_list_prints(tmp_path):
    rng = random.Random("tcx analyze text")
    exprs = [random_expression(family, n, rng)
             for family in ("chain", "wide", "nested") for n in (2, 5, 9, 40, 120)]
    exprs += [e for e, _ in _lone_leaves()]
    for i, e in enumerate(exprs):
        tcx, edges = tmp_path / f"e{i}.tcx", tmp_path / f"e{i}.g"
        tcx.write_text(format_tc_expression(e))
        edges.write_text(format_edgelist(evaluate_tc(e)))
        code, out = run(["analyze", str(tcx)])
        assert code == 0 and (code, out) == run(["analyze", str(edges)]), e


def test_tcx_analyze_never_evaluates_while_verify_and_chain_do(tmp_path, monkeypatch):
    import bchrom.cli as cli
    import bchrom.graph as graph
    import bchrom.route as route

    # a point joined to a co-tree: the complement of a forest, which chain answers
    tree = random_labeled_tree(12, random.Random(12))
    e = TcJoin((TcLeaf(Graph(1, ((),)), (0,)), TcLeaf(tree, tuple(range(1, 13)), co=True)))
    tcx, col = tmp_path / "e.tcx", tmp_path / "e.col"
    tcx.write_text(format_tc_expression(e))
    col.write_text("".join(f"{v} {v}\n" for v in range(13)))

    def raising(expr):
        raise AssertionError("the expression was evaluated")

    calls = []

    def counted(expr):
        calls.append(expr)
        return evaluate_tc(expr)

    for wrapper in (raising, counted):
        for module in (cli, graph, route):
            monkeypatch.setattr(module, "evaluate_tc", wrapper)
        code, out = run(["analyze", str(tcx)])
        assert code == 0 and "tree-cograph: yes\n" in out
    assert not calls
    code, out = run(["verify", str(tcx), str(col)])
    assert code == 0 and out.startswith("B-COLORING no\n") and len(calls) == 1
    code, out = run(["chain", str(tcx)])
    assert code == 0 and out.startswith("colors: ") and len(calls) == 2
