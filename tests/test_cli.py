import io
import os
import random
import subprocess
import sys
import tracemalloc
from collections import deque
from contextlib import redirect_stderr, redirect_stdout

import pytest

from bchrom.cli import main
from bchrom.fileio import format_edgelist, parse_edgelist, parse_coloring
from bchrom.graph import (
    Graph,
    complement,
    cycle_graph,
    is_triangle_free,
    path_graph,
    star_graph,
)


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


def test_cli_import_leaves_networkx_unloaded():
    code = "import sys, bchrom.cli; bchrom.cli.build_parser(); print('networkx' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
