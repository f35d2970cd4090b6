import random

import pytest

from bchrom.errors import (
    BudgetExceeded,
    NotBipartite,
    NotCanonical,
    NotMaximal,
    RangeError,
    UnknownEdge,
)
from bchrom.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_forest,
    path_graph,
)
from bchrom.matching import is_strongly_maximal
from bchrom.reduction import (
    build_gadget,
    certify_reduction,
    f_sets,
    lift_matching,
    normalize_smm,
    project_matching,
)

from conftest import all_graphs

K2 = path_graph(2)
P3 = path_graph(3)
C4 = cycle_graph(4)


def _is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def test_gadget_counts():
    gad = build_gadget(K2)
    assert gad.host.n == 10 and gad.host.m == 9
    gad = build_gadget(P3)
    assert gad.host.n == 19 and gad.host.m == 18
    gad = build_gadget(C4)
    assert gad.host.n == 36 and gad.host.m == 36
    assert _is_bipartite(gad.host)


def test_gadget_requires_bipartite():
    with pytest.raises(NotBipartite):
        build_gadget(complete_graph(3))


def test_gadget_of_forest_is_forest():
    for g in [K2, P3, path_graph(5), Graph.from_edges(4, [(0, 1), (2, 3)])]:
        assert is_forest(build_gadget(g).host)


def test_f_sets():
    gad = build_gadget(K2)
    fin, fout = f_sets(gad, (0, 1))
    assert len(fin) == 4 and len(fout) == 3
    assert len(fin & fout) == 2
    gad3 = build_gadget(P3)
    fin01, _ = f_sets(gad3, (0, 1))
    fin12, _ = f_sets(gad3, (1, 2))
    assert not (fin01 & fin12)
    with pytest.raises(UnknownEdge):
        f_sets(gad, (0, 2))


def test_lift_examples():
    lifted = lift_matching(K2, frozenset({(0, 1)}))
    assert len(lifted) == 4
    assert is_strongly_maximal(build_gadget(K2).host, lifted)
    lifted = lift_matching(P3, frozenset({(1, 2)}))
    assert len(lifted) == 1 + 6
    assert is_strongly_maximal(build_gadget(P3).host, lifted)
    perfect = frozenset({(0, 1), (2, 3)})
    assert len(lift_matching(C4, perfect)) == 2 + 12
    with pytest.raises(NotMaximal):
        lift_matching(P3, frozenset())


def test_lift_then_project_is_identity():
    rng = random.Random(3)
    for g in [K2, P3, C4, complete_bipartite(2, 3), path_graph(5)]:
        gad = build_gadget(g)
        for m in _all_maximal_matchings(g):
            lifted = lift_matching(g, m)
            assert is_strongly_maximal(gad.host, lifted)
            assert project_matching(gad, lifted) == m


def _all_maximal_matchings(g: Graph):
    edges = g.edges
    out = []

    def rec(i, used, chosen):
        if i == len(edges):
            if all(u in used or v in used for u, v in edges):
                out.append(frozenset(chosen))
            return
        u, v = edges[i]
        if u not in used and v not in used:
            rec(i + 1, used | {u, v}, chosen + [(u, v)])
        rec(i + 1, used, chosen)

    rec(0, set(), [])
    return out


def test_project_requires_canonical():
    gad = build_gadget(K2)
    ids = gad.blocks[(0, 1)]
    weird = frozenset({(ids[0], ids[1]), (ids[2], ids[3]), (ids[4], ids[5]), (ids[6], ids[7])})
    with pytest.raises(NotCanonical):
        project_matching(gad, weird)


def test_normalize_pendant_tails():
    gad = build_gadget(K2)
    fin, _ = f_sets(gad, (0, 1))
    ids = gad.blocks[(0, 1)]
    pendants = frozenset(
        {(ids[0], ids[1]), (ids[2], ids[3]), (ids[4], ids[5]), (ids[6], ids[7])}
    )
    assert is_strongly_maximal(gad.host, pendants)
    normalized = normalize_smm(gad, pendants)
    assert normalized == fin
    # canonical input is left alone
    assert normalize_smm(gad, fin) == fin


def test_normalize_random_minimum_smms():
    # exhaustively find minimum strongly maximal matchings of small hosts and
    # normalize each; sizes and strong maximality must be preserved and no
    # pendant tail tip edge may remain
    for g in [K2, P3]:
        gad = build_gadget(g)
        host = gad.host
        minima = _all_min_smm(host)
        for m in minima:
            normalized = normalize_smm(gad, m)
            assert len(normalized) == len(m)
            assert is_strongly_maximal(host, normalized)
            for e, ids in gad.blocks.items():
                tips = {tuple(sorted((ids[2], ids[3]))), tuple(sorted((ids[6], ids[7])))}
                assert not (normalized & tips)
                project_matching(gad, normalized)


def _all_min_smm(host: Graph):
    edges = host.edges
    best = [host.n]
    out = []

    def rec(i, used, chosen):
        if len(chosen) > best[0]:
            return
        if i == len(edges):
            m = frozenset(chosen)
            if is_strongly_maximal(host, m):
                if len(m) < best[0]:
                    best[0] = len(m)
                    out.clear()
                if len(m) == best[0]:
                    out.append(m)
            return
        u, v = edges[i]
        if u not in used and v not in used:
            rec(i + 1, used | {u, v}, chosen + [(u, v)])
        rec(i + 1, used, chosen)

    rec(0, set(), [])
    return out


def test_certify_named_fixtures():
    r = certify_reduction(K2)
    assert (r.min_maximal, r.min_smm_host, r.origin_edges, r.identity_holds) == (1, 4, 1, True)
    r = certify_reduction(P3)
    assert (r.min_maximal, r.min_smm_host, r.origin_edges, r.identity_holds) == (1, 7, 2, True)
    r = certify_reduction(C4)
    assert (r.min_maximal, r.min_smm_host, r.identity_holds) == (2, 14, True)
    r = certify_reduction(cycle_graph(6))
    assert (r.min_maximal, r.identity_holds) == (2, True)
    r = certify_reduction(complete_bipartite(2, 3))
    assert (r.min_maximal, r.identity_holds) == (2, True)


def test_certify_reports_its_own_budget():
    with pytest.raises(BudgetExceeded, match="certification search budget exhausted"):
        certify_reduction(C4, search_budget=5)
    for budget in (0, -5):
        with pytest.raises(RangeError, match="budget must be positive"):
            certify_reduction(K2, search_budget=budget)


def test_certify_all_connected_bipartite_up_to_4():
    seen = set()
    for n in range(2, 5):
        for g in all_graphs(n):
            if g.m == 0 or not _is_bipartite(g):
                continue
            from bchrom.graph import is_connected

            if not is_connected(g):
                continue
            key = _canon(g)
            if key in seen:
                continue
            seen.add(key)
            report = certify_reduction(g)
            assert report.identity_holds, f"failed on {g.edges}"


def _canon(g: Graph):
    from itertools import permutations

    best = None
    for perm in permutations(range(g.n)):
        key = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
        if best is None or key < best:
            best = key
    return (g.n, best)


# ---------------------------------------------------------------------------
# The certification DP
# ---------------------------------------------------------------------------


def test_least_matching_equals_the_references_on_random_triangle_free_graphs():
    """Strong: the oracle's minimum strongly maximal matching.  Not strong:
    the least of all maximal matchings.  Random labellings, n <= 12."""
    from bchrom.generators import random_triangle_free
    from bchrom.matching import _Counter
    from bchrom.oracle import oracle_min_smm
    from bchrom.reduction import _least_matching

    rng = random.Random(27)
    for _ in range(500):
        n = rng.randint(1, 12)
        g = random_triangle_free(n, rng.random(), rng)
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
        assert _least_matching(g, True, _Counter(10**6)) == oracle_min_smm(g)[0], g.edges
        least = min(len(m) for m in _all_maximal_matchings(g))
        assert _least_matching(g, False, _Counter(10**6)) == least, g.edges


def test_least_matching_refuses_a_triangle_with_an_invariant_violation():
    from bchrom.errors import InvariantViolation
    from bchrom.matching import _Counter
    from bchrom.reduction import _least_matching

    # every maximal matching of K3 leaves one corner free beside both ends of
    # its edge, which the codes cannot tell from two distinct free neighbours
    with pytest.raises(InvariantViolation, match="triangle"):
        _least_matching(complete_graph(3), True, _Counter(10**6))
    assert _least_matching(complete_graph(3), False, _Counter(10**6)) == 1


def test_certify_answers_cycles_a_biclique_and_a_large_tree():
    from bchrom.generators import random_labeled_tree

    for g in (cycle_graph(10), cycle_graph(30), complete_bipartite(4, 4),
              random_labeled_tree(300, random.Random(300))):
        report = certify_reduction(g)
        assert report.identity_holds and report.origin_edges == g.m, g.edges


def test_certify_on_a_deep_gadget_ends_in_one_line(tmp_path):
    """K(2,600) blows up into 1200 blocks and a 10 202-vertex host of
    treewidth 2; the DP answers it within this budget."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from bchrom.cli import main
    from bchrom.fileio import format_edgelist

    path = tmp_path / "k2_600.g"
    path.write_text(format_edgelist(complete_bipartite(2, 600)))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["certify", str(path), "--budget", "730000"])
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().splitlines() == [
        "min-maximal-matching: 2",
        "min-smm-gadget: 3602",
        "original-edges: 1200",
        "identity-holds: yes",
    ]
