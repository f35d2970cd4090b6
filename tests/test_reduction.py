import random

import pytest

from bchrom.errors import BudgetExceeded, NotBipartite, NotCanonical, NotMaximal, UnknownEdge
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
# The gadget's branch and bound on an explicit stack
# ---------------------------------------------------------------------------


def _reference_branch_bound(gadget, upper, budget):
    """The recursive search, one frame per original edge, kept as the
    reference for the stack-based ``_min_smm_branch_bound``."""
    from bchrom.errors import InvariantViolation
    from bchrom.matching import _defects
    from bchrom.reduction import _BLOCK_CONFIGS, _block_edges

    host = gadget.host
    items = list(gadget.blocks.items())
    nblocks = len(items)
    block_host_edges = [_block_edges(ids, *e) for e, ids in items]
    last_block = {}
    for bi, ((u, v), _ids) in enumerate(items):
        last_block[u] = bi
        last_block[v] = bi
    best = [upper + 1]
    chosen = [None] * nblocks
    covered = set()
    head_free, dang, sec = {}, {}, {}
    full = (1 << host.n) - 1

    def leaf_ok():
        flat = []
        mask = 0
        for bi, cfg in enumerate(chosen):
            for j in cfg.edge_idx:
                e = block_host_edges[bi][j]
                flat.append(e)
                mask |= (1 << e[0]) | (1 << e[1])
        return _defects(host, flat, full & ~mask) == (0, 0)

    def finalize_ok(w):
        if w in covered:
            return not (head_free.get(w) and sec.get(w))
        return not head_free.get(w) and not dang.get(w)

    def rec(bi, size):
        budget.tick()
        if size + 3 * (nblocks - bi) >= best[0]:
            return
        if bi == nblocks:
            for b2, cfg in enumerate(chosen):
                if cfg.bridge_matched:
                    u2, v2 = items[b2][0]
                    if u2 not in covered and v2 not in covered:
                        return
            if not leaf_ok():
                raise InvariantViolation("flag analysis admitted a non-SMM leaf")
            best[0] = size
            return
        u, v = items[bi][0]
        for cfg in _BLOCK_CONFIGS:
            if (cfg.cov_u and u in covered) or (cfg.cov_v and v in covered):
                continue
            for w, cov, hf, dg, sc in (
                (u, cfg.cov_u, cfg.head_u_free, cfg.dang_u, cfg.sec_u),
                (v, cfg.cov_v, cfg.head_v_free, cfg.dang_v, cfg.sec_v),
            ):
                if cov:
                    covered.add(w)
                head_free[w] = head_free.get(w, 0) + hf
                dang[w] = dang.get(w, 0) + dg
                sec[w] = sec.get(w, 0) + sc
            chosen[bi] = cfg
            ok = True
            if last_block[u] == bi and not finalize_ok(u):
                ok = False
            if ok and last_block[v] == bi and not finalize_ok(v):
                ok = False
            if ok:
                rec(bi + 1, size + cfg.size)
            chosen[bi] = None
            for w, cov, hf, dg, sc in (
                (u, cfg.cov_u, cfg.head_u_free, cfg.dang_u, cfg.sec_u),
                (v, cfg.cov_v, cfg.head_v_free, cfg.dang_v, cfg.sec_v),
            ):
                if cov:
                    covered.discard(w)
                head_free[w] -= hf
                dang[w] -= dg
                sec[w] -= sc

    rec(0, 0)
    return best[0]


def _certify_graphs():
    """The graphs the certify tests above use."""
    yield from (K2, P3, C4, cycle_graph(6), complete_bipartite(2, 3))
    from bchrom.graph import is_connected

    for n in range(2, 5):
        for g in all_graphs(n):
            if g.m and _is_bipartite(g) and is_connected(g):
                yield g


def test_branch_bound_equals_the_recursive_reference():
    """Same minimum and the same number of nodes spent, at the upper bound
    the certifier passes and at a looser one."""
    from bchrom.oracle import _Counter
    from bchrom.reduction import _min_maximal_matching, _min_smm_branch_bound

    for g in _certify_graphs():
        gadget = build_gadget(g)
        _, witness = _min_maximal_matching(g, _Counter(10**6))
        upper = len(lift_matching(g, witness))
        for bound in (upper, upper + 3):
            spent = []
            for search in (_reference_branch_bound, _min_smm_branch_bound):
                budget = _Counter(10**6)
                spent.append((search(gadget, bound, budget), 10**6 - budget.left))
            assert spent[0] == spent[1], (g.edges, bound)


def test_certify_on_a_deep_gadget_ends_in_one_line(tmp_path):
    """K(2,600) blows up into 1200 blocks, one recursion frame each in a
    recursive search; at this budget that search passes Python's recursion
    limit before the budget runs out."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from bchrom.cli import main
    from bchrom.fileio import format_edgelist

    path = tmp_path / "k2_600.g"
    path.write_text(format_edgelist(complete_bipartite(2, 600)))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["certify", str(path), "--budget", "730000"])
    assert code in (0, 1)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
