"""Differential tests for the rule table of the tree matching DPs.

The reference below writes both recurrences out by hand, state by state: a
fused five-state scalar pass for the minimum strongly maximal matching and a
seven-state vector pass for the deficiency at each matching size, each with
a leaf case of its own.  The tables that ``tree_dp`` reads off ``RULES``
must equal it cell for cell on randomly labelled trees.
"""

import io
import random
from contextlib import redirect_stdout

import networkx as nx
import pytest

from bchrom.cli import main
from bchrom.fileio import format_edgelist
from bchrom.generators import random_labeled_tree
from bchrom.graph import Graph, complement, path_graph, star_graph
from bchrom.matching import is_strongly_maximal, s1_s2
from bchrom.tree_dp import (
    INF,
    STATE_NAMES,
    combine_all,
    combine_one_distinguished,
    deficiency_matching,
    deficiency_tables,
    min_smm_tree,
    reconstruct_deficiency_matching,
    root_tree,
    smm_tables,
)


# ---------------------------------------------------------------------------
# Reference: the recurrences written out state by state
# ---------------------------------------------------------------------------


def _reference_smm(t: Graph) -> dict:
    rt = root_tree(t)
    vals: dict = {}
    for v in rt.order:
        cs = rt.children[v]
        if not cs:
            vals[v] = (INF, 1, 1, INF, 0)
            continue
        fs = [vals[c] for c in cs]
        m45 = [f[3] if f[3] <= f[4] else f[4] for f in fs]
        s45 = sum(m45)
        s4 = sum(f[3] for f in fs)
        a = 0.0
        b_strict = INF
        a4 = 0.0
        b_loose = INF
        for f, mv in zip(fs, m45):
            b_strict = min(b_strict + mv, a + f[2])
            a += mv
            b_loose = min(b_loose + f[3], a4 + f[1])
            a4 += f[3]
        vals[v] = (b_strict, 1 + s45, 1 + s4, min(b_loose, b_strict), sum(f[0] for f in fs))
    return vals


def _vec_min(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return [min(a[i] if i < len(a) else INF, b[i] if i < len(b) else INF) for i in range(n)]


def _shift_add(vec: list, add: int, cap: int, shift: int = 0) -> list:
    out = [INF] * (cap + 1)
    for i, x in enumerate(vec):
        if i + shift > cap:
            break
        if x != INF:
            out[i + shift] = x + add
    return out


def _reference_deficiency(t: Graph) -> dict:
    rt = root_tree(t)
    cap_all = t.n // 2
    vals: dict = {}
    for v in rt.order:
        cs = rt.children[v]
        cap = min(cap_all, (rt.subtree_size[v] + 1) // 2)
        if not cs:
            f1 = [INF] * (cap + 1)
            f2 = [INF, 0][: cap + 1] + [INF] * max(0, cap - 1)
            f5 = [0] + [INF] * cap
            f6 = [2] + [INF] * cap
            f7 = [1] + [INF] * cap
            vals[v] = (f1, list(f2), list(f2), list(f1), f5, f6, f7)
            continue
        fs = [vals[c] for c in cs]
        m45 = [_vec_min(f[3], f[4]) for f in fs]
        m17 = [_vec_min(f[0], f[6]) for f in fs]
        f4s = [f[3] for f in fs]
        f1s = [f[0] for f in fs]
        c45 = combine_all(m45, cap - 1)
        c4 = combine_all(f4s, cap - 1)
        c17 = combine_all(m17, cap)
        f1 = combine_one_distinguished([f[2] for f in fs], m45, cap)
        f2 = _shift_add(c45, 0, cap, shift=1)
        f3 = _vec_min(_shift_add(c4, 0, cap, shift=1), _shift_add(c45, 1, cap, shift=1))
        f4 = _vec_min(combine_one_distinguished([f[1] for f in fs], f4s, cap), f1)
        f5 = _vec_min(
            _vec_min(
                combine_all(f1s, cap), combine_one_distinguished([f[5] for f in fs], f1s, cap)
            ),
            _shift_add(c17, 1, cap),
        )
        f6 = _shift_add(c17, 2, cap)
        f7 = _shift_add(c17, 1, cap)
        vals[v] = tuple(
            (x[: cap + 1] + [INF] * (cap + 1 - len(x)))[: cap + 1]
            for x in (f1, f2, f3, f4, f5, f6, f7)
        )
    return vals


def _fmt(x) -> str:
    return "INF" if x == INF else str(int(x))


def _reference_dump(t: Graph, vals: dict, vector: bool) -> str:
    parent = root_tree(t).parent
    rows = []
    for v in sorted(vals):
        for st, cell in enumerate(vals[v]):
            cells = enumerate(cell) if vector else [("-", cell)]
            rows += [f"{parent[v]}-{v}\t{STATE_NAMES[st]}\t{k}\t{_fmt(x)}" for k, x in cells]
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------


def _relabel(t: Graph, rng: random.Random) -> Graph:
    perm = list(range(t.n))
    rng.shuffle(perm)
    return Graph.from_edges(t.n, [(perm[u], perm[v]) for u, v in t.edges])


def _small_trees() -> list[Graph]:
    """Every tree on 2..9 vertices up to isomorphism, randomly labelled."""
    rng = random.Random(8313)
    out = []
    for n in range(2, 10):
        for nt in nx.nonisomorphic_trees(n):
            out.append(_relabel(Graph.from_edges(n, list(nt.edges())), rng))
    return out


def _random_trees() -> list[Graph]:
    rng = random.Random(1310)
    return [random_labeled_tree(rng.randint(2, 60), rng) for _ in range(120)]


def _caterpillar(n: int) -> Graph:
    spine = n // 2
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i % spine, i) for i in range(spine, n)]
    return Graph.from_edges(n, edges)


SMALL = _small_trees()
RANDOM = _random_trees()
LARGE = {
    "path": path_graph(200),
    "star": star_graph(199),
    "caterpillar": _caterpillar(200),
}


def _same_tables(t: Graph) -> None:
    assert smm_tables(t).values == _reference_smm(t)
    assert deficiency_tables(t).values == _reference_deficiency(t)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_small_catalog_is_complete():
    assert len(SMALL) == 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47


def test_tables_equal_reference_on_every_small_tree():
    for t in SMALL:
        _same_tables(t)


def test_tables_equal_reference_on_random_trees():
    for t in RANDOM:
        _same_tables(t)


@pytest.mark.parametrize("shape", sorted(LARGE))
def test_tables_equal_reference_at_200(shape):
    _same_tables(_relabel(LARGE[shape], random.Random(shape)))


def test_witness_at_every_feasible_size():
    for t in SMALL + RANDOM[:40]:
        tables = deficiency_tables(t)
        ref = _reference_deficiency(t)[tables.tree.anchor]
        for k in range(t.n // 2 + 1):
            value = min(ref[0][k], ref[1][k], ref[5][k])
            if value == INF:
                continue
            m = reconstruct_deficiency_matching(tables, k)
            assert len(m) == k and sum(s1_s2(t, m)) == value
            largest = k, value
        assert deficiency_matching(t, largest[0])[0] == largest[1]


def test_min_smm_witness_is_minimum_and_strongly_maximal():
    for t in SMALL + RANDOM + [_relabel(g, random.Random(3)) for g in LARGE.values()]:
        f = _reference_smm(t)[root_tree(t).anchor]
        size, m = min_smm_tree(t)
        assert size == min(f[0], f[1]) == len(m)
        assert is_strongly_maximal(t, m)


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def test_cli_dumps_are_byte_identical(tmp_path):
    rng = random.Random(5)
    for i, t in enumerate([SMALL[-1], RANDOM[7], _relabel(LARGE["caterpillar"], rng)]):
        path = tmp_path / f"t{i}.g"
        path.write_text(format_edgelist(t))
        smm = _reference_dump(t, _reference_smm(t), vector=False)
        deficiency = _reference_dump(t, _reference_deficiency(t), vector=True)
        assert _run(["tables", "min-smm", str(path)]) == smm + "\n"
        assert _run(["tables", "deficiency", str(path)]) == deficiency + "\n"
        co = tmp_path / f"co{i}.g"
        co.write_text(format_edgelist(complement(t)))
        out = _run(["dominance", str(co), "--dump-tables"])
        assert out.endswith("\n" + deficiency + "\n")
        head = out[: -len(deficiency) - 1].splitlines()
        assert all(len(line.split()) == 2 for line in head)
