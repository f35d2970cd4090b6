"""Differential tests for the rule table of the tree matching DPs.

The reference below writes both recurrences out by hand, state by state: a
fused five-state scalar pass for the minimum strongly maximal matching and a
seven-state vector pass for the deficiency at each matching size, each with
a leaf case of its own.  The vector pass folds its children over plain
lists, so it shares no merge with the package.  The tables that
``tree_dp`` reads off ``RULES`` must equal it cell for cell on randomly
labelled trees.  Beside them, the witness walk that tries the scalar rules
one by one at each vertex is the reference for the walk that follows the
choices the compiled row recorded.
"""

import io
import random
from contextlib import redirect_stdout

import networkx as nx
import pytest

from bchrom.cli import main
from bchrom.fileio import format_edgelist
from bchrom.generators import random_labeled_tree
from bchrom.graph import Graph, complement, norm_edge, path_graph, star_graph
from bchrom.matching import is_strongly_maximal, s1_s2
from bchrom.rows import compile_rows
from bchrom.tree_dp import (
    INF,
    RULES,
    STATE_NAMES,
    deficiency_matching,
    deficiency_tables,
    deficiency_vector,
    min_smm_tree,
    reconstruct_deficiency_matching,
    root_tree,
    smm_tables,
    _Lanes,
    _SMM_RULES,
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


def _reference_smm_walk(t: Graph) -> frozenset:
    """The matching the rule-by-rule walk returns from the reference values:
    from the cheaper of the anchor's states 0 and 1 down, each vertex takes
    the first rule of ``_SMM_RULES`` whose children reach its value, every
    child at its first cheapest state in rest, except the first child that
    gives the least cost at dist when the rule has one."""
    rt, vals = root_tree(t), _reference_smm(t)
    out = set()
    stack = [(rt.anchor, 0 if vals[rt.anchor][0] <= vals[rt.anchor][1] else 1)]
    while stack:
        v, st = stack.pop()
        cs = rt.children[v]
        for dist, rest, edges, _ in _SMM_RULES[st]:
            picks = [min(rest, key=vals[c].__getitem__) for c in cs]
            none, one, at = 0, INF, -1
            for i, (c, pick) in enumerate(zip(cs, picks)):
                if dist is not None:
                    a, b = one + vals[c][pick], none + vals[c][dist]
                    one, at = (b, i) if b < a else (a, at)
                none += vals[c][pick]
            if (none if dist is None else one) + edges == vals[v][st]:
                break
        else:
            raise AssertionError(f"no rule reaches state {st} at vertex {v}")
        if at >= 0:
            picks[at] = dist
        if edges:
            out.add(norm_edge(rt.parent[v], v))
        stack.extend(zip(cs, picks))
    return frozenset(out)


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


def _minplus(a: list, b: list, cap: int) -> list:
    """The min-plus product of two lists at sizes up to cap: each finite
    entry of the shorter, added to the other moved up to its size; the
    first such row lands on INF entries alone."""
    if len(a) > len(b):
        a, b = b, a
    out = [INF] * (min(cap, len(a) + len(b) - 2) + 1)
    first = True
    for i, x in enumerate(a[: len(out)]):
        if x != INF:
            row = [x + y for y in b[: len(out) - i]]
            out[i : i + len(row)] = row if first else map(min, out[i : i + len(row)], row)
            first = False
    return out


def _fold_all(vecs: list, cap: int) -> list:
    """Every vector at a size of its own, the sizes summing to k, at k up to cap."""
    out = vecs[0][: cap + 1]
    for vec in vecs[1:]:
        out = _minplus(out, vec, cap)
    return out


def _fold_one(dists: list, rests: list, cap: int) -> tuple[list, list]:
    """Like ``_fold_all`` over ``rests``, except that exactly one vector, any
    one, is its entry of ``dists`` instead; and ``_fold_all(rests, cap)``,
    which that fold makes on the way."""
    none, one = rests[0][: cap + 1], dists[0][: cap + 1]
    for dist, rest in zip(dists[1:], rests[1:]):
        one = _vec_min(_minplus(one, rest, cap), _minplus(none, dist, cap))
        none = _minplus(none, rest, cap)
    return one, none


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
        # the all-rest folds at cap; shifted up by one, they are read to cap - 1
        f1, c45 = _fold_one([f[2] for f in fs], m45, cap)
        one4, c4 = _fold_one([f[1] for f in fs], f4s, cap)
        one6, c1 = _fold_one([f[5] for f in fs], f1s, cap)
        c17 = _fold_all(m17, cap)
        f2 = _shift_add(c45, 0, cap, shift=1)
        f3 = _vec_min(_shift_add(c4, 0, cap, shift=1), _shift_add(c45, 1, cap, shift=1))
        f4 = _vec_min(one4, f1)
        f5 = _vec_min(_vec_min(c1, one6), _shift_add(c17, 1, cap))
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


def _spider(legs: list[int]) -> Graph:
    """A center (vertex 0) with one path of each length in ``legs`` hanging
    from it; a leg of length 1 is a leaf, so ``[1] * j + [h]`` is a broom."""
    edges, n = [], 1
    for length in legs:
        edges += [(0 if i == 0 else n + i - 1, n + i) for i in range(length)]
        n += length
    return Graph.from_edges(n, edges)


def _legged_caterpillar(spine: int, legs: int) -> Graph:
    """A path of ``spine`` vertices, each with ``legs`` leaves."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i * legs + j) for i in range(spine) for j in range(legs)]
    return Graph.from_edges(spine * (legs + 1), edges)


def _rooted_at(t: Graph, root: int, rng: random.Random) -> Graph:
    """t under a random permutation that labels ``root`` 0, so that the DPs,
    which root a tree at its lowest-indexed leaf, root it at ``root``."""
    perm = list(range(1, t.n))
    rng.shuffle(perm)
    perm.insert(root, 0)
    return Graph.from_edges(t.n, [(perm[u], perm[v]) for u, v in t.edges])


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
    # leafy shapes, where a vertex's leaf children take their sizes from its
    # leaf block: the stars, caterpillars and brooms below
    rng = random.Random("leafy witnesses")
    leafy = [_relabel(t, rng) for shape in ("broom", "caterpillar", "star") for t in SHAPES[shape]]
    for t in SMALL + RANDOM[:40] + leafy:
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


def test_witness_on_a_2000_leaf_star_at_size_one():
    t = _relabel(star_graph(2000), random.Random(2000))
    tables = deficiency_tables(t)
    m = reconstruct_deficiency_matching(tables, 1)
    assert len(m) == 1 and sum(s1_s2(t, m)) == deficiency_vector(t, tables)[1] == 0


def test_children_rise_in_random_labellings():
    """``root_tree`` keeps each parent's children in the order its BFS met
    them, which is ascending, as its sorted row gives them."""
    rng = random.Random(139)
    trees = [random_labeled_tree(rng.randint(2, 300), rng) for _ in range(100)]
    trees += [_relabel(t, rng) for shape in sorted(SHAPES) for t in SHAPES[shape]]
    for t in trees:
        for cs in root_tree(t).children:
            assert list(cs) == sorted(cs)


def test_min_smm_witness_is_minimum_and_strongly_maximal():
    """The witness is also the matching of the rule-by-rule reference walk,
    which pins every ``--witness`` file of a co-tree."""
    rng = random.Random(24)
    trees = SMALL + RANDOM + [_relabel(g, random.Random(3)) for g in LARGE.values()]
    trees += [_relabel(g, rng) for shape in sorted(SHAPES) for g in SHAPES[shape]]
    for t in trees:
        f = _reference_smm(t)[root_tree(t).anchor]
        size, m = min_smm_tree(t)
        assert size == min(f[0], f[1]) == len(m)
        assert is_strongly_maximal(t, m)
        assert m == _reference_smm_walk(t)


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


# Brooms and spiders: many leaf children beside one or two deep ones, which
# the table build folds as one block of leaves and one product per deep child.
SHAPES = {
    "broom": [_spider([1] * 30 + [12]), _spider([1] * 3 + [40]), _spider([1] * 97 + [3])],
    "spider": [_spider([1] * 25 + [9, 14]), _spider([1] * 64 + [2, 2]), _spider([2] * 20),
               _spider([1] * 8 + [3] * 8 + [7])],
    "caterpillar": [_legged_caterpillar(spine, legs) for legs in range(1, 7)
                    for spine in (1, 2, 9, 31)],
    "star": [star_graph(k) for k in (1, 2, 3, 4, 7, 8, 31, 64, 100)],
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_tables_equal_reference_on_leafy_shapes(shape):
    rng = random.Random(shape)
    for t in SHAPES[shape]:
        for _ in range(3):
            _same_tables(_relabel(t, rng))


@pytest.mark.parametrize("inner", [0, 1, 2])
@pytest.mark.parametrize("leaves", [0, 1, 2, 7, 40])
def test_tables_equal_reference_at_each_mix_of_leaf_and_inner_children(leaves, inner):
    """A vertex with ``leaves`` leaf children and ``inner`` children that have
    children of their own, below a parent and in random labellings."""
    rng = random.Random(f"{leaves}/{inner}")
    for sizes in ([2, 3], [5, 1], [9, 12]) if inner else ([],):
        # 0 is the root leaf, 1 its neighbor, 2 the vertex, then its leaves,
        # then each inner child with its own subtree (a broom or a path)
        edges = [(0, 1), (1, 2)] + [(2, 3 + i) for i in range(leaves)]
        n = 3 + leaves
        for size in sizes[:inner]:
            # size // 2 leaves and a path of the rest hang from the child n
            edges += [(2, n)] + [(n, n + 1 + j) for j in range(size // 2)]
            edges += [(n if j == size // 2 else n + j, n + j + 1) for j in range(size // 2, size)]
            n += size + 1
        t = Graph.from_edges(n, edges)
        for _ in range(3):
            g = _rooted_at(t, 0, rng)
            rt = root_tree(g)
            kids = [rt.children[v] for v in range(g.n)]
            assert any(sum(not kids[c] for c in cs) == leaves
                       and sum(bool(kids[c]) for c in cs) == inner for cs in kids)
            _same_tables(g)


ONE_RULES = sorted({(dist, rest) for rules in RULES for dist, rest, _, _ in rules}, key=repr)


@pytest.mark.parametrize("dist, rest", ONE_RULES,
                         ids=[f"dist{d}-rest{''.join(map(str, r))}" for d, r in ONE_RULES])
def test_each_rule_read_as_a_one_rule_table_is_its_list_product(dist, rest):
    """A rule of ``RULES`` compiled as a one-state table, over random packed
    7-state child rows folded in either order, gives the plain-list fold:
    ``_fold_all``, or ``_fold_one`` with dist, of each child's lanewise
    minimum over rest, at caps below and above the total."""
    rng = random.Random(f"{dist}/{rest}")
    for trial in range(40):
        values = [INF, INF, 0, 1, 2, 5, 9] + ([2 ** 14 + 3] if trial % 5 == 4 else [])
        lens = [rng.randint(1, 8) for _ in range(rng.randint(1, 4))]
        rows = [[[rng.choice(values) for _ in range(n)] for _ in range(7)] for n in lens]
        total = sum(lens) - len(lens)
        kern = _Lanes(len(lens) * max(values[2:]), total + 4)  # 64-bit lanes past 2**14
        packed = [tuple(kern.pack([kern.inf if x == INF else x for x in v]) for v in row)
                  for row in rows]
        _, contribution, merge, finish = compile_rows((((dist, rest, 0, 0),),), vector=True)(kern)
        rests = [[min(column) for column in zip(*(row[s] for s in rest))] for row in rows]
        for cap in sorted({max(total - 2, 0), total, total + 3}):
            if dist is None:
                want = _fold_all(rests, cap)
            else:
                want = _fold_one([row[dist] for row in rows], rests, cap)[0]
            want += [INF] * (cap + 1 - len(want))
            for order in (range(len(lens)), reversed(range(len(lens)))):
                acc = None
                for i in order:
                    x = contribution(packed[i], lens[i])
                    acc = x if acc is None else merge(acc, x, cap)
                (row,) = finish(acc, cap)
                assert kern.to_list(row, cap + 1, cap + 1) == want, (trial, cap, lens)


@pytest.mark.parametrize("bound", [2 ** 14 - 1, 2 ** 14])
def test_a_product_of_leaves_is_infinite_above_size_one(bound):
    """Merged one at a time at full cap, the contributions of j = 1..64
    leaves leave every accumulator INF above size 1, and at sizes 0 and 1
    equal the leaf block that ``deficiency_tables`` makes for j leaf
    children.  A leaf reaches size 1 only at the dist states, since no rest
    state of ``RULES`` holds size 1; this fails if one ever does."""
    # spine vertex i > 0 has i + 1 leaf children, and spine 0 two leaves, one
    # of them the root
    spine, most = 64, 65
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(spine):
        edges += [(i, n + j) for j in range(max(i + 1, 2))]
        n += max(i + 1, 2)
    tables = deficiency_tables(Graph.from_edges(n, edges))
    rt = tables.tree
    blocks = {sum(not rt.children[c] for c in rt.children[v]): ps[0]
              for v, ps in tables.products.items()}
    kern = _Lanes(bound, most + 1)
    assert kern.width == (16 if bound < 2 ** 14 else 64)
    empty, contribution, merge, finish = kern.rows(RULES)
    one = contribution(finish(empty, 1), 2)
    acc = one
    for j in range(1, most):
        if j > 1:
            acc = merge(acc, one, j)
        assert acc[0] == j + 1
        block = blocks[j]
        for x, y in zip(acc[1:], block[1:]):
            assert kern.to_list(x, j + 1, j + 1)[2:] == [INF] * (j - 1), j
            assert kern.to_list(x, 2, 2) == tables.kernel.to_list(y, block[0], 2), j
