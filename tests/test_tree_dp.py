import random

import pytest

from bchrom.errors import InvariantViolation, KOutOfRange, NotATree
from bchrom.generators import random_labeled_tree
from bchrom.graph import Graph, cycle_graph, path_graph, star_graph
from bchrom.matching import is_strongly_maximal, s1_s2
from bchrom.oracle import oracle_f_t_k, oracle_min_smm
from bchrom.tree_dp import (
    INF,
    DeficiencyTables,
    combine_all,
    deficiency_matching,
    deficiency_tables,
    deficiency_vector,
    dump_deficiency_tables,
    dump_smm_tables,
    min_smm_tree,
    minplus_convolve,
    reconstruct_deficiency_matching,
    smm_tables,
    split_size,
)

from conftest import relabelled, tree_catalog
from test_tree_dp_rules import _fold_one


def test_min_smm_examples():
    assert min_smm_tree(path_graph(6)) == (2, frozenset({(1, 2), (3, 4)}))
    size, m = min_smm_tree(path_graph(5))
    assert size == 2 and is_strongly_maximal(path_graph(5), m)
    assert min_smm_tree(path_graph(2)) == (1, frozenset({(0, 1)}))
    assert min_smm_tree(path_graph(1)) == (0, frozenset())


def test_min_smm_star_covers_center():
    star = star_graph(3)
    size, m = min_smm_tree(star)
    assert size == 1
    assert any(0 in e for e in m)
    assert is_strongly_maximal(star, m)


def test_min_smm_rejects_non_trees():
    with pytest.raises(NotATree):
        min_smm_tree(cycle_graph(4))
    with pytest.raises(NotATree):
        min_smm_tree(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_f_tree_k_examples():
    # F(P6, k) for k = 0..3, each size up to n/2 = 3
    assert deficiency_vector(path_graph(6)) == [6, 4, 0, 0]


def test_f_tree_k_infinity_beyond_nu():
    star = star_graph(4)  # 5 vertices, maximum matching 1
    assert deficiency_vector(star)[2] == INF


def test_minplus_combine_examples():
    assert combine_all([[0, 5]])[1] == 5
    assert combine_all([[0, 1], [0, 2]])[1] == 1
    assert combine_all([]) == [0]
    assert minplus_convolve([0, 1], [0, 2], cap=1) == [0, 1]


def _minplus_by_splits(a, b, cap):
    """Minimum over every split i + j = k, reading only finite entries, since
    a split through an INF entry never attains a minimum."""
    top = len(a) + len(b) - 2 if cap is None else min(cap, len(a) + len(b) - 2)
    out = [INF] * (top + 1)
    finite_b = [(j, y) for j, y in enumerate(b) if y != INF]
    for i, x in enumerate(a):
        if x != INF:
            for j, y in finite_b:
                if i + j <= top and x + y < out[i + j]:
                    out[i + j] = x + y
    return out


def _first_finite(v):
    return next((i for i, x in enumerate(v) if x != INF), None)


# Operand shapes the packed kernel must read alike: INF heads and tails,
# interior INF (which tree tables never hold), one finite entry, all INF, INF
# tails longer than any fixed-size buffer, also of INF objects other than
# ``INF``; negative entries, as ``dominance_join`` sends, which the kernel
# offsets into its lanes; and finite entries of 2**14 and above, which do not
# fit the 16-bit lane and force the wide one.
KERNEL_OPERANDS = [
    [0],
    [3],
    [INF],
    [INF] * 5,
    [INF] * 5000,
    [0, 1, 2, 3],
    [4, 2, 0, 1, 7],
    [INF, INF, 3, 1, 4, INF, INF],
    [INF, 0, INF],
    [INF, INF, 7],
    [0, INF, 2, INF, INF, 5, INF],
    [INF, 6, INF, INF, 1],
    [0, 1] + [INF] * 5000,
    [INF, 3] + [INF + 1] * 4100,
    [2] + [INF] * 4100 + [1] + [INF] * 4200,
    [INF] * 4097 + [5, 0],
    [-3, -1, 0],
    [INF, -7, INF, -2],
    [-5, INF, INF, -1],
    [2 ** 14, 3, INF],
    [INF, 2 ** 14 - 1, 2 ** 20],
    [-(2 ** 15), 0, INF, 2 ** 14],
]


def test_minplus_convolve_equals_the_minimum_over_all_splits():
    rng = random.Random(11)
    randoms = [[rng.choice([INF, INF, 0, 1, 2, 5, 9]) for _ in range(rng.randint(1, 9))]
               for _ in range(60)]
    operands = KERNEL_OPERANDS + randoms
    pairs = [(a, b) for a in KERNEL_OPERANDS for b in KERNEL_OPERANDS]
    pairs += [(rng.choice(operands), rng.choice(operands)) for _ in range(400)]
    for a, b in pairs:
        caps = [None]
        la, lb = _first_finite(a), _first_finite(b)
        if la is not None and lb is not None:
            last = len(a) + len(b) - 2
            caps += [la + lb - 1, (la + lb + last) // 2, la + lb]
        for cap in caps:
            want = _minplus_by_splits(a, b, cap)
            for x, y in ((a, b), (b, a)):
                got = minplus_convolve(x, y, cap)
                assert got == want, (a[:12], b[:12], cap)
                assert all(type(v) is int for v in got if v != INF), (a[:12], b[:12], cap)


def test_combine_all_matches_exhaustive():
    rng = random.Random(9)
    for _ in range(60):
        l = rng.randint(1, 4)
        kmax = rng.randint(1, 6)
        children = [
            [rng.choice([INF] + list(range(8))) for _ in range(rng.randint(1, kmax + 1))]
            for _ in range(l)
        ]
        got = combine_all(children, kmax)
        for k in range(len(got)):
            best = INF

            def rec(i, rem, acc):
                nonlocal best
                if acc == INF:
                    return
                if i == l:
                    if rem == 0:
                        best = min(best, acc)
                    return
                for ki, cost in enumerate(children[i]):
                    if ki <= rem:
                        rec(i + 1, rem - ki, acc + cost)

            rec(0, k, 0)
            assert got[k] == best


def test_combine_one_distinguished_matches_exhaustive():
    """The plain-list fold that the tests take as the reference for rules
    with a dist state: exactly one vector takes its dist entry."""
    rng = random.Random(10)
    for _ in range(60):
        l = rng.randint(1, 4)
        kmax = rng.randint(1, 5)
        dists = [
            [rng.choice([INF, 0, 1, 2, 5]) for _ in range(rng.randint(1, kmax + 1))]
            for _ in range(l)
        ]
        rests = [
            [rng.choice([INF, 0, 1, 3]) for _ in range(len(d))] for d in dists
        ]
        got, every_rest = _fold_one(dists, rests, kmax)
        for k in range(len(got)):
            best = INF
            for di in range(l):
                seq = rests[:di] + [dists[di]] + rests[di + 1 :]
                ref = combine_all(seq, kmax)
                if k < len(ref):
                    best = min(best, ref[k])
            assert got[k] == best
        assert every_rest == list(combine_all(rests, kmax))[: len(every_rest)]


def test_split_size_shares_reach_the_combined_value():
    """For the F vectors of 2-4 random trees, at every feasible total k the
    shares sum to k, each falls on a finite entry of its vector, and those
    entries sum to ``combine_all``'s value at k; past the total matching
    number, and below zero, there is no split."""
    rng = random.Random(21)
    for _ in range(25):
        trees = [random_labeled_tree(rng.randint(1, 30), rng) for _ in range(rng.randint(2, 4))]
        fvecs = [deficiency_vector(t) for t in trees]
        total = combine_all(fvecs)
        nu = sum(max(k for k, x in enumerate(f) if x != INF) for f in fvecs)
        assert [k for k, x in enumerate(total) if x != INF] == list(range(nu + 1))
        for k in range(nu + 1):
            shares = split_size(fvecs, k)
            assert len(shares) == len(fvecs) and sum(shares) == k, (k, shares)
            assert all(f[s] != INF for f, s in zip(fvecs, shares)), (k, shares)
            assert sum(f[s] for f, s in zip(fvecs, shares)) == total[k], (k, shares)
        for k in (-5, -1, nu + 1, len(total), len(total) + 3):
            with pytest.raises(KOutOfRange):
                split_size(fvecs, k)


def test_min_smm_against_oracle_catalog():
    for t in tree_catalog(10, extra_random=160, seed=77):
        size, witness = min_smm_tree(t)
        want, _ = oracle_min_smm(t)
        assert size == want, f"tree {t.edges}"
        assert len(witness) == size
        assert is_strongly_maximal(t, witness)


def test_deficiency_against_oracle_catalog():
    for t in tree_catalog(9, extra_random=80, seed=78):
        vec = deficiency_vector(t)
        for k in range(t.n // 2 + 1):
            assert vec[k] == oracle_f_t_k(t, k), f"tree {t.edges} k={k}"


def test_deficiency_witness_matches_value():
    rng = random.Random(12)
    for t in tree_catalog(9, extra_random=60, seed=79):
        vec = deficiency_vector(t)
        for k in range(t.n // 2 + 1):
            if vec[k] == INF:
                continue
            val, m = deficiency_matching(t, k)
            assert len(m) == k
            assert sum(s1_s2(t, m)) == val == vec[k]


def test_deficiency_unchanged_under_relabelling_at_workload_size():
    """A random 700-vertex tree, the size of the largest benchmark co-tree,
    and two random relabellings of it have one F vector; in each labelling
    the witness at three sizes k has k edges and its deficiency as value."""
    rng = random.Random(700)
    t = random_labeled_tree(700, rng)
    vec = deficiency_vector(t)
    ks = rng.sample([k for k, x in enumerate(vec) if x != INF], 3)
    for g in (t, relabelled(t, rng), relabelled(t, rng)):
        assert deficiency_vector(g) == vec
        for k in ks:
            value, m = deficiency_matching(g, k)
            assert len(m) == k
            assert sum(s1_s2(g, m)) == value == vec[k]


def test_two_dps_agree_on_zero_set():
    for t in tree_catalog(10, extra_random=60, seed=80):
        size, _ = min_smm_tree(t)
        vec = deficiency_vector(t)
        zeros = [k for k, v in enumerate(vec) if v == 0]
        assert min(zeros) == size
        nu = max(k for k, v in enumerate(vec) if v != INF)
        assert vec[nu] == 0  # a maximum matching is strongly maximal


def test_rooting_invariance():
    # the DP value must not depend on which leaf becomes the root
    rng = random.Random(13)
    for t in tree_catalog(9, extra_random=40, seed=81):
        base, _ = min_smm_tree(t)
        leaves = [v for v in range(t.n) if t.degree(v) == 1]
        for leaf in leaves:
            relabel = {leaf: 0, 0: leaf}
            perm = [relabel.get(v, v) for v in range(t.n)]
            g2 = Graph.from_edges(t.n, [(perm[u], perm[v]) for u, v in t.edges])
            size2, _ = min_smm_tree(g2)
            assert size2 == base


def test_dumps_have_expected_shape():
    t = path_graph(4)
    smm_rows = dump_smm_tables(smm_tables(t)).splitlines()
    assert len(smm_rows) == 3 * 5
    assert all(len(r.split("\t")) == 4 for r in smm_rows)
    def_rows = dump_deficiency_tables(deficiency_tables(t)).splitlines()
    assert all(len(r.split("\t")) == 4 for r in def_rows)
    assert any(r.split("\t")[3] == "INF" for r in def_rows)


def test_walking_tables_made_without_their_products_fails_in_one_line():
    """Tables made from their three fields alone equal the built ones but
    hold no products, so the walk refuses them before it reads a lane."""
    tables = deficiency_tables(path_graph(6))
    bare = DeficiencyTables(tables.tree, tables.kernel, tables.packed)
    assert bare == tables and bare.products is None
    with pytest.raises(InvariantViolation) as caught:
        reconstruct_deficiency_matching(bare, 2)
    assert "\n" not in str(caught.value) and "products" in str(caught.value)


def test_reconstruct_deficiency_spec_examples():
    p6 = path_graph(6)
    tabs = deficiency_tables(p6)
    m1 = reconstruct_deficiency_matching(tabs, 1)
    assert sum(s1_s2(p6, m1)) == 4
    m3 = reconstruct_deficiency_matching(tabs, 3)
    assert m3 == frozenset({(0, 1), (2, 3), (4, 5)})
    m2 = reconstruct_deficiency_matching(tabs, 2)
    assert sum(s1_s2(p6, m2)) == 0
