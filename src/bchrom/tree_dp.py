"""Dynamic programs on trees.

Two programs run over a tree rooted at its lowest-indexed leaf:

* the minimum strongly maximal matching (five scalar states per directed
  edge), and
* the minimum deficiency over matchings of size exactly k (seven states per
  directed edge, each a vector indexed by k).

Both tables live on directed edges (parent, child); for the edge into child
``c`` the subproblem covers the subtree hanging from ``c`` plus the parent
itself, whose matching status is part of the state.

State indices, shared by tables, dumps and reconstruction:

==  =============  ==========================================================
 0  root-free      parent unmatched; child matched into its subtree and, in
                   the scalar DP, shielded from free neighbors
 1  edge-loose     the parent-child edge is matched; parent has no free
                   neighbor elsewhere
 2  edge-strict    the parent-child edge is matched; parent has a free
                   neighbor elsewhere (scalar DP: child must have none)
 3  held-matched   parent matched elsewhere; child matched into its subtree
 4  held-free      parent matched elsewhere; child unmatched
 5  pair-free      parent and child both unmatched; parent counted here
                   (vector DP only)
 6  pair-shared    parent and child both unmatched; parent already counted
                   outside (vector DP only)
==  =============  ==========================================================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InvariantViolation, KOutOfRange, NotATree
from .graph import Edge, Graph, connected_components, induced_subgraph, is_tree, norm_edge
from .matching import Matching

INF = float("inf")

STATE_NAMES = (
    "root-free",
    "edge-loose",
    "edge-strict",
    "held-matched",
    "held-free",
    "pair-free",
    "pair-shared",
)


@dataclass(frozen=True)
class RootedTree:
    graph: Graph
    root: int
    anchor: int
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]  # children before parents; excludes the root
    subtree_size: tuple[int, ...]


def root_tree(t: Graph) -> RootedTree:
    """Root a tree at its lowest-indexed leaf; the anchor is its neighbor."""
    if not is_tree(t):
        raise NotATree("rooting requires a tree")
    if t.n < 2:
        raise NotATree("rooting requires at least two vertices")
    root = next(v for v in range(t.n) if t.degree(v) == 1)
    parent = [-1] * t.n
    seen = [False] * t.n
    seen[root] = True
    bfs = [root]
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in t.adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                bfs.append(w)
                queue.append(w)
    children: list[list[int]] = [[] for _ in range(t.n)]
    for v in bfs[1:]:
        children[parent[v]].append(v)
    order = tuple(reversed(bfs[1:]))
    size = [1] * t.n
    for v in order:
        size[parent[v]] += size[v]
    return RootedTree(
        t,
        root,
        bfs[1],
        tuple(parent),
        tuple(tuple(sorted(c)) for c in children),
        order,
        tuple(size),
    )


# ---------------------------------------------------------------------------
# Minimum strongly maximal matching (scalar tables)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmmTables:
    tree: RootedTree
    values: dict[int, tuple[float, float, float, float, float]]


def smm_tables(t: Graph) -> SmmTables:
    rt = root_tree(t)
    vals: dict[int, tuple[float, float, float, float, float]] = {}
    for v in rt.order:
        cs = rt.children[v]
        if not cs:
            vals[v] = (INF, 1, 1, INF, 0)
            continue
        fs = [vals[c] for c in cs]
        m45 = [f[3] if f[3] <= f[4] else f[4] for f in fs]
        s45 = sum(m45)
        s4 = sum(f[3] for f in fs)
        # one-distinguished minima via a left-to-right accumulation:
        # b tracks "one child already distinguished", a tracks "none yet"
        a = 0.0
        b_strict = INF  # distinguished child took edge-strict, rest min(3,4)
        a4 = 0.0
        b_loose = INF  # distinguished child took edge-loose, rest held-matched
        for f, mv in zip(fs, m45):
            b_strict = min(b_strict + mv, a + f[2])
            a += mv
            b_loose = min(b_loose + f[3], a4 + f[1])
            a4 += f[3]
        vals[v] = (b_strict, 1 + s45, 1 + s4, min(b_loose, b_strict), sum(f[0] for f in fs))
    return SmmTables(rt, vals)


def _argmin_distinguished(dists: list[float], rests: list[float]) -> tuple[int, float]:
    """Smallest index i minimizing dists[i] + sum of the other rests."""
    l = len(dists)
    suf = [0.0] * (l + 1)
    for i in range(l - 1, -1, -1):
        suf[i] = rests[i] + suf[i + 1]
    best = INF
    bi = -1
    pre = 0.0
    for i in range(l):
        val = pre + dists[i] + suf[i + 1]
        if val < best:
            best = val
            bi = i
        pre += rests[i]
    return bi, best


def reconstruct_smm(tables: SmmTables) -> Matching:
    """Witness matching achieving min over the root states 0 and 1."""
    rt = tables.tree
    vals = tables.values
    s0 = rt.anchor
    out: list[Edge] = []
    start = 0 if vals[s0][0] <= vals[s0][1] else 1
    stack: list[tuple[int, int]] = [(s0, start)]
    while stack:
        v, st = stack.pop()
        if st in (1, 2):
            out.append(norm_edge(rt.parent[v], v))
        cs = rt.children[v]
        if not cs:
            if st not in (1, 2, 4):
                raise AssertionError("infeasible leaf state in reconstruction")
            continue
        fs = [vals[c] for c in cs]
        m45 = [f[3] if f[3] <= f[4] else f[4] for f in fs]
        if st == 0:
            i, _ = _argmin_distinguished([f[2] for f in fs], m45)
            for j, c in enumerate(cs):
                if j == i:
                    stack.append((c, 2))
                else:
                    stack.append((c, 3 if fs[j][3] <= fs[j][4] else 4))
        elif st == 1:
            for j, c in enumerate(cs):
                stack.append((c, 3 if fs[j][3] <= fs[j][4] else 4))
        elif st == 2:
            for c in cs:
                stack.append((c, 3))
        elif st == 3:
            f4s = [f[3] for f in fs]
            ia, va = _argmin_distinguished([f[1] for f in fs], f4s)
            ib, vb = _argmin_distinguished([f[2] for f in fs], m45)
            if va <= vb:
                for j, c in enumerate(cs):
                    stack.append((c, 1 if j == ia else 3))
            else:
                for j, c in enumerate(cs):
                    if j == ib:
                        stack.append((c, 2))
                    else:
                        stack.append((c, 3 if fs[j][3] <= fs[j][4] else 4))
        elif st == 4:
            for c in cs:
                stack.append((c, 0))
        else:
            raise AssertionError("scalar DP has five states")
    return frozenset(out)


def min_smm_tree(t: Graph) -> tuple[int, Matching]:
    """Minimum cardinality of a strongly maximal matching, with a witness."""
    if not is_tree(t):
        raise NotATree("minimum strongly maximal matching DP requires a tree")
    if t.n == 1:
        return 0, frozenset()
    if t.n == 2:
        return 1, frozenset({(0, 1)})
    tables = smm_tables(t)
    f = tables.values[tables.tree.anchor]
    best = min(f[0], f[1])
    witness = reconstruct_smm(tables)
    if len(witness) != best:
        raise AssertionError("witness size disagrees with DP value")
    return int(best), witness


def min_smm_forest(g: Graph) -> tuple[int, Matching]:
    """Per-component minimum; augmenting paths never cross components."""
    if g.m != g.n - len(connected_components(g)):
        raise NotATree("input is not a forest")
    total = 0
    edges: set[Edge] = set()
    for comp in connected_components(g):
        sub = induced_subgraph(g, comp)
        size, mm = min_smm_tree(sub)
        total += size
        edges.update(norm_edge(comp[u], comp[v]) for u, v in mm)
    return total, frozenset(edges)


# ---------------------------------------------------------------------------
# Min-plus vector combination (the knapsack-style child merge)
# ---------------------------------------------------------------------------


def minplus_convolve(a: list[float], b: list[float], cap: int | None = None) -> list[float]:
    """h[k] = min over i+j=k of a[i]+b[j], truncated at cap."""
    top = len(a) + len(b) - 2
    if cap is not None:
        top = min(top, cap)
    out = [INF] * (top + 1)
    for i, ai in enumerate(a):
        if ai == INF or i > top:
            continue
        lim = min(len(b) - 1, top - i)
        for j in range(lim + 1):
            s = ai + b[j]
            if s < out[i + j]:
                out[i + j] = s
    return out


def combine_all(children: list[list[float]], cap: int | None = None) -> list[float]:
    """Min-cost way to split a total k across all children; the empty list
    combines to cost zero at k=0."""
    acc: list[float] = [0]
    for vec in children:
        acc = minplus_convolve(acc, vec, cap)
    return acc


def combine_one_distinguished(
    dists: list[list[float]], rests: list[list[float]], cap: int | None = None
) -> list[float]:
    """Like combine_all over ``rests``, except exactly one child (any one)
    contributes its ``dists`` vector instead."""
    none_yet: list[float] = [0]
    done: list[float] = [INF]
    for dv, rv in zip(dists, rests):
        with_new = minplus_convolve(none_yet, dv, cap)
        done = minplus_convolve(done, rv, cap)
        for k in range(min(len(done), len(with_new))):
            if with_new[k] < done[k]:
                done[k] = with_new[k]
        if len(with_new) > len(done):
            done.extend(with_new[len(done):])
        none_yet = minplus_convolve(none_yet, rv, cap)
    return done


def _vec_min(a: list[float], b: list[float]) -> list[float]:
    n = max(len(a), len(b))
    out = [INF] * n
    for i in range(n):
        x = a[i] if i < len(a) else INF
        y = b[i] if i < len(b) else INF
        out[i] = x if x <= y else y
    return out


def _vec_shift_add(vec: list[float], add: float, cap: int, shift: int = 0) -> list[float]:
    out = [INF] * (cap + 1)
    for i, x in enumerate(vec):
        k = i + shift
        if k > cap:
            break
        if x != INF:
            out[k] = x + add
    return out


# ---------------------------------------------------------------------------
# Deficiency DP: minimum of the two deficiency counts at exact size k
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeficiencyTables:
    tree: RootedTree
    k_cap: int
    values: dict[int, tuple[list[float], ...]]


def deficiency_tables(t: Graph, k_cap: int | None = None) -> DeficiencyTables:
    rt = root_tree(t)
    cap_all = t.n // 2 if k_cap is None else min(k_cap, t.n // 2)
    vals: dict[int, tuple[list[float], ...]] = {}
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
        f2 = _vec_shift_add(c45, 0, cap, shift=1)
        f3 = _vec_min(
            _vec_shift_add(c4, 0, cap, shift=1), _vec_shift_add(c45, 1, cap, shift=1)
        )
        f4 = _vec_min(combine_one_distinguished([f[1] for f in fs], f4s, cap), f1)
        f5 = _vec_min(
            _vec_min(
                combine_all(f1s, cap),
                combine_one_distinguished([f[5] for f in fs], f1s, cap),
            ),
            _vec_shift_add(c17, 1, cap),
        )
        f6 = _vec_shift_add(c17, 2, cap)
        f7 = _vec_shift_add(c17, 1, cap)

        def fit(vec: list[float]) -> list[float]:
            vec = vec[: cap + 1]
            return vec + [INF] * (cap + 1 - len(vec))

        vals[v] = tuple(fit(x) for x in (f1, f2, f3, f4, f5, f6, f7))
    return DeficiencyTables(rt, cap_all, vals)


def deficiency_vector(t: Graph) -> list[float]:
    """F-values for every matching size k = 0..floor(n/2); the entry is the
    infinity sentinel where no size-k matching exists."""
    if not is_tree(t):
        raise NotATree("deficiency DP requires a tree")
    if t.n == 1:
        return [0]
    tables = deficiency_tables(t)
    return [_root_minimum(tables, k) for k in range(t.n // 2 + 1)]


def _root_minimum(tables: DeficiencyTables, k: int) -> float:
    """The F-value at matching size k: the best root state of the tables."""
    f = tables.values[tables.tree.anchor]
    return min(vec[k] if k < len(vec) else INF for vec in (f[0], f[1], f[5]))


def f_tree_k(t: Graph, k: int) -> float:
    """Minimum deficiency over matchings of size exactly k (infinity when no
    size-k matching exists)."""
    if not is_tree(t):
        raise NotATree("deficiency DP requires a tree")
    if not (0 <= k <= t.n // 2):
        raise KOutOfRange(f"k={k} outside 0..{t.n // 2}")
    vec = deficiency_vector(t)
    val = vec[k]
    return val if val == INF else int(val)


# ---------------------------------------------------------------------------
# Witness reconstruction for the deficiency DP
# ---------------------------------------------------------------------------


def _split_all(child_vecs: list[list[float]], k: int, target: float) -> list[int]:
    """Deterministic per-child sizes summing to k achieving the target cost;
    each child takes the smallest feasible share."""
    sufs: list[list[float]] = [[0]]
    for vec in reversed(child_vecs):
        sufs.append(minplus_convolve(vec, sufs[-1], k))
    sufs.reverse()
    ks = []
    rem_k, rem_val = k, target
    for i, vec in enumerate(child_vecs):
        nxt = sufs[i + 1]
        for ki in range(min(rem_k, len(vec) - 1) + 1):
            need = rem_k - ki
            if (
                vec[ki] != INF
                and need < len(nxt)
                and nxt[need] != INF
                and vec[ki] + nxt[need] == rem_val
            ):
                ks.append(ki)
                rem_k, rem_val = need, nxt[need]
                break
        else:
            raise AssertionError("split reconstruction failed")
    return ks


def _split_one_distinguished(
    dists: list[list[float]], rests: list[list[float]], k: int, target: float
) -> tuple[int, list[int]]:
    for i in range(len(dists)):
        seq = rests[:i] + [dists[i]] + rests[i + 1 :]
        try:
            ks = _split_all(seq, k, target)
            return i, ks
        except AssertionError:
            continue
    raise AssertionError("no distinguished child achieves the target")


def reconstruct_deficiency_matching(tables: DeficiencyTables, k: int) -> Matching:
    """Size-k matching whose deficiency equals the DP value at k."""
    rt = tables.tree
    vals = tables.values
    s0 = rt.anchor
    root = vals[s0]
    candidates = [(root[0], 0), (root[1], 1), (root[5], 5)]
    start = None
    best = INF
    for vec, st in candidates:
        v = vec[k] if k < len(vec) else INF
        if v < best:
            best = v
            start = st
    if start is None or best == INF:
        raise KOutOfRange(f"no matching of size {k} exists")
    out: list[Edge] = []
    stack: list[tuple[int, int, int]] = [(s0, start, k)]
    while stack:
        v, st, kv = stack.pop()
        cs = rt.children[v]
        fs = [vals[c] for c in cs]
        target = vals[v][st][kv]
        if st in (1, 2):
            out.append(norm_edge(rt.parent[v], v))
        if not cs:
            if kv != (1 if st in (1, 2) else 0) or st in (0, 3):
                raise InvariantViolation(f"leaf {v} reconstructed in state {st} with {kv} edges")
            continue
        m45 = [_vec_min(f[3], f[4]) for f in fs]
        m17 = [_vec_min(f[0], f[6]) for f in fs]
        f4s = [f[3] for f in fs]
        f1s = [f[0] for f in fs]

        def push_pointwise(ks: list[int], first: int, second: int) -> None:
            for c, f, kc in zip(cs, fs, ks):
                pick = first if f[first][kc] <= f[second][kc] else second
                stack.append((c, pick, kc))

        if st == 0:
            i, ks = _split_one_distinguished([f[2] for f in fs], m45, kv, target)
            for j, (c, f) in enumerate(zip(cs, fs)):
                if j == i:
                    stack.append((c, 2, ks[j]))
                else:
                    pick = 3 if f[3][ks[j]] <= f[4][ks[j]] else 4
                    stack.append((c, pick, ks[j]))
        elif st == 1:
            ks = _split_all(m45, kv - 1, target)
            push_pointwise(ks, 3, 4)
        elif st == 2:
            strict = combine_all(f4s, kv - 1)
            if kv - 1 < len(strict) and strict[kv - 1] == target:
                ks = _split_all(f4s, kv - 1, target)
                for c, kc in zip(cs, ks):
                    stack.append((c, 3, kc))
            else:
                ks = _split_all(m45, kv - 1, target - 1)
                push_pointwise(ks, 3, 4)
        elif st == 3:
            loose = combine_one_distinguished([f[1] for f in fs], f4s, kv)
            if kv < len(loose) and loose[kv] == target:
                i, ks = _split_one_distinguished([f[1] for f in fs], f4s, kv, target)
                for j, c in enumerate(cs):
                    stack.append((c, 1 if j == i else 3, ks[j]))
            else:
                i, ks = _split_one_distinguished([f[2] for f in fs], m45, kv, target)
                for j, (c, f) in enumerate(zip(cs, fs)):
                    if j == i:
                        stack.append((c, 2, ks[j]))
                    else:
                        pick = 3 if f[3][ks[j]] <= f[4][ks[j]] else 4
                        stack.append((c, pick, ks[j]))
        elif st == 4:
            allm = combine_all(f1s, kv)
            if kv < len(allm) and allm[kv] == target:
                ks = _split_all(f1s, kv, target)
                for c, kc in zip(cs, ks):
                    stack.append((c, 0, kc))
            else:
                onefree = combine_one_distinguished([f[5] for f in fs], f1s, kv)
                if kv < len(onefree) and onefree[kv] == target:
                    i, ks = _split_one_distinguished([f[5] for f in fs], f1s, kv, target)
                    for j, c in enumerate(cs):
                        stack.append((c, 5 if j == i else 0, ks[j]))
                else:
                    ks = _split_all(m17, kv, target - 1)
                    push_pointwise(ks, 0, 6)
        elif st == 5:
            ks = _split_all(m17, kv, target - 2)
            push_pointwise(ks, 0, 6)
        elif st == 6:
            ks = _split_all(m17, kv, target - 1)
            push_pointwise(ks, 0, 6)
        else:
            raise AssertionError("vector DP has seven states")
    matching = frozenset(out)
    if len(matching) != k:
        raise AssertionError("reconstructed matching has the wrong size")
    return matching


def deficiency_matching(t: Graph, k: int) -> tuple[float, Matching]:
    """DP value at k plus a witness matching attaining it."""
    if not is_tree(t):
        raise NotATree("deficiency DP requires a tree")
    if t.n == 1:
        if k != 0:
            raise KOutOfRange("single vertex admits only the empty matching")
        return 0, frozenset()
    if not (0 <= k <= t.n // 2):
        raise KOutOfRange(f"k={k} outside 0..{t.n // 2}")
    tables = deficiency_tables(t)
    val = _root_minimum(tables, k)
    if val == INF:
        raise KOutOfRange(f"no matching of size {k} exists")
    return int(val), reconstruct_deficiency_matching(tables, k)


# ---------------------------------------------------------------------------
# Table dumps (CLI --dump-tables)
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return "INF" if x == INF else str(int(x))


def dump_smm_tables(tables: SmmTables) -> str:
    rows = []
    rt = tables.tree
    for v in sorted(tables.values):
        f = tables.values[v]
        for st in range(5):
            rows.append(f"{rt.parent[v]}-{v}\t{STATE_NAMES[st]}\t-\t{_fmt(f[st])}")
    return "\n".join(rows)


def dump_deficiency_tables(tables: DeficiencyTables) -> str:
    rows = []
    rt = tables.tree
    for v in sorted(tables.values):
        f = tables.values[v]
        for st in range(7):
            for k, val in enumerate(f[st]):
                rows.append(
                    f"{rt.parent[v]}-{v}\t{STATE_NAMES[st]}\t{k}\t{_fmt(val)}"
                )
    return "\n".join(rows)
