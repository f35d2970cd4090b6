"""Dominance vectors and b-chromatic numbers for trees, co-trees and
tree-cographs.

``dom[t]`` is the maximum number of color classes admitting a dominating
vertex over all proper colorings with exactly t classes.  A b-coloring with
t colors exists iff ``dom[t] = t``; the b-chromatic number is the largest
fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    BudgetExceeded,
    KOutOfRange,
    NotACoTree,
    NotATree,
    RangeError,
    WindowEmpty,
)
from .graph import (
    CoTreeLeaf,
    Graph,
    TcExpr,
    TcJoin,
    TcUnion,
    TreeLeaf,
    _fold,
    complement,
    is_tree,
    m_degree_bound,
)
from .tree_dp import INF, deficiency_vector

SEARCH_BUDGET = 10**6


@dataclass(frozen=True)
class DominanceVector:
    chi: int
    values: tuple[int, ...]  # values[j] = dom[chi + j], up to t = n

    def __post_init__(self) -> None:
        if not self.values or self.values[0] != self.chi:
            raise ValueError("dominance at the chromatic number must equal it")
        for j, v in enumerate(self.values):
            if not 0 <= v <= self.chi + j:
                raise ValueError("dominance entries lie between 0 and t")

    @property
    def n(self) -> int:
        return self.chi + len(self.values) - 1

    def value_at(self, t: int) -> int:
        if t > self.n:
            return 0
        if t < self.chi:
            raise RangeError(f"dominance undefined below the chromatic number {self.chi}")
        return self.values[t - self.chi]

    def fixed_points(self) -> list[int]:
        return [t for t in range(self.chi, self.n + 1) if self.value_at(t) == t]

    def b_chromatic(self) -> int:
        return max(self.fixed_points())


@dataclass(frozen=True)
class PivotReport:
    m_value: int
    dense: frozenset[int]
    pivot: int | None


def find_pivot(t: Graph) -> PivotReport:
    """Scan for the distinguished non-dense vertex that forces the b-chromatic
    number of a tree one below its degree bound."""
    if not is_tree(t):
        raise NotATree("pivot search requires a tree")
    m = m_degree_bound(t)
    dense = frozenset(v for v in range(t.n) if t.degree(v) >= m - 1)
    pivot = None
    if len(dense) == m:
        for v in range(t.n):
            if v in dense:
                continue
            near = set(t.adj[v])
            ok = all(
                d in near or any(x in dense and x in near for x in t.adj[d])
                for d in dense
            )
            if not ok:
                continue
            for d in dense & near:
                if any(x in dense for x in t.adj[d]) and t.degree(d) != m - 1:
                    ok = False
                    break
            if ok:
                pivot = v
                break
    return PivotReport(m, dense, pivot)


def b_chromatic_tree(t: Graph) -> int:
    if not is_tree(t) or t.n < 2:
        raise NotATree("b-chromatic formula needs a tree on >= 2 vertices")
    rep = find_pivot(t)
    return rep.m_value - 1 if rep.pivot is not None else rep.m_value


def dominance_vector_tree(t: Graph) -> DominanceVector:
    """Assemble the vector from its four regimes: the identity up to the
    b-chromatic number, one dip at the degree bound for pivoted trees, the
    degree counts up to max degree + 1, and zero beyond."""
    if not is_tree(t) or t.n < 2:
        raise NotATree("tree dominance needs a tree on >= 2 vertices")
    rep = find_pivot(t)
    m = rep.m_value
    delta = t.max_degree()
    chi_b = m - 1 if rep.pivot is not None else m
    # at_least[d]: number of vertices of degree at least d
    at_least = [0] * (delta + 2)
    for nbrs in t.adj:
        at_least[len(nbrs)] += 1
    for d in range(delta - 1, -1, -1):
        at_least[d] += at_least[d + 1]
    values = []
    for i in range(2, t.n + 1):
        if i <= chi_b:
            values.append(i)
        elif rep.pivot is not None and i == m:
            values.append(m - 1)
        elif i <= delta + 1:
            values.append(at_least[i - 1])
        else:
            values.append(0)
    return DominanceVector(2, tuple(values))


# ---------------------------------------------------------------------------
# Constructive tree colorings with a prescribed dominant-class count
# ---------------------------------------------------------------------------


def _greedy_extend(t: Graph, color: list[int], k: int) -> None:
    """Fill uncolored vertices properly; trees always leave a color free."""
    from collections import deque

    todo = deque(v for v in range(t.n) if color[v] == -1)
    while todo:
        v = todo.popleft()
        used = {color[w] for w in t.adj[v] if color[w] != -1}
        for c in range(k):
            if c not in used:
                color[v] = c
                break
        else:
            raise AssertionError("greedy extension failed on a tree")


def _demand_csp(
    t: Graph, k: int, color: list[int], witnesses: list[int], budget: list[int]
) -> bool:
    """Backtracking search finishing ``color`` so every witness sees every
    other class among its neighbors.  Mutates ``color``; True on success."""
    need: dict[int, set[int]] = {}
    for w in witnesses:
        seen = {color[x] for x in t.adj[w] if color[x] != -1}
        need[w] = set(range(k)) - {color[w]} - seen
    frontier = sorted(
        {v for w in witnesses for v in t.adj[w] if color[v] == -1}
    )
    rest = [v for v in range(t.n) if color[v] == -1 and v not in set(frontier)]
    order = frontier + rest

    def feasible() -> bool:
        for w in witnesses:
            open_slots = sum(1 for x in t.adj[w] if color[x] == -1)
            if len(need[w]) > open_slots:
                return False
        return True

    def assign(i: int) -> bool:
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded("coloring search budget exhausted")
        if i == len(order):
            return all(not need[w] for w in witnesses)
        v = order[i]
        blocked = {color[x] for x in t.adj[v] if color[x] != -1}
        wanted = [c for w in witnesses if v in t.nbr_sets[w] for c in sorted(need[w])]
        trial = list(dict.fromkeys(wanted)) + [
            c for c in range(k) if c not in wanted
        ]
        for c in trial:
            if c in blocked:
                continue
            color[v] = c
            touched = [w for w in witnesses if v in t.nbr_sets[w] and c in need[w]]
            for w in touched:
                need[w].discard(c)
            if feasible() and assign(i + 1):
                return True
            for w in touched:
                need[w].add(c)
            color[v] = -1
        return False

    return assign(0)


def _search_b_coloring(t: Graph, k: int, budget: list[int]) -> list[int]:
    """A proper k-coloring where every class has a dominating vertex."""
    if k == 2:
        color = [-1] * t.n
        color[0] = 0
        _greedy_extend(t, color, 2)
        return color
    candidates = sorted(
        (v for v in range(t.n) if t.degree(v) >= k - 1),
        key=lambda v: (-t.degree(v), v),
    )
    for wset in combinations(candidates, k):
        color = [-1] * t.n
        ws = sorted(wset)
        for i, w in enumerate(ws):
            color[w] = i
        if any(color[u] == color[v] for u, v in t.edges if color[u] != -1 and color[v] != -1):
            continue
        if _demand_csp(t, k, color, ws, budget):
            _greedy_extend(t, color, k)
            return color
    raise AssertionError("no witness set admits a b-coloring at a feasible k")


def _pivot_recipe(t: Graph, rep: PivotReport, budget: list[int]) -> list[int]:
    """Coloring a pivoted tree with m colors: the pivot and one dense vertex
    at distance two share a color, their common dense neighbor is the one
    class without a dominating vertex."""
    m = rep.m_value
    v = rep.pivot
    assert v is not None
    dense = sorted(rep.dense)
    pick = None
    for c in sorted(set(t.adj[v]) & rep.dense):
        for w in sorted(set(t.adj[c]) & rep.dense):
            if w != v and not t.has_edge(v, w):
                pick = (w, c)
                break
        if pick:
            break
    assert pick is not None, "pivoted trees have a dense vertex at distance two"
    w, c = pick
    color = [-1] * t.n
    color[v] = 0
    color[w] = 0
    nxt = 1
    for d in dense:
        if d != w:
            color[d] = nxt
            nxt += 1
    witnesses = [d for d in dense if d != c]
    if not _demand_csp(t, m, color, witnesses, budget):
        raise AssertionError("pivot recipe demands were unsatisfiable")
    _greedy_extend(t, color, m)
    return color


def _sparse_three_coloring(t: Graph) -> list[int]:
    """Trees whose degree bound is two are stars or double brooms; color with
    three classes so exactly the internal vertices dominate."""
    internal = [v for v in range(t.n) if t.degree(v) >= 2]
    color = [-1] * t.n
    if len(internal) == 1:
        c = internal[0]
        leaves = list(t.adj[c])
        color[c] = 0
        color[leaves[0]] = 1
        color[leaves[1]] = 2
        for x in leaves[2:]:
            color[x] = 1
    else:
        a, b = internal
        color[a] = 0
        color[b] = 1
        la = [x for x in t.adj[a] if x != b]
        lb = [x for x in t.adj[b] if x != a]
        color[la[0]] = 2
        for x in la[1:]:
            color[x] = 1
        color[lb[0]] = 2
        for x in lb[1:]:
            color[x] = 0
    return color


def _padded_tree_coloring(t: Graph, k: int, budget: list[int]) -> list[int]:
    """For degree-bound < k <= max degree + 1 (k >= 4): graft a caterpillar
    onto a leaf so the combined tree has exactly k dense vertices and degree
    bound k, b-color it, then drop the grafted part."""
    kk = sum(1 for v in range(t.n) if t.degree(v) >= k - 1)
    h = next(v for v in range(t.n) if t.degree(v) == 1)
    edges = list(t.edges)
    nid = t.n
    spine = []
    for _ in range(k - kk + 3):  # x, y, hubs..., z
        spine.append(nid)
        nid += 1
    edges.append((h, spine[0]))
    for i in range(len(spine) - 1):
        edges.append((spine[i], spine[i + 1]))
    for hub in spine[2:-1]:
        for _ in range(k - 3):
            edges.append((hub, nid))
            nid += 1
    big = Graph.from_edges(nid, edges)
    color_big = _search_b_coloring(big, k, budget)
    color = color_big[: t.n]
    # renumber so classes on the original tree stay 0..k-1 and nonempty
    present = sorted(set(color))
    if len(present) != k:
        raise AssertionError("padded coloring lost a class on restriction")
    return color


def _exact_dominants_search(t: Graph, k: int, target: int, budget: list[int]) -> list[int]:
    """Last-resort exhaustive scan for a k-class coloring with exactly the
    target number of dominant classes."""
    from .oracle import OracleBudget, _Counter, _dominant_count, _scan_colorings

    counter = _Counter(budget[0])
    found: list[list[int] | None] = [None]

    def visit(masks: list[int]) -> None:
        if found[0] is not None or len(masks) != k:
            return
        if _dominant_count(t, masks) == target:
            color = [-1] * t.n
            for c, mask in enumerate(masks):
                for v in range(t.n):
                    if (mask >> v) & 1:
                        color[v] = c
            found[0] = color

    _scan_colorings(t, counter, visit)
    budget[0] = counter.left
    if found[0] is None:
        raise AssertionError("no coloring attains the predicted dominant count")
    return found[0]


def b_coloring_tree(t: Graph, k: int, budget: int = SEARCH_BUDGET) -> "Coloring":
    """A proper k-coloring of a tree with exactly ``dom[k]`` dominant classes."""
    from .bcoloring import Coloring, verify_coloring

    if not is_tree(t) or t.n < 2:
        raise NotATree("tree b-coloring needs a tree on >= 2 vertices")
    if not (2 <= k <= t.n):
        raise KOutOfRange(f"k={k} outside 2..{t.n}")
    dv = dominance_vector_tree(t)
    target = dv.value_at(k)
    rep = find_pivot(t)
    m = rep.m_value
    delta = t.max_degree()
    chi_b = m - 1 if rep.pivot is not None else m
    state = [budget]
    try:
        if k > delta + 1:
            color = [-1] * t.n
            color[0] = 0
            _greedy_extend(t, color, 2)
            # split classes until k are in use; properness is preserved
            nxt = 2
            for v in range(t.n):
                if nxt >= k:
                    break
                cls = [w for w in range(t.n) if color[w] == color[v]]
                if len(cls) > 1:
                    color[v] = nxt
                    nxt += 1
            if nxt < k:
                raise AssertionError("not enough vertices to populate k classes")
        elif k <= chi_b:
            color = _search_b_coloring(t, k, state)
        elif rep.pivot is not None and k == m:
            color = _pivot_recipe(t, rep, state)
        elif k == 3 and m == 2:
            color = _sparse_three_coloring(t)
        else:
            color = _padded_tree_coloring(t, k, state)
    except AssertionError:
        color = _exact_dominants_search(t, k, target, state)
    coloring = Coloring(tuple(color), k)
    verdict = verify_coloring(t, coloring)
    if len(verdict.dominant_classes) != target:
        coloring = Coloring(tuple(_exact_dominants_search(t, k, target, state)), k)
        verdict = verify_coloring(t, coloring)
        if len(verdict.dominant_classes) != target:
            raise AssertionError("constructed coloring misses the dominance target")
    return coloring


# ---------------------------------------------------------------------------
# Co-trees and tree-cograph composition
# ---------------------------------------------------------------------------


def _cotree_dominance_from_tree(t: Graph) -> DominanceVector:
    """Dominance of the complement of t, via the deficiency DP on t."""
    if t.n == 1:
        return DominanceVector(1, (1,))
    fvec = deficiency_vector(t)
    nu = max(k for k, val in enumerate(fvec) if val != INF)
    chi = t.n - nu
    values = tuple(int(i - fvec[t.n - i]) for i in range(chi, t.n + 1))
    return DominanceVector(chi, values)


def dominance_vector_cotree(ct: Graph, t: Graph | None = None) -> DominanceVector:
    """Dominance vector of a co-tree; classes of a coloring of ct correspond
    to matchings of the underlying tree, missing dominance equals the
    deficiency of the matched size."""
    under = complement(ct) if t is None else t
    if not is_tree(under) or complement(ct) != under:
        raise NotACoTree("input must be the complement of a tree")
    return _cotree_dominance_from_tree(under)


def dominance_union(
    a: DominanceVector, b: DominanceVector, na: int, nb: int
) -> DominanceVector:
    if na != a.n or nb != b.n:
        raise RangeError("operand sizes disagree with their vectors")
    chi = max(a.chi, b.chi)
    values = tuple(
        min(t, a.value_at(t) + b.value_at(t)) for t in range(chi, na + nb + 1)
    )
    return DominanceVector(chi, values)


def dominance_join(
    a: DominanceVector, b: DominanceVector, na: int, nb: int
) -> DominanceVector:
    if na != a.n or nb != b.n:
        raise RangeError("operand sizes disagree with their vectors")
    chi = a.chi + b.chi
    values = []
    for t in range(chi, na + nb + 1):
        lo = max(a.chi, t - nb)
        hi = min(na, t - b.chi)
        if lo > hi:
            raise WindowEmpty(f"empty join window at t={t}")
        values.append(max(a.value_at(j) + b.value_at(t - j) for j in range(lo, hi + 1)))
    return DominanceVector(chi, tuple(values))


def _leaf_dominance(leaf: TreeLeaf | CoTreeLeaf) -> DominanceVector:
    if isinstance(leaf, CoTreeLeaf):
        return _cotree_dominance_from_tree(leaf.tree)
    if leaf.tree.n == 1:
        return DominanceVector(1, (1,))
    return dominance_vector_tree(leaf.tree)


def _compose(node: TcUnion | TcJoin, vecs: list[DominanceVector]) -> DominanceVector:
    combine = dominance_union if isinstance(node, TcUnion) else dominance_join
    acc, n_acc = vecs[0], node.children[0].span
    for vec, child in zip(vecs[1:], node.children[1:]):
        acc = combine(acc, vec, n_acc, child.span)
        n_acc += child.span
    return acc


def dominance_tc(e: TcExpr) -> DominanceVector:
    return _fold(e, _leaf_dominance, _compose)


def b_chromatic_tc(e: TcExpr) -> int:
    return dominance_tc(e).b_chromatic()


def _leaf_chromatic(leaf: TreeLeaf | CoTreeLeaf) -> int:
    if isinstance(leaf, CoTreeLeaf):
        return _cotree_dominance_from_tree(leaf.tree).chi
    return 1 if leaf.tree.n == 1 else 2


def chromatic_tc(e: TcExpr) -> int:
    return _fold(
        e,
        _leaf_chromatic,
        lambda node, chis: max(chis) if isinstance(node, TcUnion) else sum(chis),
    )
