"""Dominance vectors and b-chromatic numbers for trees, co-trees and
tree-cographs.

``dom[t]`` is the maximum number of color classes admitting a dominating
vertex over all proper colorings with exactly t classes.  A b-coloring with
t colors exists iff ``dom[t] = t``; the b-chromatic number is the largest
fixed point.  Tree-cograph composition works on whole value lists: a union
is one pointwise pass, and a join runs on ``tree_dp.minplus_convolve``.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, compress, count, repeat
from operator import le

from .errors import InvariantViolation, KOutOfRange, NotATree, RangeError
from .graph import Graph, TcExpr, TcLeaf, TcUnion, _fold, _Record, is_tree, m_degree_bound
from .tree_dp import INF, RootedTree, deficiency_vector, minplus_convolve, root_tree


class DominanceVector(_Record):
    _fields = ("chi", "values")
    chi: int
    values: tuple[int, ...]  # values[j] = dom[chi + j], up to t = n

    def __init__(self, chi: int, values: tuple[int, ...]) -> None:
        if not values or values[0] != chi:
            raise ValueError("dominance at the chromatic number must equal it")
        if not (min(values) >= 0 and all(map(le, values, count(chi)))):
            raise ValueError("dominance entries lie between 0 and t")
        d = self.__dict__
        d["chi"], d["values"] = chi, values

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


class PivotReport(_Record):
    _fields = ("m_value", "dense", "pivot")
    m_value: int
    dense: frozenset[int]
    pivot: int | None

    def __init__(self, m_value: int, dense: frozenset[int], pivot: int | None) -> None:
        d = self.__dict__
        d["m_value"], d["dense"], d["pivot"] = m_value, dense, pivot

    @property
    def b_chromatic(self) -> int:
        return self.m_value - 1 if self.pivot is not None else self.m_value


def find_pivot(t: Graph) -> PivotReport:
    """Scan for the distinguished non-dense vertex that forces the b-chromatic
    number of a tree one below its degree bound."""
    if not is_tree(t):
        raise NotATree("pivot search requires a tree")
    m = m_degree_bound(t)
    deg = t.degrees
    dense = frozenset(compress(count(), map(le, repeat(m - 1), deg)))
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
                if any(x in dense for x in t.adj[d]) and deg[d] != m - 1:
                    ok = False
                    break
            if ok:
                pivot = v
                break
    return PivotReport(m, dense, pivot)


def b_chromatic_tree(t: Graph) -> int:
    if not is_tree(t) or t.n < 2:
        raise NotATree("b-chromatic formula needs a tree on >= 2 vertices")
    return find_pivot(t).b_chromatic


def dominance_vector_tree(t: Graph) -> DominanceVector:
    """Assemble the vector from its four regimes: the identity up to the
    b-chromatic number, one dip at the degree bound for pivoted trees, the
    degree counts up to max degree + 1, and zero beyond."""
    if not is_tree(t) or t.n < 2:
        raise NotATree("tree dominance needs a tree on >= 2 vertices")
    rep = find_pivot(t)
    m = rep.m_value
    delta = t.max_degree()
    chi_b = rep.b_chromatic
    # at_least[d]: number of vertices of degree at least d, for d <= delta + 1
    at_least = [0] * (delta + 2)
    for d in t.degrees:
        at_least[d] += 1
    at_least = list(accumulate(reversed(at_least)))[::-1]
    # values[i - 2] = dom[i] for i = 2..n; after the identity and the dip,
    # i = len(values) + 2 is next, and it reads at_least[i - 1]
    values = list(range(2, chi_b + 1))
    if rep.pivot is not None:
        values.append(m - 1)
    values += at_least[len(values) + 1 : delta + 1]
    values += [0] * (t.n - 1 - len(values))
    return DominanceVector(2, tuple(values))


# ---------------------------------------------------------------------------
# Constructive tree colorings with a prescribed dominant-class count
# ---------------------------------------------------------------------------


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _alternating_search(
    e: int, options: list[int], taken: list[int]
) -> tuple[int, int, dict[int, tuple[int, int]]]:
    """Breadth-first search along alternating paths from the free color e.

    Returns an unmatched option and the color it was reached from (-1, -1
    when none is reachable), and for each color reached the color before it
    on its path and the option holding it."""
    back = {e: (-1, -1)}
    queue = [e]
    rest = list(range(len(options)))
    for c in queue:
        bit = 1 << c
        left = []
        for i in rest:
            if not options[i] & bit:
                left.append(i)
            elif taken[i] < 0:
                return i, c, back
            else:
                back[taken[i]] = (c, i)
                queue.append(taken[i])
        rest = left
    return -1, -1, back


def _cover(need: int, options: list[int]) -> tuple[list[int], int]:
    """A maximum matching of the colors in ``need`` into distinct options,
    each option a mask of the colors it may take: the color each option
    takes (-1 for none) and the mask of colors left uncovered.  A greedy
    pass, then one augmenting-path search per color it left free."""
    taken = [-1] * len(options)
    free = need
    for i, opt in enumerate(options):
        avail = opt & free
        if avail:
            c = _lowest(avail)
            taken[i] = c
            free ^= 1 << c
    short = 0
    while free:
        e = _lowest(free)
        free ^= 1 << e
        i, c, back = _alternating_search(e, options, taken)
        if i < 0:
            short |= 1 << e
            continue
        while i >= 0:  # flip the path: each option takes the color it was reached from
            taken[i] = c
            c, i = back[c]
    return taken, short


def _complete(rt: RootedTree, wcolor: list[int], k: int) -> list[int] | None:
    """Color the tree so that each witness (``wcolor[v] >= 0``) wears its
    color and sees every other color, or None when no such coloring exists.

    Bottom-up, ``acc[v]`` is the mask of parent colors under which v's
    subtree can be completed.  A free vertex may take the colors in
    ``feas[v]``, those every child accepts.  For a witness, ``feas[v]`` is
    the mask of colors its free children must cover; a parent color is
    accepted when the rest can be matched into those children.  Top-down
    repeats each witness's matching without its parent's color."""
    full = (1 << k) - 1
    acc = [0] * rt.graph.n
    feas = [0] * rt.graph.n
    for v in rt.order + (rt.root,):
        c = wcolor[v]
        if c < 0:
            f = full
            for u in rt.children[v]:
                f &= acc[u]
            feas[v] = f
            acc[v] = full if f & (f - 1) else full ^ f if f else 0
        else:
            bit = 1 << c
            need = full ^ bit
            free = []
            for u in rt.children[v]:
                if not acc[u] & bit:
                    return None
                if wcolor[u] < 0:
                    free.append(u)
                else:
                    need &= ~(1 << wcolor[u])
            feas[v] = need
            options = [feas[u] & need for u in free]
            taken, short = _cover(need, options)
            if not short:
                acc[v] = full ^ bit
            elif not short & (short - 1):
                # one color short: the parent must wear a color that some
                # maximum matching leaves free
                _, _, back = _alternating_search(_lowest(short), options, taken)
                acc[v] = sum(1 << d for d in back)
        if not acc[v]:
            return None
    color = list(wcolor)
    if color[rt.root] < 0:
        color[rt.root] = _lowest(feas[rt.root])
    for v in (rt.root,) + rt.order[::-1]:
        bit = 1 << color[v]
        free = [u for u in rt.children[v] if wcolor[u] < 0]
        if wcolor[v] >= 0:
            need = feas[v]
            if v != rt.root:
                need &= ~(1 << color[rt.parent[v]])
            taken, short = _cover(need, [feas[u] & need for u in free])
            if short:  # only the root, which has no parent to cover a color
                return None
            for u, d in zip(free, taken):
                color[u] = d if d >= 0 else _lowest(feas[u] & ~bit)
        else:
            for u in free:
                color[u] = _lowest(feas[u] & ~bit)
    return color


def _dominating_coloring(rt: RootedTree, k: int, target: int) -> list[int]:
    t = rt.graph
    deg = list(t.degrees)
    dense = sum(d >= k - 1 for d in deg)
    for v in rt.order:  # children first, so each is a leaf when dropped
        if dense <= target + 1:
            break
        p = rt.parent[v]
        dense -= (deg[v] >= k - 1) + (deg[p] == k - 1)
        deg[p] -= 1
        deg[v] = 0
    dense_core = [v for v in range(t.n) if deg[v] >= k - 1]
    if len(dense_core) == target:
        tries = [dense_core]
    else:
        tries = [dense_core[:i] + dense_core[i + 1 :] for i in range(len(dense_core))]
    for wset in tries:
        wcolor = [-1] * t.n
        for c, w in enumerate(wset):
            wcolor[w] = c
        color = _complete(rt, wcolor, k)
        if color is not None:
            return color
    raise InvariantViolation(f"no witness set of {target} dense vertices completes at k={k}")


def b_coloring_tree(t: Graph, k: int, target: int | None = None) -> "Coloring":
    """A proper k-coloring of a tree with exactly ``dom[k]`` dominant classes;
    ``target`` is dom[k] when the caller knows it, else it is read off the
    tree's dominance vector.

    Above max degree + 1 no class can dominate: a 2-coloring by depth with
    k - 2 vertices moved into classes of their own.  Otherwise the
    construction is exact for four reasons:

    1. Witnesses lie in D, the vertices of degree at least k - 1, since a
       dominating vertex sees the k - 1 other classes.
    2. Pruning keeps a solution.  Leaves are dropped, deepest first, only
       while D has more than dom[k] + 1 vertices, which happens only at
       dom[k] = k <= chi_b.  The remaining core keeps k + 1 vertices of
       degree at least k - 1, so it is not pivoted and by Irving & Manlove
       (1999) and the b-continuity of trees it has a k-b-coloring, whose
       witnesses lie in the core's D; the dropped leaves only add neighbors.
    3. At most one dense vertex is left out: the core's D has dom[k] or
       dom[k] + 1 vertices, so trying W = D, or W = D - {z} for each z,
       covers every possible witness set; W[i] wears color i up to renaming.
    4. The completion DP is exact for a fixed W: each free subtree's set of
       feasible colors and each witness's set of acceptable parent colors
       (from a maximum matching of its missing colors into its free
       children) are computed exactly, bottom-up.

    Each witness sees all k classes, so every class is nonempty; dom[k] is
    the maximum, so no coloring has more dominant classes.
    """
    from .bcoloring import Coloring, verify_coloring

    if not is_tree(t) or t.n < 2:
        raise NotATree("tree b-coloring needs a tree on >= 2 vertices")
    if not (2 <= k <= t.n):
        raise KOutOfRange(f"k={k} outside 2..{t.n}")
    if target is None:
        target = dominance_vector_tree(t).value_at(k)
    rt = root_tree(t)
    if target:
        color = _dominating_coloring(rt, k, target)
    else:
        color = [0] * t.n
        for v in reversed(rt.order):
            color[v] = 1 - color[rt.parent[v]]
        for c, v in enumerate(rt.order[: k - 2], start=2):  # never the root or its neighbor
            color[v] = c
    coloring = Coloring(tuple(color), k)
    found = len(verify_coloring(t, coloring).dominant_classes)
    if found != target:
        raise InvariantViolation(
            f"tree coloring has {found} dominant classes, not dom[{k}] = {target}"
        )
    return coloring


# ---------------------------------------------------------------------------
# Co-trees and tree-cograph composition
# ---------------------------------------------------------------------------


def dominance_from_deficiency(n: int, fvec: list[float]) -> DominanceVector:
    """Dominance of a stability-2 graph whose n-vertex complement has F vector
    ``fvec``: chi = n - nu and dom[t] = t - F[n - t], as a t-coloring's two-vertex
    classes are a size-(n - t) matching whose deficiency counts the non-dominant ones."""
    nu = max(k for k, val in enumerate(fvec) if val != INF)
    return DominanceVector(n - nu, tuple(int(t - fvec[n - t]) for t in range(n - nu, n + 1)))


def dominance_union(a: DominanceVector, b: DominanceVector) -> DominanceVector:
    """A t-coloring of a union colors each side from the same t colors, so
    dom[t] = min(t, dom_a[t] + dom_b[t]), where a side reads 0 above its n."""
    chi, n = max(a.chi, b.chi), a.n + b.n
    xs = a.values[chi - a.chi :] + (0,) * b.n
    ys = b.values[chi - b.chi :] + (0,) * a.n
    values = [s if s < t else t for t, x, y in zip(range(chi, n + 1), xs, ys) for s in (x + y,)]
    return DominanceVector(chi, tuple(values))


def dominance_join(a: DominanceVector, b: DominanceVector) -> DominanceVector:
    """A t-coloring of a join gives j classes to a and t - j to b, so
    dom[t] = max over j of dom_a[j] + dom_b[t - j]: a (max,+) convolution,
    run as the min-plus convolution of the negated value lists.  Its index
    range is every split with both sides between their chi and n."""
    sums = minplus_convolve([-v for v in a.values], [-v for v in b.values])
    return DominanceVector(a.chi + b.chi, tuple([-s for s in sums]))


# the dominance of every one-vertex leaf: one class, which its vertex dominates
_POINT_DOMINANCE = DominanceVector(1, (1,))


def _leaf_dominance(leaf: TcLeaf) -> DominanceVector:
    if leaf.tree.n == 1:
        return _POINT_DOMINANCE
    if leaf.denotes_tree:
        return dominance_vector_tree(leaf.tree)
    return dominance_from_deficiency(leaf.tree.n, deficiency_vector(leaf.tree))


def dominance_tc(e: TcExpr) -> DominanceVector:
    return _fold(
        e,
        _leaf_dominance,
        lambda node, vecs: reduce(
            dominance_union if isinstance(node, TcUnion) else dominance_join, vecs
        ),
    )
