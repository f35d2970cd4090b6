"""Exhaustive reference implementations.

Every polynomial routine in this package is cross-checked against the
enumerations here at desk scale.  The code favors being obviously correct
over being clever: matchings are enumerated edge by edge, colorings are
enumerated canonically (first occurrence of each class fixes its index,
killing the t! symmetry).

The continuity walk of the paper's proof that stability-two graphs are
b-continuous is here too, as the reference that ``chain`` is checked
against: ``continuity_chain`` augments the matching of the complement along a
shortest augmenting path until it is maximum.  Shortest augmenting paths of
length five or more are found exactly by a reduction to maximum-weight
perfect matching: among matchings of size ``|M|+1``, one maximizing
``|M' & M|`` differs from M in a single shortest augmenting path (any
balanced or negative component of the symmetric difference could be flipped
to increase the overlap).  That search takes its weighted blossom from a
graph library that only the tests depend on, imported inside
``min_length_augmenting_path`` on first use, so importing this module does
not load it; without it the call raises ``BchromError``.

This module is the test reference only: the request path never imports it.
The ``oracle`` subcommand loads it when run, and the searches spend from
``matching._Counter``, the package's one search budget.
"""

from __future__ import annotations

import sys

from .bcoloring import Coloring, coloring_to_matching, matching_to_coloring, verify_on_complement
from .errors import BchromError, GraphTooLarge, InvariantViolation, KOutOfRange, NotABColoring
from .errors import RangeError, StabilityTooLarge
from .graph import Edge, Graph, _Record, is_triangle_free, norm_edge
from .matching import AltPath, Matching, _Counter, _defects, augment, find_short_augmenting

INF = float("inf")


class OracleBudget(_Record):
    _fields = ("max_n", "max_states")
    max_n: int
    max_states: int

    def __init__(self, max_n: int = 16, max_states: int = 10**8) -> None:
        if max_n <= 0 or max_states <= 0:
            raise RangeError("budget caps must be positive")
        d = self.__dict__
        d["max_n"], d["max_states"] = max_n, max_states


DEFAULT_BUDGET = OracleBudget()


def _admit(g: Graph, budget: OracleBudget, levels: int) -> _Counter:
    """The search budget for g, once g is within the cap and a search that
    recurses ``levels`` deep stays below the interpreter's recursion limit."""
    if g.n > budget.max_n:
        raise GraphTooLarge(f"n={g.n} exceeds oracle cap {budget.max_n}")
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    if depth + levels + 8 > sys.getrecursionlimit():  # 8: the search's helper frames
        raise GraphTooLarge(f"the search would recurse {levels} levels, past the recursion limit")
    return _Counter(budget.max_states)


# ---------------------------------------------------------------------------
# Matching enumeration
# ---------------------------------------------------------------------------


def oracle_min_smm(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> tuple[int, frozenset[Edge]]:
    """Exact minimum strongly maximal matching by matching enumeration."""
    counter = _admit(g, budget, g.m)
    edges = g.edges
    L = len(edges)
    best_size = g.n + 1
    best: tuple[Edge, ...] = ()
    chosen: list[Edge] = []
    full = (1 << g.n) - 1

    def rec(i: int, mask: int) -> None:
        nonlocal best_size, best
        counter.tick()
        if i == L:
            if len(chosen) < best_size and _defects(g, chosen, full & ~mask) == (0, 0):
                best_size = len(chosen)
                best = tuple(chosen)
            return
        u, v = edges[i]
        bit = (1 << u) | (1 << v)
        if not mask & bit and len(chosen) + 1 < best_size:
            chosen.append((u, v))
            rec(i + 1, mask | bit)
            chosen.pop()
        rec(i + 1, mask)

    rec(0, 0)
    if best_size > g.n:
        # the empty matching is strongly maximal in an edgeless graph
        raise InvariantViolation("every graph has a strongly maximal matching")
    return best_size, frozenset(best)


def oracle_f_t_k(t: Graph, k: int, budget: OracleBudget = DEFAULT_BUDGET) -> float:
    """Minimum of the two deficiency counts over matchings of size exactly k."""
    if k < 0:
        raise KOutOfRange(f"k={k} is negative")
    counter = _admit(t, budget, t.m)
    edges = t.edges
    L = len(edges)
    best = INF
    chosen: list[Edge] = []
    full = (1 << t.n) - 1

    def rec(i: int, mask: int) -> None:
        nonlocal best
        counter.tick()
        if len(chosen) == k:
            val = sum(_defects(t, chosen, full & ~mask))
            if val < best:
                best = val
            return
        if i == L or len(chosen) + (L - i) < k:
            return
        u, v = edges[i]
        bit = (1 << u) | (1 << v)
        if not mask & bit:
            chosen.append((u, v))
            rec(i + 1, mask | bit)
            chosen.pop()
        rec(i + 1, mask)

    rec(0, 0)
    return best if best is INF else int(best)


def oracle_nu(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Maximum matching size, by memoized recursion over free-vertex masks."""
    counter = _admit(g, budget, g.n)
    memo: dict[int, int] = {}

    def rec(mask: int) -> int:
        if mask == 0:
            return 0
        got = memo.get(mask)
        if got is not None:
            return got
        counter.tick()
        v = (mask & -mask).bit_length() - 1
        best = rec(mask & ~(1 << v))
        avail = g.bits[v] & mask
        while avail:
            w = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            best = max(best, 1 + rec(mask & ~(1 << v) & ~(1 << w)))
        memo[mask] = best
        return best

    return rec((1 << g.n) - 1)


def oracle_shortest_augmenting(
    g: Graph, m: frozenset[Edge], budget: OracleBudget = DEFAULT_BUDGET
) -> int | None:
    """Edge count of a shortest augmenting path for m, by exhaustive DFS over
    simple alternating paths; None when m is maximum."""
    counter = _admit(g, budget, g.n)
    partner = {}
    for u, v in m:
        partner[u] = v
        partner[v] = u
    free = [v for v in range(g.n) if v not in partner]
    best: list[int | None] = [None]

    def walk(v: int, used: int, length: int) -> None:
        counter.tick()
        # at v after an even number of edges; next edge must be unmatched
        for w in g.adj[v]:
            if (used >> w) & 1:
                continue
            if w not in partner:
                if best[0] is None or length + 1 < best[0]:
                    best[0] = length + 1
                continue
            if best[0] is not None and length + 3 >= best[0]:
                continue
            x = partner[w]
            if (used >> x) & 1:
                continue
            walk(x, used | (1 << w) | (1 << x), length + 2)

    for s in free:
        walk(s, 1 << s, 0)
    return best[0]


# ---------------------------------------------------------------------------
# Coloring enumeration
# ---------------------------------------------------------------------------


def _scan_colorings(g: Graph, counter: _Counter, visit) -> None:
    """Enumerate proper colorings canonically (class i first appears before
    class i+1) and hand each one to ``visit`` as a list of class bitmasks."""
    n = g.n
    masks: list[int] = []

    def rec(v: int) -> None:
        counter.tick()
        if v == n:
            visit(masks)
            return
        bv = g.bits[v]
        for c in range(len(masks)):
            if not masks[c] & bv:
                masks[c] |= 1 << v
                rec(v + 1)
                masks[c] &= ~(1 << v)
        masks.append(1 << v)
        rec(v + 1)
        masks.pop()

    rec(0)


def _dominant_count(g: Graph, masks: list[int]) -> int:
    t = len(masks)
    count = 0
    for i, mi in enumerate(masks):
        found = False
        members = mi
        while members and not found:
            v = (members & -members).bit_length() - 1
            members &= members - 1
            if g.degree(v) < t - 1:
                continue
            bv = g.bits[v]
            ok = True
            for j in range(t):
                if j != i and not bv & masks[j]:
                    ok = False
                    break
            found = ok
        if found:
            count += 1
    return count


def oracle_dominance(g: Graph, budget: OracleBudget = DEFAULT_BUDGET):
    """Per class count t, the maximum number of dominant classes over all
    proper colorings with exactly t nonempty classes."""
    from .dominance import DominanceVector

    counter = _admit(g, budget, g.n)
    if g.n == 0:
        raise RangeError("dominance needs at least one vertex")
    best = [-1] * (g.n + 1)

    def visit(masks: list[int]) -> None:
        t = len(masks)
        d = _dominant_count(g, masks)
        if d > best[t]:
            best[t] = d

    _scan_colorings(g, counter, visit)
    chi = next(t for t in range(1, g.n + 1) if best[t] >= 0)
    return DominanceVector(chi, tuple(best[chi:]))


def oracle_chi_b(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Largest t admitting a proper t-coloring with all t classes dominant."""
    return oracle_dominance(g, budget).b_chromatic()


def oracle_chromatic(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    counter = _admit(g, budget, g.n)
    if g.n == 0:
        return 0
    n = g.n
    best = [n + 1]
    masks: list[int] = []

    def rec(v: int) -> None:
        counter.tick()
        if len(masks) >= best[0]:
            return
        if v == n:
            best[0] = len(masks)
            return
        bv = g.bits[v]
        for c in range(len(masks)):
            if not masks[c] & bv:
                masks[c] |= 1 << v
                rec(v + 1)
                masks[c] &= ~(1 << v)
        if len(masks) + 1 < best[0]:
            masks.append(1 << v)
            rec(v + 1)
            masks.pop()

    rec(0)
    return best[0]


# ---------------------------------------------------------------------------
# The continuity walk of the stability-two proof
# ---------------------------------------------------------------------------


def min_length_augmenting_path(g: Graph, m: Matching) -> AltPath | None:
    """An augmenting path with the fewest edges, or None iff m is maximum."""
    short = find_short_augmenting(g, m)
    if short is not None:
        return short
    k = len(m) + 1
    if 2 * k > g.n:
        return None
    dummies = g.n - 2 * k
    try:
        import networkx as nx
    except ImportError as exc:
        raise BchromError("augmenting paths of length five or more need networkx, "
                          "which cannot be imported") from exc

    G = nx.Graph()
    G.add_nodes_from(range(g.n + dummies))
    for u, v in g.edges:
        G.add_edge(u, v, weight=1 if (u, v) in m else 0)
    for t in range(dummies):
        d = g.n + t
        for v in range(g.n):
            G.add_edge(d, v, weight=0)
    mate = nx.max_weight_matching(G, maxcardinality=True)
    if 2 * len(mate) < g.n + dummies:
        return None  # no matching of size |m|+1 exists at all
    chosen = frozenset(
        norm_edge(u, v) for u, v in mate if u < g.n and v < g.n
    )
    diff = m ^ chosen
    # by the overlap argument the difference is one augmenting path
    deg: dict[int, list[int]] = {}
    for u, v in diff:
        deg.setdefault(u, []).append(v)
        deg.setdefault(v, []).append(u)
    ends = sorted(v for v, nbrs in deg.items() if len(nbrs) == 1)
    if len(ends) != 2 or any(len(nbrs) > 2 for nbrs in deg.values()):
        raise InvariantViolation("symmetric difference is not a single path")
    path = [ends[0]]
    prev = -1
    while path[-1] != ends[1]:
        nxt = [w for w in deg[path[-1]] if w != prev]
        prev = path[-1]
        path.append(nxt[0])
    if len(path) != len(deg):
        raise InvariantViolation("symmetric difference is not a single path")
    if path[0] > path[-1]:
        path.reverse()
    return tuple(path)


def continuity_chain(co: Graph, c: Coloring) -> list[Coloring]:
    """b-colorings with t, t-1, ..., chi classes of the graph whose
    complement is ``co``, from the b-coloring c down, obtained by repeatedly
    augmenting the matching of co along a minimum-length path."""
    if not is_triangle_free(co):
        raise StabilityTooLarge("bijection requires stability <= 2")
    if not verify_on_complement(co, c).is_b_coloring:
        raise NotABColoring("chain must start from a b-coloring")
    m = coloring_to_matching(co, c)
    chain = [c]
    while (path := min_length_augmenting_path(co, m)) is not None:
        m = augment(m, path)
        chain.append(matching_to_coloring(co, m))
    return chain
