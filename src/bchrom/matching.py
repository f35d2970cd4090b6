"""Matchings, augmenting paths and strong maximality.

A matching is a frozenset of normalized edges.  A matching is *strongly
maximal* when it admits no augmenting path of length one or three; those two
lengths are exactly what b-colorings of stability-2 graphs care about.

``_Counter`` is the package's one search budget.  It lives here, beside
``least_deficiency_matchings``, the exact search that the stability-two route
runs, so that answering a request imports no reference code; the gadget
certifier in ``reduction`` and the test reference in ``oracle`` spend from it
too.
"""

from __future__ import annotations

from .errors import BudgetExceeded, InvalidMatching, NotAugmenting
from .graph import Edge, Graph, norm_edge

Matching = frozenset[Edge]
AltPath = tuple[int, ...]


def validate_matching(g: Graph, m: Matching) -> set[int]:
    """Check m is a matching of g; return the set of matched vertices."""
    matched: set[int] = set()
    for u, v in m:
        if u == v or not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            raise InvalidMatching(f"({u},{v}) is not an edge of the graph")
        if u in matched or v in matched:
            raise InvalidMatching(f"vertex shared by two matching edges at ({u},{v})")
        matched.add(u)
        matched.add(v)
    return matched


def _defects(g: Graph, pairs, free: int) -> tuple[int, int]:
    """The two deficiency counts of matched ``pairs`` whose unmatched vertices
    are the bits of ``free``: free vertices with a free neighbor, and pairs
    at the center of a length-3 augmenting path."""
    bits = g.bits
    s1 = 0
    rest = free
    while rest:
        low = rest & -rest
        rest ^= low
        if bits[low.bit_length() - 1] & free:
            s1 += 1
    s2 = 0
    for v, w in pairs:
        a = bits[v] & free
        b = bits[w] & free
        if a and b and not (a == b and a & (a - 1) == 0):
            s2 += 1
    return s1, s2


def _free_mask(g: Graph, matched: set[int]) -> int:
    return ((1 << g.n) - 1) & ~sum(1 << v for v in matched)


def is_strongly_maximal(g: Graph, m: Matching) -> bool:
    """No augmenting path of length one or three exists for m in g."""
    return s1_s2(g, m) == (0, 0)


def find_short_augmenting(g: Graph, m: Matching) -> AltPath | None:
    """A shortest augmenting path of length one or three, or None.

    Ties break on the lexicographically smallest vertex sequence after
    orienting each path so it starts at its smaller endpoint.
    """
    matched = validate_matching(g, m)
    for u, v in g.edges:  # edges iterate in sorted order
        if u not in matched and v not in matched:
            return (u, v)
    best: AltPath | None = None
    for v, w in sorted(m):
        for p, q in ((v, w), (w, v)):
            us = [u for u in g.adj[p] if u not in matched]
            xs = [x for x in g.adj[q] if x not in matched]
            for u in us:
                for x in xs:
                    if u == x:
                        continue
                    seq = (u, p, q, x)
                    if seq[0] > seq[-1]:
                        seq = seq[::-1]
                    if best is None or seq < best:
                        best = seq
    return best


class _Counter:
    """A search budget: ``tick`` spends from it and raises once it is gone."""

    __slots__ = ("left", "what")

    def __init__(self, limit: int, what: str = "enumeration state") -> None:
        self.left = limit
        self.what = what

    def tick(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise BudgetExceeded(f"{self.what} budget exhausted")


def least_deficiency_matchings(g: Graph, counter: _Counter) -> tuple[list[float], list[Matching]]:
    """Per size k, the least deficiency F[k] (``inf`` past the maximum) over
    size-k matchings of g, and one matching that attains it.  Each vertex in
    turn, lowest first, stays free or is matched to a higher undecided
    neighbor; ``counter`` is ticked once a matching."""
    n, bits, full = g.n, g.bits, (1 << g.n) - 1
    least: list[float] = [float("inf")] * (n // 2 + 1)
    found: list[Matching] = [frozenset()] * (n // 2 + 1)
    stack = [(0, 0, ())]
    while stack:
        start, mask, pairs = stack.pop()
        counter.tick()
        rest = full & ~mask & -(1 << start)  # undecided: each stays free here
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            higher = bits[v] & rest  # and is matched to these on the stack
            while higher:
                w = (higher & -higher).bit_length() - 1
                higher &= higher - 1
                stack.append((v + 1, mask | 1 << v | 1 << w, (*pairs, (v, w))))
        k = len(pairs)
        if least[k] and (d := sum(_defects(g, pairs, full & ~mask))) < least[k]:
            least[k], found[k] = d, frozenset(pairs)
    return least, found


def augment(m: Matching, p: AltPath) -> Matching:
    """Symmetric difference of m with the edges of an augmenting path p."""
    p = tuple(p)
    if len(p) < 2 or len(p) % 2 != 0 or len(set(p)) != len(p):
        raise NotAugmenting("augmenting paths have an odd number of edges")
    matched = {v for e in m for v in e}
    if p[0] in matched or p[-1] in matched:
        raise NotAugmenting("path endpoints must be unmatched")
    path_edges = []
    for i in range(len(p) - 1):
        e = norm_edge(p[i], p[i + 1])
        in_m = e in m
        if in_m != (i % 2 == 1):
            raise NotAugmenting("path edges must alternate, starting unmatched")
        path_edges.append(e)
    return frozenset(m ^ set(path_edges))


def s1_s2(g: Graph, m: Matching) -> tuple[int, int]:
    """Deficiency statistics of a matching.

    The first count is unmatched vertices with an unmatched neighbor; the
    second is matching edges sitting at the center of a length-3 augmenting
    path.  They sum to zero exactly when m is strongly maximal.
    """
    matched = validate_matching(g, m)
    return _defects(g, m, _free_mask(g, matched))
