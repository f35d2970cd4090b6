"""Colorings, b-coloring verification, and the bijection between colorings
of a stability-2 graph and matchings of its complement.

A proper coloring of a graph without three pairwise non-adjacent vertices
has classes of size at most two; the size-two classes form a matching of
the complement, and the coloring is a b-coloring exactly when that matching
is strongly maximal.  ``verify_on_complement`` checks such a coloring on
the complement alone, in time linear in the complement's size.
"""

from __future__ import annotations

from itertools import compress, filterfalse, islice

from .errors import ClassTooLarge, EmptyClass, ImproperColoring, NotABColoring, StabilityTooLarge
from .graph import Graph, _Record, complement, norm_edge, stability_at_most_two
from .matching import Matching, augment, min_length_augmenting_path, validate_matching


class Coloring(_Record):
    _fields = ("assignment", "t")
    assignment: tuple[int, ...]
    t: int

    def __init__(self, assignment: tuple[int, ...], t: int) -> None:
        d = self.__dict__
        d["assignment"], d["t"] = assignment, t

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.t)]
        for v, c in enumerate(self.assignment):
            out[c].append(v)
        return out


class BVerdict(_Record):
    _fields = ("is_b_coloring", "dominant_classes", "witnesses")
    is_b_coloring: bool
    dominant_classes: frozenset[int]
    witnesses: tuple[tuple[int, int], ...]  # (class, lowest dominating vertex)

    def __init__(self, is_b_coloring: bool, dominant_classes: frozenset[int],
                 witnesses: tuple[tuple[int, int], ...]) -> None:
        d = self.__dict__
        d["is_b_coloring"], d["dominant_classes"] = is_b_coloring, dominant_classes
        d["witnesses"] = witnesses


def _classes(n: int, c: Coloring) -> list[list[int]]:
    """The classes of c, each sorted, once c colors n vertices with no
    class empty."""
    if len(c.assignment) != n:
        raise ImproperColoring("assignment length differs from vertex count")
    if any(not 0 <= x < c.t for x in c.assignment):
        raise ImproperColoring("color index out of range")
    classes = c.classes()
    for idx, members in enumerate(classes):
        if not members:
            raise EmptyClass(f"class {idx} is empty")
    return classes


def validate_coloring(g: Graph, c: Coloring) -> list[list[int]]:
    classes = _classes(g.n, c)
    for u, v in g.edges:
        if c.assignment[u] == c.assignment[v]:
            raise ImproperColoring(f"adjacent vertices {u},{v} share a class")
    return classes


def verify_coloring(g: Graph, c: Coloring) -> BVerdict:
    """Dominant classes with their lowest dominating vertices."""
    classes = validate_coloring(g, c)
    masks = [0] * c.t
    for v, col in enumerate(c.assignment):
        masks[col] |= 1 << v
    dominant = []
    witnesses = []
    for idx, members in enumerate(classes):
        for v in members:
            if g.degree(v) < c.t - 1:
                continue
            bv = g.bits[v]
            if all(bv & masks[j] for j in range(c.t) if j != idx):
                dominant.append(idx)
                witnesses.append((idx, v))
                break
    return BVerdict(len(dominant) == c.t, frozenset(dominant), tuple(witnesses))


def verify_on_complement(co: Graph, c: Coloring) -> BVerdict:
    """``verify_coloring`` of the graph whose complement is ``co``, a
    triangle-free graph, read on co alone in O(n + m(co)).

    A proper coloring of a graph of stability two has classes of one
    vertex or of one edge of co.  A vertex v misses another class only when
    the whole class lies among v's co-neighbours: a single vertex, or an
    edge of co, which with v would close a triangle of co.  So v is
    dominant iff none of its co-neighbours is alone in its class.

    Errors are those of ``verify_coloring``, with the same messages: an
    improper coloring names the least pair (u, v) of one class that is not
    an edge of co.  A class of three or more vertices pairwise adjacent in
    co, a triangle of co, raises ``ClassTooLarge``.
    """
    classes = _classes(co.n, c)
    nbrs = co.nbr_sets
    # per class, its least pair that is not an edge of co: the scan from u
    # passes only co-neighbours of u before it stops, so it costs O(n + m(co))
    bad = []
    for members in classes:
        if len(members) == 2:
            if members[1] not in nbrs[members[0]]:
                bad.append(tuple(members))
            continue
        for i, u in enumerate(members[:-1]):
            v = next(filterfalse(nbrs[u].__contains__, islice(members, i + 1, None)), None)
            if v is not None:
                bad.append((u, v))
                break
    if bad:
        u, v = min(bad)
        raise ImproperColoring(f"adjacent vertices {u},{v} share a class")
    if any(len(members) > 2 for members in classes):
        raise ClassTooLarge("color class of size three or more")
    alone = {members[0] for members in classes if len(members) == 1}
    lowest: dict[int, int] = {}  # class: its lowest dominating vertex
    for v in compress(range(co.n), map(alone.isdisjoint, nbrs)):
        lowest.setdefault(c.assignment[v], v)
    return BVerdict(len(lowest) == c.t, frozenset(lowest), tuple(sorted(lowest.items())))


def coloring_to_matching(g: Graph, c: Coloring) -> Matching:
    """The size-two classes of c, read as edges of the complement."""
    if not stability_at_most_two(g):
        raise StabilityTooLarge("bijection requires stability <= 2")
    classes = validate_coloring(g, c)
    edges = []
    for members in classes:
        if len(members) > 2:
            raise ClassTooLarge("color class of size three or more")
        if len(members) == 2:
            edges.append(norm_edge(members[0], members[1]))
    return frozenset(edges)


def matching_to_coloring(g: Graph, m: Matching) -> Coloring:
    """Matched pairs share a class, everything else is a singleton; classes
    are numbered by their smallest vertex."""
    if not stability_at_most_two(g):
        raise StabilityTooLarge("bijection requires stability <= 2")
    co = complement(g)
    validate_matching(co, m)
    partner = {}
    for u, v in m:
        partner[u] = v
        partner[v] = u
    color = [-1] * g.n
    nxt = 0
    for v in range(g.n):
        if color[v] != -1:
            continue
        color[v] = nxt
        if v in partner and partner[v] > v:
            color[partner[v]] = nxt
        nxt += 1
    return Coloring(tuple(color), nxt)


def continuity_chain(g: Graph, c: Coloring) -> list[Coloring]:
    """b-colorings with t, t-1, ..., chi classes, obtained by repeatedly
    augmenting the complement matching along a minimum-length path."""
    verdict = verify_coloring(g, c)
    if not verdict.is_b_coloring:
        raise NotABColoring("chain must start from a b-coloring")
    co = complement(g)
    m = coloring_to_matching(g, c)
    chain = [c]
    while True:
        path = min_length_augmenting_path(co, m)
        if path is None:
            return chain
        m = augment(m, path)
        chain.append(matching_to_coloring(g, m))
