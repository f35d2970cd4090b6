"""Colorings, b-coloring verification, and the bijection between colorings
of a stability-2 graph G and matchings of its complement co.

A proper coloring of a graph without three pairwise non-adjacent vertices
has classes of one vertex or of one edge of co; the size-two classes form a
matching of co, and the coloring is a b-coloring exactly when that matching
is strongly maximal.  The bijection (``coloring_to_matching`` and
``matching_to_coloring``) and ``verify_on_complement`` take co alone and
never read G, so a co-forest read from its canonical text keeps no dense
row; the class check they share (``_pair_classes``) and the verdict cost
O(n + m(co)).  ``verify_coloring`` checks a coloring of any graph on that
graph's own rows.  The walk down augmenting paths of the paper's proof of
b-continuity is the test reference ``oracle.continuity_chain``.
"""

from __future__ import annotations

from itertools import compress, filterfalse, islice

from .errors import ClassTooLarge, EmptyClass, ImproperColoring
from .graph import Graph, _Record
from .matching import Matching, validate_matching


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


def verify_coloring(g: Graph, c: Coloring) -> BVerdict:
    """Dominant classes with their lowest dominating vertices, on g's rows.

    The rows are scanned in vertex order, so an improper coloring names its
    least edge (u, v), u < v, within a class: an edge whose lower end u was
    passed would have been found at u's row.  In a proper coloring v
    dominates when the classes of its neighbours number t - 1."""
    classes = _classes(g.n, c)
    color = c.assignment.__getitem__
    for u, row in enumerate(g.adj):
        if color(u) in map(color, row):
            v = next(v for v in row if color(v) == color(u))
            raise ImproperColoring(f"adjacent vertices {u},{v} share a class")
    dominant = []
    witnesses = []
    for idx, members in enumerate(classes):
        for v in members:
            row = g.adj[v]
            if len(row) >= c.t - 1 and len(set(map(color, row))) == c.t - 1:
                dominant.append(idx)
                witnesses.append((idx, v))
                break
    return BVerdict(len(dominant) == c.t, frozenset(dominant), tuple(witnesses))


def _pair_classes(co: Graph, c: Coloring) -> list[list[int]]:
    """The classes of c, once each is checked to be one vertex or one edge
    of co, as every class of a proper coloring of the complement of a
    triangle-free co is; in O(n + m(co)).

    An improper coloring names the least pair (u, v) of one class that is
    not an edge of co: the first edge within a class that
    ``verify_coloring`` of the complement finds.  A class of three or more
    vertices pairwise adjacent in co, a triangle of co, raises
    ``ClassTooLarge``.
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
    return classes


def verify_on_complement(co: Graph, c: Coloring) -> BVerdict:
    """``verify_coloring`` of the graph whose complement is ``co``, a
    triangle-free graph, read on co alone in O(n + m(co)), with the same
    errors and messages (``_pair_classes``).

    A vertex v misses another class only when the whole class lies among
    v's co-neighbours: a single vertex, or an edge of co, which with v would
    close a triangle of co.  So v is dominant iff none of its co-neighbours
    is alone in its class.
    """
    classes = _pair_classes(co, c)
    alone = {members[0] for members in classes if len(members) == 1}
    lowest: dict[int, int] = {}  # class: its lowest dominating vertex
    for v in compress(range(co.n), map(alone.isdisjoint, co.nbr_sets)):
        lowest.setdefault(c.assignment[v], v)
    return BVerdict(len(lowest) == c.t, frozenset(lowest), tuple(sorted(lowest.items())))


def coloring_to_matching(co: Graph, c: Coloring) -> Matching:
    """The size-two classes of c, edges of the complement ``co``."""
    return frozenset(tuple(members) for members in _pair_classes(co, c) if len(members) == 2)


def matching_to_coloring(co: Graph, m: Matching) -> Coloring:
    """Pairs of m, a matching of ``co``, share a class, and every other
    vertex is alone; classes are numbered by their smallest vertex."""
    validate_matching(co, m)
    partner = {}
    for u, v in m:
        partner[u] = v
        partner[v] = u
    color = [-1] * co.n
    nxt = 0
    for v in range(co.n):
        if color[v] != -1:
            continue
        color[v] = nxt
        if v in partner and partner[v] > v:
            color[partner[v]] = nxt
        nxt += 1
    return Coloring(tuple(color), nxt)
