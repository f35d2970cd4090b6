"""Simple undirected graphs, structural predicates and tree-cograph
decomposition.

Vertices are dense integers ``0..n-1``.  Adjacency is stored as sorted
tuples.  Graphs and expression nodes are records: their immutability,
structural equality and hashing come from the record base ``_Record``,
which the package's other records share, and which, unlike a dataclass,
generates no class code at import.  All operations here are pure
functions of their inputs.

Derived views of a graph are computed once and kept on it, with no lock
taken on the first read: its edge list, degrees, count of vertices per
degree, bitmasks, neighbor sets, connected components and its complement.
A complement remembers the graph it came from as its own complement, so
complementing twice builds nothing.  The complement of a graph with fewer
edges than vertices, as a forest has, is dense, and its rows are made from
the sparse graph only when something first reads them: its degrees and
edge count follow from the sparse graph's in O(n), and its bitmasks and
neighbor sets are made from the sparse rows too.  So a co-forest read from
its canonical text (``fileio.parse_edgelist``), the complement of its
sparse forest, holds no dense row until one is read, and neither the
routes that answer from the forest nor the structural tests of
``analyze`` read one.  The triangle and stability tests answer no by
Mantel's bound, from the edge count alone, when the graph or its
complement has more than n^2/4 edges; otherwise they read rows one at a
time and stop at the first triangle or independent triple.  A stability
test that finds none keeps the complement rows it made as g's complement.
``Graph.from_sorted_pairs`` builds a graph from pairs in canonical (u, v)
order with no set or sort per vertex.  The components are a tuple of
tuples, so no caller can change what the next one reads, and the tests
for trees, forests and co-forests search a graph at most once.

A tree-cograph expression is built from ``TcLeaf`` leaves by ``TcUnion``
and ``TcJoin``.  A leaf stores a tree and denotes that tree or, with
``co``, its complement.  An expression is evaluated by writing the rows
of its graph directly.  The tree-cograph decomposition is one loop over
nodes, each a run of the input's vertices sorted by degree with the count
that the joins above it took from every degree, so no degree is rewritten.
A node's isolated vertices peel from the low end of its order and its
universal ones from the high end; a rest of one part keeps the order with
new bounds, so a peel costs O(peeled) and a threshold graph's chain of n
levels costs one sort and O(n) steps, not n^2 list steps.  Any other node S
with m(S) edges is searched with set operations in O(|S| + m(S)), and each
of its parts is sorted by degree once.  A vertex's neighbor set is made
from its row the first time a search or a leaf reads it, so a chain makes
few or none, and every one-vertex part is made at once as a leaf over the
shared one-vertex graph.  Each operation orders its children by least
vertex once, when they are all done.  Evaluation and decomposition walk
expressions on an explicit stack, so neither their time nor Python's
recursion limit grows with the depth of the expression.
"""

from __future__ import annotations

from itertools import chain, islice
from math import isqrt
from operator import itemgetter, lt
from typing import Callable, ClassVar, Iterable, Iterator, Sequence, TypeVar

from .errors import NotATree, NotTreeCograph, RangeError

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    """Order an edge's endpoints ascending."""
    return (u, v) if u < v else (v, u)


class _cached:
    """A view computed on its first read and kept in the instance's
    ``__dict__``, where later reads find it before this descriptor.  It
    takes the name it is assigned to, so a lambda serves as well as a
    decorated function.

    This is the standard library's cached property without the lock it
    takes on each first read in Python 3.10 and 3.11, which costs more than
    the views of the many one-vertex trees that expression leaves store.
    Two threads reading a view at once may both compute it; they compute
    equal values.
    """

    def __init__(self, func: Callable) -> None:
        self.func, self.name = func, func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = vars(obj)[self.name] = self.func(obj)
        return value


class _Record:
    """An immutable record with a frozen dataclass's behavior and none of
    its class generation at import.

    A subclass names its fields in ``_fields`` and sets them in its own
    ``__init__``, straight into the instance's ``__dict__``.  Assigning or
    deleting an attribute raises ``AttributeError``.  Two records are equal
    when they have the same class and equal fields; the hash is that of the
    fields' tuple, and the repr is ``Cls(f=v, ...)`` in field order.  Views
    that ``_cached`` keeps in the ``__dict__`` stay out of all three.
    """

    __slots__ = ()
    _fields: ClassVar[tuple[str, ...]] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Graph(_Record):
    _fields = ("n", "adj")
    n: int
    adj: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...]) -> None:
        if n < 0 or len(adj) != n:
            raise ValueError("adjacency length must equal vertex count")
        d = self.__dict__
        d["n"], d["adj"] = n, adj

    def __getattr__(self, name: str):
        # reached only for a name the instance and the class lack: the rows
        # of a complement that ``_complement_of`` left to its sparse graph
        if name != "adj" or "_complement" not in vars(self):
            raise AttributeError(f"'Graph' object has no attribute {name!r}")
        adj = vars(self)["adj"] = tuple(_co_rows(vars(self)["_complement"]))
        return adj

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a canonical graph; duplicate edges collapse silently.

        Edges are added unchecked and the rows are checked afterwards: an
        endpoint of n or more stops the loop, and a negative endpoint or a
        self-loop leaves a negative entry or the vertex itself in a row.
        Only then are ``edges`` walked again, to name the first bad edge,
        so pass a sequence, not an iterator, where an edge may be bad.
        """
        nbrs: list[list[int]] = [[] for _ in range(n)]
        bad = False
        try:
            for u, v in edges:
                nbrs[u].append(v)
                nbrs[v].append(u)
        except IndexError:
            bad = True
        adj = []
        for v, row in enumerate(nbrs):
            s = set(row)
            bad = bad or v in s
            adj.append(tuple(sorted(s)))
        if bad or any(row[0] < 0 for row in adj if row):
            raise _bad_edge(n, edges)
        return Graph(n, tuple(adj))

    @staticmethod
    def from_sorted_pairs(n: int, us: list[int], vs: list[int]) -> "Graph | None":
        """The graph of the pairs ``(us[i], vs[i])`` when they satisfy
        ``0 <= u < v < n`` and come strictly increasing in (u, v), the order
        ``format_edgelist`` writes; otherwise None, and ``from_edges`` is
        the builder to call.

        The pairs are checked with whole-list operations and appended to
        their two rows in pair order, which needs no set and no sort: a
        vertex's lower neighbors arrive before its higher ones, and each
        group rises.

        ``fileio._read_coforest`` calls it on the pairs missing from a
        co-forest's text, and ``fileio.parse_edgelist`` on the edge lists
        that its co-forest and dense-row readers refuse: those with fewer
        than 12n edges or a density below 1/4, and those whose text is not
        canonical, as with a comment, a blank line or other whitespace.
        Pairs in another order reach it too, and it returns None for them.
        """
        # in pairs rising in (u, v) every u >= us[0], so us[0] >= 0, u < v
        # in each pair and max(vs) < n give 0 <= u < v < n for all; the
        # order is tested first, as pairs in another order fail it at once
        if us and not (all(map(lt, zip(us, vs), zip(islice(us, 1, None), islice(vs, 1, None))))
                       and us[0] >= 0 and max(vs) < n and all(map(lt, us, vs))):
            return None
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in zip(us, vs):
            nbrs[u].append(v)
            nbrs[v].append(u)
        return Graph(n, tuple(map(tuple, nbrs)))

    @_cached
    def edges(self) -> tuple[Edge, ...]:
        return tuple((u, v) for u in range(self.n) for v in self.adj[u] if u < v)

    @_cached
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adj))

    @_cached
    def m(self) -> int:
        return sum(self.degrees) // 2

    # degree_counts[d]: the number of vertices of degree d, up to the max degree
    degree_counts = _cached(lambda self: count_degrees(self.degrees))

    @_cached
    def bits(self) -> tuple[int, ...]:
        """Adjacency as bitmasks, one integer per vertex."""
        if "adj" not in vars(self):  # rows left to the sparse complement
            everyone = (1 << self.n) - 1
            return tuple(everyone ^ (1 << v) ^ b
                         for v, b in enumerate(vars(self)["_complement"].bits))
        return tuple(map(_mask, self.adj))

    @_cached
    def nbr_sets(self) -> tuple[frozenset[int], ...]:
        if "adj" not in vars(self):
            everyone = frozenset(range(self.n))
            return tuple(everyone.difference(row, (v,))
                         for v, row in enumerate(vars(self)["_complement"].adj))
        return tuple(frozenset(a) for a in self.adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max(len(self.degree_counts) - 1, 0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.nbr_sets[u]


# the graph of every one-vertex leaf: graphs are immutable, and their views
# are values, so one leaf's views serve all
_POINT = Graph(1, ((),))


def _bad_edge(n: int, edges: Iterable[tuple[int, int]]) -> ValueError:
    """The error for the first edge of ``edges`` that is out of range for
    n vertices or a self-loop."""
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            return ValueError(f"self-loop at vertex {u}")
    return ValueError(f"an edge is out of range for n={n} or a self-loop")


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges of g.

    The result is kept on g, and g is kept on it as its complement, so a
    graph is complemented at most once however often this is called.
    """
    co = vars(g).get("_complement")
    if co is None:
        co = _complement_of(g)
    return co


def _complement_of(g: Graph) -> Graph:
    """Build g's complement and link the two, each as the other's.

    When g has fewer edges than vertices, as a forest has, the complement
    is dense and its rows are not made here: they are made from g on the
    first read of its ``adj`` (``Graph.__getattr__``), and its degrees and
    edge count are set from g's now.
    """
    n = g.n
    if g.m < n:
        co = object.__new__(Graph)
        vars(co).update(n=n, degrees=tuple(n - 1 - d for d in g.degrees),
                        m=n * (n - 1) // 2 - g.m)
        return _link(g, co)
    return _link(g, Graph(n, tuple(_co_rows(g))))


def _link(g: Graph, co: Graph) -> Graph:
    """``co``, kept on g as its complement, with g kept on it as its own."""
    vars(g)["_complement"] = co
    vars(co)["_complement"] = g
    return co


def _co_rows(g: Graph) -> Iterator[tuple[int, ...]]:
    """The rows of g's complement in vertex order, each made as it is read.

    A graph with fewer edges than vertices, as a forest has, has a dense
    complement: each row is a copy of the list of all vertices with the
    vertex and its neighbors deleted, so the steps in Python grow with
    n + m.  Otherwise each row is a set difference.
    """
    n = g.n
    if g.m < n:
        everyone = list(range(n))
        for v, nbrs in enumerate(g.adj):
            row = everyone.copy()
            del row[v]
            for w in reversed(nbrs):  # from the top, so no deletion moves the next
                del row[w - (w > v)]
            yield tuple(row)
    else:
        everyone_set = set(range(n))
        for v, nbrs in enumerate(g.adj):
            row_set = everyone_set.difference(nbrs)
            row_set.discard(v)
            yield tuple(sorted(row_set))


def _mask(row: Iterable[int]) -> int:
    """The bitmask of a row: bit w is set for each vertex w in it."""
    b = 0
    for w in row:
        b |= 1 << w
    return b


def _rows_if_triangle_free(rows: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]] | None:
    """The rows that ``rows`` yields, each sorted, in vertex order, or None
    as soon as an edge's ends share a neighbor.

    Row u's bitmask is made when row u arrives and is tested against the
    masks of its lower neighbors, so a graph with a triangle among its low
    vertices is answered after a few rows.
    """
    seen: list[tuple[int, ...]] = []
    masks: list[int] = []
    for u, row in enumerate(rows):
        mask = _mask(row)
        for v in row:
            if v > u:
                break
            if mask & masks[v]:
                return None
        seen.append(row)
        masks.append(mask)
    return seen


def is_triangle_free(g: Graph) -> bool:
    """True iff no edge's endpoints share a neighbor.

    By Mantel's theorem a triangle-free graph on n vertices has at most
    floor(n^2/4) edges, so a denser graph, such as a co-forest read from
    its canonical text, answers no without reading a row.  A graph with
    fewer edges than vertices, as a forest has, is tested with its neighbor
    sets, whose size grows with n + m.  Any other graph is tested row by
    row on bitmasks made as the rows are reached, and the test stops at the
    first edge that closes a triangle.
    """
    if g.m > g.n * g.n // 4:
        return False
    if g.m < g.n:
        sets, adj = g.nbr_sets, g.adj
        return all(sets[u].isdisjoint(adj[v]) for u, v in g.edges)
    return _rows_if_triangle_free(g.adj) is not None


def _non_edges(g: Graph) -> int:
    return g.n * (g.n - 1) // 2 - g.m


def _coforest_sized(n: int, m: int) -> bool:
    """True iff n vertices and m edges leave fewer than ``max(n, 1)``
    non-edges, as the complement of a forest on n vertices has."""
    return n * (n - 1) // 2 - m < max(n, 1)


def stability_at_most_two(g: Graph) -> bool:
    """True iff the complement contains no triangle, i.e. no three pairwise
    non-adjacent vertices exist in g.

    By Mantel's theorem a triangle-free graph on n vertices has at most
    floor(n^2/4) edges, so a graph with more non-edges than that answers no
    without being complemented.  A complement that g already keeps, as a
    co-forest read from its edge list does, is tested for triangles.
    Otherwise the complement's rows are made one at a time and the search
    stops at the first triangle among them; when there is none, the rows
    are kept on g as its complement, so the stability-two route that
    follows builds nothing again.
    """
    if _non_edges(g) > g.n * g.n // 4:
        return False
    co = vars(g).get("_complement")
    if co is not None:
        return is_triangle_free(co)
    rows = _rows_if_triangle_free(_co_rows(g))
    if rows is None:
        return False
    _link(g, Graph(g.n, tuple(rows)))
    return True


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The connected components of g, each sorted, in the order of their
    smallest vertex.  The search runs once; the result is kept on g."""
    comps = vars(g).get("_components")
    if comps is None:
        comps = vars(g)["_components"] = _search_components(g)
    return comps


def _search_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    n, adj = g.n, g.adj
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for v in comp:  # breadth first: the list is the queue, walked as it grows
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        if len(comp) == n:  # the first search reached everything: no sort
            return (tuple(range(n)),)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g)


def is_forest(g: Graph) -> bool:
    return g.m == g.n - len(connected_components(g))


def is_coforest(g: Graph) -> bool:
    """True iff the complement of g is a forest, which has fewer than n
    edges; so the complement is built only below n non-edges."""
    return _coforest_sized(g.n, g.m) and is_forest(complement(g))


def _components(nbr: Sequence[frozenset[int]], verts: Sequence[int]) -> list[list[int]]:
    """Connected components of the subgraph induced by ``verts``, each
    sorted, in the order of their first vertex in ``verts``."""
    left = set(verts)
    comps = []
    for s in verts:
        if s not in left:
            continue
        left.discard(s)
        comp = [s]
        queue = [s]
        while queue:
            new = nbr[queue.pop()] & left
            if new:
                left -= new
                comp.extend(new)
                queue.extend(new)
        comp.sort()
        comps.append(comp)
    return comps


def _co_components(nbr: Sequence[frozenset[int]], verts: Sequence[int]) -> list[list[int]]:
    """Connected components of the complement of the subgraph induced by
    ``verts``, ordered as in ``_components``.

    This is the complement search of linear cograph recognition (Corneil,
    Perl & Stewart, SIAM J. Comput. 14(4), 1985): the unvisited vertices a
    vertex is not adjacent to are its complement neighbors, and the ones it
    is adjacent to stay unvisited.  Each step costs the number of unvisited
    vertices, which is what it visits plus edges it crosses, so a search
    costs O(|verts| + edges among them).
    """
    left = set(verts)
    comps = []
    for s in verts:
        if s not in left:
            continue
        left.discard(s)
        comp = [s]
        queue = [s]
        while queue and left:
            v = queue.pop()
            new = left - nbr[v]
            if new:
                left &= nbr[v]
                comp.extend(new)
                queue.extend(new)
        comp.sort()
        comps.append(comp)
    return comps


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph induced by ``keep``, relabelled 0..k-1 in sorted order."""
    verts = sorted(set(keep))
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[u], index[v])
        for u in verts
        for v in g.adj[u]
        if u < v and v in index
    ]
    return Graph.from_edges(len(verts), edges)


def count_degrees(degrees: Sequence[int]) -> tuple[int, ...]:
    """How many of ``degrees`` equal d, for d from 0 to the largest.

    Over 64 degrees, all below 256, one count of the degrees' bytes per d
    until all are counted.  A count reads about a byte a nanosecond, some 30
    times as fast as a step of a loop over the degrees, so this stops at
    degree 32; a tree's max degree is usually far below that.  Past it, or
    else, one counting loop over the degrees.
    """
    counts: list[int] = []
    try:  # on 64 degrees or fewer the loop costs less than the bytes
        as_bytes = bytes(degrees) if len(degrees) > 64 else b""
    except ValueError:  # a degree of 256 or more
        as_bytes = b""
    while as_bytes and len(counts) < 32 and sum(counts) < len(degrees):
        counts.append(as_bytes.count(len(counts)))
    if sum(counts) < len(degrees):
        counts = [0] * (max(degrees) + 1)
        for d in degrees:
            counts[d] += 1
    return tuple(counts)


def m_degree_bound(g: Graph | Sequence[int]) -> int:
    """Largest i such that at least i vertices have degree >= i-1, of g or
    of a degree sequence, which is left as it is.

    The per-degree counts are summed from the top down, and the first
    degree d whose sum exceeds d gives i = d + 1, as the predicate holds on
    a prefix of i.  Those i vertices have a degree sum of at least
    i(i - 1), so the walk starts at degree isqrt(degree sum) + 1 or lower,
    and takes O(min(max degree, sqrt(edges))) steps.
    """
    n, counts, degree_sum = ((g.n, g.degree_counts, 2 * g.m) if isinstance(g, Graph)
                             else (len(g), count_degrees(g), sum(g)))
    top = min(len(counts) - 1, isqrt(degree_sum) + 1)
    total = n - sum(counts[: top + 1])  # the vertices of degree above top
    for d in range(top, -1, -1):
        total += counts[d]
        if total > d:
            return d + 1
    raise RangeError("m-bound requires at least one vertex")


def m_i_count(t: Graph, i: int) -> int:
    """Number of tree vertices of degree at least i-1, for i strictly above
    the degree bound and at most max degree + 1."""
    if not is_tree(t):
        raise NotATree("m_i is defined for trees")
    m, counts = m_degree_bound(t), t.degree_counts
    if not (m < i <= len(counts)):
        raise RangeError(f"i={i} outside ({m}, {len(counts)}]")
    return sum(counts[i - 1 :])


# ---------------------------------------------------------------------------
# Tree-cograph decomposition expressions
# ---------------------------------------------------------------------------


class _TcNode(_Record):
    """Equality, hashing and repr of expression nodes, on an explicit stack.

    These replace the record's methods, which would recurse once per level
    of nesting and fail on deep expressions.  As with them, nodes are equal
    when they have the same class and equal fields; ``span`` is left out,
    being derived.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            if isinstance(a, _TcOperation):
                if len(a.children) != len(b.children):
                    return False
                pairs.extend(zip(a.children, b.children))
            elif a.co != b.co or a.tree != b.tree or a.vertices != b.vertices:
                return False
        return True

    def __hash__(self) -> int:
        return _fold(
            self,
            lambda leaf: hash((leaf.co, leaf.tree, leaf.vertices)),
            lambda node, values: hash((node.head, *values)),
        )

    def __repr__(self) -> str:
        parts: list[str] = []
        stack: list = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
            elif isinstance(node, _TcOperation):
                parts.append(f"{type(node).__name__}(children=(")
                stack.append("))")
                for i, child in enumerate(reversed(node.children)):
                    if i:
                        stack.append(", ")
                    stack.append(child)
            else:
                parts.append(
                    f"TcLeaf(tree={node.tree!r}, vertices={node.vertices!r}, co={node.co!r})"
                )
        return "".join(parts)


class TcLeaf(_TcNode):
    """A leaf over a stored tree, denoting the tree itself or, with ``co``,
    its complement.  ``vertices[i]`` is the id, in the denoted graph, of
    local vertex i."""

    _fields = ("tree", "vertices", "co")
    tree: Graph
    vertices: tuple[int, ...]
    co: bool

    def __init__(self, tree: Graph, vertices: tuple[int, ...], co: bool = False) -> None:
        if not is_tree(tree):
            raise NotATree("leaf graph must be a tree")
        if len(vertices) != tree.n:
            raise ValueError("vertex map length mismatch")
        d = self.__dict__
        d["tree"], d["vertices"], d["co"] = tree, vertices, co

    @property
    def span(self) -> int:
        return self.tree.n

    @property
    def denotes_tree(self) -> bool:
        """The leaf rule: a leaf that is not ``co`` and has two or more
        vertices is a tree; every other leaf is a co-forest, the
        complement of ``tree``, since a vertex is its own complement."""
        return not self.co and self.tree.n >= 2


def _point(v: int) -> TcLeaf:
    """The leaf of the one vertex v over the shared ``_POINT``, made without
    the tree test, which every point passes."""
    leaf = object.__new__(TcLeaf)
    d = leaf.__dict__
    d["tree"], d["vertices"], d["co"] = _POINT, (v,), False
    return leaf


class _TcOperation(_TcNode):
    """A union or join of at least two subexpressions.  ``span``, the
    number of vertices denoted, is set once from the children's spans."""

    _fields = ("children",)
    head: ClassVar[str]
    children: tuple["TcExpr", ...]
    span: int

    def __init__(self, children: tuple["TcExpr", ...]) -> None:
        if len(children) < 2:
            raise ValueError(f"{self.head} needs at least two children")
        d = self.__dict__
        d["children"], d["span"] = children, sum(c.span for c in children)


class TcUnion(_TcOperation):
    head = "union"


class TcJoin(_TcOperation):
    head = "join"


TcExpr = TcLeaf | TcUnion | TcJoin
_T = TypeVar("_T")


def tc_postorder(e: TcExpr) -> Iterator[TcExpr]:
    """Every node of an expression, children before their parent and
    siblings left to right, from an explicit stack."""
    stack: list[tuple[TcExpr, bool]] = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded or isinstance(node, TcLeaf):
            yield node
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node.children))


def _fold(
    e: TcExpr,
    leaf: Callable[[TcLeaf], _T],
    operation: Callable[[TcUnion | TcJoin, list[_T]], _T],
) -> _T:
    """Combine leaf values bottom-up: ``operation`` receives a node and
    its children's values in order."""
    values: list[_T] = []
    for node in tc_postorder(e):
        if isinstance(node, TcLeaf):
            values.append(leaf(node))
        else:
            k = len(node.children)
            parts = values[-k:]
            del values[-k:]
            values.append(operation(node, parts))
    return values[0]


def _leaf_vertex_sets(e: TcExpr) -> list[int]:
    return [v for node in tc_postorder(e) if isinstance(node, TcLeaf) for v in node.vertices]


def evaluate_tc(e: TcExpr) -> Graph:
    """Build the graph an expression denotes, honoring the leaf vertex maps.

    The graph's rows are written directly, with no edge list: a leaf adds
    its tree's (or its complement's) rows, a join extends the row of each
    vertex of a child with the other children's vertex lists, and each row
    is sorted once at the end.  Every edge is added at one node only, so
    the rows have no repeats.
    """
    verts = _leaf_vertex_sets(e)
    n = len(verts)
    if sorted(verts) != list(range(n)):
        raise ValueError("leaf vertex maps must partition 0..n-1")
    rows: list[list[int]] = [[] for _ in range(n)]

    def leaf(node: TcLeaf) -> list[int]:
        tree = complement(node.tree) if node.co else node.tree
        ids = node.vertices
        for v, nbrs in zip(ids, tree.adj):
            rows[v].extend(map(ids.__getitem__, nbrs))
        return list(ids)

    def operation(node: TcUnion | TcJoin, spans: list[list[int]]) -> list[int]:
        if isinstance(node, TcJoin):
            out = list(chain.from_iterable(spans))
            start = 0
            for span in spans:
                end = start + len(span)
                others = out[:start] + out[end:]
                for v in span:
                    rows[v].extend(others)
                start = end
            return out
        # grow the largest child's list, so each vertex is copied O(log n) times
        spans.sort(key=len, reverse=True)
        out = spans[0]
        for span in spans[1:]:
            out.extend(span)
        return out

    _fold(e, leaf, operation)
    return Graph(n, tuple(tuple(sorted(row)) for row in rows))


def _leaf_tree(nbr: Sequence[frozenset[int]], verts: list[int], co: bool) -> Graph:
    """The subgraph induced by ``verts``, or with ``co`` its complement,
    relabelled 0..k-1 in order."""
    index = {v: i for i, v in enumerate(verts)}
    inside = set(verts)
    rows = (inside.difference(nbr[v], (v,)) if co else nbr[v] & inside for v in verts)
    return Graph(len(verts), tuple(tuple(sorted(map(index.__getitem__, row))) for row in rows))


def decompose_tree_cograph(g: Graph) -> TcExpr:
    """Four-case decomposition: a leaf for a tree, a ``co`` leaf for a
    co-tree, a union over components, a join over co-components; fails
    with NotTreeCograph otherwise, and for the empty graph.

    A plain leaf wins over a ``co`` leaf when both apply, and children are
    ordered by their smallest contained vertex, so the result is canonical.

    One loop decomposes every node, from an explicit stack.  A node is
    ``(order, lo, hi, off, dsum, verts)``: ``order[lo:hi]`` holds its
    vertices sorted by degree; ``off`` is what the joins above it took from
    each degree, so a vertex's degree in the node is ``g.degrees[v] - off``;
    ``dsum`` is the node's degree sum, so its edge count is ``dsum // 2``;
    and ``verts`` is its vertex-sorted list, or None when it has none yet.
    No degree is ever written.  A node's isolated vertices lie at the low
    end of ``order`` and its universal ones at the high end.  A node with
    an isolated vertex is disconnected, and each such vertex is a component
    alone; the rest is connected when it holds a vertex adjacent to all of
    it.  A node with a universal vertex is connected, each such vertex is a
    co-component alone, and the rest is one co-component when it holds a
    vertex adjacent to none of it.  Only a node with neither, or a rest
    with neither, is searched, and the tree and co-tree tests search only
    when the edge count allows.

    Costs: a rest of one part is pushed as the same ``order`` with new
    bounds, a join's rest with ``off`` raised and ``dsum`` lowered, so a
    peel level costs O(peeled), and a threshold graph's chain of n levels
    costs one sort and O(n) steps.  A node S that splits costs
    O(|S| + m(S)) for its search, with m(S) edges, and O(|S| log |S|) to
    sort each part by degree once; a join part's ``off`` grows by the
    vertices outside it.  A vertex's neighbor set is made from its row the
    first time a search or a leaf reads it, so g's ``nbr_sets`` are not
    built, and a chain of one-vertex levels makes sets for its last leaf at
    most.  Every one-vertex part, the one-vertex graph included, is done at
    once as a leaf over the shared ``_POINT``.  The other parts are pushed
    in reverse, so they finish in the order they were found.  Each done
    expression is kept with its least vertex, and each operation sorts its
    children by it once, which moves nothing and costs k - 1 comparisons
    when they are already ascending.  No node builds an induced subgraph
    or a complement; only a leaf builds its tree, which has |S| - 1 edges.
    """
    if not g.n:
        raise NotTreeCograph("the empty graph has no vertices")
    if g.n == 1:
        return _point(0)
    adj, degree = g.adj, g.degrees
    nbr: list[frozenset[int] | None] = [None] * g.n
    unmade = g.n

    def sets(verts: list[int]) -> tuple[list, list[int]]:
        """The neighbor sets by vertex, each of ``verts`` made if it was
        not, and ``verts``: the arguments of a search or a leaf."""
        nonlocal unmade
        if unmade:
            missing = [v for v in verts if nbr[v] is None]
            for v in missing:
                nbr[v] = frozenset(adj[v])
            unmade -= len(missing)
        return nbr, verts

    done: list[tuple[int, TcExpr]] = []  # each with its least vertex
    everything = list(range(g.n))
    # a node, or (operation, child count) once its children, pushed above it
    # or already in done, are done
    todo: list = [(sorted(everything, key=degree.__getitem__), 0, g.n, 0, 2 * g.m, everything)]
    second = itemgetter(1)
    while todo:
        item = todo.pop()
        if len(item) == 2:
            kind, k = item
            children = done[-k:]
            del done[-k:]
            children.sort()  # by least vertex: they differ, so no two nodes are compared
            done.append((children[0][0], kind(tuple(map(second, children)))))
            continue
        order, lo, hi, off, dsum, verts = item
        s, top, m = hi - lo, hi - lo - 1, dsum // 2
        low, high = degree[order[lo]] - off, degree[order[hi - 1]] - off
        # an isolated vertex disconnects a node (of two or more vertices); a
        # universal vertex connects it and disconnects its complement
        lone, full = low == 0, high == top
        comps = cocomps = co = None
        if m == top:  # a tree iff connected
            if not (lone or full):
                comps = _components(*sets(order[lo:hi]))
            if full or comps and len(comps) == 1:
                co = False
        if co is None and s * top // 2 - m == top:  # a co-tree iff its complement is connected
            if not (lone or full):
                cocomps = _co_components(*sets(order[lo:hi]))
            if lone or cocomps and len(cocomps) == 1:
                co = True
        if co is not None:
            verts = verts or sorted(order[lo:hi])
            done.append((verts[0], TcLeaf(_leaf_tree(*sets(verts), co), tuple(verts), co)))
            continue
        # parts is None when the rest left by the peeled points is one part
        if lone:
            cut = lo + 1
            while cut < hi and degree[order[cut]] == off:
                cut += 1
            kind, points, lo = TcUnion, order[lo:cut], cut
            # one part when the rest holds a vertex adjacent to all of it
            parts = None if high == hi - lo - 1 else _components(*sets(order[lo:hi]))
        elif full:
            cut = hi - 1
            while cut > lo and degree[order[cut - 1]] - off == top:
                cut -= 1
            kind, points, hi = TcJoin, order[cut:hi], cut
            # one part when the rest holds a vertex adjacent to none of it
            parts = None if low == len(points) else _co_components(*sets(order[lo:hi]))
            # each point had degree top, and each vertex left loses them all
            dsum -= len(points) * (top + hi - lo)
            off += len(points)
        elif len(comps := comps or _components(*sets(order[lo:hi]))) > 1:
            kind, points, parts = TcUnion, (), comps
        elif len(cocomps := cocomps or _co_components(*sets(order[lo:hi]))) > 1:
            kind, points, parts = TcJoin, (), cocomps
        else:
            raise NotTreeCograph(
                "connected graph with connected complement that is neither a "
                "tree nor a co-tree"
            )
        done.extend(zip(points, map(_point, points)))
        if parts is None:
            todo += (kind, len(points) + 1), (order, lo, hi, off, dsum, None)
            continue
        todo.append((kind, len(points) + len(parts)))
        for part in reversed(parts):
            o = off + hi - lo - len(part) if kind is TcJoin else off
            todo.append((sorted(part, key=degree.__getitem__), 0, len(part), o,
                         sum(map(degree.__getitem__, part)) - o * len(part), part))
    return done[0][1]


# ---------------------------------------------------------------------------
# Small constructors, used across the test-suite and the CLI
# ---------------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, ())


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    return Graph.from_edges(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def graph_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; b's vertices are shifted by a.n."""
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph.from_edges(a.n + b.n, edges)


def graph_join(a: Graph, b: Graph) -> Graph:
    """Disjoint union plus all edges across the two parts."""
    edges = list(graph_union(a, b).edges)
    edges += [(u, a.n + v) for u in range(a.n) for v in range(b.n)]
    return Graph.from_edges(a.n + b.n, edges)
