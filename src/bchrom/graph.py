"""Simple undirected graphs, structural predicates and tree-cograph
decomposition.

Vertices are dense integers ``0..n-1``.  Adjacency is stored as sorted
tuples.  Graphs and expression nodes are records: their immutability,
structural equality and hashing come from the record base ``_Record``,
which the package's other records share, and which, unlike a dataclass,
generates no class code at import.  All operations here are pure
functions of their inputs.

Derived views of a graph are computed once and kept on it, with no lock
taken on the first read: its edge list, degrees, bitmasks, neighbor sets,
connected components and its complement.
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
of its graph directly.  The tree-cograph decomposition works on sorted
vertex subsets of the input graph and splits off isolated and universal
vertices by their degrees.  A node that leaves a rest of one part starts
a peel run: one sort of the node by degree, then O(peeled) per level
while each rest peels the same way, so a threshold graph's chain of n
levels costs O(n log n) and not n^2 list steps.  Any other list S with
m(S) edges is searched with set operations in O(|S| + m(S)).  A vertex's
neighbor set is made from its row the first time a search or a leaf
reads it, so a chain makes few or none, and every one-vertex part is
made at once as a leaf over the shared one-vertex graph.  Evaluation and
decomposition walk expressions on an explicit stack, so neither their
time nor Python's recursion limit grows with the depth of the
expression.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress, islice
from operator import lt, not_
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

        ``fileio.parse_edgelist`` calls it on the edge lists that its
        co-forest and dense-row readers refuse: those with fewer than 12n
        edges or a density below 1/4, and those whose text is not
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
        return max(self.degrees, default=0)

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


def m_degree_bound(g: Graph | list[int]) -> int:
    """Largest i such that at least i vertices have degree >= i-1, of g or
    of a degree sequence given as a list, which is sorted in place."""
    degs = list(g.degrees) if isinstance(g, Graph) else g
    if not degs:
        raise RangeError("m-bound requires at least one vertex")
    degs.sort(reverse=True)
    # with degrees non-increasing the predicate holds on a prefix of i
    m = 0
    for i, d in enumerate(degs, start=1):
        if d < i - 1:
            break
        m = i
    return m


def m_i_count(t: Graph, i: int) -> int:
    """Number of tree vertices of degree at least i-1, for i strictly above
    the degree bound and at most max degree + 1."""
    if not is_tree(t):
        raise NotATree("m_i is defined for trees")
    m = m_degree_bound(t)
    delta = t.max_degree()
    if not (m < i <= delta + 1):
        raise RangeError(f"i={i} outside ({m}, {delta + 1}]")
    return sum(d >= i - 1 for d in t.degrees)


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
    relabelled 0..k-1 in order; every one-vertex list gets the one shared
    ``_POINT``."""
    if len(verts) == 1:
        return _POINT
    index = {v: i for i, v in enumerate(verts)}
    inside = set(verts)
    rows = (inside.difference(nbr[v], (v,)) if co else nbr[v] & inside for v in verts)
    return Graph(len(verts), tuple(tuple(sorted(map(index.__getitem__, row))) for row in rows))


def _part(verts: list[int]) -> list[int] | TcLeaf:
    """A part to push for decomposition; one vertex is its leaf at once."""
    return _point(verts[0]) if len(verts) == 1 else verts


def decompose_tree_cograph(g: Graph) -> TcExpr:
    """Four-case decomposition: a leaf for a tree, a ``co`` leaf for a
    co-tree, a union over components, a join over co-components; fails
    with NotTreeCograph otherwise, and for the empty graph.

    A plain leaf wins over a ``co`` leaf when both apply, and children are
    ordered by their smallest contained vertex, so the result is canonical.

    Nodes are sorted vertex lists of g, kept on an explicit stack.  The
    degree of each vertex inside its current list is kept too: a component
    keeps it, and a co-component loses the vertices outside it, to which
    each of its vertices is adjacent.  So a node's edge count is a sum, and
    its isolated and universal vertices are read off the degrees.  A node
    with an isolated vertex is disconnected, and each such vertex is a
    component alone; the rest is connected when it holds a vertex adjacent
    to all of it.  A node with a universal vertex is connected, each such
    vertex is a co-component alone, and the rest is one co-component when
    it holds a vertex adjacent to none of it.  Only a node with neither,
    or a rest with neither, is searched, and the tree and co-tree tests
    search only when the edge count allows.

    Costs: a node that peels into a rest of one part starts a peel run
    (``_peel_run``), which sorts the node by degree once and then costs
    O(peeled) per level while each rest does the same.  A searched list S
    with m(S) edges costs O(|S| + m(S)), any other node O(|S|) in
    whole-list operations.  A vertex's neighbor set is made from its row
    the first time a search or a leaf reads it, so g's ``nbr_sets`` are not
    built, and a chain of one-vertex levels makes sets for its last leaf
    at most.  Every one-vertex part becomes its leaf over the shared
    ``_POINT`` at once.  No node builds an induced subgraph or a
    complement; only a leaf builds its tree, which has |S| - 1 edges.
    """
    if not g.n:
        raise NotTreeCograph("the empty graph has no vertices")
    adj = g.adj
    nbr: list[frozenset[int] | None] = [None] * g.n
    unmade = g.n

    def sets(verts: list[int]) -> list:
        """The neighbor sets by vertex, each of ``verts`` made if it was not."""
        nonlocal unmade
        if unmade:
            missing = [v for v in verts if nbr[v] is None]
            for v in missing:
                nbr[v] = frozenset(adj[v])
            unmade -= len(missing)
        return nbr

    degree = list(g.degrees)
    done: list[TcExpr] = []
    # a vertex list to decompose, a leaf that is done, or (operation, child
    # count) once its children, pushed above it, are done
    todo: list = [list(range(g.n))]
    while todo:
        item = todo.pop()
        if isinstance(item, TcLeaf):
            done.append(item)
            continue
        if isinstance(item, tuple):
            kind, k = item
            children = tuple(done[-k:])
            del done[-k:]
            done.append(kind(children))
            continue
        verts = item
        s = len(verts)
        top = s - 1
        degs = list(map(degree.__getitem__, verts))
        m = sum(degs) // 2
        # an isolated vertex disconnects a list of two or more (a list of
        # one is a tree leaf); a universal vertex connects the list and
        # disconnects its complement
        lone, full = 0 in degs, top in degs
        comps = cocomps = None
        if m == top:  # a tree iff connected
            if not (lone or full):
                comps = _components(sets(verts), verts)
            if full or comps and len(comps) == 1:
                done.append(TcLeaf(_leaf_tree(sets(verts), verts, False), tuple(verts)))
                continue
        if s * top // 2 - m == top:  # a co-tree iff its complement is connected
            if not (lone or full):
                cocomps = _co_components(sets(verts), verts)
            if lone or cocomps and len(cocomps) == 1:
                done.append(TcLeaf(_leaf_tree(sets(verts), verts, True), tuple(verts), co=True))
                continue
        if lone:
            kind = TcUnion
            rest = list(compress(verts, degs))
            if len(rest) - 1 in degs:  # a vertex adjacent to all of the rest
                _peel_run(verts, 2 * m, degree, done, todo)
                continue
            parts = [[v] for v in compress(verts, map(not_, degs))]
            parts += _components(sets(rest), rest)
        elif full:
            kind = TcJoin
            rest = list(compress(verts, map(top.__ne__, degs)))
            if s - len(rest) in degs:  # a vertex of the rest adjacent to none of it
                _peel_run(verts, 2 * m, degree, done, todo)
                continue
            parts = [[v] for v in compress(verts, map(top.__eq__, degs))]
            parts += _co_components(sets(rest), rest)
        elif len(comps := comps or _components(sets(verts), verts)) > 1:
            kind, parts = TcUnion, comps
        elif len(cocomps := cocomps or _co_components(sets(verts), verts)) > 1:
            kind, parts = TcJoin, cocomps
        else:
            raise NotTreeCograph(
                "connected graph with connected complement that is neither a "
                "tree nor a co-tree"
            )
        parts.sort()  # by first vertex, as the parts are disjoint
        if kind is TcJoin:
            for part in parts:
                outside = s - len(part)
                for v in part:
                    degree[v] -= outside
        todo.append((kind, len(parts)))
        todo.extend(map(_part, reversed(parts)))
    return done[0]


def _peel_run(verts: list[int], dsum: int, degree: list[int], done: list, todo: list) -> None:
    """Decompose the node ``verts``, which peels its isolated or universal
    vertices and leaves a rest of one part, and each rest below it that
    does the same; push the last rest for ``decompose_tree_cograph``.

    ``dsum`` is the sum of the node's degrees.  The node is sorted by degree
    once, and each level peels from one end of that order: isolated vertices
    from the low end, universal ones from the high end.  Every remaining
    vertex is adjacent to each universal vertex peeled, so their count is
    kept as one ``offset``, and a vertex's degree in the current rest is
    ``degree[v] - offset``, written back only on the last rest.  The
    rest's degree sum gives its edge count, and a pointer that walks
    ``verts`` past peeled vertices gives its least vertex.  Each level runs
    the tests of ``decompose_tree_cograph`` in the same order and ends the
    run on a rest of two vertices or fewer, a leaf, a rest with nothing to
    peel or one that splits; so a level costs O(peeled).  Its peeled
    vertices below the rest's least vertex are done at once, and the others
    are pushed with the level's operation, to follow the last rest, as
    ``parts.sort()`` orders the node's children.
    """
    order = sorted(verts, key=degree.__getitem__)
    lo, hi, offset, first = 0, len(order), 0, 0
    gone: set[int] = set()
    while hi - lo > 2:
        s = hi - lo
        top, m = s - 1, dsum // 2
        low, high = degree[order[lo]] - offset, degree[order[hi - 1]] - offset
        lone, full = low == 0, high == top
        if m == top and full or s * top // 2 - m == top and lone:
            break  # a leaf; a node whose leaf test must search has nothing to peel
        if lone:
            cut = lo + 1
            while cut < hi and degree[order[cut]] == offset:
                cut += 1
            if high != hi - cut - 1:  # no vertex adjacent to all of the rest
                break
            kind, peeled, lo = TcUnion, order[lo:cut], cut
        elif full:
            cut = hi - 1
            while cut > lo and degree[order[cut - 1]] - offset == top:
                cut -= 1
            if low != hi - cut:  # no vertex of the rest adjacent to none of it
                break
            kind, peeled, hi = TcJoin, order[cut:hi], cut
            # each peeled vertex had degree top, and each left loses them all
            dsum -= len(peeled) * (top + hi - lo)
            offset += len(peeled)
        else:
            break
        gone.update(peeled)
        while verts[first] in gone:
            first += 1
        peeled.sort()
        below = bisect_left(peeled, verts[first])
        done.extend(map(_point, peeled[:below]))
        todo.append((kind, len(peeled) + 1))
        todo.extend(map(_point, reversed(peeled[below:])))
    rest = sorted(order[lo:hi])
    if offset:
        for v in rest:
            degree[v] -= offset
    todo.append(_part(rest))


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
