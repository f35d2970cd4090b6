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

The recurrence is written once, as ``RULES``: ``RULES[s]`` lists the ways
the edge into a vertex reaches state s from the edges into its children.  A
rule ``(dist, rest, edges, defects)`` lets every child take the cheapest of
its states in ``rest``, except that exactly one child takes state ``dist``
when it is not None, and adds ``edges`` matching edges (the parent-child
edge) and ``defects`` to the deficiency.  With no children the rules give
the leaf tables: no child costs nothing, and exactly one is impossible.
Held-free has no rule with one pair-free child and the rest root-free:
pair-free is pair-shared plus one defect at every k, so such a split never
costs less than the rule with every child at root-free or pair-shared and
one defect.

A matching is strongly maximal exactly when its deficiency is zero, so the
scalar DP is the zero-deficiency part of the same table: states 0-4 and the
rules with ``defects == 0`` that distinguish no pair-free child (a pair-free
child always carries two defects).  Its cost is the number of edges.

The vector DP runs on packed lanes (``_Lanes``).  A size-indexed vector is
one int of fixed-width lanes, entry k in bits [k*w, (k+1)*w).  A lane's top
bit is its guard bit, kept clear; the INF lane holds 2**(w-2), and finite
entries stay below it, so a finite entry added to an INF lane stays below
the guard bit.  Over the guard bits H of a vector, the lanewise minimum is
``t = ((a|H) - b) & H; m = t - (t >> (w-1)); a ^ ((a ^ b) & m)``, and adding
to the finite lanes, moving up by whole lanes and truncating take a few
big-int operations each.  The lane width follows from a bound on the
values: 16 bits while the bound is below 2**14, else 64.  For a tree's
tables the bound is 2n + 2, since a vertex adds at most two defects; for
list operands it is the most a sum of them can reach, once an offset has
lifted negative entries to zero.  ``DeficiencyTables.values`` is the list
view of the packed tables, unpacked on first read.

No table build walks a rule table per vertex, and no loop here is a
min-plus product.  ``rows.compile_rows`` writes the row of a rule table as
straight-line Python source, once per process on first use: per child, the
rest minima and the dist states; per pair of children, the min-plus
products of the one-distinguished folds and the all-rest combines, all in
one loop over the lanes of the shorter operand; per state, the least of its
rules' terms, each an accumulator moved up by ``edges`` and raised by
``defects``.  A row is a product over the children that may be taken in any
grouping (see ``rows.compile_rows``).  The table builds run the rows of
``RULES`` and of its zero-deficiency part, and every childless vertex
shares the one leaf row.  The scalar row also records, per state, the rule
its value took and the child that rule's one-distinguished fold picked.
``SmmTables`` keeps those records, and the scalar witness walk
(``reconstruct_smm``) follows them down the tree, with every other child at
its first cheapest state in the rule's rest, so it tries no rule.  In the
vector build, a vertex with one child finishes its row off that child's
contribution, with no merge, and the leaf children of a vertex enter as a
single block: the leaf's product raised to the power j by repeated
squaring, made once per distinct j in a build.  A block is made at sizes 0
and 1 alone.  A leaf has a size-1 matching only at edge-loose and
edge-strict, the dist states, which every rest leaves out, and a rule has
at most one dist child, so no product of leaves is finite above size 1.
Only the children with children of their own are multiplied in one by one.

Everything else runs one rule read as a one-state table, whose row is a
single product.  ``combine_all`` (and through it ``minplus_convolve``) and
``split_size`` fold their list operands, packed up to their INF tails, in
the merge of ``_ALL``, which takes each operand as it is; ``_product``
keeps the prefix products of that fold, ``combine_all`` reads the last one,
with the tails padded back as it unpacks, and ``split_size`` goes back over
them all.  ``deficiency_vector`` reads the root minimum as the
contribution of ``_ROOT``.

The deficiency witness walk (``reconstruct_deficiency_matching``) reads the
products the vector build made on its way to each row, which
``DeficiencyTables.products`` keeps: per vertex, its leaf block and the
product after each child with children of its own, the last being the one
its row was finished from.  From the root down, a vertex's state, size and
cost name its rule: the one whose accumulator in the last product has that
cost, less the rule's defects, at that size less its edges (at most two
lane reads).  Going back over the children with children of their own,
each child's share is the least size at which its lane of a state in the
rule's rest, added to the product before it, reaches the cost: both
windows are unpacked and searched in C.  The product before the first
such child is the leaf block, or the empty product when there is none;
then that child takes what is left, read off one lane per state.  A
one-distinguished accumulator keeps dist among the earlier factors when it
can, else gives it to this child and goes on with its all-rest
accumulator.  The leaf children then take what is left, size 0 or 1, and
one lane of their block's accumulator checks its cost.  At size 1 the
first leaf child takes dist, its parent edge matched; every other leaf
stays unmatched.  No leaf is pushed on the stack; each vertex emits the
parent edge of every child it puts at edge-loose or edge-strict.  On random
trees the kept products add about three quarters to the tables' memory
(tracemalloc: 25.7 MB to 44.5 MB at 8200 vertices).
``split_size`` reads its total off the last of ``_product``'s prefix
products over the components' F vectors and goes back over the others the
same way.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from functools import cache
from operator import add
from typing import Iterable

from .errors import InvariantViolation, KOutOfRange, NotATree
from .graph import Edge, Graph, _cached, _Record, is_tree
from .graph import norm_edge
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


class RootedTree(_Record):
    _fields = ("graph", "root", "anchor", "parent", "children", "order", "subtree_size")
    graph: Graph
    root: int
    anchor: int
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]  # children before parents; excludes the root
    subtree_size: tuple[int, ...]

    def __init__(self, graph: Graph, root: int, anchor: int, parent: tuple[int, ...],
                 children: tuple[tuple[int, ...], ...], order: tuple[int, ...],
                 subtree_size: tuple[int, ...]) -> None:
        d = self.__dict__
        d["graph"], d["root"], d["anchor"], d["parent"] = graph, root, anchor, parent
        d["children"], d["order"], d["subtree_size"] = children, order, subtree_size


def root_tree(t: Graph) -> RootedTree:
    """Root a tree at its lowest-indexed leaf; the anchor is its neighbor."""
    if not is_tree(t):
        raise NotATree("rooting requires a tree")
    if t.n < 2:
        raise NotATree("rooting requires at least two vertices")
    root = t.degrees.index(1)
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
    for v in bfs[1:]:  # in ascending order per parent: its row is sorted, and the BFS follows it
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
        tuple(map(tuple, children)),
        order,
        tuple(size),
    )


# ---------------------------------------------------------------------------
# The recurrence, written once
# ---------------------------------------------------------------------------

RULES: tuple[tuple[tuple[int | None, tuple[int, ...], int, int], ...], ...] = (
    ((2, (3, 4), 0, 0),),
    ((None, (3, 4), 1, 0),),
    ((None, (3,), 1, 0), (None, (3, 4), 1, 1)),
    ((1, (3,), 0, 0), (2, (3, 4), 0, 0)),
    ((None, (0,), 0, 0), (None, (0, 6), 0, 1)),
    ((None, (0, 6), 0, 2),),
    ((None, (0, 6), 0, 1),),
)

_SMM_RULES = tuple(  # the zero-deficiency part, as the module docstring says
    tuple(r for r in rules if r[3] == 0 and (r[0] is None or r[0] < 5)) for rules in RULES[:5]
)


# ---------------------------------------------------------------------------
# Minimum strongly maximal matching (scalar tables)
# ---------------------------------------------------------------------------


class SmmTables(_Record):
    """Per vertex, the five state values of the edge into it, and what its
    row chose for each (see ``rows.compile_rows``): ``records[v][s]`` is
    ``len(_SMM_RULES[s]) * (i + 1) + r`` when state s took rule r with child
    i at the rule's dist, or r for a rule with no distinguished child."""

    _fields = ("tree", "values", "records")
    tree: RootedTree
    values: dict[int, tuple[float, float, float, float, float]]
    records: dict[int, tuple[int, int, int, int, int]]

    def __init__(self, tree: RootedTree, values: dict[int, tuple[float, float, float, float, float]],
                 records: dict[int, tuple[int, int, int, int, int]]) -> None:
        d = self.__dict__
        d["tree"], d["values"], d["records"] = tree, values, records


def smm_tables(t: Graph) -> SmmTables:
    from .rows import compile_rows  # on first use: importing bchrom compiles none of it

    rt, row = root_tree(t), compile_rows(_SMM_RULES, vector=False)
    vals: dict[int, tuple[float, float, float, float, float]] = {}
    recs: dict[int, tuple[int, int, int, int, int]] = {}
    leaf = row([])  # every childless vertex shares this row
    for v in rt.order:
        cs = rt.children[v]
        vals[v], recs[v] = row([vals[c] for c in cs]) if cs else leaf
    return SmmTables(rt, vals, recs)


def reconstruct_smm(tables: SmmTables) -> Matching:
    """Witness matching achieving min over the root states 0 and 1: each
    vertex's recorded rule and distinguished child, and every other child at
    its first cheapest state in the rule's rest."""
    rt, vals, recs = tables.tree, tables.values, tables.records
    s0 = rt.anchor
    out: list[Edge] = []
    stack = [(s0, 0 if vals[s0][0] <= vals[s0][1] else 1)]
    while stack:
        v, st = stack.pop()
        at, r = divmod(recs[v][st], len(_SMM_RULES[st]))
        dist, rest, edges, _ = _SMM_RULES[st][r]
        if edges:
            out.append(norm_edge(rt.parent[v], v))
        cs, a, b = rt.children[v], rest[0], rest[-1]  # a rest here holds one or two states
        picks = [b if vals[c][b] < vals[c][a] else a for c in cs]
        if at:
            picks[at - 1] = dist
        stack.extend(zip(cs, picks))
    return frozenset(out)


def min_smm_tree(t: Graph, tables: SmmTables | None = None) -> tuple[int, Matching]:
    """Minimum cardinality of a strongly maximal matching, with a witness.
    ``tables``, when given, are t's scalar tables, so they are not built again."""
    if not is_tree(t):
        raise NotATree("minimum strongly maximal matching DP requires a tree")
    if t.n == 1:
        return 0, frozenset()
    tables = tables or smm_tables(t)
    best = min(tables.values[tables.tree.anchor][:2])
    witness = reconstruct_smm(tables)
    if len(witness) != best:
        raise InvariantViolation("witness size disagrees with DP value")
    return int(best), witness


def lift(comps: tuple[tuple[int, ...], ...], matchings: Iterable) -> Matching:
    """A graph's matching made of one matching of each of its components
    ``comps``, each given on the graph its component induces."""
    return frozenset(norm_edge(c[u], c[v]) for c, mm in zip(comps, matchings) for u, v in mm)


# ---------------------------------------------------------------------------
# Packed lanes, and the list functions as rows of one rule
# ---------------------------------------------------------------------------


_BIG_ENDIAN = sys.byteorder == "big"


class _Lanes:
    """Lanes for vectors of at most ``most`` entries, finite ones below
    ``bound`` (see the module docstring); made per call, never at import."""

    __slots__ = ("code", "width", "inf", "most", "high", "made")

    def __init__(self, bound: int, most: int) -> None:
        self.code = "H" if bound < 1 << 14 else "Q"
        guard = array(self.code, [0])
        self.width = 8 * guard.itemsize
        self.inf = 1 << (self.width - 2)
        if bound >= self.inf:
            raise OverflowError(f"values up to {bound} do not fit a {self.width}-bit lane")
        guard[0] = 2 * self.inf
        self.most = most
        self.high = int.from_bytes(guard.tobytes() * most, sys.byteorder)
        self.made: dict[tuple, tuple] = {}

    # Items go through int.from_bytes and int.to_bytes in sys.byteorder; on
    # a big-endian host the first item is the most significant, so the items
    # are reversed to keep lane 0 least significant.

    def pack(self, lanes: list[int]) -> int:
        items = array(self.code, lanes)
        if _BIG_ENDIAN:
            items.reverse()
        return int.from_bytes(items, sys.byteorder)

    def unpack(self, x: int, n: int) -> array:
        """Lanes 0..n-1 of x."""
        raw = (x & ((1 << n * self.width) - 1)).to_bytes(n * self.width // 8, sys.byteorder)
        items = array(self.code, raw)
        if _BIG_ENDIAN:
            items.reverse()
        return items

    def to_list(self, x: int, m: int, n: int, off: int = 0) -> list[float]:
        """n entries: lanes 0..m-1 of x, INF or less ``off``, and INF past them."""
        infs = self.high >> (self.most - min(m, n)) * self.width >> 1
        at_inf = x & infs  # the INF lanes' bits; a finite lane lacks it
        k = ((infs ^ at_inf).bit_length() + self.width - 1) // self.width  # to the last finite
        lanes, inf = self.unpack(x, k), self.inf
        if not at_inf:
            return [y - off for y in lanes] + [INF] * (n - k)
        return [INF if y == inf else y - off for y in lanes] + [INF] * (n - k)

    def lane(self, x: int, k: int) -> int:
        return (x >> k * self.width) & ((1 << self.width) - 1)

    def rows(self, table: tuple):
        """The packed row functions of a rule table on these lanes, made
        once per kernel and table."""
        made = self.made.get(table)
        if made is None:
            from .rows import compile_rows  # on first use: importing bchrom compiles none of it

            made = self.made[table] = compile_rows(table, vector=True)(self)
        return made


def _finite(v: list[float]) -> int:
    """The lanes a list operand is packed in: its length less its INF tail,
    and at least one, since an INF tail adds nothing to a min-plus product
    and ``_Lanes.to_list`` pads it back.  Two passes in C find the tail when
    every INF lies in it, as in F vectors; else the whole length is kept."""
    n, tail = len(v), v.count(INF)
    return max(n - tail, 1) if v[n - tail:].count(INF) == tail else n


def _packed(vecs: list[list[float]]) -> tuple[_Lanes, int, list[tuple[int, int]]]:
    """Lanes for list vectors, their shared offset and each vector packed up
    to its INF tail (``_finite``), as a product of one: (lanes, vector).  The
    offset lifts negative entries (from ``dominance_join``) to zero, so a
    product of c vectors carries it c times; no such product passes c times
    the largest lifted entry."""
    lens = list(map(_finite, vecs))
    finite = set().union(*[v[:n] for v, n in zip(vecs, lens)]) - {INF}
    off = max(0, -min(finite, default=0))
    kern = _Lanes(len(vecs) * (max(finite, default=0) + off), sum(lens))
    inf, pack = kern.inf, kern.pack
    return kern, off, [(n, pack([inf if x == INF else x + off for x in v[:n]] + [inf] * (n - len(v))))
                       for v, n in zip(vecs, lens)]


# Rules read as one-state tables ``((rule,),)`` (see ``rows.compile_rows``):
# every one-vector row at its vector, and the root minimum of a deficiency table.
_ALL = (None, (0,), 0, 0)
_ROOT = (None, (0, 1, 5), 0, 0)


def _product(kern: _Lanes, xs: list[tuple[int, int]], cap: int) -> list[tuple[int, int]]:
    """The products of ``_ALL`` over the first i packed vectors of xs, each
    (lanes, vector), for i = 0..len(xs), at sizes up to cap: the empty
    product, then one per vector.  The rule's row has one state, its
    accumulator, which neither moves nor rises, so it is read off a product
    without ``finish``."""
    empty, _, merge, _ = kern.rows(((_ALL,),))
    kept = [empty, *xs[:1]]
    for x in xs[1:]:
        kept.append(merge(kept[-1], x, cap))
    return kept


def minplus_convolve(a: list[float], b: list[float], cap: int | None = None) -> list[float]:
    """h[k] = min over i+j=k of a[i]+b[j], for k up to len(a)+len(b)-2 and
    at most cap; INF where no split has two finite entries."""
    top = len(a) + len(b) - 2 if cap is None else min(cap, len(a) + len(b) - 2)
    if top < 0:
        return []
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:  # one entry shifts the other; INF plus it stays INF
        return [INF] * (top + 1) if a[0] == INF else [y + a[0] for y in b[:top + 1]]
    return combine_all([a, b], top)


def combine_all(children: list[list[float]], cap: int | None = None) -> list[float]:
    """Min-cost way to split a total k across all children, at sizes up to
    cap and to the sum of the children's largest sizes; the empty list
    combines to cost zero at k=0."""
    if not children:
        return [0]
    if len(children) == 1 or cap is not None and cap < 0:
        return children[0][:None if cap is None else max(cap + 1, 0)]
    kern, off, xs = _packed(children)
    top = sum(map(len, children)) - len(children)
    top = top if cap is None else min(cap, top)
    n, acc = _product(kern, xs, top)[-1]
    return kern.to_list(acc, n, top + 1, len(children) * off)


# ---------------------------------------------------------------------------
# Deficiency DP: minimum of the two deficiency counts at exact size k
# ---------------------------------------------------------------------------


def _lanes(rt: RootedTree, v: int) -> int:
    """Lanes on the edge into v: sizes up to what its subtree and parent hold, and n // 2."""
    return min(rt.graph.n // 2, (rt.subtree_size[v] + 1) // 2) + 1


class DeficiencyTables(_Record):
    """Per vertex, the seven packed state vectors of the edge into it;
    ``values`` is their list view, unpacked on first read.

    ``products`` keeps, per vertex with children, the products its row was
    read off, for the witness walk: ``products[v][i]`` is the product over
    v's leaf children and its first i children with children of their own
    (the kernel's empty product at i = 0 when v has no leaf child), and the
    last entry is the product v's row was finished from.  Leaf blocks are
    shared between the vertices with as many leaf children, so the products
    hold one product, of six packed vectors, per child with children of its
    own: about three quarters more memory than the rows on random trees
    (see the module docstring).  They stay out of equality and repr, which
    read the three fields alone.  ``deficiency_tables`` always passes them;
    tables made from the fields alone, as a record built by its fields is,
    hold None, and the walk refuses them with ``InvariantViolation``."""

    _fields = ("tree", "kernel", "packed")
    tree: RootedTree
    kernel: _Lanes
    packed: dict[int, tuple[int, ...]]
    products: dict[int, tuple] | None

    def __init__(self, tree: RootedTree, kernel: _Lanes, packed: dict[int, tuple[int, ...]],
                 products: dict[int, tuple] | None = None) -> None:
        d = self.__dict__
        d["tree"], d["kernel"], d["packed"], d["products"] = tree, kernel, packed, products

    @_cached
    def values(self) -> dict[int, tuple[list[float], ...]]:
        kern, out = self.kernel, {}
        cell = {kern.inf: INF}.get
        for v, row in self.packed.items():  # one unpack per vertex
            n = _lanes(self.tree, v)
            whole = sum(x << i * n * kern.width for i, x in enumerate(row))
            lanes = kern.unpack(whole, len(row) * n)
            cells = list(map(cell, lanes, lanes))
            out[v] = tuple(cells[i:i + n] for i in range(0, len(cells), n))
        return out


def deficiency_tables(t: Graph) -> DeficiencyTables:
    rt = root_tree(t)
    children = rt.children
    # a vertex adds at most two defects, so no entry or partial sum passes 2n
    kern = _Lanes(2 * t.n + 2, t.n // 2 + 1)
    empty, contribution, merge, finish = kern.rows(RULES)
    lanes = [_lanes(rt, v) for v in range(t.n)]
    leaf = finish(empty, 1)  # every childless vertex has this row, at cap 1
    powers = [contribution(leaf, 2)]  # the product over 2**i leaf children
    blocks: dict[int, tuple] = {}  # the product over j leaf children, by j, at sizes 0 and 1
    vals: dict[int, tuple[int, ...]] = {}
    prods: dict[int, tuple] = {}
    for v in rt.order:
        cs = children[v]
        if not cs:
            vals[v] = leaf
            continue
        cap = lanes[v] - 1
        inner = [c for c in cs if children[c]]
        j = len(cs) - len(inner)
        if j and j not in blocks:
            blocks[j] = _power(j, powers, merge, 1)
        acc = blocks.get(j)  # None without leaf children
        kept = [acc or empty]
        for c in inner:
            x = contribution(vals[c], lanes[c])
            acc = x if acc is None else merge(acc, x, cap)
            kept.append(acc)
        vals[v] = finish(acc, cap)
        prods[v] = tuple(kept)
    return DeficiencyTables(rt, kern, vals, prods)


def _power(j: int, powers: list, merge, cap: int):
    """The product of j copies of powers[0], at sizes up to cap, by repeated
    squaring; ``powers`` holds the squarings so far and gains the ones made."""
    acc, i = None, 0
    while j:
        if i == len(powers):
            powers.append(merge(powers[-1], powers[-1], cap))
        if j & 1:
            acc = powers[i] if acc is None else merge(acc, powers[i], cap)
        j, i = j >> 1, i + 1
    return acc


def deficiency_vector(t: Graph, tables: DeficiencyTables | None = None) -> list[float]:
    """F-values for every matching size k = 0..floor(n/2); the entry is the
    infinity sentinel where no size-k matching exists.  ``tables``, when
    given, are t's deficiency tables, so they are not built again."""
    if not is_tree(t):
        raise NotATree("deficiency DP requires a tree")
    if t.n == 1:
        return [0]
    tables = tables or deficiency_tables(t)
    kern, n = tables.kernel, t.n // 2 + 1
    _, best = kern.rows(((_ROOT,),))[1](tables.packed[tables.tree.anchor], n)
    return kern.to_list(best, n, n)


def _root_minimum(tables: DeficiencyTables, k: int) -> float:
    """The F-value at matching size k: the best root state of the tables."""
    kern, f = tables.kernel, tables.packed[tables.tree.anchor]
    best = min(kern.lane(f[s], k) for s in (0, 1, 5))
    return INF if best == kern.inf else best


# ---------------------------------------------------------------------------
# Witness reconstruction for the deficiency DP
# ---------------------------------------------------------------------------


@cache
def _walk_rules() -> tuple:
    """Per state, its rules as the witness walk reads them off a product of
    ``RULES``'s row, (lanes, *accumulators): (the index of the rule's
    accumulator, that of its rest's all-rest accumulator, dist, the states
    a child alone in the rule's accumulator may take, rest, edges,
    defects)."""
    from .rows import accumulators

    rests, folds = accumulators(RULES)
    return tuple(tuple(
        (1 + (rests.index(rest) if dist is None else len(rests) + folds.index((dist, rest))),
         1 + rests.index(rest), dist, rest if dist is None else (dist,), rest, edges, defects)
        for dist, rest, edges, defects in rules) for rules in RULES)


def _search(kern: _Lanes, p: int, m: int, f: tuple[int, ...], states: tuple[int, ...], n: int,
            k: int, target: int) -> tuple[int, int, int] | None:
    """(i, s, x): the least share i of size k at which lane k - i of p (m
    lanes) plus lane i of f[s] (n lanes), x, makes target, for the first such
    s of ``states``; else None.  Each window is unpacked once and searched
    in C."""
    lo, hi = max(0, k - m + 1), min(k, n - 1)
    if lo > hi:
        return None
    unpack, w, count = kern.unpack, kern.width, hi - lo + 1
    ps = unpack(p >> (k - hi) * w, count)  # p at k - hi .. k - lo
    ps.reverse()
    hit = None
    for s in states:
        sums = list(map(add, unpack(f[s] >> lo * w, count), ps))
        if target in sums:
            i = sums.index(target)
            if hit is None or i < hit[0]:
                hit = i, s
    if hit is None:
        return None
    i, s = hit
    return lo + i, s, target - ps[i]


def reconstruct_deficiency_matching(tables: DeficiencyTables, k: int) -> Matching:
    """Size-k matching whose deficiency equals the DP value at k.

    At each vertex the walk reads its rule off the kept product and goes
    back over the children with children of their own, each taking its
    share from one search of the product before it; the leaf children take
    what is left, 0 or 1, off one lane of their block (see the module
    docstring)."""
    rt, kern, vals, prods = tables.tree, tables.kernel, tables.packed, tables.products
    if prods is None:
        raise InvariantViolation("deficiency tables made without their products cannot be walked")
    best = _root_minimum(tables, k)
    if best == INF:
        raise KOutOfRange(f"no matching of size {k} exists")
    children, rules = rt.children, _walk_rules()
    w, mask = kern.width, (1 << kern.width) - 1
    s0 = rt.anchor
    st = next(s for s in (0, 1, 5) if kern.lane(vals[s0][s], k) == best)
    out = [norm_edge(rt.parent[s0], s0)] if st in (1, 2) else []
    stack = [(s0, st, k, best)] if children[s0] else []
    while stack:  # a vertex, its state, its size and its cost there
        v, st, kv, cell = stack.pop()
        ps, cs = prods[v], children[v]
        top = ps[-1]
        for a, ra, dist, lone, rest, edges, defects in rules[st]:
            size, target = kv - edges, cell - defects
            if 0 <= size < top[0] and top[a] >> size * w & mask == target:
                break
        else:
            raise InvariantViolation(f"no rule reaches {STATE_NAMES[st]} at vertex {v}, k={kv}")
        i, leaves = len(ps) - 1, len(cs) - len(ps) + 1  # the inner children, from the last
        inner = [c for c in cs if children[c]] if leaves else cs
        while i:
            i -= 1
            c, p = inner[i], ps[i]
            f, n = vals[c], _lanes(rt, c)
            if not (i or leaves):  # the first factor, after the empty product, takes what is left
                hit = None
                for s in lone:
                    if size < n and f[s] >> size * w & mask == target:
                        hit = size, s, target
                        break
            else:
                hit = _search(kern, p[a], p[0], f, rest, n, size, target)
                if hit is None and dist is not None:  # not among the earlier factors: here
                    hit = _search(kern, p[ra], p[0], f, lone, n, size, target)
                    a, dist, lone = ra, None, rest
            if hit is None:
                raise InvariantViolation(f"a child of vertex {v} lost its rule's target")
            share, s, cost = hit
            size, target = size - share, target - cost
            if s == 1 or s == 2:
                out.append(norm_edge(v, c))
            stack.append((c, s, share, cost))
        if leaves:  # the block holds sizes 0 and 1; at 1 the first leaf takes dist
            if not (size < ps[0][0] and ps[0][a] >> size * w & mask == target):
                raise InvariantViolation(f"the leaf children of vertex {v} lost their rule's target")
            if size:
                out.append(norm_edge(v, next(c for c in cs if not children[c])))
    matching = frozenset(out)
    if len(matching) != k:
        raise InvariantViolation("reconstructed matching has the wrong size")
    return matching


def split_size(fvecs: list[list[float]], k: int) -> list[int]:
    """Per component, with F vectors ``fvecs``, its share of the matching
    size k in a split of least total deficiency, ``combine_all(fvecs, k)[k]``:
    F adds up over components, since augmenting paths of length 1 and 3 stay
    inside one.  The total is read off the packed product, as ``combine_all``
    would make it, and the shares come from going back over the prefix
    products it was made from, as the deficiency witness walk does."""
    kern, _, xs = _packed(fvecs)
    prefix = _product(kern, xs, max(k, 0))  # k < 0 fails below
    n, total = prefix[-1]
    if not 0 <= k < n or kern.lane(total, k) == kern.inf:
        raise KOutOfRange(f"no split of matching size {k} over the components")
    target, shares = kern.lane(total, k), []
    for i in range(len(xs) - 1, 0, -1):
        (m, p), (n, x) = prefix[i], xs[i]
        hit = _search(kern, p, m, (x,), (0,), n, k, target)
        if hit is None:
            raise InvariantViolation("a component's share lost the split's target")
        shares.append(hit[0])
        k, target = k - hit[0], target - hit[2]
    return [k, *reversed(shares)] if xs else []


def deficiency_matching(t: Graph, k: int) -> tuple[float, Matching]:
    """DP value at k plus a witness matching attaining it."""
    if not is_tree(t):
        raise NotATree("deficiency DP requires a tree")
    if not (0 <= k <= t.n // 2):
        raise KOutOfRange(f"k={k} outside 0..{t.n // 2}")
    if t.n == 1:
        return 0, frozenset()
    matching = reconstruct_deficiency_matching(tables := deficiency_tables(t), k)
    return int(_root_minimum(tables, k)), matching


# ---------------------------------------------------------------------------
# Table dumps (CLI --dump-tables)
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return "INF" if x == INF else str(int(x))


def _dump(tables, cells) -> str:
    parent = tables.tree.parent
    return "\n".join(
        f"{parent[v]}-{v}\t{STATE_NAMES[st]}\t{k}\t{_fmt(x)}"
        for v in sorted(tables.values)
        for st, cell in enumerate(tables.values[v])
        for k, x in cells(cell)
    )


def dump_smm_tables(tables: SmmTables) -> str:
    return _dump(tables, lambda x: [("-", x)])


def dump_deficiency_tables(tables: DeficiencyTables) -> str:
    return _dump(tables, enumerate)
