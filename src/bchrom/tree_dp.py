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
vector build, a vertex with one child reads its row off that child's
vectors by truncation alone, and the leaf children of a vertex enter as a
single block: the leaf's product raised to the power j by repeated
squaring, made once per distinct j in a build.  Only the children with
children of their own are multiplied in one by one.

Everything else runs one rule read as a one-state table, whose row is a
single product.  The list functions ``combine_all`` (and through it
``minplus_convolve``) and ``combine_one_distinguished`` are the rows of
``_ALL`` and ``_ONE`` over their operands, packed up to their INF tails,
with the tails padded back as they unpack.  ``deficiency_vector`` reads the
root minimum as the contribution of ``_ROOT``.  The deficiency witness
walk (``_split``) takes, per rule of ``RULES``, the suffix products over a
vertex's children from that rule's row, and ``split_size`` reads its total
off the product of ``_ALL`` over the components' F vectors and runs the
same walk over them.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from functools import cache
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
            made = self.made[table] = _compiled(table)(self)
        return made


@cache
def _compiled(table: tuple):
    """``rows.compile_rows`` of a rule table on packed lanes, imported on
    first use, so that importing bchrom compiles none of it."""
    from .rows import compile_rows

    return compile_rows(table, vector=True)


def _finite(v: list[float]) -> int:
    """The lanes a list operand is packed in: its length less its INF tail,
    and at least one, since an INF tail adds nothing to a min-plus product
    and ``_Lanes.to_list`` pads it back.  Two passes in C find the tail when
    every INF lies in it, as in F vectors; else the whole length is kept."""
    n, tail = len(v), v.count(INF)
    return max(n - tail, 1) if v[n - tail:].count(INF) == tail else n


def _packed(rows: list[tuple], lens: list[int]) -> tuple[_Lanes, int, list[list[int]]]:
    """Lanes for rows of list vectors, their shared offset and the rows
    packed, each vector cut or INF-padded to its row's entry of ``lens``.
    The offset lifts negative entries (from ``dominance_join``) to zero, so a
    product over c rows carries it c times; no such product passes c times
    the largest lifted entry."""
    finite = set().union(*[v[:n] for row, n in zip(rows, lens) for v in row]) - {INF}
    off = max(0, -min(finite, default=0))
    kern = _Lanes(len(rows) * (max(finite, default=0) + off), sum(lens))
    inf, pack = kern.inf, kern.pack
    return kern, off, [[pack([inf if x == INF else x + off for x in v[:n]] + [inf] * (n - len(v)))
                        for v in row] for row, n in zip(rows, lens)]


# Rules read as one-state tables ``((rule,),)`` (see ``rows.compile_rows``):
# every one-vector row at its vector; exactly one (dist, rest) row at dist,
# the others at rest; and the root minimum of a deficiency table.
_ALL = (None, (0,), 0, 0)
_ONE = (0, (1,), 0, 0)
_ROOT = (None, (0, 1, 5), 0, 0)


def _product(kern: _Lanes, rule: tuple, packed: list, lens: list[int], cap: int) -> tuple:
    """The product of ``rule``'s contributions of the packed rows (row i has
    lens[i] lanes), at sizes up to cap: (lanes, *accumulators).  The rule's
    row has one state, its accumulator, which neither moves nor rises, so it
    is read off the product without ``finish``."""
    empty, contribution, merge, _ = kern.rows(((rule,),))
    acc = None
    for row, n in zip(packed, lens):
        x = contribution(row, n)
        acc = x if acc is None else merge(acc, x, cap)
    return empty if acc is None else acc


def _list_product(rule: tuple, rows: list[tuple], cap: int | None) -> list[float]:
    """The row of ``rule`` over children with the (non-empty) list ``rows``,
    at sizes up to cap and to the sum of the children's largest sizes.  A
    row is packed up to the longest finite part of its vectors."""
    lens = [max(map(_finite, row)) for row in rows]
    kern, off, packed = _packed(rows, lens)
    top = sum([max(map(len, row)) for row in rows]) - len(rows)
    top = top if cap is None else min(cap, top)
    acc = _product(kern, rule, packed, lens, top)
    return kern.to_list(acc[-1], acc[0], top + 1, len(rows) * off)


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
    """Min-cost way to split a total k across all children; the empty list
    combines to cost zero at k=0."""
    if not children:
        return [0]
    if len(children) == 1 or cap is not None and cap < 0:
        return children[0][:None if cap is None else max(cap + 1, 0)]
    return _list_product(_ALL, [(v,) for v in children], cap)


def combine_one_distinguished(
    dists: list[list[float]], rests: list[list[float]], cap: int | None = None
) -> list[float]:
    """Like combine_all over ``rests``, except exactly one child (any one)
    contributes its ``dists`` vector instead; a child's two vectors are read
    at the longer one's length."""
    if not (dists and rests):
        return [INF]
    if cap is not None and cap < 0:
        return []
    return _list_product(_ONE, list(zip(dists, rests)), cap)


# ---------------------------------------------------------------------------
# Deficiency DP: minimum of the two deficiency counts at exact size k
# ---------------------------------------------------------------------------


def _lanes(rt: RootedTree, v: int) -> int:
    """Lanes on the edge into v: sizes up to what its subtree and parent hold, and n // 2."""
    return min(rt.graph.n // 2, (rt.subtree_size[v] + 1) // 2) + 1


class DeficiencyTables(_Record):
    """Per vertex, the seven packed state vectors of the edge into it;
    ``values`` is their list view, unpacked on first read."""

    _fields = ("tree", "kernel", "packed")
    tree: RootedTree
    kernel: _Lanes
    packed: dict[int, tuple[int, ...]]

    def __init__(self, tree: RootedTree, kernel: _Lanes, packed: dict[int, tuple[int, ...]]) -> None:
        d = self.__dict__
        d["tree"], d["kernel"], d["packed"] = tree, kernel, packed

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
    half, children = t.n // 2, rt.children
    # a vertex adds at most two defects, so no entry or partial sum passes 2n
    kern = _Lanes(2 * t.n + 2, half + 1)
    empty, contribution, merge, finish = kern.rows(RULES)
    lanes = [_lanes(rt, v) for v in range(t.n)]
    leaf = finish(empty, 1)  # every childless vertex has this row, at cap 1
    powers = [contribution(leaf, 2)]  # the product over 2**i leaf children
    blocks: dict[int, tuple] = {}  # the product over j leaf children, by j
    vals: dict[int, tuple[int, ...]] = {}
    for v in rt.order:
        cs = children[v]
        if not cs:
            vals[v] = leaf
            continue
        cap = lanes[v] - 1
        inner = [c for c in cs if children[c]]
        j = len(cs) - len(inner)
        if j and j not in blocks:
            blocks[j] = _power(j, powers, merge, half)
        acc = blocks.get(j)  # None without leaf children
        for c in inner:
            x = contribution(vals[c], lanes[c])
            acc = x if acc is None else merge(acc, x, cap)
        vals[v] = finish(acc, cap)
    return DeficiencyTables(rt, kern, vals)


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


def _share(kern: _Lanes, vec: int, n: int, other: tuple[int, int], k: int,
           target: int) -> int | None:
    """Smallest share of k for ``vec`` (n lanes) that the product ``other``,
    (lanes, packed), completes to target."""
    m, rest = other
    lo, hi = max(0, k - m + 1), min(k, n - 1)
    if lo > hi:
        return None
    w = kern.width
    xs = kern.unpack(vec >> lo * w, hi - lo + 1)
    ys = kern.unpack(rest >> (k - hi) * w, hi - lo + 1)  # other at k - hi .. k - lo
    for j, (x, y) in enumerate(zip(xs, reversed(ys))):
        if x + y == target:
            return lo + j
    return None


def _rule_rows(kern: _Lanes, dist: int | None, rest: tuple[int, ...]) -> tuple:
    """The row functions ``_split`` reads for a rule: the empty product,
    contribution and merge of the rule as a one-rule table, and the merge of
    the table of its rest alone."""
    empty, contribution, merge, _ = kern.rows((((dist, rest, 0, 0),),))
    merge_all = merge if dist is None else kern.rows((((None, rest, 0, 0),),))[2]
    return empty, contribution, merge, merge_all


def _split(kern: _Lanes, made: tuple, dist: int | None, rest: tuple[int, ...], fs: list,
           lens: list[int], k: int, target: int):
    """Per child (state, share of k) for the rule (dist, rest) costing
    ``target`` at size k, else None; child i's packed row has lens[i] lanes,
    and ``made`` holds ``_rule_rows(kern, dist, rest)``.  Walks the children
    left to right, giving each the smallest share that the product of the
    children after it completes to the target; the first child that can take
    dist takes it.  Those suffix products are the rule's one-rule rows, with
    one contribution per distinct child row (every leaf child shares one).
    The every-child-at-rest suffixes are built first, and those with one
    child at dist only if the first child cannot take it.  When the first
    child finds no share, the rule does not reach the target."""
    if not fs:  # a childless vertex: no edge or defect below it
        return [] if dist is None and k == 0 and target == 0 else None
    empty, contribution, merge, merge_all = made
    seen: dict[int, tuple] = {}
    xs = []  # per child (lanes, rest minimum[, dist state])
    for f, n in zip(fs, lens):
        x = seen.get(id(f))
        if x is None:
            x = seen[id(f)] = contribution(f, n)
        xs.append(x)
    last = len(xs) - 1
    alls = [(1, 0)] * (last + 2)  # children i.. at rest: (lanes, product)
    if last:
        alls[last] = xs[last][:2]
        for i in range(last - 1, 0, -1):
            alls[i] = merge_all(xs[i][:2], alls[i + 1], k)
    ones = None  # children i.. with one of them at dist: (lanes, at rest, one at dist)
    picks = []
    lane = kern.lane
    for i, f in enumerate(fs):
        x = xs[i]
        if dist is not None:
            share = _share(kern, x[2], x[0], alls[i + 1], k, target)
            if share is not None:
                picks.append((dist, share))
                k, target, dist = k - share, target - lane(x[2], share), None
                continue
            if ones is None:
                ones = [empty] * (last + 2)
                ones[last] = xs[last]
                for j in range(last - 1, 0, -1):
                    ones[j] = merge(xs[j], ones[j + 1], k)
        share = _share(kern, x[1], x[0], alls[i + 1] if dist is None else ones[i + 1][::2],
                       k, target)
        if share is None:
            if i:
                raise InvariantViolation("a child share lost the split's target")
            return None
        cost = lane(x[1], share)
        picks.append((next(s for s in rest if lane(f[s], share) == cost), share))
        k, target = k - share, target - cost
    return picks


def reconstruct_deficiency_matching(tables: DeficiencyTables, k: int) -> Matching:
    """Size-k matching whose deficiency equals the DP value at k."""
    rt, kern, vals = tables.tree, tables.kernel, tables.packed
    walk = [[(*rule, _rule_rows(kern, *rule[:2])) for rule in rules] for rules in RULES]
    best = _root_minimum(tables, k)
    if best == INF:
        raise KOutOfRange(f"no matching of size {k} exists")
    s0 = rt.anchor
    out: list[Edge] = []
    stack = [(s0, next(s for s in (0, 1, 5) if kern.lane(vals[s0][s], k) == best), k)]
    while stack:
        v, st, kv = stack.pop()
        cs = rt.children[v]
        fs, lens = [vals[c] for c in cs], [_lanes(rt, c) for c in cs]
        cell = kern.lane(vals[v][st], kv)
        for dist, rest, edges, defects, made in walk[st]:
            picks = _split(kern, made, dist, rest, fs, lens, kv - edges, cell - defects)
            if picks is not None:
                break
        else:
            raise InvariantViolation(f"no rule reaches {STATE_NAMES[st]} at vertex {v}, k={kv}")
        if edges:
            out.append(norm_edge(rt.parent[v], v))
        stack.extend((c, s, kc) for c, (s, kc) in zip(cs, picks))
    matching = frozenset(out)
    if len(matching) != k:
        raise InvariantViolation("reconstructed matching has the wrong size")
    return matching


def split_size(fvecs: list[list[float]], k: int) -> list[int]:
    """Per component, with F vectors ``fvecs``, its share of the matching
    size k in a split of least total deficiency, ``combine_all(fvecs, k)[k]``:
    F adds up over components, since augmenting paths of length 1 and 3 stay
    inside one, and ``_split`` walks the components for the shares.  The
    total is read off the packed product, as ``combine_all`` would make it."""
    lens = [_finite(f) for f in fvecs]
    kern, _, packed = _packed([(f,) for f in fvecs], lens)
    n, total = _product(kern, _ALL, packed, lens, max(k, 0))  # k < 0 fails the check below
    if not 0 <= k < n or kern.lane(total, k) == kern.inf:
        raise KOutOfRange(f"no split of matching size {k} over the components")
    dist, rest = _ALL[:2]
    picks = _split(kern, _rule_rows(kern, dist, rest), dist, rest, packed, lens, k, kern.lane(total, k))
    return [share for _, share in picks]


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
