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
lifted negative entries to zero.  ``_Lanes.convolve`` is the min-plus loop
of the witness walk and of the list functions ``minplus_convolve``,
``combine_all`` and ``combine_one_distinguished``, which pack each operand
up to its INF tail and pad the tail back as they unpack.
``DeficiencyTables.values`` is the list view of the packed tables, unpacked
on first read.

Neither table build walks the rule table per vertex.  ``rows.compile_rows``
writes each pass's row as straight-line Python source from ``RULES`` (and
from its zero-deficiency part), once per process on first use: per child,
the rest minima and the dist states; per pair of children, the min-plus
products of the one-distinguished folds and the all-rest combines, all in
one loop over the lanes of the shorter operand; per state, the least of its
rules' terms, each an accumulator moved up by ``edges`` and raised by
``defects``.  A row is a product over the children that may be taken in any
grouping (see ``rows.compile_rows``).  So a vertex with one child reads its
row off that child's vectors by truncation alone, and the leaf children of a
vertex, which all share the one leaf row, enter as a single block: the
leaf's product raised to the power j by repeated squaring, made once per
distinct j in a build.  Only the children with children of their own are
multiplied in one by one.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable

from .errors import InvariantViolation, KOutOfRange, NotATree
from .graph import Edge, Graph, connected_components, induced_subgraph, is_tree, norm_edge
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


@dataclass(frozen=True)
class RootedTree:
    graph: Graph
    root: int
    anchor: int
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]  # children before parents; excludes the root
    subtree_size: tuple[int, ...]


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


@dataclass(frozen=True)
class SmmTables:
    tree: RootedTree
    values: dict[int, tuple[float, float, float, float, float]]


def _cheapest_values(fs: list, rest: tuple[int, ...]) -> list[float]:
    """Per child, the cheapest of its states in ``rest``."""
    if len(rest) == 1:
        return list(map(itemgetter(rest[0]), fs))
    return list(map(min, map(itemgetter(*rest), fs)))


def _smm_value(fs: list, dist: int | None, rests: list[float]) -> tuple[float, int]:
    """Cost of every child at its rest minimum, or of exactly one at ``dist``
    instead; and the first child that can take ``dist`` at that cost, or -1."""
    if dist is None:
        return sum(rests), -1
    none, one, at = 0, INF, -1
    for i, f in enumerate(fs):
        a, b = one + rests[i], none + f[dist]
        one, at = (b, i) if b < a else (a, at)
        none += rests[i]
    return one, at


def smm_tables(t: Graph) -> SmmTables:
    from .rows import compile_rows  # on first use: importing bchrom compiles none of it

    rt, row = root_tree(t), compile_rows(_SMM_RULES, vector=False)
    vals: dict[int, tuple[float, float, float, float, float]] = {}
    for v in rt.order:
        vals[v] = row([vals[c] for c in rt.children[v]])
    return SmmTables(rt, vals)


def _smm_split(fs: list, dist: int | None, rest: tuple[int, ...], target: float):
    """Child states for one rule whose combination costs ``target``, else None."""
    rests = _cheapest_values(fs, rest)
    cost, at = _smm_value(fs, dist, rests)
    if cost != target:
        return None
    if len(rest) == 1:
        picks = [rest[0]] * len(fs)
    else:
        picks = [rest[g.index(r)] for g, r in zip(map(itemgetter(*rest), fs), rests)]
    if at >= 0:
        picks[at] = dist
    return picks


def reconstruct_smm(tables: SmmTables) -> Matching:
    """Witness matching achieving min over the root states 0 and 1."""
    rt, vals = tables.tree, tables.values
    s0 = rt.anchor
    out: list[Edge] = []
    stack = [(s0, 0 if vals[s0][0] <= vals[s0][1] else 1)]
    while stack:
        v, st = stack.pop()
        fs = [vals[c] for c in rt.children[v]]
        for dist, rest, edges, _ in _SMM_RULES[st]:
            picks = _smm_split(fs, dist, rest, vals[v][st] - edges)
            if picks is not None:
                break
        else:
            raise InvariantViolation(f"no rule reaches {STATE_NAMES[st]} at vertex {v}")
        if edges:
            out.append(norm_edge(rt.parent[v], v))
        stack.extend(zip(rt.children[v], picks))
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


def min_smm_forest(g: Graph) -> tuple[int, Matching]:
    """Per-component minimum; augmenting paths never cross components."""
    comps = connected_components(g)
    found = [min_smm_tree(g if len(comps) == 1 else induced_subgraph(g, comp)) for comp in comps]
    return sum(size for size, _ in found), lift(comps, [mm for _, mm in found])


# ---------------------------------------------------------------------------
# Packed lanes and the min-plus kernel (the knapsack-style child merge)
# ---------------------------------------------------------------------------


_BIG_ENDIAN = sys.byteorder == "big"


class _Lanes:
    """Lanes for vectors of at most ``most`` entries, finite ones below
    ``bound`` (see the module docstring); made per call, never at import."""

    __slots__ = ("code", "width", "inf", "most", "high")

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
        infs = self.guards(min(m, n)) >> 1
        at_inf = x & infs  # the INF lanes' bits; a finite lane lacks it
        k = ((infs ^ at_inf).bit_length() + self.width - 1) // self.width  # to the last finite
        lanes, inf = self.unpack(x, k), self.inf
        if not at_inf:
            return [y - off for y in lanes] + [INF] * (n - k)
        return [INF if y == inf else y - off for y in lanes] + [INF] * (n - k)

    def lane(self, x: int, k: int) -> int:
        return (x >> k * self.width) & ((1 << self.width) - 1)

    def guards(self, n: int) -> int:
        """Guard bits of n lanes; >> 1 gives n INF lanes, >> (width - 1) n ones."""
        return self.high >> (self.most - n) * self.width

    def vmin(self, a: int, b: int, high: int) -> int:
        """Lanewise minimum under guard bits ``high``: a lane of (a | high) - b
        keeps its guard bit exactly where a >= b."""
        t = ((a | high) - b) & high
        return a ^ ((a ^ b) & (t - (t >> self.width - 1)))

    def truncated(self, x: int, n: int, cap: int) -> tuple[int, int]:
        """Lanes 0..cap of x, which has n lanes, and their count."""
        if n <= cap + 1:
            return x, n
        n = max(cap + 1, 0)
        return x & ((1 << n * self.width) - 1), n

    def convolve(self, a: int, la: int, b: int, lb: int, cap: int) -> tuple[int, int]:
        """Lanes 0..cap of the min-plus convolution of a and b (la and lb
        lanes), and their count.  Each finite lane x at i of the operand with
        fewer lanes costs one shifted add (the other moved up i lanes, plus x)
        and one lanewise minimum."""
        n = min(la + lb - 2, cap) + 1
        if n <= 0:
            return 0, 0
        if la > lb:
            a, la, b, lb = b, lb, a, la
        w, inf = self.width, self.inf
        high = self.guards(n)
        infs = high >> 1
        lanes = self.unpack(a, min(la, n))
        if lanes.count(inf) == len(lanes):
            return infs, n
        ones, mask = high >> w - 1, (1 << n * w) - 1
        # b, INF-padded to n lanes, above n INF lanes: shifted right by n - i
        # lanes, it is b moved up i lanes
        wide = ((b & mask) | (infs >> lb * w << lb * w)) << n * w | infs
        out = infs
        for i, x in enumerate(lanes):
            if x != inf:
                s = (wide >> (n - i) * w) & mask
                if x:
                    s += x * ones
                elif out is infs:  # the first finite lane, at zero: nothing to clamp
                    out = s
                    continue
                t = ((out | high) - s) & high  # self.vmin(out, s, high), inlined
                out ^= (out ^ s) & (t - (t >> w - 1))
        return out, n

    def combine(self, vecs: list[int], lens: list[int], cap: int) -> tuple[int, int]:
        """Lanes 0..cap of the min-plus convolution of all ``vecs``; of none, [0]."""
        if not vecs:
            return 0, 1
        acc = self.truncated(vecs[0], lens[0], cap)
        for vec, n in zip(vecs[1:], lens[1:]):
            acc = self.convolve(*acc, vec, n, cap)
        return acc

    def fold_one(self, dists: list[int], rests: list[int], lens: list[int], cap: int):
        """``combine_one_distinguished`` and, as its every-child-at-rest
        accumulator, ``combine_all(rests, cap)``; child i's vectors have lens[i] lanes."""
        if not rests:
            return (self.inf, 1), (0, 1)
        done = self.truncated(dists[0], lens[0], cap)
        none_yet = self.truncated(rests[0], lens[0], cap)
        for dv, rv, n in zip(dists[1:], rests[1:], lens[1:]):
            (x, m), (y, _) = self.convolve(*done, rv, n, cap), self.convolve(*none_yet, dv, n, cap)
            done = self.vmin(x, y, self.guards(m)), m
            none_yet = self.convolve(*none_yet, rv, n, cap)
        return done, none_yet


def _finite(v: list[float]) -> int:
    """The lanes a list operand is packed in: its length less its INF tail,
    and at least one, since an INF tail adds nothing to a min-plus product
    and ``_Lanes.to_list`` pads it back.  Two passes in C find the tail when
    every INF lies in it, as in F vectors; else the whole length is kept."""
    n, tail = len(v), v.count(INF)
    return max(n - tail, 1) if v[n - tail:].count(INF) == tail else n


def _packed(vectors: list[list[float]], lens: list[int]) -> tuple[_Lanes, int, list[int]]:
    """Lanes for list operands, their shared offset and their packed forms,
    cut or INF-padded to ``lens``.  The offset lifts negative entries (from
    ``dominance_join``) to zero, so a sum of c operands carries it c times;
    no such sum passes c times the largest lifted entry."""
    finite = set().union(*(v[:n] for v, n in zip(vectors, lens))) - {INF}
    off = max(0, -min(finite, default=0))
    kern = _Lanes(len(vectors) * (max(finite, default=0) + off), sum(lens))
    inf = kern.inf
    return kern, off, [kern.pack([inf if x == INF else x + off for x in v[:n]]
                                 + [inf] * (n - len(v))) for v, n in zip(vectors, lens)]


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
    la, lb = _finite(a), _finite(b)
    kern, off, (pa, pb) = _packed([a, b], [la, lb])
    return kern.to_list(*kern.convolve(pa, la, pb, lb, top), top + 1, 2 * off)


def combine_all(children: list[list[float]], cap: int | None = None) -> list[float]:
    """Min-cost way to split a total k across all children; the empty list
    combines to cost zero at k=0."""
    if not children:
        return [0]
    if len(children) == 1 or cap is not None and cap < 0:
        return children[0][:None if cap is None else max(cap + 1, 0)]
    lens = [_finite(v) for v in children]
    kern, off, packed = _packed(children, lens)
    top = sum(map(len, children)) - len(children)
    top = top if cap is None else min(cap, top)
    return kern.to_list(*kern.combine(packed, lens, top), top + 1, len(children) * off)


def combine_one_distinguished(
    dists: list[list[float]], rests: list[list[float]], cap: int | None = None
) -> list[float]:
    """Like combine_all over ``rests``, except exactly one child (any one)
    contributes its ``dists`` vector instead.  One left-to-right fold keeps
    the combinations with none and with one child at ``dists`` so far
    (``_Lanes.fold_one``); a child's two vectors are read at the longer one's
    length."""
    if not (dists and rests):
        return [INF]
    if cap is not None and cap < 0:
        return []
    pairs = list(zip(dists, rests))
    lens = [max(_finite(d), _finite(r)) for d, r in pairs]
    kern, off, packed = _packed([d for d, _ in pairs] + [r for _, r in pairs], lens * 2)
    c = len(pairs)
    top = sum(max(len(d), len(r)) for d, r in pairs) - c
    top = top if cap is None else min(cap, top)
    done, _ = kern.fold_one(packed[:c], packed[c:], lens, top)
    return kern.to_list(*done, top + 1, c * off)


# ---------------------------------------------------------------------------
# Deficiency DP: minimum of the two deficiency counts at exact size k
# ---------------------------------------------------------------------------


def _lanes(rt: RootedTree, v: int) -> int:
    """Lanes on the edge into v: sizes up to what its subtree and parent hold, and n // 2."""
    return min(rt.graph.n // 2, (rt.subtree_size[v] + 1) // 2) + 1


@dataclass(frozen=True)
class DeficiencyTables:
    """Per vertex, the seven packed state vectors of the edge into it;
    ``values`` is their list view, unpacked on first read."""

    tree: RootedTree
    kernel: _Lanes
    packed: dict[int, tuple[int, ...]]

    @cached_property
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


def _cheapest_vectors(kern: _Lanes, fs: list, highs: list[int], rest: tuple[int, ...]) -> list[int]:
    """Per child (guard bits in ``highs``), the cheapest of its state vectors in ``rest``."""
    if len(rest) == 1:
        return [f[rest[0]] for f in fs]
    out = []
    for f, high in zip(fs, highs):
        vec = f[rest[0]]
        for s in rest[1:]:
            vec = kern.vmin(vec, f[s], high)
        out.append(vec)
    return out


def deficiency_tables(t: Graph) -> DeficiencyTables:
    from .rows import compile_rows  # on first use: importing bchrom compiles none of it

    rt = root_tree(t)
    half, children = t.n // 2, rt.children
    # a vertex adds at most two defects, so no entry or partial sum passes 2n
    kern = _Lanes(2 * t.n + 2, half + 1)
    empty, contribution, merge, finish = compile_rows(RULES, vector=True)(kern)
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
    kern, f, n = tables.kernel, tables.packed[tables.tree.anchor], t.n // 2 + 1
    high = kern.guards(n)
    return kern.to_list(kern.vmin(kern.vmin(f[0], f[1], high), f[5], high), n, n)


def _root_minimum(tables: DeficiencyTables, k: int) -> float:
    """The F-value at matching size k: the best root state of the tables."""
    kern, f = tables.kernel, tables.packed[tables.tree.anchor]
    best = min(kern.lane(f[s], k) for s in (0, 1, 5))
    return INF if best == kern.inf else best


def f_tree_k(t: Graph, k: int) -> float:
    """Minimum deficiency over matchings of size exactly k (infinity when no
    size-k matching exists)."""
    if not is_tree(t):
        raise NotATree("deficiency DP requires a tree")
    if not (0 <= k <= t.n // 2):
        raise KOutOfRange(f"k={k} outside 0..{t.n // 2}")
    val = deficiency_vector(t)[k]
    return val if val == INF else int(val)


# ---------------------------------------------------------------------------
# Witness reconstruction for the deficiency DP
# ---------------------------------------------------------------------------


def _share(kern: _Lanes, vec: int, n: int, other: tuple[int, int], k: int,
           target: int) -> int | None:
    """Smallest share of k for ``vec`` (n lanes) that the (packed, lanes)
    combination ``other`` completes to target."""
    rest, m = other
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


def _split(kern: _Lanes, fs: list, lens: list[int], dist: int | None, rest: tuple[int, ...],
           k: int, target: int):
    """Per child (state, share of k) for one rule costing ``target`` at size
    k, else None; child i's packed vectors have lens[i] lanes.  Walks the
    children left to right, giving each the smallest share that the suffix
    combination after it completes to the target; the first child that can
    take ``dist`` takes it.  The every-child-at-rest suffixes are built first,
    and those with one child at ``dist`` only if the first child cannot take
    it.  When the first child finds no share, the rule does not reach the target."""
    if not fs:  # a childless vertex: no edge or defect below it
        return [] if dist is None and k == 0 and target == 0 else None
    rests = _cheapest_vectors(kern, fs, [kern.guards(n) for n in lens], rest)
    dists = None if dist is None else [f[dist] for f in fs]
    alls = [(0, 1)] * (len(fs) + 1)  # children i.. at rest
    for i in range(len(fs) - 1, 0, -1):
        alls[i] = kern.convolve(rests[i], lens[i], *alls[i + 1], k)
    ones = None  # children i.. with one of them at dist
    picks = []
    for i, f in enumerate(fs):
        if dists is not None:
            share = _share(kern, dists[i], lens[i], alls[i + 1], k, target)
            if share is not None:
                picks.append((dist, share))
                k, target, dists = k - share, target - kern.lane(dists[i], share), None
                continue
            if ones is None:
                ones = [(kern.inf, 1)] * (len(fs) + 1)
                for j in range(len(fs) - 1, 0, -1):
                    (x, n), (y, _) = (kern.convolve(dists[j], lens[j], *alls[j + 1], k),
                                      kern.convolve(rests[j], lens[j], *ones[j + 1], k))
                    ones[j] = kern.vmin(x, y, kern.guards(n)), n
        share = _share(kern, rests[i], lens[i], alls[i + 1] if dists is None else ones[i + 1],
                       k, target)
        if share is None:
            if i:
                raise InvariantViolation("a child share lost the split's target")
            return None
        cost = kern.lane(rests[i], share)
        picks.append((next(s for s in rest if kern.lane(f[s], share) == cost), share))
        k, target = k - share, target - cost
    return picks


def reconstruct_deficiency_matching(tables: DeficiencyTables, k: int) -> Matching:
    """Size-k matching whose deficiency equals the DP value at k."""
    rt, kern, vals = tables.tree, tables.kernel, tables.packed
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
        for dist, rest, edges, defects in RULES[st]:
            picks = _split(kern, fs, lens, dist, rest, kv - edges, cell - defects)
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
    inside one, and ``_split`` walks the components for the shares."""
    lens = [_finite(f) for f in fvecs]
    kern, _, packed = _packed(fvecs, lens)
    total, n = kern.combine(packed, lens, k)
    if not 0 <= k < n or kern.lane(total, k) == kern.inf:
        raise KOutOfRange(f"no split of matching size {k} over the components")
    picks = _split(kern, [(p,) for p in packed], lens, None, (0,), k, kern.lane(total, k))
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
