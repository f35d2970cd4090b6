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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
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


def _plan(rules: tuple):
    """Read a rule table once: its distinct rest sets, its distinct (dist, rest
    set, edges) combinations, and its rules as (state, combination, edges, defects)."""
    rests = tuple(dict.fromkeys(r[1] for rs in rules for r in rs))
    combos = tuple(dict.fromkeys(r[:3] for rs in rules for r in rs))
    terms = tuple((s, combos.index(r[:3]), r[2], r[3]) for s, rs in enumerate(rules) for r in rs)
    return rests, tuple((d, rests.index(r), e) for d, r, e in combos), terms


_SMM_PLAN = _plan(_SMM_RULES)
_VEC_PLAN = _plan(RULES)
# For each combination with every child at rest: the index of a combination
# with one distinguished child over the same rest set and no more edges, else
# None.  That fold runs at the same or a larger cap, and its all-rest
# accumulator holds the wanted combination as a prefix, since a cap only
# truncates.
_VEC_SHARED = tuple(
    None if dist is not None else next(
        (ci for ci, (d, r, e) in enumerate(_VEC_PLAN[1]) if d is not None and r == ri
         and e <= edges), None)
    for dist, ri, edges in _VEC_PLAN[1]
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


def _smm_row(fs: list) -> tuple[float, float, float, float, float]:
    """The scalar table of a vertex whose children have the tables ``fs``."""
    rests, combos, terms = _SMM_PLAN
    cheapest = [_cheapest_values(fs, rest) for rest in rests]
    costs = [_smm_value(fs, dist, cheapest[ri])[0] for dist, ri, _ in combos]
    row = [INF] * len(_SMM_RULES)
    for st, ci, edges, _ in terms:
        if costs[ci] + edges < row[st]:
            row[st] = costs[ci] + edges
    return tuple(row)


def smm_tables(t: Graph) -> SmmTables:
    rt = root_tree(t)
    vals: dict[int, tuple[float, float, float, float, float]] = {}
    for v in rt.order:
        vals[v] = _smm_row([vals[c] for c in rt.children[v]])
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
# Min-plus vector combination (the knapsack-style child merge)
# ---------------------------------------------------------------------------


def _span(v: list[float]) -> tuple[int, int]:
    """The finite span [lo, hi) of v: from its first finite entry to just
    past its last; lo == hi when every entry is INF.  Table rows often end
    in a long run of INF, which the INF count and one slice comparison find
    at C level; a Python-level scan runs only over leading INF entries, and
    over the tail when INF entries are interior."""
    n = len(v)
    infs = v.count(INF)
    if infs == n:
        return 0, 0
    lo = 0
    while v[lo] == INF:
        lo += 1
    hi = n - infs + lo
    if hi < n and v[hi:] != [INF] * (n - hi):
        hi = n
        while v[hi - 1] == INF:
            hi -= 1
    return lo, hi


def minplus_convolve(a: list[float], b: list[float], cap: int | None = None) -> list[float]:
    """h[k] = min over i+j=k of a[i]+b[j], for k up to len(a)+len(b)-2 and
    at most cap.  Only the operands' finite spans are read: an all-INF
    operand, or spans whose first sum lies above the top, give all INF; an
    operand with one finite entry gives a shifted copy of the other; else
    the shorter span drives the outer loop over the longer one."""
    top = len(a) + len(b) - 2
    if cap is not None and cap < top:
        top = cap
    la, ha = _span(a)
    lb, hb = _span(b)
    if la == ha or lb == hb or la + lb > top:
        return [INF] * (top + 1)
    if ha - la > hb - lb:
        a, la, ha, b, lb, hb = b, lb, hb, a, la, ha
    if ha - la == 1:
        x, end = a[la], min(hb, top - la + 1)
        row = b[lb:end] if x == 0 else [x + y for y in b[lb:end]]
        return [INF] * (la + lb) + row + [INF] * (top + 1 - la - end)
    out = [INF] * (top + 1)
    for i in range(la, min(ha, top - lb + 1)):
        x = a[i]
        if x != INF:
            end = min(hb, top - i + 1)
            out[i + lb:i + end] = [z if z <= s else s for z, y in zip(out[i + lb:i + end], b[lb:end])
                                   for s in (x + y,)]
    return out


def _vmin(a: list[float], b: list[float]) -> list[float]:
    """Pointwise minimum; past the shorter vector, the longer one's entries."""
    if len(a) < len(b):
        a, b = b, a
    return [x if x <= y else y for x, y in zip(a, b)] + a[len(b):]


def _truncated(v: list[float], cap: int | None) -> list[float]:
    """A copy of v up to index cap: its min-plus convolution with [0]."""
    return v[:None if cap is None else max(cap + 1, 0)]


def combine_all(children: list[list[float]], cap: int | None = None) -> list[float]:
    """Min-cost way to split a total k across all children; the empty list
    combines to cost zero at k=0."""
    if not children:
        return [0]
    acc = _truncated(children[0], cap)
    for vec in children[1:]:
        acc = minplus_convolve(acc, vec, cap)
    return acc


def _fold_one(dists: list[list[float]], rests: list[list[float]], cap: int | None
              ) -> tuple[list[float], list[float]]:
    """``combine_one_distinguished`` and ``combine_all(rests, cap)``, from one
    fold: the second is the fold's every-child-at-rest accumulator.  The
    first child's convolutions with [0] and [INF] are a truncated copy and
    INF, so the fold starts from it."""
    if not (dists and rests):
        return [INF], [0]
    none_yet, done = _truncated(rests[0], cap), _truncated(dists[0], cap)
    done += [INF] * (len(none_yet) - len(done))
    for dv, rv in zip(dists[1:], rests[1:]):
        done = _vmin(minplus_convolve(done, rv, cap), minplus_convolve(none_yet, dv, cap))
        none_yet = minplus_convolve(none_yet, rv, cap)
    return done, none_yet


def combine_one_distinguished(
    dists: list[list[float]], rests: list[list[float]], cap: int | None = None
) -> list[float]:
    """Like combine_all over ``rests``, except exactly one child (any one)
    contributes its ``dists`` vector instead.  One left-to-right fold keeps
    the combinations with none and with one child at ``dists`` so far; the
    first of them ends as ``combine_all(rests, cap)``, which the vector DP
    reads from the same fold (``_fold_one``)."""
    return _fold_one(dists, rests, cap)[0]


# ---------------------------------------------------------------------------
# Deficiency DP: minimum of the two deficiency counts at exact size k
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeficiencyTables:
    tree: RootedTree
    values: dict[int, tuple[list[float], ...]]


def _cheapest_vectors(fs: list, rest: tuple[int, ...]) -> list[list[float]]:
    """Per child, the pointwise cheapest of its state vectors in ``rest``."""
    if len(rest) == 1:
        return [f[rest[0]] for f in fs]
    return [reduce(_vmin, row) for row in map(itemgetter(*rest), fs)]


def _deficiency_row(fs: list, cap: int) -> tuple[list[float], ...]:
    """The vector table, sizes 0..cap, of a vertex whose children have the tables ``fs``."""
    rests, combos, terms = _VEC_PLAN
    cheapest = [_cheapest_vectors(fs, rest) for rest in rests]
    folds = {ci: _fold_one([f[dist] for f in fs], cheapest[ri], cap - e)
             for ci, (dist, ri, e) in enumerate(combos) if dist is not None}
    costs = [
        folds[ci][0] if dist is not None
        else combine_all(cheapest[ri], cap - e) if _VEC_SHARED[ci] is None
        else folds[_VEC_SHARED[ci]][1][:cap - e + 1]
        for ci, (dist, ri, e) in enumerate(combos)
    ]
    cands: list[list[list[float]]] = [[] for _ in RULES]
    rows: dict[tuple[int, int, int], list[float]] = {}  # one per distinct term
    for st, ci, edges, defects in terms:
        row = rows.get((ci, edges, defects))
        if row is None:
            vec = costs[ci]  # at most cap - edges + 1 long
            if defects:
                vec = [x + defects for x in vec]
            row = rows[ci, edges, defects] = (
                [INF] * edges + vec + [INF] * (cap + 1 - edges - len(vec)))
        cands[st].append(row)
    return tuple([reduce(_vmin, c) for c in cands])


_LEAF_ROW = tuple(map(tuple, _deficiency_row([], 1)))  # every childless vertex has cap 1


def deficiency_tables(t: Graph) -> DeficiencyTables:
    rt = root_tree(t)
    cap_all = t.n // 2
    leaf = tuple(map(list, _LEAF_ROW))
    vals: dict[int, tuple[list[float], ...]] = {}
    for v in rt.order:
        cs = rt.children[v]
        cap = min(cap_all, (rt.subtree_size[v] + 1) // 2)
        vals[v] = _deficiency_row([vals[c] for c in cs], cap) if cs else leaf
    return DeficiencyTables(rt, vals)


def deficiency_vector(t: Graph, tables: DeficiencyTables | None = None) -> list[float]:
    """F-values for every matching size k = 0..floor(n/2); the entry is the
    infinity sentinel where no size-k matching exists.  ``tables``, when
    given, are t's deficiency tables, so they are not built again."""
    if not is_tree(t):
        raise NotATree("deficiency DP requires a tree")
    if t.n == 1:
        return [0]
    tables = tables or deficiency_tables(t)
    return [_root_minimum(tables, k) for k in range(t.n // 2 + 1)]


def _root_minimum(tables: DeficiencyTables, k: int) -> float:
    """The F-value at matching size k: the best root state of the tables."""
    f = tables.values[tables.tree.anchor]
    return min(vec[k] if k < len(vec) else INF for vec in (f[0], f[1], f[5]))


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


def _share(vec: list[float], rest: list[float], k: int, target: float) -> int | None:
    """Smallest share of k for ``vec`` that the ``rest`` combination completes to target."""
    for share in range(min(k, len(vec) - 1) + 1):
        if k - share < len(rest) and vec[share] + rest[k - share] == target:
            return share
    return None


def _split(fs: list, dist: int | None, rest: tuple[int, ...], k: int, target: float):
    """Per child (state, share of k) for one rule costing ``target`` at size k,
    else None.  Builds the suffix combinations once, then walks the children
    left to right, giving each the smallest share that still reaches the
    target; the first child that can take ``dist`` takes it."""
    rests = _cheapest_vectors(fs, rest)
    dists = None if dist is None else [f[dist] for f in fs]
    alls: list[list[float]] = [[0]] * (len(fs) + 1)  # every child at rest
    ones: list[list[float]] = [[INF]] * (len(fs) + 1)  # one of them at dist
    for i in range(len(fs) - 1, -1, -1):
        if dists is None or i > 0:  # a rule with dist reads alls[1:] only
            alls[i] = minplus_convolve(rests[i], alls[i + 1], k)
        if dists is not None:
            with_dist = minplus_convolve(dists[i], alls[i + 1], k)
            ones[i] = _vmin(with_dist, minplus_convolve(rests[i], ones[i + 1], k))
    top = alls[0] if dists is None else ones[0]
    if not 0 <= k < len(top) or top[k] != target:
        return None
    picks = []
    for i, f in enumerate(fs):
        if dists is not None:
            share = _share(dists[i], alls[i + 1], k, target)
            if share is not None:
                picks.append((dist, share))
                k, target, dists = k - share, target - dists[i][share], None
                continue
        share = _share(rests[i], alls[i + 1] if dists is None else ones[i + 1], k, target)
        if share is None:
            raise InvariantViolation("a child share lost the split's target")
        picks.append((next(s for s in rest if f[s][share] == rests[i][share]), share))
        k, target = k - share, target - rests[i][share]
    return picks


def reconstruct_deficiency_matching(tables: DeficiencyTables, k: int) -> Matching:
    """Size-k matching whose deficiency equals the DP value at k."""
    rt, vals = tables.tree, tables.values
    best = _root_minimum(tables, k)
    if best == INF:
        raise KOutOfRange(f"no matching of size {k} exists")
    s0 = rt.anchor
    out: list[Edge] = []
    stack = [(s0, next(s for s in (0, 1, 5) if vals[s0][s][k] == best), k)]
    while stack:
        v, st, kv = stack.pop()
        fs = [vals[c] for c in rt.children[v]]
        for dist, rest, edges, defects in RULES[st]:
            picks = _split(fs, dist, rest, kv - edges, vals[v][st][kv] - defects)
            if picks is not None:
                break
        else:
            raise InvariantViolation(f"no rule reaches {STATE_NAMES[st]} at vertex {v}, k={kv}")
        if edges:
            out.append(norm_edge(rt.parent[v], v))
        stack.extend((c, s, kc) for c, (s, kc) in zip(rt.children[v], picks))
    matching = frozenset(out)
    if len(matching) != k:
        raise InvariantViolation("reconstructed matching has the wrong size")
    return matching


def split_size(fvecs: list[list[float]], k: int) -> list[int]:
    """Per component, with F vectors ``fvecs``, its share of the matching
    size k in a split of least total deficiency, ``combine_all(fvecs, k)[k]``:
    F adds up over components, since augmenting paths of length 1 and 3 stay
    inside one, and ``_split`` walks the components for the shares."""
    picks = _split([(f,) for f in fvecs], None, (0,), k, combine_all(fvecs, k)[k])
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
