"""Hardness gadget: minimum maximal matchings of a bipartite graph against
minimum strongly maximal matchings of its blow-up.

Every original edge (u,v) becomes a block of eight new vertices and nine
edges: u-a1-a2-a3-a4 and v-b1-b2-b3-b4 pendant paths tied by the bridge
a1-b1.  A strongly maximal matching meets each block in one of two shapes:

* in-shape  {u-a1, a2-a3, b2-b3, v-b1}   (the original edge is "taken")
* out-shape {a1-b1, a2-a3, b2-b3}        (the original edge is "skipped")

so minimum strongly maximal matchings of the host exceed minimum maximal
matchings of the original by exactly three per original edge.

Certification computes both sides of that identity with one dynamic
program over a min-degree elimination tree decomposition,
``_least_matching``.  Each vertex in a table has one of five codes: free,
pending-shielded, pending-unshielded, matched-shielded or
matched-unshielded.  A shielded vertex has no free neighbour, and every
matched pair has a shielded end.  On a triangle-free graph that is exactly
"no augmenting path of length 3": such a path f-a=b-g needs a free
neighbour at both a and b, and f = g would close a triangle, so no
partner is stored.  Every edge is placed once, in the table of its
first-eliminated end, where a free end beside a free or shielded one is
refused; a vertex left pending when it is forgotten is refused too.  The
minimum maximal matching of the original drops the shielded codes and the
pair rule.  Both inputs are bipartite, so triangle-free: ``build_gadget``
checks the original, and the host is bipartite by construction.  The
search budget counts table entries made.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable

from .errors import (
    CardinalityChanged,
    InvariantViolation,
    NotBipartite,
    NotCanonical,
    NotMaximal,
    NotStronglyMaximal,
    RangeError,
    UnknownEdge,
)
from .graph import Edge, Graph, _cached, _Record, norm_edge
from .matching import (
    Matching,
    _Counter,
    find_short_augmenting,
    is_strongly_maximal,
    validate_matching,
)


class Gadget(_Record):
    _fields = ("host", "origin_n", "origin_edges", "block_ids")
    host: Graph
    origin_n: int
    origin_edges: tuple[Edge, ...]
    block_ids: tuple[tuple[int, ...], ...]  # 8 ids per original edge

    def __init__(self, host: Graph, origin_n: int, origin_edges: tuple[Edge, ...],
                 block_ids: tuple[tuple[int, ...], ...]) -> None:
        d = self.__dict__
        d["host"], d["origin_n"], d["origin_edges"] = host, origin_n, origin_edges
        d["block_ids"] = block_ids

    @_cached
    def blocks(self) -> dict[Edge, tuple[int, ...]]:
        return dict(zip(self.origin_edges, self.block_ids))


def _two_color(g: Graph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


_TEMPLATE_U, _TEMPLATE_V = 8, 9
_A1, _A2, _A3, _A4, _B1, _B2, _B3, _B4 = range(8)
# a block's edges, on its eight ids and the template ids of its ends u and v
_TEMPLATE_EDGES = (
    (_TEMPLATE_U, _A1),
    (_A1, _A2),
    (_A2, _A3),
    (_A3, _A4),
    (_A1, _B1),  # bridge
    (_B1, _B2),
    (_B2, _B3),
    (_B3, _B4),
    (_TEMPLATE_V, _B1),
)
# the two shapes, as indices into _TEMPLATE_EDGES: u-a1, a2-a3, b2-b3, v-b1
# and a1-b1, a2-a3, b2-b3
_IN_SHAPE, _OUT_SHAPE = (0, 2, 6, 8), (4, 2, 6)


def _block_edges(ids: tuple[int, ...], u: int, v: int,
                 which: Iterable[int] = range(len(_TEMPLATE_EDGES))) -> list[Edge]:
    """The edges ``which`` indexes in ``_TEMPLATE_EDGES``, by default all
    of them in that order, in the block of (u, v) on ``ids``."""
    names = (*ids, u, v)
    return [norm_edge(names[a], names[b]) for a, b in map(_TEMPLATE_EDGES.__getitem__, which)]


def _in_shape(ids: tuple[int, ...], u: int, v: int) -> frozenset[Edge]:
    return frozenset(_block_edges(ids, u, v, _IN_SHAPE))


def _out_shape(ids: tuple[int, ...], u: int, v: int) -> frozenset[Edge]:
    return frozenset(_block_edges(ids, u, v, _OUT_SHAPE))


def build_gadget(g: Graph) -> Gadget:
    """Blow up a bipartite graph; originals keep their ids, each edge's block
    ids follow in ascending edge order."""
    if not _two_color(g):
        raise NotBipartite("gadget construction requires a bipartite graph")
    edges = []
    blocks = []
    nid = g.n
    for u, v in g.edges:
        ids = tuple(range(nid, nid + 8))
        nid += 8
        blocks.append(ids)
        edges.extend(_block_edges(ids, u, v))
    host = Graph.from_edges(nid, edges)
    return Gadget(host, g.n, g.edges, tuple(blocks))


def f_sets(gadget: Gadget, edge: Edge) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """The in-shape and out-shape edge sets of one block."""
    e = norm_edge(*edge)
    ids = gadget.blocks.get(e)
    if ids is None:
        raise UnknownEdge(f"({e[0]},{e[1]}) is not an original edge")
    return _in_shape(ids, *e), _out_shape(ids, *e)


def lift_matching(g: Graph, m: Matching) -> Matching:
    """Send a maximal matching of g to a strongly maximal matching of the
    host: taken edges use the in-shape, skipped edges the out-shape."""
    matched = validate_matching(g, m)
    for u, v in g.edges:
        if u not in matched and v not in matched:
            raise NotMaximal(f"edge ({u},{v}) is uncovered")
    gadget = build_gadget(g)
    out: set[Edge] = set()
    for e, ids in gadget.blocks.items():
        if e in m:
            out |= _in_shape(ids, *e)
        else:
            out |= _out_shape(ids, *e)
    return frozenset(out)


def project_matching(gadget: Gadget, m: Matching) -> Matching:
    """Read the taken original edges off a canonical host matching."""
    result = []
    for e, ids in gadget.blocks.items():
        block_all = set(_block_edges(ids, *e))
        inside = frozenset(x for x in m if x in block_all)
        if inside == _in_shape(ids, *e):
            result.append(e)
        elif inside != _out_shape(ids, *e):
            raise NotCanonical(f"block of ({e[0]},{e[1]}) is in neither shape")
    expected = len(m) - 3 * len(gadget.origin_edges)
    if len(result) != expected:
        raise NotCanonical("projected size disagrees with the 3-per-edge offset")
    return frozenset(result)


def normalize_smm(gadget: Gadget, m: Matching) -> Matching:
    """Rewrite a minimum strongly maximal host matching into canonical form
    (every block in in-shape or out-shape) without changing its size.

    Local swaps first: a matched pendant tail tip moves inward when its mate
    pair is absent; a fully matched pendant tail unhooks onto a free
    attachment.  Any stubborn block is then forced to the out-shape, and the
    single length-3 defect this can create is repaired by flipping a
    neighboring block to its in-shape.
    """
    host = gadget.host
    if not is_strongly_maximal(host, m):
        raise NotStronglyMaximal("normalization expects a strongly maximal input")
    work = set(m)
    size0 = len(work)
    # per-block sides: (attachment vertex, (x1,x2,x3,x4), partner x1 across the bridge)
    sides = []
    for e, ids in gadget.blocks.items():
        sides.append((e[0], ids[0:4], ids[4]))
        sides.append((e[1], ids[4:8], ids[0]))
    bridge_of = {
        norm_edge(ids[0], ids[4]): e for e, ids in gadget.blocks.items()
    }

    def matched_vertices() -> set[int]:
        return {v for edge in work for v in edge}

    progress = True
    while progress:
        progress = False
        covered = matched_vertices()
        for u, (x1, x2, x3, x4), y1 in sides:
            tail = norm_edge(x3, x4)
            head = norm_edge(x1, x2)
            if tail not in work:
                continue
            if head not in work:
                work.remove(tail)
                work.add(norm_edge(x2, x3))
            elif u not in covered:
                work.difference_update({head, tail})
                work.update({norm_edge(x2, x3), norm_edge(u, x1)})
            elif y1 not in covered:
                work.difference_update({head, tail})
                work.update({norm_edge(x2, x3), norm_edge(x1, y1)})
            else:
                continue
            progress = True
            break
        if progress:
            continue
        # no local swap applies; force the first offending block out-shape
        for e, ids in gadget.blocks.items():
            block = set(_block_edges(ids, *e))
            if norm_edge(ids[2], ids[3]) in work or norm_edge(ids[6], ids[7]) in work:
                work.difference_update(block)
                work.update(_out_shape(ids, *e))
                guard = 0
                while not is_strongly_maximal(host, frozenset(work)):
                    guard += 1
                    if guard > len(gadget.origin_edges) + 1:
                        raise InvariantViolation("out-shape repair did not converge")
                    path = find_short_augmenting(host, frozenset(work))
                    if path is None or len(path) != 4:
                        raise InvariantViolation("repair found no augmenting path of length three")
                    mid = norm_edge(path[1], path[2])
                    e2 = bridge_of.get(mid)
                    if e2 is None:
                        raise InvariantViolation("repair path is not centered on a bridge")
                    ids2 = gadget.blocks[e2]
                    work.difference_update(_out_shape(ids2, *e2))
                    work.update(_in_shape(ids2, *e2))
                progress = True
                break

    out = frozenset(work)
    if len(out) != size0:
        raise CardinalityChanged(f"size drifted from {size0} to {len(out)}")
    if not is_strongly_maximal(host, out):
        raise NotStronglyMaximal("normalization destroyed strong maximality")
    for e, ids in gadget.blocks.items():
        block_all = set(_block_edges(ids, *e))
        inside = frozenset(x for x in out if x in block_all)
        if inside not in (_in_shape(ids, *e), _out_shape(ids, *e)):
            raise NotCanonical(f"block of ({e[0]},{e[1]}) failed to normalize")
    return out


# ---------------------------------------------------------------------------
# Certification: both optima from one tree-decomposition DP
# ---------------------------------------------------------------------------


class ReductionReport(_Record):
    _fields = ("min_maximal", "min_smm_host", "origin_edges", "identity_holds")
    min_maximal: int
    min_smm_host: int
    origin_edges: int
    identity_holds: bool

    def __init__(self, min_maximal: int, min_smm_host: int, origin_edges: int,
                 identity_holds: bool) -> None:
        d = self.__dict__
        d["min_maximal"], d["min_smm_host"] = min_maximal, min_smm_host
        d["origin_edges"], d["identity_holds"] = origin_edges, identity_holds


# A vertex's code in a table: its class, plus _MATCHED once its matching edge
# is placed; a free vertex is never matched, so 0 < code < _MATCHED is pending.
_FREE, _SHIELDED, _UNSHIELDED, _MATCHED = 0, 1, 2, 3
_PENDING = (_SHIELDED, _UNSHIELDED)

_Table = dict[tuple[int, ...], int]


def _elimination_order(g: Graph) -> list[int]:
    """Min-degree elimination: take a vertex of least degree, make its
    remaining neighbours a clique, repeat."""
    nbrs = [set(row) for row in g.adj]
    heap = [(len(s), v) for v, s in enumerate(nbrs)]
    heapify(heap)
    order: list[int] = []
    gone = [False] * g.n
    while heap:
        d, v = heappop(heap)
        if gone[v] or d != len(nbrs[v]):
            continue
        gone[v] = True
        order.append(v)
        for w in nbrs[v]:
            s = nbrs[w]
            s |= nbrs[v]
            s -= {v, w}
            heappush(heap, (len(s), w))
    return order


def _join(keys: list[int], table: _Table, okeys: list[int], other: _Table,
          budget: _Counter) -> tuple[list[int], _Table]:
    """Both tables at once: a shared vertex has one class on both sides and is
    matched on one side at most; costs add."""
    at = {w: i for i, w in enumerate(keys)}
    shared = [(at[w], j) for j, w in enumerate(okeys) if w in at]
    extra = [j for j, w in enumerate(okeys) if w not in at]
    by_class: dict[tuple[int, ...], list] = {}
    for codes, cost in other.items():
        by_class.setdefault(tuple([codes[j] % _MATCHED for _, j in shared]), []).append((codes, cost))
    out: _Table = {}
    for codes, cost in table.items():
        made = len(out)
        for ocodes, ocost in by_class.get(tuple([codes[i] % _MATCHED for i, _ in shared]), ()):
            merged = list(codes)
            for i, j in shared:
                if ocodes[j] >= _MATCHED:
                    if codes[i] >= _MATCHED:
                        break
                    merged[i] = ocodes[j]
            else:
                merged += [ocodes[j] for j in extra]
                key, c = tuple(merged), cost + ocost
                if c < out.get(key, c + 1):
                    out[key] = c
        budget.tick(len(out) - made)
    return keys + [okeys[j] for j in extra], out


def _place_edge(table: _Table, j: int, strong: bool, budget: _Counter) -> _Table:
    """Place the edge between keys 0 and j: a free end needs an unshielded
    one beside it, and two pending ends may match at cost 1 unless both are
    unshielded and ``strong``."""
    out: _Table = {}
    for codes, cost in table.items():
        a, b = codes[0], codes[j]
        if (a == _FREE and b % _MATCHED != _UNSHIELDED) or (b == _FREE and a % _MATCHED != _UNSHIELDED):
            continue
        if cost < out.get(codes, cost + 1):
            out[codes] = cost
        if a in _PENDING and b in _PENDING and not (strong and a == b == _UNSHIELDED):
            both = list(codes)
            both[0] += _MATCHED
            both[j] += _MATCHED
            key, c = tuple(both), cost + 1
            if c < out.get(key, c + 1):
                out[key] = c
    budget.tick(len(out))
    return out


def _least_matching(g: Graph, strong: bool, budget: _Counter) -> int:
    """The least size of a matching of the triangle-free g with no augmenting
    path of length 1 and, with ``strong``, none of length 3.

    Vertices are forgotten in min-degree elimination order.  A vertex's
    table starts from its own fresh codes, joins the tables waiting at it and
    places its edges to vertices eliminated later; forgetting it drops its
    pending codes.  What is left waits at its earliest-eliminated key, which
    the elimination made adjacent to every other key.
    """
    order = _elimination_order(g)
    pos = [0] * g.n
    for p, v in enumerate(order):
        pos[v] = p
    fresh = {(c,): 0 for c in ((_FREE, *_PENDING) if strong else (_FREE, _UNSHIELDED))}
    waiting: list[list[tuple[list[int], _Table]]] = [[] for _ in range(g.n)]
    total = 0
    for v in order:
        keys, table = [v], fresh
        for okeys, other in waiting[v]:
            keys, table = _join(keys, table, okeys, other, budget)
        waiting[v] = []
        for w in g.adj[v]:
            if pos[w] > pos[v]:
                if w not in keys:
                    keys, table = _join(keys, table, [w], fresh, budget)
                table = _place_edge(table, keys.index(w), strong, budget)
        out: _Table = {}
        for codes, cost in table.items():
            if codes[0] not in _PENDING and cost < out.get(codes[1:], cost + 1):
                out[codes[1:]] = cost
        budget.tick(len(out))
        if not out:
            raise InvariantViolation("no matching meets the conditions: the graph has a triangle")
        if len(keys) > 1:
            waiting[min(keys[1:], key=pos.__getitem__)].append((keys[1:], out))
        else:
            total += out[()]
    return total


def certify_reduction(g: Graph, search_budget: int = 10**7) -> ReductionReport:
    """Compute both optima independently and check the 3-per-edge identity."""
    if search_budget <= 0:
        raise RangeError("certification search budget must be positive")
    gadget = build_gadget(g)
    budget = _Counter(search_budget, "certification search")
    mmm = _least_matching(g, False, budget)
    smm = _least_matching(gadget.host, True, budget)
    m_edges = len(gadget.origin_edges)
    return ReductionReport(mmm, smm, m_edges, mmm == smm - 3 * m_edges)
