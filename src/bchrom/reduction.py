"""Hardness gadget: minimum maximal matchings of a bipartite graph against
minimum strongly maximal matchings of its blow-up.

Every original edge (u,v) becomes a block of eight new vertices and nine
edges: u-a1-a2-a3-a4 and v-b1-b2-b3-b4 pendant paths tied by the bridge
a1-b1.  A strongly maximal matching meets each block in one of two shapes:

* in-shape  {u-a1, a2-a3, b2-b3, v-b1}   (the original edge is "taken")
* out-shape {a1-b1, a2-a3, b2-b3}        (the original edge is "skipped")

so minimum strongly maximal matchings of the host exceed minimum maximal
matchings of the original by exactly three per original edge.
"""

from __future__ import annotations

from typing import Iterable

from .errors import (
    CardinalityChanged,
    InvariantViolation,
    NotBipartite,
    NotCanonical,
    NotMaximal,
    NotStronglyMaximal,
    UnknownEdge,
)
from .graph import Edge, Graph, _cached, _Record, is_forest, norm_edge
from .matching import (
    Matching,
    _Counter,
    _defects,
    find_short_augmenting,
    is_strongly_maximal,
    validate_matching,
)
from .tree_dp import min_smm_forest


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
_TEMPLATE_INTERNAL = tuple(
    (a, b) for a, b in _TEMPLATE_EDGES if a < 8 and b < 8
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
# Certification: both optima computed independently
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


def _min_maximal_matching(g: Graph, budget: _Counter) -> tuple[int, Matching]:
    """Branch and bound over the edges in order, on an explicit stack, so
    any number of edges is searched; ``None`` undoes the last edge taken."""
    edges = g.edges
    best_size, best = g.n + 1, frozenset()
    chosen: list[Edge] = []
    full = (1 << g.n) - 1
    stack: list[tuple[int, int] | None] = [(0, 0)]
    while stack:
        top = stack.pop()
        if top is None:
            chosen.pop()
            continue
        i, mask = top
        budget.tick()
        if len(chosen) >= best_size:
            continue
        if i == len(edges):
            if _defects(g, (), full & ~mask)[0] == 0:  # no edge left with both ends free
                best_size, best = len(chosen), frozenset(chosen)
            continue
        u, v = edges[i]
        bit = (1 << u) | (1 << v)
        stack.append((i + 1, mask))
        if not mask & bit and len(chosen) + 1 < best_size:
            chosen.append((u, v))
            stack += (None, (i + 1, mask | bit))
    return best_size, best


class _BlockConfig(_Record):
    """One admissible way a strongly maximal matching can meet a block.

    Internal vertices never touch other blocks, so every property except the
    coverage of the two original endpoints is final: the flags say which
    cross-block augmenting paths this configuration can take part in.
    """

    _fields = ("edge_idx", "size", "cov_u", "cov_v", "head_u_free", "head_v_free",
               "dang_u", "dang_v", "sec_u", "sec_v", "bridge_matched")
    edge_idx: tuple[int, ...]
    size: int
    cov_u: bool
    cov_v: bool
    head_u_free: bool  # a1 free: endpoint u must end covered
    head_v_free: bool
    dang_u: bool  # 3-path from a free u into the block exists
    dang_v: bool
    sec_u: bool  # u matched here with a free second step behind a1
    sec_v: bool
    bridge_matched: bool

    def __init__(self, edge_idx: tuple[int, ...], size: int, cov_u: bool, cov_v: bool,
                 head_u_free: bool, head_v_free: bool, dang_u: bool, dang_v: bool,
                 sec_u: bool, sec_v: bool, bridge_matched: bool) -> None:
        d = self.__dict__
        d["edge_idx"], d["size"], d["cov_u"], d["cov_v"] = edge_idx, size, cov_u, cov_v
        d["head_u_free"], d["head_v_free"], d["dang_u"] = head_u_free, head_v_free, dang_u
        d["dang_v"], d["sec_u"], d["sec_v"] = dang_v, sec_u, sec_v
        d["bridge_matched"] = bridge_matched


def _block_configs() -> tuple[_BlockConfig, ...]:
    out = []
    L = len(_TEMPLATE_EDGES)

    def free(used: set[int], x: int) -> bool:
        return x not in used

    def rec(i: int, used: set[int], picked: list[int]) -> None:
        if i < L:
            a, b = _TEMPLATE_EDGES[i]
            if a not in used and b not in used:
                picked.append(i)
                rec(i + 1, used | {a, b}, picked)
                picked.pop()
            rec(i + 1, used, picked)
            return
        # no internal edge may stay free-free (a length-1 path)
        if any(free(used, a) and free(used, b) for a, b in _TEMPLATE_INTERNAL):
            return
        m = {tuple(sorted(_TEMPLATE_EDGES[j])) for j in picked}

        def matched(x: int, y: int) -> bool:
            return tuple(sorted((x, y))) in m

        # no 3-path may exist entirely among internal vertices
        for x, y in _TEMPLATE_INTERNAL:
            if not matched(x, y):
                continue
            ends_x = [
                z
                for z in range(8)
                if matched_adj(x, z) and z != y and free(used, z)
            ]
            ends_y = [
                z
                for z in range(8)
                if matched_adj(y, z) and z != x and free(used, z)
            ]
            if ends_x and ends_y and (len(ends_x) > 1 or len(ends_y) > 1 or ends_x != ends_y):
                return
        out.append(
            _BlockConfig(
                tuple(picked),
                len(picked),
                not free(used, _TEMPLATE_U),
                not free(used, _TEMPLATE_V),
                free(used, _A1),
                free(used, _B1),
                (matched(_A1, _A2) and free(used, _A3))
                or (matched(_A1, _B1) and free(used, _B2)),
                (matched(_B1, _B2) and free(used, _B3))
                or (matched(_A1, _B1) and free(used, _A2)),
                matched(_TEMPLATE_U, _A1) and (free(used, _A2) or free(used, _B1)),
                matched(_TEMPLATE_V, _B1) and (free(used, _B2) or free(used, _A1)),
                matched(_A1, _B1),
            )
        )

    adj: dict[int, list[int]] = {}
    for a, b in _TEMPLATE_EDGES:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    def matched_adj(x: int, z: int) -> bool:
        return z in adj[x] and z < 8

    rec(0, set(), [])
    out.sort(key=lambda cfg: (cfg.size, cfg.edge_idx))
    return tuple(out)


_BLOCK_CONFIGS = _block_configs()


def _min_smm_branch_bound(gadget: Gadget, upper: int, budget: _Counter) -> int:
    """Exact minimum strongly maximal matching of the host.

    Searches block by block over the admissible block configurations.  All
    cross-block augmenting paths run through original vertices, so they are
    refuted from the per-configuration flags once a vertex's last incident
    block is decided; a bitmask check at the surviving leaves guards the
    flag analysis.  Every block holds at least three edges, which gives the
    pruning bound.
    """
    host = gadget.host
    items = list(gadget.blocks.items())
    nblocks = len(items)
    block_host_edges = [_block_edges(ids, *e) for e, ids in items]
    last_block: dict[int, int] = {}
    for bi, ((u, v), _ids) in enumerate(items):
        last_block[u] = bi
        last_block[v] = bi
    chosen: list[_BlockConfig | None] = [None] * nblocks
    covered: set[int] = set()
    head_free: dict[int, int] = {}
    dang: dict[int, int] = {}
    sec: dict[int, int] = {}
    full = (1 << host.n) - 1

    def leaf_ok() -> bool:
        flat = []
        mask = 0
        for bi, cfg in enumerate(chosen):
            for j in cfg.edge_idx:
                e = block_host_edges[bi][j]
                flat.append(e)
                mask |= (1 << e[0]) | (1 << e[1])
        return _defects(host, flat, full & ~mask) == (0, 0)

    def finalize_ok(w: int) -> bool:
        if w in covered:
            return not (head_free.get(w) and sec.get(w))
        return not head_free.get(w) and not dang.get(w)

    def place(bi: int, cfg: _BlockConfig, sign: int) -> None:
        """Add (sign 1) or remove (sign -1) block bi's configuration."""
        u, v = items[bi][0]
        for w, cov, hf, dg, sc in (
            (u, cfg.cov_u, cfg.head_u_free, cfg.dang_u, cfg.sec_u),
            (v, cfg.cov_v, cfg.head_v_free, cfg.dang_v, cfg.sec_v),
        ):
            if cov:
                if sign > 0:
                    covered.add(w)
                else:
                    covered.discard(w)
            head_free[w] = head_free.get(w, 0) + sign * hf
            dang[w] = dang.get(w, 0) + sign * dg
            sec[w] = sec.get(w, 0) + sign * sc
        chosen[bi] = cfg if sign > 0 else None

    def visit(bi: int, size: int) -> bool:
        """Spend one node on blocks 0..bi-1 decided at total ``size``: a leaf
        that passes its checks is the best so far.  True when block bi's
        configurations are still to be searched."""
        nonlocal best
        budget.tick()
        if size + 3 * (nblocks - bi) >= best:
            return False
        if bi < nblocks:
            return True
        for b2, cfg in enumerate(chosen):
            if cfg.bridge_matched:
                u2, v2 = items[b2][0]
                if u2 not in covered and v2 not in covered:
                    return False
        if not leaf_ok():
            raise InvariantViolation("flag analysis admitted a non-SMM leaf")
        best = size
        return False

    # one frame [block, size, next configuration] per block being searched;
    # a frame whose block holds a configuration is back from searching under it
    best = upper + 1
    stack = [[0, 0, 0]] if visit(0, 0) else []
    while stack:
        frame = stack[-1]
        bi, size, ci = frame
        if chosen[bi] is not None:
            place(bi, chosen[bi], -1)
        u, v = items[bi][0]
        for ci in range(ci, len(_BLOCK_CONFIGS)):
            cfg = _BLOCK_CONFIGS[ci]
            if (cfg.cov_u and u in covered) or (cfg.cov_v and v in covered):
                continue
            place(bi, cfg, 1)
            if (
                (last_block[u] != bi or finalize_ok(u))
                and (last_block[v] != bi or finalize_ok(v))
                and visit(bi + 1, size + cfg.size)
            ):
                frame[2] = ci + 1
                stack.append([bi + 1, size + cfg.size, 0])
                break
            place(bi, cfg, -1)
        else:
            stack.pop()
    return best


def certify_reduction(g: Graph, search_budget: int = 10**7) -> ReductionReport:
    """Compute both optima independently and check the 3-per-edge identity."""
    budget = _Counter(search_budget, "certification search")
    gadget = build_gadget(g)
    mmm, mmm_witness = _min_maximal_matching(g, budget)
    if is_forest(gadget.host):
        smm, _ = min_smm_forest(gadget.host)
    elif gadget.origin_edges:
        upper = len(lift_matching(g, mmm_witness))
        smm = min(_min_smm_branch_bound(gadget, upper=upper, budget=budget), upper)
    else:
        smm = 0
    m_edges = len(gadget.origin_edges)
    return ReductionReport(mmm, smm, m_edges, mmm == smm - 3 * m_edges)
