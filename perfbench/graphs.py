"""The benchmark's own graph code: generators, file writers and reference
answers.

Nothing here imports ``bchrom``.  The reference answers are computed from
the definitions, so a checker built on them stays independent of the code
under test.  Graphs are ``(n, edges)`` pairs with ``0 <= u < v < n``.
"""

from __future__ import annotations

import heapq
import random

# ---------------------------------------------------------------------------
# Trees and forests
# ---------------------------------------------------------------------------


def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform labelled tree on n vertices, decoded from a Pruefer sequence."""
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    count = [0] * n
    for v in seq:
        count[v] += 1
    leaves = [v for v in range(n) if count[v] == 0]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append(norm(leaf, v))
        count[v] -= 1
        if count[v] == 0:
            heapq.heappush(leaves, v)
    edges.append(norm(heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def path_tree(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def star_tree(n: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


def caterpillar(n: int, legs: int) -> list[tuple[int, int]]:
    """A spine with ``legs`` leaves on every spine vertex, cut to n vertices."""
    spine = max(1, n // (legs + 1))
    edges = path_tree(spine)
    nid = spine
    for s in range(spine):
        for _ in range(legs):
            if nid < n:
                edges.append((s, nid))
                nid += 1
    while nid < n:  # leftover vertices extend the spine's last leaf
        edges.append((nid - 1, nid))
        nid += 1
    return edges


def random_forest(n: int, parts: int, rng: random.Random) -> list[tuple[int, int]]:
    """``parts`` random trees of near-equal size on disjoint vertex ranges."""
    edges = []
    start = 0
    for i in range(parts):
        size = n // parts + (1 if i < n % parts else 0)
        edges += [(u + start, v + start) for u, v in random_tree(size, rng)]
        start += size
    return edges


def norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def relabel(edges, perm: list[int]) -> list[tuple[int, int]]:
    return sorted(norm(perm[u], perm[v]) for u, v in edges)


def random_perm(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def complement_edges(n: int, edges) -> list[tuple[int, int]]:
    bits = bitsets(n, edges)
    out = []
    for u in range(n):
        row = ~bits[u]
        out += [(u, v) for v in range(u + 1, n) if (row >> v) & 1]
    return out


def bitsets(n: int, edges) -> list[int]:
    bits = [0] * n
    for u, v in edges:
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    return bits


def forest_matching_number(n: int, edges) -> int:
    """Maximum matching size of a forest: repeatedly match a leaf to its
    neighbour, which is optimal on forests."""
    adj = [set(a) for a in adjacency(n, edges)]
    alive = [True] * n
    stack = [v for v in range(n) if len(adj[v]) == 1]
    size = 0
    while stack:
        v = stack.pop()
        if not alive[v] or len(adj[v]) != 1:
            continue
        (w,) = adj[v]
        size += 1
        for x in (v, w):
            alive[x] = False
            for y in adj[x]:
                adj[y].discard(x)
                if alive[y] and len(adj[y]) == 1:
                    stack.append(y)
            adj[x] = set()
    return size


# ---------------------------------------------------------------------------
# Tree references (Irving & Manlove, Discrete Appl. Math. 91, 1999)
# ---------------------------------------------------------------------------


def m_degree(degrees: list[int]) -> int:
    """Largest i such that at least i vertices have degree at least i - 1."""
    m = 0
    for i, d in enumerate(sorted(degrees, reverse=True), start=1):
        if d < i - 1:
            break
        m = i
    return m


def degree_at_least(degrees: list[int], top: int) -> list[int]:
    """counts[d] = number of vertices of degree >= d, for d in 0..top."""
    counts = [0] * (top + 2)
    for d in degrees:
        counts[min(d, top + 1)] += 1
    for d in range(top, -1, -1):
        counts[d] += counts[d + 1]
    return counts[:top + 1]


def tree_is_pivoted(n: int, edges) -> bool:
    """True iff the tree has exactly m dense vertices and a non-dense vertex
    v such that every dense vertex is adjacent to v or to a dense neighbour
    of v, and every dense neighbour of v that has a dense neighbour has
    degree m - 1."""
    adj = [set(a) for a in adjacency(n, edges)]
    m = m_degree([len(a) for a in adj])
    dense = {v for v in range(n) if len(adj[v]) >= m - 1}
    if len(dense) != m:
        return False
    for v in range(n):
        if v in dense:
            continue
        near = dense & adj[v]
        reach = set(near)
        for d in near:
            reach |= dense & adj[d]
        if reach != dense:
            continue
        if all(len(adj[d]) == m - 1 for d in near if dense & adj[d]):
            return True
    return False


def tree_references(n: int, edges) -> dict:
    """b-chromatic number and dominance vector of a tree with n >= 2.

    Up to the b-chromatic number every t-coloring can be a b-coloring; for a
    pivoted tree the degree bound m misses one dominant class; above that a
    class needs a vertex of degree at least t - 1 to dominate.
    """
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    m = m_degree(degrees)
    pivoted = tree_is_pivoted(n, edges)
    chi_b = m - 1 if pivoted else m
    delta = max(degrees)
    at_least = degree_at_least(degrees, delta)
    dom = []
    for t in range(2, n + 1):
        if t <= chi_b:
            dom.append(t)
        elif pivoted and t == m:
            dom.append(m - 1)
        elif t <= delta + 1:
            dom.append(at_least[t - 1])
        else:
            dom.append(0)
    return {"chi_b": chi_b, "chi": 2, "dom": dom, "delta": delta}


# ---------------------------------------------------------------------------
# Tree-cograph expressions
# ---------------------------------------------------------------------------
#
# An expression is a nested list: ["tree", n, edges], ["cotree", n, edges],
# ["union", [children]] or ["join", [children]].  Vertex ids are given to
# leaves depth-first, left to right, as in the ``.tcx`` format.


def leaf(kind: str, n: int, edges) -> list:
    return [kind, n, [list(e) for e in edges]]


def _postorder(expr):
    """Yield the nodes of an expression in post-order, without recursion."""
    stack = [(expr, False)]
    while stack:
        node, done = stack.pop()
        if node[0] in ("tree", "cotree") or done:
            yield node
            continue
        stack.append((node, True))
        for child in reversed(node[1]):
            stack.append((child, False))


def expression_graph(expr) -> tuple[int, list[tuple[int, int]]]:
    """The graph an expression denotes."""
    edges: list[tuple[int, int]] = []
    spans: dict[int, list[int]] = {}
    nxt = 0
    for node in _postorder(expr):
        if node[0] in ("tree", "cotree"):
            n, local = node[1], [tuple(e) for e in node[2]]
            ids = list(range(nxt, nxt + n))
            nxt += n
            if node[0] == "cotree":
                local = complement_edges(n, local)
            edges += [norm(ids[u], ids[v]) for u, v in local]
            spans[id(node)] = ids
            continue
        parts = [spans.pop(id(c)) for c in node[1]]
        if node[0] == "join":
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    edges += [norm(a, b) for a in parts[i] for b in parts[j]]
        spans[id(node)] = [v for p in parts for v in p]
    return nxt, sorted(edges)


def expression_chromatic(expr) -> int:
    """Chromatic number: 2 for a tree leaf with an edge, n - nu for a co-tree
    leaf, maximum over a union and sum over a join."""
    val: dict[int, int] = {}
    for node in _postorder(expr):
        kind = node[0]
        if kind == "tree":
            val[id(node)] = 1 if node[1] == 1 else 2
        elif kind == "cotree":
            val[id(node)] = node[1] - forest_matching_number(node[1], node[2])
        else:
            parts = [val.pop(id(c)) for c in node[1]]
            val[id(node)] = max(parts) if kind == "union" else sum(parts)
    return val[id(expr)]


def expression_size(expr) -> int:
    return sum(node[1] for node in _postorder(expr) if node[0] in ("tree", "cotree"))


def format_tcx(expr) -> str:
    """``.tcx`` text with inline leaves, written without recursion."""
    out: list[str] = []
    stack: list = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        if node[0] in ("tree", "cotree"):
            nums = " ".join(f"{u} {v}" for u, v in node[2])
            out.append(f"({node[0]} {node[1]} {nums})".replace(" )", ")"))
            continue
        out.append(f"({node[0]}")
        stack.append(")")
        for child in reversed(node[1]):
            stack.append(child)
            stack.append(" ")
    return "".join(out) + "\n"


# ---------------------------------------------------------------------------
# Structural facts for `analyze` and the workload filters
# ---------------------------------------------------------------------------


def is_triangle_free(bits: list[int], edges) -> bool:
    return all(not bits[u] & bits[v] for u, v in edges)


def is_connected(n: int, adj) -> bool:
    if n <= 1:
        return True
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return all(seen)


def is_forest(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def analyze_facts(n: int, edges) -> dict:
    """The report `bchrom analyze` prints for a tree-cograph, recomputed here."""
    bits = bitsets(n, edges)
    adj = adjacency(n, edges)
    co = complement_edges(n, edges)
    full = (1 << n) - 1
    cobits = [full & ~bits[v] & ~(1 << v) for v in range(n)]
    yes = {True: "yes", False: "no"}
    degrees = [len(a) for a in adj]
    return {
        "vertices": str(n),
        "edges": str(len(edges)),
        "tree": yes[n >= 1 and len(edges) == n - 1 and is_connected(n, adj)],
        "triangle-free": yes[is_triangle_free(bits, edges)],
        "stability-at-most-two": yes[is_triangle_free(cobits, co)],
        "tree-cograph": "yes",
        "m-bound": str(m_degree(degrees)),
        "max-degree": str(max(degrees, default=0)),
    }


# ---------------------------------------------------------------------------
# Edge-list files (the format `bchrom` reads)
# ---------------------------------------------------------------------------


def write_edgelist(path: str, n: int, edges) -> int:
    """Write ``p n m`` plus one ``e u v`` line per edge; return the size."""
    text = f"p {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text)
