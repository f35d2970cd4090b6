"""Deterministic random instances for benchmarks and tests."""

from __future__ import annotations

import random

from .graph import Graph


def random_labeled_tree(n: int, rng: random.Random) -> Graph:
    """Uniform labeled tree, decoded from a random parent sequence."""
    if n <= 0:
        raise ValueError("tree needs n >= 1")
    if n == 1:
        return Graph.from_edges(1, ())
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    count = [0] * n
    for v in seq:
        count[v] += 1
    edges = []
    leaf_heap = sorted(v for v in range(n) if count[v] == 0)
    import heapq

    heapq.heapify(leaf_heap)
    for v in seq:
        leaf = heapq.heappop(leaf_heap)
        edges.append((leaf, v))
        count[v] -= 1
        if count[v] == 0:
            heapq.heappush(leaf_heap, v)
    edges.append((heapq.heappop(leaf_heap), heapq.heappop(leaf_heap)))
    return Graph.from_edges(n, edges)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_triangle_free(n: int, p: float, rng: random.Random) -> Graph:
    """Greedy triangle-free subgraph of a random edge order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    edges = []
    for u, v in pairs:
        if rng.random() >= p:
            continue
        if nbrs[u] & nbrs[v]:
            continue
        nbrs[u].add(v)
        nbrs[v].add(u)
        edges.append((u, v))
    return Graph.from_edges(n, edges)

