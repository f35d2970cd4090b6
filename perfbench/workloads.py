"""Request pools for each workload, built from a seed.

A pool is a list of instances, each written to files before timing starts,
and a list of requests, each one question about one instance.  One pass of
the closed loop issues every request of the pool once, so every pass has
the same mix of questions, shapes, size bands and formats.

Most instances come in two random vertex labellings, ``a`` and ``b``; the
loop alternates them between passes, so the checker can require the same
answer under relabelling.  Tree-cographs also come as a ``.tcx``
expression.  Reference answers that the benchmark can compute from the
definitions are stored with the instance; see ``graphs.py``.
"""

from __future__ import annotations

import os
import random

import graphs as G

# Per-request time limits in seconds.  They are far above the slowest
# answered request of each workload, so a limit is reached only by a request
# that hangs or searches without bound.
LIMITS = {"tree": 5.0, "cotree": 20.0, "tcograph": 20.0, "defects": 10.0}

# Passes over the pool in a run of NOMINAL_SECONDS.  The counts are fixed,
# so every run of a workload takes each request's fastest of the same
# number of samples, however fast the code is; they were chosen so that
# the seed's code spends about NOMINAL_SECONDS in requests.
PASSES = {"tree": 16, "cotree": 6, "tcograph": 6, "defects": 2}
NOMINAL_SECONDS = 25


def pass_count(workload: str, seconds: float, traced: bool) -> int:
    """Passes for a run of ``seconds``: a multiple of two, so both
    labellings get as many passes, and of four when traced, so each
    labelling gets as many traced as untraced passes.  Rounded down, so a
    traced run, whose passes are slower, has no more passes than an
    untraced one; at least two, an untraced and a traced one when traced."""
    step = 4 if traced else 2
    return max(2, step * int(PASSES[workload] * seconds / NOMINAL_SECONDS / step))

# Instances per size band.  ``tiny`` instances (n <= 10) are also answered
# by the brute-force oracle.  Trees above 700 vertices get no coloring
# questions: the seed's tree b-coloring recurses once per vertex and fails
# near 1000 vertices, which the ``defects`` workload shows instead.  Nor do
# random trees above the tiny band: its search for a b-coloring ran past
# the limit on one labelling of one random 300-vertex tree in ten seeds.
TREE_SIZES = {
    "tiny": [("random", 7), ("random", 9), ("caterpillar", 8), ("path", 6)],
    "300": [("random", 300)] * 4 + [("path", 300), ("star", 300), ("caterpillar", 300),
                                    ("caterpillar", 300)],
    "700": [("random", 700), ("random", 700), ("path", 700), ("caterpillar", 700)],
    "2000": [("random", 2000), ("random", 2000), ("path", 2000), ("star", 2000),
             ("caterpillar", 2000)],
    "6000": [("random", 6000), ("random", 6000), ("caterpillar", 6000),
             ("caterpillar", 6000)],
    "20000": [("random", 20000), ("caterpillar", 20000)],
}
TREE_COLORED_BANDS = ("tiny", "300", "700")

# A pass over each pool takes a few seconds, so a run holds several passes
# and every request's median over them filters out short slowdowns of the
# machine.
COTREE_SIZES = {
    "tiny": [("random", 7), ("random", 9)],
    "chain": [("random", 50), ("path", 50)],
    "200": [("random", 200), ("random", 200), ("path", 200), ("star", 200),
            ("forest", 200)],
    "400": [("random", 400), ("random", 400), ("forest", 400)],
    "700": [("random", 700)],
}

# (family, vertices, top operation): wide expressions have two levels of
# operations over many leaves, nested ones are random trees of operations,
# and chains alternate join and union around one vertex per level, like a
# threshold graph, so their depth is the vertex count.
TCOGRAPH_SIZES = {
    "tiny": [("nested", 8, "join"), ("wide", 9, "union")],
    "nested": [("nested", 120, "join"), ("nested", 160, "union"), ("nested", 200, "join")],
    "wide": [("wide", 200, "union"), ("wide", 300, "join")],
    "chain": [("chain", 100, "join"), ("chain", 200, "join")],
}


def build(workload: str, seed: int, workdir: str, sizes: dict | None = None) -> dict:
    """Write the pool's files under ``workdir``; return the manifest."""
    rng = random.Random(f"{workload}:{seed}")
    make_pool = {
        "tree": _tree_pool,
        "cotree": _cotree_pool,
        "tcograph": _tcograph_pool,
        "defects": _defects_pool,
    }[workload]
    pool = _Pool(workdir, rng)
    make_pool(pool, sizes)
    return {
        "workload": workload,
        "seed": seed,
        "limit_s": LIMITS[workload],
        "instances": pool.instances,
        "requests": pool.requests,
    }


class _Pool:
    def __init__(self, workdir: str, rng: random.Random) -> None:
        self.workdir = workdir
        self.rng = rng
        self.instances: dict[str, dict] = {}
        self.requests: list[dict] = []

    def instance(self, shape: str, band: str, n: int, ref: dict) -> dict:
        iid = f"i{len(self.instances)}"
        inst = {"id": iid, "shape": shape, "band": band, "n": n, "ref": ref,
                "files": {}, "truth": {}}
        self.instances[iid] = inst
        return inst

    def add_labelled(self, inst: dict, kind: str, edges, with_tree: bool = False,
                     rng: random.Random | None = None) -> None:
        """Write two random labellings of a graph as ``a`` and ``b``, drawn
        from ``rng`` or else the pool's generator.

        ``kind`` is ``plain`` for the graph itself and ``co`` for the
        complement of ``edges``.  With ``with_tree`` the forest ``edges``
        is written too, as ``tree-a`` and ``tree-b`` in the same labellings.
        """
        n = inst["n"]
        for lab in ("a", "b"):
            rel = G.relabel(edges, G.random_perm(n, rng or self.rng))
            written = G.complement_edges(n, rel) if kind == "co" else rel
            self._write(inst, lab, kind, n, written, rel)
            if with_tree:
                self._write(inst, "tree-" + lab, "plain", n, rel, rel)

    def _write(self, inst: dict, key: str, kind: str, n: int, written, truth) -> None:
        path = os.path.join(self.workdir, f"{inst['id']}-{key}.txt")
        G.write_edgelist(path, n, written)
        inst["files"][key] = path
        inst["truth"][key] = {"kind": kind, "edges": truth}

    def ask(self, inst: dict, question: str, keys: list[str], fmt: str, k=None) -> None:
        self.requests.append({
            "id": len(self.requests), "inst": inst["id"], "q": question,
            "k": k, "keys": keys, "fmt": fmt, "shape": inst["shape"],
            "band": inst["band"],
        })


def _tree_edges(shape: str, n: int, rng: random.Random):
    if shape == "random":
        return G.random_tree(n, rng)
    if shape == "path":
        return G.path_tree(n)
    if shape == "star":
        return G.star_tree(n)
    if shape == "caterpillar":
        return G.caterpillar(n, rng.randint(2, 4))
    if shape == "forest":
        return G.random_forest(n, rng.randint(2, 4), rng)
    raise ValueError(shape)


def _tree_bcolor_k(shape: str, band: str, ref: dict, rng: random.Random) -> int:
    """k for `bcolor`, drawn from 2..max degree + 1 where the seed answers.

    The seed fails k = 2, k = 3 (below the b-chromatic number) and
    k > max degree + 1 on randomly labelled trees of a few hundred vertices
    with BudgetExceeded; the ``defects`` workload asks those instead.
    """
    top = ref["delta"] + 1
    if band == "tiny" or shape == "star":
        return rng.randint(2, min(top, 8))
    if shape == "path":
        return 3
    return rng.randint(min(4, top), top)


def _tree_pool(pool: _Pool, sizes: dict | None) -> None:
    for band, specs in (sizes or TREE_SIZES).items():
        for shape, n in specs:
            edges = _tree_edges(shape, n, pool.rng)
            ref = G.tree_references(n, edges)
            inst = pool.instance(shape, band, n, ref)
            inst["tiny"] = band == "tiny"
            pool.add_labelled(inst, "plain", edges)
            if band in TREE_COLORED_BANDS and (shape != "random" or band == "tiny"):
                pool.ask(inst, "bchromatic-witness", ["a", "b"], "edgelist")
                pool.ask(inst, "bcolor", ["a", "b"], "edgelist",
                         _tree_bcolor_k(shape, band, ref, pool.rng))
            else:
                pool.ask(inst, "bchromatic", ["a", "b"], "edgelist")
            pool.ask(inst, "dominance", ["a", "b"], "edgelist")


def _cotree_pool(pool: _Pool, sizes: dict | None) -> None:
    for band, specs in (sizes or COTREE_SIZES).items():
        for shape, n in specs:
            edges = _tree_edges(shape, n, pool.rng)
            nu = G.forest_matching_number(n, edges)
            inst = pool.instance(shape, band, n, {"chi": n - nu, "nu": nu})
            inst["tiny"] = band == "tiny"
            is_tree = shape != "forest"
            pool.add_labelled(inst, "co", edges, with_tree=is_tree)
            if band == "chain" or band == "tiny":
                # the continuity chain ends at the chromatic number n - nu
                pool.ask(inst, "bcolor", ["a", "b"], "edgelist", n - nu)
            if band != "chain":
                pool.ask(inst, "bchromatic-witness", ["a", "b"], "edgelist")
                pool.ask(inst, "dominance", ["a", "b"], "edgelist")
                if is_tree:
                    pool.ask(inst, "deficiency", ["tree-a", "tree-b"], "tree-edgelist",
                             pool.rng.randint(1, nu))


def _leaf(rng: random.Random, size: int) -> list:
    kind = "tree" if size <= 2 else rng.choice(("tree", "cotree"))
    return G.leaf(kind, size, G.random_tree(size, rng))


def _split(total: int, parts: int, least: int, rng: random.Random) -> list[int]:
    """``parts`` random sizes of at least ``least`` that sum to ``total``."""
    cuts = sorted(rng.sample(range(1, total - parts * (least - 1)), parts - 1))
    return [b - a + least - 1 for a, b in zip([0] + cuts, cuts + [total - parts * (least - 1)])]


def _expression(family: str, n: int, top: str, rng: random.Random) -> list:
    """An expression of the family on exactly n vertices whose root is the
    operation ``top``."""
    other = {"join": "union", "union": "join"}
    if family == "chain":
        expr = G.leaf("tree", 1, [])
        for level in range(n - 1):
            op = top if (n - 2 - level) % 2 == 0 else other[top]
            pair = [G.leaf("tree", 1, []), expr]
            expr = [op, pair if rng.random() < 0.5 else pair[::-1]]
        return expr
    if family == "wide":
        parts = 3 if n <= 10 else max(4, n // 20)
        leaves = [_leaf(rng, s) for s in _split(n, parts, 2, rng)]
        cut = len(leaves) // 2
        if cut < 2:
            return [top, leaves]
        return [top, [[other[top], leaves[:cut]], [other[top], leaves[cut:]]]]
    if family == "nested":
        # split the vertex budget recursively, alternating operations
        def grow(budget: int, op: str) -> list:
            parts = rng.randint(2, 4)
            if budget < 2 * parts or (budget <= 20 and rng.random() < 0.5):
                return _leaf(rng, budget)
            return [op, [grow(s, other[op]) for s in _split(budget, parts, 1, rng)]]

        return grow(n, top)
    raise ValueError(family)


def _tcograph_ok(n: int, edges, facts: dict) -> bool:
    """False for stability-2 graphs whose complement is not a forest and
    which exceed the exact-search cap: the seed's `bchromatic` refuses them
    on edge lists (the ``defects`` workload asks one)."""
    if facts["stability-at-most-two"] == "no" or n <= 16:
        return True
    return G.is_forest(n, G.complement_edges(n, edges))


def _add_tcograph(pool: _Pool, band: str, family: str, expr, questions) -> None:
    ref = {"chi": G.expression_chromatic(expr)}
    if all(fmt == "tcx" and q != "analyze" for q, fmt in questions):
        n = G.expression_size(expr)
    else:
        n, edges = G.expression_graph(expr)
        ref["facts"] = G.analyze_facts(n, edges)
    inst = pool.instance(family, band, n, ref)
    inst["tiny"] = n <= 10
    path = os.path.join(pool.workdir, f"{inst['id']}.tcx")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(G.format_tcx(expr))
    inst["files"]["tcx"] = path
    if "facts" in ref:
        pool.add_labelled(inst, "plain", edges)
    for q, fmt in questions:
        pool.ask(inst, q, ["tcx"] if fmt == "tcx" else ["a", "b"], fmt)


def _tcograph_pool(pool: _Pool, sizes: dict | None) -> None:
    questions = [(q, fmt) for q in ("bchromatic", "dominance", "analyze")
                 for fmt in ("tcx", "edgelist")]
    for band, specs in (sizes or TCOGRAPH_SIZES).items():
        for family, n, top in specs:
            while True:
                expr = _expression(family, n, top, pool.rng)
                n, edges = G.expression_graph(expr)
                if _tcograph_ok(n, edges, G.analyze_facts(n, edges)):
                    break
            _add_tcograph(pool, band, family, expr, questions)


def _defects_pool(pool: _Pool, sizes: dict | None) -> None:
    """Requests the seed is known to fail, one of each kind.  Not part of
    the gated workloads, whose requests must all be answered."""
    rng = pool.rng
    for shape, n, ks in (("random", 300, ("2", "3", "delta+2")),
                         ("caterpillar", 465, ("delta+1",))):
        edges = _tree_edges(shape, n, rng)
        ref = G.tree_references(n, edges)
        inst = pool.instance(shape, "defect", n, ref)
        pool.add_labelled(inst, "plain", edges)
        for k in ks:
            value = {"delta+2": ref["delta"] + 2, "delta+1": ref["delta"] + 1}.get(k)
            pool.ask(inst, "bcolor", ["a", "b"], "edgelist", value or int(k))
    edges = G.star_tree(20000)
    inst = pool.instance("star", "defect", 20000, G.tree_references(20000, edges))
    pool.add_labelled(inst, "plain", edges)
    pool.ask(inst, "dominance", ["a", "b"], "edgelist")
    edges = G.random_tree(2000, rng)
    inst = pool.instance("random", "defect", 2000, G.tree_references(2000, edges))
    pool.add_labelled(inst, "plain", edges)
    pool.ask(inst, "bchromatic-witness", ["a", "b"], "edgelist")
    # A random 300-vertex tree with b-chromatic number = max degree + 1 = 6
    # on which the witness search runs past the limit in labelling ``a``
    # and answers in ``b``.  It was found by trying such trees drawn from
    # this generator: about one labelling in a thousand is this slow.
    slow = random.Random("slow-witness:3161")
    edges = G.random_tree(300, slow)
    inst = pool.instance("random", "defect", 300, G.tree_references(300, edges))
    pool.add_labelled(inst, "plain", edges, rng=slow)
    pool.ask(inst, "bchromatic-witness", ["a", "b"], "edgelist")

    edges = G.random_tree(300, rng)
    nu = G.forest_matching_number(300, edges)
    inst = pool.instance("random", "defect", 300, {"chi": 300 - nu, "nu": nu})
    pool.add_labelled(inst, "co", edges)
    pool.ask(inst, "bcolor", ["a", "b"], "edgelist", 300 - nu)

    cliques = ["union", [["join", [G.leaf("tree", 1, []) for _ in range(15)]]
                         for _ in range(2)]]
    _add_tcograph(pool, "defect", "two-cliques", cliques, [("bchromatic", "edgelist")])
    _add_tcograph(pool, "defect", "chain", _expression("chain", 1500, "join", rng),
                  [("dominance", "tcx")])
    _add_tcograph(pool, "defect", "chain", _expression("chain", 600, "join", rng),
                  [("dominance", "edgelist")])
