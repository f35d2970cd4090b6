"""The route planner: which exact computation answers a question.

``ROUTES`` is the table, one row per route, in the order tried: tree (a tree
on two or more vertices), co-forest (the complement is a forest),
tree-cograph (a ``.tcx`` expression, or a graph that decomposes into one)
and exact search (stability at most two and n <= ``max_n``).  A row's
``attempt`` tests the input; its ``gives`` names what it answers, of the
value (b-chromatic number), the dominance vector, a witness b-coloring and a
coloring with k classes and dom[k] dominant ones.  ``plan`` returns the
first route that applies and gives what the command needs; cheap tests
come first, and the decomposition runs only on what is neither a tree nor a
co-forest.  An expression is routed without its graph when the
tree-cograph route gives what is needed (a tree leaf is a tree, a co-tree
leaf a co-forest); otherwise its graph is built.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import ClassVar

from .bcoloring import continuity_chain, matching_to_coloring
from .dominance import _cotree_dominance_from_tree, b_chromatic_tree, b_coloring_tree
from .dominance import dominance_join, dominance_tc, dominance_vector_tree
from .errors import KOutOfRange, NoRoute, NotTreeCograph
from .graph import CoTreeLeaf, Graph, TcExpr, TreeLeaf, complement, connected_components
from .graph import decompose_tree_cograph, evaluate_tc, induced_subgraph, is_coforest, is_tree
from .graph import stability_at_most_two
from .oracle import DEFAULT_BUDGET, OracleBudget, oracle_dominance, oracle_min_smm
from .tree_dp import DeficiencyTables, deficiency_tables, min_smm_forest

NEEDS = ("value", "vector", "witness", "coloring")


class Route:
    """An exact route for one input, with a ``"route: reason"`` line in
    ``rejected`` per route tried before it.  ``tree`` is the one tree whose
    matching DPs it reads, if any; ``tables`` are those its vector built."""

    name: ClassVar[str]
    gives: ClassVar[frozenset[str]] = frozenset(NEEDS)
    rejected: tuple[str, ...] = ()
    tree: Graph | None = None
    tables: DeficiencyTables | None = None

    def __init__(self, **state) -> None:
        vars(self).update(state)


class TreeRoute(Route):
    name = "tree"
    value = cached_property(lambda self: b_chromatic_tree(self.tree))
    vector = cached_property(lambda self: dominance_vector_tree(self.tree))
    witness = cached_property(lambda self: self.coloring(self.value))

    def coloring(self, k: int):
        return b_coloring_tree(self.tree, k)

    @classmethod
    def attempt(cls, source: Graph | TcExpr, max_n: int) -> Route | str:
        if isinstance(source, Graph) and source.n >= 2 and is_tree(source):
            return cls(tree=source)
        if isinstance(source, TreeLeaf) and source.span >= 2:
            return cls(tree=evaluate_tc(source))
        return "not a tree on two or more vertices"


class _MatchingRoute(Route):
    """A stability-2 graph ``graph``, colored from a minimum strongly maximal
    matching ``_smm`` of its complement: matched pairs share a class."""

    value = cached_property(lambda self: self.graph.n - self._smm[0])
    witness = cached_property(lambda self: matching_to_coloring(self.graph, self._smm[1]))

    def coloring(self, k: int):
        by_t = {c.t: c for c in continuity_chain(self.graph, self.witness)}
        if k not in by_t:
            raise KOutOfRange(f"k={k} outside the b-spectrum [{min(by_t)}, {max(by_t)}]")
        return by_t[k]


class CoForestRoute(_MatchingRoute):
    name = "co-forest"
    graph = cached_property(lambda self: complement(self.co))
    _smm = cached_property(lambda self: min_smm_forest(self.co))

    @cached_property
    def vector(self):
        if self.tree is not None:
            self.tables = deficiency_tables(self.tree)
            return _cotree_dominance_from_tree(self.tree, self.tables)
        parts = [_cotree_dominance_from_tree(induced_subgraph(self.co, comp))
                 for comp in connected_components(self.co)]
        return reduce(lambda a, b: dominance_join(a, b, a.n, b.n), parts)

    @classmethod
    def attempt(cls, source: Graph | TcExpr, max_n: int) -> Route | str:
        if isinstance(source, Graph) and is_coforest(source):
            co = complement(source)
        elif isinstance(source, CoTreeLeaf):
            co = evaluate_tc(TreeLeaf(source.tree, source.vertices))
        else:
            return "the complement is not a forest"
        # a forest with n - 1 edges is one tree
        return cls(co=co, tree=co if co.n >= 2 and co.m == co.n - 1 else None)


class TreeCographRoute(Route):
    name = "tree-cograph"
    gives = frozenset(("value", "vector"))
    value = cached_property(lambda self: self.vector.b_chromatic())
    vector = cached_property(lambda self: dominance_tc(self.expr))

    @classmethod
    def attempt(cls, source: Graph | TcExpr, max_n: int) -> Route | str:
        if not isinstance(source, Graph):
            return cls(expr=source)
        try:
            return cls(expr=decompose_tree_cograph(source))
        except NotTreeCograph as exc:
            return f"not a tree-cograph ({exc})"


class ExactSearchRoute(_MatchingRoute):
    name = "exact-search"
    _smm = cached_property(lambda self: oracle_min_smm(complement(self.graph), DEFAULT_BUDGET))
    vector = cached_property(lambda self: oracle_dominance(self.graph, self.budget))

    @classmethod
    def attempt(cls, source: Graph, max_n: int) -> Route | str:
        if source.n > max_n:
            return f"n={source.n} exceeds the exact-search cap {max_n}"
        if not stability_at_most_two(source):
            return "stability above two"
        return cls(graph=source, budget=OracleBudget(max_n=max_n))


ROUTES = (TreeRoute, CoForestRoute, TreeCographRoute, ExactSearchRoute)


def plan(source: Graph | TcExpr, need: str, max_n: int = 16) -> Route:
    """The first route of ``ROUTES`` that applies to ``source`` and gives
    ``need``, one of ``NEEDS``; ``max_n`` caps the exact search.  Raises
    ``NoRoute``, naming why each route was rejected, when none does."""
    if isinstance(source, Graph):
        if source.n == 0:
            raise NoRoute("the graph has no vertices")
    elif need not in TreeCographRoute.gives:
        source = evaluate_tc(source)
    rejected = []
    for row in ROUTES:
        found = row.attempt(source, max_n) if need in row.gives else f"gives no {need}"
        if isinstance(found, Route):
            found.rejected = tuple(rejected)
            return found
        rejected.append(f"{row.name}: {found}")
    raise NoRoute(f"no exact route gives the {need}: " + "; ".join(rejected))
