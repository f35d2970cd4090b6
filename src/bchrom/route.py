"""The route planner: which exact computation answers a question.

``ROUTES`` is the table, one row per route, in the order tried: tree (a tree
on two or more vertices), co-forest (the complement is a forest), tree-cograph
(a ``.tcx`` expression, or a graph that decomposes into one) and exact search
(stability at most two and n <= ``max_n``).  A row's ``attempt`` tests the
input; its ``gives`` names what it answers, of the value (b-chromatic number),
the dominance vector, a witness b-coloring and a coloring with k classes and
dom[k] dominant ones, at any k in [chi, n].  ``plan`` returns the first route
that applies and gives what the command needs; cheap tests come first, and the
decomposition runs only on what is neither a tree nor a co-forest.  An
expression is routed without its graph when the tree-cograph route gives what
is needed; otherwise its graph is built.  A lone leaf goes to the tree or the
co-forest route on its stored tree, by ``TcLeaf.denotes_tree``.
"""

from __future__ import annotations

from functools import cached_property
from typing import ClassVar

from .bcoloring import matching_to_coloring, verify_coloring
from .dominance import b_chromatic_tree, b_coloring_tree, dominance_from_deficiency
from .dominance import dominance_tc, dominance_vector_tree
from .errors import InvariantViolation, KOutOfRange, NoRoute, NotTreeCograph
from .graph import Graph, TcExpr, TcLeaf, complement, decompose_tree_cograph
from .graph import evaluate_tc, is_coforest, is_tree, stability_at_most_two
from .matching import least_deficiency_matchings
from .oracle import OracleBudget, _Counter
from .tree_dp import DeficiencyTables, SmmTables, combine_all, forest_deficiency
from .tree_dp import forest_deficiency_matching, forest_parts, min_smm_forest, smm_tables

NEEDS = ("value", "vector", "witness", "coloring")


class Route:
    """An exact route for one input, with a ``"route: reason"`` line in
    ``rejected`` per route tried before it.  ``smm`` and ``tables`` are the
    scalar and deficiency tables of the one tree whose matching DPs the
    route reads, built once for its answers and ``--dump-tables``."""

    name: ClassVar[str]
    gives: ClassVar[frozenset[str]] = frozenset(NEEDS)
    rejected: tuple[str, ...] = ()
    smm: SmmTables | None = None
    tables: DeficiencyTables | None = None

    def __init__(self, **state) -> None:
        vars(self).update(state)


class TreeRoute(Route):
    name = "tree"
    value = cached_property(lambda self: b_chromatic_tree(self.tree))
    vector = cached_property(lambda self: dominance_vector_tree(self.tree))
    # dom[chi_b] = chi_b, so the witness needs no vector
    witness = cached_property(lambda self: b_coloring_tree(self.tree, self.value, self.value))
    smm = cached_property(lambda self: smm_tables(self.tree))

    def coloring(self, k: int):
        return b_coloring_tree(self.tree, k)

    @classmethod
    def attempt(cls, source: Graph | TcExpr, max_n: int) -> Route | str:
        if isinstance(source, TcLeaf) and source.denotes_tree:
            return cls(tree=source.tree)
        if isinstance(source, Graph) and source.n >= 2 and is_tree(source):
            return cls(tree=source)
        return "not a tree on two or more vertices"


class _MatchingRoute(Route):
    """A stability-2 graph ``graph``, colored from matchings of its complement
    ``co`` (matched pairs share a class): a minimum strongly maximal ``_smm``,
    and per size the least deficiency ``_f`` and a ``_matching`` attaining it."""

    value = cached_property(lambda self: self.graph.n - self._smm[0])
    witness = cached_property(lambda self: matching_to_coloring(self.graph, self._smm[1]))
    vector = cached_property(lambda self: dominance_from_deficiency(self.co.n, self._f))

    def coloring(self, k: int):
        """Pairs of a size-(n - k) matching of least deficiency share a
        class; the deficiency counts the non-dominant classes."""
        vec = self.vector
        if not vec.chi <= k <= vec.n:
            raise KOutOfRange(f"k={k} outside [{vec.chi}, {vec.n}]")
        coloring = matching_to_coloring(self.graph, self._matching(vec.n - k))
        found = len(verify_coloring(self.graph, coloring).dominant_classes)
        if found != vec.value_at(k):
            raise InvariantViolation(f"{self.name} coloring has {found} dominant classes, "
                                     f"not dom[{k}] = {vec.value_at(k)}")
        return coloring


class CoForestRoute(_MatchingRoute):
    """The complement ``co`` is a forest, whose components feed the linear
    scalar DP, for the value and the witness, and one set of deficiency
    tables, for the vector and a coloring at every k in [chi, n]."""

    name = "co-forest"
    graph = cached_property(lambda self: complement(self.co))
    parts = cached_property(lambda self: forest_parts(self.co))
    _smm = cached_property(lambda self: min_smm_forest(self.co, self.parts, self.smm and [self.smm]))
    _deficiency = cached_property(lambda self: forest_deficiency(self.parts))
    _f = cached_property(lambda self: combine_all(self._deficiency[1]))
    smm = cached_property(lambda self: smm_tables(self.co) if self._one_tree else None)
    tables = cached_property(lambda self: self._deficiency[0][0] if self._one_tree else None)
    _one_tree = property(lambda self: self.co.n > 1 and len(self.parts) == 1)

    def _matching(self, size: int):
        return forest_deficiency_matching(self.parts, *self._deficiency, size)

    @classmethod
    def attempt(cls, source: Graph | TcExpr, max_n: int) -> Route | str:
        if isinstance(source, TcLeaf) and not source.denotes_tree:
            return cls(co=source.tree)
        if isinstance(source, Graph) and is_coforest(source):
            return cls(co=complement(source))
        return "the complement is not a forest"


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
    co = cached_property(lambda self: complement(self.graph))
    _table = cached_property(lambda self: least_deficiency_matchings(
        self.co, _Counter(self.budget.max_states, "exact search")))
    _f = property(lambda self: self._table[0])
    # the least size of deficiency 0 is that of a minimum strongly maximal matching
    _smm = cached_property(lambda self: (k := self._f.index(0), self._matching(k)))

    def _matching(self, size: int):
        return self._table[1][size]

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
