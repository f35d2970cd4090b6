"""The route planner: which exact computation answers a question.

``ROUTES`` is the table, one row per route, in the order tried: tree (a tree
on two or more vertices), tree-cograph (a ``.tcx`` expression, or a graph
that decomposes into one, but not a co-forest) and stability two (a
triangle-free complement whose components are trees or have at most
``max_n`` vertices).  A row's ``attempt`` tests the input; its ``gives``
names what it answers, of the value (b-chromatic number), the dominance
vector, a witness b-coloring and a coloring with k classes and dom[k]
dominant ones, at any k in [chi, n].  ``plan`` returns the first route that
applies and gives what the command needs; the decomposition runs only on
what is neither a tree nor a co-forest.  An expression is routed without its
graph when the tree-cograph route gives what is needed.  A lone leaf goes to
the tree or the stability-two route, by ``TcLeaf.denotes_tree``.
"""

from __future__ import annotations

from typing import ClassVar

from .bcoloring import Coloring, matching_to_coloring, verify_on_complement
from .dominance import b_chromatic_tree, b_coloring_tree, dominance_from_deficiency
from .dominance import dominance_tc, dominance_vector_tree
from .errors import InvariantViolation, KOutOfRange, NoRoute, NotTreeCograph
from .graph import Graph, TcExpr, TcLeaf, _cached, complement, connected_components
from .graph import decompose_tree_cograph, evaluate_tc, induced_subgraph, is_coforest, is_tree
from .graph import stability_at_most_two
from .matching import _Counter, least_deficiency_matchings
from .tree_dp import DeficiencyTables, SmmTables, combine_all, deficiency_tables, deficiency_vector
from .tree_dp import lift, min_smm_tree, reconstruct_deficiency_matching, smm_tables, split_size

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

    def _dom(self, k: int) -> int:
        """dom[k], once k lies in [chi, n]."""
        vec = self.vector
        if not vec.chi <= k <= vec.n:
            raise KOutOfRange(f"k={k} outside [{vec.chi}, {vec.n}]")
        return vec.value_at(k)


class TreeRoute(Route):
    name = "tree"
    value = _cached(lambda self: b_chromatic_tree(self.tree))
    vector = _cached(lambda self: dominance_vector_tree(self.tree))
    # dom[chi_b] = chi_b, so the witness needs no vector
    witness = _cached(lambda self: b_coloring_tree(self.tree, self.value, self.value))
    smm = _cached(lambda self: smm_tables(self.tree))

    def coloring(self, k: int):
        return b_coloring_tree(self.tree, k, self._dom(k))

    @classmethod
    def attempt(cls, source: Graph | TcExpr, max_n: int) -> Route | str:
        if isinstance(source, TcLeaf) and source.denotes_tree:
            return cls(tree=source.tree)
        if isinstance(source, Graph) and source.n >= 2 and is_tree(source):
            return cls(tree=source)
        return "not a tree on two or more vertices"


class TreeCographRoute(Route):
    name = "tree-cograph"
    gives = frozenset(("value", "vector"))
    value = _cached(lambda self: self.vector.b_chromatic())
    vector = _cached(lambda self: dominance_tc(self.expr))

    @classmethod
    def attempt(cls, source: Graph | TcExpr, max_n: int) -> Route | str:
        if (isinstance(source, TcLeaf) and not source.denotes_tree
                or isinstance(source, Graph) and is_coforest(source)):
            return "a co-forest, left to the stability-two route"
        if not isinstance(source, Graph):
            return cls(expr=source)
        try:
            return cls(expr=decompose_tree_cograph(source))
        except NotTreeCograph as exc:
            return f"not a tree-cograph ({exc})"


class StabilityTwoRoute(Route):
    """A graph colored from matchings of its triangle-free complement ``co``
    (matched pairs share a class): a minimum strongly maximal ``_smm`` and,
    per size, one of least deficiency.  Augmenting paths of length 1 and 3
    stay in a component, so each of ``parts``, the graphs that the components
    of ``co`` induce, is solved alone: a tree by the matching DPs, any other
    part by exact search on its matchings, all from one ``_Counter`` of
    ``max_states`` states.

    The route keeps co alone, never the graph: colorings are read off
    matchings of co by ``matching_to_coloring``, and every coloring
    returned, the witness included, is checked on co by
    ``verify_on_complement`` before it is returned, so a co-forest read
    from its canonical text is answered without its dense rows."""

    name = "stability-two"
    max_states = 10**8
    value = _cached(lambda self: self.co.n - self._smm[0])
    # dom[chi_b] = chi_b: every class of the witness is dominant
    witness = _cached(lambda self: self._checked(
        matching_to_coloring(self.co, self._smm[1]), self.value, self.value))
    vector = _cached(lambda self: dominance_from_deficiency(
        self.co.n, combine_all(self._deficiency[1])))
    _one_tree = property(lambda self: self.co.n > 1 and is_tree(self.co))
    smm = _cached(lambda self: smm_tables(self.co) if self._one_tree else None)
    tables = _cached(lambda self: self._deficiency[0][0] if self._one_tree else None)

    @_cached
    def _searched(self) -> list:
        """Per part: None for a tree, else its least deficiency and a matching per size."""
        counter = _Counter(self.max_states, "exact search")
        return [None if is_tree(sub) else least_deficiency_matchings(sub, counter)
                for sub in self.parts]

    @_cached
    def _smm(self):
        # the least size of deficiency 0 is that of a minimum strongly maximal matching
        found = [min_smm_tree(sub, self.smm) if s is None else (k := s[0].index(0), s[1][k])
                 for sub, s in zip(self.parts, self._searched)]
        return sum(k for k, _ in found), lift(connected_components(self.co), [mm for _, mm in found])

    @_cached
    def _deficiency(self) -> tuple[list, list]:
        """Per part: the tables of a tree of two or more vertices, else None; and its F."""
        tables = [deficiency_tables(sub) if s is None and sub.n > 1 else None
                  for sub, s in zip(self.parts, self._searched)]
        return tables, [deficiency_vector(sub, tab) if s is None else s[0]
                        for sub, s, tab in zip(self.parts, self._searched, tables)]

    def _matching(self, size: int):
        """A matching of least deficiency of that size, made of one of each part's share."""
        tables, fvecs = self._deficiency
        return lift(connected_components(self.co), [
            s[1][k] if s else reconstruct_deficiency_matching(tab, k) if k else ()
            for s, tab, k in zip(self._searched, tables, split_size(fvecs, size))])

    def coloring(self, k: int):
        """Pairs of a size-(n - k) matching of least deficiency share a
        class; the deficiency counts the non-dominant classes."""
        dom = self._dom(k)
        return self._checked(matching_to_coloring(self.co, self._matching(self.co.n - k)), k, dom)

    def _checked(self, coloring: Coloring, k: int, dom: int) -> Coloring:
        """``coloring``, once it is checked to have k classes, dom of them dominant."""
        found = len(verify_on_complement(self.co, coloring).dominant_classes)
        if coloring.t != k or found != dom:
            raise InvariantViolation(f"{self.name} coloring has {coloring.t} classes, {found} "
                                     f"dominant, not {k} classes with dom[{k}] = {dom}")
        return coloring

    @classmethod
    def attempt(cls, source: Graph | TcLeaf, max_n: int) -> Route | str:
        if isinstance(source, TcLeaf):  # a co-forest leaf: the tree route takes the others
            co = source.tree
        elif is_coforest(source) or stability_at_most_two(source):  # a forest is triangle-free
            co = complement(source)
        else:
            return "stability above two"
        comps = connected_components(co)
        for comp in comps:  # a component is a tree iff it has one edge fewer than vertices
            if (c := len(comp)) > max_n and sum(co.degrees[v] for v in comp) != 2 * c - 2:
                return (f"a non-tree component of the complement has {c} vertices, "
                        f"over the cap {max_n}")
        return cls(co=co, parts=[co if len(comps) == 1 else induced_subgraph(co, comp)
                                 for comp in comps])


ROUTES = (TreeRoute, TreeCographRoute, StabilityTwoRoute)


def plan(source: Graph | TcExpr, need: str, max_n: int = 16) -> Route:
    """The first route of ``ROUTES`` that applies to ``source`` and gives
    ``need``, one of ``NEEDS``; ``max_n`` caps each non-tree component of the
    complement.  Raises ``NoRoute``, naming why each route was rejected."""
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
