"""Exception hierarchy for all domain failures raised by this package."""


class BchromError(Exception):
    """Base class; the CLI maps every subclass to exit status 1."""


class ParseError(BchromError):
    """Malformed input file (edge list, expression, matching or coloring)."""


class NotATree(BchromError):
    """Operation requires a tree (connected, acyclic)."""


class NotTreeCograph(BchromError):
    """The four-case decomposition failed at some recursion node."""


class StabilityTooLarge(BchromError):
    """Graph has an independent set of size three or more."""


class InvalidMatching(BchromError):
    """Edge set is not a matching of the host graph."""


class NotAugmenting(BchromError):
    """Path is not an augmenting path for the given matching."""


class ImproperColoring(BchromError):
    """Two adjacent vertices share a color."""


class EmptyClass(BchromError):
    """A declared color class contains no vertex."""


class ClassTooLarge(BchromError):
    """A color class has three or more vertices (impossible at stability two)."""


class NotABColoring(BchromError):
    """A b-coloring was required but some class has no dominating vertex."""


class KOutOfRange(BchromError):
    """Requested color count or matching size outside the valid range."""


class RangeError(BchromError):
    """Numeric argument outside its documented range."""


class NotBipartite(BchromError):
    """Gadget construction requires a 2-colorable input."""


class UnknownEdge(BchromError):
    """Edge is not an edge of the original graph behind a gadget."""


class NotStronglyMaximal(BchromError):
    """Matching admits an augmenting path of length one or three."""


class NotMaximal(BchromError):
    """Matching leaves some edge with both endpoints uncovered."""


class NotCanonical(BchromError):
    """Gadget matching does not intersect every block in one of the two
    canonical shapes."""


class CardinalityChanged(BchromError):
    """A rewrite that must preserve matching size failed to do so."""


class GraphTooLarge(BchromError):
    """Instance exceeds the vertex cap of a brute-force routine."""


class BudgetExceeded(BchromError):
    """Enumeration or search exceeded its state budget."""


class NoRoute(BchromError):
    """No exact route applies to the input and gives what was asked."""


class InvariantViolation(BchromError):
    """An internal invariant failed; the result would have been wrong."""
