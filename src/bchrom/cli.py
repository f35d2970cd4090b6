"""Command-line front end.

Outputs are plain ``key: value`` text, deterministic for fixed inputs and
seed.  Domain errors exit 1 with a one-line diagnostic; usage errors exit 2.

``bchromatic``, ``dominance``, ``bcolor`` and ``chain`` each ask
``route.plan`` once for the first route, of tree, tree-cograph and stability
two in that order, that applies and gives what the command needs; a refusal
names why each route was rejected.  ``bcolor`` answers every k in [chi, n].
``chain`` prints the route's checked coloring at each t from chi_b down to
chi, where dom[t] = t since trees and stability-two graphs are
b-continuous; from a ``--coloring`` start, which it first checks with the
verdict of ``verify``, it goes on from the start's t - 1.

``analyze`` on a ``.tcx`` never builds the graph: every fact it prints is
read off folds over the expression (``_expression_facts``), in time linear
in n plus the leaves' own work.  ``bchromatic`` and ``dominance`` answer
from the expression too; ``verify``, ``chain``, ``bcolor``, ``bchromatic
--witness``, ``reduce``, ``certify``, ``oracle`` and ``tables`` evaluate it
first.

Importing this module loads only what the answering commands run: ``reduce``
and ``certify`` import the hardness gadget (``reduction``), and ``oracle``
the exhaustive reference (``oracle``), when they are run.

``main`` pauses the cyclic garbage collector from the parsed arguments to
the answer, and turns it back on only if it was on.  A request builds rows,
neighbour sets and DP tuples in bulk, and every 700 net allocations start a
pass that walks them and frees nothing, while a full pass walks the whole
heap: together about 8% of a stream of tree requests.  The premise is that
a request makes no reference cycle but a graph linked to its complement
(``graph._link``), which stays reachable until the request returns anyway;
``tests/test_cli.py`` checks it by what the collector finds afterwards.
"""

from __future__ import annotations

import argparse
import gc
import sys
from functools import cache
from operator import truth

from . import fileio
from .bcoloring import BVerdict, Coloring, verify_coloring, verify_on_complement
from .dominance import DominanceVector
from .errors import BchromError, InvariantViolation, NoRoute, NotABColoring
from .graph import (
    Graph,
    TcExpr,
    TcJoin,
    TcLeaf,
    TcUnion,
    _fold,
    complement,
    evaluate_tc,
    is_tree,
    is_triangle_free,
    m_degree_bound,
    stability_at_most_two,
)
from .route import plan
from .tree_dp import deficiency_tables, dump_deficiency_tables, dump_smm_tables, root_tree
from .tree_dp import smm_tables


def _read(args) -> Graph | TcExpr:
    """The input: an expression for ``.tcx``, else an edge list's graph."""
    if args.format == "tcx" or (args.format == "auto" and args.file.endswith(".tcx")):
        return fileio.read_tc_expression(args.file)
    return fileio.read_edgelist(args.file)


def _graph(source: Graph | TcExpr) -> Graph:
    return source if isinstance(source, Graph) else evaluate_tc(source)


def _matching_number(t: Graph) -> int:
    """The size of a maximum matching of a tree: greedy, children before
    parents, each vertex matched to its parent when both are free."""
    if t.n < 2:
        return 0
    rt = root_tree(t)
    free, parent, size = [True] * t.n, rt.parent, 0
    for v in rt.order:
        if free[v] and free[parent[v]]:
            free[v] = free[parent[v]] = False
            size += 1
    return size


def _leaf_stability(leaf: TcLeaf) -> tuple[int, int]:
    """(alpha, omega) of the graph a leaf denotes.  A tree on s >= 2
    vertices has alpha = s - nu (Koenig) and omega = 2; its complement swaps
    the two."""
    s = leaf.tree.n
    if s == 1:
        return 1, 1
    alpha = s - _matching_number(leaf.tree)
    return (2, alpha) if leaf.co else (alpha, 2)


def _expression_facts(e: TcExpr) -> tuple[int, int, bool, int, int, list[int]]:
    """n, m, whether it is a tree, alpha, omega and the degree sequence of
    the graph an expression denotes, read off the expression alone.

    One top-down pass pushes, per join, each child's siblings' span down to
    its leaves: a vertex's degree is its degree in its leaf's graph (d in a
    tree, s - 1 - d in a co leaf over s vertices) plus what its joins add.
    A union adds its children's alpha and takes the largest omega; a join
    does the reverse.  A union is never a tree and a join is one exactly
    when it has n - 1 edges; a lone co leaf is one when its complement is."""
    degrees: list[int] = []
    stack = [(e, 0)]  # a node, and what the joins above it add to each of its degrees
    while stack:
        node, extra = stack.pop()
        if isinstance(node, TcLeaf):
            s = node.tree.n
            degrees += [s - 1 - d + extra if node.co else d + extra for d in node.tree.degrees]
        elif isinstance(node, TcJoin):
            stack += [(c, extra + node.span - c.span) for c in node.children]
        else:
            stack += [(c, extra) for c in node.children]
    n, m = len(degrees), sum(degrees) // 2
    alpha, omega = _fold(e, _leaf_stability, lambda node, parts: (
        (sum(a for a, _ in parts), max(w for _, w in parts)) if isinstance(node, TcUnion)
        else (max(a for a, _ in parts), sum(w for _, w in parts))))
    if isinstance(e, TcLeaf):
        tree = not e.co or m == n - 1 and is_tree(complement(e.tree))
    else:
        tree = isinstance(e, TcJoin) and m == n - 1
    return n, m, tree, alpha, omega, degrees


def _cmd_analyze(args) -> int:
    source = _read(args)
    if isinstance(source, Graph):
        g = source
        n, m, tree, degrees = g.n, g.m, is_tree(g), list(g.degrees)
        triangle_free, stability_two = is_triangle_free(g), stability_at_most_two(g)
    else:
        n, m, tree, alpha, omega, degrees = _expression_facts(source)
        triangle_free, stability_two = omega <= 2, alpha <= 2
    print(f"vertices: {n}")
    print(f"edges: {m}")
    print(f"tree: {'yes' if tree else 'no'}")
    print(f"triangle-free: {'yes' if triangle_free else 'no'}")
    print(f"stability-at-most-two: {'yes' if stability_two else 'no'}")
    try:  # at max_n=0 the stability-two route admits only co-forests, all tree-cographs
        plan(source, "vector", max_n=0)
        print("tree-cograph: yes")
    except NoRoute:
        print("tree-cograph: no")
    if n >= 1:
        print(f"m-bound: {m_degree_bound(degrees)}")  # sorts degrees, largest first
        print(f"max-degree: {degrees[0]}")
    return 0


def _write(path: str | None, coloring: Coloring) -> None:
    text = fileio.format_coloring(coloring)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_vector(vec: DominanceVector) -> None:
    """One 't dom' line per t from chi to n, in one write.  The zero tail,
    every t above max degree + 1 on a tree, is joined with no formatting."""
    values, chi = vec.values, vec.chi
    head = len(bytes(map(truth, values)).rstrip(b"\0"))  # up to the last nonzero entry
    lines = [f"{t} {d}\n" for t, d in enumerate(values[:head], chi)]
    if head < len(values):
        lines.append(" 0\n".join(map(str, range(chi + head, vec.n + 1))) + " 0\n")
    sys.stdout.write("".join(lines))


def _cmd_bchromatic(args) -> int:
    route = plan(_read(args), "witness" if args.witness else "value", args.max_n)
    if args.dump_tables and route.smm is None:  # refused before any output
        raise BchromError("no matching DP tables were computed for this route")
    print(route.value)
    if args.witness:
        _write(args.witness, route.witness)
    if args.dump_tables:
        print(dump_smm_tables(route.smm))
    return 0


def _cmd_dominance(args) -> int:
    route = plan(_read(args), "vector", args.max_n)
    if args.dump_tables and route.tables is None:  # refused before any output
        raise BchromError("no deficiency tables were computed for this route")
    _write_vector(route.vector)
    if args.dump_tables:
        print(dump_deficiency_tables(route.tables))
    return 0


def _cmd_bcolor(args) -> int:
    _write(args.output, plan(_read(args), "coloring", args.max_n).coloring(args.k))
    return 0


def _verdict(g: Graph, coloring: Coloring) -> BVerdict:
    """The verdict of ``verify`` on a coloring of g: on the complement when g
    has stability two, so a co-forest read from its canonical text is never
    dense, else on g."""
    if stability_at_most_two(g):
        return verify_on_complement(complement(g), coloring)
    return verify_coloring(g, coloring)


def _print_coloring(c: Coloring) -> None:
    print(f"colors: {c.t} assignment: {','.join(map(str, c.assignment))}")


def _cmd_chain(args) -> int:
    g = _graph(_read(args))
    route = plan(g, "coloring", args.max_n)
    vec = route.vector
    top = vec.b_chromatic()
    if args.coloring:
        start = fileio.read_coloring(args.coloring, g.n)
        if not _verdict(g, start).is_b_coloring:
            raise NotABColoring("chain must start from a b-coloring")
        _print_coloring(start)
        top = start.t - 1
    ts = range(top, vec.chi - 1, -1)
    # the routes' graphs are b-continuous: dom[t] = t at every t from chi to chi_b
    if (gap := next((t for t in ts if vec.value_at(t) != t), None)) is not None:
        raise InvariantViolation(f"dom[{gap}] = {vec.value_at(gap)} on the {route.name} route: "
                                 f"no b-coloring with {gap} classes")
    for t in ts:
        _print_coloring(route.coloring(t))
    return 0


def _cmd_verify(args) -> int:
    g = _graph(_read(args))
    verdict = _verdict(g, fileio.read_coloring(args.coloring, g.n))
    print(f"B-COLORING {'yes' if verdict.is_b_coloring else 'no'}")
    for cls, vertex in verdict.witnesses:
        print(f"dominant {cls} witness {vertex}")
    return 0


def _cmd_reduce(args) -> int:
    from .reduction import build_gadget

    g = _graph(_read(args))
    gadget = build_gadget(g)
    fileio.write_edgelist(args.output, gadget.host)
    with open(args.output + ".map", "w", encoding="utf-8") as fh:
        for (u, v), ids in gadget.blocks.items():
            fh.write(f"map: {u} {v} -> {' '.join(str(x) for x in ids)}\n")
    print(f"vertices: {gadget.host.n}")
    print(f"edges: {gadget.host.m}")
    print(f"map-file: {args.output}.map")
    return 0


def _cmd_certify(args) -> int:
    from .reduction import certify_reduction

    g = _graph(_read(args))
    report = certify_reduction(g, search_budget=args.budget)
    print(f"min-maximal-matching: {report.min_maximal}")
    print(f"min-smm-gadget: {report.min_smm_host}")
    print(f"original-edges: {report.origin_edges}")
    print(f"identity-holds: {'yes' if report.identity_holds else 'no'}")
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import (
        OracleBudget,
        oracle_chi_b,
        oracle_chromatic,
        oracle_dominance,
        oracle_f_t_k,
        oracle_min_smm,
    )

    g = _graph(_read(args))
    budget = OracleBudget(max_n=args.max_n, max_states=args.max_states)
    q = args.quantity
    if q == "min-smm":
        size, mm = oracle_min_smm(g, budget)
        print(f"min-smm: {size}")
        if args.witness:
            with open(args.witness, "w", encoding="utf-8") as fh:
                fh.write(fileio.format_matching(mm))
    elif q == "chi-b":
        print(f"chi-b: {oracle_chi_b(g, budget)}")
    elif q == "chromatic":
        print(f"chromatic: {oracle_chromatic(g, budget)}")
    elif q == "dominance":
        _write_vector(oracle_dominance(g, budget))
    else:  # f-t-k
        if args.k is None:
            raise BchromError("f-t-k needs --k")
        val = oracle_f_t_k(g, args.k, budget)
        print(f"f: {'INF' if val == float('inf') else int(val)}")
    return 0


def _cmd_tables(args) -> int:
    g = _graph(_read(args))
    if args.kind == "min-smm":
        print(dump_smm_tables(smm_tables(g)))
    else:
        print(dump_deficiency_tables(deficiency_tables(g)))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` leaves
    it unchanged and gives each call a namespace of its own."""
    p = argparse.ArgumentParser(
        prog="bchrom",
        description="b-chromatic numbers, b-colorings and dominance vectors",
    )
    sub = p.add_subparsers(dest="command", required=True)
    route_cap = "cap on each non-tree component of the complement"

    def common(sp, cap_help=None):
        sp.add_argument("file", help="input graph (edge list or .tcx expression)")
        sp.add_argument(
            "--format",
            choices=("auto", "edgelist", "tcx"),
            default="auto",
            help="input format (default: by extension)",
        )
        if cap_help:
            sp.add_argument("--max-n", type=int, default=16, help=cap_help)

    sp = sub.add_parser("analyze", help="structural report")
    common(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("bchromatic", help="b-chromatic number")
    common(sp, cap_help=route_cap)
    sp.add_argument("--witness", metavar="FILE", help="write a witness coloring")
    sp.add_argument("--dump-tables", action="store_true", help="emit DP tables")
    sp.set_defaults(func=_cmd_bchromatic)

    sp = sub.add_parser("dominance", help="dominance vector, one 't dom' line each")
    common(sp, cap_help=route_cap)
    sp.add_argument("--dump-tables", action="store_true", help="emit DP tables")
    sp.set_defaults(func=_cmd_dominance)

    sp = sub.add_parser("bcolor", help="coloring with k classes and dom[k] dominant ones")
    common(sp, cap_help=route_cap)
    sp.add_argument("k", type=int)
    sp.add_argument("-o", "--output", metavar="FILE")
    sp.set_defaults(func=_cmd_bcolor)

    sp = sub.add_parser("chain", help="a b-coloring at each t from chi_b down to chi")
    common(sp, cap_help=route_cap)
    sp.add_argument("--coloring", metavar="FILE",
                    help="a b-coloring to print first, checked; the chain goes on from its t - 1")
    sp.set_defaults(func=_cmd_chain)

    sp = sub.add_parser("verify", help="check a coloring file")
    common(sp)
    sp.add_argument("coloring", help="coloring file, one '<vertex> <class>' per line")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("reduce", help="write the hardness gadget of a bipartite graph")
    common(sp)
    sp.add_argument("-o", "--output", required=True, metavar="FILE")
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("certify", help="check the matching identity on a gadget")
    common(sp)
    sp.add_argument("--budget", type=int, default=10**7,
                    help="cap on the table entries the certification DP makes (default: 10^7)")
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("oracle", help="brute-force reference quantities")
    sp.add_argument(
        "quantity", choices=("min-smm", "chi-b", "chromatic", "dominance", "f-t-k")
    )
    common(sp, cap_help="cap on the vertex count the oracle searches")
    sp.add_argument("--k", type=int, help="matching size for f-t-k")
    sp.add_argument("--max-states", type=int, default=10**8)
    sp.add_argument("--witness", metavar="FILE", help="write a witness matching")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("tables", help="dump DP tables as tab-separated text")
    sp.add_argument("kind", choices=("min-smm", "deficiency"))
    common(sp)
    sp.set_defaults(func=_cmd_tables)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (BchromError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
