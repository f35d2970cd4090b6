"""Command-line front end.

Outputs are plain ``key: value`` text, deterministic for fixed inputs and
seed.  Domain errors exit 1 with a one-line diagnostic; usage errors exit 2.

``bchromatic``, ``dominance`` and ``bcolor`` each ask ``route.plan`` once
for the first route, of tree, tree-cograph and stability two in that order,
that applies and gives what the command needs; a refusal names why each
route was rejected.  ``bcolor`` answers every k in [chi, n].
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import fileio
from .bcoloring import Coloring, continuity_chain, verify_coloring
from .dominance import DominanceVector
from .errors import BchromError, NoRoute, StabilityTooLarge
from .graph import (
    Graph,
    TcExpr,
    evaluate_tc,
    is_tree,
    is_triangle_free,
    m_degree_bound,
    stability_at_most_two,
)
from .oracle import (
    OracleBudget,
    oracle_chi_b,
    oracle_chromatic,
    oracle_dominance,
    oracle_f_t_k,
    oracle_min_smm,
)
from .reduction import build_gadget, certify_reduction
from .route import plan
from .tree_dp import deficiency_tables, dump_deficiency_tables, dump_smm_tables, smm_tables


def _read(args) -> Graph | TcExpr:
    """The input: an expression for ``.tcx``, else an edge list's graph."""
    if args.format == "tcx" or (args.format == "auto" and args.file.endswith(".tcx")):
        return fileio.read_tc_expression(args.file)
    return fileio.read_edgelist(args.file)


def _graph(source: Graph | TcExpr) -> Graph:
    return source if isinstance(source, Graph) else evaluate_tc(source)


def _cmd_analyze(args) -> int:
    source = _read(args)
    g = _graph(source)
    print(f"vertices: {g.n}")
    print(f"edges: {g.m}")
    print(f"tree: {'yes' if is_tree(g) else 'no'}")
    print(f"triangle-free: {'yes' if is_triangle_free(g) else 'no'}")
    print(f"stability-at-most-two: {'yes' if stability_at_most_two(g) else 'no'}")
    try:  # at max_n=0 the stability-two route admits only co-forests, all tree-cographs
        plan(source, "vector", max_n=0)
        print("tree-cograph: yes")
    except NoRoute:
        print("tree-cograph: no")
    if g.n >= 1:
        print(f"m-bound: {m_degree_bound(g)}")
        print(f"max-degree: {g.max_degree()}")
    return 0


def _write(path: str | None, coloring: Coloring) -> None:
    text = fileio.format_coloring(coloring)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_vector(vec: DominanceVector) -> None:
    """One 't dom' line per t from chi to n, in one write."""
    sys.stdout.write("".join(f"{t} {d}\n" for t, d in enumerate(vec.values, vec.chi)))


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


def _cmd_chain(args) -> int:
    g = _graph(_read(args))
    if args.coloring:
        with open(args.coloring, encoding="utf-8") as fh:
            start = fileio.parse_coloring(fh.read(), g.n)
    elif not stability_at_most_two(g):
        raise StabilityTooLarge("b-chromatic shortcut requires stability <= 2")
    else:
        start = plan(g, "witness", args.max_n).witness
    chain = continuity_chain(g, start)
    for c in chain:
        assignment = ",".join(str(x) for x in c.assignment)
        print(f"colors: {c.t} assignment: {assignment}")
    return 0


def _cmd_verify(args) -> int:
    g = _graph(_read(args))
    with open(args.coloring, encoding="utf-8") as fh:
        coloring = fileio.parse_coloring(fh.read(), g.n)
    verdict = verify_coloring(g, coloring)
    print(f"B-COLORING {'yes' if verdict.is_b_coloring else 'no'}")
    for cls, vertex in verdict.witnesses:
        print(f"dominant {cls} witness {vertex}")
    return 0


def _cmd_reduce(args) -> int:
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
    g = _graph(_read(args))
    report = certify_reduction(g, search_budget=args.budget)
    print(f"min-maximal-matching: {report.min_maximal}")
    print(f"min-smm-gadget: {report.min_smm_host}")
    print(f"original-edges: {report.origin_edges}")
    print(f"identity-holds: {'yes' if report.identity_holds else 'no'}")
    return 0


def _cmd_oracle(args) -> int:
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

    sp = sub.add_parser("chain", help="descending chain of b-colorings")
    common(sp, cap_help=route_cap)
    sp.add_argument("--coloring", metavar="FILE", help="starting b-coloring")
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
    sp.add_argument("--budget", type=int, default=10**7)
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
    try:
        return args.func(args)
    except (BchromError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
