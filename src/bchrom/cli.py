"""Command-line front end.

Outputs are plain ``key: value`` text, deterministic for fixed inputs and
seed.  Domain errors exit 1 with a one-line diagnostic; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from . import fileio
from .bcoloring import (
    Coloring,
    b_chromatic_stability2,
    coloring_to_matching,
    continuity_chain,
    matching_to_coloring,
    verify_coloring,
)
from .dominance import (
    b_chromatic_tc,
    b_chromatic_tree,
    b_coloring_tree,
    dominance_tc,
    dominance_vector_cotree,
    dominance_vector_tree,
)
from .errors import BchromError, KOutOfRange, NotTreeCograph
from .generators import random_labeled_tree
from .graph import (
    Graph,
    complement,
    decompose_tree_cograph,
    is_cotree,
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
from .tree_dp import (
    deficiency_tables,
    deficiency_vector,
    dump_deficiency_tables,
    dump_smm_tables,
    min_smm_tree,
    smm_tables,
)


def _load(path: str, fmt: str):
    """Returns (graph, expression-or-None)."""
    if fmt == "tcx" or (fmt == "auto" and path.endswith(".tcx")):
        expr = fileio.read_tc_expression(path)
        from .graph import evaluate_tc

        return evaluate_tc(expr), expr
    return fileio.read_edgelist(path), None


def _cmd_analyze(args) -> int:
    g, expr = _load(args.file, args.format)
    print(f"vertices: {g.n}")
    print(f"edges: {g.m}")
    print(f"tree: {'yes' if is_tree(g) else 'no'}")
    print(f"triangle-free: {'yes' if is_triangle_free(g) else 'no'}")
    print(f"stability-at-most-two: {'yes' if stability_at_most_two(g) else 'no'}")
    if expr is None:
        try:
            decompose_tree_cograph(g)
            print("tree-cograph: yes")
        except NotTreeCograph:
            print("tree-cograph: no")
    else:
        print("tree-cograph: yes")
    if g.n >= 1:
        print(f"m-bound: {m_degree_bound(g)}")
        print(f"max-degree: {g.max_degree()}")
    return 0


def _write_witness(path: str | None, coloring: Coloring) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(fileio.format_coloring(coloring))


def _cmd_bchromatic(args) -> int:
    g, expr = _load(args.file, args.format)
    witness: Coloring | None = None
    table_tree = None
    if expr is not None:
        value = b_chromatic_tc(expr)
    elif g.n == 1:
        value, witness = 1, Coloring((0,), 1)
    elif is_tree(g):
        value = b_chromatic_tree(g)
        table_tree = g
        if args.witness:
            witness = b_coloring_tree(g, value)
    elif stability_at_most_two(g):
        value, witness = b_chromatic_stability2(g, oracle_cap=args.max_n)
        co = complement(g)
        if is_tree(co):
            table_tree = co
    else:
        try:
            value = b_chromatic_tc(decompose_tree_cograph(g))
        except NotTreeCograph:
            raise BchromError(
                "input is neither a tree, a stability-2 graph, nor a tree-cograph"
            ) from None
    print(value)
    if args.witness:
        if witness is None:
            raise BchromError(
                "witness colorings are available for trees and stability-2 inputs"
            )
        _write_witness(args.witness, witness)
    if args.dump_tables:
        if table_tree is None or table_tree.n < 2:
            raise BchromError("no matching DP tables were computed for this route")
        print(dump_smm_tables(smm_tables(table_tree)))
    return 0


def _cmd_dominance(args) -> int:
    g, expr = _load(args.file, args.format)
    table_tree = None
    if expr is not None:
        vec = dominance_tc(expr)
    elif g.n == 1:
        from .dominance import DominanceVector

        vec = DominanceVector(1, (1,))
    elif is_tree(g):
        vec = dominance_vector_tree(g)
    elif is_cotree(g):
        vec = dominance_vector_cotree(g)
        table_tree = complement(g)
    else:
        try:
            vec = dominance_tc(decompose_tree_cograph(g))
        except NotTreeCograph:
            if stability_at_most_two(g) and g.n <= args.max_n:
                vec = oracle_dominance(g, OracleBudget(max_n=args.max_n))
            else:
                raise BchromError(
                    "no polynomial dominance route applies and the instance "
                    "exceeds the exact-search cap"
                ) from None
    for t in range(vec.chi, vec.n + 1):
        print(f"{t} {vec.value_at(t)}")
    if args.dump_tables:
        if table_tree is None:
            raise BchromError("no deficiency tables were computed for this route")
        print(dump_deficiency_tables(deficiency_tables(table_tree)))
    return 0


def _cmd_bcolor(args) -> int:
    g, _ = _load(args.file, args.format)
    k = args.k
    if is_tree(g) and g.n >= 2:
        coloring = b_coloring_tree(g, k)
    elif stability_at_most_two(g):
        value, witness = b_chromatic_stability2(g, oracle_cap=args.max_n)
        chain = continuity_chain(g, witness)
        by_t = {c.t: c for c in chain}
        if k not in by_t:
            raise KOutOfRange(
                f"k={k} outside the b-spectrum [{chain[-1].t}, {chain[0].t}]"
            )
        coloring = by_t[k]
    else:
        raise BchromError("b-colorings are constructed for trees and stability-2 inputs")
    text = fileio.format_coloring(coloring)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_chain(args) -> int:
    g, _ = _load(args.file, args.format)
    if args.coloring:
        with open(args.coloring, encoding="utf-8") as fh:
            start = fileio.parse_coloring(fh.read(), g.n)
    else:
        _, start = b_chromatic_stability2(g, oracle_cap=args.max_n)
    chain = continuity_chain(g, start)
    for c in chain:
        assignment = ",".join(str(x) for x in c.assignment)
        print(f"colors: {c.t} assignment: {assignment}")
    return 0


def _cmd_verify(args) -> int:
    g, _ = _load(args.file, args.format)
    with open(args.coloring, encoding="utf-8") as fh:
        coloring = fileio.parse_coloring(fh.read(), g.n)
    verdict = verify_coloring(g, coloring)
    print(f"B-COLORING {'yes' if verdict.is_b_coloring else 'no'}")
    for cls, vertex in verdict.witnesses:
        print(f"dominant {cls} witness {vertex}")
    return 0


def _cmd_reduce(args) -> int:
    g, _ = _load(args.file, args.format)
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
    g, _ = _load(args.file, args.format)
    report = certify_reduction(g, search_budget=args.budget)
    print(f"min-maximal-matching: {report.min_maximal}")
    print(f"min-smm-gadget: {report.min_smm_host}")
    print(f"original-edges: {report.origin_edges}")
    print(f"identity-holds: {'yes' if report.identity_holds else 'no'}")
    return 0


def _cmd_oracle(args) -> int:
    g, _ = _load(args.file, args.format)
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
        vec = oracle_dominance(g, budget)
        for t in range(vec.chi, vec.n + 1):
            print(f"{t} {vec.value_at(t)}")
    else:  # f-t-k
        if args.k is None:
            raise BchromError("f-t-k needs --k")
        val = oracle_f_t_k(g, args.k, budget)
        print(f"f: {'INF' if val == float('inf') else int(val)}")
    return 0


def _cmd_tables(args) -> int:
    g, _ = _load(args.file, args.format)
    if args.kind == "min-smm":
        print(dump_smm_tables(smm_tables(g)))
    else:
        print(dump_deficiency_tables(deficiency_tables(g)))
    return 0


def _cmd_bench(args) -> int:
    for n in args.sizes:
        results = []
        for _ in range(2):
            rng = random.Random(args.seed)
            t = random_labeled_tree(n, rng)
            t0 = time.perf_counter()
            size, matching = min_smm_tree(t)
            dt = time.perf_counter() - t0
            results.append((size, matching))
            print(f"task: min-smm-tree size: {n} seconds: {dt:.3f} result: {size}")
        stable = results[0] == results[1]
        print(f"task: min-smm-tree size: {n} stable: {'yes' if stable else 'no'}")
        if not stable:
            raise BchromError("benchmark outputs differ across identical runs")
    for n in args.ftk_sizes:
        vectors = []
        for _ in range(2):
            rng = random.Random(args.seed)
            t = random_labeled_tree(n, rng)
            t0 = time.perf_counter()
            vec = deficiency_vector(t)
            dt = time.perf_counter() - t0
            vectors.append(vec)
            zeros = sum(1 for x in vec if x == 0)
            print(
                f"task: deficiency-table size: {n} seconds: {dt:.3f} "
                f"zero-entries: {zeros}"
            )
        stable = vectors[0] == vectors[1]
        print(f"task: deficiency-table size: {n} stable: {'yes' if stable else 'no'}")
        if not stable:
            raise BchromError("benchmark outputs differ across identical runs")
    return 0


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bchrom",
        description="b-chromatic numbers, b-colorings and dominance vectors",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_file=True):
        if with_file:
            sp.add_argument("file", help="input graph (edge list or .tcx expression)")
        sp.add_argument(
            "--format",
            choices=("auto", "edgelist", "tcx"),
            default="auto",
            help="input format (default: by extension)",
        )

    sp = sub.add_parser("analyze", help="structural report")
    common(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("bchromatic", help="b-chromatic number")
    common(sp)
    sp.add_argument("--witness", metavar="FILE", help="write a witness coloring")
    sp.add_argument("--max-n", type=int, default=16, help="exact-search cap")
    sp.add_argument("--dump-tables", action="store_true", help="emit DP tables")
    sp.set_defaults(func=_cmd_bchromatic)

    sp = sub.add_parser("dominance", help="dominance vector, one 't dom' line each")
    common(sp)
    sp.add_argument("--max-n", type=int, default=16)
    sp.add_argument("--dump-tables", action="store_true", help="emit DP tables")
    sp.set_defaults(func=_cmd_dominance)

    sp = sub.add_parser("bcolor", help="coloring with k classes and dom[k] dominant ones")
    common(sp)
    sp.add_argument("k", type=int)
    sp.add_argument("-o", "--output", metavar="FILE")
    sp.add_argument("--max-n", type=int, default=16)
    sp.set_defaults(func=_cmd_bcolor)

    sp = sub.add_parser("chain", help="descending chain of b-colorings")
    common(sp)
    sp.add_argument("--coloring", metavar="FILE", help="starting b-coloring")
    sp.add_argument("--max-n", type=int, default=16)
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
    common(sp)
    sp.add_argument("--k", type=int, help="matching size for f-t-k")
    sp.add_argument("--max-n", type=int, default=16)
    sp.add_argument("--max-states", type=int, default=10**8)
    sp.add_argument("--witness", metavar="FILE", help="write a witness matching")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("tables", help="dump DP tables as tab-separated text")
    sp.add_argument("kind", choices=("min-smm", "deficiency"))
    common(sp)
    sp.set_defaults(func=_cmd_tables)

    sp = sub.add_parser("bench", help="timing run over random trees")
    common(sp, with_file=False)
    sp.add_argument("--sizes", type=_int_list, default=[1000])
    sp.add_argument("--ftk-sizes", type=_int_list, default=[])
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_bench)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BchromError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
