"""Row functions of the tree DPs, compiled from their rule table.

``tree_dp`` writes each DP's recurrence once, as a rule table, and imports
this module when it first needs a row, so that importing the package
compiles none of it.  ``compile_rows`` reads a table and writes the row of
a vertex as straight-line Python source: the rest minima of each child, the
products that fold the children together, and each state's least rule.
Every min-plus product of the package runs in the merge written here, also
those of a single rule read as a one-state table.
"""

from __future__ import annotations

from functools import cache


def accumulators(rules: tuple) -> tuple[tuple, tuple]:
    """The accumulators of a rule table's products, in the order a product
    (lanes, *accumulators) holds them: its distinct rest sets, then its
    distinct (dist, rest) folds, each in the order the rules first name it."""
    rests = tuple(dict.fromkeys(r[1] for rs in rules for r in rs))
    folds = tuple(dict.fromkeys(r[:2] for rs in rules for r in rs if r[0] is not None))
    return rests, folds


@cache
def compile_rows(rules: tuple, vector: bool):
    """The row function of a rule table (see ``tree_dp.RULES``), written as
    Python source and compiled, once per process and table.

    A vertex's row is read off a product over its children.  Per rest set R
    the product keeps an all-rest accumulator (every child at its cheapest
    state in R), and per distinct (dist, R) of the rules a one-distinguished
    accumulator (exactly one child at dist instead).  A child contributes its
    rest minima and its dist states, and two products x and y multiply as
    ``one = min(one_x * rest_y, rest_x * one_y)`` and ``rest = rest_x *
    rest_y``, with * the min-plus product (for scalars, the sum).  That
    product is associative and commutative, with the empty product (rest 0,
    one INF) as identity, so children may be taken in any grouping.  Each
    state is then the least of its rules, a rule's accumulator moved up by
    ``edges`` and raised by ``defects``.

    A table need not describe its children's rows: a child contributes only
    the states its rules name, read by index.  So a single rule r is the
    one-state table ``((r,),)`` over rows of any length, and its row is one
    min-plus product.  Over one-vector rows, r = ``(None, (0,), 0, 0)``
    combines them all; over (dist, rest) pairs, r = ``(0, (1,), 0, 0)`` lets
    exactly one take dist.

    Scalar tables (``vector`` false) give ``row(fs)``, the row of a vertex
    whose children have the rows ``fs`` of the same table, and beside it
    what the row chose per state: ``len(rules[s]) * (i + 1) + r`` when the
    value took rule r of ``rules[s]``, with the one-distinguished fold of
    that rule at child i (fs[i]), or ``r`` for a rule with no such fold.
    Each choice takes the later candidate only if it is strictly less, so
    the first rule and the first child win ties.  Packed lanes
    give ``make(kern)``, which returns the empty product and the functions
    ``contribution(f, n)`` of a child's row of n lanes, ``merge(x, y, cap)``
    of two products and ``finish(x, cap)``, the row at sizes 0..cap, with
    cap + 1 at most ``kern.most``.  A product is (lanes, *accumulators).
    ``merge`` runs every min-plus product of the two in one loop over the
    lanes of the one with fewer: each finite lane l at i costs one shifted
    add (the other factor moved up i lanes, plus l) and one lanewise minimum
    into the result.  It is the package's only min-plus loop."""
    rests, folds = accumulators(rules)
    accs = [f"r{i}" for i in range(len(rests))] + [f"d{j}" for j in range(len(folds))]
    # the min-plus products of a merge: (factor of x, factor of y, accumulator)
    products = [p for j, (_, rest) in enumerate(folds)
                for p in ((f"d{j}", f"r{rests.index(rest)}", f"d{j}"),
                          (f"r{rests.index(rest)}", f"d{j}", f"d{j}"))]
    products += [(a, a, a) for a in accs[:len(rests)]]

    def least(out: str, terms: list[str], high: str) -> list[str]:
        lines = [f"{out} = {terms[0]}"]
        for b in terms[1:]:
            if vector:
                lines += [f"t = (({out} | {high}) - {b}) & {high}",
                          f"{out} ^= ({out} ^ {b}) & (t - (t >> w1))"]
            else:
                lines.append(f"{out} = {out} if {out} < {b} else {b}")
        return lines

    named = sorted({d for d, _ in folds}.union(*rests))  # the child states the rules read
    read = f"{', '.join(f's{s}' for s in named)} = {', '.join(f'f[{s}]' for s in named)}"
    contribution = [line for i, rest in enumerate(rests)
                    for line in least(f"yr{i}", [f"s{s}" for s in rest], "H")]
    contribution += [f"yd{j} = s{d}" for j, (d, _) in enumerate(folds)]
    if vector:  # each product's lanes fold into z (see the docstring)
        merge = [line for a, b, z in products for line in (
            f"if l{a} != inf:", f"    s = (Y{b} >> sh) & mask", f"    if l{a}:",
            f"        s += l{a} * ones", f"    t = ((z{z} | H) - s) & H",
            f"    z{z} ^= (z{z} ^ s) & (t - (t >> w1))")]
    else:
        merge = [line for j, (_, rest) in enumerate(folds) for line in (
            f"a = xd{j} + yr{rests.index(rest)}", f"b = xr{rests.index(rest)} + yd{j}",
            f"if b < a: xd{j}, c{j} = b, i", f"else: xd{j} = a")]
        merge += [f"x{a} += y{a}" for a in accs[:len(rests)]]
    terms: dict[tuple, str] = {}  # (accumulator, edges, defects) -> its local
    finish: list[str] = []
    for s, rs in enumerate(rules):
        names = []
        for dist, rest, edges, defects in rs:
            acc = f"d{folds.index((dist, rest))}" if dist is not None else f"r{rests.index(rest)}"
            p = terms.get((acc, edges, defects))
            if p is None:
                p = terms[acc, edges, defects] = f"p{len(terms)}"
                finish += _place(p, acc, edges, defects, finish) if vector else [
                    f"{p} = x{acc}" + (f" + {edges + defects}" if edges + defects else "")]
            names.append(p)
        if vector:
            finish += least(f"o{s}", names, "W")
            continue
        picks = [str(r) if d is None else f"{len(rs)} * c{folds.index((d, rest))} + {len(rs) + r}"
                 for r, (d, rest, _, _) in enumerate(rs)]
        finish.append(f"o{s}, e{s} = {names[0]}, {picks[0]}")
        finish += [f"if {p} < o{s}: o{s}, e{s} = {p}, {pick}" for p, pick in zip(names[1:], picks[1:])]
    row = f"return ({', '.join(f'o{s}' for s in range(len(rules)))},)"

    def body(lines: list[str], depth: int) -> str:
        return "".join(" " * depth + line + "\n" for line in lines)

    if vector:
        x, y, z = (", ".join(p + a for a in accs) for p in "xyz")
        # a child's guard bits, which only a rest minimum over two states reads
        guards = ["H = high >> (most - n) * w"] if any(len(r) > 1 for r in rests) else []
        source = (
            "def make(kern):\n"
            "    unpack, inf, w = kern.unpack, kern.inf, kern.width\n"
            "    most, high = kern.most, kern.high\n"
            "    w1, w2 = w - 1, w - 2\n"
            "    def contribution(f, n):\n"
            + body([read] + guards + contribution, 8) +
            f"        return (n, {y})\n"
            "    def merge(x, y, cap):\n"
            "        if x[0] > y[0]:\n"
            "            x, y = y, x\n"
            f"        nx, {x} = x\n"
            f"        ny, {y} = y\n"
            "        n = min(nx + ny - 1, cap + 1)\n"
            "        m, top = min(nx, n), n * w\n"
            "        H = high >> (most - n) * w\n"
            "        infs, ones, mask = H >> 1, H >> w1, (1 << top) - 1\n"
            "        pad = infs >> ny * w << ny * w\n"
            # y's factors, INF-padded to n lanes above n INF lanes: shifted
            # right by n - i lanes, one is moved up i lanes
            + body([f"Y{a} = ((y{a} & mask) | pad) << top | infs" for a in accs], 8)
            + f"        {z} = {', '.join('infs' for _ in accs)}\n"
            f"        for sh, {', '.join('l' + a for a in accs)} in zip("
            f"range(top, top - m * w, -w), {', '.join(f'unpack(x{a}, m)' for a in accs)}):\n"
            + body(merge, 12) +
            f"        return (n, {z})\n"
            "    def finish(x, cap):\n"
            f"        n, {x} = x\n"
            "        width = cap + 1\n"
            "        W = high >> (most - width) * w\n"
            "        infs = W >> 1\n"
            + body(finish, 8) +
            f"        {row}\n"
            f"    return (1, {', '.join('0' if a[0] == 'r' else 'inf' for a in accs)}), "
            "contribution, merge, finish\n"
        )
    else:
        source = (
            "def row(fs):\n"
            + body([f"x{a} = {'0' if a[0] == 'r' else 'INF'}" for a in accs], 4)
            + body([f"c{j} = -1" for j in range(len(folds))], 4) +
            f"    for i, ({', '.join(f's{s}' for s in range(len(rules)))}) in enumerate(fs):\n"
            + body(contribution + merge, 8)
            + body(finish, 4) +
            f"    {row}, ({', '.join(f'e{s}' for s in range(len(rules)))},)\n"
        )
    space = {"INF": float("inf"), "__name__": __name__}
    exec(compile(source, f"<rows of a {len(rules)}-state rule table>", "exec"), space)
    return space["make" if vector else "row"]


def _place(p: str, acc: str, edges: int, defects: int, done: list[str]) -> list[str]:
    """Source setting ``p`` to accumulator ``acc``'s lanes up to cap - edges,
    moved up by ``edges`` lanes, ``defects`` added to the finite ones, INF
    elsewhere (width lanes).  Per edges, k, m, i and f are the kept lanes, their
    mask, their INF bits and the INF lanes outside them once moved; per
    accumulator and edges, v is its kept lanes and u has a one at each finite
    one.  Each is written once, so lines already in ``done`` are not repeated."""
    v, u = f"v{acc}_{edges}", f"u{acc}_{edges}"
    lines = [f"k{edges} = min(n, width{f' - {edges}' if edges else ''})",
             f"m{edges} = (1 << k{edges} * w) - 1",
             f"i{edges} = infs & m{edges}",
             f"f{edges} = infs ^ " + (f"(i{edges} << {edges} * w)" if edges else "i0"),
             f"{v} = x{acc} & m{edges}"]
    if defects:
        lines.append(f"{u} = (i{edges} ^ ({v} & i{edges})) >> w2")
    lines = [line for line in lines if line not in done]
    moved = f"{v} + {u}" + (f" * {defects}" if defects > 1 else "") if defects else v
    moved = f"({moved}) << {edges} * w" if edges else moved
    return lines + [f"{p} = {moved} | f{edges}"]
