"""Differential tests for the edge-list parser.

The reference below is the original parser, which checks the body one line
at a time.  It is kept here, small and obviously correct, so the parser
that checks the body in pieces with whole-list operations can be checked
against it: on valid files of random graphs and dense co-trees in random
labellings, on files that span several pieces with defects placed at the
cuts between them, on seeded random mutations of small files, on
canonical co-forest files, which are read by comparison with the text of
K_n, and on canonical dense files, which are read one row at a time, each
with one change, and on plain bodies whose lines split or merge their ids
or spell them otherwise than JSON does, which the one-scan read of plain
pieces refuses; both must return equal graphs or raise ``ParseError``
with the same message.
"""

import bisect
import random
import re
import tracemalloc

import pytest

from bchrom.errors import ParseError
import bchrom.fileio
from bchrom.fileio import format_edgelist, parse_edgelist
from bchrom.generators import random_graph, random_labeled_tree
from bchrom.graph import (
    Edge, Graph, complement, empty_graph, evaluate_tc, is_forest, path_graph, star_graph,
)

from conftest import random_expression, spider
from test_tree_dp_rules import _caterpillar


def reference_parse_edgelist(text: str) -> Graph:
    n = None
    m = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "p" or len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'p <n> <m>'")
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer counts") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative counts")
            continue
        if parts[0] != "e" or len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'e <u> <v>'")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer endpoints") from None
        if not (0 <= u < v < n):
            raise ParseError(f"line {lineno}: edge ({u},{v}) violates 0 <= u < v < n")
        if (u, v) in seen:
            raise ParseError(f"line {lineno}: duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    if n is None:
        raise ParseError("missing 'p <n> <m>' header")
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def outcome(parse, text: str):
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def assert_same(text: str) -> None:
    assert outcome(parse_edgelist, text) == outcome(reference_parse_edgelist, text), repr(text)


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def dressed(g: Graph, rng: random.Random, end: str | None = None) -> str:
    """An edge list of g in a random edge order, with comments, blank
    lines, surrounding whitespace and line ends of several kinds, or all
    ``end``."""
    lines = ["# written by test_edgelist", "", f"p {g.n} {g.m}"]
    edges = list(g.edges)
    rng.shuffle(edges)
    for u, v in edges:
        pad = rng.choice(["", " ", "\t", "  "])
        gap = rng.choice([" ", "\t", "   "])
        lines.append(f"{pad}e{gap}{u}{gap}{v}{rng.choice(['', ' ', chr(9)])}")
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "# comment e 1 2", "   ", "  #"]))
    end = end or rng.choice(["\n", "\r\n", "\r"])
    return end.join(lines) + rng.choice(["", "\n", "\r\n"])


def test_valid_files_of_random_and_co_tree_graphs():
    rng = random.Random(3)
    graphs = [empty_graph(0), empty_graph(5), random_graph(1, 0.5, rng)]
    graphs += [random_graph(n, p, rng) for n in (2, 7, 30) for p in (0.1, 0.5, 0.9)]
    graphs += [relabel(complement(random_labeled_tree(n, rng)), rng) for n in (2, 9, 60, 200)]
    for g in graphs:
        for text in (format_edgelist(g), dressed(g, rng)):
            assert parse_edgelist(text) == g
            assert_same(text)


def test_known_errors_match_reference():
    for text in [
        "",
        "# only a comment\n",
        "p 3\n",
        "q 3 0\n",
        "p x 0\n",
        "p -1 0\n",
        "p 3 1\ne 0 1 2\n",
        "p 3 1\ne 0\n",
        "p 3 1\nf 0 1\n",
        "p 3 1\ne0 1\n",
        "p 3 1\ne 0 x\n",
        "p 3 1\ne 1 0\n",
        "p 3 1\ne 0 3\n",
        "p 3 1\ne -1 2\n",
        "p 3 1\ne 1 1\n",
        "p 3 2\ne 0 1\ne 0 1\n",
        "p 3 2\ne 0 1\n",
        "p 3 1\ne 0 1\ne 1 2\n",
        "p 3 1\np 3 1\n",
        "p 3 2\ne 0 1 e 1 2\n",
        "p 3 2\ne 0 1 e\n1 2\n",
        "p 3 1\ne 0 1e\n",
        "p 3 1\ne 0 +1\n",
        "p 3 1\ne 0 0_1\n",
        "p 300 1\ne 0 1_0\n",
        "p 3 1\ne 0 ١\n",
        "p 3 0\n\x0c\n",
        "p 3 1\ne 0 1\x85e 1 2\n",
    ]:
        assert_same(text)


def test_zero_edges():
    assert parse_edgelist("p 4 0\n") == empty_graph(4)
    assert parse_edgelist("# none\n\np 0 0") == empty_graph(0)
    assert_same("p 4 0\n\n# e 0 1\n")


def test_large_header_over_a_short_body_allocates_by_the_body():
    # the memory of a rejected file follows its length, not its header:
    # a table of 10**6 vertex ids would hold over 50 MB
    tracemalloc.start()
    try:
        for text in ("p 1000000 1000000\n", "p 1000000 1000000\ne 0 1\ne 2 3\n",
                     # co-forest-sized, so the text of K_n is not built
                     "p 100000 4999850001\ne 0 1\n"):
            assert_same(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ParseError, match="^header declares 100000000 edges, found 0$"):
        parse_edgelist("p 100000000 100000000\n")
    tracemalloc.start()
    try:  # at m >= 2n too: no reader sizes anything by the header's n
        assert_same("p 1000000 2000000\ne 0 1\ne 2 3\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


ALPHABET = ["e", "p", " ", "\t", "\n", "\r\n", "#", "-", "+", "_", "x", "0", "1", "2", "9"]


def mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        kind = rng.randrange(6)
        i = rng.randrange(len(text) + 1)
        if kind == 0:  # insert a character
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif kind == 1:  # delete a character
            text = text[:i] + text[i + 1 :]
        elif kind == 2:  # replace a character
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1 :]
        elif kind == 3:  # duplicate a line
            j = rng.randrange(len(lines))
            text = "\n".join(lines[: j + 1] + lines[j:])
        elif kind == 4:  # delete a line
            j = rng.randrange(len(lines))
            text = "\n".join(lines[:j] + lines[j + 1 :])
        else:  # swap two lines
            j, k = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[j], lines[k] = lines[k], lines[j]
            text = "\n".join(lines)
    return text


def test_random_mutations_match_reference():
    rng = random.Random(11)
    for trial in range(4000):
        n = rng.randint(1, 6)
        g = random_graph(n, rng.random(), rng)
        text = format_edgelist(g) if trial % 2 else dressed(g, rng)
        assert_same(mutate(text, rng))


def shuffled(g: Graph, rng: random.Random) -> str:
    """An edge list of g with its lines in a random order."""
    lines = [f"e {u} {v}\n" for u, v in g.edges]
    rng.shuffle(lines)
    return f"p {g.n} {g.m}\n" + "".join(lines)


def body_cuts(text: str) -> list[int]:
    """Indices, in ``text.split("\\n")``, of the first line of each piece
    of the body after the first, for a text whose header is line 0."""
    cuts = []
    start = text.index("\n") + 1
    while True:
        start = text.find("\n", start + bchrom.fileio.PIECE_CHARS - 1) + 1
        if not 0 < start < len(text):
            return cuts
        cuts.append(text.count("\n", 0, start))


def defects_around(text: str, line: int) -> list[str]:
    """Copies of ``text`` with a duplicate edge, a broken row or a comment
    at line ``line`` or one line either side."""
    out = []
    for j in (line - 1, line, line + 1):
        lines = text.split("\n")
        for kind in ("duplicate", "broken", "comment"):
            changed = list(lines)
            if kind == "duplicate":
                changed[j] = changed[j - 1]
            elif kind == "broken":
                changed[j] = "e 1"
            else:
                changed.insert(j, "# a comment")
            out.append("\n".join(changed))
    return out


def co_tree_over_several_pieces() -> tuple[Graph, random.Random, list[str]]:
    """A 700-vertex co-tree, the generator that drew it, its canonical text,
    which spans three pieces or more, and that text with a duplicate edge
    just before the first cut."""
    rng = random.Random(700)
    g = relabel(complement(random_labeled_tree(700, rng)), rng)
    canonical = format_edgelist(g)
    cuts = body_cuts(canonical)
    assert len(cuts) >= 3
    return g, rng, [canonical, defects_around(canonical, cuts[0])[0]]


def test_co_tree_over_several_pieces_matches_reference():
    # the slow twin's canonical and defective texts, not its dressed one
    for text in co_tree_over_several_pieces()[2]:
        assert_same(text)


@pytest.mark.slow
def test_all_co_tree_texts_over_several_pieces_match_reference():
    g, rng, (canonical, defective) = co_tree_over_several_pieces()
    texts = [canonical, dressed(g, rng, end="\r\n"), defective]
    for text in texts:
        assert_same(text)
    assert parse_edgelist(texts[1]) == g


def test_defects_at_piece_cuts_match_reference(monkeypatch):
    rng = random.Random(5)
    graphs = [relabel(complement(random_labeled_tree(40, rng)), rng), random_graph(40, 0.5, rng)]
    for size in (64, 1000):
        monkeypatch.setattr(bchrom.fileio, "PIECE_CHARS", size)
        for g in graphs:
            text = format_edgelist(g)
            cuts = body_cuts(text)
            assert len(cuts) >= 2
            for line in cuts[:4]:
                for changed in defects_around(text, line):
                    assert_same(changed)
            assert_same(dressed(g, rng))


def test_parsed_co_tree_comes_linked_to_its_forest():
    rng = random.Random(8)
    for n in (1, 2, 3, 30, 700):
        g = parse_edgelist(format_edgelist(relabel(complement(random_labeled_tree(n, rng)), rng)))
        assert "_complement" in vars(g)
        co = complement(g)
        assert co == complement(Graph(g.n, g.adj))
        assert is_forest(co)
        assert complement(co) is g


def test_co_tree_text_without_final_newline_or_with_empty_lines_after_comes_linked():
    rng = random.Random(10)
    for n in (3, 30, 700):  # from 3 vertices on, the body has a line
        text = format_edgelist(relabel(complement(random_labeled_tree(n, rng)), rng))
        for changed in (text[:-1], text + "\n", text + "\n\n\n"):
            g = parse_edgelist(changed)
            assert "_complement" in vars(g) and "adj" not in vars(g)
            assert g == reference_parse_edgelist(changed)
            assert is_forest(complement(g))


def test_shuffled_order_parses_to_the_canonical_graph():
    # canonical co-forest bodies are read against the text of K_n, other
    # canonical bodies built by Graph.from_sorted_pairs, and shuffled ones
    # by Graph.from_edges
    rng = random.Random(9)
    graphs = [relabel(complement(random_labeled_tree(700, rng)), rng),
              relabel(random_labeled_tree(20000, rng), rng)]
    for trial in range(120):
        n = rng.randint(1, 80)
        graphs.append([
            relabel(random_labeled_tree(n, rng), rng),
            random_forest(n, rng),
            random_graph(n, rng.choice([0.02, 0.1, 0.3]), rng),
            complement(random_forest(n, rng)),
        ][trial % 4])
    for g in graphs:
        assert parse_edgelist(format_edgelist(g)) == g
        assert parse_edgelist(shuffled(g, rng)) == g


def random_forest(n: int, rng: random.Random) -> Graph:
    tree = relabel(random_labeled_tree(n, rng), rng)
    return Graph.from_edges(n, [e for e in tree.edges if rng.random() < 0.8])


def canonical_variants(g: Graph, rng: random.Random) -> list[str]:
    """The canonical edge list of g, and copies of it with one change
    each: random mutations; a row deleted, duplicated, swapped with
    another or inserted; a digit changed or an id spelled with a leading
    zero; CRLF line ends or a comment; no final newline; the header's
    count one off."""
    header, *rows = format_edgelist(g).splitlines(keepends=True)
    body = "".join(rows)
    out = [header + body, mutate(header + body, rng), (header + body).replace("\n", "\r\n"),
           header + body[:-1], f"p {g.n} {g.m + 1}\n" + body]
    if rows:
        i, k = rng.randrange(len(rows)), rng.randrange(len(rows))
        swapped = list(rows)
        swapped[i], swapped[k] = swapped[k], swapped[i]
        digit = rng.choice([j for j, c in enumerate(body) if c.isdigit()])
        out += [
            f"p {g.n} {g.m - 1}\n" + body,
            header + "".join(rows[:i] + rows[i + 1 :]),
            f"p {g.n} {g.m - 1}\n" + "".join(rows[:i] + rows[i + 1 :]),
            header + "".join(rows[: i + 1] + rows[i:]),
            header + "".join(swapped),
            header + body[:digit] + rng.choice("0123456789") + body[digit + 1 :],
            header + body.replace("e 0 1\n", "e 0 01\n"),
            header + "".join(rows[:i]) + "# a comment\n" + "".join(rows[i:]),
        ]
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if v not in g.adj[u]]
    if non_edges:  # a missing pair, in canonical place and at a random row
        u, v = rng.choice(non_edges)
        for after in (bisect.bisect(g.edges, (u, v)), rng.randrange(len(rows) + 1)):
            inserted = "".join(rows[:after]) + f"e {u} {v}\n" + "".join(rows[after:])
            out += [header + inserted, f"p {g.n} {g.m + 1}\n" + inserted]
    return out


def hub_labelled(g: Graph, hub: int, rng: random.Random) -> Graph:
    """g, whose vertex 0 is a hub, with the hub labelled ``hub``, its
    neighbors the highest other labels and every other vertex one of the
    rest, each group in a random order."""
    labels = [v for v in range(g.n) if v != hub]
    near = list(g.adj[0])
    far = [v for v in range(1, g.n) if v not in near]
    rng.shuffle(near)
    rng.shuffle(far)
    perm = dict(zip([0, *far, *near], [hub, *labels]))
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def co_forests(rng: random.Random) -> list[Graph]:
    """40 random forests, then 21 stars and spiders, each with its hub
    labelled 0, in between or n - 1.  The complement of a star or spider
    misses its hub's lines: a whole row (hub 0 or in between), a run of
    lines ending a row (a spider's hub below its neighbors) or every row's
    last line and the last row (hub n - 1)."""
    forests = [random_forest(rng.randint(2, 80) if trial % 3 else rng.randint(2, 8), rng)
               for trial in range(40)]
    for hubbed in (star_graph(2), star_graph(8), star_graph(39), spider([1, 2, 3]),
                   spider([2, 2, 2, 2]), spider([1] * 5 + [6]), spider([3] * 10)):
        forests += [hub_labelled(hubbed, hub, rng) for hub in (0, hubbed.n // 2, hubbed.n - 1)]
    return forests


def check_co_forest_texts(forests: list[Graph], rng: random.Random) -> int:
    """How many canonical co-forest texts came linked to their forest.
    They are read by comparison with the text of K_n; every text the
    comparison refuses is read as before, with the same graph or the same
    error."""
    linked = 0
    for forest in forests:
        g = complement(forest)
        for text in canonical_variants(g, rng):
            got = outcome(parse_edgelist, text)
            assert got == outcome(reference_parse_edgelist, text), repr(text)
            if isinstance(got, Graph) and text == format_edgelist(got) and (
                    got.n * (got.n - 1) // 2 - got.m < max(got.n, 1)):
                assert "_complement" in vars(got), repr(text)
                linked += 1
    return linked


def test_co_forest_texts_and_their_changes_match_reference():
    # a seeded third of the slow twin's forests: 13 random, 7 stars and spiders
    rng = random.Random(17)
    forests = co_forests(rng)
    pick = random.Random(170)
    part = pick.sample(forests[:40], 13) + pick.sample(forests[40:], 7)
    assert check_co_forest_texts(part, rng) > 150 * len(part) // len(forests)


@pytest.mark.slow
def test_all_co_forest_texts_and_their_changes_match_reference():
    rng = random.Random(17)
    assert check_co_forest_texts(co_forests(rng), rng) > 150


def read_coforest(text: str) -> Graph | None:
    """What the co-forest reader makes of ``text``, at any size."""
    n, m, _, body = bchrom.fileio._read_header(text)
    return bchrom.fileio._read_coforest(text, body, n, m)


def test_texts_the_co_forest_reader_accepts_give_the_graph_of_their_pairs():
    # after random changes too: a text the reader accepts gives the graph
    # Graph.from_edges builds from its lines
    rng = random.Random(30)
    accepted = 0
    for _ in range(3000):
        g = complement(random_forest(rng.randint(1, 12), rng))
        text = format_edgelist(g)
        assert read_coforest(text) == g
        changed = mutate(text, rng)
        got = outcome(read_coforest, changed)
        if isinstance(got, Graph):
            assert got == reference_parse_edgelist(changed), repr(changed)
            accepted += 1
    assert accepted > 100


@pytest.fixture
def rows_read(monkeypatch) -> list[Graph]:
    """The graphs ``parse_edgelist`` takes from the dense-row reader."""
    read = []
    real = bchrom.fileio._read_rows

    def spy(*args):
        g = real(*args)
        if g is not None:
            read.append(g)
        return g

    monkeypatch.setattr(bchrom.fileio, "_read_rows", spy)
    return read


def read_rows(text: str) -> Graph | None:
    """What the dense-row reader makes of ``text``, at any density."""
    n, m, _, body = bchrom.fileio._read_header(text)
    return bchrom.fileio._read_rows(text, body, n, m)


def dense_graphs(rng: random.Random) -> list[Graph]:
    """24 random graphs of density 1/4 to 0.9 in random labellings, then
    six wide and six nested tree-cographs."""
    graphs = [relabel(random_graph(rng.randint(2, 150), rng.uniform(0.25, 0.9), rng), rng)
              for _ in range(24)]
    graphs += [evaluate_tc(random_expression(family, rng.randint(10, 150), rng))
               for family in ("wide", "nested") for _ in range(6)]
    return graphs


def check_dense_texts(graphs: list[Graph], rng: random.Random, rows_read: list[Graph]) -> None:
    # canonical dense texts are read one row at a time; every text that
    # reader refuses is read as before, with the same graph or the same error
    for g in graphs:
        for text in canonical_variants(g, rng):
            assert_same(text)
    for g in rows_read:
        assert g == Graph.from_edges(g.n, g.edges)


def test_dense_texts_and_their_changes_match_reference(rows_read):
    # a seeded third of the slow twin's graphs: 8 random, 2 wide, 2 nested
    rng = random.Random(28)
    graphs = dense_graphs(rng)
    pick = random.Random(280)
    part = pick.sample(graphs[:24], 8) + pick.sample(graphs[24:30], 2) + pick.sample(graphs[30:], 2)
    check_dense_texts(part, rng, rows_read)
    assert len(rows_read) > 80 * len(part) // len(graphs)


@pytest.mark.slow
def test_all_dense_texts_and_their_changes_match_reference(rows_read):
    rng = random.Random(28)
    check_dense_texts(dense_graphs(rng), rng, rows_read)
    assert len(rows_read) > 80


def test_texts_the_row_reader_accepts_give_the_graph_of_their_pairs():
    # at any density, and after random changes: a text the reader accepts
    # gives the graph Graph.from_edges builds from its lines
    rng = random.Random(29)
    accepted = 0
    for trial in range(3000):
        n = rng.randint(0, 12)
        g = random_graph(n, rng.random(), rng)
        text = format_edgelist(g)
        assert read_rows(text) == g
        changed = mutate(text, rng)
        got = outcome(read_rows, changed)
        if isinstance(got, Graph):
            assert got == reference_parse_edgelist(changed), repr(changed)
            accepted += 1
    assert accepted > 120
    # an id left out, as in a row of empty ids; ids not in canonical
    # decimal; a pair not rising, within a row or across rows; a pair
    # (u, v) with v <= u; a last line with no line end; text after the body
    for text in ("p 6 2\ne 4 \ne 4 \n", "p 6 1\ne 4 \n", "p 6 2\ne 4 5\ne 4 \n",
                 "p 3 2\ne 0 1\ne 0 02\n", "p 3 2\ne 0 1\ne 0  2\n", "p 3 2\ne 0 2\ne 0 1\n",
                 "p 3 2\ne 0 1\ne 0 1\n", "p 3 2\ne 0 1\ne 1 2\ne 0 2\n", "p 3 1\ne 1 0\n",
                 "p 3 1\ne 1 1\n", "p 3 2\ne 0 1\ne 0 2", "p 3 2\ne 0 1\ne 0 2\n\n"):
        assert read_rows(text) is None, repr(text)
        assert_same(text)


def with_row(g: Graph, row: tuple[int, int], after: int) -> tuple[str, int]:
    """The canonical edge list of g with the row ``e <row>`` placed after
    its ``after`` first rows, the header counting it, and the row's line
    number."""
    lines = [f"e {u} {v}" for u, v in g.edges]
    lines.insert(after, f"e {row[0]} {row[1]}")
    return f"p {g.n} {len(lines)}\n" + "\n".join(lines) + "\n", after + 2


def test_defects_in_canonical_place_name_their_line():
    # each defect sits where canonical order puts it, so only the checks
    # of the pairs, not those of the order, can find it
    rng = random.Random(15)
    graphs = [relabel(random_labeled_tree(60, rng), rng), random_graph(40, 0.3, rng),
              relabel(complement(random_labeled_tree(30, rng)), rng)]
    for g in graphs:
        edges = list(g.edges)
        for _ in range(10):
            i = rng.randrange(len(edges))
            u, v = edges[i]
            cases = [
                ((u, v), i + 1, f"duplicate edge ({u},{v})"),
                ((v, u), bisect.bisect(edges, (v, u)), f"edge ({v},{u}) violates"),
                ((u, g.n), bisect.bisect(edges, (u, g.n)), f"edge ({u},{g.n}) violates"),
                ((-1, v), 0, f"edge (-1,{v}) violates"),
            ]
            for row, after, message in cases:
                text, lineno = with_row(g, row, after)
                assert_same(text)
                with pytest.raises(ParseError, match=re.escape(f"line {lineno}: {message}")):
                    parse_edgelist(text)


@pytest.mark.parametrize("spell", ["0{}".format, "00{}".format, "+{}".format])
def test_ids_spelled_otherwise_parse_alike_in_sparse_and_dense_bodies(spell, rows_read):
    # the scan refuses each spelling, so the general reader splits the
    # piece that holds one, on either side of m = 2n; at m = 400 a
    # canonical body is read one row at a time, and one so spelled by the
    # general reader
    rng = random.Random(16)
    n = 30
    everyone = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for m in (2 * n - 1, 2 * n, 400):
        g = Graph.from_edges(n, sorted(rng.sample(everyone, m)))
        assert parse_edgelist(format_edgelist(g)) == g
        assert len(rows_read) == (m == 400)
        rows_read.clear()
        rows = [f"e {u} {v}" for u, v in g.edges]
        u, v = g.edges[m // 2]
        rows[m // 2] = f"e {spell(u)} {spell(v)}"
        everywhere = [f"e {spell(u)} {spell(v)}" for u, v in g.edges]
        for body in (rows, everywhere):
            text = f"p {n} {m}\n" + "\n".join(body) + "\n"
            assert parse_edgelist(text) == g
            assert_same(text)


@pytest.fixture
def split_pieces(monkeypatch) -> list[str]:
    """The pieces that the general reader reads by splitting them."""
    split = []
    real = bchrom.fileio._split_ends

    def spy(piece, k):
        split.append(piece)
        return real(piece, k)

    monkeypatch.setattr(bchrom.fileio, "_split_ends", spy)
    return split


def test_plain_bodies_that_split_or_merge_their_ids_match_reference(split_pieces):
    # in each body a line holds other than one id either side of one
    # space after its "e ", so the scan's separator check or JSON refuses
    # it, and the split reads it as the reference does
    for body in ("e 1 2 3\ne 4\n", "e 1 2 3\ne 4", "e 1 \n", "e 1 \ne 2 3\n", "e 12\ne 3 4 5\n",
                 "e 12\ne 3 4 5", "e 1  2\n", "e  1 2\n", "e 1 2 \n", "e 1 2\ne 3 4 \n",
                 "e 1 2\ne 3  4", "e 1 2 \ne 3 4\n", "e 1\ne 2\n", "e\ne 1 2\n", "e 1 2\ne\n"):
        for m in (1, 2):
            split_pieces.clear()
            assert_same(f"p 13 {m}\n{body}")
            assert split_pieces, body


@pytest.mark.parametrize("spell", ["+1", "01", "-0", "-1", "1_0", "1e2", "1.0", "9" * 5000])
def test_ids_of_every_spelling_read_alike_scanned_or_split(spell, split_pieces):
    # the scan reads -0 and -1 as int() does, and refuses the rest, whose
    # pieces are split; a 5000-digit id reads alike whether or not the
    # interpreter limits the digits int() reads
    for row in (f"e {spell} 12", f"e 0 {spell}", f"e {spell} {spell}"):
        for text in (f"p 300 2\ne 0 1\n{row}\n", f"p 300 2\n{row}\ne 20 30\n",
                     f"p 300 1\n{row}"):
            split_pieces.clear()
            assert_same(text)
            if spell in ("-0", "-1"):
                assert not split_pieces, text
            elif len(spell) < 5:
                assert split_pieces, text


def test_crlf_and_vertical_tab_line_ends_match_reference():
    rng = random.Random(39)
    for g in (relabel(random_labeled_tree(30, rng), rng), random_graph(12, 0.3, rng)):
        text = format_edgelist(g)
        for end in ("\r\n", "\x0b", "\r"):
            changed = text.replace("\n", end)
            assert parse_edgelist(changed) == g
            assert_same(changed)
            assert_same(changed.replace(end, "\n", 2))


def test_plain_sparse_bodies_cut_into_pieces_match_reference(monkeypatch, split_pieces):
    # canonical tree bodies are scanned whole at every cut; a defect at a
    # cut is named as the reference names it
    rng = random.Random(40)
    trees = [relabel(random_labeled_tree(300, rng), rng), path_graph(200),
             relabel(star_graph(150), rng)]
    for size in (1, 7, 64, 1000):
        monkeypatch.setattr(bchrom.fileio, "PIECE_CHARS", size)
        for g in trees:
            split_pieces.clear()
            text = format_edgelist(g)
            assert parse_edgelist(text) == g
            assert parse_edgelist(text[:-1]) == g
            assert not split_pieces
            cuts = body_cuts(text)
            assert cuts
            for line in cuts[:3]:
                for changed in defects_around(text, line):
                    assert_same(changed)
            assert_same(dressed(g, rng))


def test_canonical_bodies_of_every_tree_shape_are_never_split(monkeypatch, split_pieces):
    # random trees, paths, stars and caterpillars in random labellings,
    # written as format_edgelist writes them, in one piece or in several
    rng = random.Random(41)
    trees = []
    for n in (7, 300, 2000):
        trees += [relabel(g, rng) for g in (random_labeled_tree(n, rng), path_graph(n),
                                            star_graph(n - 1), _caterpillar(n))]
    for size in (bchrom.fileio.PIECE_CHARS, 1000):
        monkeypatch.setattr(bchrom.fileio, "PIECE_CHARS", size)
        for g in trees:
            assert parse_edgelist(format_edgelist(g)) == g
    assert not split_pieces
