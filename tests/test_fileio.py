import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchrom.bcoloring import Coloring
from bchrom.errors import ParseError
from bchrom.fileio import (
    format_coloring,
    format_edgelist,
    format_matching,
    format_tc_expression,
    parse_coloring,
    parse_edgelist,
    parse_matching,
    parse_tc_expression,
    read_coloring,
    read_edgelist,
    read_tc_expression,
    _tokenize,
)
from bchrom.graph import (
    Graph,
    TcJoin,
    TcLeaf,
    TcUnion,
    complement,
    norm_edge,
    decompose_tree_cograph,
    evaluate_tc,
    path_graph,
    tc_postorder,
)

from conftest import random_expression
from test_edgelist import outcome, reference_parse_edgelist


def test_edgelist_round_trip():
    g = path_graph(6)
    assert parse_edgelist(format_edgelist(g)) == g
    co = complement(g)
    assert parse_edgelist(format_edgelist(co)) == co


def test_edgelist_comments_and_errors():
    assert parse_edgelist("# c\np 2 1\ne 0 1\n") == path_graph(2)
    with pytest.raises(ParseError):
        parse_edgelist("p 2 1\ne 1 0\n")  # u < v required
    with pytest.raises(ParseError):
        parse_edgelist("p 2 2\ne 0 1\ne 0 1\n")  # duplicate
    with pytest.raises(ParseError):
        parse_edgelist("p 2 1\ne 0 2\n")  # out of range
    with pytest.raises(ParseError):
        parse_edgelist("p 2 2\ne 0 1\n")  # wrong count
    with pytest.raises(ParseError):
        parse_edgelist("e 0 1\n")  # missing header


def test_tc_expression_inline():
    expr = parse_tc_expression("(union (tree 2 0 1) (cotree 3 0 1 1 2))")
    g = evaluate_tc(expr)
    assert g.n == 5
    # second leaf denotes the complement of a path on {2,3,4}
    assert (2, 4) in set(g.edges)
    assert format_tc_expression(expr).startswith("(union")
    again = parse_tc_expression(format_tc_expression(expr))
    assert evaluate_tc(again) == g


def test_one_vertex_leaves_share_their_graph():
    expr = parse_tc_expression("(join (tree 1) (union (cotree 1) (tree 1) (tree 2 0 1)))")
    a, (b, c, _) = expr.children[0], expr.children[1].children
    assert a.tree is b.tree is c.tree
    fresh = TcJoin((TcLeaf(Graph(1, ((),)), (0,)), TcUnion((
        TcLeaf(Graph(1, ((),)), (1,), co=True), TcLeaf(Graph(1, ((),)), (2,)),
        TcLeaf(path_graph(2), (3, 4))))))
    assert expr == fresh and hash(expr) == hash(fresh)
    assert evaluate_tc(expr) == evaluate_tc(fresh)


def test_decomposed_one_vertex_leaves_share_the_graph_the_reader_gives():
    # a 200-level chain decomposes to one-vertex leaves around one leaf of
    # its deepest three vertices
    g = evaluate_tc(random_expression("chain", 200, random.Random(200)))
    points = [node.tree for node in tc_postorder(decompose_tree_cograph(g))
              if isinstance(node, TcLeaf) and node.tree.n == 1]
    assert len(points) == 197
    shared = parse_tc_expression("(tree 1)").tree
    assert all(tree is shared for tree in points)


def test_tc_expression_file_ref(tmp_path):
    leaf = tmp_path / "p6.g"
    leaf.write_text(format_edgelist(path_graph(6)))
    expr = parse_tc_expression(f'(join (tree "{leaf.name}") (tree 1))', base_dir=str(tmp_path))
    g = evaluate_tc(expr)
    assert g.n == 7 and g.degree(6) == 6


def test_tc_expression_errors():
    with pytest.raises(ParseError):
        parse_tc_expression("(union (tree 2 0 1))")  # one child
    with pytest.raises(ParseError):
        parse_tc_expression("(tree 3 0 1)")  # not a tree (disconnected)
    with pytest.raises(ParseError):
        parse_tc_expression("(loop 1 2)")
    with pytest.raises(ParseError):
        parse_tc_expression("(tree 2 0 1) junk")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected end of expression"),
        ("(tree", "unexpected end of expression"),
        ("(tree 1", "unexpected end of expression"),
        ("(join (tree 1) (tree 1)", "unexpected end of expression"),
        ("tree 1)", "expected '(', found 'tree'"),
        ("(union (tree 1) x)", "expected '(', found 'x'"),
        ("(forest 1)", "unknown expression head 'forest'"),
        ("(union)", "union needs at least two children"),
        ("(union (tree 1))", "union needs at least two children"),
        ("(tree 1) (tree 1)", "trailing tokens after expression"),
        ("(tree 2 0 1 1)", "inline leaf lists whole edge pairs"),
        ("(tree 2 0 x)", "bad vertex id 'x'"),
        ("(tree 2 0 (", "bad vertex id '('"),
        ("(tree -1)", "adjacency length must equal vertex count"),
        ("(tree 3 0 5)", "edge (0,5) out of range for n=3"),
        ("(tree 3 0 1)", "invalid tree leaf: leaf graph must be a tree"),
        ("(cotree 3 0 1 1 2 0 2)", "invalid cotree leaf: leaf graph must be a tree"),
    ],
)
def test_tc_expression_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_tc_expression(text)
    assert str(info.value) == message


def test_tokenize_in_text_order():
    assert _tokenize('ab"x"') == ["ab", '"x']
    assert _tokenize('(tree "a b;c"cd) ; note "\n(x)') == ["(", "tree", '"a b;c', "cd", ")", "(", "x", ")"]
    assert _tokenize("(join;c\n(tree 1)\t(tree 1))") == [
        "(", "join", "(", "tree", "1", ")", "(", "tree", "1", ")", ")"
    ]
    for text in ['(tree "leaf.g)', 'ab "', '"']:
        with pytest.raises(ParseError, match="^unterminated string literal$"):
            _tokenize(text)


def test_matching_format_round_trip():
    m = frozenset({(3, 4), (1, 2)})
    text = format_matching(m)
    assert text == "1 2\n3 4\n"
    assert parse_matching(text) == m


def test_coloring_format_round_trip():
    c = Coloring((0, 1, 0, 2), 3)
    text = format_coloring(c)
    assert parse_coloring(text, 4) == c
    with pytest.raises(ParseError):
        parse_coloring("0 0\n", 2)
    with pytest.raises(ParseError):
        parse_coloring("0 0\n0 1\n1 0\n", 2)


def test_coloring_classes_are_numbered_below_n():
    # a class number is not a size to allocate: n vertices fill at most n classes
    with pytest.raises(ParseError, match="class 3000000 out of range"):
        parse_coloring("0 3000000\n", 1)
    with pytest.raises(ParseError, match="class -1 out of range"):
        parse_coloring("0 -1\n", 1)
    assert parse_coloring("", 0) == Coloring((), 0)


def test_readers_name_a_file_that_is_not_utf8(tmp_path):
    """Each reader reads what it reads as UTF-8, and a file that does not
    decode is a ``ParseError`` naming the file and the first bad byte."""
    bad = tmp_path / "bad.g"
    bad.write_bytes(b"p 2 1\ne 0 \xff1\n")
    with pytest.raises(ParseError, match=r"bad\.g: not UTF-8 text \(invalid start byte at byte 10\)"):
        read_edgelist(str(bad))
    tcx = tmp_path / "bad.tcx"
    tcx.write_bytes(b"(tree 2 0 1)\n; \xc3(\n")
    with pytest.raises(ParseError, match=r"bad\.tcx: not UTF-8 text \(.* at byte 15\)"):
        read_tc_expression(str(tcx))
    leaf = tmp_path / "leaf.tcx"
    leaf.write_text('(join (tree 1) (tree "bad.g"))\n')
    with pytest.raises(ParseError, match=r"bad\.g: not UTF-8 text"):
        read_tc_expression(str(leaf))
    col = tmp_path / "bad.col"
    col.write_bytes(b"0 0\n1 \xed\xa0\x80\n")
    with pytest.raises(ParseError, match=r"bad\.col: not UTF-8 text \(.* at byte 6\)"):
        read_coloring(str(col), 2)
    col.write_bytes(b"0 0\n1 1\n")
    assert read_coloring(str(col), 2) == Coloring((0, 1), 2)


# ---------------------------------------------------------------------------
# Line numbers: every reader numbers lines as str.splitlines does
# ---------------------------------------------------------------------------


def reference_pairs(text: str, shape: str):
    """``(line number, a, b)`` per content line, numbered by ``text.splitlines()``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected {shape!r}")
        try:
            yield lineno, int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer fields") from None


def reference_parse_matching(text: str):
    return frozenset(norm_edge(u, v) for _, u, v in reference_pairs(text, "u v"))


def reference_parse_coloring(text: str, n: int) -> Coloring:
    assign: dict[int, int] = {}
    for lineno, v, cls in reference_pairs(text, "<vertex> <class>"):
        if not 0 <= v < n:
            raise ParseError(f"line {lineno}: vertex {v} out of range")
        if v in assign:
            raise ParseError(f"line {lineno}: vertex {v} colored twice")
        if not 0 <= cls < n:
            raise ParseError(f"line {lineno}: class {cls} out of range")
        assign[v] = cls
    if len(assign) < n:
        raise ParseError("some vertex has no color")
    return Coloring(tuple(assign[v] for v in range(n)), max(assign.values(), default=-1) + 1)


# every line boundary of str.splitlines
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
LINES = [
    "p 4 3", "p 4 0", "p 4 x", "p -1 0",  # headers
    "e 0 1", "e 1 2", "e 2 3", " e 0 3\t", "e 3 1",  # edges
    "0 1", "1 0", "2 3", "3 2", "0 7", "-1 2",  # pairs
    "# c", "  # e 0 1", "#",  # comments
    "", " ", "\t",  # blank lines
    "x", "e 1", "1 2 3", "p 1", "e 0 y", "1 z",  # junk
]


@st.composite
def line_texts(draw) -> str:
    """Lines of the pool, each ended by a line boundary drawn for it, with
    or without the last line's end."""
    lines = draw(st.lists(st.sampled_from(LINES), max_size=10))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]
    return text


@settings(max_examples=300, deadline=None)
@given(line_texts())
def test_every_reader_numbers_lines_as_splitlines_does(text):
    assert outcome(parse_edgelist, text) == outcome(reference_parse_edgelist, text)
    assert outcome(parse_matching, text) == outcome(reference_parse_matching, text)
    assert outcome(lambda t: parse_coloring(t, 4), text) == outcome(
        lambda t: reference_parse_coloring(t, 4), text)
