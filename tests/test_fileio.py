import pytest

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
    _tokenize,
)
from bchrom.graph import Graph, TcJoin, TcLeaf, TcUnion, complement, evaluate_tc, path_graph


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
