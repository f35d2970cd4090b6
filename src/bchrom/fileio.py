"""Text formats: edge lists, decomposition expressions, matchings, colorings.

Edge-list format (bit-exact): UTF-8; lines starting ``#`` are comments; the
first non-comment line is ``p <n> <m>``; exactly m lines ``e <u> <v>`` with
``0 <= u < v < n`` follow.  Duplicate or out-of-range edges are parse errors.

The header is read line by line.  The body is read in pieces of about
``PIECE_CHARS`` characters, each cut just after a ``"\\n"``, and each piece
is checked with whole-list operations: every third word is ``e``, and there
are 3k words for k rows.  A plain piece (ASCII, lines ended by ``"\\n"``
alone, each starting with ``e``) is split as it is; any other piece is
first stripped of blank lines, comments and surrounding whitespace.  No
list of the whole file's words or lines is built.  On invalid input the
body is then walked line by line, and the error names the first bad line.

The endpoints are read by ``int()``, or, when m >= 2n, through a table of
vertex ids: there each id is spelled four times on average, and looking a
word up saves about a quarter of what an entry costs to build.

A header with fewer non-edges than vertices, as a co-forest has, over a
body of six characters per line at least, is first read without splitting
the body: the body is compared with the canonical text of K_n, built one
vertex's row of lines at a time, and the lines it lacks are the missing
pairs.  When the body is exactly that text less n(n-1)/2 - m lines, the
graph is the complement of the missing pairs, so it comes linked to that
sparse complement and is never complemented again.  Its dense rows are
not written here: they are made from the forest on their first read, and
the routes that answer from the forest never read them.  A last line with
no final ``"\n"``, or empty lines after it, are read as that text too.
Any other body (comments, CRLF line ends, another order, a bad line) is
refused and read as below, so every error names the same line.

Pairs in canonical order, strictly increasing in (u, v) as
``format_edgelist`` writes them, are built by ``Graph.from_sorted_pairs``,
which appends each pair to its two rows, with no set or sort per vertex.
Pairs in any other order are built by ``Graph.from_edges``; a duplicate,
reversed or out-of-range pair is then named by its line.

Expression format: s-expressions over
``(tree <file|inline>) | (cotree ...) | (union e e+) | (join e e+)`` where
the inline form lists n and then edge pairs.  Both leaf heads read a tree
into a ``TcLeaf``; ``cotree`` sets its ``co`` flag, so the leaf denotes
the tree's complement.  Vertex ids of the denoted graph are assigned to
leaves depth-first, left to right.
"""

from __future__ import annotations

import operator
import os
import re
from typing import Iterator

from .errors import ParseError
from .graph import (
    Edge,
    Graph,
    TcExpr,
    TcJoin,
    TcLeaf,
    TcUnion,
    _coforest_sized,
    complement,
    norm_edge,
)
from .matching import Matching

# characters of edge-list body read at a time
PIECE_CHARS = 1 << 18
# line boundaries of str.splitlines other than "\n", in ASCII
_OTHER_LINE_ENDS = "\r\x0b\x0c\x1c\x1d\x1e"
# the graph of every one-vertex leaf: graphs are immutable, and their views
# are values, so one leaf's views serve all
_POINT = Graph(1, ((),))


def _read_header(text: str) -> tuple[int, int, int, int]:
    """``(n, m, line number of the header, offset of the line after it)``
    from the first line that is neither blank nor a comment.  Lines are
    read one ``"\\n"``-ended segment at a time, each split as
    ``str.splitlines`` splits the whole text."""
    lineno = pos = 0
    while pos < len(text):
        nl = text.find("\n", pos)
        for raw in text[pos : len(text) if nl < 0 else nl + 1].splitlines(keepends=True):
            lineno += 1
            pos += len(raw)
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] != "p" or len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'p <n> <m>'")
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer counts") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative counts")
            return n, m, lineno, pos
    raise ParseError("missing 'p <n> <m>' header")


def _body_error(text: str, start: int, n: int, m: int) -> ParseError:
    """The error for a body, from line ``start + 1`` on, that the bulk
    checks rejected: the body is walked line by line, and the first bad
    line is named.  If every line is good on its own, the count is wrong."""
    seen: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines()[start:], start=start + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "e" or len(parts) != 3:
            return ParseError(f"line {lineno}: expected 'e <u> <v>'")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            return ParseError(f"line {lineno}: non-integer endpoints")
        if not (0 <= u < v < n):
            return ParseError(f"line {lineno}: edge ({u},{v}) violates 0 <= u < v < n")
        if (u, v) in seen:
            return ParseError(f"line {lineno}: duplicate edge ({u},{v})")
        seen.add((u, v))
    return ParseError(f"header declares {m} edges, found {len(seen)}")


def _read_ints(words: list[str], ids: dict[str, int]) -> list[int]:
    """The integers ``int()`` reads from ``words``.  When ``ids`` holds
    every word, spelled in canonical decimal, the words are looked up in
    it, which is faster than ``int()`` and shares one int object per
    vertex."""
    if ids:
        try:
            return list(map(ids.__getitem__, words))
        except KeyError:
            pass
    return list(map(int, words))


def _pieces(text: str, start: int) -> Iterator[str]:
    """``text[start:]`` in pieces of at least ``PIECE_CHARS`` characters,
    each but the last cut just after a ``"\\n"``."""
    while start < len(text):
        end = text.find("\n", start + PIECE_CHARS - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _piece_pairs(piece: str, ids: dict[str, int]) -> tuple[list[int], list[int]] | None:
    """The endpoints ``(us, vs)`` of the rows of ``piece``, or None if a
    row is not ``e <u> <v>`` with integer endpoints.

    The piece is checked with whole-list operations.  It is plain when it
    is ASCII, ends its lines with ``"\\n"`` alone and starts each line
    with ``e``; any other piece is first stripped of blank lines, comments
    and surrounding whitespace.
    """
    k = piece.count("\n") + (not piece.endswith("\n"))
    if (not piece.isascii() or any(end in piece for end in _OTHER_LINE_ENDS)
            or piece.count("\ne") + piece.startswith("e") != k):
        rows = list(filter(None, map(str.strip, piece.splitlines())))
        if "#" in piece:
            rows = [row for row in rows if row[0] != "#"]
        k = len(rows)
        piece = "\n".join(rows)
        del rows
        if piece.count("\ne") + piece.startswith("e") != k:
            return None
    # each of the k rows starts with the letter e, every third of the 3k
    # words is "e", and no word that int() reads holds an e: so the words
    # "e" are exactly the rows' first words, and each row is e <u> <v>
    words = piece.split()
    if len(words) != 3 * k or words[::3].count("e") != k:
        return None
    try:
        return _read_ints(words[1::3], ids), _read_ints(words[2::3], ids)
    except ValueError:
        return None


def _read_body(text: str, start: int, body: int, n: int, m: int) -> tuple[list[int], list[int]]:
    """The endpoints ``(us, vs)`` of the m rows from offset ``body`` on;
    the header is line ``start``.  Only when a piece fails its checks is
    the body walked line by line, to name the first bad line."""
    # an entry of the table costs about as much as four int() calls save,
    # so it pays only at four or more endpoint words per id, m >= 2n; and
    # the header alone must not size it: each id spelled in the body takes
    # a character of the body at least
    ids = {str(v): v for v in range(min(n, len(text) - body))} if m >= 2 * n else {}
    us: list[int] = []
    vs: list[int] = []
    for piece in _pieces(text, body):
        pairs = _piece_pairs(piece, ids)
        if pairs is None:
            raise _body_error(text, start, n, m)
        us += pairs[0]
        vs += pairs[1]
    if len(us) != m:
        raise _body_error(text, start, n, m)
    return us, vs


def _common_prefix(text: str, pos: int, row: str, j: int) -> int:
    """The length of the longest common prefix of ``text[pos:]`` and
    ``row[j:]``, where ``row[j:]`` is not a prefix of ``text[pos:]``, so
    the length is below ``len(row) - j``.

    It is found by binary search over slice comparisons, each comparing
    only the span between the bounds, so about ``len(row) - j``
    characters are compared in all.  The first eight characters are
    compared first: a text in another order, or with other line ends,
    differs within them at nearly every line.
    """
    lo, hi = 0, len(row) - j
    if text[pos : pos + 8] == row[j : j + 8]:
        lo = 8
    else:
        hi = min(hi, 8)
    while hi - lo > 1:  # the first lo characters match, the first hi do not
        mid = (lo + hi) // 2
        if text[pos + lo : pos + mid] == row[j + lo : j + mid]:
            lo = mid
        else:
            hi = mid
    return lo


def _read_coforest(text: str, body: int, n: int, m: int) -> Graph | None:
    """The graph of a co-forest-sized body from offset ``body`` on, when
    the body is exactly the canonical text of K_n with n(n-1)/2 - m of
    its lines taken out; otherwise None, and nothing about the body is
    known.

    K_n's text is built one row at a time, the lines ``e u w`` of one
    vertex u, and compared with the body.  A row that the body holds
    whole is passed over with one comparison; elsewhere the first
    mismatch is found by ``_common_prefix``, and the row's line that
    holds it is taken to be missing.  The graph is the complement of the
    missing pairs, and comes linked to that sparse complement, with its
    rows left to be made on first read (``graph.complement``).  A text
    that lacks its final ``"\n"`` or ends in empty lines is compared as
    if it ended in one ``"\n"``.
    """
    if not text.endswith("\n") or text.endswith("\n\n"):
        text = text.rstrip("\n") + "\n"
    budget = n * (n - 1) // 2 - m
    # each line takes six characters at least, so the header alone does
    # not size the rows
    if budget < 0 or len(text) - body < 6 * m:
        return None
    ids = list(map(str, range(n)))
    missing: list[Edge] = []
    pos = body
    for u in range(n - 1):
        head = f"e {u} "
        row = head + ("\n" + head).join(ids[u + 1 :]) + "\n"
        j = 0  # the row's lines before j are matched or missing
        while not text.startswith(row[j:], pos):
            cut = row.rfind("\n", 0, j + _common_prefix(text, pos, row, j)) + 1
            end = row.index("\n", cut) + 1
            missing.append((u, int(row[cut + len(head) : end - 1])))
            if len(missing) > budget:
                return None
            pos += cut - j
            j = end
        pos += len(row) - j
    if pos != len(text) or len(missing) != budget:
        return None
    return complement(Graph.from_edges(n, missing))


def parse_edgelist(text: str) -> Graph:
    n, m, start, body = _read_header(text)
    if _coforest_sized(n, m):
        g = _read_coforest(text, body, n, m)
        if g is not None:
            return g
    us, vs = _read_body(text, start, body, n, m)
    g = Graph.from_sorted_pairs(n, us, vs)
    if g is None:
        if m and (min(us) < 0 or max(vs) >= n or not all(map(operator.lt, us, vs))):
            raise _body_error(text, start, n, m)
        g = Graph.from_edges(n, zip(us, vs))
        if g.m != m:  # from_edges collapsed a duplicate
            raise _body_error(text, start, n, m)
    return g


def format_edgelist(g: Graph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines += [f"e {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def read_edgelist(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_edgelist(fh.read())


def write_edgelist(path: str, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edgelist(g))


# ---------------------------------------------------------------------------
# Decomposition expressions
# ---------------------------------------------------------------------------


# a parenthesis, a string literal (its closing quote optional, so that an
# unterminated one is seen), a comment, or a run of other characters
_TOKEN = re.compile(r'[()]|"[^"]*"?|;[^\n]*|[^\s()";]+')


def _tokenize(text: str) -> list[str]:
    """Tokens in text order; a string literal becomes ``"`` followed by its
    contents, and comments are dropped."""
    tokens = _TOKEN.findall(text)
    if '"' not in text and ";" not in text:
        return tokens
    out = []
    for tok in tokens:
        if tok[0] == ";":
            continue
        if tok[0] == '"':
            if len(tok) < 2 or tok[-1] != '"':
                raise ParseError("unterminated string literal")
            tok = tok[:-1]
        out.append(tok)
    return out


def _leaf_graph(tokens: list[str], i: int, base_dir: str) -> tuple[Graph, int]:
    """The graph of the leaf whose body starts at ``tokens[i]``, and the
    index of the token after the body."""
    tok = tokens[i]
    i += 1
    if tok.startswith('"') or not tok.lstrip("-").isdigit():
        path = tok[1:] if tok.startswith('"') else tok
        full = path if os.path.isabs(path) else os.path.join(base_dir, path)
        try:
            return read_edgelist(full), i
        except OSError as exc:
            raise ParseError(f"cannot read leaf file {path!r}: {exc}") from None
    try:
        n = int(tok)
    except ValueError:
        raise ParseError(f"bad leaf size {tok!r}") from None
    if tokens[i] == ")" and n >= 0:  # no edges, as at every one-vertex leaf
        return (_POINT if n == 1 else Graph(n, ((),) * n)), i
    try:
        end = tokens.index(")", i)
    except ValueError:
        end = len(tokens)
    words = tokens[i:end]
    try:
        nums = list(map(int, words))
    except ValueError:
        for word in words:  # name the first word that is not an integer
            try:
                int(word)
            except ValueError:
                raise ParseError(f"bad vertex id {word!r}") from None
    if end == len(tokens):
        raise ParseError("unexpected end of expression")
    if len(nums) % 2:
        raise ParseError("inline leaf lists whole edge pairs")
    try:
        return Graph.from_edges(n, list(zip(nums[::2], nums[1::2]))), end
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_tc_expression(text: str, base_dir: str = ".") -> TcExpr:
    tokens = _tokenize(text)
    i = 0
    # union/join nodes whose closing parenthesis is still ahead, with the
    # children read so far; an explicit stack, so nesting depth is unbounded
    open_ops: list[tuple[str, list[TcExpr]]] = []
    counter = 0
    try:  # reading past the last token is the one IndexError here
        while True:
            if tokens[i] != "(":
                raise ParseError(f"expected '(', found {tokens[i]!r}")
            head = tokens[i + 1]
            i += 2
            if head in ("union", "join"):
                if tokens[i] == ")":
                    raise ParseError(f"{head} needs at least two children")
                open_ops.append((head, []))
                continue
            if head not in ("tree", "cotree"):
                raise ParseError(f"unknown expression head {head!r}")
            g, i = _leaf_graph(tokens, i, base_dir)
            if tokens[i] != ")":
                raise ParseError(f"expected ')', found {tokens[i]!r}")
            i += 1
            ids = tuple(range(counter, counter + g.n))
            counter += g.n
            try:
                node: TcExpr = TcLeaf(g, ids, co=head == "cotree")
            except Exception as exc:
                raise ParseError(f"invalid {head} leaf: {exc}") from None
            # hand the finished node to its parent, closing every node that ends here
            while open_ops:
                open_ops[-1][1].append(node)
                if tokens[i] != ")":
                    break
                i += 1
                op, children = open_ops.pop()
                if len(children) < 2:
                    raise ParseError(f"{op} needs at least two children")
                node = TcUnion(tuple(children)) if op == "union" else TcJoin(tuple(children))
            else:
                break
    except IndexError:
        raise ParseError("unexpected end of expression") from None
    if i != len(tokens):
        raise ParseError("trailing tokens after expression")
    return node


def read_tc_expression(path: str) -> TcExpr:
    with open(path, encoding="utf-8") as fh:
        return parse_tc_expression(fh.read(), base_dir=os.path.dirname(path) or ".")


def format_tc_expression(e: TcExpr) -> str:
    parts: list[str] = []
    stack: list[TcExpr | str] = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, TcLeaf):
            head = "cotree" if node.co else "tree"
            nums = " ".join(f"{u} {v}" for u, v in node.tree.edges)
            body = f"{node.tree.n} {nums}".strip()
            parts.append(f"({head} {body})")
        else:
            parts.append(f"({node.head} ")
            stack.append(")")
            for i, child in enumerate(reversed(node.children)):
                if i:
                    stack.append(" ")
                stack.append(child)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Matchings and colorings
# ---------------------------------------------------------------------------


def format_matching(m: Matching) -> str:
    return "".join(f"{u} {v}\n" for u, v in sorted(m))


def _int_pairs(text: str, shape: str) -> Iterator[tuple[int, int, int]]:
    """``(line number, a, b)`` per line of the two integers ``shape`` names."""
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


def parse_matching(text: str) -> Matching:
    return frozenset(norm_edge(u, v) for _, u, v in _int_pairs(text, "u v"))


def format_coloring(c) -> str:
    return "".join(f"{v} {cls}\n" for v, cls in enumerate(c.assignment))


def parse_coloring(text: str, n: int):
    """A coloring of n vertices, in classes numbered below n (no more fit)."""
    from .bcoloring import Coloring

    assign = [-1] * n
    for lineno, v, cls in _int_pairs(text, "<vertex> <class>"):
        if not 0 <= v < n:
            raise ParseError(f"line {lineno}: vertex {v} out of range")
        if assign[v] != -1:
            raise ParseError(f"line {lineno}: vertex {v} colored twice")
        if not 0 <= cls < n:
            raise ParseError(f"line {lineno}: class {cls} out of range")
        assign[v] = cls
    if any(x == -1 for x in assign):
        raise ParseError("some vertex has no color")
    return Coloring(tuple(assign), max(assign, default=-1) + 1)
