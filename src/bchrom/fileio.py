"""Text formats: edge lists, decomposition expressions, matchings, colorings.

Every file is read as UTF-8 (``_read_text``), and one that does not decode
is a ``ParseError`` naming the file and its first bad byte.

Edge-list format (bit-exact): UTF-8; lines starting ``#`` are comments; the
first non-comment line is ``p <n> <m>``; exactly m lines ``e <u> <v>`` with
``0 <= u < v < n`` follow.  Duplicate or out-of-range edges are parse errors.

Lines are walked in one place, ``_lines``: it reads the text one
``"\\n"``-ended segment at a time, splits each as ``str.splitlines``
splits the whole text, and yields each line that is neither blank nor a
comment with its number, the offset after it and its words.  The header,
the walk that names a body's first bad line, and the matching and
coloring readers all read through it, so each numbers lines alike.

The header is read by that walk, and the body by the first of three
readers that takes it:

- the co-forest reader, ``_read_coforest``, takes a header with fewer
  non-edges than vertices, as a co-forest has, over the canonical text of
  K_n less the missing lines;
- the dense-row reader, ``_read_rows``, takes a header with m >= 12n and
  m >= n^2/8 over a canonical body: pairs rising in (u, v), on lines of
  exactly ``e <u> <v>\\n``, with ids in canonical decimal;
- the general reader, ``_read_body``, takes every other body, in any
  order, with comments, blank lines and any whitespace.

The first two return None on any body they do not take whole, and the
general reader then reads it, so each text gives the same graph, or the
same error naming the same line, whichever reader takes it.

The general reader reads the body in pieces of about ``PIECE_CHARS``
characters, each cut just after a ``"\\n"``, and checks each piece with
whole-string operations.  A plain piece (ASCII, lines ended by ``"\\n"``
alone, each starting with ``e``) is read as it is; any other piece is
first stripped of blank lines, comments and surrounding whitespace.  With
each of its k lines' leading ``e `` and one final ``"\\n"`` taken off, a
piece whose characters other than digits and ``-`` are exactly one space
in each line is scanned by one ``json.loads``: the ids are then 2k words,
and a word that JSON reads as an integer ``int()`` reads as the same
integer.  A piece that fails that separator check (a tab, a sign ``+``,
an ``_``) or whose ids JSON refuses (a leading zero, a lone ``-``) is
split into words instead: every third is ``e``, there are 3k words, and
the endpoints are read by ``int()``.  No list of the whole file's words or
lines is built.  On invalid input the body is then walked line by line,
and the error names the first bad line.  Pairs in canonical order,
strictly increasing in (u, v) as ``format_edgelist`` writes them, are
built by ``Graph.from_sorted_pairs``, which appends each pair to its two
rows, with no set or sort per vertex.  Pairs in any other order are built
by ``Graph.from_edges``; a duplicate, reversed or out-of-range pair is
then named by its line.

The co-forest reader does not split the body: it compares the body with
the canonical text of K_n, built one vertex's row of lines at a time, and
the lines the body lacks are the missing pairs.  The graph is the
complement of the missing pairs, so it comes linked to that sparse
complement and is never complemented again.  Its dense rows are not
written here: they are made from the forest on their first read, and the
routes that answer from the forest never read them.  A last line with no
final ``"\\n"``, or empty lines after it, are read as that text too.

The dense-row reader splits the body one vertex's row of lines at a time,
looks each id up in a table of canonical ids, and checks the order once
per row.  It builds no list of the body's words and no list of pairs.

Expression format: s-expressions over
``(tree <file|inline>) | (cotree ...) | (union e e+) | (join e e+)`` where
the inline form lists n and then edge pairs.  Both leaf heads read a tree
into a ``TcLeaf``; ``cotree`` sets its ``co`` flag, so the leaf denotes
the tree's complement.  Vertex ids of the denoted graph are assigned to
leaves depth-first, left to right.  An expression is written by
``graph._tc_text``, the writer of its repr too, from the one walk over
expressions in ``graph``.
"""

from __future__ import annotations

import json
import operator
import os
import re
from contextlib import suppress
from itertools import islice
from typing import Iterator

from .errors import NotATree, ParseError
from .graph import (
    Edge,
    Graph,
    TcExpr,
    TcJoin,
    TcLeaf,
    TcUnion,
    _POINT,
    _coforest_sized,
    _tc_text,
    complement,
    norm_edge,
)
from .matching import Matching

# characters of edge-list body read at a time
PIECE_CHARS = 1 << 18
# line boundaries of str.splitlines other than "\n", in ASCII
_OTHER_LINE_ENDS = "\r\x0b\x0c\x1c\x1d\x1e"
# the characters of the ids that a JSON scan reads, and the separators
# between them, as JSON writes them
_ID_CHARS = str.maketrans("", "", "0123456789-")
_COMMAS = str.maketrans(" \n", ",,")


def _lines(text: str, pos: int = 0, lineno: int = 0) -> Iterator[tuple[int, int, list[str]]]:
    """``(line number, offset after the line, words)`` of each line from
    offset ``pos`` on that is neither blank nor a comment, where the line
    at ``pos`` is line ``lineno + 1``.  Lines are read one ``"\\n"``-ended
    segment at a time, each split as ``str.splitlines`` splits the whole
    text, so no list of the text's lines is built."""
    while pos < len(text):
        nl = text.find("\n", pos)
        for raw in text[pos : len(text) if nl < 0 else nl + 1].splitlines(keepends=True):
            lineno += 1
            pos += len(raw)
            words = raw.split()
            if words and words[0][0] != "#":
                yield lineno, pos, words


def _read_header(text: str) -> tuple[int, int, int, int]:
    """``(n, m, line number of the header, offset of the line after it)``
    from the first line that is neither blank nor a comment."""
    for lineno, pos, parts in _lines(text):
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


def _body_error(text: str, start: int, body: int, n: int, m: int) -> ParseError:
    """The error for a body from offset ``body`` on, after the header on
    line ``start``, that the bulk checks rejected: the body is walked line
    by line, and the first bad line is named.  If every line is good on its
    own, the count is wrong."""
    seen: set[Edge] = set()
    for lineno, _, parts in _lines(text, body, start):
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


def _pieces(text: str, start: int) -> Iterator[str]:
    """``text[start:]`` in pieces of at least ``PIECE_CHARS`` characters,
    each but the last cut just after a ``"\\n"``."""
    while start < len(text):
        end = text.find("\n", start + PIECE_CHARS - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _split_ends(piece: str, k: int) -> list[int]:
    """The endpoints ``u, v`` of the k rows of ``piece``, row by row, read
    by splitting it at whitespace; a ValueError if a row is not
    ``e <u> <v>`` with integer endpoints."""
    # each of the k rows starts with the letter e, every third of the 3k
    # words is "e", and no word that int() reads holds an e: so the words
    # "e" are exactly the rows' first words, and each row is e <u> <v>
    words = piece.split()
    if len(words) != 3 * k or words[::3].count("e") != k:
        raise ValueError
    del words[::3]
    return list(map(int, words))


def _piece_ends(piece: str) -> list[int]:
    """The endpoints ``u, v`` of the rows of ``piece``, row by row; a
    ValueError if a row is not ``e <u> <v>`` with integer endpoints.

    The piece is checked with whole-list operations.  It is plain when it
    is ASCII, ends its lines with ``"\\n"`` alone and starts each line
    with ``e``; any other piece is first stripped of blank lines, comments
    and surrounding whitespace.  Rows of exactly ``e <u> <v>``, with ids
    of digits and ``-``, are read by one ``json.loads``, and the rest, or
    any that JSON refuses, by ``_split_ends``.
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
            raise ValueError
    if piece.startswith("e "):
        # with each line's leading "e " and one final line end taken off,
        # ids whose other characters are one space in each of the k lines
        # are exactly 2k words of digits and "-", which JSON reads as int()
        # does, or refuses
        ids = piece[2 : -1 if piece.endswith("\n") else None].replace("\ne ", "\n")
        if ids.translate(_ID_CHARS) == " \n" * (k - 1) + " ":
            with suppress(ValueError):
                return json.loads("[" + ids.translate(_COMMAS) + "]")
    return _split_ends(piece, k)


def _read_body(text: str, start: int, body: int, n: int, m: int) -> tuple[list[int], list[int]]:
    """The endpoints ``(us, vs)`` of the m rows from offset ``body`` on;
    the header is line ``start``.  Only when a piece fails its checks is
    the body walked line by line, to name the first bad line."""
    ends: list[int] = []
    try:
        for piece in _pieces(text, body):
            ends += _piece_ends(piece)
    except ValueError:
        raise _body_error(text, start, body, n, m) from None
    if len(ends) != 2 * m:
        raise _body_error(text, start, body, n, m)
    return ends[::2], ends[1::2]


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
    holds it is taken to be missing.  The missing pairs are found in
    canonical order, so ``Graph.from_sorted_pairs`` builds their forest
    with no set or sort per vertex.  The graph is the complement of that
    forest, and comes linked to it, with its rows left to be made on
    first read (``graph.complement``).  A text that lacks its final
    ``"\n"`` or ends in empty lines is compared as if it ended in one
    ``"\n"``.
    """
    if not text.endswith("\n") or text.endswith("\n\n"):
        text = text.rstrip("\n") + "\n"
    budget = n * (n - 1) // 2 - m
    # each line takes six characters at least, so the header alone does
    # not size the rows
    if budget < 0 or len(text) - body < 6 * m:
        return None
    ids = list(map(str, range(n)))
    us: list[int] = []  # the missing pairs (us[i], ws[i]), found in canonical order
    ws: list[int] = []
    pos = body
    for u in range(n - 1):
        head = f"e {u} "
        row = head + ("\n" + head).join(ids[u + 1 :]) + "\n"
        j = 0  # the row's lines before j are matched or missing
        while not text.startswith(row[j:], pos):
            cut = row.rfind("\n", 0, j + _common_prefix(text, pos, row, j)) + 1
            end = row.index("\n", cut) + 1
            us.append(u)
            ws.append(int(row[cut + len(head) : end - 1]))
            if len(us) > budget:
                return None
            pos += cut - j
            j = end
        pos += len(row) - j
    if pos != len(text) or len(us) != budget:
        return None
    return complement(Graph.from_sorted_pairs(n, us, ws))


def _read_rows(text: str, body: int, n: int, m: int) -> Graph | None:
    """The graph of a canonical body from offset ``body`` on: pairs rising
    in (u, v), each on a line of exactly ``e <u> <v>\\n`` with both ids in
    canonical decimal.  Any other body gives None, and nothing about it is
    known.

    The body is read one row at a time, the lines ``e u w`` of one vertex
    u.  The row's last line lies within n - 1 - u lines of its first, so
    one bounded ``rfind`` ends it, and splitting it at ``"\\ne u "`` gives
    its ids w.  Each must be a key of the id table, so no whitespace or
    line end hides in one and the row is exactly its lines, and they must
    rise from above u.  Rows come in order, so when row u is read, u's
    lower neighbors are already in its list, in order, and its own ids
    follow them; u is appended to the list of each.
    """
    # each line takes six characters at least, so the header alone does
    # not size the rows; and one scan refuses a comment, the likeliest line
    # of a body written otherwise, before any row is read
    if len(text) - body < 6 * m or text.find("#", body) >= 0:
        return None
    ids = {str(v): v for v in range(n)}
    width = len(str(n - 1)) + 1  # of a line's last id and its line end
    nbrs: list[list[int]] = [[] for _ in range(n)]
    pos = body
    for name, u in ids.items():
        head = "e " + name + " "
        if not text.startswith(head, pos):
            continue
        sep = "\n" + head
        last = text.rfind(sep, pos, pos + (n - 1 - u) * (len(head) + width)) + 1 or pos
        end = text.find("\n", last + len(head)) + 1
        if not end:
            return None
        try:
            row = list(map(ids.__getitem__, text[pos + len(head) : end - 1].split(sep)))
        except KeyError:
            return None
        if row[0] <= u or not all(map(operator.lt, row, islice(row, 1, None))):
            return None
        nbrs[u] += row
        for v in row:
            nbrs[v].append(u)
        m -= len(row)  # the lines the header still counts
        pos = end
    if pos != len(text) or m:
        return None
    return Graph(n, tuple(map(tuple, nbrs)))


def parse_edgelist(text: str) -> Graph:
    n, m, start, body = _read_header(text)
    if _coforest_sized(n, m):
        g = _read_coforest(text, body, n, m)
        if g is not None:
            return g
    # on random canonical graphs of 40-2000 vertices the row reader took
    # 0.45-0.9 of the general reader's time at m >= 12n and a density of
    # 1/4 or more; it gained nothing below about 10n edges, where its cost
    # per row tells, nor at a density of 1/16 on 600 vertices, where its
    # rfind scans far past each row's end
    if m >= 12 * n and 8 * m >= n * n:
        g = _read_rows(text, body, n, m)
        if g is not None:
            return g
    us, vs = _read_body(text, start, body, n, m)
    g = Graph.from_sorted_pairs(n, us, vs)
    if g is None:
        if m and (min(us) < 0 or max(vs) >= n or not all(map(operator.lt, us, vs))):
            raise _body_error(text, start, body, n, m)
        g = Graph.from_edges(n, zip(us, vs))
        if g.m != m:  # from_edges collapsed a duplicate
            raise _body_error(text, start, body, n, m)
    return g


def format_edgelist(g: Graph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines += [f"e {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``; a file that does not decode
    is a ``ParseError`` that names it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_edgelist(path: str) -> Graph:
    return parse_edgelist(_read_text(path))


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
            except NotATree as exc:
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
    return parse_tc_expression(_read_text(path), base_dir=os.path.dirname(path) or ".")


def format_tc_expression(e: TcExpr) -> str:
    def leaf(node: TcLeaf) -> str:
        nums = "".join(f" {u} {v}" for u, v in node.tree.edges)
        return f"({'cotree' if node.co else 'tree'} {node.tree.n}{nums})"

    return _tc_text(e, leaf, lambda node: f"({node.head} ", " ", ")")


# ---------------------------------------------------------------------------
# Matchings and colorings
# ---------------------------------------------------------------------------


def format_matching(m: Matching) -> str:
    return "".join(f"{u} {v}\n" for u, v in sorted(m))


def _int_pairs(text: str, shape: str) -> Iterator[tuple[int, int, int]]:
    """``(line number, a, b)`` per line of the two integers ``shape`` names."""
    for lineno, _, parts in _lines(text):
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


def read_coloring(path: str, n: int):
    """``parse_coloring`` of the file at ``path``."""
    return parse_coloring(_read_text(path), n)
