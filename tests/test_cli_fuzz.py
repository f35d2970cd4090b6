"""Seeded fuzz of the command line: mutated edge lists, ``.tcx``
expressions and coloring files go through every subcommand, and nothing but
``BchromError`` or ``OSError`` may leave ``cli.main`` (both become exit
status 1, with one error line).  Some calls are made again on a copy of
their files that holds bytes that are not UTF-8, and must end in exit
status 1 with one error line.  Numeric options at their edges go through
the subcommands that take them, where argparse's own exit status 2 is
allowed too.  Graphs stay small and every search is capped, so a run takes
a few seconds."""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from bchrom.cli import main
from bchrom.fileio import format_edgelist
from bchrom.graph import (
    complement, complete_bipartite, complete_graph, cycle_graph, graph_union, path_graph, star_graph,
)

EDGE_LISTS = [
    format_edgelist(g)
    for g in (
        path_graph(1), path_graph(2), path_graph(5), star_graph(4), cycle_graph(5),
        complement(path_graph(6)), graph_union(complete_graph(3), complete_graph(3)),
    )
] + ["p 0 0\n", "# comment\np 3 1\ne 0 2\n"]
EXPRESSIONS = [
    "(tree 1)\n",
    "(cotree 4 0 1 1 2 2 3)\n",
    "(join (tree 1) (tree 2 0 1))\n",
    "(union (tree 3 0 1 1 2) (cotree 3 0 1 0 2) (tree 1))\n",
    "(join (union (tree 1) (tree 1)) (cotree 5 0 1 1 2 1 3 3 4))\n",
]
COLORINGS = ["0 0\n1 1\n2 0\n3 1\n4 2\n", "0 0\n", "", "# none\n1 0\n0 1\n"]
# byte sequences that no UTF-8 text holds: stray and overlong lead bytes, a
# lone continuation byte, an unfinished sequence, a surrogate, past U+10FFFF
BAD_BYTES = [b"\xff", b"\xfe", b"\xc0\xaf", b"\x80", b"\xc3", b"\xed\xa0\x80",
             b"\xf4\x90\x80\x80"]
PIECES = [" ", "\n", "(", ")", "-", "#", "p", "e", "tree", "cotree", "join", "union", "0", "1",
          "2", "3", "7", "-1", "12", "x"]


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(0, 3)):
        i = rng.randint(0, len(text))
        op = rng.randrange(4)
        if op == 0:  # delete a span
            text = text[:i] + text[i + rng.randint(1, 4):]
        elif op == 1:  # insert a piece
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif op == 2:  # replace a token
            words = text.split(" ")
            j = rng.randrange(len(words))
            words[j] = rng.choice(PIECES)
            text = " ".join(words)
        else:  # repeat or drop a line
            lines = text.splitlines(keepends=True) or [""]
            j = rng.randrange(len(lines))
            lines[j:j + 1] = [] if rng.random() < 0.5 else [lines[j]] * 2
            text = "".join(lines)
    return text


def _spoil(data: bytes, rng: random.Random) -> bytes:
    """data with a ``BAD_BYTES`` sequence put in at a random place."""
    i = rng.randint(0, len(data))
    return data[:i] + rng.choice(BAD_BYTES) + data[i:]


def _argvs(path: str, coloring: str, out: str, rng: random.Random) -> list[list[str]]:
    k = str(rng.randint(0, 5))
    return [
        ["analyze", path],
        ["bchromatic", path, "--max-n", "8", "--witness", out],
        ["bchromatic", path, "--max-n", "8", "--dump-tables"],
        ["dominance", path, "--max-n", "8", "--dump-tables"],
        ["bcolor", path, k, "--max-n", "8", "-o", out],
        ["chain", path, "--max-n", "8"],
        ["chain", path, "--coloring", coloring],
        ["verify", path, coloring],
        ["reduce", path, "-o", out],
        ["certify", path, "--budget", "2000"],
        ["tables", "min-smm", path],
        ["tables", "deficiency", path],
    ] + [
        ["oracle", q, path, "--max-n", "8", "--max-states", "20000", "--k", k]
        for q in ("min-smm", "chi-b", "chromatic", "dominance", "f-t-k")
    ]


def _run(argv: list[str], files) -> tuple[int, str]:
    """Exit status and stderr of ``main(argv)``; any other exception fails
    the test, naming argv and the contents of its files."""
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    except Exception as exc:
        pytest.fail(f"{type(exc).__name__}: {exc} escaped {argv} on {files!r}")
    return code, err.getvalue()


def fuzz(tmp_path, seed: int, files: int) -> None:
    rng = random.Random(seed)
    spoil = random.Random(seed + 1)  # a second stream, so rng draws the same texts
    coloring = tmp_path / "c.col"
    bad_coloring = tmp_path / "bad.col"
    out = str(tmp_path / "out")
    for i in range(files):
        tcx = rng.random() < 0.4
        text = _mutate(rng.choice(EXPRESSIONS if tcx else EDGE_LISTS), rng)
        path = tmp_path / (f"g{i}.tcx" if tcx else f"g{i}.g")
        path.write_text(text)
        colors = _mutate(rng.choice(COLORINGS), rng)
        coloring.write_text(colors)
        argv = rng.choice(_argvs(str(path), str(coloring), out, rng))
        code, err = _run(argv, (text, colors))
        assert code in (0, 1), (argv, text)
        assert code == 0 or err.count("\n") == 1, (argv, text, err)
        if spoil.random() < 0.2:  # the same call again on files that are not UTF-8
            graph, color_bytes = text.encode(), colors.encode()
            if str(coloring) in argv and spoil.random() < 0.5:
                color_bytes = _spoil(color_bytes, spoil)
            else:
                graph = _spoil(graph, spoil)
            bad_path = tmp_path / f"bad{i}{path.suffix}"
            bad_path.write_bytes(graph)
            bad_coloring.write_bytes(color_bytes)
            swap = {str(path): str(bad_path), str(coloring): str(bad_coloring)}
            bad_argv = [swap.get(a, a) for a in argv]
            code, err = _run(bad_argv, (graph, color_bytes))
            assert code == 1 and err.count("\n") == 1, (bad_argv, graph, color_bytes, err)
            if graph != text.encode():  # every subcommand reads the graph first
                assert err.startswith(f"error: {bad_path}: not UTF-8 text"), (bad_argv, err)


def test_fuzzed_files_leave_only_domain_errors(tmp_path):
    fuzz(tmp_path, seed=1, files=1000)


# Numeric options at and past their edges: negative, zero, one, small, and
# far beyond any graph here.
NUMBERS = ["-5", "-1", "0", "1", "3", str(10 ** 20)]
OPTION_INPUTS = {
    "tree.g": format_edgelist(star_graph(3)),
    "cotree.g": format_edgelist(complement(path_graph(6))),
    "c5.g": format_edgelist(cycle_graph(5)),
    "k23.g": format_edgelist(complete_bipartite(2, 3)),
    "one.g": format_edgelist(path_graph(1)),
    "join.tcx": "(join (tree 3 0 1 1 2) (cotree 4 0 1 1 2 2 3))\n",
}


def _option_argvs(path: str, out: str, rng: random.Random) -> list[list[str]]:
    def num() -> str:
        return rng.choice(NUMBERS)

    return [
        ["bchromatic", path, "--max-n", num(), "--witness", out],
        ["dominance", path, "--max-n", num()],
        ["bcolor", path, num(), "--max-n", num(), "-o", out],
        ["chain", path, "--max-n", num()],
        ["certify", path, "--budget", num()],
    ] + [
        ["oracle", q, path, "--max-n", num(), "--max-states", num(), "--k", num()]
        for q in ("min-smm", "chi-b", "chromatic", "dominance", "f-t-k")
    ]


def test_numeric_options_leave_only_domain_errors(tmp_path):
    """``--max-n``, ``--budget``, ``--max-states``, ``--k`` and the k of
    ``bcolor`` drawn from ``NUMBERS`` on small graphs: a call returns 0 or 1,
    or argparse rejects it with exit status 2; nothing else leaves ``main``."""
    rng = random.Random(19)
    out = str(tmp_path / "out")
    for name, text in OPTION_INPUTS.items():
        path = tmp_path / name
        path.write_text(text)
        for _ in range(8):
            for argv in _option_argvs(str(path), out, rng):
                try:
                    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                        code = main(argv)
                except SystemExit as exc:  # argparse rejects the call
                    assert exc.code == 2, argv
                    continue
                except Exception as exc:
                    pytest.fail(f"{type(exc).__name__}: {exc} escaped {argv}")
                assert code in (0, 1), argv
