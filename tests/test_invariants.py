"""Invariants are checked with explicit raises, which ``python -O`` keeps."""

import ast
from pathlib import Path

import bchrom
from bchrom.errors import BchromError, InvariantViolation


def _package_trees():
    for path in sorted(Path(bchrom.__file__).parent.rglob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _names(expr) -> set[str]:
    """Names an exception expression refers to: ``E``, ``E(...)``, ``m.E``
    and tuples of them."""
    if isinstance(expr, ast.Call):
        return _names(expr.func)
    if isinstance(expr, ast.Tuple):
        return set().union(*(_names(e) for e in expr.elts))
    if isinstance(expr, ast.Name):
        return {expr.id}
    if isinstance(expr, ast.Attribute):
        return {expr.attr}
    return set()


def _assertion_error_sites(tree) -> list[tuple[str, int]]:
    """Every ``raise AssertionError`` and ``except AssertionError`` in a tree."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and "AssertionError" in _names(node.exc):
            sites.append(("raise", node.lineno))
        if isinstance(node, ast.ExceptHandler) and "AssertionError" in _names(node.type):
            sites.append(("except", node.lineno))
    return sites


def test_no_assert_statements_in_the_package():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_no_assertion_error_raised_or_caught_in_the_package():
    found = [
        f"{name}:{line} ({kind})"
        for name, tree in _package_trees()
        for kind, line in _assertion_error_sites(tree)
    ]
    assert not found, found


def test_the_scan_finds_raise_and_except_sites():
    tree = ast.parse(
        "try:\n"
        "    raise AssertionError('x')\n"
        "except (ValueError, AssertionError):\n"
        "    raise builtins.AssertionError\n"
    )
    assert sorted(_assertion_error_sites(tree)) == [("except", 3), ("raise", 2), ("raise", 4)]


def test_invariant_violation_is_a_domain_error():
    assert issubclass(InvariantViolation, BchromError)
