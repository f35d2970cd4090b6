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


def _called_names(node) -> set[str]:
    return {
        call.func.id
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    }


def _self_calls(tree, outer=()):
    """(enclosing functions, function) for every function that calls itself
    by name, nested or not."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in _called_names(node):
                yield outer, node
            yield from _self_calls(node, outer + (node,))
        else:
            yield from _self_calls(node, outer)


def _admitted(oracle_tree) -> set[str]:
    """Functions of ``oracle.py`` that size their search with ``_admit``,
    directly or because every caller in the module does."""
    functions = {n.name: n for n in oracle_tree.body if isinstance(n, ast.FunctionDef)}
    admitted = {name for name, fn in functions.items() if "_admit" in _called_names(fn)}
    for name in functions:
        callers = [c for c, fn in functions.items() if name in _called_names(fn) and c != name]
        if callers and all(c in admitted for c in callers):
            admitted.add(name)
    return admitted


def test_no_recursion_whose_depth_grows_without_a_guard():
    """Python stops at about 1000 frames, so a function that calls itself by
    name must be an oracle search whose depth ``_admit`` checks against the
    recursion limit.  Mutual recursion and calls through an attribute
    (``self.f``) are not scanned."""
    trees = dict(_package_trees())
    admitted = _admitted(trees["oracle.py"])
    found = []
    for name, tree in trees.items():
        for outer, fn in _self_calls(tree):
            where = ".".join([f.name for f in outer] + [fn.name])
            if name == "oracle.py" and outer and outer[0].name in admitted:
                continue
            found.append(f"{name}:{fn.lineno} {where}")
    assert not found, found


def test_the_recursion_scan_finds_nested_and_top_level_self_calls():
    tree = ast.parse(
        "def outer():\n"
        "    def rec(i):\n"
        "        return rec(i - 1) if i else 0\n"
        "    return rec(3)\n"
        "def top(i):\n"
        "    return top(i - 1)\n"
        "def plain():\n"
        "    return outer()\n"
    )
    assert [(tuple(f.name for f in outer), fn.name) for outer, fn in _self_calls(tree)] == [
        (("outer",), "rec"),
        ((), "top"),
    ]


def test_invariant_violation_is_a_domain_error():
    assert issubclass(InvariantViolation, BchromError)
