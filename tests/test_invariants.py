"""Invariants are checked with explicit raises, which ``python -O`` keeps."""

import ast
from pathlib import Path

import bchrom
from bchrom.errors import BchromError, InvariantViolation


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(Path(bchrom.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_invariant_violation_is_a_domain_error():
    assert issubclass(InvariantViolation, BchromError)
