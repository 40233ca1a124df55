"""The package checks its results without `assert` statements.

`python -O` strips every `assert`, so a verification written as one
would silently stop running.  The package raises typed errors instead
(`spaces.VerificationError`, `maps.MapVerificationError`)."""

import ast
from pathlib import Path

import pytest

import moulde

SOURCES = sorted(Path(moulde.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], "%s has assert statements at lines %s" % (
        path.name, lines)
