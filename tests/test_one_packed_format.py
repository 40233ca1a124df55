"""Packed monomials have one owner.

Inside the substitution walk and the lift a monomial is one int, not an
exponent tuple (see `intpoly._packing`).  Only `intpoly` knows that
format: it defines the pack/unpack table, and the table is read only
there and in `poly._substituted_terms`, which packs the images on entry
and unpacks each substituted numerator on exit.  Every other kernel,
and every value a caller sees, keeps its exponent tuples."""

import ast
from pathlib import Path

import moulde

SOURCES = sorted(Path(moulde.__file__).resolve().parent.glob("*.py"))
PACKED = {"_packing", "_packed_mul", "_packed_times", "_packed_lift"}


def _trees():
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in SOURCES}


def _names(tree):
    """Every name the code reads, imports or reaches as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)]


def test_only_intpoly_defines_the_packing():
    owners = sorted(name for name, tree in _trees().items()
                    for node in _functions(tree) if node.name in PACKED)
    assert owners == ["intpoly.py"] * len(PACKED)


def test_only_intpoly_and_the_substitution_walk_use_the_packing():
    trees = _trees()
    users = sorted(name for name, tree in trees.items()
                   if set(_names(tree)) & PACKED)
    assert users == ["intpoly.py", "poly.py"]
    readers = sorted(node.name for node in _functions(trees["poly.py"])
                     if set(_names(node)) & PACKED)
    assert readers == ["_substituted_terms"]
