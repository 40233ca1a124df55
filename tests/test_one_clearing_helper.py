"""A {key: Fraction} dict is cleared to integers in one place.

`intpoly._ints` takes such a dict to its integer numerators over the
lcm of its denominators, and `intpoly._from_ints` takes them back.  A
second definition of a clearing helper, or an lcm of denominators
computed by hand in another module, is a copy that can drift."""

import ast
from pathlib import Path

import moulde

SOURCES = sorted(Path(moulde.__file__).resolve().parent.glob("*.py"))
HELPERS = ("_ints", "_from_ints", "_frac")


def _trees():
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in SOURCES}


def test_each_clearing_helper_is_defined_in_one_module():
    where = {}
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in HELPERS:
                where.setdefault(node.name, set()).add(name)
    assert {h: sorted(m) for h, m in where.items() if len(m) > 1} == {}
    assert where.get("_ints") == where.get("_from_ints") == {"intpoly.py"}


def _lcm_of_denominators(node):
    """Whether `node` calls lcm on arguments that read a `.denominator`."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)
    return name == "lcm" and any(
        isinstance(sub, ast.Attribute) and sub.attr == "denominator"
        for arg in node.args for sub in ast.walk(arg))


def test_only_intpoly_takes_an_lcm_of_denominators():
    found = sorted(
        "%s:%d" % (name, node.lineno)
        for name, tree in _trees().items() for node in ast.walk(tree)
        if _lcm_of_denominators(node))
    assert [f for f in found if not f.startswith("intpoly.py:")] == []
    assert len(found) == 1, found
