"""The mould operators act on one mould, and `spaces` builds its push
and swap rows from `poly.substitute` on its depth-r values.

`mould` keeps no list form of an operator: `swap` and `push` call
`_substituted` themselves, and `_substituted`, `_times_forms` and
`_require` take one mould.  The batching over the parameter list lives
in `poly.substitute`, which `spaces` calls with the images of
`mould._swap_images` and `mould._push_images`."""

import ast
from pathlib import Path

import moulde

TREES = {p.name: ast.parse(p.read_text(), filename=str(p))
         for p in Path(moulde.__file__).resolve().parent.glob("*.py")}


def test_mould_defines_no_list_operators():
    defined = {node.name for node in ast.walk(TREES["mould.py"])
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_swap", "_push"}
    assert {"swap", "push", "_swap_images", "_push_images"} <= defined


def test_spaces_reaches_no_mould_list_operator():
    tree = TREES["spaces.py"]
    reached = {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not (reached | imported) & {"_swap", "_push"}
    assert {"_swap_images", "_push_images"} <= reached


def test_one_mould_helpers_are_never_given_a_list():
    helpers = {"_substituted", "_times_forms", "_require"}
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            called = getattr(node.func, "attr", getattr(node.func, "id", None))
            if called in helpers:
                first = node.args[0]
                assert not isinstance(first, (ast.List, ast.ListComp)), (
                    name, node.lineno)
