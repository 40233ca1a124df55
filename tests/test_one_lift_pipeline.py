"""The lift of integer numerators lives in `intpoly`, and the rows of
every renaming-sum condition come from one builder in `spaces`.

`intpoly._times_key` multiplies terms by one factor key, and only
`intpoly._lifted` decides which factors a numerator is multiplied by
and in which order.  The renaming sums of `poly` and the shuffle and
cyclic rows of `spaces` go through one pipeline of `intpoly`
(`_renamings`, `_renamed_groups`, `_summed`), so neither module renames
keys or lifts numerators by hand.  In `spaces` that pipeline is read by
`_sum_rows` alone, for polynomial and Delta-quotient conditions alike,
with no cancelled sum (`poly.renaming_sums`) on the way; `mould` keeps
the one-value sums only, and `spaces._assemble` takes one condition
format."""

import ast
from pathlib import Path

import moulde

SOURCES = sorted(Path(moulde.__file__).resolve().parent.glob("*.py"))


def _trees():
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in SOURCES}


def _names(tree):
    """Every name the module reads, imports or reaches as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_times_key_is_referenced_only_inside_intpoly():
    users = sorted(name for name, tree in _trees().items()
                   if "_times_key" in set(_names(tree)))
    assert users == ["intpoly.py"]


def test_spaces_imports_neither_times_key_nor_renamed_keys():
    tree = _trees()["spaces.py"]
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & {"_times_key", "_renamed_keys"}
    assert not set(_names(tree)) & {"_times_key", "_renamed_keys"}


def test_assemble_takes_one_condition_format():
    tree = _trees()["spaces.py"]
    assemble, = (node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_assemble")
    assert "isinstance" not in set(_names(assemble))


def test_spaces_has_one_renaming_row_builder():
    pipeline = {"_renamings", "_renamed_groups", "_summed", "_lifted",
                "_shuffler"}
    builders = sorted(node.name for node in ast.walk(_trees()["spaces.py"])
                      if isinstance(node, ast.FunctionDef)
                      and set(_names(node)) & pipeline)
    assert builders == ["_sum_rows"]


def test_spaces_reads_no_cancelled_sum():
    assert not set(_names(_trees()["spaces.py"])) & {
        "renaming_sums", "shuffle_sum", "circ_cycle_sum", "_cleared"}


def test_mould_defines_no_list_sums():
    defined = {node.name for node in ast.walk(_trees()["mould.py"])
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_shuffle_sum", "_cycle_sum"}
