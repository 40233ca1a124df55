"""No function of the package takes a function as a default argument.

A default such as `pre=preari` on the series `exp_ari(A)` would be an
option with one legal value per input: the product follows from the
operand's alphabet, so the code reads it from there.  A default is flagged when it is a
lambda, or a name or dotted name that the module resolves to a
function; names local to an enclosing function are not resolved."""

import ast
import builtins
import importlib
import inspect
from pathlib import Path

import pytest

import moulde

SOURCES = sorted(Path(moulde.__file__).resolve().parent.glob("*.py"))


def _resolve(node, namespace):
    try:
        return eval(ast.unparse(node), namespace)
    except (NameError, AttributeError):
        return None


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_function_is_a_default_argument(path):
    name = "moulde" if path.stem == "__init__" else "moulde." + path.stem
    module = importlib.import_module(name)
    namespace = {"__builtins__": builtins, **vars(module)}
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        for d in node.args.defaults + node.args.kw_defaults:
            if isinstance(d, ast.Lambda) or (
                    isinstance(d, (ast.Name, ast.Attribute))
                    and inspect.isroutine(_resolve(d, namespace))):
                lines.append(d.lineno)
    assert lines == [], "%s has function defaults at lines %s" % (
        path.name, lines)
