"""The benchmark tracer's categories name functions that exist.

`bench/tracer.py` wraps package functions by dotted name; a name that no
longer resolves would make `bench/run.py --trace 1` fail.  This test
only reads the tracer's tables."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("category", sorted(tracer.CATEGORIES))
def test_every_traced_name_resolves(category):
    layer, names, _ = tracer.CATEGORIES[category]
    module = importlib.import_module(tracer.LAYERS[layer])
    for name in names:
        assert callable(tracer._lookup(module, name)), (category, name)
