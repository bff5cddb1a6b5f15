"""The benchmark's tracer wraps program functions by name from outside
(benchmark/tracing.py).  Every name it lists must resolve the way its
_replace looks it up, or `benchmark/run.py --trace 1` breaks."""

import importlib.util
import sys
from pathlib import Path

import pytest

import spreadbent  # noqa: F401  (the benchmark worker's two imports)
import spreadbent.cli  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(where, attr):
    """The object _replace would wrap: a class's own attribute for
    "module:Class", else the module attribute."""
    mod, _, cls = where.partition(":")
    module = sys.modules[mod]
    if cls:
        return getattr(module, cls).__dict__[attr]
    return getattr(module, attr)


def test_spans_and_counters_resolve(tracing):
    for table in (tracing.SPANS, tracing.COUNTERS):
        for name, (where, attr) in table.items():
            assert callable(resolve(where, attr)), name


def test_qdiv_formula_is_defined_on_each_family(tracing):
    for cls in tracing.QDIV_CLASSES:
        assert callable(resolve(f"spreadbent.quasifield:{cls}",
                                "qdiv_formula")), cls
