"""The benchmark reaches into the package by name from outside.  The
tracer (benchmark/tracing.py) wraps program functions: every name it lists
must resolve the way its _replace looks it up, or `benchmark/run.py
--trace 1` breaks.  The worker (benchmark/worker.py) and the self-test that
runs before every measurement (benchmark/selftest.py) call `sb.<name>`
(spreadbent imported as sb): every such name must resolve and accept the
keywords they pass, such as make_family's strict=, and the objects it
returns must have the attributes they read, or `benchmark/run.py`
breaks."""

import ast
import functools
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import spreadbent  # the benchmark worker's two imports
import spreadbent.cli  # noqa: F401

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
TRACING = BENCHMARK / "tracing.py"


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


def _sb_chain(node):
    """The names after `sb` of an attribute chain sb.a.b, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "sb":
        return tuple(names[::-1])
    return None


def _script(name):
    return ast.parse((BENCHMARK / name).read_text())


@pytest.fixture(scope="module")
def worker():
    return _script("worker.py")


def _names_resolve(tree, required):
    chains = {c for node in ast.walk(tree)
              if (c := _sb_chain(node)) is not None}
    assert required <= chains
    for chain in chains:
        obj = spreadbent
        for name in chain:
            assert hasattr(obj, name), "sb." + ".".join(chain)
            obj = getattr(obj, name)


def _keywords_bind(tree):
    # bind_partial raises TypeError on a keyword the signature does not take
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (c := _sb_chain(node.func)):
            sig = inspect.signature(functools.reduce(getattr, c, spreadbent))
            sig.bind_partial(**{kw.arg: None for kw in node.keywords
                                if kw.arg is not None})  # not **mappings


def test_worker_names_resolve_on_the_package(worker):
    _names_resolve(worker, {("make_family",), ("Spread",), ("cli", "main")})


def test_worker_keywords_are_accepted(worker):
    _keywords_bind(worker)  # make_family(..., strict=True) among them
    inspect.signature(spreadbent.make_family).bind_partial(strict=True)


def test_selftest_names_resolve_on_the_package():
    _names_resolve(_script("selftest.py"),
                   {("default_modulus",), ("make_family",), ("save_tt",),
                    ("TruthTable",)})


def test_selftest_keywords_are_accepted():
    # make_family(..., strict=False) and save_tt(..., header=...)
    _keywords_bind(_script("selftest.py"))


def test_returned_objects_have_the_attributes_the_benchmark_reads():
    for name, params in (("field", {}), ("dm", {"k": 1}),
                         ("knuth", {"beta": 1}), ("kantor", {})):
        Q = spreadbent.make_family(name, 3, **params)
        for attr in ("mult_table", "div_table_formula", "qdiv_formula"):
            assert callable(getattr(Q, attr)), (name, attr)
        S = spreadbent.build_spread(Q)
        assert len(S.components) == 9
        spread = spreadbent.verify_spread(S)
        for report in (spreadbent.verify_axioms(Q), spread):
            assert report.passed and report.as_dict()["passed"], name
        assert len(spread.closure_ok) == 9
    f = spreadbent.TruthTable(2, [0, 0, 0, 1])
    assert f.bits.tolist() == [0, 0, 0, 1]
