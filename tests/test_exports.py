"""Names other code looks up by name: each name the package re-exports
is in its home module's __all__, and each attribute the benchmark's
tracer rebinds is defined on its owner."""

import ast
import importlib
import os
import sys

import pytest

import k3bv

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def package_imports():
    """(module, name) for each name k3bv/__init__.py imports from a submodule."""
    with open(k3bv.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module, name", package_imports())
def test_reexported_name_is_in_its_modules_all(module, name):
    mod = importlib.import_module(f"k3bv.{module}")
    if hasattr(mod, "__all__"):
        assert name in mod.__all__


def traced_spans():
    sys.path.insert(0, BENCH)
    try:
        from tracing import SPANS
        return SPANS
    finally:
        sys.path.remove(BENCH)


@pytest.mark.parametrize("span", traced_spans(), ids=lambda s: f"{s[0]}:{s[2]}")
def test_traced_attribute_is_defined_on_its_owner(span):
    # The tracer looks each attribute up in its owner's __dict__, so a
    # deleted or renamed one breaks the traced benchmark.
    _, owner, attr, _ = span
    assert attr in owner.__dict__
