"""Tests for the package's export list."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import types
from pathlib import Path

import pytest

import returndist

README = Path(__file__).resolve().parent.parent / "README.md"
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _readme_library_imports() -> set[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n+```python\n(.*?)```", text, re.S).group(1)
    return {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "returndist"
        for alias in node.names
    }


def test_readme_names_exported():
    names = _readme_library_imports()
    assert {"analyze_returns", "LaplaceParams"} <= names  # the block was found
    assert names | {"PriceSeries", "ReturnSeries"} <= set(returndist.__all__)


def test_star_import_binds_no_submodule():
    namespace: dict = {}
    exec("from returndist import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(returndist.__all__)
    assert not [k for k, v in namespace.items() if isinstance(v, types.ModuleType)]


def test_benchmark_layer_functions_bound():
    # the benchmark's tracer wraps each LAYER_FUNCTIONS name by getattr on its module
    if not TRACING.exists():
        pytest.skip("no perfbench/tracing.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"returndist.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"returndist.{layer}.{name}"
