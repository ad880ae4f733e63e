"""Tests for the package's export list and its imports."""

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
PACKAGE = Path(returndist.__file__).resolve().parent
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


def _imports_no_code_uses(source: str, reexports: bool) -> set[str]:
    """The names that source imports and then reads nowhere, or, under
    ``from __future__ import annotations`` (which keeps each annotation as
    text that no code evaluates), only inside annotations: of arguments, of
    returns and of annotated names. With reexports, the relative imports (a
    package's public names) count as read."""
    tree = ast.parse(source)
    imported, annotations, postponed = set(), [], False
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            postponed |= "annotations" in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import | ast.ImportFrom):
            if not (reexports and isinstance(node, ast.ImportFrom) and node.level > 0):
                imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
    text = {id(n) for a in annotations if postponed and a is not None for n in ast.walk(a)}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and id(n) not in text}
    return imported - read


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_import_serves_only_annotations(path):
    source = path.read_text(encoding="utf-8")
    assert _imports_no_code_uses(source, reexports=path.name == "__init__.py") == set()


_ANNOTATED = (
    "import math\n"
    "from collections.abc import Sequence\n"
    "from .moments import _Centred, _centred\n"
    "from .errors import DomainError\n"
    "class R:\n"
    "    values: Sequence[float]\n"
    "def f(c: _Centred, *rest: math.inf) -> DomainError:\n"
    "    return _centred(c)\n"
)


def test_annotation_only_imports_are_found():
    postponed = "from __future__ import annotations\n" + _ANNOTATED
    assert _imports_no_code_uses(postponed, reexports=False) == {
        "Sequence", "_Centred", "math", "DomainError"
    }
    assert _imports_no_code_uses(postponed, reexports=True) == {"Sequence", "math"}
    # evaluated annotations read their names
    assert _imports_no_code_uses(_ANNOTATED, reexports=False) == set()
    assert _imports_no_code_uses("import os.path\nimport sys as s\n", False) == {"os", "s"}
