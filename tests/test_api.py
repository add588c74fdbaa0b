"""The top-level API is what the README tour and the demos import, and every
function the benchmark's tracer wraps still exists under its module."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import upqgrowth

ROOT = Path(__file__).resolve().parent.parent


def _imported_names(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "upqgrowth"
        for alias in node.names
    }


def test_all_is_what_readme_and_demos_import():
    readme = (ROOT / "README.md").read_text()
    sources = re.findall(r"```python\n(.*?)```", readme, re.S)
    sources += [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    used = set().union(*map(_imported_names, sources))
    assert set(upqgrowth.__all__) == used
    assert len(upqgrowth.__all__) == len(used)
    for name in upqgrowth.__all__:
        assert hasattr(upqgrowth, name), name


def test_traced_functions_exist():
    # perfbench/spans.py wraps these by name with getattr; its TRACED table is
    # read from the source, so perfbench/ need not be on the import path
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert traced
    for module, names in traced.items():
        mod = importlib.import_module(f"upqgrowth.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
