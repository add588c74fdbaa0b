"""The top-level API is what the README tour and the demos import, every
function the benchmark's tracer wraps still exists under its module, and
every definition of the package has a caller."""

from __future__ import annotations

import ast
import importlib
import re
from itertools import chain
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


def _traced() -> dict[str, tuple[str, ...]]:
    # perfbench/spans.py wraps these by name with getattr; its TRACED table is
    # read from the source, so perfbench/ need not be on the import path
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )


def test_traced_functions_exist():
    traced = _traced()
    assert traced
    for module, names in traced.items():
        mod = importlib.import_module(f"upqgrowth.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


# kept without a caller, each for what it pins
UNCALLED = {
    # the packets half of the output, cross-checked against
    # oracles.mr_full_character
    "packets.component_character",
    # pins the abstract's averaged Sato-Tate law
    "shapes.sato_tate_group",
    # these two pin the degree and weight formulas of the cohomology docstring
    "cohomology.HodgeProfile.highest",
    "cohomology.HodgeProfile.weight_in_degree",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name, node) of each module-level function and class
    and each public method."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _uses(tree: ast.AST):
    """(name, line) of every name read, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def test_every_definition_has_a_caller():
    # exports that nothing uses are deleted: a definition counts as used when
    # its name is read outside its own body, in the package, in the README's
    # Python, in demos/ or in the tracer's table. An import alone is no use.
    package = {
        path.stem: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "upqgrowth").glob("*.py"))
    }
    outside = set(chain.from_iterable(_traced().values()))
    readme = (ROOT / "README.md").read_text()
    sources = re.findall(r"```python\n(.*?)```", readme, re.S)
    sources += [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    for source in sources:
        outside.update(name for name, _ in _uses(ast.parse(source)))
    uses: dict[str, list[tuple[str, int]]] = {}
    for module, tree in package.items():
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((module, line))
    uncalled = set()
    for module, tree in package.items():
        for qualified, name, node in _definitions(module, tree):
            own = range(node.lineno, node.end_lineno + 1)
            if name not in outside and all(
                where == module and line in own
                for where, line in uses.get(name, ())
            ):
                uncalled.add(qualified)
    assert uncalled == UNCALLED
