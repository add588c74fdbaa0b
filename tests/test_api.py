"""The top-level API is what the README tour and the demos import, every
function the benchmark's tracer wraps still exists under its module, every
definition of the package has a caller, the tracer alone keeps a fixed few,
every import is read, the package's modules import each other at their top,
with no cycle, and what reads a part, a block, an index or a prime power
refuses a float or a text."""

from __future__ import annotations

import ast
import importlib
import re
from graphlib import TopologicalSorter
from itertools import chain
from pathlib import Path

import pytest

import upqgrowth
from upqgrowth import asymptotics, growth, sarnakxue, shapes

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


def _package() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "upqgrowth").glob("*.py"))
    }


def _uncalled(outside: set[str]) -> set[str]:
    """Definitions whose name is read nowhere outside their own body: not in
    the package, and not among the outside names."""
    package = _package()
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
    return uncalled


def _readme_and_demo_uses() -> set[str]:
    readme = (ROOT / "README.md").read_text()
    sources = re.findall(r"```python\n(.*?)```", readme, re.S)
    sources += [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    return {name for source in sources for name, _ in _uses(ast.parse(source))}


def test_every_definition_has_a_caller():
    # exports that nothing uses are deleted: a definition counts as used when
    # its name is read outside its own body, in the package, in the README's
    # Python, in demos/ or in the tracer's table. An import alone is no use.
    traced = set(chain.from_iterable(_traced().values()))
    assert _uncalled(_readme_and_demo_uses() | traced) == UNCALLED


# a backticked private name, bare or after a module or class, with any call
PRIVATE_NAME = re.compile(r"`(?:(\w+)\.)?(_[A-Za-z]\w*)(?:\([^`]*\))?`")


def _defined(tree: ast.Module) -> set[str]:
    """The names a module defines at its top and in its classes' bodies."""
    bodies = [tree.body]
    bodies += [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    names = set()
    for node in chain.from_iterable(bodies):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _docstrings(tree: ast.Module):
    """The docstrings of a module, its classes and its functions."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, kinds) and ast.get_docstring(node):
            yield ast.get_docstring(node)


def test_docs_name_only_defined_private_helpers():
    # the README and the package's docstrings name private helpers for the
    # reader to look up; each one named must still exist, in its module when
    # the name gives one
    package = _package()
    defined = {module: _defined(tree) for module, tree in package.items()}
    anywhere = set().union(*defined.values())
    texts = [("README.md", (ROOT / "README.md").read_text())]
    texts += [(m, doc) for m, tree in package.items() for doc in _docstrings(tree)]
    named = [
        (where, prefix, name)
        for where, text in texts
        for prefix, name in PRIVATE_NAME.findall(text)
    ]
    assert len(named) > 20
    assert [
        (where, prefix, name)
        for where, prefix, name in named
        if name not in defined.get(prefix, anywhere)
    ] == []


def test_tracer_alone_keeps_these():
    # off the hot path, kept only because perfbench's TRACED table names
    # them; they move to tests/oracles.py when the table drops them
    traced = set(chain.from_iterable(_traced().values()))
    outside = _readme_and_demo_uses()
    assert _uncalled(outside) - _uncalled(outside | traced) == {
        "growth.all_groupings",
        "growth.partition_bound0",
        "partitions.balanced_bipartition",
        "sarnakxue.exponent_profile",
        "sarnakxue.one_merge_coarsenings",
        "sarnakxue.profile_sum",
        "shapes.odd_gsk_parity_test",
        "shapes.shape_to_json",
    }


# (function, the modules it imports) for each function that imports: the CLI
# loads argparse (and gettext, which argparse imports) only to build its
# parser, which a plain argv never needs
FUNCTION_IMPORTS = [("cli.build_parser", ["argparse"])]


def _function_imports(package: dict[str, ast.Module]) -> list:
    """(module.function, imported names) for every function, nested or a
    method, that holds an import; one pair per definition, so functions that
    share a name are each reported."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for module, tree in package.items():
        for func in ast.walk(tree):
            if isinstance(func, funcs):
                names = [
                    alias.name
                    for n in ast.walk(func)
                    if isinstance(n, (ast.Import, ast.ImportFrom))
                    for alias in n.names
                ]
                if names:
                    found.append((f"{module}.{func.name}", names))
    return found


def test_no_import_inside_a_function():
    # a function-level import hides a dependency, often one that closes a
    # cycle; the one exception imports a standard-library module
    assert _function_imports(_package()) == FUNCTION_IMPORTS


def test_import_in_a_same_named_function_is_found():
    # shapes has two `__new__` and partitions several nested `rec`: an import
    # planted in the first of two same-named definitions is still reported
    planted = ast.parse(
        "class A:\n"
        "    def __new__(cls):\n"
        "        import os\n"
        "class B:\n"
        "    def __new__(cls):\n"
        "        pass\n"
    )
    package = _package()
    package["planted"] = planted
    assert _function_imports(package) == FUNCTION_IMPORTS + [
        ("planted.__new__", ["os"])
    ]


# imported at module level and read nowhere in the module
UNREAD_IMPORTS = {
    # the benchmark's tracer wraps shapes.sl2_candidates by that name
    "shapes.sl2_candidates",
}


def test_every_import_is_read():
    # a name counts as read when the module loads it, bare or as an
    # attribute, or lists it in its __all__; __future__ imports bind nothing
    unread = set()
    for module, tree in _package().items():
        read = {name for name, _ in _uses(tree)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets
            ):
                read |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    unread.add(f"{module}.{name}")
    assert unread == UNREAD_IMPORTS


def _imported(node: ast.AST) -> list[str]:
    """The dotted names an import statement may load, "upqgrowth.x" for a
    module x of the package, whether written relative or absolute."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level == 1:
        base = f"upqgrowth.{base}" if base else "upqgrowth"
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def test_import_graph_has_no_cycle():
    package = _package()
    prefix = "upqgrowth."
    graph = {
        module: {
            name[len(prefix) :]
            for node in ast.walk(tree)
            for name in _imported(node)
            if name.startswith(prefix)
        }
        & package.keys()
        for module, tree in package.items()
    }
    assert "growth" in graph["shapes"]  # the reader sees the edges
    assert "shapes" not in graph["growth"]
    TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_asymptotics_leaves_the_dominance_decision_to_shapes():
    # delta_max and leading_term read one decision: runs, candidates,
    # dominant and placements stay behind shapes.dominant_placements
    tree = _package()["asymptotics"]
    names = {name for name, _ in _uses(tree)}
    names |= {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "dominant_placements" in names
    decision = {
        "local_run_data",
        "common_candidates",
        "dominant",
        "grouped_blocks",
        "_place_centres",
    }
    assert names.isdisjoint(decision)


def test_cli_leaves_the_delta_max_text_to_shapes():
    # the record's JSON text is written once, by DeltaMax.to_text: cli
    # reads that and defines no writer of its own and no line breaks for it
    tree = _package()["cli"]
    assert "to_text" in {name for name, _ in _uses(tree)}
    defined = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    } | {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert not {name for name in defined if "delta_max" in name} - {"cmd_delta_max"}
    assert not {name for name in defined if name.startswith("_NL")}
    assert not {"_int_list", "_shape_texts"} & defined


@pytest.mark.parametrize("bad", [2.5, "3"], ids=["float", "text"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: growth.td_pairs(((v, 1),)),
        lambda v: growth.td_pairs(((1, v),)),
        lambda v: growth.grouped_blocks((v, 2)),
        lambda v: list(growth.all_groupings((v, 2))),
        lambda v: sarnakxue.max_ratio((v, 1)),
        lambda v: sarnakxue.one_merge_coarsenings((v, 1)),
        lambda v: sarnakxue.sx_row((v, 2)),
        lambda v: asymptotics.index_congruence(2, ((v, 1),)),
        lambda v: asymptotics.index_congruence(2, ((2, v),)),
        lambda v: asymptotics.gamma_factor((v,), ((2, 1),)),
        lambda v: asymptotics.euler_digits((v,), ((2, 1),)),
        lambda v: asymptotics.euler_digits((1,), ((2, 1),), v),
        lambda v: asymptotics.index_congruence(v, ((2, 1),)),
        lambda v: shapes.ShapeBlock(T=v, d=1, centers=((1, 0),), eta=1),
        lambda v: shapes.ShapeBlock(T=1, d=v, centers=((0,),), eta=1),
    ],
    ids=[
        "td_pairs-T",
        "td_pairs-d",
        "grouped_blocks",
        "all_groupings",
        "max_ratio",
        "one_merge_coarsenings",
        "sx_row",
        "ideal-q",
        "ideal-e",
        "gamma_factor",
        "euler_digits",
        "euler_digits-n",
        "index_congruence-n",
        "ShapeBlock-T",
        "ShapeBlock-d",
    ],
)
def test_non_integer_refused(call, bad):
    # int() would read 2.5 as 2 and "3" as 3; operator.index refuses both
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call(bad)
