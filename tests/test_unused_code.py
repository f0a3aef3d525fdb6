"""Every function, class, method and property in `src/amber` has a user.

A user is code in `src/amber` or `bench/`: tests do not count, and neither
does the export table of `amber/__init__.py`, which names each export only
as a string. The benchmark's tracing tables name their targets as strings
("trainer", "Dataset.matrices"), so a string in `bench/` counts as a use.
"""

import ast
from pathlib import Path

import pytest

import amber

SRC = Path(amber.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _trees(folder):
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(folder.glob("*.py"))}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(trees):
    """(qualified name, node, is a method) of each non-dunder module-level
    function and class, and of each non-dunder method or property of those classes."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _dunder(node.name):
                continue
            yield f"{module}.{node.name}", node, False
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item, True


def _references(tree):
    """(name, node, by attribute) of every name load, `from` import and attribute read in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node, False
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, alias, False) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            yield node.attr, node, True


def unused(src_trees, bench_trees):
    """Qualified names of the definitions in `src_trees` that no code of either set uses.

    A function or class is used if a name load, a `from` import or an
    attribute read outside its own definition names it; a method or property
    only by an attribute read. A string in `bench_trees` naming it, or one of
    its dotted parts, is a use as well.
    """
    references = [ref for tree in (*src_trees.values(), *bench_trees.values()) for ref in _references(tree)]
    named_in_bench = {
        part
        for tree in bench_trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for part in node.value.split(".")
    }
    found = []
    for qualified, definition, method in _definitions(src_trees):
        if definition.name in named_in_bench:
            continue
        inside = {id(node) for node in ast.walk(definition)}
        if not any(name == definition.name and (by_attribute or not method) and id(node) not in inside
                   for name, node, by_attribute in references):
            found.append(qualified)
    return found


@pytest.mark.skipif(not BENCH.is_dir(), reason="needs the benchmark sources")
def test_every_function_class_method_and_property_in_src_has_a_user():
    assert unused(_trees(SRC), _trees(BENCH)) == []


def test_src_without_the_benchmark_leaves_only_the_bench_only_code_unused():
    # these live only because `bench/` times or counts them; any other name here has lost its last caller in src
    assert sorted(unused(_trees(SRC), {})) == ["autodiff.matmul", "autodiff.relu", "autodiff.sigmoid",
                                               "distlib.SoftLabel"]
