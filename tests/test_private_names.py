"""Every module-level private function and every module-level constant of the
package is referenced somewhere in the package beyond its own definition, so
code that no caller needs is deleted rather than kept."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ebcert"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


def is_checked(name):
    """Private names and UPPER_CASE constants, dunders aside."""
    return not name.startswith("__") and (name.startswith("_") or name.isupper())


def definitions(tree):
    """(name, node) for each checked function or assignment at module level."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and is_checked(node.name):
            yield node.name, node
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and is_checked(target.id):
                    yield target.id, node


def references(node):
    """Names read in a subtree: loads, attribute accesses and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def unreferenced(trees):
    """The checked module-level names of the trees that nothing outside
    their own definition reads."""
    everywhere = [name for tree in trees.values() for name in references(tree)]
    missing = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            if everywhere.count(name) == list(references(node)).count(name):
                missing.append(f"{module}:{node.lineno} {name}")
    return missing


def test_every_private_function_and_constant_is_referenced():
    assert not unreferenced(TREES), "defined but never referenced: " + ", ".join(unreferenced(TREES))


@pytest.mark.parametrize("source, missing", [
    ("def _dead():\n    return 1\n", ["m.py:1 _dead"]),
    ("def _loop(n):\n    return _loop(n - 1)\n", ["m.py:1 _loop"]),
    ("LIMIT = 3\n_cache = {}\n", ["m.py:1 LIMIT", "m.py:2 _cache"]),
    ("def _used():\n    return 1\n\nVALUE = _used()\n\ndef f():\n    return VALUE\n", []),
    ("def public():\n    return 1\n\n__version__ = '1'\n", []),
], ids=["dead-function", "self-reference-only", "dead-constants", "used", "public-and-dunder"])
def test_an_unreferenced_name_is_reported(source, missing):
    assert unreferenced({"m.py": ast.parse(source)}) == missing


def test_a_reference_from_another_module_counts():
    trees = {"a.py": ast.parse("def _helper():\n    return 1\n"),
             "b.py": ast.parse("from .a import _helper\n")}
    assert unreferenced(trees) == []
