"""Every tolerance parameter of the package is a ToleranceConfig: each
parameter named ``tol`` is annotated ``ToleranceConfig`` and any default it
has is ``DEFAULT_TOL``, so no caller can pass None and no module needs a
helper that turns None into the default (``_tol``)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ebcert"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


def tol_parameters(tree):
    """(function name, argument node, default node or None) for each
    parameter named ``tol`` in the tree."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
        name = getattr(node, "name", "<lambda>")
        for arg, default in [*zip(positional, defaults), *zip(args.kwonlyargs, args.kw_defaults)]:
            if arg.arg == "tol":
                yield name, arg, default


def is_name(node, name):
    return isinstance(node, ast.Name) and node.id == name


def violations(trees):
    """The ``tol`` parameters that are not a ToleranceConfig defaulting to
    DEFAULT_TOL, and every definition or import of ``_tol``."""
    found = []
    for module, tree in trees.items():
        for name, arg, default in tol_parameters(tree):
            if not is_name(arg.annotation, "ToleranceConfig"):
                found.append(f"{module}:{arg.lineno} {name}: tol is not annotated ToleranceConfig")
            if default is not None and not is_name(default, "DEFAULT_TOL"):
                found.append(f"{module}:{arg.lineno} {name}: tol defaults to {ast.unparse(default)}")
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.name == "_tol":
                found.append(f"{module}:{node.lineno} defines _tol")
            elif isinstance(node, ast.Import | ast.ImportFrom):
                if any(alias.name.rpartition(".")[2] == "_tol" for alias in node.names):
                    found.append(f"{module}:{node.lineno} imports _tol")
            elif isinstance(node, ast.Assign | ast.AnnAssign):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(is_name(target, "_tol") for target in targets):
                    found.append(f"{module}:{node.lineno} defines _tol")
    return found


def test_every_tol_parameter_is_a_tolerance_config():
    assert not violations(TREES), "\n".join(violations(TREES))


@pytest.mark.parametrize("source, found", [
    ("def f(tol: ToleranceConfig = DEFAULT_TOL):\n    pass\n", []),
    ("def f(x, tol: ToleranceConfig):\n    pass\n", []),
    ("def f(*, tol: ToleranceConfig = DEFAULT_TOL):\n    pass\n", []),
    ("def f(t: ToleranceConfig | None = None):\n    pass\n", []),
    ("def f(tol: ToleranceConfig | None = None):\n    pass\n",
     ["m.py:1 f: tol is not annotated ToleranceConfig", "m.py:1 f: tol defaults to None"]),
    ("def f(tol=None):\n    pass\n",
     ["m.py:1 f: tol is not annotated ToleranceConfig", "m.py:1 f: tol defaults to None"]),
    ("def f(a, tol: ToleranceConfig = ToleranceConfig()):\n    pass\n",
     ["m.py:1 f: tol defaults to ToleranceConfig()"]),
    ("def f(*, tol: ToleranceConfig = None):\n    pass\n", ["m.py:1 f: tol defaults to None"]),
    ("class C:\n    def g(self, tol):\n        pass\n",
     ["m.py:2 g: tol is not annotated ToleranceConfig"]),
    ("key = lambda tol: tol\n", ["m.py:1 <lambda>: tol is not annotated ToleranceConfig"]),
    ("def _tol(tol: ToleranceConfig):\n    return tol\n", ["m.py:1 defines _tol"]),
    ("_tol = None\n", ["m.py:1 defines _tol"]),
    ("from .numerics import _tol\n", ["m.py:1 imports _tol"]),
    ("from .numerics import (\n    DEFAULT_TOL,\n    _tol,\n)\n", ["m.py:1 imports _tol"]),
], ids=["default", "required", "keyword-only", "other-name", "optional-none", "unannotated",
        "fresh-default", "keyword-only-none", "method", "lambda", "defines-function",
        "defines-name", "imports", "imports-among-others"])
def test_a_violation_is_reported(source, found):
    assert violations({"m.py": ast.parse(source)}) == found
