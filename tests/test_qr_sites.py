"""The package takes one QR factorization, the Haar draw of
``numerics.random_unitary``.  A certificate is checked against the Choi matrix
in the eigenbasis ``choi`` computed (``certify._minimal_distance``), and the
thin-QR ``factor_distance`` is the tests' reference for that route
(``tests/oracles.py``), so no module of the package defines or imports it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ebcert"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}

# (module, function) pairs that may call a QR factorization
ALLOWED_QR = {("numerics.py", "random_unitary")}


def qr_uses(node, function="<module>"):
    """(line, enclosing function) for each ``linalg.qr`` attribute and each
    import of ``qr`` from a ``linalg`` module in the subtree."""
    if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
        function = node.name
    if isinstance(node, ast.Attribute) and node.attr == "qr":
        owner = node.value
        if (isinstance(owner, ast.Attribute) and owner.attr == "linalg") or \
                (isinstance(owner, ast.Name) and owner.id == "linalg"):
            yield node.lineno, function
    elif isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "linalg":
        if any(alias.name == "qr" for alias in node.names):
            yield node.lineno, function
    for child in ast.iter_child_nodes(node):
        yield from qr_uses(child, function)


def violations(trees):
    """Each QR outside ``ALLOWED_QR`` and each definition or import of
    ``factor_distance``."""
    found = []
    for module, tree in trees.items():
        for line, function in qr_uses(tree):
            if (module, function) not in ALLOWED_QR:
                found.append(f"{module}:{line} {function}: QR factorization")
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and \
                    node.name == "factor_distance":
                found.append(f"{module}:{node.lineno} defines factor_distance")
            elif isinstance(node, ast.Import | ast.ImportFrom):
                if any(alias.name.rpartition(".")[2] == "factor_distance" for alias in node.names):
                    found.append(f"{module}:{node.lineno} imports factor_distance")
    return found


def test_the_only_qr_is_the_haar_draw():
    assert not violations(TREES), "\n".join(violations(TREES))


@pytest.mark.parametrize("source, found", [
    ("def factor(a):\n    return np.linalg.qr(a, mode='r')\n", ["m.py:2 factor: QR factorization"]),
    ("from numpy import linalg\n\ndef f(a):\n    return linalg.qr(a)\n",
     ["m.py:4 f: QR factorization"]),
    ("from numpy.linalg import qr\n", ["m.py:1 <module>: QR factorization"]),
    ("class C:\n    def g(self, a):\n        return np.linalg.qr(a)\n",
     ["m.py:3 g: QR factorization"]),
    ("def f(a):\n    return np.linalg.eigh(a), a.qr\n", []),
    ("def factor_distance(a, b):\n    return 0.0\n", ["m.py:1 defines factor_distance"]),
    ("from .numerics import factor_distance\n", ["m.py:1 imports factor_distance"]),
    ("from .numerics import (\n    frob,\n    factor_distance,\n)\n",
     ["m.py:1 imports factor_distance"]),
], ids=["thin-qr", "linalg-module", "imported-qr", "method", "not-a-qr",
        "defines-factor-distance", "imports-factor-distance", "imports-among-others"])
def test_a_violation_is_reported(source, found):
    assert violations({"m.py": ast.parse(source)}) == found


@pytest.mark.parametrize("module, found", [
    ("numerics.py", []), ("zoo.py", ["zoo.py:2 random_unitary: QR factorization"]),
], ids=["numerics", "elsewhere"])
def test_the_haar_draw_is_allowed_only_in_numerics(module, found):
    source = "def random_unitary(dim):\n    return np.linalg.qr(g)\n"
    assert violations({module: ast.parse(source)}) == found
