"""The benchmark's traced run wraps program names from outside ``src/`` and
its replays call program stages by name.  Removing one of them from the
program would only break that traced run; these tests make it break here.
"""

import ast
import sys
from importlib import import_module
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))

import bench_trace  # noqa: E402

MODULES = ("algebra", "certify", "channel", "cli", "zoo")


def test_spanned_functions_resolve():
    missing = [f"{module.__name__}.{name}"
               for module, names in bench_trace.SPANNED.items()
               for name in names if not callable(getattr(module, name, None))]
    assert not missing


def test_patched_methods_resolve():
    assert callable(getattr(import_module("ebcert.algebra").MatrixAlgebra, "check_invariants", None))
    assert callable(getattr(import_module("ebcert.channel").CPMap, "apply", None))


def test_workload_calls_resolve():
    # every call of the form <module>.<name>(...) in the workloads, the
    # replays among them
    tree = ast.parse((BENCH / "bench_workloads.py").read_text(encoding="utf-8"))
    calls = {(node.func.value.id, node.func.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id in MODULES}
    assert ("algebra", "multiplicative_domain") in calls
    missing = [f"ebcert.{module}.{name}" for module, name in sorted(calls)
               if not callable(getattr(import_module(f"ebcert.{module}"), name, None))]
    assert not missing
