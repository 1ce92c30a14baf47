"""The benchmark's traced run wraps program names from outside ``src/`` and
its replays call program stages by name and read their results' attributes.
Removing or renaming one of them in the program would only break that traced
run; these tests make it break here.
"""

import ast
import sys
from importlib import import_module
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

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


@pytest.mark.parametrize("name", sorted(bench_workloads.WORKLOADS))
def test_workload_replays_run(name, tmp_path):
    # one item of each workload through the set-up, op, check and traced
    # replay that a traced run makes, with the tracer's wrappers installed
    workload = bench_workloads.WORKLOADS[name]
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        item = workload.setup(0, tmp_path, tracer)[0]
        output = workload.op(item)
        workload.check(item, output)
        values = workload.replay(item, output, tracer)
    finally:
        tracer.uninstall()
    assert "algebra.domain_dim" in values
    assert tracer.spans
