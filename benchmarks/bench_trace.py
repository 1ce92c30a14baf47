"""Spans and counters for the traced run.

The tracer wraps public functions of the ebcert modules, two methods and
numpy's dense factorizations from outside the package: it replaces the
module attributes while installed and restores them afterwards, so nothing
under ``src/`` changes.  Spans stay in memory and are written out when the
run ends.  Each span records its name, start, end, parent span and op id; a
span opened in a worker thread with no open span of its own takes the
current phase span as its parent.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from importlib import import_module

import numpy as np

import ebcert

# the package rebinds ``ebcert.certify`` to the function, so modules are
# looked up by name
algebra, certify, channel, cli, zoo = (
    import_module(f"ebcert.{name}") for name in ("algebra", "certify", "channel", "cli", "zoo"))

# public functions whose calls become spans named "<module>.<function>"
SPANNED = {
    channel: ("choi", "minimal_kraus", "complement_adjoint",
              "classify_complement_adjoint", "load_channel"),
    algebra: ("multiplicative_domain", "center", "structure", "rank_one_resolution"),
    certify: ("certify", "verify_eb_witness", "verify_certificate", "is_ppt", "eb_rank"),
}
NAMESPACES = (ebcert, channel, algebra, certify, cli, zoo)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op = None
        self.root = None
        self.counters = {"numerics.eigh_calls": 0, "numerics.eigh_s": 0.0,
                         "numerics.svd_calls": 0, "numerics.svd_s": 0.0,
                         "numerics.svd_max_elems": 0, "channel.apply_calls": 0}
        self.eigh_counts: dict[str, list[int]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.root
        record = [name, time.perf_counter(), None, parent, self.op]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    @contextmanager
    def phase(self, name: str):
        """Span that becomes the parent of spans opened in threads that have
        none of their own, such as the CLI's pool threads."""
        outer = self.root
        with self.span(name) as index:
            self.root = index
            try:
                yield index
            finally:
                self.root = outer

    @contextmanager
    def counting_span(self, name: str):
        """Span that also records the number of eigh calls made inside it
        in ``eigh_counts[name]``."""
        before = self.snapshot()["numerics.eigh_calls"]
        with self.span(name):
            yield
        calls = self.snapshot()["numerics.eigh_calls"] - before
        self.eigh_counts.setdefault(name, []).append(calls)

    # -- wrappers ---------------------------------------------------------
    def install(self) -> None:
        for module, names in SPANNED.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                original = getattr(module, name)
                self._replace(original, self._spanned(f"{short}.{name}", original))
        self._patch(algebra.MatrixAlgebra, "check_invariants",
                    self._spanned("algebra.check_invariants",
                                  algebra.MatrixAlgebra.check_invariants))
        self._patch(channel.CPMap, "apply", self._counted(channel.CPMap.apply))
        self._patch(np.linalg, "eigh", self._factorization("eigh", np.linalg.eigh))
        self._patch(np.linalg, "svd", self._factorization("svd", np.linalg.svd))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _replace(self, original, wrapper) -> None:
        """Rebind every module-level name that refers to ``original``, so
        calls between modules go through the wrapper too."""
        for ns in NAMESPACES:
            for name, value in list(vars(ns).items()):
                if value is original:
                    self._patch(ns, name, wrapper)

    def _spanned(self, span_name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(span_name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counters["channel.apply_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _factorization(self, kind: str, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.counters[f"numerics.{kind}_calls"] += 1
                    self.counters[f"numerics.{kind}_s"] += elapsed
                    if kind == "svd":
                        self.counters["numerics.svd_max_elems"] = max(
                            self.counters["numerics.svd_max_elems"], int(np.size(a)))
        return wrapper

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.counters)

    # -- analysis ---------------------------------------------------------
    def duration(self, index: int) -> float:
        _, start, end, _, _ = self.spans[index]
        return end - start

    def children(self, op) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for index, (_, _, _, parent, span_op) in enumerate(self.spans):
            if span_op == op and parent is not None:
                out.setdefault(parent, []).append(index)
        return out

    @staticmethod
    def descendants(root: int, children) -> list[int]:
        out, pending = [], list(children.get(root, []))
        while pending:
            index = pending.pop()
            out.append(index)
            pending.extend(children.get(index, []))
        return out

    def self_times(self, root: int, children) -> dict[str, float]:
        """Self time per span name below ``root``: a span's duration less
        the time its direct children cover.  Children running in parallel
        pool threads can cover more than their parent; the self time is then
        taken as zero."""
        totals: dict[str, float] = {}
        for index in self.descendants(root, children):
            own = self.duration(index) - sum(self.duration(k) for k in children.get(index, []))
            name = self.spans[index][0]
            totals[name] = totals.get(name, 0.0) + max(own, 0.0)
        return totals

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": n, "start": s, "end": e, "parent": p, "op": o}
                       for n, s, e, p, o in self.spans], fh)
            fh.write("\n")
