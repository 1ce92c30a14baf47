"""Output checks of the benchmark, computed apart from the program.

Every check starts from the raw Kraus data of the input and uses fresh numpy
code (its own Choi matrix, its own ranks, its own partial transpose), so a
wrong result of the program cannot hide behind the program's own
intermediates.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from ebcert.errors import NotEntanglementBreaking

TOL = 1e-8  # residual bound, relative to the natural scale of each quantity
PT_NEGATIVE = -1e-6  # a partial-transpose eigenvalue below this is a real violation


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def choi_of(kraus) -> np.ndarray:
    """sum_i vec(K_i) vec(K_i)* with column-stacked vec, input index major."""
    cols = np.stack([np.asarray(k, dtype=complex).reshape(-1, order="F") for k in kraus], axis=1)
    return cols @ cols.conj().T


def nonzero_eigenvalues(j: np.ndarray) -> np.ndarray:
    evals = np.linalg.eigvalsh(j)
    return evals[evals > TOL * max(evals[-1], TOL)]


def pt_min_eigenvalue(j: np.ndarray, n: int, m: int) -> float:
    """Smallest eigenvalue after transposing the input factor."""
    pt = np.einsum("aibj->biaj", j.reshape(n, m, n, m)).reshape(n * m, n * m)
    return float(np.linalg.eigvalsh(pt)[0])


def check_certificate(kraus_in, ops, n: int) -> None:
    """Rank-one operators that reproduce the input channel at its Choi rank."""
    j_in = choi_of(kraus_in)
    rank = nonzero_eigenvalues(j_in).size
    _require(rank == n, f"input Choi rank {rank}, expected {n}")
    _require(len(ops) == rank, f"{len(ops)} certificate operators for Choi rank {rank}")
    for i, op in enumerate(ops):
        s = np.linalg.svd(np.asarray(op, dtype=complex), compute_uv=False)
        _require(s[0] > TOL and s[1] <= TOL * s[0],
                 f"operator {i} is not rank one: singular values {s[:2]}")
    gram = sum(np.asarray(op).conj().T @ np.asarray(op) for op in ops)
    tp = float(np.linalg.norm(gram - np.eye(n)))
    _require(tp <= TOL, f"certificate operators not trace preserving: {tp:.3e}")
    mismatch = float(np.linalg.norm(choi_of(ops) - j_in))
    _require(mismatch <= TOL * max(1.0, n), f"certificate Choi mismatch {mismatch:.3e}")


def check_refutation(kraus_in, n: int, m: int, refusal) -> None:
    """A refutation of a projection-Choi channel with a negative partial
    transpose and a repeated tensor factor filling the Choi-rank space."""
    _require(isinstance(refusal, NotEntanglementBreaking),
             f"expected a refutation, got {type(refusal).__name__}")
    j = choi_of(kraus_in)
    idem = float(np.linalg.norm(j @ j - j))
    _require(idem <= TOL * max(1.0, n), f"input Choi matrix is not a projection: {idem:.3e}")
    rank = nonzero_eigenvalues(j).size
    _require(rank == n, f"input Choi rank {rank}, expected {n}")
    low = pt_min_eigenvalue(j, n, m)
    _require(low < PT_NEGATIVE, f"partial transpose is positive (min eigenvalue {low:.3e})")
    _require(refusal.ppt_violated is True, "refutation does not report the PPT violation")
    _require(any(i > 1 for i, _ in refusal.blocks), f"blocks {refusal.blocks} are multiplicity free")
    filled = sum(i * size for i, size in refusal.blocks)
    _require(filled == rank, f"blocks {refusal.blocks} fill {filled}, Choi rank is {rank}")


def check_scaled(kraus_in, expected_alpha: float, rank_report, adjoint_report) -> None:
    """Scaled-projection channel: the scalar from the Choi spectrum, the
    trace-stabilizing verdict with that scalar, and a cited rank."""
    nonzero = nonzero_eigenvalues(choi_of(kraus_in))
    alpha = float(np.mean(nonzero))
    spread = float(np.max(np.abs(nonzero - alpha)))
    _require(spread <= TOL, f"Choi spectrum is not a scaled projection: spread {spread:.3e}")
    _require(abs(alpha - expected_alpha) <= TOL, f"Choi scalar {alpha}, expected {expected_alpha}")
    _require(adjoint_report.kind.value == "trace_stabilizing",
             f"complement adjoint classified {adjoint_report.kind.value}")
    _require(adjoint_report.alpha is not None and abs(adjoint_report.alpha - alpha) <= TOL,
             f"complement adjoint scalar {adjoint_report.alpha}, Choi scalar {alpha}")
    _require(rank_report.classification == "scaled_projection",
             f"rank report classification {rank_report.classification}")
    _require(rank_report.status == "cited", f"rank status {rank_report.status}")
    _require(rank_report.value >= nonzero.size,
             f"rank {rank_report.value} below the Choi rank {nonzero.size}")


def read_channel_file(path) -> tuple[int, int, list[np.ndarray]]:
    """Kraus operators from a channel file: row-major lists of [re, im]."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    n, m = int(data["n"]), int(data["m"])
    ops = [np.array([complex(re, im) for re, im in op]).reshape(m, n) for op in data["kraus"]]
    return n, m, ops


def certificate_file_operators(path) -> list[np.ndarray]:
    """The operators u_i v_i* of a certificate file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))

    def vectors(raw):
        return [np.array([complex(re, im) for re, im in v]) for v in raw]

    return [np.outer(u, v.conj()) for u, v in zip(vectors(data["u"]), vectors(data["v"]))]


def json_documents(text: str) -> list[dict]:
    """The JSON objects printed one after another by the CLI."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)


def check_cli_batch(paths, codes, stdout: str) -> None:
    """`analyze` then `certify` over the same files: exit codes, the
    multiplicity-free structure, and each written certificate file."""
    _require(list(codes) == [0, 0], f"exit codes {list(codes)}")
    docs = json_documents(stdout)
    _require(len(docs) == 2 * len(paths), f"{len(docs)} reports for {len(paths)} files")
    analyses, certs = docs[:len(paths)], docs[len(paths):]
    for path, analysis, report in zip(paths, analyses, certs):
        n, _, kraus = read_channel_file(path)
        rank = nonzero_eigenvalues(choi_of(kraus)).size
        _require(analysis.get("file") == str(path) and report.get("file") == str(path),
                 f"reports out of input order at {path}")
        algebra = analysis.get("algebra")
        _require(algebra is not None, f"{path}: analyze reports no multiplicative domain")
        blocks = algebra["blocks"]
        _require(algebra["multiplicity_free"] and all(i == 1 for i, _ in blocks),
                 f"{path}: structure {blocks} is not multiplicity free")
        _require(sum(i * size for i, size in blocks) == rank,
                 f"{path}: blocks {blocks} do not fill the Choi rank {rank}")
        _require("certificate_file" in report, f"{path}: certify wrote no certificate")
        check_certificate(kraus, certificate_file_operators(report["certificate_file"]), n)
