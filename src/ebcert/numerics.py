"""Dense complex-matrix substrate: factorizations, rank decisions, the
vectorization convention, and seeded randomness.

Every tolerance decision in the package flows through :class:`ToleranceConfig`.

Vectorization convention
------------------------
``vec`` stacks matrix **columns**: ``vec([[a, b], [c, d]]) = (a, c, b, d)``.
Under this convention ``vec(A X B) = kron(B.T, A) @ vec(X)``, and the block
matrix built from ``vec`` outer products agrees entry-for-entry with the
Kronecker layout used everywhere else in the package; inner products of
operators read a stack flattened as stored.  ``vec`` and ``unvec`` also map
an (s, rows, cols) stack of matrices to the (s, rows cols) stack of their
vec's and back, so this module is the only place that spells it out.

Complex arrays are written to JSON as nested lists of ``[re, im]`` pairs
(:func:`to_pairs`, :func:`from_pairs`), integer fields are read with
:func:`json_int`, and every document is written by :func:`write_json`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds and the RNG seed threaded through every operation.

    eps_rank      relative singular-value cutoff for rank decisions
    eps_eig       eigenvalue clustering radius
    eps_verify    residual norm bound for equality checks
    seed          master seed for all randomized operations
    """

    eps_rank: float = 1e-10
    eps_eig: float = 1e-8
    eps_verify: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("eps_rank", "eps_eig", "eps_verify"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def rng(self, *salt: int) -> np.random.Generator:
        """Deterministic generator derived from the master seed and a salt."""
        return np.random.default_rng(np.random.SeedSequence([int(self.seed), *map(int, salt)]))


DEFAULT_TOL = ToleranceConfig()

# retry budget for generic-element draws
MAX_RESAMPLE = 8


def _tol(tol: ToleranceConfig | None) -> ToleranceConfig:
    return DEFAULT_TOL if tol is None else tol


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting NaN and infinity."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of dimension {m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def as_matrix_stack(a, dim: int) -> np.ndarray:
    """Coerce to one dim x dim complex matrix, or to an (s, dim, dim) stack
    of them, rejecting other shapes, NaN and infinity."""
    m = np.asarray(a, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (dim, dim):
        raise DimensionMismatch(f"argument is {m.shape}, expected {dim}x{dim} matrices")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def frob_each(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack."""
    return np.linalg.norm(a, axis=(-2, -1))


def as_hermitian(a, tol: ToleranceConfig | None = None) -> np.ndarray:
    """Coerce one square complex matrix, or an (s, d, d) stack of them, each
    within the Hermitian residual bound eps_verify (1 + |a|); raises
    NotHermitian otherwise."""
    t = _tol(tol)
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3):
        raise DimensionMismatch(f"expected a matrix or a stack of them, got dimension {a.ndim}")
    if a.shape[-2] != a.shape[-1]:
        raise NotHermitian(f"matrix is {a.shape[-2]}x{a.shape[-1]}, not square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    residual = np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))
    bad = residual > t.eps_verify * (1.0 + np.linalg.norm(a, axis=(-2, -1)))
    if np.any(bad):
        raise NotHermitian(f"Hermitian residual {float(np.max(residual[bad])):.3e} above tolerance")
    return a


def hermitian_eig(a, tol: ToleranceConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of an
    (s, d, d) stack.

    Returns eigenvalues in descending order and the matching orthonormal
    eigenvector columns, each phase-fixed so its largest-modulus entry is
    real positive.  Raises NotHermitian when the input fails the Hermitian
    residual bound, ConvergenceFailure when the dense solver gives up.
    """
    evals, evecs = eigh_descending(as_hermitian(a, tol))
    # phase_fix works on rows, so the eigenvectors are fixed as rows
    return evals, phase_fix(evecs.swapaxes(-1, -2)).swapaxes(-1, -2)


def eigh_descending(a: np.ndarray, vectors: bool = True):
    """Eigendecomposition of a matrix, or of each matrix of a stack, that is
    Hermitian by construction, such as a Gram matrix: eigenvalues in
    descending order and the matching eigenvector columns, with the phases
    the dense solver leaves; with ``vectors`` False, the eigenvalues alone.
    Only finiteness is checked, no Hermitian residual; raises
    ConvergenceFailure when the solver gives up."""
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    try:
        if not vectors:
            return np.linalg.eigvalsh(a)[..., ::-1]
        evals, evecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    # eigh returns ascending eigenvalues, so reversing gives the descending order
    return evals[..., ::-1], evecs[..., ::-1]


def factor_distance(a, b) -> float:
    """Frobenius distance |A A* - B B*| between the products of two factors
    with one row count, without forming either product.  With a thin QR
    [A B] = Q [R1 R2] the distance is |R1 R1* - R2 R2*|.  The shorter route
    through Gram traces, |A* A|^2 + |B* B|^2 - 2 |A* B|^2, cancels to
    rounding noise near eps_verify and is not used.  The normal form's Choi
    anchor uses it, and the tests take it as the reference for a
    certificate's ``choi_match``, which the certifier measures in the
    eigenbasis of the Choi spectrum instead."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"factors have {a.shape[0]} and {b.shape[0]} rows")
    r = np.linalg.qr(np.hstack([a, b]), mode="r")
    r1, r2 = r[:, :a.shape[1]], r[:, a.shape[1]:]
    return frob(r1 @ r1.conj().T - r2 @ r2.conj().T)


def relative_rank(values: np.ndarray, tol: ToleranceConfig | None = None) -> int:
    """Count of the entries of a descending array of singular values or
    eigenvalues above the relative cutoff.

    Rank is 0 whenever the largest entry itself is at most eps_rank;
    otherwise entries are compared against eps_rank times the largest, so
    the decision is stable under overall scaling.
    """
    t = _tol(tol)
    if values.size == 0 or values[0] <= t.eps_rank:
        return 0
    return int(np.sum(values > t.eps_rank * values[0]))


def numerical_rank(a, tol: ToleranceConfig | None = None) -> int:
    """Matrix rank at the relative cutoff of :func:`relative_rank`."""
    a = as_matrix(a)
    return relative_rank(np.linalg.svd(a, compute_uv=False) if a.size else np.zeros(0), tol)


def nullspace(a, tol: ToleranceConfig | None = None,
              cutoff: float | None = None) -> np.ndarray:
    """Orthonormal basis of the right null space, as matrix columns.

    Singular values at or below ``cutoff`` count as zero; the default is the
    relative rule of :func:`relative_rank`.
    """
    a = as_matrix(a)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank = relative_rank(s, tol) if cutoff is None else int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def vec(a) -> np.ndarray:
    """Column-stacking vectorization (see module docstring) of one matrix,
    or of each matrix of a stack."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2:
        raise DimensionMismatch(f"expected a matrix or a stack of them, got dimension {a.ndim}")
    return a.swapaxes(-1, -2).reshape(*a.shape[:-2], -1)


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`: one rows x cols matrix from a vector, or an
    (s, rows, cols) stack from the rows of an (s, rows cols) array."""
    v = np.asarray(v, dtype=complex)
    if v.ndim not in (1, 2) or v.shape[-1] != rows * cols:
        raise DimensionMismatch(f"array of shape {v.shape} cannot fill {rows}x{cols} matrices")
    return v.reshape(*v.shape[:-1], cols, rows).swapaxes(-1, -2)


def phase_fix(v: np.ndarray) -> np.ndarray:
    """Rotate a vector, or each row of a stack of vectors, by a global phase
    so its largest-modulus entry is real positive.  Zero vectors are
    returned unchanged."""
    v = np.asarray(v, dtype=complex)
    flat = v.reshape(-1, v.shape[-1])
    pivots = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=1)].reshape(*v.shape[:-1], 1)
    # np.hypot, unlike np.abs on an array, matches the scalar abs bit for bit
    moduli = np.hypot(pivots.real, pivots.imag)
    return v * np.divide(moduli, pivots, out=np.ones_like(pivots), where=moduli > 0)


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    if dim < 1:
        raise DimensionMismatch("dimension must be at least 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_isometry(rows: int, cols: int, seed) -> np.ndarray:
    """First cols columns of a Haar unitary; satisfies W* W = I."""
    if cols > rows:
        raise DimensionMismatch(f"no isometry from dimension {cols} into dimension {rows}")
    return random_unitary(rows, seed)[:, :cols]


def random_hermitian_in_span(basis, seed) -> np.ndarray:
    """Random Hermitian element H = G + G* with G a real-Gaussian combination
    of an (r, d, d) basis stack.  H lies in the span whenever the span is
    closed under adjoints."""
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 3 or len(basis) == 0:
        raise ValueError("basis must be a nonempty stack of matrices")
    if basis.shape[1] != basis.shape[2]:
        raise DimensionMismatch("basis matrices must share one square shape")
    rng = np.random.default_rng(seed)
    g = np.tensordot(rng.standard_normal(len(basis)), basis, axes=1)
    return g + g.conj().T


# ---------------------------------------------------------------------------
# JSON codec: a complex array as nested lists of [re, im] pairs
# ---------------------------------------------------------------------------

def to_pairs(a) -> list:
    """Nested lists of [re, im] pairs in the shape of the array."""
    return np.stack([np.real(a), np.imag(a)], axis=-1).tolist()


def write_json(fh, obj) -> None:
    """Write one JSON document as a single compact line.  ``json.dumps``
    without ``indent`` is the one call that reaches the C encoder;
    ``json.dump`` and any ``indent`` run the pure-Python one.  The documents
    are trees the package builds itself, never self-referencing, so the
    circular-reference check is skipped; the bytes are those of the default."""
    fh.write(json.dumps(obj, check_circular=False) + "\n")


def json_int(value, name: str) -> int:
    """An integer field of JSON data: ints and integral floats pass; bools,
    fractional numbers and anything else raise ValueError."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def from_pairs(raw, shape) -> np.ndarray:
    """Inverse of :func:`to_pairs`: the complex array of the given shape, a
    None entry leaving that axis free.  Raises ValueError for entries that
    are not finite numbers and DimensionMismatch for any other shape."""
    want = (*shape, 2)
    count = "" if None in shape else f"{math.prod(shape)} "
    expected = f"expected {count}[re, im] pairs in shape {want}"
    try:
        pairs = np.array(raw)
    except ValueError as exc:  # ragged nesting
        raise DimensionMismatch(f"matrix data is ragged, {expected}") from exc
    if pairs.dtype.kind not in "iuf":
        raise ValueError("matrix data must be nested lists of [re, im] numbers")
    if pairs.ndim != len(want) or any(w not in (None, g) for w, g in zip(want, pairs.shape)):
        raise DimensionMismatch(f"matrix data has shape {pairs.shape}, {expected}")
    pairs = pairs.astype(float)
    if not np.all(np.isfinite(pairs)):
        raise ValueError("matrix entries must be finite")
    # each [re, im] pair reinterpreted as one complex number
    return pairs.view(complex)[..., 0]
