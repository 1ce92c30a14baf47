"""Dense complex-matrix substrate: factorizations, rank decisions, the
vectorization convention, and seeded randomness.

Every tolerance decision in the package flows through :class:`ToleranceConfig`.

Vectorization convention
------------------------
``vec`` stacks matrix **columns**: ``vec([[a, b], [c, d]]) = (a, c, b, d)``.
Under this convention ``vec(A X B) = kron(B.T, A) @ vec(X)``, and the block
matrix built from ``vec`` outer products agrees entry-for-entry with the
Kronecker layout used everywhere else in the package.  The row-stacking
convention is never used.
"""

from __future__ import annotations

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
    max_resample  retry budget for generic-element draws
    """

    eps_rank: float = 1e-10
    eps_eig: float = 1e-8
    eps_verify: float = 1e-8
    seed: int = 0
    max_resample: int = 8

    def __post_init__(self):
        for name in ("eps_rank", "eps_eig", "eps_verify"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.max_resample < 1:
            raise ValueError("max_resample must be at least 1")

    def rng(self, *salt: int) -> np.random.Generator:
        """Deterministic generator derived from the master seed and a salt."""
        return np.random.default_rng(np.random.SeedSequence([int(self.seed), *map(int, salt)]))


DEFAULT_TOL = ToleranceConfig()


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


def hermitian_residual(a: np.ndarray) -> float:
    return frob(a - a.conj().T)


def as_hermitian(a, tol: ToleranceConfig | None = None) -> np.ndarray:
    """Coerce to a square complex matrix within the Hermitian residual
    bound eps_verify (1 + |a|); raises NotHermitian otherwise."""
    t = _tol(tol)
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NotHermitian(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    if hermitian_residual(a) > t.eps_verify * (1.0 + frob(a)):
        raise NotHermitian(f"Hermitian residual {hermitian_residual(a):.3e} above tolerance")
    return a


def hermitian_eig(a, tol: ToleranceConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in descending order and the matching orthonormal
    eigenvector columns, each phase-fixed so its largest-modulus entry is
    real positive.  Raises NotHermitian when the input fails the Hermitian
    residual bound, ConvergenceFailure when the dense solver gives up.
    """
    a = as_hermitian(a, tol)
    try:
        evals, evecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    order = np.argsort(evals)[::-1]
    return evals[order], phase_fix(evecs[:, order].T).T


def factor_distance(a, b) -> float:
    """Frobenius distance |A A* - B B*| between the products of two factors
    with one row count, without forming either product.  With a thin QR
    [A B] = Q [R1 R2] the distance is |R1 R1* - R2 R2*|.  The shorter route
    through Gram traces, |A* A|^2 + |B* B|^2 - 2 |A* B|^2, cancels to
    rounding noise near eps_verify and is not used."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"factors have {a.shape[0]} and {b.shape[0]} rows")
    r = np.linalg.qr(np.hstack([a, b]), mode="r")
    r1, r2 = r[:, :a.shape[1]], r[:, a.shape[1]:]
    return frob(r1 @ r1.conj().T - r2 @ r2.conj().T)


def singular_values(a) -> np.ndarray:
    a = as_matrix(a)
    if a.size == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def numerical_rank(a, tol: ToleranceConfig | None = None) -> int:
    """Count of singular values above the relative cutoff.

    Rank is 0 whenever the largest singular value itself is below eps_rank;
    otherwise singular values are compared against eps_rank * sigma_max, so
    the decision is stable under overall scaling.
    """
    t = _tol(tol)
    s = singular_values(a)
    if s.size == 0 or s[0] <= t.eps_rank:
        return 0
    return int(np.sum(s > t.eps_rank * s[0]))


def nullspace(a, tol: ToleranceConfig | None = None,
              cutoff: float | None = None) -> np.ndarray:
    """Orthonormal basis of the right null space, as matrix columns.

    Singular values at or below ``cutoff`` count as zero; the default is the
    relative rule of :func:`numerical_rank`.
    """
    t = _tol(tol)
    a = as_matrix(a)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    if cutoff is None:
        cutoff = t.eps_rank * s[0] if s.size and s[0] > t.eps_rank else np.inf
    return vh[int(np.sum(s > cutoff)):].conj().T


def vec(a) -> np.ndarray:
    """Column-stacking vectorization (see module docstring)."""
    return as_matrix(a).reshape(-1, order="F")


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for a rows x cols matrix."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != rows * cols:
        raise DimensionMismatch(f"vector of length {v.size} cannot fill a {rows}x{cols} matrix")
    return v.reshape((rows, cols), order="F")


def phase_fix(v: np.ndarray) -> np.ndarray:
    """Rotate a vector, or each row of a stack of vectors, by a global phase
    so its largest-modulus entry is real positive.  Zero vectors are
    returned unchanged."""
    v = np.asarray(v, dtype=complex)
    pivots = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
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
    of the basis.  H lies in the span whenever the span is closed under
    adjoints."""
    mats = [as_matrix(b) for b in basis]
    if not mats:
        raise ValueError("basis must be nonempty")
    shape = mats[0].shape
    if shape[0] != shape[1] or any(m.shape != shape for m in mats):
        raise DimensionMismatch("basis matrices must share one square shape")
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(len(mats))
    g = sum(c * m for c, m in zip(coeffs, mats))
    return g + g.conj().T


def orthonormal_matrix_basis(mats, tol: ToleranceConfig | None = None) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of the span of the given matrices."""
    mats = [as_matrix(m) for m in mats]
    if not mats:
        return []
    rows, cols = mats[0].shape
    stacked = np.column_stack([vec(m) for m in mats])
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    t = _tol(tol)
    if s.size == 0 or s[0] <= t.eps_rank:
        return []
    rank = int(np.sum(s > t.eps_rank * s[0]))
    return [unvec(u[:, k], rows, cols) for k in range(rank)]
