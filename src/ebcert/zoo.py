"""Generators for the channel families used as fixtures and CLI outputs.

All generators are pure and seed-deterministic.  Entrywise-product (Schur)
channels and their complements come with the Gram data that produced them so
tests can round-trip the pair; the projection-Choi sampler produces generic
instances by operator Sinkhorn scaling and can plant entanglement-breaking
ones on request: a generic one with m >= 3 is not entanglement breaking,
while every projection-Choi channel with m = 2 is.  In 2 x 2 output blocks
J = [[A, B], [B*, C]] of n x n matrices, Tr_out J = I gives A + C = I, and
J^2 = J then gives AB = BA and BB* = B*B = A - A^2; so A, B and B* commute
and share an orthonormal eigenbasis e_k, in which each 2 x 2 block
[[a_k, b_k], [conj(b_k), 1 - a_k]] has trace 1 and determinant 0: a rank-one
projection chi_k chi_k*, so J = sum_k (e_k e_k*) (x) (chi_k chi_k*) has n
product terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    CPMap,
    KrausChannel,
    complement_from_kraus,
    minimal_kraus,
    redilate,
)
from .errors import (
    ConstructionFailure,
    DimensionMismatch,
    InvalidCorrelation,
    NotUnitVector,
)
from .numerics import (
    DEFAULT_TOL,
    MAX_RESAMPLE,
    ToleranceConfig,
    as_hermitian,
    as_matrix,
    eigh_descending,
    frob,
    hermitian_eig,
    random_isometry,
    random_unitary,
)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Positive semidefinite matrix with unit diagonal."""

    matrix: np.ndarray

    @classmethod
    def from_vectors(cls, vectors, tol: ToleranceConfig = DEFAULT_TOL) -> "CorrelationMatrix":
        """The Gram matrix of unit vectors given as columns."""
        cols = _unit_columns(vectors, tol)
        return cls(matrix=cols.conj().T @ cols)

    def validate(self, tol: ToleranceConfig = DEFAULT_TOL) -> None:
        c = as_matrix(self.matrix)
        if c.shape[0] != c.shape[1]:
            raise InvalidCorrelation("correlation matrix must be square")
        evals = eigh_descending(as_hermitian(c, tol), vectors=False)
        if evals.size and evals[-1] < -tol.eps_verify * max(1.0, evals[0]):
            raise InvalidCorrelation(f"negative eigenvalue {evals[-1]:.3e}")
        diag_err = float(np.max(np.abs(np.diagonal(c) - 1.0)))
        if diag_err > tol.eps_verify:
            raise InvalidCorrelation(f"diagonal deviates from one by {diag_err:.3e}")


def _unit_columns(vectors, tol: ToleranceConfig) -> np.ndarray:
    """The vectors as matrix columns, each of unit norm within eps_verify;
    raises NotUnitVector with the first index that is not."""
    arr = np.asarray(vectors, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if isinstance(vectors, (list, tuple)):
        arr = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in vectors])
    norms = np.linalg.norm(arr, axis=0)
    off = np.flatnonzero(np.abs(norms - 1.0) > tol.eps_verify)
    if off.size:
        raise NotUnitVector(int(off[0]), float(norms[off[0]]))
    return arr


def random_correlation(n: int, k: int, seed, tol: ToleranceConfig = DEFAULT_TOL) -> CorrelationMatrix:
    """Gram matrix of n normalized complex Gaussian vectors in k dimensions;
    its rank is min(n, k) almost surely."""
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    cols /= np.linalg.norm(cols, axis=0)
    return CorrelationMatrix.from_vectors(cols, tol)


def gram_vectors(corr: CorrelationMatrix | np.ndarray,
                 tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Rank-truncated Gram factor: columns g_i with <g_i, g_j> equal to the
    correlation entries, obtained from the Hermitian eigendecomposition."""
    c = corr.matrix if isinstance(corr, CorrelationMatrix) else as_matrix(corr)
    evals, evecs = hermitian_eig(c, tol)
    keep = evals > tol.eps_rank * max(evals[0], tol.eps_rank)
    lam = evals[keep]
    u = evecs[:, keep]
    return (np.sqrt(lam)[:, None]) * u.conj().T


def schur_channel(corr: CorrelationMatrix | np.ndarray,
                  tol: ToleranceConfig = DEFAULT_TOL) -> KrausChannel:
    """Entrywise-product channel X -> X o C for a correlation matrix C.

    Kraus operators are the diagonal matrices carrying the conjugated rows
    of a Gram factor of C, so their count is the rank of C; the channel is
    unital and trace preserving because the diagonal of C is one."""
    cm = corr if isinstance(corr, CorrelationMatrix) else CorrelationMatrix(as_matrix(corr))
    cm.validate(tol)
    factor = gram_vectors(cm, tol)
    ops = [np.diag(factor[i, :].conj()) for i in range(factor.shape[0])]
    return KrausChannel(ops, tol)


def schur_complement_channel(vectors, tol: ToleranceConfig = DEFAULT_TOL) -> KrausChannel:
    """Channel with rank-one Kraus operators u_k e_k*: it reads the k-th
    diagonal entry of the input and emits it on the state u_k.  Its Choi
    matrix is the projection sum_k E_kk (x) u_k u_k* of rank n, and it is the
    complement of the entrywise-product channel of the Gram matrix of the
    conjugated vectors."""
    cols = _unit_columns(vectors, tol)
    m, n = cols.shape
    ops = np.zeros((n, m, n), dtype=complex)
    ops[np.arange(n), :, np.arange(n)] = cols.T
    return KrausChannel(ops, tol)


def random_schur_complement_channel(n: int, m: int, seed,
                                    tol: ToleranceConfig = DEFAULT_TOL) -> KrausChannel:
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    cols /= np.linalg.norm(cols, axis=0)
    return schur_complement_channel(cols, tol)


def werner_holevo(d: int, tol: ToleranceConfig = DEFAULT_TOL) -> KrausChannel:
    """Channel X -> (tr(X) I + X^T) / (d + 1) on d x d matrices.

    Its Choi matrix is (I + SWAP) / (d + 1): twice the projection onto the
    symmetric subspace divided by d + 1, hence a scaled projection with
    scalar 2 / (d + 1) and rank d (d + 1) / 2.  The Kraus operators are the
    symmetric matrices E_ii sqrt(2 / (d + 1)) and (E_ij + E_ji) / sqrt(d + 1)
    for i < j, in row-major order of (i, j): vectorized, an orthogonal basis
    of that range, each of squared norm 2 / (d + 1)."""
    if d < 2:
        raise DimensionMismatch("transpose-plus-trace channel needs dimension at least 2")
    rows, cols = np.triu_indices(d)
    ops = np.zeros((len(rows), d, d))
    index = np.arange(len(rows))
    scale = np.sqrt(np.where(rows == cols, 2.0, 1.0) / (d + 1))
    ops[index, rows, cols] = ops[index, cols, rows] = scale
    return KrausChannel(ops, tol)


def depolarizing(n: int, tol: ToleranceConfig = DEFAULT_TOL) -> KrausChannel:
    """Completely depolarizing channel X -> tr(X) I / n, with the scaled
    matrix units as Kraus operators; its Choi matrix is I / n."""
    if n < 1:
        raise DimensionMismatch("dimension must be at least 1")
    return KrausChannel(np.eye(n * n).reshape(n * n, n, n) / np.sqrt(n), tol)


def identity_channel(n: int, tol: ToleranceConfig = DEFAULT_TOL) -> KrausChannel:
    return KrausChannel([np.eye(n, dtype=complex)], tol)


def random_channel(n: int, m: int, d: int, seed,
                   tol: ToleranceConfig = DEFAULT_TOL) -> KrausChannel:
    """Random channel with d Kraus operators, sliced from a Haar isometry
    into the output space tensored with a d-dimensional environment; trace
    preservation is exact by construction."""
    if m * d < n:
        raise DimensionMismatch(f"no isometry from dimension {n} into {m}x{d}")
    return KrausChannel(random_isometry(m * d, n, seed).reshape(d, m, n), tol)


# Scaling rounds per draw: generic draws converge linearly, in a few dozen
# rounds when m is near n but in thousands when m = 2 and n is large.
_SCALING_ITERATIONS = 20000


def random_projection_choi_channel(n: int, m: int, seed,
                                   tol: ToleranceConfig = DEFAULT_TOL,
                                   ensure_eb: bool = False) -> KrausChannel:
    """Random channel whose Choi matrix is a projection (necessarily of rank
    n).

    Such channels are exactly the complements of unital channels on n x n
    matrices.  The generic sampler draws m complex Gaussian n x n operators
    L_a and scales them alternately to sum L_a* L_a = I and
    sum L_a L_a* = I (operator Sinkhorn scaling) until the second holds to
    well below eps_verify; the complement of {L_a} is then trace preserving
    with trace-orthonormal Kraus operators.  Generic samples with m >= 3 are
    almost surely *not* entanglement breaking; every sample with m = 2 is,
    with rank n: its 2 x 2 output blocks commute and split J into n rank-one
    product terms (proof in the module docstring).
    ``ensure_eb`` instead plants a unitarily twirled rank-one Kraus channel,
    entanglement breaking by construction, so both kinds of instance are
    available for certifier testing.  Every check made while generating,
    the planted base's included, runs at ``tol``.
    """
    if n < 1 or m < 1:
        raise DimensionMismatch("dimensions must be at least 1")
    if ensure_eb:
        base = random_schur_complement_channel(
            n, m, np.random.SeedSequence([int(seed), 0x9C01, 0]), tol)
        outer = random_unitary(m, np.random.SeedSequence([int(seed), 0x9C01, 1]))
        inner = random_unitary(n, np.random.SeedSequence([int(seed), 0x9C01, 2]))
        return internal_twirl(external_twirl(base, outer, tol), inner, tol)

    target = min(1e-13, tol.eps_verify / 100.0)
    eye_n = np.eye(n)
    for restart in range(MAX_RESAMPLE):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x9C01, 3 + restart]))
        ops = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        for _ in range(_SCALING_ITERATIONS):
            rows = ops.reshape(m * n, n)
            ops = ops @ _inverse_sqrt(rows.conj().T @ rows)
            wide = ops.transpose(1, 0, 2).reshape(n, m * n)
            gram = wide @ wide.conj().T
            if frob(gram - eye_n) <= target:
                return complement_from_kraus(ops, tol)
            ops = _inverse_sqrt(gram) @ ops
    raise ConstructionFailure(
        f"operator scaling stalled after {MAX_RESAMPLE} restarts"
    )


def _inverse_sqrt(gram: np.ndarray) -> np.ndarray:
    """Inverse square root of a positive definite matrix."""
    evals, evecs = np.linalg.eigh(gram)
    return (evecs / np.sqrt(evals)) @ evecs.conj().T


def external_twirl(channel: CPMap, unitary, tol: ToleranceConfig = DEFAULT_TOL) -> CPMap:
    """Conjugate the output:  X -> U F(X) U*."""
    return channel.with_kraus(as_matrix(unitary) @ channel.kraus, tol)


def internal_twirl(channel: CPMap, unitary, tol: ToleranceConfig = DEFAULT_TOL) -> CPMap:
    """Rotate the input:  X -> F(V X V*)."""
    return channel.with_kraus(channel.kraus @ as_matrix(unitary), tol)


def permute_kraus(channel: CPMap, order, tol: ToleranceConfig = DEFAULT_TOL) -> CPMap:
    """Reorder the Kraus list; the represented map is unchanged."""
    if sorted(order) != list(range(len(channel))):
        raise ValueError("order must be a permutation of the Kraus indices")
    return channel.with_kraus(channel.kraus[list(order)], tol)


def redilate_fixture(channel: CPMap, length: int, seed,
                     tol: ToleranceConfig = DEFAULT_TOL) -> CPMap:
    """Equivalent presentation of the channel with ``length`` Kraus
    operators: the minimal set pushed through a random isometry.  Exercises
    invariance of downstream results under the choice of Kraus
    presentation."""
    minimal = minimal_kraus(channel, tol)
    if length < len(minimal):
        raise DimensionMismatch(
            f"cannot present a Choi-rank-{len(minimal)} channel with {length} operators"
        )
    return redilate(minimal, random_isometry(length, len(minimal), seed), tol)
