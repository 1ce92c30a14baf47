"""Multiplicative domains as concrete matrix *-algebras and their canonical
block decomposition.

The multiplicative domain of a unital trace-preserving CP map F is the set of
A with F(AX) = F(A)F(X) and F(XA) = F(X)F(A) for all X.  For such maps it
coincides with the fixed-point space of the composition dual(F) o F, which is
what gets computed here: the null space of (M - I) for the transfer matrix M
of that composition.  Because that equality is a cited fact rather than one
this package re-derives, every computed domain is post-verified against the
defining bilinear conditions and the adjoint-product criterion
F(A A*) = F(A) F(A*); a verified failure is reported, never accepted.

A unital *-subalgebra of d x d matrices is unitarily equivalent to a direct
sum of blocks, each a full matrix algebra of size j_k repeated with
multiplicity i_k.  The structure pass recovers the multiset {(i_k, j_k)} from
eigenvalue clustering of a generic central element; it is multiplicity-free
exactly when every i_k = 1, which is when the algebra contains rank-one
projections summing to the identity.

Both the center and span membership are solved in the algebra's own
coefficient space (see :func:`center`), never with d^2 x d^2 operators such
as the commutator actions of the commutant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CPMap
from .errors import (
    NotMultiplicityFree,
    NotUnitalOrNotTP,
    ResampleExhausted,
    StructureInconsistency,
    VerificationFailure,
)
from .numerics import (
    ToleranceConfig,
    _tol,
    as_matrix,
    frob,
    hermitian_eig,
    nullspace,
    numerical_rank,
    orthonormal_matrix_basis,
    phase_fix,
    random_hermitian_in_span,
    unvec,
)


@dataclass(frozen=True)
class MatrixAlgebra:
    """Unital *-subalgebra of d x d matrices, held as a Frobenius-orthonormal
    basis of its span."""

    ambient_dim: int
    basis: tuple[np.ndarray, ...]
    contains_identity: bool

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, x, tol: ToleranceConfig | None = None) -> bool:
        t = _tol(tol)
        m = as_matrix(x)
        scale = max(1.0, frob(m))
        return float(_span_residuals(np.stack(self.basis), m[None])[0]) <= t.eps_verify * scale

    @classmethod
    def from_span(cls, mats, tol: ToleranceConfig | None = None) -> "MatrixAlgebra":
        t = _tol(tol)
        basis = orthonormal_matrix_basis(mats, t)
        if not basis:
            raise ValueError("span is empty")
        d = basis[0].shape[0]
        if basis[0].shape != (d, d):
            raise ValueError("algebra elements must be square")
        eye_res = float(_span_residuals(np.stack(basis), np.eye(d)[None])[0])
        has_identity = eye_res <= t.eps_verify * math.sqrt(d)
        alg = cls(ambient_dim=d, basis=tuple(basis), contains_identity=has_identity)
        alg.check_invariants(t)
        return alg

    def check_invariants(self, tol: ToleranceConfig | None = None) -> None:
        """Assert *-closure, multiplicative closure, and identity membership
        of the span, all at eps_verify: every adjoint and every product of
        basis elements, the products batched one left factor at a time."""
        t = _tol(tol)
        stack = np.stack(self.basis)
        res = float(np.max(_span_residuals(stack, stack.conj().transpose(0, 2, 1))))
        if res > t.eps_verify:
            raise VerificationFailure(f"span is not *-closed, residual {res:.3e}")
        for a in self.basis:
            res = float(np.max(_span_residuals(stack, a @ stack)))
            if res > t.eps_verify:
                raise VerificationFailure(
                    f"span is not multiplicatively closed, residual {res:.3e}"
                )
        if not self.contains_identity:
            raise VerificationFailure("identity is not in the span")


def _span_residuals(basis: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Frobenius distance of each matrix in a (s, d, d) stack from the span
    of an orthonormal (r, d, d) basis stack, as the coefficient residual
    |v - B(B* v)|."""
    b = basis.reshape(basis.shape[0], -1)
    v = mats.reshape(mats.shape[0], -1)
    return np.linalg.norm(v - (v @ b.conj().T) @ b, axis=1)


# random probes X of the bilinear domain conditions, drawn from salt 0xA15E
_DOMAIN_PROBES = 3


def multiplicative_domain(psi: CPMap, tol: ToleranceConfig | None = None) -> MatrixAlgebra:
    """Multiplicative domain of a unital trace-preserving CP map.

    Computed as the fixed-point space of dual(psi) o psi via an SVD null
    space of (M - I), then post-verified (see :func:`_verify_domain`); a
    failed verification raises VerificationFailure.
    """
    t = _tol(tol)
    if psi.input_dim != psi.output_dim:
        raise NotUnitalOrNotTP("map must be an endomorphism to be unital and trace preserving")
    if psi.tp_residual > t.eps_verify or psi.unital_residual() > t.eps_verify:
        raise NotUnitalOrNotTP(
            f"tp residual {psi.tp_residual:.3e}, unital residual {psi.unital_residual():.3e}"
        )
    d = psi.input_dim
    transfer = psi.transfer_matrix()
    composed = transfer.conj().T @ transfer
    # dual(psi) o psi is a contraction, so its gap to 1 is judged on the
    # absolute scale 1, not against a largest singular value that can be tiny
    fixed = nullspace(composed - np.eye(d * d), t, cutoff=t.eps_rank)
    if fixed.shape[1] == 0:
        raise VerificationFailure("fixed-point space is empty; identity must always be fixed")
    mats = [unvec(fixed[:, k], d, d) for k in range(fixed.shape[1])]
    alg = MatrixAlgebra.from_span(mats, t)
    _verify_domain(psi, alg, t)
    return alg


def _norms(mats: np.ndarray) -> np.ndarray:
    return np.linalg.norm(mats, axis=(-2, -1))


def _verify_domain(psi: CPMap, alg: MatrixAlgebra, t: ToleranceConfig) -> None:
    """Check the adjoint-product criterion psi(A A*) = psi(A) psi(A*), and
    its mirror, on every basis element A at eps_verify; then the bilinear
    conditions psi(A X) = psi(A) psi(X) and psi(X A) = psi(X) psi(A) for
    every basis element A against _DOMAIN_PROBES random probes and every
    basis element X, at eps_verify max(1, |A| |X|).  The applies are
    batched over the basis stack, one left factor at a time."""
    d = psi.input_dim
    rng = t.rng(0xA15E)
    probes = np.stack([rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                       for _ in range(_DOMAIN_PROBES)])
    probes /= np.maximum(_norms(probes), 1.0)[:, None, None]
    basis = np.stack(alg.basis)
    adjoints = basis.conj().transpose(0, 2, 1)
    images, adjoint_images = psi.apply(basis), psi.apply(adjoints)
    res = float(np.max(np.maximum(
        _norms(psi.apply(basis @ adjoints) - images @ adjoint_images),
        _norms(psi.apply(adjoints @ basis) - adjoint_images @ images))))
    if res > t.eps_verify:
        raise VerificationFailure(
            f"adjoint-product criterion fails on a basis element, residual {res:.3e}"
        )
    others = np.concatenate([probes, basis])
    other_images = np.concatenate([psi.apply(probes), images])
    other_norms = _norms(others)
    for a, image in zip(basis, images):
        res = np.maximum(_norms(psi.apply(a @ others) - image @ other_images),
                         _norms(psi.apply(others @ a) - other_images @ image))
        if np.any(res > t.eps_verify * np.maximum(1.0, frob(a) * other_norms)):
            raise VerificationFailure(
                f"bilinear multiplicativity fails, residual {float(np.max(res)):.3e}"
            )


def center(alg: MatrixAlgebra, tol: ToleranceConfig | None = None) -> list[np.ndarray]:
    """Orthonormal basis of the center, solved in coefficient space.

    z = sum_k c_k b_k is central exactly when sum_k c_k [b_k, b_l] = 0 for
    every basis element b_l: a thin-SVD null space of that (r d^2) x r
    system.  With an orthonormal basis a singular value is the commutator
    norm of a unit z, so the cutoff is the absolute eps_verify at which the
    algebra was accepted; a relative cutoff could empty the center of an
    algebra that check_invariants accepted.
    """
    t = _tol(tol)
    stack = np.stack(alg.basis)
    r = alg.dimension
    prods = stack[:, None] @ stack[None, :]
    comms = prods - prods.swapaxes(0, 1)
    coeffs = nullspace(comms.reshape(r, -1).T, t, cutoff=t.eps_verify)
    if coeffs.shape[1] == 0:
        raise VerificationFailure("center is empty; a unital algebra contains the identity")
    return list(np.tensordot(coeffs.T, stack, axes=1))


@dataclass(frozen=True)
class AlgebraBlock:
    multiplicity: int
    size: int
    projection: np.ndarray


@dataclass(frozen=True)
class AlgebraStructure:
    """Canonical block data of a unital *-algebra, ordered by descending
    block size then descending multiplicity."""

    blocks: tuple[AlgebraBlock, ...]
    multiplicity_free: bool

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((b.multiplicity, b.size) for b in self.blocks)


def _cluster_descending(values: np.ndarray, radius: float) -> list[np.ndarray]:
    """Group a descending array into runs whose consecutive gaps stay within
    the radius; returns index arrays."""
    groups: list[list[int]] = [[0]]
    for k in range(1, values.size):
        if values[k - 1] - values[k] <= radius:
            groups[-1].append(k)
        else:
            groups.append([k])
    return [np.array(g) for g in groups]


def structure(alg: MatrixAlgebra, tol: ToleranceConfig | None = None) -> AlgebraStructure:
    """Recover the block structure from a generic central element.

    Eigenvalue clusters of the element give the minimal central projections
    P_k; within each block the size j_k satisfies j_k^2 = dim(P_k A P_k) and
    the multiplicity is rank(P_k) / j_k.  Non-integer block data raises
    StructureInconsistency; ambiguous clusters trigger a resample.
    """
    t = _tol(tol)
    d = alg.ambient_dim
    central = center(alg, t)
    want = len(central)

    chosen = None
    for attempt in range(t.max_resample):
        h = random_hermitian_in_span(central, t.rng(0x57C7, attempt))
        evals, evecs = hermitian_eig(h, t)
        clusters = _cluster_descending(evals, t.eps_eig)
        if len(clusters) != want:
            continue
        reps = np.array([float(np.mean(evals[c])) for c in clusters])
        if want > 1 and np.min(reps[:-1] - reps[1:]) < 10 * t.eps_eig:
            continue
        chosen = (evals, evecs, clusters)
        break
    if chosen is None:
        raise ResampleExhausted(
            f"no central element with {want} separated eigenvalue clusters "
            f"after {t.max_resample} draws"
        )
    _, evecs, clusters = chosen

    stack = np.stack(alg.basis)
    blocks = []
    for cluster in clusters:
        cols = evecs[:, cluster]
        proj = cols @ cols.conj().T
        block_rank = int(cluster.size)
        compressed = (proj @ stack @ proj).reshape(len(stack), -1).T
        block_dim = numerical_rank(compressed, t)
        size = round(math.sqrt(block_dim))
        if size * size != block_dim or size == 0 or block_rank % size != 0:
            raise StructureInconsistency(
                f"block of rank {block_rank} spans dimension {block_dim}, "
                "not a perfect square dividing the rank"
            )
        blocks.append(AlgebraBlock(multiplicity=block_rank // size, size=size, projection=proj))

    if sum(b.multiplicity * b.size for b in blocks) != d:
        raise StructureInconsistency("block ranks do not sum to the ambient dimension")
    if sum(b.size**2 for b in blocks) != alg.dimension:
        raise StructureInconsistency("block dimensions do not sum to the algebra dimension")

    blocks.sort(key=lambda b: (-b.size, -b.multiplicity))
    return AlgebraStructure(
        blocks=tuple(blocks),
        multiplicity_free=all(b.multiplicity == 1 for b in blocks),
    )


def rank_one_resolution(alg: MatrixAlgebra, struct: AlgebraStructure,
                        tol: ToleranceConfig | None = None) -> list[np.ndarray]:
    """Vectors w_1..w_d whose rank-one projections lie in the algebra and
    sum to the identity, from the spectral resolution of a generic Hermitian
    element with simple spectrum.  Requires a multiplicity-free structure.
    Ordered by descending eigenvalue, phases fixed."""
    t = _tol(tol)
    if not struct.multiplicity_free:
        raise NotMultiplicityFree(
            f"structure {list(struct.pairs())} has a repeated tensor factor"
        )
    d = alg.ambient_dim

    chosen = None
    for attempt in range(t.max_resample):
        h = random_hermitian_in_span(alg.basis, t.rng(0x12E5, attempt))
        evals, evecs = hermitian_eig(h, t)
        if d > 1 and np.min(evals[:-1] - evals[1:]) < 10 * t.eps_eig:
            continue
        chosen = (evals, evecs)
        break
    if chosen is None:
        raise ResampleExhausted(
            f"no generic element with simple spectrum after {t.max_resample} draws"
        )
    _, evecs = chosen

    vectors = [phase_fix(evecs[:, k]) for k in range(d)]
    total = sum(np.outer(w, w.conj()) for w in vectors)
    if frob(total - np.eye(d)) > t.eps_verify:
        raise VerificationFailure("spectral projections do not resolve the identity")
    for k, w in enumerate(vectors):
        if not alg.contains(np.outer(w, w.conj()), t):
            raise VerificationFailure(
                f"rank-one projection {k} escapes the algebra span"
            )
    return vectors
