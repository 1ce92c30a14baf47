"""Multiplicative domains as concrete matrix *-algebras and their canonical
block decomposition.

The multiplicative domain of a unital trace-preserving CP map F is the set of
A with F(AX) = F(A)F(X) and F(XA) = F(X)F(A) for all X.  For such maps it is
the commutant of the algebra generated by the Kraus operators of
dual(F) o F (Kribs 2003), which is how it is built here: generic Hermitian
elements of their span give the blocks of that algebra and a basis of its
commutant (:func:`interaction_draws`, :func:`_decide`), and no d^2 x d^2
operator is formed.  Because that equality is a cited fact rather than one
this package re-derives, every built domain is post-verified against the
adjoint-product criterion F(A A*) = F(A) F(A*) and the defining bilinear
conditions; a verified failure is reported, never accepted.  With
F(X) = V*(I (x) X)V, F(X* Y) - F(X)* F(Y) = B_X* B_Y for
B_X = (I (x) X)V - V F(X) (Choi 1974), so the criterion on a basis bounds the
bilinear conditions between basis elements; X need only be random probes.

A unital *-subalgebra of d x d matrices is unitarily equivalent to a direct
sum of blocks, each a full matrix algebra of size j_k repeated with
multiplicity i_k.  The structure pass recovers the multiset {(i_k, j_k)} of
any such algebra from eigenvalue clustering of a generic central element; it
is multiplicity-free exactly when every i_k = 1, which is when the algebra
contains rank-one projections summing to the identity.  The center and span
membership are solved in the algebra's own coefficient space (see
:func:`center`).

One routine, :func:`_decide`, reads the interaction elements for the
certifier and the domain build alike: whether two of them commute decides if
the domain is multiplicity free, and its eigenvalue clusters give the blocks.
Both start from a channel's minimal Kraus stack, of which the complement
adjoint is one conjugated transpose.  The certifier forms the elements as
they are read, so a refutation usually forms two of the eight draws; the
domain build forms all eight, since its commutant is checked against each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    DEFAULT_TOL,
    MAX_RESAMPLE,
    ToleranceConfig,
    as_matrix,
    eigh_descending,
    frob,
    frob_each,
    hermitian_eig,
    nullspace,
    numerical_rank,
    phase_fix,
    random_hermitian_in_span,
)


@dataclass(frozen=True)
class MatrixAlgebra:
    """Unital *-subalgebra of d x d matrices, held as a Frobenius-orthonormal
    basis of its span: one read-only (r, d, d) array, so iterating over
    ``basis`` gives the basis matrices."""

    basis: np.ndarray

    def __post_init__(self):
        # a C-order copy: caller-owned arrays stay writable, reshapes are views
        basis = np.array(self.basis, dtype=complex, order="C")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[-1]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, x, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        m = as_matrix(x)
        scale = max(1.0, frob(m))
        return float(_span_residuals(self.basis, m[None])[0]) <= tol.eps_verify * scale

    def check_invariants(self, tol: ToleranceConfig = DEFAULT_TOL) -> None:
        """Assert *-closure and multiplicative closure of the span at
        eps_verify, and identity membership at eps_verify sqrt(d): every
        adjoint and every product of basis elements, the products batched
        one left factor at a time."""
        stack = self.basis
        res = float(np.max(_span_residuals(stack, stack.conj().transpose(0, 2, 1))))
        if res > tol.eps_verify:
            raise VerificationFailure(f"span is not *-closed, residual {res:.3e}")
        for a in stack:
            res = float(np.max(_span_residuals(stack, a @ stack)))
            if res > tol.eps_verify:
                raise VerificationFailure(
                    f"span is not multiplicatively closed, residual {res:.3e}"
                )
        d = self.ambient_dim
        if float(_span_residuals(stack, np.eye(d)[None])[0]) > tol.eps_verify * math.sqrt(d):
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


def multiplicative_domain(psi: CPMap, tol: ToleranceConfig = DEFAULT_TOL) -> MatrixAlgebra:
    """Multiplicative domain of a unital trace-preserving CP map.

    Built as the commutant of the algebra generated by the Kraus operators
    P_b* P_a of dual(psi) o psi, as :func:`_decide` reads it from their
    interaction elements, then post-verified (see :func:`_verify_domain`);
    a failed verification raises VerificationFailure.
    """
    # psi is the complement adjoint of the stack K_i[a, c] = conj(P_a[c, i])
    return _domain_blocks(np.conj(psi.kraus).transpose(2, 0, 1), tol)[0]


def _domain_blocks(kraus: np.ndarray, t: ToleranceConfig):
    """:func:`multiplicative_domain` of the complement adjoint psi of a
    (d, m, n) Kraus stack, P_a[c, i] = conj(K_i[a, c]), and the
    :func:`_decide` reading of the interaction elements it is built from."""
    psi = CPMap(np.conj(kraus).transpose(1, 2, 0), t)
    if psi.input_dim != psi.output_dim:
        raise NotUnitalOrNotTP("map must be an endomorphism to be unital and trace preserving")
    unital_residual = psi.unital_residual()
    if psi.tp_residual > t.eps_verify or unital_residual > t.eps_verify:
        raise NotUnitalOrNotTP(
            f"tp residual {psi.tp_residual:.3e}, unital residual {unital_residual:.3e}"
        )
    elements = interaction_draws(kraus, t)(slice(None))
    decision = _decide(elements.__getitem__, t)
    alg = commutant_from_elements(decision, elements, t)
    _verify_domain(psi, alg, t)
    return alg, decision


def _verify_domain(psi: CPMap, alg: MatrixAlgebra, t: ToleranceConfig) -> float:
    """Check the adjoint-product criterion psi(A A*) = psi(A) psi(A*), and
    its mirror, on every basis element A at eps_verify d^(-1/4); then the
    bilinear conditions psi(A X) = psi(A) psi(X) and psi(X A) = psi(X) psi(A)
    for every basis element A against _DOMAIN_PROBES random probes X, at
    eps_verify max(1, |A| |X|).  Returns the largest bilinear residual.

    The criterion proves the bilinear conditions between basis elements.
    Write psi(X) = V*(I (x) X)V, V the stacked K_i* (V*V = I: psi is unital),
    and B_X = (I (x) X)V - V psi(X); then D(X, Y) = psi(X* Y) - psi(X)* psi(Y)
    is B_X* B_Y.  The criterion and its mirror are |D(A*, A*)| and |D(A, A)|
    (Frobenius), the residuals of A against X are |D(A*, X)| and |D(X*, A)|.
    As |B_Y* B_Z| <= |B_Y|_2 |B_Z|, |B_Y|_2^2 <= |D(Y, Y)| and
    |B_Z|^2 = tr D(Z, Z) <= sqrt(d) |D(Z, Z)|, criterion residuals e bound
    every basis-by-basis residual by d^(1/4) e = eps_verify, the bound of
    two unit elements.  Those residuals are second order in an element's
    distance from the domain; the probes see the first order.

    Every matrix psi is evaluated on goes into one stack, applied through
    the row blocks of psi's transfer matrix (:func:`_transfer_apply`).  As
    psi maps adjoints to adjoints, psi(A*) is psi(A)* and the residual of
    psi(X A) is that of psi(A* X*) against psi(A)* psi(X)*."""
    d = psi.input_dim
    draws = t.rng(0xA15E).standard_normal((_DOMAIN_PROBES, 2, d, d))
    probes = draws[:, 0] + 1j * draws[:, 1]
    probes /= np.maximum(frob_each(probes), 1.0)[:, None, None]
    basis = alg.basis
    r, p = len(basis), len(probes)
    adjoints = basis.conj().transpose(0, 2, 1)
    probe_adjoints = probes.conj().transpose(0, 2, 1)
    images = _transfer_apply(psi.kraus, np.concatenate([
        basis, basis @ adjoints, adjoints @ basis, probes,
        *_products(basis, probes), *_products(adjoints, probe_adjoints)]))
    basis_images, squares, probe_images, pairs = np.split(images, [r, 3 * r, 3 * r + p])
    adjoint_images = basis_images.conj().transpose(0, 2, 1)
    res = float(np.max(np.maximum(
        frob_each(squares[:r] - basis_images @ adjoint_images),
        frob_each(squares[r:] - adjoint_images @ basis_images))))
    if res > t.eps_verify * d ** -0.25:
        raise VerificationFailure(
            f"adjoint-product criterion fails on a basis element, residual {res:.3e}"
        )
    pairs = pairs.reshape(2, p, r, d, d)
    res = np.maximum(
        frob_each(pairs[0] - _products(basis_images, probe_images)),
        frob_each(pairs[1] - _products(adjoint_images, probe_images.conj().transpose(0, 2, 1))))
    if np.any(res > t.eps_verify * np.maximum(1.0, frob_each(probes)[:, None] * frob_each(basis))):
        raise VerificationFailure(
            f"bilinear multiplicativity fails, residual {float(np.max(res)):.3e}"
        )
    return float(np.max(res))


def _products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Every product L_j R_q of an (r, d, d) and an (s, d, d) stack, as an
    (s, r, d, d) stack, from one product of the rows of all L with the
    columns of all R side by side."""
    r, d, _ = left.shape
    cols = right.transpose(1, 0, 2).reshape(d, -1)
    return (left.reshape(r * d, d) @ cols).reshape(r, d, len(right), d).transpose(2, 0, 1, 3)


def _transfer_apply(kraus: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The map of a (k, m, n) Kraus stack on each matrix of an (s, n, n)
    stack: the (s, m, m) images, through its m^2 x n^2 transfer matrix T on
    row-major vecs (the image of X, flattened, is T times X flattened).
    Row block a of T, the m rows of output row a, is
    T[(a, b), (c, e)] = sum_i K_i[a, c] conj(K_i[b, e]), from one product,
    and meets the whole stack in one more; so one pass over T serves the
    stack, one block of T is held at a time, and no s x n x k x m
    intermediate of :meth:`~ebcert.channel.CPMap.apply` is formed."""
    k, m, n = kraus.shape
    flat, conj = stack.reshape(len(stack), n * n), kraus.conj().reshape(k, m * n)
    images = np.empty((len(stack), m, m), dtype=complex)
    for a in range(m):
        rows = (kraus[:, a].T @ conj).reshape(n, m, n).transpose(1, 0, 2).reshape(m, n * n)
        images[:, a] = flat @ rows.T
    return images


def center(alg: MatrixAlgebra, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the center as an (c, d, d) stack, solved in
    coefficient space.

    z = sum_k c_k b_k is central exactly when sum_k c_k [b_k, b_l] = 0 for
    every basis element b_l: a thin-SVD null space of that (r d^2) x r
    system.  With an orthonormal basis a singular value is the commutator
    norm of a unit z, so the cutoff is the absolute eps_verify at which the
    algebra was accepted; a relative cutoff could empty the center of an
    algebra that check_invariants accepted.
    """
    stack = alg.basis
    r = alg.dimension
    prods = stack[:, None] @ stack[None, :]
    comms = prods - prods.swapaxes(0, 1)
    coeffs = nullspace(comms.reshape(r, -1).T, tol, cutoff=tol.eps_verify)
    if coeffs.shape[1] == 0:
        raise VerificationFailure("center is empty; a unital algebra contains the identity")
    return np.tensordot(coeffs.T, stack, axes=1)


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


def _separated(evals: np.ndarray, clusters: list[np.ndarray], t: ToleranceConfig) -> bool:
    """Whether the means of the consecutive runs ``clusters`` of a
    descending spectrum lie at least 10 eps_eig apart."""
    sizes = np.array([c.size for c in clusters])
    means = np.add.reduceat(evals, np.cumsum(sizes) - sizes) / sizes
    return bool(np.all(means[:-1] - means[1:] >= 10 * t.eps_eig))


def _clustered_eig(h: np.ndarray, t: ToleranceConfig):
    """:func:`~ebcert.numerics.hermitian_eig` of an element Hermitian by
    construction, without its Hermitian residual check, plus the eigenvalue
    clusters at eps_eig: index arrays of the runs of the descending spectrum
    whose consecutive gaps stay within eps_eig."""
    evals, evecs = eigh_descending(h)
    evecs = phase_fix(evecs.T).T
    cuts = [0, *np.flatnonzero(evals[:-1] - evals[1:] > t.eps_eig) + 1, evals.size]
    return evals, evecs, [np.arange(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def structure(alg: MatrixAlgebra, tol: ToleranceConfig = DEFAULT_TOL) -> AlgebraStructure:
    """Recover the block structure from a generic central element.

    Eigenvalue clusters of the element give the minimal central projections
    P_k; within each block the size j_k satisfies j_k^2 = dim(P_k A P_k) and
    the multiplicity is rank(P_k) / j_k.  Non-integer block data raises
    StructureInconsistency; ambiguous clusters trigger a resample.
    """
    d = alg.ambient_dim
    central = center(alg, tol)
    want = len(central)

    for attempt in range(MAX_RESAMPLE):
        h = random_hermitian_in_span(central, tol.rng(0x57C7, attempt))
        evals, evecs, clusters = _clustered_eig(h, tol)
        if len(clusters) == want and _separated(evals, clusters, tol):
            break
    else:
        raise ResampleExhausted(
            f"no central element with {want} separated eigenvalue clusters "
            f"after {MAX_RESAMPLE} draws"
        )

    stack = alg.basis
    blocks = []
    for cluster in clusters:
        cols = evecs[:, cluster]
        proj = cols @ cols.conj().T
        block_rank = int(cluster.size)
        compressed = (proj @ stack @ proj).reshape(len(stack), -1).T
        block_dim = numerical_rank(compressed, tol)
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
                        tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Rows w_1..w_d of a (d, d) array whose rank-one projections lie in the
    algebra and sum to the identity, from the spectral resolution of a
    generic Hermitian element with simple spectrum.  Requires a
    multiplicity-free structure.  Ordered by descending eigenvalue, phases
    fixed."""
    if not struct.multiplicity_free:
        raise NotMultiplicityFree(
            f"structure {list(struct.pairs())} has a repeated tensor factor"
        )
    d = alg.ambient_dim

    for attempt in range(MAX_RESAMPLE):
        h = random_hermitian_in_span(alg.basis, tol.rng(0x12E5, attempt))
        evals, evecs = hermitian_eig(h, tol)
        if np.all(evals[:-1] - evals[1:] >= 10 * tol.eps_eig):
            break
    else:
        raise ResampleExhausted(
            f"no generic element with simple spectrum after {MAX_RESAMPLE} draws"
        )

    # a second phase fix clears the rounding-level imaginary part that
    # hermitian_eig leaves on each pivot
    vectors = phase_fix(evecs.T)
    if frob(vectors.T @ vectors.conj() - np.eye(d)) > tol.eps_verify:
        raise VerificationFailure("spectral projections do not resolve the identity")
    dyads = vectors[:, :, None] * vectors.conj()[:, None, :]
    escaped = np.flatnonzero(_span_residuals(alg.basis, dyads) > tol.eps_verify)
    if escaped.size:
        raise VerificationFailure(
            f"rank-one projection {int(escaped[0])} escapes the algebra span"
        )
    return vectors


def interaction_draws(kraus, tol: ToleranceConfig = DEFAULT_TOL):
    """The function forming any slice of the MAX_RESAMPLE random Hermitian
    elements of span{L_b L_a*}, where the d x n operators L_a are the Kraus
    operators of the complement of the minimal (d, m, n) Kraus stack:
    (L_a)_ic = (K_i)_ac.

    Each element is a_ij = tr(C K_i K_j*) for a Hermitian m x m matrix
    C = G + G*, G complex Gaussian, scaled to unit Frobenius norm.  All C,
    from one stream of the seed, and the stack's two product layouts are
    built once per decision; a slice of the draws gives the same bits as
    that slice of the whole stack, so a caller forms the draws it reads when
    it reads them (see :func:`_decide`).  The L_b L_a* are the Kraus
    operators of dual(psi) o psi for the complement adjoint psi, so their
    algebra has the multiplicative domain of psi as its commutant when psi
    is unital and trace preserving (Kribs 2003).
    """
    # C order, so that a transposed view of the same values gives the same bits
    kraus = np.ascontiguousarray(kraus, dtype=complex)
    d, m, n = kraus.shape
    parts = tol.rng(0x1A7E).standard_normal((2, MAX_RESAMPLE, m, m))
    g = parts[0] + 1j * parts[1]
    transposed = (g + g.conj().transpose(0, 2, 1)).transpose(0, 2, 1)
    # conj(C K_j)[a, c] = (C^T conj(K_j))[a, c] for every j, laid out as
    # ((a, c), j), from one product per draw; then a_ij is
    # sum_(a, c) K_i[a, c] conj(C K_j)[a, c], one more: O(d m^2 n + d^2 m n)
    columns, rows = kraus.conj().transpose(1, 2, 0).reshape(m, n * d), kraus.reshape(d, m * n)

    def draw(draws: slice) -> np.ndarray:
        elements = rows @ (transposed[draws] @ columns).reshape(-1, m * n, d)
        return elements / frob_each(elements)[:, None, None]
    return draw


class _Decision(NamedTuple):
    """What :func:`_decide` reads: kappa, its bound sqrt(eps_eig), the verdict,
    one element's eigenvectors (columns), their clusters and each block's
    cluster indices; read from two elements, also the second in the first's
    eigenbasis and, per pair of clusters, the norm of its block between them."""

    kappa: float
    bound: float
    multiplicity_free: bool
    evecs: np.ndarray
    clusters: list
    members: list
    rotated: np.ndarray | None = None
    coupling: np.ndarray | None = None

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Block pairs (multiplicity, size) ordered like :meth:`AlgebraStructure.pairs`."""
        pairs = ((len(group), self.clusters[group[0]].size) for group in self.members)
        return tuple(sorted(pairs, key=lambda p: (-p[1], -p[0])))


def _decide(draw, t: ToleranceConfig) -> _Decision:
    """Whether generic Hermitian elements generate an abelian algebra, whose
    commutant is then multiplicity free: the relative commutator kappa of the
    first two decides.  ``draw`` takes a slice of the MAX_RESAMPLE draws and
    returns those elements, as :func:`interaction_draws` does; draws 0-1
    are formed first and draws 2-7 only where they are read.  Above
    sqrt(eps_eig) the blocks are read from two elements
    (:func:`_coupled_clusters`), which forms draws 2-7 only when the first
    pair is unreadable; a refutation usually forms two elements.  Otherwise
    all eight are formed, and the blocks are read from the element with the
    most clusters at eps_eig, then the widest narrowest gap between them,
    then the first: the eigenvalues of all eight come from one call, and
    only that element's eigenvectors are computed.  Its clusters are the
    blocks M_j, and its eigenvectors w_i give rank-one projections w_i w_i*
    in the commutant, which cluster gaps keep from turning under rounding.
    The elements are Hermitian by construction and go to the solver without
    a Hermitian residual check."""
    head = draw(slice(0, 2))
    a, b = head
    kappa = frob(a @ b - b @ a)  # the elements have unit norm, so this is relative
    bound = math.sqrt(t.eps_eig)
    if kappa > bound:
        return _Decision(kappa, bound, False, *_coupled_clusters(head, draw, t))
    elements = np.concatenate([head, draw(slice(2, None))])
    evals = eigh_descending(elements, vectors=False)
    gaps = evals[:, :-1] - evals[:, 1:]
    splits = gaps > t.eps_eig
    narrowest = np.min(np.where(splits, gaps, np.inf), axis=1, initial=np.inf)
    # lexsort is stable and sorts by its last key first
    best = np.lexsort((-narrowest, -np.sum(splits, axis=1)))[0]
    _, evecs, clusters = _clustered_eig(elements[best], t)
    return _Decision(kappa, bound, True, evecs, clusters, [[k] for k in range(len(clusters))])


def _coupled_clusters(head: np.ndarray, draw, t: ToleranceConfig):
    """The blocks of the commutant of the algebra generated by generic
    Hermitian elements, read from two of them (Murota, Kanno, Kojima &
    Kojima 2010).  If the algebra is a direct sum of blocks M_i (x) I_j, the
    commutant has blocks I_i (x) M_j.  A generic element a has eigenvalue
    clusters of size j, i of them per block; a second generic element b
    couples exactly the clusters of one block, so each connected component
    of b's coupling between a's clusters gives one pair (i, j).  Coupling is
    a block of b in a's eigenbasis above eps_verify |b|.  The first pair is
    the two elements of ``head``, draws 0-1; a pair whose clusters are too
    close, or a component that mixes cluster sizes, moves on to the next
    pair of draws, and the first such move forms draws 2-7 by ``draw`` (see
    :func:`_decide`).  Returns the reading of a and b."""
    elements = head
    for attempt in range(MAX_RESAMPLE):
        if attempt == 1:  # the first pair is spent
            elements = np.concatenate([head, draw(slice(2, None))])
        a, b = elements[attempt], elements[(attempt + 1) % len(elements)]
        evals, evecs, clusters = _clustered_eig(a, t)
        if not _separated(evals, clusters, t):
            continue
        owner = np.repeat(np.eye(len(clusters)), [c.size for c in clusters], axis=0)
        rotated = evecs.conj().T @ b @ evecs
        coupling = np.sqrt(owner.T @ np.abs(rotated) ** 2 @ owner)
        reach = coupling > t.eps_verify * frob(b)
        reach |= np.eye(len(clusters), dtype=bool)
        for _ in range(len(clusters).bit_length()):
            reach = reach @ reach
        # each connected component's clusters, read off its first cluster's row
        firsts = reach[np.argmax(reach, axis=1) == np.arange(len(clusters))]
        members = [np.flatnonzero(row) for row in firsts]
        if all(len({clusters[k].size for k in group}) == 1 for group in members):
            return evecs, clusters, members, rotated, coupling
    raise ResampleExhausted(
        f"no pair of interaction elements with separated clusters of one size per "
        f"block after {MAX_RESAMPLE} draws"
    )


def _spanning_tree(weights: np.ndarray) -> list[tuple[int, int]]:
    """Edges (parent, child) of a maximum-weight spanning tree of a
    connected graph given by its symmetric weight matrix, grown from node 0
    (Prim); each child comes after its parent."""
    size = len(weights)
    inside = np.zeros(size, dtype=bool)
    inside[0] = True
    best, parent = weights[0].copy(), np.zeros(size, dtype=int)
    edges = []
    for _ in range(size - 1):
        child = int(np.argmax(np.where(inside, -np.inf, best)))
        edges.append((int(parent[child]), child))
        inside[child] = True
        closer = weights[child] > best
        best, parent = np.where(closer, weights[child], best), np.where(closer, child, parent)
    return edges


def commutant_from_elements(decision: _Decision, elements: np.ndarray,
                            tol: ToleranceConfig = DEFAULT_TOL) -> MatrixAlgebra:
    """The commutant of the algebra generated by a stack of generic
    Hermitian elements, from the reading :func:`_decide` made of them.

    In a component of i clusters of size j, the eigenvector frames F_p of
    the clusters hold i copies of one j-dimensional factor, and b's block
    F_p* b F_q is a multiple of the unitary that carries copy q onto copy p.
    Along a maximum spanning tree of the coupling, each frame F_q is turned
    by the polar factor of its block with its parent, so that every frame of
    the component holds the same copy; then sum_p F_p E_st F_p* / sqrt(i),
    over the j x j matrix units E_st, is an orthonormal basis of the
    component's I_i (x) M_j.  When the elements commute, every component is
    one cluster, whose M_j has the matrix units F E_st F* as basis.

    The basis is accepted only if it commutes with every element of the
    stack within eps_verify, and VerificationFailure is raised otherwise.
    That check certifies the whole commutant: a's spectral projections and
    b's aligned couplings along a connected tree generate the block algebra
    of sums of M_i (x) I_j, so elements that all commute with the basis
    generate exactly that algebra.  Elements more degenerate than the
    algebra they generate are misread and fail it.
    """
    _, _, _, evecs, clusters, members, rotated, coupling = decision
    turns = np.eye(len(evecs), dtype=complex)  # block diagonal, one block per cluster
    for group in (group for group in members if len(group) > 1):
        for p, q in _spanning_tree(coupling[np.ix_(group, group)]):
            cp, cq = clusters[group[p]], clusters[group[q]]
            u, _, vh = np.linalg.svd(turns[np.ix_(cp, cp)].conj().T @ rotated[np.ix_(cp, cq)])
            turns[np.ix_(cq, cq)] = (u @ vh).conj().T
    frames = evecs @ turns
    parts = []
    for i, j in sorted(set(decision.pairs)):
        # (components, j, d, i): column p of slice s is column s of frame F_p
        cols = np.array([[clusters[k] for k in group] for group in members
                         if (len(group), clusters[group[0]].size) == (i, j)])
        stack = frames[:, cols].transpose(1, 3, 0, 2)
        units = stack[:, :, None] @ stack.conj().swapaxes(-1, -2)[:, None]
        parts.append(units.reshape(-1, *frames.shape) / math.sqrt(i))
    basis = np.concatenate(parts)
    # all r x s commutators at once, each side from one product
    residual = float(np.max(frob_each(_products(basis, elements)
                                   - _products(elements, basis).swapaxes(0, 1))))
    if residual > tol.eps_verify:
        raise VerificationFailure(
            f"commutant built from the interaction elements fails to commute with them: "
            f"residual {residual:.3e} above eps_verify {tol.eps_verify:.1e}"
        )
    return MatrixAlgebra(basis=basis)
