"""Independent oracles used by the test suite.

Everything here is written against the raw Kraus data with fresh numpy code
so that library results are checked along a different path than the one that
produced them.  The commutant and the span intersection are the d^2 x d^2
route to an algebra's center, kept as the reference for the library's
coefficient-space solve; :func:`fixed_point_domain` is the d^2 x d^2 route
to a multiplicative domain, kept as the reference for the library's build
from interaction elements; :func:`verify_domain_per_element` is the
domain's post-verification with every product of two basis elements
applied, one left factor at a time, kept as the reference for the library's
gate, which applies only the products with its probes; :func:`schwarz_defects`
gives the two residuals that the gate's proof relates.
:func:`qr_reconstruction_residual` is the minimal Kraus reconstruction
residual through a thin QR of the Choi factor, kept as the reference for
the library's Gram-matrix route, and :func:`classify_by_complement_apply`
classifies the complement adjoint by applying the complement to the
identity, kept as the reference for the library's reading of the Choi
spectrum.
:func:`top_left_singular_vectors` takes a certificate's output vectors from
an SVD, the reference for the library's power step, and
:func:`perturbed_planted` is the perturbed-sweep input both are compared on.
:func:`dense_family_distances` compares the direct Choi matrix entrywise
with the two cited families, the reference for ``eb_rank``'s recognition
from the Choi spectrum and the Kraus stack.
:func:`factor_distance` is the distance between two Choi matrices through a
thin QR of their factors, the reference for a certificate's ``choi_match``,
which the library measures in the eigenbasis of the Choi spectrum.
:func:`tensor_product` builds the product of two channels, whose verdict and
block pairs follow from those of its factors.
"""

import numpy as np

from ebcert import (
    ComplementAdjointKind,
    KrausChannel,
    MatrixAlgebra,
    complement_from_kraus,
    nullspace,
    random_projection_choi_channel,
    random_unitary,
    unvec,
    vec,
)
from ebcert.errors import DimensionMismatch, VerificationFailure
from ebcert.numerics import relative_rank


def apply_kraus(kraus, x):
    out = np.zeros((kraus[0].shape[0], kraus[0].shape[0]), dtype=complex)
    for op in kraus:
        out += op @ x @ op.conj().T
    return out


def direct_choi(kraus, n, m):
    """Choi matrix from its definition: the block matrix of channel values on
    matrix units."""
    j = np.zeros((n * m, n * m), dtype=complex)
    for a in range(n):
        for b in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[a, b] = 1.0
            j[a * m:(a + 1) * m, b * m:(b + 1) * m] = apply_kraus(kraus, unit)
    return j


def dense_family_distances(kraus, n):
    """|J - alpha P|_F of the direct Choi matrix of an n -> n channel for the
    two families with cited entanglement-breaking ranks, keyed by the name
    ``eb_rank`` reports: the completely depolarizing channel, J = I / n, and
    the transpose-plus-trace channel, J = (I + F) / (n + 1) for the swap F.
    A family within eps_verify n of J was the dense recognition rule."""
    j = direct_choi(kraus, n, n)
    swap = np.zeros((n * n, n * n))
    for a in range(n):
        for b in range(n):
            swap[a * n + b, b * n + a] = 1.0
    eye = np.eye(n * n)
    return {"completely depolarizing": float(np.linalg.norm(j - eye / n)),
            "transpose-plus-trace": float(np.linalg.norm(j - (eye + swap) / (n + 1)))}


def minimal_kraus_direct(kraus, n, m, cutoff=1e-10):
    """Minimal Kraus set via a fresh eigendecomposition of the direct Choi
    matrix (column-stacked eigenvectors reshaped back to operators)."""
    j = direct_choi(kraus, n, m)
    evals, evecs = np.linalg.eigh(j)
    ops = []
    top = evals[-1]
    for k in range(len(evals)):
        if evals[k] > cutoff * top:
            ops.append(np.sqrt(evals[k]) * evecs[:, k].reshape((m, n), order="F"))
    return ops


def factor_distance(a, b):
    """Frobenius distance |A A* - B B*| between the products of two factors
    with one row count, without forming either product.  With a thin QR
    [A B] = Q [R1 R2] the distance is |R1 R1* - R2 R2*|.  The shorter route
    through Gram traces, |A* A|^2 + |B* B|^2 - 2 |A* B|^2, cancels to
    rounding noise near eps_verify and is not used."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"factors have {a.shape[0]} and {b.shape[0]} rows")
    r = np.linalg.qr(np.hstack([a, b]), mode="r")
    r1, r2 = r[:, :a.shape[1]], r[:, a.shape[1]:]
    return float(np.linalg.norm(r1 @ r1.conj().T - r2 @ r2.conj().T))


def tensor_product(a, b, tol):
    """The channel a (x) b, with the Kraus operators A_i (x) B_j in the
    order of np.kron: an (k_a k_b, m_a m_b, n_a n_b) stack from one einsum."""
    (ka, ma, na), (kb, mb, nb) = a.kraus.shape, b.kraus.shape
    kraus = np.einsum("iac,jbd->ijabcd", a.kraus, b.kraus)
    return KrausChannel(kraus.reshape(ka * kb, ma * mb, na * nb), tol)


def qr_reconstruction_residual(v, w, rank):
    """|J - V W_r (V W_r)*| for the Choi factor V (nm x k) and the first
    ``rank`` columns W_r of a k x k eigenbasis w of its Gram matrix, as
    |R R* - (R W_r)(R W_r)*| for the triangular factor R of V = QR; when
    k >= nm, V is used in place of R."""
    r = v if w.shape[0] >= v.shape[0] else np.linalg.qr(v, mode="r")
    kept = r @ w[:, :rank]
    return float(np.linalg.norm(r @ r.conj().T - kept @ kept.conj().T))


def classify_by_complement_apply(cr, tol):
    """(kind, alpha, residual) of the complement adjoint from a Choi report:
    the complement of the report's minimal Kraus set applied to I_n, whose
    off-diagonal entries must vanish within eps_verify, and its diagonal
    judged by the Choi rule: within eps_eig of 1 everywhere, else within
    eps_eig of its mean alpha; the residual is the largest deviation."""
    n = cr.kraus.shape[2]
    image = complement_from_kraus(cr.kraus, tol).apply(np.eye(n))
    diagonal = image.diagonal().real
    off_diagonal = float(np.max(np.abs(image - np.diag(image.diagonal()))))
    assert off_diagonal <= tol.eps_verify, off_diagonal
    res_identity = float(np.max(np.abs(diagonal - 1.0)))
    if res_identity <= tol.eps_eig:
        return ComplementAdjointKind.TRACE_PRESERVING, 1.0, res_identity
    alpha = float(np.mean(diagonal))
    res_scaled = float(np.max(np.abs(diagonal - alpha)))
    if res_scaled <= tol.eps_eig:
        return ComplementAdjointKind.TRACE_STABILIZING, alpha, res_scaled
    return ComplementAdjointKind.NEITHER, None, res_scaled


def rank_one_pair_objective(k1, k2, thetas, phis):
    """Summed second singular values of the two combined operators, on a
    (theta, phi) grid.  The orthonormal pair is
    w1 = (cos t, e^{i p} sin t), w2 = (-e^{-i p} sin t, cos t)."""
    cos_t = np.cos(thetas)[:, None, None, None]
    sin_t = np.sin(thetas)[:, None, None, None]
    phase = np.exp(1j * phis)[None, :, None, None]
    first = cos_t * k1 + sin_t / phase * k2
    second = -sin_t * phase * k1 + cos_t * k2
    s1 = np.linalg.svd(first, compute_uv=False)
    s2 = np.linalg.svd(second, compute_uv=False)
    return s1[..., 1] + s2[..., 1]


def brute_force_eb_search(kraus, n, m, grid=64, zooms=10, threshold=1e-5):
    """Grid-plus-refinement search for a two-vector witness.

    Every resolution of the 2x2 identity into two rank-one terms is an
    orthonormal pair, parametrized up to irrelevant phases by a polar angle
    and a relative phase.  The search minimizes the summed second singular
    values of the two combined Kraus operators; the channel admits a
    rank-one decomposition of length two exactly when the minimum is zero.
    Returns (entanglement_breaking, minimum found).
    """
    assert n == 2, "search is parametrized for a two-dimensional witness space"
    k1, k2 = minimal_kraus_direct(kraus, n, m)

    t_lo, t_hi = 0.0, np.pi / 2
    p_lo, p_hi = 0.0, 2 * np.pi
    best = np.inf
    for _ in range(zooms):
        thetas = np.linspace(t_lo, t_hi, grid)
        phis = np.linspace(p_lo, p_hi, grid)
        values = rank_one_pair_objective(k1, k2, thetas, phis)
        idx = np.unravel_index(np.argmin(values), values.shape)
        best = min(best, float(values[idx]))
        t_c, p_c = thetas[idx[0]], phis[idx[1]]
        t_w = (t_hi - t_lo) * 0.12
        p_w = (p_hi - p_lo) * 0.12
        t_lo, t_hi = t_c - t_w, t_c + t_w
        p_lo, p_hi = p_c - p_w, p_c + p_w
    return best <= threshold, best


def span_projector(mats, tol):
    """Orthogonal projector onto the span of the column-stacked matrices,
    with the relative rank cutoff tol.eps_rank."""
    cols = np.stack([np.asarray(m, dtype=complex).reshape(-1, order="F") for m in mats], axis=1)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s[0] <= tol.eps_rank:
        return np.zeros((cols.shape[0], cols.shape[0]), dtype=complex)
    basis = u[:, s > tol.eps_rank * s[0]]
    return basis @ basis.conj().T


def orthonormal_matrix_basis(mats, tol):
    """Frobenius-orthonormal basis of the span of a stack of matrices, as an
    (r, rows, cols) stack from an SVD of their vec's; r is 0 for a
    numerically zero span."""
    mats = np.asarray(mats, dtype=complex)
    _, rows, cols = mats.shape
    u, s, _ = np.linalg.svd(vec(mats).T, full_matrices=False)
    return unvec(u[:, :relative_rank(s, tol)].T, rows, cols)


def algebra_from_span(mats, tol):
    """The MatrixAlgebra on the span of the given matrices, checked for
    *-closure, multiplicative closure and the identity."""
    basis = orthonormal_matrix_basis(mats, tol)
    if not len(basis):
        raise ValueError("span is empty")
    alg = MatrixAlgebra(basis=basis)
    alg.check_invariants(tol)
    return alg


def transfer_matrix(kraus):
    """Matrix of X -> sum_i K_i X K_i* on column-stacked vectors, that is
    sum_i kron(conj K_i, K_i), from one product over the Kraus index."""
    kraus = np.asarray(kraus, dtype=complex)
    k, m, n = kraus.shape
    flat = kraus.reshape(k, m * n)
    # entry (b m + a, d n + c) of kron(conj K_i, K_i) is conj(K_i[b, d]) K_i[a, c]
    pairs = (flat.conj().T @ flat).reshape(m, n, m, n)
    return pairs.transpose(0, 2, 1, 3).reshape(m * m, n * n)


def fixed_point_domain(psi, tol):
    """Multiplicative domain of a unital trace-preserving map as the
    fixed-point space of dual(psi) o psi: the null space of M* M - I for the
    transfer matrix M of psi, at the absolute cutoff eps_rank."""
    d = psi.input_dim
    transfer = transfer_matrix(psi.kraus)
    fixed = nullspace(transfer.conj().T @ transfer - np.eye(d * d), tol, cutoff=tol.eps_rank)
    return algebra_from_span(unvec(fixed.T, d, d), tol)


def verify_domain_per_element(psi, alg, tol):
    """The domain verification with every bilinear product applied, one
    left factor at a time: the adjoint-product criterion and its mirror on
    every basis element at eps_verify, then psi(A X) = psi(A) psi(X) and
    psi(X A) = psi(X) psi(A) for every basis element A against the
    library's three seeded probes and every basis element X, at eps_verify
    max(1, |A| |X|).  Returns the largest bilinear residual."""
    def norms(mats):
        return np.linalg.norm(mats, axis=(-2, -1))

    d = psi.input_dim
    rng = tol.rng(0xA15E)
    probes = np.stack([rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                       for _ in range(3)])
    probes /= np.maximum(norms(probes), 1.0)[:, None, None]
    basis = alg.basis
    adjoints = basis.conj().transpose(0, 2, 1)
    images, adjoint_images = psi.apply(basis), psi.apply(adjoints)
    res = float(np.max(np.maximum(
        norms(psi.apply(basis @ adjoints) - images @ adjoint_images),
        norms(psi.apply(adjoints @ basis) - adjoint_images @ images))))
    if res > tol.eps_verify:
        raise VerificationFailure(
            f"adjoint-product criterion fails on a basis element, residual {res:.3e}"
        )
    others = np.concatenate([probes, basis])
    other_images = np.concatenate([psi.apply(probes), images])
    other_norms = norms(others)
    worst = 0.0
    for a, image in zip(basis, images):
        res = np.maximum(norms(psi.apply(a @ others) - image @ other_images),
                         norms(psi.apply(others @ a) - other_images @ image))
        if np.any(res > tol.eps_verify * np.maximum(1.0, np.linalg.norm(a) * other_norms)):
            raise VerificationFailure(
                f"bilinear multiplicativity fails, residual {float(np.max(res)):.3e}"
            )
        worst = max(worst, float(np.max(res)))
    return worst


def schwarz_defects(psi, basis):
    """The largest adjoint-product residual over a basis (criterion and
    mirror) and the largest bilinear residual between two basis elements,
    one left factor at a time."""
    def norms(mats):
        return np.linalg.norm(mats, axis=(-2, -1))

    adjoints = basis.conj().transpose(0, 2, 1)
    images, adjoint_images = psi.apply(basis), psi.apply(adjoints)
    criterion = max(float(np.max(norms(psi.apply(basis @ adjoints) - images @ adjoint_images))),
                    float(np.max(norms(psi.apply(adjoints @ basis) - adjoint_images @ images))))
    pairs = max(max(float(np.max(norms(psi.apply(a @ basis) - image @ images))),
                    float(np.max(norms(psi.apply(basis @ a) - images @ image))))
                for a, image in zip(basis, images))
    return criterion, pairs


def subspace_gap(first, second):
    """Largest sine of a principal angle between the spans of two
    Frobenius-orthonormal (r, d, d) stacks: the spectral norm of the part of
    the second basis outside the first span."""
    a = first.reshape(len(first), -1)
    b = second.reshape(len(second), -1)
    return float(np.linalg.norm(b - (b @ a.conj().T) @ a, 2))


def commutant(alg, tol):
    """All matrices commuting with every element of the algebra, via the null
    space of the stacked d^2 x d^2 commutator actions on vec(X)."""
    d = alg.ambient_dim
    eye = np.eye(d)
    stacked = np.vstack([np.kron(eye, b) - np.kron(b.T, eye) for b in alg.basis])
    null = nullspace(stacked, tol)
    return algebra_from_span([unvec(null[:, k], d, d) for k in range(null.shape[1])], tol)


def intersect_spans(first, second, tol):
    """Orthonormal basis of the intersection of two matrix spans, from the
    eigenvalue-1 space of the symmetrized product of their projectors."""
    rows, cols = np.shape(first[0])

    def projector(mats):
        b = np.column_stack([vec(m) for m in mats])
        return b @ b.conj().T

    pa, pb = projector(first), projector(second)
    kernel = nullspace((pa @ pb + pb @ pa) / 2.0 - np.eye(rows * cols), tol)
    return [unvec(kernel[:, k], rows, cols) for k in range(kernel.shape[1])]


def random_density(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_complex_matrix(rows, cols, rng):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def top_left_singular_vectors(ops):
    """The top left singular vector of each operator of an (r, m, n) stack,
    rotated by a phase so its largest-modulus entry is real positive."""
    left = np.linalg.svd(ops)[0][:, :, 0]
    pivots = left[np.arange(len(left)), np.argmax(np.abs(left), axis=1)]
    return left * (np.abs(pivots) / pivots)[:, None]


def perturbed_planted(n, eps, seed, tol):
    """A planted entanglement-breaking n x n channel, perturbed as by
    :func:`perturbed`."""
    return perturbed(random_projection_choi_channel(n, n, seed, tol, ensure_eb=True),
                     eps, seed, tol)


def perturbed(channel, eps, seed, tol):
    """The channel's Kraus stack plus eps times one whole-stack complex
    Gaussian draw from default_rng(100 + seed), re-normalized by
    (sum K*K)^(-1/2)."""
    ops = channel.kraus
    rng = np.random.default_rng(100 + seed)
    ops = ops + eps * (rng.standard_normal(ops.shape) + 1j * rng.standard_normal(ops.shape))
    evals, evecs = np.linalg.eigh(np.einsum("kji,kjl->il", ops.conj(), ops))
    return KrausChannel(ops @ (evecs / np.sqrt(evals)) @ evecs.conj().T, tol)


def _inverse_sqrt(gram):
    evals, evecs = np.linalg.eigh(gram)
    return (evecs / np.sqrt(evals)) @ evecs.conj().T


def block_unital_complement(sizes, j, seed, tol, kraus_count=3):
    """Complement of a unital channel with Kraus operators
    U (sum_q l_a^(q) (x) I_j) V: each block stack l^(q) of size s_q is a
    complex Gaussian draw scaled to sum l* l = sum l l* = I (operator
    Sinkhorn scaling), and U, V are random unitaries.  The interaction
    algebra of its complement adjoint is the direct sum of the M_{s_q} (x) I_j,
    so its multiplicative domain has the block pairs (s_q, j)."""
    rng = np.random.default_rng(seed)
    dim = j * sum(sizes)
    ops = np.zeros((kraus_count, dim, dim), dtype=complex)
    start = 0
    for size in sizes:
        block = random_complex_matrix(kraus_count * size, size, rng).reshape(kraus_count, size, size)
        for _ in range(1000):
            block = block @ _inverse_sqrt(np.einsum("kab,kac->bc", block.conj(), block))
            block = _inverse_sqrt(np.einsum("kab,kcb->ac", block, block.conj())) @ block
            if np.linalg.norm(np.einsum("kab,kac->bc", block.conj(), block) - np.eye(size)) < 1e-14:
                break
        stop = start + size * j
        ops[:, start:stop, start:stop] = [np.kron(b, np.eye(j)) for b in block]
        start = stop
    ops = random_unitary(dim, rng) @ ops @ random_unitary(dim, rng)
    return complement_from_kraus(ops, tol)
