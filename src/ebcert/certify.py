"""Entanglement-breaking certification for channels whose Choi matrix is a
projection, with an explicit minimal rank-one Kraus decomposition as the
certificate.

The decision pipeline: reduce the channel to its minimal Kraus set, form the
complement adjoint (unital and trace preserving exactly in the projection
class), compute its multiplicative domain, and read off the block structure.
A multiplicity-free structure yields rank-one projections resolving the
identity, whose vectors w_i recombine the minimal Kraus operators into
rank-one ones, certifying entanglement breaking at length equal to the Choi
rank; a repeated tensor factor refutes it.  The refutation is cross-checked
against the partial-transpose criterion, an independent oracle that plays no
part in the decision itself.

Channels with a scaled-projection Choi matrix are refused rather than
guessed: the equivalence between entanglement breaking and a multiplicity
free domain genuinely fails there (the transpose-plus-trace channel is the
standard counterexample), so the certifier's contract is the projection
class exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .algebra import multiplicative_domain, rank_one_resolution, structure
from .channel import (
    ChoiClass,
    CPMap,
    KrausChannel,
    choi,
    complement_adjoint,
    complement_adjoint_apply,
    complement_from_kraus,
    is_minimal,
    minimal_kraus,
)
from .errors import (
    NotEntanglementBreaking,
    NotMinimalKraus,
    NotOrthonormal,
    OutOfScope,
    RankFailure,
    ResolutionFailure,
    VerificationFailure,
)
from .numerics import (
    ToleranceConfig,
    _tol,
    as_hermitian,
    as_matrix,
    frob,
    phase_fix,
)


@dataclass(frozen=True)
class EBCertificate:
    """Verified witness that a channel is entanglement breaking at minimal
    length.  The vectors and operators are held as read-only stacks, one row
    per rank-one term, so iterating over a stack gives the vectors or
    operators; r is the length, d the Choi rank, n and m the input and
    output dimensions.

    w               (r, d) resolution vectors: sum_i w_i w_i* = I on the Choi-rank space
    v               (r, n) input-side vectors: the complement adjoint maps w_i w_i* to v_i v_i*
    u               (r, m) output-side unit vectors
    rank_one_kraus  (r, m, n) the operators u_i v_i*, a Kraus set for the channel
    eb_rank         minimal rank-one Kraus count, equal to the Choi rank here
    residuals       measured residuals of every certificate invariant
    """

    w: np.ndarray
    v: np.ndarray
    u: np.ndarray
    rank_one_kraus: np.ndarray
    eb_rank: int
    choi_rank: int
    residuals: dict[str, float]

    def __post_init__(self):
        for name in ("w", "v", "u", "rank_one_kraus"):
            # np.array copies, so caller-owned arrays stay writable
            stack = np.array(getattr(self, name), dtype=complex)
            stack.setflags(write=False)
            object.__setattr__(self, name, stack)

    @property
    def r(self) -> int:
        return len(self.w)

    def channel(self, tol: ToleranceConfig | None = None) -> KrausChannel:
        """The channel rebuilt from the rank-one Kraus operators."""
        return KrausChannel(self.rank_one_kraus, tol)

    def to_json_dict(self) -> dict:
        def vecs(stack):
            return np.stack([stack.real, stack.imag], axis=-1).tolist()

        return {
            "r": self.r,
            "w": vecs(self.w),
            "v": vecs(self.v),
            "u": vecs(self.u),
            "eb_rank": self.eb_rank,
            "choi_rank": self.choi_rank,
            "residuals": {k: float(val) for k, val in self.residuals.items()},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EBCertificate":
        def unvecs(raw):
            # each [re, im] pair reinterpreted as one complex number
            return np.asarray(raw, dtype=float).view(complex)[..., 0]

        w, v, u = unvecs(data["w"]), unvecs(data["v"]), unvecs(data["u"])
        return cls(w=w, v=v, u=u, rank_one_kraus=_dyads(u, v),
                   eb_rank=int(data["eb_rank"]), choi_rank=int(data["choi_rank"]),
                   residuals={k: float(val) for k, val in data.get("residuals", {}).items()})


def _dyads(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The outer products a_i b_i* of the rows of two stacks."""
    return a[:, :, None] * b.conj()[:, None, :]


def combine_kraus(kraus, weights) -> np.ndarray:
    """Weighted sums sum_j c_j K_j of Kraus operators, for one weight vector
    or for each row of a matrix of weights; with conjugated
    resolution-vector weights this produces the recombined operators of a
    certificate."""
    kraus = np.asarray(kraus, dtype=complex)
    weights = np.asarray(weights, dtype=complex)
    if weights.shape[-1] != len(kraus):
        raise ValueError("one weight per Kraus operator is required")
    return np.tensordot(weights, kraus, axes=1)


def verify_eb_witness(minimal: CPMap, w, tol: ToleranceConfig | None = None) -> np.ndarray:
    """Check a candidate witness against a channel in minimal Kraus form.

    The rows w_i of the (r, d) witness must resolve the identity on the
    Choi-rank space, and each combined operator sum_j conj(w_ij) K_j must
    have rank at most one.  On acceptance returns the (r, n) stack of
    vectors v_i with adjoint image v_i v_i*, phase-canonicalized; a valid
    witness of length r bounds the entanglement-breaking rank by r.  Raises
    ResolutionFailure or RankFailure(i) otherwise.
    """
    t = _tol(tol)
    if not is_minimal(minimal, t):
        raise NotMinimalKraus("witness verification requires a minimal Kraus set")
    d = len(minimal)
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[1] != d:
        raise ValueError(f"witness vectors must have length {d}")
    residual = frob(w.T @ w.conj() - np.eye(d))
    if residual > t.eps_verify:
        raise ResolutionFailure(residual)

    # the adjoint image K* K of a combined operator K has the squared
    # singular values of K, and its top eigenvector is K's first right
    # singular vector; ranks follow the relative cutoff of numerical_rank
    _, svals, vh = np.linalg.svd(combine_kraus(minimal.kraus, w.conj()), full_matrices=False)
    squares = svals**2
    top = squares[:, :1]
    ranks = np.where(top[:, 0] > t.eps_rank, np.sum(squares > t.eps_rank * top, axis=1), 0)
    high = np.flatnonzero(ranks > 1)
    if high.size:
        raise RankFailure(int(high[0]), int(ranks[high[0]]))
    return np.where(ranks[:, None] == 1, svals[:, :1], 0.0) * phase_fix(vh[:, 0].conj())


def certify(channel: KrausChannel, tol: ToleranceConfig | None = None) -> EBCertificate:
    """Decide entanglement breaking for a projection-Choi channel and emit a
    verified certificate of minimal length.

    Raises OutOfScope for scaled-projection or unclassified Choi matrices,
    NotEntanglementBreaking (with the structure witness and an independent
    partial-transpose cross-check) on refutation, and VerificationFailure if
    any internal consistency check breaks, which is always a bug or a
    tolerance breach rather than a property of the channel.
    """
    t = _tol(tol)
    report = choi(channel, t)
    if report.classification is not ChoiClass.PROJECTION:
        raise OutOfScope(report.classification.value, report.alpha)

    minimal = channel.with_kraus(report.kraus, t)
    d = len(minimal)
    adjoint = complement_adjoint(minimal, t)
    domain = multiplicative_domain(adjoint, t)
    struct = structure(domain, t)
    if not struct.multiplicity_free:
        ppt_ok = is_ppt(report.choi, channel.input_dim, channel.output_dim, t)
        raise NotEntanglementBreaking(struct.pairs(), ppt_violated=not ppt_ok)

    w = np.array(rank_one_resolution(domain, struct, t))
    try:
        v = verify_eb_witness(minimal, w, t)
    except (ResolutionFailure, RankFailure) as exc:
        raise VerificationFailure(
            f"multiplicity-free domain produced an invalid witness: {exc}"
        ) from exc

    # op_i = u_i v_i* with u_i a unit vector, so op_i v_i = |v_i|^2 u_i; the
    # phase of u_i is fixed so certificates are reproducible, and
    # verify_certificate checks both relations
    ops = combine_kraus(minimal.kraus, w.conj())
    u = phase_fix(np.einsum("imn,in->im", ops, v) / np.sum(np.abs(v) ** 2, axis=1)[:, None])
    v = np.einsum("imn,im->in", ops.conj(), u)

    cert = EBCertificate(
        w=w, v=v, u=u, rank_one_kraus=ops, eb_rank=d, choi_rank=d, residuals={},
    )
    residuals = verify_certificate(cert, channel, t)
    return dataclasses.replace(cert, residuals=residuals)


def verify_certificate(cert: EBCertificate, channel: KrausChannel,
                       tol: ToleranceConfig | None = None) -> dict[str, float]:
    """Re-check every certificate invariant from scratch, independently of
    how the certificate was assembled.  Returns the measured residuals and
    raises VerificationFailure past tolerance."""
    t = _tol(tol)
    n, m = channel.input_dim, channel.output_dim
    d = cert.choi_rank
    minimal = minimal_kraus(channel, t)
    if len(minimal) != d:
        raise VerificationFailure(
            f"certificate claims Choi rank {d}, channel has {len(minimal)}"
        )

    w, v, u = cert.w, cert.v, cert.u
    residuals: dict[str, float] = {}
    residuals["resolution"] = frob(w.T @ w.conj() - np.eye(d))
    residuals["adjoint_rank_one"] = float(np.max(np.linalg.norm(
        complement_adjoint_apply(minimal, _dyads(w, w), t) - _dyads(v, v), axis=(1, 2))))
    residuals["input_resolution"] = frob(v.T @ v.conj() - np.eye(n))
    residuals["unit_norm"] = float(np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)))
    residuals["factorization"] = float(np.max(np.linalg.norm(
        cert.rank_one_kraus - _dyads(u, v), axis=(1, 2))))
    residuals["norm_match"] = float(np.max(np.abs(
        np.linalg.norm(w, axis=1) - np.linalg.norm(v, axis=1))))
    rebuilt = KrausChannel(cert.rank_one_kraus, t)
    residuals["choi_match"] = frob(rebuilt.choi_matrix() - channel.choi_matrix())

    bounds = {
        "resolution": t.eps_verify,
        "adjoint_rank_one": t.eps_verify,
        "input_resolution": t.eps_verify,
        "unit_norm": t.eps_verify,
        "factorization": t.eps_verify,
        "norm_match": t.eps_verify,
        "choi_match": t.eps_verify * max(1.0, n),
    }
    bad = {k: val for k, val in residuals.items() if val > bounds[k]}
    if bad:
        raise VerificationFailure(f"certificate invariants out of tolerance: {bad}")
    if not (cert.r == cert.eb_rank == cert.choi_rank == d):
        raise VerificationFailure(
            f"length {cert.r}, eb_rank {cert.eb_rank} and choi_rank {cert.choi_rank} must agree"
        )
    return residuals


@dataclass(frozen=True)
class SchurNormalForm:
    """Presentation of a certified channel as the complement of an entrywise
    product channel: after the input rotation ``basis_change`` the complement
    multiplies entry (i, j) by the conjugate of ``correlation[i, j]``, the
    Gram matrix of the certificate's output vectors."""

    basis_change: np.ndarray
    correlation: np.ndarray
    residual: float


def schur_normal_form(cert: EBCertificate, channel: KrausChannel,
                      tol: ToleranceConfig | None = None) -> SchurNormalForm:
    """Extract the entrywise-product normal form from a certificate with
    length equal to the input dimension.

    The input-side vectors of such a certificate are forced to be an
    orthonormal basis (that is the only way this many rank-one operators can
    resolve the identity); a failure of that check means the certificate is
    corrupted.  The recovered data is verified on every matrix unit against
    the complement of the rotated channel.
    """
    t = _tol(tol)
    n, m = channel.input_dim, channel.output_dim
    if not (cert.r == cert.choi_rank == n):
        raise ValueError(
            f"normal form needs certificate length = Choi rank = input dimension, "
            f"got r={cert.r}, choi_rank={cert.choi_rank}, n={n}"
        )
    basis = cert.v.T
    ortho_residual = frob(basis.conj().T @ basis - np.eye(n))
    if ortho_residual > t.eps_verify:
        raise NotOrthonormal(
            f"input-side vectors fail orthonormality by {ortho_residual:.3e}"
        )
    gram = cert.u.conj() @ cert.u.T

    # Kraus set of the rotated channel X -> Phi(V X V*) induced by the
    # certificate; anchor it to the real channel through the Choi matrix.
    rotated = _dyads(cert.u, np.eye(n))
    direct = minimal_kraus(channel, t).kraus @ basis
    anchor = frob(CPMap(rotated, t).choi_matrix() - CPMap(direct, t).choi_matrix())
    if anchor > t.eps_verify * max(1.0, n):
        raise VerificationFailure(
            f"certificate Kraus set does not reproduce the rotated channel: {anchor:.3e}"
        )

    comp = complement_from_kraus(rotated, t)
    units = np.eye(n * n).reshape(n * n, n, n)
    expected = gram.conj().reshape(n * n, 1, 1) * units
    residual = float(np.max(np.linalg.norm(comp.apply(units) - expected, axis=(1, 2))))
    if residual > t.eps_verify:
        raise VerificationFailure(
            f"complement of the rotated channel is not the entrywise product map: {residual:.3e}"
        )
    return SchurNormalForm(basis_change=basis, correlation=gram, residual=residual)


@dataclass(frozen=True)
class EBRankReport:
    """Entanglement-breaking rank verdict.

    status is "certified" when a certificate proves the value (the lower
    bound being the dimension count: no fewer rank-one operators can resolve
    the identity), or "cited" when the value is only quoted for a recognized
    family without a certificate."""

    value: int
    status: str
    certificate: EBCertificate | None
    classification: str
    note: str


def eb_rank(channel: KrausChannel, tol: ToleranceConfig | None = None) -> EBRankReport:
    """Entanglement-breaking rank of a channel, when this package can
    determine or quote it.

    Projection-Choi channels are certified (value = Choi rank) or refuted.
    The completely depolarizing and transpose-plus-trace families are
    recognized by their Choi matrices and reported with their known ranks,
    flagged "cited, unverified"; other scaled-projection channels are
    refused as out of scope.
    """
    t = _tol(tol)
    try:
        cert = certify(channel, t)
    except OutOfScope as refusal:
        family = _recognize_family(channel, t)
        if family is not None:
            name, value = family
            return EBRankReport(
                value=value, status="cited", certificate=None,
                classification=refusal.classification,
                note=f"{name} channel: rank {value} cited, unverified",
            )
        raise
    return EBRankReport(
        value=cert.eb_rank, status="certified", certificate=cert,
        classification=ChoiClass.PROJECTION.value,
        note="certified: rank-one decomposition of length equal to the Choi rank",
    )


def _recognize_family(channel: KrausChannel, t: ToleranceConfig) -> tuple[str, int] | None:
    """Match the Choi matrix against the two families with externally known
    entanglement-breaking ranks."""
    n, m = channel.input_dim, channel.output_dim
    if n != m:
        return None
    j = channel.choi_matrix()
    if frob(j - np.eye(n * n) / n) <= t.eps_verify * n:
        return "completely depolarizing", n * n
    swap = np.eye(n * n).reshape(n, n, n, n).transpose(1, 0, 2, 3).reshape(n * n, n * n)
    if frob(j - (np.eye(n * n) + swap) / (n + 1)) <= t.eps_verify * n:
        return "transpose-plus-trace", n * n
    return None


def partial_transpose(j, n: int, m: int) -> np.ndarray:
    """Transpose the first (n-dimensional) factor of an nm x nm block matrix."""
    j = as_matrix(j)
    if j.shape != (n * m, n * m):
        raise ValueError(f"matrix must be {n * m}x{n * m}, got {j.shape}")
    return j.reshape(n, m, n, m).transpose(2, 1, 0, 3).reshape(n * m, n * m)


def is_ppt(j, n: int, m: int, tol: ToleranceConfig | None = None) -> bool:
    """Positive partial transpose check, used only as an independent
    cross-validation oracle for refutations; a negative partial transpose
    certifies that the Choi matrix is not separable."""
    t = _tol(tol)
    evals = np.linalg.eigvalsh(as_hermitian(partial_transpose(j, n, m), t))
    scale = max(1.0, float(np.max(np.abs(evals)))) if evals.size else 1.0
    return bool(evals[0] >= -t.eps_verify * scale)
