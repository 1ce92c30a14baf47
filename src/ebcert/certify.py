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
    as_matrix,
    frob,
    hermitian_eig,
    numerical_rank,
    phase_fix,
)


@dataclass(frozen=True)
class EBCertificate:
    """Verified witness that a channel is entanglement breaking at minimal
    length.

    w               resolution vectors: sum_i w_i w_i* = I on the Choi-rank space
    v               input-side vectors: the complement adjoint maps w_i w_i* to v_i v_i*
    u               output-side unit vectors
    rank_one_kraus  the operators u_i v_i*, a Kraus set for the channel
    eb_rank         minimal rank-one Kraus count, equal to the Choi rank here
    residuals       measured residuals of every certificate invariant
    """

    w: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]
    u: tuple[np.ndarray, ...]
    rank_one_kraus: tuple[np.ndarray, ...]
    eb_rank: int
    choi_rank: int
    residuals: dict[str, float]

    @property
    def r(self) -> int:
        return len(self.w)

    def channel(self, tol: ToleranceConfig | None = None) -> KrausChannel:
        """The channel rebuilt from the rank-one Kraus operators."""
        return KrausChannel(self.rank_one_kraus, tol)

    def to_json_dict(self) -> dict:
        def vecs(vs):
            return [[[float(z.real), float(z.imag)] for z in v] for v in vs]

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
            return tuple(np.array([complex(re, im) for re, im in v]) for v in raw)

        w, v, u = unvecs(data["w"]), unvecs(data["v"]), unvecs(data["u"])
        ops = tuple(np.outer(ui, vi.conj()) for ui, vi in zip(u, v))
        return cls(w=w, v=v, u=u, rank_one_kraus=ops,
                   eb_rank=int(data["eb_rank"]), choi_rank=int(data["choi_rank"]),
                   residuals={k: float(val) for k, val in data.get("residuals", {}).items()})


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


def verify_eb_witness(minimal: CPMap, w_list, tol: ToleranceConfig | None = None) -> list[np.ndarray]:
    """Check a candidate witness against a channel in minimal Kraus form.

    The vectors must resolve the identity on the Choi-rank space, and each
    combined operator sum_j conj(w_ij) K_j must have rank at most one.  On
    acceptance returns the vectors v_i with adjoint image v_i v_i*,
    phase-canonicalized; a valid witness of length r bounds the
    entanglement-breaking rank by r.  Raises ResolutionFailure or
    RankFailure(i) otherwise.
    """
    t = _tol(tol)
    if not is_minimal(minimal, t):
        raise NotMinimalKraus("witness verification requires a minimal Kraus set")
    d = len(minimal)
    vectors = [np.asarray(w, dtype=complex).reshape(-1) for w in w_list]
    if any(w.size != d for w in vectors):
        raise ValueError(f"witness vectors must have length {d}")
    total = sum(np.outer(w, w.conj()) for w in vectors)
    residual = frob(total - np.eye(d))
    if residual > t.eps_verify:
        raise ResolutionFailure(residual)

    combined = combine_kraus(minimal.kraus, np.conj(vectors))
    images = []
    for i, image in enumerate(combined.conj().transpose(0, 2, 1) @ combined):
        rank = numerical_rank(image, t)
        if rank > 1:
            raise RankFailure(i, rank)
        if rank == 0:
            images.append(np.zeros(minimal.input_dim, dtype=complex))
            continue
        evals, evecs = hermitian_eig(image, t)
        images.append(np.sqrt(max(evals[0], 0.0)) * phase_fix(evecs[:, 0]))
    return images


def _split_rank_one(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a rank-one matrix as (unit u, v) with op = u v*; the phase of u
    is fixed so certificates are reproducible."""
    left, svals, _ = np.linalg.svd(op)
    u = phase_fix(left[:, 0])
    v = op.conj().T @ u
    return u, v


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

    w_list = rank_one_resolution(domain, struct, t)
    try:
        v_witness = verify_eb_witness(minimal, w_list, t)
    except (ResolutionFailure, RankFailure) as exc:
        raise VerificationFailure(
            f"multiplicity-free domain produced an invalid witness: {exc}"
        ) from exc

    ops = combine_kraus(minimal.kraus, np.conj(w_list))
    u_list, v_list = [], []
    for i, op in enumerate(ops):
        u, v = _split_rank_one(op)
        mismatch = frob(np.outer(v, v.conj()) - np.outer(v_witness[i], v_witness[i].conj()))
        if mismatch > t.eps_verify:
            raise VerificationFailure(
                f"factorization and adjoint image disagree on vector {i}: {mismatch:.3e}"
            )
        u_list.append(u)
        v_list.append(v)

    cert = EBCertificate(
        w=tuple(w_list), v=tuple(v_list), u=tuple(u_list),
        rank_one_kraus=tuple(ops), eb_rank=d, choi_rank=d, residuals={},
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

    residuals: dict[str, float] = {}
    residuals["resolution"] = frob(
        sum(np.outer(w, w.conj()) for w in cert.w) - np.eye(d)
    )
    dyads = np.stack([np.outer(w, w.conj()) for w in cert.w])
    images = np.stack([np.outer(v, v.conj()) for v in cert.v])
    residuals["adjoint_rank_one"] = float(np.max(np.linalg.norm(
        complement_adjoint_apply(minimal, dyads, t) - images, axis=(1, 2))))
    residuals["input_resolution"] = frob(
        sum(np.outer(v, v.conj()) for v in cert.v) - np.eye(n)
    )
    residuals["unit_norm"] = max(abs(float(np.linalg.norm(u)) - 1.0) for u in cert.u)
    residuals["factorization"] = max(
        frob(op - np.outer(u, v.conj()))
        for op, u, v in zip(cert.rank_one_kraus, cert.u, cert.v)
    )
    residuals["norm_match"] = max(
        abs(float(np.linalg.norm(w)) - float(np.linalg.norm(v)))
        for w, v in zip(cert.w, cert.v)
    )
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
    basis = np.column_stack(cert.v)
    ortho_residual = frob(basis.conj().T @ basis - np.eye(n))
    if ortho_residual > t.eps_verify:
        raise NotOrthonormal(
            f"input-side vectors fail orthonormality by {ortho_residual:.3e}"
        )
    gram = np.empty((n, n), dtype=complex)
    for i, ui in enumerate(cert.u):
        for j, uj in enumerate(cert.u):
            gram[i, j] = np.vdot(ui, uj)

    # Kraus set of the rotated channel X -> Phi(V X V*) induced by the
    # certificate; anchor it to the real channel through the Choi matrix.
    rotated = [np.outer(u, e.conj()) for u, e in zip(cert.u, np.eye(n))]
    direct = minimal_kraus(channel, t).kraus @ basis
    anchor = frob(CPMap(rotated, t).choi_matrix() - CPMap(direct, t).choi_matrix())
    if anchor > t.eps_verify * max(1.0, n):
        raise VerificationFailure(
            f"certificate Kraus set does not reproduce the rotated channel: {anchor:.3e}"
        )

    comp = complement_from_kraus(rotated, t)
    residual = 0.0
    for a in range(n):
        for b in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[a, b] = 1.0
            expected = np.conj(gram[a, b]) * unit
            residual = max(residual, frob(comp.apply(unit) - expected))
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
    swap = np.zeros((n * n, n * n))
    for i in range(n):
        for k in range(n):
            swap[i * n + k, k * n + i] = 1.0
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
    evals, _ = hermitian_eig(partial_transpose(j, n, m), t)
    scale = max(1.0, float(np.max(np.abs(evals)))) if evals.size else 1.0
    return bool(evals[-1] >= -t.eps_verify * scale)
