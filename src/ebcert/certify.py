"""Entanglement-breaking certification for channels whose Choi matrix is a
projection, with an explicit minimal rank-one Kraus decomposition as the
certificate.

The decision pipeline: reduce the channel to its minimal Kraus set, whose
complement adjoint psi is unital and trace preserving exactly in the
projection class.  The multiplicative domain of psi is the commutant of the
algebra A generated by the Kraus operators L_b L_a* of dual(psi) o psi
(Kribs 2003), so it is multiplicity free exactly when A is abelian.  Generic
Hermitian elements of span{L_b L_a*} decide that, in the routine ``analyze``
builds its domain from (:func:`ebcert.algebra._decide`): a relative
commutator |ab - ba| / (|a| |b|) of the first two draws above sqrt(eps_eig)
refutes, with the domain's block pairs, read from those two draws unless
their eigenvalue clusters are unreadable; only then, or when the two commute,
are the other six draws formed.  When they commute, the eigenvectors w_i of
one of the eight elements give rank-one projections in the domain resolving
the identity, and they recombine the minimal Kraus operators into rank-one
ones u_i v_i*, u_i from one power step, certifying entanglement breaking at
length equal to the Choi rank.  The only acceptance gate is the checks of
:func:`verify_certificate`, run on the recombined operators certify already
holds (the standalone function rebuilds them from the channel), and a
refutation is cross-checked against the partial-transpose criterion, an
independent oracle that plays no part in the decision itself, by a
matrix-free search for a negative direction (:func:`npt_witness`).
Neither the domain, nor any d^2 x d^2 operator, nor the nm x nm Choi matrix
is formed.

Channels with a scaled-projection Choi matrix are refused rather than
guessed: the equivalence between entanglement breaking and a multiplicity
free domain genuinely fails there (the transpose-plus-trace channel is the
standard counterexample), so the certifier's contract is the projection
class exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _decide, interaction_draws
from .channel import (
    ChoiClass,
    ChoiReport,
    ChoiSpectrum,
    CPMap,
    KrausChannel,
    choi,
    choi_spectrum,
    is_minimal,
)
from .errors import (
    NotEntanglementBreaking,
    NotMinimalKraus,
    NotOrthonormal,
    NotTracePreserving,
    OutOfScope,
    RankFailure,
    ResolutionFailure,
    VerificationFailure,
)
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_hermitian,
    as_matrix,
    eigh_descending,
    frob,
    frob_each,
    from_pairs,
    json_int,
    phase_fix,
    to_pairs,
    unvec,
    vec,
)


@dataclass(frozen=True)
class EBCertificate:
    """Verified witness that a channel is entanglement breaking at minimal
    length.  The vectors are held as read-only stacks, one row per rank-one
    term, so iterating over a stack gives the vectors; r is the length, d
    the Choi rank, n and m the input and output dimensions.

    w               (r, d) resolution vectors: sum_i w_i w_i* = I on the Choi-rank space
    v               (r, n) input-side vectors: the complement adjoint maps w_i w_i* to v_i v_i*
    u               (r, m) output-side unit vectors
    residuals       measured residuals of every certificate invariant

    Everything else is derived from the three stacks, so a certificate held
    in memory and the same one read back from JSON are one object.
    """

    w: np.ndarray
    v: np.ndarray
    u: np.ndarray
    residuals: dict[str, float]

    def __post_init__(self):
        for name in ("w", "v", "u"):
            # np.array copies, so caller-owned arrays stay writable
            stack = np.array(getattr(self, name), dtype=complex)
            stack.setflags(write=False)
            object.__setattr__(self, name, stack)

    @property
    def r(self) -> int:
        return len(self.w)

    @property
    def eb_rank(self) -> int:  # the minimal rank-one Kraus count
        return self.r

    @property
    def choi_rank(self) -> int:  # d, the dimension of the space the w_i resolve
        return self.w.shape[1]

    @property
    def rank_one_kraus(self) -> np.ndarray:
        """The (r, m, n) operators u_i v_i*, a Kraus set for the channel."""
        return _dyads(self.u, self.v)

    def channel(self, tol: ToleranceConfig = DEFAULT_TOL) -> KrausChannel:
        """The channel rebuilt from the rank-one Kraus operators."""
        return KrausChannel(self.rank_one_kraus, tol)

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "w": to_pairs(self.w),
            "v": to_pairs(self.v),
            "u": to_pairs(self.u),
            "eb_rank": self.eb_rank,
            "choi_rank": self.choi_rank,
            "residuals": {k: float(val) for k, val in self.residuals.items()},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EBCertificate":
        """Rebuild a certificate, rejecting one whose length, ranks and
        stack shapes disagree; data that is not a certificate's mapping,
        misses a key or holds a bad length or residual raises ValueError."""
        try:
            r, eb, cr = (json_int(data[key], key) for key in ("r", "eb_rank", "choi_rank"))
            w, v, u = data["w"], data["v"], data["u"]
            residuals = {k: float(val) for k, val in data.get("residuals", {}).items()}
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"malformed certificate data: {exc}") from exc
        if eb != r or cr != r:
            raise ValueError(f"certificate of length {r} claims eb_rank {eb} and choi_rank {cr}")
        return cls(w=from_pairs(w, (r, r)), v=from_pairs(v, (r, None)),
                   u=from_pairs(u, (r, None)), residuals=residuals)


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
    return (weights @ kraus.reshape(len(kraus), -1)).reshape(*weights.shape[:-1], *kraus.shape[1:])


def verify_eb_witness(minimal: CPMap, w, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Check a candidate witness against a channel in minimal Kraus form.

    The rows w_i of the (r, d) witness must resolve the identity on the
    Choi-rank space, and each combined operator sum_j conj(w_ij) K_j must
    have rank at most one.  On acceptance returns the (r, n) stack of
    vectors v_i with adjoint image v_i v_i*, phase-canonicalized; a valid
    witness of length r bounds the entanglement-breaking rank by r.  Raises
    ResolutionFailure or RankFailure(i) otherwise.
    """
    if not is_minimal(minimal, tol):
        raise NotMinimalKraus("witness verification requires a minimal Kraus set")
    d = len(minimal)
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[1] != d:
        raise ValueError(f"witness vectors must have length {d}")
    w = as_matrix(w)  # rejects NaN and infinity
    residual = frob(w.T @ w.conj() - np.eye(d))
    if residual > tol.eps_verify:
        raise ResolutionFailure(residual)

    # the adjoint image K* K of a combined operator K has the squared
    # singular values of K, and its top eigenvector is K's first right
    # singular vector; ranks follow the relative cutoff of numerical_rank
    _, svals, vh = np.linalg.svd(combine_kraus(minimal.kraus, w.conj()), full_matrices=False)
    squares = svals**2
    top = squares[:, :1]
    ranks = np.where(top[:, 0] > tol.eps_rank, np.sum(squares > tol.eps_rank * top, axis=1), 0)
    high = np.flatnonzero(ranks > 1)
    if high.size:
        raise RankFailure(int(high[0]), int(ranks[high[0]]))
    return np.where(ranks[:, None] == 1, svals[:, :1], 0.0) * phase_fix(vh[:, 0].conj())


def certify(channel: KrausChannel, tol: ToleranceConfig = DEFAULT_TOL) -> EBCertificate:
    """Decide entanglement breaking for a projection-Choi channel and emit a
    verified certificate of minimal length.

    Raises NotTracePreserving for a map that is not a channel, OutOfScope for
    scaled-projection or unclassified Choi matrices, NotEntanglementBreaking
    (with the domain's block pairs, the commutator against its bound and an
    independent partial-transpose witness with its margin) on refutation, and
    VerificationFailure if any internal consistency check breaks, which is
    always a bug or a tolerance breach rather than a property of the channel.

    The minimal set M is read as :func:`choi` built it, and its trace
    preservation is not checked again: its sum K_i* K_i is the transposed
    output partial trace of its Choi matrix M M*,
    and |Tr_out X|_F <= tr X for X >= 0, so its residual is the input's up
    to the Choi weight dropped below the rank cutoff, none for a minimal
    input.  The emitted {u_i v_i*} is bounded on its own, its sum K* K being
    sum |u_i|^2 v_i v_i* (``input_resolution``, ``unit_norm``), and
    ``choi_match`` ties it to the input through ``choi``'s reconstruction
    residual (see :func:`_certificate_residuals`).
    """
    if not channel.trace_preserving:
        raise NotTracePreserving(channel.tp_residual)
    report = choi(channel, tol)
    if report.classification is not ChoiClass.PROJECTION:
        raise OutOfScope(report.classification.value, report.alpha)

    decision = _decide(interaction_draws(report.kraus, tol), tol)
    if not decision.multiplicity_free:
        witness = npt_witness(channel.kraus, tol)
        raise NotEntanglementBreaking(
            decision.pairs, ppt_violated=witness is not None,
            commutator=decision.kappa, bound=decision.bound,
            witness_quotient=None if witness is None else witness.quotient,
            witness_bound=None if witness is None else witness.bound)

    # op_i = u_i v_i*; that op_i has rank one is for the gate to check
    w = decision.evecs.T  # rows w_1..w_d
    ops = combine_kraus(report.kraus, w.conj())
    u = _left_vectors(ops)
    v = _adjoint_images(ops, u)

    return EBCertificate(w=w, v=v, u=u, residuals=_certificate_residuals(w, v, u, ops, report, tol))


def _adjoint_images(ops: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The vectors op_i* y_i, for a stack of operators and one row y_i each,
    as conj(y_i* op_i): no conjugated copy of the stack."""
    return (y.conj()[:, None, :] @ ops)[:, 0, :].conj()


def _left_vectors(ops: np.ndarray) -> np.ndarray:
    """One power step op op* c from each operator's largest column c, normalized and
    phase fixed so certificates are reproducible; zero for a zero operator."""
    c = ops[np.arange(len(ops)), :, np.argmax(np.linalg.norm(ops, axis=1), axis=1)]
    y = (ops @ _adjoint_images(ops, c)[:, :, None])[:, :, 0]
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    return phase_fix(np.divide(y, norms, out=np.zeros_like(y), where=norms > 0))


def verify_certificate(cert: EBCertificate, channel: KrausChannel,
                       tol: ToleranceConfig = DEFAULT_TOL) -> dict[str, float]:
    """Re-check every certificate invariant against the minimal Kraus set
    rebuilt from the channel, the checks :func:`certify` accepts through.
    Returns the residuals; raises VerificationFailure on a Choi rank, a Choi
    class other than projection (the certifier's contract, and the class in
    which ``choi_match`` is measured) or a stack shape that does not fit the
    channel, or on a residual out of bound or NaN."""
    report = choi(channel, tol)
    d, rank = cert.choi_rank, report.choi_rank
    if rank != d:
        raise VerificationFailure(f"certificate claims Choi rank {d}, channel has {rank}")
    if report.classification is not ChoiClass.PROJECTION:
        raise VerificationFailure(f"certificates are checked for projection Choi matrices, "
                                  f"the channel's is {report.classification.value}")
    for name, want in zip("wvu", ((d, d), (d, channel.input_dim), (d, channel.output_dim))):
        stack = getattr(cert, name)
        if stack.shape != want:
            raise VerificationFailure(
                f"certificate stack {name} has shape {stack.shape}, expected {want}")
    combined = combine_kraus(report.kraus, cert.w.conj())
    return _certificate_residuals(cert.w, cert.v, cert.u, combined, report, tol)


def _certificate_residuals(w: np.ndarray, v: np.ndarray, u: np.ndarray, combined: np.ndarray,
                           report: ChoiReport, t: ToleranceConfig) -> dict[str, float]:
    """The checks of :func:`verify_certificate` on the stacks w, v, u of a
    certificate, where ``combined`` holds the operators sum_j conj(w_ij) K_j
    of the minimal Kraus stack of ``report``, the :func:`choi` report of a
    projection-Choi channel.

    ``choi_match`` is |D D* - M M*| + rho, for D the dyads u_i v_i* and M the
    minimal stack as factors of Choi matrices (:func:`_minimal_distance`), and
    rho = |J - M M*| the reconstruction residual ``choi`` checked, for J the
    Choi matrix of the caller's own operators.  By the triangle inequality
    it bounds |D D* - J|, so the gate is anchored to those operators and is
    never weaker than that distance."""
    n, d = v.shape[1], w.shape[1]
    residuals: dict[str, float] = {}
    residuals["resolution"] = frob(w.T @ w.conj() - np.eye(d))
    # the complement adjoint of a dyad: psi(w w*) = A* A for A = sum_j conj(w_j) K_j
    images = combined.conj().transpose(0, 2, 1) @ combined
    residuals["adjoint_rank_one"] = float(np.max(frob_each(images - _dyads(v, v))))
    residuals["input_resolution"] = frob(v.T @ v.conj() - np.eye(n))
    residuals["unit_norm"] = float(np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)))
    dyads = _dyads(u, v)
    residuals["factorization"] = float(np.max(frob_each(combined - dyads)))
    residuals["norm_match"] = float(np.max(np.abs(
        np.linalg.norm(w, axis=1) - np.linalg.norm(v, axis=1))))
    residuals["choi_match"] = _minimal_distance(dyads, report) + report.residual

    # "not <=" rather than ">", so that a NaN residual fails
    bad = {k: val for k, val in residuals.items() if not val <= _residual_bound(k, n, t)}
    if bad:
        raise VerificationFailure(f"certificate invariants out of tolerance: {bad}")
    return residuals


def _minimal_distance(dyads: np.ndarray, report: ChoiReport) -> float:
    """The Frobenius distance |A A* - B B*| between the Choi matrices of the
    (r, m, n) stack ``dyads`` and of the report's minimal (d, m, n) stack,
    measured in the eigenbasis :func:`choi` computed: no QR.

    Lay each stack out as the columns of a factor, A (nm x r) and B (nm x d),
    flattening every operator the same way; a common permutation of the nm
    rows moves neither product's distance.  B* B is Lambda = diag(lambda_i),
    the Choi eigenvalues above the rank cutoff, so Q = B Lambda^(-1/2) has
    orthonormal columns and B B* = Q Lambda Q*.  With X = Q* A (d x r) and
    P = A - Q X, whose columns are orthogonal to those of Q,

        A A* - B B* = Q (X X* - Lambda) Q* + Q X P* + P X* Q* + P P*,

    four terms in the mutually orthogonal blocks Q.Q*, Q.P*, P.Q* and P.P*
    of the Frobenius inner product.  Their squared norms are |X X* - Lambda|^2,
    tr(X P* P X*) = tr(P* P X* X) twice, and tr(P P* P P*) = |P* P|^2, so

        |A A* - B B*|^2 = |X X* - Lambda|^2 + 2 tr(P* P X* X) + |P* P|^2.

    P is formed explicitly, so no terms of size |A|^2 cancel, and the
    operands are three products against d columns.  The identity assumes
    Q* Q = I: the computed Q* Q is Lambda^(-1/2) W_r* G W_r Lambda^(-1/2) for
    the eigenvectors W_r of the Gram matrix G of the given operators, and
    LAPACK's eigenvectors are orthonormal and diagonalize G up to O(eps) |G|, which
    Lambda^(-1/2) keeps O(eps) in the projection class, where every lambda_i
    lies within eps_eig of 1.  The code holds each factor transposed, one
    operator per row: ``x`` is X^T and ``p`` is P^T."""
    kraus = report.kraus.reshape(len(report.kraus), -1)
    rows = dyads.reshape(len(dyads), -1)
    lam = report.eigenvalues[:len(kraus)]
    scale = 1 / np.sqrt(lam)
    x = (rows @ kraus.conj().T) * scale
    p = rows - (x * scale) @ kraus
    defect, gram_p, gram_x = x.conj().T @ x - np.diag(lam), p @ p.conj().T, x @ x.conj().T
    # tr(P* P X* X) = tr(p p* x x*) for the Hermitian p p* and x x*
    square = (np.vdot(defect, defect) + 2 * np.vdot(gram_x, gram_p) + np.vdot(gram_p, gram_p)).real
    return float(np.sqrt(max(square, 0.0)))


def _residual_bound(name: str, n: int, t: ToleranceConfig) -> float:
    """The bound a certificate residual is judged at, for input dimension n:
    eps_verify, and eps_verify max(1, n) for ``choi_match``."""
    return t.eps_verify * (max(1.0, n) if name == "choi_match" else 1.0)


@dataclass(frozen=True)
class SchurNormalForm:
    """Presentation of a certified channel as the complement of an entrywise
    product channel: after the input rotation ``basis_change`` the complement
    multiplies entry (i, j) by the conjugate of ``correlation[i, j]``, the
    Gram matrix of the certificate's output vectors.  ``residual`` is the
    certificate's verified ``choi_match``, a bound on the form's Choi anchor."""

    basis_change: np.ndarray
    correlation: np.ndarray
    residual: float


def schur_normal_form(cert: EBCertificate, channel: KrausChannel,
                      tol: ToleranceConfig = DEFAULT_TOL) -> SchurNormalForm:
    """Extract the entrywise-product normal form from a certificate with
    length equal to the input dimension.

    The input-side vectors of such a certificate are forced to be an
    orthonormal basis V (that is the only way this many rank-one operators
    can resolve the identity); a failure of that check means the certificate
    is corrupted.  The rotated channel X -> Phi(V X V*) has the Kraus set
    {u_i e_i*} = {(u_i v_i*) V}, and a Choi distance does not change under
    an input unitary, so its distance to the caller's operators is the
    certificate's |D D* - J|, which ``choi_match`` bounds: the form is
    checked by :func:`verify_certificate`, with every other certificate
    invariant.  Nothing else depends on the channel: the complement of
    {u_i e_i*} has the diagonal Kraus operators L_a = diag(u_1[a], ..., u_n[a]),
    so it sends the matrix unit E_ij to sum_a u_i[a] conj(u_j[a]) E_ij =
    conj(C_ij) E_ij, C = ``correlation``, by construction; checking that on
    every E_ij would only compare two summation orders of the same inner
    products.
    """
    n = channel.input_dim
    if not (cert.r == cert.choi_rank == n):
        raise ValueError(f"normal form needs certificate length = Choi rank = input dimension, "
                         f"got r={cert.r}, choi_rank={cert.choi_rank}, n={n}")
    basis = cert.v.T
    ortho_residual = frob(basis.conj().T @ basis - np.eye(n))
    if not ortho_residual <= tol.eps_verify:  # so that NaN fails
        raise NotOrthonormal(f"input-side vectors fail orthonormality by {ortho_residual:.3e}")
    residual = verify_certificate(cert, channel, tol)["choi_match"]
    return SchurNormalForm(basis_change=basis, correlation=cert.u.conj() @ cert.u.T,
                           residual=residual)


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


def eb_rank(channel: KrausChannel, tol: ToleranceConfig = DEFAULT_TOL) -> EBRankReport:
    """Entanglement-breaking rank of a channel, when this package can
    determine or quote it.

    After NotTracePreserving for a map that is not a channel, the Choi
    spectrum alone (no eigenvectors) picks the route.  Projection-Choi
    channels are certified (value = Choi rank) or refuted by :func:`certify`.
    Any other channel is matched against the completely depolarizing and
    transpose-plus-trace families by :func:`_recognize_family`, from that
    same spectrum and one pass over the Kraus stack, with no nm x nm matrix;
    a match is reported with the family's known rank, flagged "cited,
    unverified", and anything else is refused as out of scope.
    """
    if not channel.trace_preserving:
        raise NotTracePreserving(channel.tp_residual)
    spectrum = choi_spectrum(channel, tol)
    if spectrum.classification is ChoiClass.PROJECTION:
        cert = certify(channel, tol)
        return EBRankReport(value=cert.eb_rank, status="certified", certificate=cert,
                            classification=ChoiClass.PROJECTION.value,
                            note="certified: rank-one decomposition of length equal to the Choi rank")
    family = _recognize_family(channel, spectrum, tol)
    if family is None:
        raise OutOfScope(spectrum.classification.value, spectrum.alpha)
    name, value = family
    return EBRankReport(value=value, status="cited", certificate=None,
                        classification=spectrum.classification.value,
                        note=f"{name} channel: rank {value} cited, unverified")


def _recognize_family(channel: KrausChannel, spectrum: ChoiSpectrum,
                      t: ToleranceConfig) -> tuple[str, int] | None:
    """Match the Choi matrix J of an n -> n channel against alpha P for the
    two families with externally known entanglement-breaking ranks:
    completely depolarizing (alpha = 1/n, P = I of rank D = n^2) and
    transpose-plus-trace (alpha = 2/(n+1), P = P_sym onto the symmetric
    subspace, D = n(n+1)/2); a family is cited when a bound on
    |J - alpha P|_F is at most eps_verify n.

    With P_R the top-D eigenprojection of J, s = |lambda - alpha 1_D| over
    the nm eigenvalues (zeros past D) is exactly |J - alpha P_R|_F, the
    whole distance when P = I.  For P_sym: the swap acts as F vec(K) =
    vec(K^T), so a = (sum_i |K_i - K_i^T|_F^2)^(1/2) / 2 = |P_anti V|_F for
    J = V V*, V with columns vec(K_i), and P_anti = I - P_sym.
    J >= lambda_D P_R gives a^2 >= lambda_D |P_anti P_R|_F^2, and
    |P_R - P_sym|_F = sqrt(2) |P_anti P_R|_F for two rank-D projections, so
    |J - alpha P_sym|_F <= s + alpha sqrt(2 / lambda_D) a.  Citing only when
    lambda_D > 0 and the bound passes cites no channel whose own distance
    fails; one within about 1 + sqrt(2) of the bound may be refused.
    """
    n, m = channel.input_dim, channel.output_dim
    if n != m:
        return None
    evals = spectrum.eigenvalues
    families = (("completely depolarizing", 1 / n, n * n, False),
                ("transpose-plus-trace", 2 / (n + 1), n * (n + 1) // 2, True))
    for name, alpha, rank, symmetric in families:
        lowest = evals[rank - 1]
        if not lowest > 0:
            continue
        distance = frob(np.where(np.arange(n * n) < rank, evals - alpha, evals))
        if symmetric:
            kraus = channel.kraus
            distance += alpha * np.sqrt(2 / lowest) * frob(kraus - kraus.transpose(0, 2, 1)) / 2
        if distance <= t.eps_verify * n:
            return name, n * n
    return None


def partial_transpose(j, n: int, m: int) -> np.ndarray:
    """Transpose the first (n-dimensional) factor of an nm x nm block matrix."""
    j = as_matrix(j)
    if j.shape != (n * m, n * m):
        raise ValueError(f"matrix must be {n * m}x{n * m}, got {j.shape}")
    return j.reshape(n, m, n, m).transpose(2, 1, 0, 3).reshape(n * m, n * m)


def is_ppt(j, n: int, m: int, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Dense positive partial transpose check of an nm x nm matrix: a
    negative partial transpose certifies that the Choi matrix is not
    separable.  :func:`certify` uses the matrix-free :func:`npt_witness`;
    this full eigenvalue check is the reference it is tested against."""
    evals = np.linalg.eigvalsh(as_hermitian(partial_transpose(j, n, m), tol))
    scale = max(1.0, float(np.max(np.abs(evals)))) if evals.size else 1.0
    return bool(evals[0] >= -tol.eps_verify * scale)


# Lanczos steps npt_witness takes at most; zoo refutations find their
# witness within a few
NPT_STEPS = 40


@dataclass(frozen=True)
class NPTWitness:
    """A unit vector x = vec(Y) with x* J^T_A x = quotient below -bound, for
    J^T_A the partial transpose of the Choi matrix J: a proof that J^T_A is
    not positive, so the Choi matrix is not separable."""

    vector: np.ndarray
    quotient: float
    bound: float


def npt_witness(kraus, tol: ToleranceConfig = DEFAULT_TOL) -> NPTWitness | None:
    """Search for a negative direction of the partial transpose of the Choi
    matrix J = sum_i vec(K_i) vec(K_i)* of a (k, m, n) Kraus stack, without
    forming J.

    Runs Lanczos with full reorthogonalization on x -> J^T_A x, which for
    x = vec(Y) is vec(sum_i K_i (K_i* Y)^T), two matrix products, from a
    seeded random start for at most NPT_STEPS steps (and at most nm).  It
    returns the lowest Ritz vector once its Rayleigh quotient, recomputed
    with one fresh product, lies below -eps_verify max(1, tr J).  As
    |J^T_A|_2 <= |J|_F <= tr J, that bound is never weaker than the scale of
    :func:`is_ppt`, so a witness implies ``is_ppt`` is False.  None means no
    witness within the budget, not a proof that J is PPT.
    """
    kraus = np.asarray(kraus, dtype=complex)
    if kraus.ndim != 3 or not np.all(np.isfinite(kraus)):
        raise ValueError(f"expected a finite (k, m, n) Kraus stack, got shape {kraus.shape}")
    k, m, n = kraus.shape
    adjoints = kraus.conj().transpose(0, 2, 1).reshape(k * n, m)  # the K_i* stacked
    side_by_side = kraus.transpose(1, 0, 2).reshape(m, k * n)  # [K_1 ... K_k]

    def apply(x):
        products = (adjoints @ unvec(x, m, n)).reshape(k, n, n)
        return vec(side_by_side @ products.transpose(0, 2, 1).reshape(k * n, n))

    scale = max(1.0, frob(kraus) ** 2)
    bound = tol.eps_verify * scale
    rng = tol.rng(0x9E7A)
    steps = min(NPT_STEPS, n * m)
    basis = np.zeros((steps, n * m), dtype=complex)  # orthonormal Lanczos rows
    tri = np.zeros((steps, steps))
    start = rng.standard_normal(n * m) + 1j * rng.standard_normal(n * m)
    basis[0] = start / np.linalg.norm(start)
    for j in range(steps):
        w = apply(basis[j])
        tri[j, j] = np.vdot(basis[j], w).real
        for _ in range(2):  # reorthogonalize against every earlier row, twice
            w -= (basis[:j + 1].conj() @ w) @ basis[:j + 1]
        evals, evecs = eigh_descending(tri[:j + 1, :j + 1])
        if evals[-1] < -bound:
            x = evecs[:, -1] @ basis[:j + 1]
            x /= np.linalg.norm(x)
            quotient = float(np.vdot(x, apply(x)).real)
            if quotient < -bound:
                return NPTWitness(vector=x, quotient=quotient, bound=bound)
        beta = np.linalg.norm(w)
        if j + 1 == steps or beta <= tol.eps_rank * scale:  # budget spent or subspace invariant
            break
        tri[j, j + 1] = tri[j + 1, j] = beta
        basis[j + 1] = w / beta
    return None
