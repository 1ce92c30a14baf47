"""Channel representation and calculus: Choi spectra, their projection
classification and minimal Kraus sets of a Kraus list, the complement and
its adjoint, and the channel file format.

The Choi matrix of a map ``F`` from n x n to m x m matrices is the
nm x nm block matrix ``sum_ij kron(E_ij, F(E_ij))`` over matrix units
``E_ij`` of the input space, ``sum_i vec(K_i) vec(K_i)*`` with the
column-stacking ``vec`` of :mod:`ebcert.numerics`, which defines J and
nothing else.  J is kept unnormalized (trace n for a channel).  Its nonzero
spectrum is that of the k x k Hilbert-Schmidt Gram matrix
``G_ij = tr(K_i* K_j)`` of the Kraus operators (Choi 1975), which needs no
vectorization, so :func:`choi` works on the (k, m, n) stack and J is formed
only when a caller asks for it (:attr:`ChoiReport.choi`).  Where only the
spectrum is wanted, :func:`choi_spectrum` takes G's real diagonal as its
eigenvalues when the rest F of G has |F| <= k u |G| (u the unit roundoff),
a dense solver's own backward error: mutually orthogonal Kraus operators,
such as every minimal presentation of a scaled-projection channel and
:func:`choi`'s minimal stack, need no eigensolver.

The canonical complement and its adjoint are built from a minimal Kraus
set, which this module fixes deterministically: the operators
``sum_j w_j K_j`` for the eigenvectors ``w`` of G above the rank cutoff, in
descending eigenvalue order, each phase-fixed so its largest-modulus entry
is real positive: a unitary re-dilation of the given Kraus list whose vecs
are the Choi eigenvectors scaled by the square-rooted eigenvalues.  Any
other minimal choice gives a complement that differs only by unitary
conjugation on the output, so spectra and classifications are unaffected.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentClassification,
    NotMinimalKraus,
    NotTracePreserving,
    VerificationFailure,
)
from .numerics import (
    ToleranceConfig,
    _tol,
    as_matrix,
    as_matrix_stack,
    eigh_descending,
    frob,
    from_pairs,
    json_int,
    numerical_rank,
    phase_fix,
    relative_rank,
    to_pairs,
    vec,
    write_json,
)


class CPMap:
    """Completely positive map in Kraus form, not necessarily trace
    preserving.  The Kraus operators are held as one read-only (k, m, n)
    array, so iterating over ``kraus`` gives the m x n operators.  Immutable
    once constructed; safe to share across threads."""

    def __init__(self, kraus, tol: ToleranceConfig | None = None):
        t = _tol(tol)
        try:
            # a C-order copy: caller-owned arrays stay writable, reshapes are views
            self._kraus = np.array(kraus, dtype=complex, order="C")
        except ValueError as exc:
            raise DimensionMismatch(f"Kraus operators must be matrices of one shape: {exc}") from exc
        if self._kraus.shape[:1] == (0,):
            raise ValueError("at least one Kraus operator is required")
        if self._kraus.ndim != 3:
            raise DimensionMismatch(f"Kraus operators must be matrices of one shape, "
                                    f"got an array of shape {self._kraus.shape}")
        if not np.all(np.isfinite(self._kraus)):
            raise ValueError("matrix entries must be finite")
        self._kraus.setflags(write=False)
        _, self.output_dim, self.input_dim = self._kraus.shape
        rows = self._kraus.reshape(-1, self.input_dim)
        self.tp_residual = frob(rows.conj().T @ rows - np.eye(self.input_dim))
        self.trace_preserving = self.tp_residual <= t.eps_verify

    @property
    def kraus(self) -> np.ndarray:
        return self._kraus

    def __len__(self) -> int:
        return self._kraus.shape[0]

    def with_kraus(self, kraus, tol: ToleranceConfig | None = None) -> "CPMap":
        """Map of this one's kind with other Kraus operators: a
        :class:`KrausChannel`, which rejects operators that are not trace
        preserving, when this map is trace preserving, else a CPMap."""
        return (KrausChannel if self.trace_preserving else CPMap)(kraus, tol)

    def apply(self, x) -> np.ndarray:
        """Evaluate the operator sum  sum_i K_i X K_i*  on one n x n matrix,
        or on each matrix of an (s, n, n) stack."""
        k, m, n = self._kraus.shape
        x = as_matrix_stack(x, n)
        # (X K_i*)[c, b] for every X of the stack and every i from one
        # product, laid out as (c, i, b); then sum_(c, i) K_i[a, c] (X K_i*)[c, b]
        # as a second product that reads it without a copy
        right = x.reshape(-1, n) @ self._kraus.conj().transpose(2, 0, 1).reshape(n, k * m)
        return self._kraus.transpose(1, 2, 0).reshape(m, n * k) @ right.reshape(
            *x.shape[:-2], n * k, m)

    def unital_residual(self) -> float:
        return frob(self.apply(np.eye(self.input_dim)) - np.eye(self.output_dim))

    def __repr__(self) -> str:
        kind = "channel" if self.trace_preserving else "cp map"
        return (
            f"<{kind} {self.input_dim}x{self.input_dim} -> "
            f"{self.output_dim}x{self.output_dim}, {len(self)} kraus>"
        )


class KrausChannel(CPMap):
    """Trace-preserving completely positive map.  Construction rejects Kraus
    lists whose trace-preserving residual exceeds tolerance; general CP maps
    go through :class:`CPMap` instead."""

    def __init__(self, kraus, tol: ToleranceConfig | None = None):
        super().__init__(kraus, tol)
        if not self.trace_preserving:
            raise NotTracePreserving(self.tp_residual)


class ChoiClass(enum.Enum):
    PROJECTION = "projection"
    SCALED_PROJECTION = "scaled_projection"
    OTHER = "other"


@dataclass(frozen=True)
class ChoiSpectrum:
    """Choi spectral data of a Kraus list: its rank and its spectral
    classification, read off the eigenvalues of the Hilbert-Schmidt Gram
    matrix ``G_ij = tr(K_i* K_j)``.

    classification is PROJECTION when every nonzero eigenvalue sits within
    eps_eig of 1, SCALED_PROJECTION when they sit within eps_eig of their
    common mean alpha, OTHER otherwise.  ``eigenvalues`` is the Choi
    spectrum in descending order with nm entries: the Gram spectrum padded
    with zeros when k < nm, its rounding-level tail dropped when k > nm.
    """

    choi_rank: int
    classification: ChoiClass
    alpha: float | None
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class ChoiReport(ChoiSpectrum):
    """The Choi spectrum plus ``kraus``, the C-ordered (choi_rank, m, n) stack
    of minimal Kraus operators taken from the same eigendecomposition, and
    ``residual``, the Frobenius distance |J - M M*| between the Choi
    matrices of the given list and of that minimal set M (see :func:`choi`)."""

    kraus: np.ndarray
    residual: float

    @property
    def choi(self) -> np.ndarray:
        """The nm x nm Choi matrix M M* of the minimal stack, formed on each
        access: within ``residual`` of the given list's J in Frobenius norm."""
        columns = vec(self.kraus).T
        return columns @ columns.conj().T


def choi_spectrum(channel: CPMap, tol: ToleranceConfig | None = None) -> ChoiSpectrum:
    """The Choi spectrum and its class alone, under the checks of :func:`choi`:
    the eigenvalues of the Gram matrix, no eigenvectors or Kraus set.

    Split the k x k Gram matrix as G = D + F, D its real diagonal and F the
    rest, the imaginary part of the diagonal included.  When |F| <= k u |G|
    in Frobenius norm, u the unit roundoff, the eigenvalues are D sorted:
    by Weyl's inequality each lies within |F|_2 <= |F| of its diagonal
    entry, and k u |G| is the backward error a dense Hermitian solver is
    allowed anyway.  Otherwise the dense solver runs; so it does where a
    squared norm leaves the normal float range, a Gram matrix that is not
    finite included.  Kraus operators that are mutually orthogonal to
    rounding take the diagonal route: every minimal presentation of a
    scaled-projection channel (there G = alpha I), so the transpose-plus-trace
    and depolarizing families and their unitary re-dilations, and
    :func:`choi`'s own minimal stack."""
    rows = channel.kraus.reshape(len(channel), -1)
    g = rows.conj() @ rows.T  # Hermitian by construction
    # |F|^2 with G's diagonal swapped for its imaginary part, then put back,
    # so no k x k array is allocated; |G|^2 = |F|^2 + |D|^2 adds without
    # cancellation, and squares that leave the normal range go to the solver
    diagonal = g.diagonal().copy()
    np.fill_diagonal(g, 1j * diagonal.imag)
    off_sq = np.vdot(g, g).real
    np.fill_diagonal(g, diagonal)
    diag_sq = np.vdot(diagonal.real, diagonal.real)
    bound_sq = (len(g) * np.finfo(float).eps) ** 2 * (off_sq + diag_sq)
    if np.finfo(float).tiny < bound_sq < np.inf and off_sq <= bound_sq:
        evals = np.sort(diagonal.real)[::-1]
    else:
        evals = eigh_descending(g, vectors=False)
    return _spectrum(channel, evals, _tol(tol))


def _spectrum(channel: CPMap, evals, t: ToleranceConfig) -> ChoiSpectrum:
    """Check and classify the descending Gram spectrum of a Kraus list."""
    n, m = channel.input_dim, channel.output_dim
    rank = relative_rank(evals, t)
    nonzero = evals[:rank]

    if evals[-1] < -t.eps_verify * max(1.0, evals[0]):
        raise InconsistentClassification(
            f"Choi matrix has a negative eigenvalue {evals[-1]:.3e}"
        )
    if channel.trace_preserving:
        trace = frob(channel.kraus) ** 2
        if abs(trace - n) > t.eps_verify * max(1.0, n):
            raise InconsistentClassification(
                f"Choi trace {trace:.12g} differs from input dimension {n}"
            )

    alpha: float | None
    if rank == 0:
        classification, alpha = ChoiClass.OTHER, None
    elif np.all(np.abs(nonzero - 1.0) <= t.eps_eig):
        classification, alpha = ChoiClass.PROJECTION, 1.0
    else:
        mean = float(np.mean(nonzero))
        if np.all(np.abs(nonzero - mean) <= t.eps_eig):
            classification, alpha = ChoiClass.SCALED_PROJECTION, mean
        else:
            classification, alpha = ChoiClass.OTHER, None

    if classification is ChoiClass.PROJECTION and channel.trace_preserving and rank != n:
        raise InconsistentClassification(
            f"projection Choi matrix must have rank {n}, got {rank}"
        )
    spectrum = np.zeros(n * m)
    spectrum[:len(evals)] = evals[:n * m]
    return ChoiSpectrum(choi_rank=rank, classification=classification,
                        alpha=alpha, eigenvalues=spectrum)


def choi(channel: CPMap, tol: ToleranceConfig | None = None) -> ChoiReport:
    """Classify the Choi spectrum and take the minimal Kraus set from the
    same eigendecomposition, without forming the Choi matrix; callers that
    read only the spectrum take :func:`choi_spectrum`.

    J = V V* and G = V* V share their nonzero eigenvalues, for V the
    nm x k matrix with columns vec(K_i); G is formed as conj(R) R^T, for R
    the given stack with each operator flattened row-major, and V never is.
    For G w = lambda w the operator sum_j w_j K_j, whose vec is V w, is an
    eigenvector of J of norm sqrt(lambda).  So the minimal set is the rows of
    W_r^T R for the eigenvectors W_r of G above the rank cutoff, phase-fixed:
    a unitary re-dilation of the given list, C-ordered.  The set is checked,
    and the check's value kept as the report's ``residual``, by the residual
    of the Choi matrix it rebuilds, |J - V W_r (V W_r)*| = |V P V*| for the
    Hermitian P = I - W_r W_r*, whose square is tr(P G P G): no unitary W or
    idempotent P is assumed.  Unlike the Gram-trace route that
    :func:`~ebcert.numerics.factor_distance` rejects, no terms of size
    |J|^2 cancel: P is formed first, and tr(P G P G) is itself the squared
    norm of the small matrix G^(1/2) P G^(1/2).

    The cost is O(nm k^2 + k^3) for k Kraus operators, so a list longer
    than nm pays O(k^3) for at most nm nonzero eigenvalues.  A thin SVD of R
    would avoid that, but it costs about twice the eigendecomposition of G
    when R is square, as for the completely depolarizing channel.
    """
    t = _tol(tol)
    n, m = channel.input_dim, channel.output_dim
    rows = channel.kraus.reshape(len(channel), m * n)
    g = rows.conj() @ rows.T  # Hermitian by construction
    evals, w = eigh_descending(g)
    spectrum = _spectrum(channel, evals, t)

    # |V P V*|^2 = tr(P G P G) = sum of (P G) times its transpose, entrywise
    kept = w[:, :spectrum.choi_rank]
    pg = (np.eye(len(evals)) - kept @ kept.conj().T) @ g
    residual = np.sqrt(abs(np.sum(pg * pg.T).real))
    if not residual <= t.eps_verify * max(1.0, n):
        raise VerificationFailure(
            f"minimal Kraus reconstruction residual {residual:.3e} exceeds tolerance"
        )
    kraus = phase_fix(kept.T @ rows).reshape(-1, m, n)
    return ChoiReport(**vars(spectrum), kraus=kraus, residual=float(residual))


def minimal_kraus(channel: CPMap, tol: ToleranceConfig | None = None) -> CPMap:
    """Equivalent map with exactly Choi-rank many Kraus operators, taken
    from the Choi report (the package-wide canonical choice)."""
    t = _tol(tol)
    report = choi(channel, t)
    if report.choi_rank == 0:
        raise ValueError("Choi matrix is numerically zero; no Kraus form exists")
    return channel.with_kraus(report.kraus, t)


def is_minimal(channel: CPMap, tol: ToleranceConfig | None = None) -> bool:
    """A Kraus set is minimal exactly when its operators are linearly
    independent."""
    return numerical_rank(channel.kraus.reshape(len(channel), -1), tol) == len(channel)


def complement_from_kraus(kraus, tol: ToleranceConfig | None = None) -> CPMap:
    """Complement of the map presented by the *given* Kraus list: the map
    X -> sum_ij tr(K_i* K_j X) E_ji into d x d matrices, d the list length.

    Its Kraus operators are the rows of the K_i regrouped by output row, a
    transpose of the stack; both stacks share one Gram matrix, so the
    complement is trace preserving exactly when the given list is.  The
    canonical complement of a channel goes through :func:`complement`,
    which first reduces to the minimal Kraus set; this raw form exists for
    comparing complements across different Kraus presentations.
    """
    t = _tol(tol)
    source = CPMap(kraus, t)
    return source.with_kraus(source.kraus.transpose(1, 0, 2), t)


def complement(channel: KrausChannel, tol: ToleranceConfig | None = None) -> KrausChannel:
    """Canonical complement, a channel into d x d matrices for d the Choi
    rank: :func:`complement_from_kraus` of the minimal Kraus set.  Complements
    from other minimal sets are unitarily conjugate to it, hence share its
    Choi spectrum."""
    t = _tol(tol)
    if not channel.trace_preserving:
        raise NotTracePreserving(channel.tp_residual, "complement requires a channel")
    return complement_from_kraus(minimal_kraus(channel, t).kraus, t)


def complement_adjoint(minimal: CPMap, tol: ToleranceConfig | None = None) -> CPMap:
    """Adjoint of the complement, X -> sum_ij X_ij K_i* K_j on d x d matrices
    for a minimal Kraus set {K_i}, evaluated by its :meth:`CPMap.apply`.  Its
    Kraus operators P_a[c, i] = conj(K_i[a, c]) are the adjoints of those of
    ``complement_from_kraus(K)``: one transpose of the conjugated stack.
    It is unital whenever the source is trace preserving, and trace
    preserving exactly when the source Choi matrix is a projection."""
    t = _tol(tol)
    if not is_minimal(minimal, t):
        raise NotMinimalKraus("complement adjoint requires a minimal Kraus set")
    return CPMap(np.conj(minimal.kraus).transpose(1, 2, 0), t)


class ComplementAdjointKind(enum.Enum):
    TRACE_PRESERVING = "trace_preserving"
    TRACE_STABILIZING = "trace_stabilizing"
    NEITHER = "neither"


@dataclass(frozen=True)
class ComplementAdjointReport:
    kind: ComplementAdjointKind
    alpha: float | None
    residual: float


def classify_complement_adjoint(
    channel: KrausChannel, tol: ToleranceConfig | None = None
) -> ComplementAdjointReport:
    """Classify the complement adjoint by the image of the identity under the
    complement: the adjoint scales traces by alpha exactly when the
    complement sends I_n to alpha I_d, and preserves them when alpha = 1.
    That image is read off the Choi spectrum alone (:func:`choi_spectrum`,
    no eigenvectors; see :func:`_classify_complement_adjoint`)."""
    t = _tol(tol)
    if not channel.trace_preserving:
        raise NotTracePreserving(channel.tp_residual, "complement requires a channel")
    return _classify_complement_adjoint(choi_spectrum(channel, t))


def _classify_complement_adjoint(cs: ChoiSpectrum) -> ComplementAdjointReport:
    """:func:`classify_complement_adjoint` on a channel's Choi spectrum.

    The complement of the minimal set K_i = sum_j w_i[j] L_j (up to a phase,
    w_i the eigenvectors of the Gram matrix G of the given L_j) sends I_n to
    [tr(K_i* K_j)] = W_r* G W_r = diag(lambda_1..lambda_d).  So the kind
    is the Choi class by construction, judged by the same rule, max_i
    |lambda_i - alpha| <= eps_eig for alpha = 1, else for the mean eigenvalue;
    ``residual`` is that maximum."""
    nonzero = cs.eigenvalues[:cs.choi_rank]
    centre = np.mean(nonzero) if cs.alpha is None else cs.alpha
    kind = {ChoiClass.PROJECTION: ComplementAdjointKind.TRACE_PRESERVING,
            ChoiClass.SCALED_PROJECTION: ComplementAdjointKind.TRACE_STABILIZING,
            ChoiClass.OTHER: ComplementAdjointKind.NEITHER}[cs.classification]
    return ComplementAdjointReport(kind, cs.alpha, float(np.max(np.abs(nonzero - centre))))


def redilate(channel: CPMap, isometry, tol: ToleranceConfig | None = None) -> CPMap:
    """Re-dilate a Kraus presentation through an isometry W (r x d columns
    with W* W = I): the new operators are L_i = sum_j W_ij K_j.  The channel
    action and Choi matrix are unchanged."""
    t = _tol(tol)
    w = as_matrix(isometry)
    d = len(channel)
    if w.shape[1] != d:
        raise DimensionMismatch(f"isometry has {w.shape[1]} columns, channel has {d} operators")
    if frob(w.conj().T @ w - np.eye(d)) > t.eps_verify:
        raise VerificationFailure("matrix is not an isometry to tolerance")
    return channel.with_kraus(np.tensordot(w, channel.kraus, axes=1), t)


# ---------------------------------------------------------------------------
# channel file format: {"n": int, "m": int, "kraus": [matrix]} with matrix a
# row-major flat list of [re, im] pairs
# ---------------------------------------------------------------------------

def channel_to_json_dict(channel: CPMap) -> dict:
    return {
        "n": channel.input_dim,
        "m": channel.output_dim,
        "kraus": to_pairs(channel.kraus.reshape(len(channel), -1)),
    }


def channel_from_json_dict(data: dict, tol: ToleranceConfig | None = None) -> KrausChannel:
    """Rebuild a channel, validating dimensions and the trace-preserving
    condition.  The resulting object carries the measured residual."""
    try:
        n = json_int(data["n"], "n")
        m = json_int(data["m"], "m")
        kraus_data = data["kraus"]
        count = len(kraus_data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed channel data: {exc}") from exc
    if n < 1 or m < 1 or not count:
        raise ValueError("channel data must have positive dimensions and at least one operator")
    return KrausChannel(from_pairs(kraus_data, (count, m * n)).reshape(count, m, n), tol)


def save_channel(channel: CPMap, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(fh, channel_to_json_dict(channel))


def load_channel(path, tol: ToleranceConfig | None = None) -> KrausChannel:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return channel_from_json_dict(data, tol)
