"""Exception hierarchy shared by all ebcert modules."""

from __future__ import annotations


class EBCertError(Exception):
    """Base class for all ebcert errors."""


class DimensionMismatch(EBCertError):
    """Operands have incompatible shapes."""


class NotHermitian(EBCertError):
    """Matrix fails the Hermitian-residual precondition."""


class ConvergenceFailure(EBCertError):
    """An iterative dense solver did not converge."""


class NotTracePreserving(EBCertError):
    """Kraus operators violate the trace-preserving condition."""

    def __init__(self, residual: float, message: str | None = None):
        self.residual = float(residual)
        super().__init__(
            message or f"trace-preserving residual {self.residual:.3e} above tolerance"
        )


class NotMinimalKraus(EBCertError):
    """Operation requires a minimal (linearly independent) Kraus set."""


class InconsistentClassification(EBCertError):
    """Choi spectrum no channel can have: a negative eigenvalue, a trace or a
    projection rank other than n.  Signals numerical breakdown rather than a
    property of the channel."""


class NotUnitalOrNotTP(EBCertError):
    """Map is not unital and trace-preserving, so the multiplicative domain
    is not the commutant of the interaction algebra and is not built."""


class VerificationFailure(EBCertError):
    """A mandatory post-verification failed beyond tolerance.  Always means a
    bug or a tolerance breach; never silently accepted."""


class StructureInconsistency(EBCertError):
    """Block sizes recovered from an algebra do not form consistent integers."""


class ResampleExhausted(EBCertError):
    """Generic-element resampling hit the retry limit without a usable draw."""


class NotMultiplicityFree(EBCertError):
    """Algebra has a repeated tensor factor, so no rank-one resolution exists."""


class ResolutionFailure(EBCertError):
    """Witness vectors do not resolve the identity."""

    def __init__(self, residual: float):
        self.residual = float(residual)
        super().__init__(f"witness outer products sum to identity only up to {self.residual:.3e}")


class RankFailure(EBCertError):
    """A witness vector maps to an operator of rank two or more."""

    def __init__(self, index: int, rank: int):
        self.index = int(index)
        self.rank = int(rank)
        super().__init__(f"witness vector {index} maps to an operator of rank {rank}")


class NotUnitVector(EBCertError):
    """A generating vector is not normalized."""

    def __init__(self, index: int, norm: float):
        self.index = int(index)
        self.norm = float(norm)
        super().__init__(f"vector {index} has norm {norm:.6g}, expected 1")


class InvalidCorrelation(EBCertError):
    """Matrix is not positive semidefinite with unit diagonal."""


class ConstructionFailure(EBCertError):
    """A randomized generator stalled before meeting its target tolerance."""


class NotOrthonormal(EBCertError):
    """Certificate vectors expected to be orthonormal are not; signals
    certificate corruption."""


class CertificationRefusal(EBCertError):
    """Base class for certifier refusals.  Refusals are verdicts with
    structured payloads, not numerical failures."""

    reason_code = "refused"

    def payload(self) -> dict:
        return {"reason": self.reason_code, "message": str(self)}


class OutOfScope(CertificationRefusal):
    """Channel's Choi matrix is not a projection, so the multiplicative-domain
    criterion does not decide entanglement breaking for it."""

    reason_code = "out_of_scope"

    def __init__(self, classification: str, alpha: float | None = None):
        self.classification = str(classification)
        self.alpha = None if alpha is None else float(alpha)
        detail = f"Choi matrix classified as {self.classification}"
        if self.alpha is not None:
            detail += f" with scalar {self.alpha:.12g}"
        super().__init__(detail + "; certification requires the projection class")

    def payload(self) -> dict:
        out = super().payload()
        out["classification"] = self.classification
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out


class NotEntanglementBreaking(CertificationRefusal):
    """Refutation: two generic elements of the interaction algebra of the
    complement adjoint fail to commute, so its multiplicative domain, the
    commutant of that algebra, has a repeated tensor factor and no rank-one
    Kraus decomposition exists.

    blocks            (multiplicity, size) pairs of the domain's blocks
    ppt_violated      the independent partial-transpose cross-check: True
                      when a witness vector proves the partial transpose of
                      the Choi matrix negative, False when none was found
                      within the search budget (which does not prove it
                      positive), None when not given
    commutator        relative commutator |ab - ba| / (|a| |b|) of the two
                      elements
    bound             the threshold it exceeds, sqrt(eps_eig)
    witness_quotient  Rayleigh quotient of the witness on the partial
                      transpose, below -witness_bound; None without one
    witness_bound     eps_verify max(1, tr J); None without a witness
    """

    reason_code = "not_entanglement_breaking"

    def __init__(self, blocks: tuple, ppt_violated: bool | None = None,
                 commutator: float | None = None, bound: float | None = None,
                 witness_quotient: float | None = None, witness_bound: float | None = None):
        self.blocks = tuple((int(i), int(j)) for i, j in blocks)
        self.ppt_violated = ppt_violated
        self.commutator = None if commutator is None else float(commutator)
        self.bound = None if bound is None else float(bound)
        self.witness_quotient = None if witness_quotient is None else float(witness_quotient)
        self.witness_bound = None if witness_bound is None else float(witness_bound)
        detail = f"multiplicative domain has structure {list(self.blocks)}"
        if self.commutator is not None and self.bound is not None:
            detail += f"; relative commutator {self.commutator:.3e} above {self.bound:.1e}"
        if ppt_violated:
            detail += "; independently confirmed by a negative partial transpose"
        super().__init__(detail)

    def payload(self) -> dict:
        out = super().payload()
        out["structure"] = [list(b) for b in self.blocks]
        out["ppt_violated"] = self.ppt_violated
        out["commutator"] = self.commutator
        out["bound"] = self.bound
        out["witness_quotient"] = self.witness_quotient
        out["witness_bound"] = self.witness_bound
        return out
