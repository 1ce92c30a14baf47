"""Property tests: the certify verdict, and what eb_rank and
classify_complement_adjoint read off the Choi spectrum, do not depend on
the Kraus presentation or on unitary rotations of input and output.  They need
hypothesis, which is not a declared dependency, and are skipped without it."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from ebcert import (  # noqa: E402
    NotEntanglementBreaking,
    OutOfScope,
    ToleranceConfig,
    certify,
    classify_complement_adjoint,
    depolarizing,
    eb_rank,
    identity_channel,
    random_channel,
    random_projection_choi_channel,
    random_unitary,
    redilate,
    werner_holevo,
)
from ebcert.numerics import random_isometry  # noqa: E402
from ebcert.zoo import external_twirl, internal_twirl, permute_kraus  # noqa: E402


def outcome(channel, tol):
    """The verdict with everything that must not move: the certified rank,
    or the refutation's blocks and partial-transpose cross-check."""
    try:
        return "certified", certify(channel, tol).eb_rank
    except NotEntanglementBreaking as refusal:
        return "refuted", refusal.blocks, refusal.ppt_violated


def transformations(channel, seed, tol):
    n, m, d = channel.input_dim, channel.output_dim, len(channel)
    yield redilate(channel, random_isometry(d + seed % 3, d, seed), tol)
    yield permute_kraus(channel, [(i + 1 + seed) % d for i in range(d)], tol)
    yield external_twirl(channel, random_unitary(m, seed), tol)
    yield internal_twirl(channel, random_unitary(n, seed), tol)


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(n=st.integers(1, 5), m=st.integers(1, 5), seed=st.integers(0, 2**16),
                  twist=st.integers(0, 2**16))
def test_verdict_is_invariant_under_presentation_and_twirls(n, m, seed, twist):
    tol = ToleranceConfig()
    channel = random_projection_choi_channel(n, m, seed, tol)
    expected = outcome(channel, tol)
    for other in transformations(channel, twist, tol):
        assert outcome(other, tol) == expected


# channels outside the projection class, by size 2..4 and seed
SPECTRAL_FAMILIES = {
    "werner-holevo": lambda size, seed, tol: werner_holevo(size + 1, tol),
    "depolarizing": lambda size, seed, tol: depolarizing(size, tol),
    "identity": lambda size, seed, tol: identity_channel(size, tol),
    "random": lambda size, seed, tol: random_channel(size, size, 2 + seed % 2, seed, tol),
}


def spectral_outcome(channel, tol):
    """What the spectrum-only callers report: eb_rank's (value, status,
    class), or its refusal's class and scalar, and the complement-adjoint
    kind and scalar."""
    try:
        report = eb_rank(channel, tol)
        rank, scalar = (report.value, report.status, report.classification), None
    except OutOfScope as refusal:
        rank, scalar = ("out of scope", refusal.classification), refusal.alpha
    adjoint = classify_complement_adjoint(channel, tol)
    return rank, adjoint.kind, scalar, adjoint.alpha


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(family=st.sampled_from(sorted(SPECTRAL_FAMILIES)), size=st.integers(2, 4),
                  seed=st.integers(0, 2**16), twist=st.integers(0, 2**16))
def test_spectral_verdicts_are_invariant_under_presentation_and_twirls(family, size, seed, twist):
    tol = ToleranceConfig()
    channel = SPECTRAL_FAMILIES[family](size, seed, tol)
    rank, kind, scalar, alpha = spectral_outcome(channel, tol)
    others = list(transformations(channel, twist, tol))
    if family == "werner-holevo":
        # a one-sided twirl leaves the Choi spectrum but not the Choi matrix
        # the family is recognized by; the channel is covariant under
        # X -> U^T F(U X U*) conj(U) instead
        u = random_unitary(size + 1, twist)
        others[2:] = [external_twirl(internal_twirl(channel, u, tol), u.T, tol)]
    for other in others:
        got = spectral_outcome(other, tol)
        assert got[:2] == (rank, kind)
        for value, expected in zip(got[2:], (scalar, alpha)):
            assert value == (None if expected is None else pytest.approx(expected, abs=1e-10))
