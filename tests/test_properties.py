"""Property tests: the certify verdict does not depend on the Kraus
presentation or on unitary rotations of input and output.  They need
hypothesis, which is not a declared dependency, and are skipped without it."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from ebcert import (  # noqa: E402
    NotEntanglementBreaking,
    ToleranceConfig,
    certify,
    random_projection_choi_channel,
    random_unitary,
    redilate,
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
