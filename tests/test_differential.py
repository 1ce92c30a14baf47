"""The verdict of ``certify`` against two oracles it does not use.

In the projection class a Choi matrix J has rank n and Tr_out J = I_n, so by
Horodecki, Lewenstein, Vidal & Cirac (2000) it is separable exactly when its
partial transpose is positive: ``certify`` certifies exactly the inputs that
dense :func:`is_ppt` passes, and every refutation carries a partial-transpose
witness.  And a product of channels is entanglement breaking exactly when
both factors are; its Choi rank is the product of theirs, and the block pairs
(multiplicity, size) of its multiplicative domain are the products
(i1 i2, j1 j2) of its factors' pairs.
"""

import pytest

from ebcert import (
    ChoiClass,
    NotEntanglementBreaking,
    ToleranceConfig,
    certify,
    choi,
    external_twirl,
    internal_twirl,
    is_ppt,
    random_projection_choi_channel,
    random_schur_complement_channel,
    random_unitary,
    redilate_fixture,
    verify_certificate,
)

from oracles import tensor_product


def planted(n, m, seed, tol):
    return random_projection_choi_channel(n, m, seed, tol, ensure_eb=True)


def generic(n, m, seed, tol):
    return random_projection_choi_channel(n, m, seed, tol)


def sampled(kind, n, m, seed):
    return lambda tol: kind(n, m, seed, tol)


# the factors of small products, by name: P planted, G generic, S
# Schur-complement, T externally twirled, R redilated, n = m unless two
# sizes are given; a generic channel with m = 2 is entanglement breaking
SMALL_PRODUCTS = {
    "P3xP4": (sampled(planted, 3, 3, 0), sampled(planted, 4, 4, 1)),
    "P3xG3": (sampled(planted, 3, 3, 2), sampled(generic, 3, 3, 3)),
    "G3xP4": (sampled(generic, 3, 3, 4), sampled(planted, 4, 4, 5)),
    "G3xG3": (sampled(generic, 3, 3, 6), sampled(generic, 3, 3, 7)),
    "P2xP3": (sampled(planted, 2, 2, 8), sampled(planted, 3, 3, 9)),
    "S3,4xG2,3": (lambda tol: random_schur_complement_channel(3, 4, 10, tol),
                  sampled(generic, 2, 3, 11)),
    "TG3xRP3": (lambda tol: external_twirl(generic(3, 3, 12, tol), random_unitary(3, 12), tol),
                lambda tol: redilate_fixture(planted(3, 3, 13, tol), 6, 13, tol)),
    "G2,2xG3": (sampled(generic, 2, 2, 14), sampled(generic, 3, 3, 15)),
}


def zoo_inputs():
    """Projection-class zoo inputs with nm <= 64, and the small products."""
    for kind in (planted, generic):
        for n, m in [(2, 3), (3, 3), (4, 4), (2, 2), (4, 2), (8, 8)]:
            for seed in range(5):
                yield pytest.param(sampled(kind, n, m, seed),
                                   id=f"{kind.__name__}-{n}x{m}-s{seed}")
    for n, m in [(2, 3), (3, 5), (4, 4), (6, 8)]:
        yield pytest.param(lambda tol, n=n, m=m: random_schur_complement_channel(n, m, n + m, tol),
                           id=f"schur-complement-{n}x{m}")
    for kind in (planted, generic):
        for seed in range(2):
            base = sampled(kind, 3, 4, seed)
            yield pytest.param(lambda tol, base=base, seed=seed:
                               external_twirl(base(tol), random_unitary(4, seed), tol),
                               id=f"external-twirl-{kind.__name__}-s{seed}")
            yield pytest.param(lambda tol, base=base, seed=seed:
                               internal_twirl(base(tol), random_unitary(3, seed), tol),
                               id=f"internal-twirl-{kind.__name__}-s{seed}")
            yield pytest.param(lambda tol, base=base, seed=seed:
                               redilate_fixture(base(tol), 6, seed, tol),
                               id=f"redilated-{kind.__name__}-s{seed}")
    for name, (first, second) in SMALL_PRODUCTS.items():
        yield pytest.param(lambda tol, first=first, second=second:
                           tensor_product(first(tol), second(tol), tol), id=f"product-{name}")


@pytest.mark.parametrize("build", zoo_inputs())
def test_certifies_exactly_when_the_choi_matrix_is_ppt(build):
    tol = ToleranceConfig()
    channel = build(tol)
    report = choi(channel, tol)
    assert report.classification is ChoiClass.PROJECTION
    ppt = is_ppt(report.choi, channel.input_dim, channel.output_dim, tol)
    try:
        certify(channel, tol)
    except NotEntanglementBreaking as refusal:
        assert refusal.ppt_violated is True
        assert not ppt
    else:
        assert ppt


def outcome(channel, tol):
    """(certified, block pairs): a certified channel of Choi rank d counts
    as d pairs (1, 1)."""
    try:
        return True, [(1, 1)] * certify(channel, tol).eb_rank
    except NotEntanglementBreaking as refusal:
        return False, list(refusal.blocks)


def assert_product_rule(first, second, tol):
    (eb1, pairs1), (eb2, pairs2) = outcome(first, tol), outcome(second, tol)
    both = tensor_product(first, second, tol)
    if eb1 and eb2:
        cert = certify(both, tol)
        assert cert.eb_rank == first.input_dim * second.input_dim
        verify_certificate(cert, both, tol)
    else:
        with pytest.raises(NotEntanglementBreaking) as refusal:
            certify(both, tol)
        expected = [(i1 * i2, j1 * j2) for i1, j1 in pairs1 for i2, j2 in pairs2]
        assert sorted(refusal.value.blocks) == sorted(expected)


@pytest.mark.parametrize("name", SMALL_PRODUCTS)
def test_products_follow_their_factors(name):
    tol = ToleranceConfig()
    first, second = SMALL_PRODUCTS[name]
    assert_product_rule(first(tol), second(tol), tol)


@pytest.mark.parametrize("first, second", [
    (sampled(planted, 8, 8, 0), sampled(planted, 8, 8, 1)),
    (sampled(generic, 8, 8, 2), sampled(planted, 8, 8, 3)),
], ids=["P8xP8-certified", "G8xP8-refuted"])
def test_a_product_at_n_m_64_follows_its_factors(first, second):
    tol = ToleranceConfig()
    assert_product_rule(first(tol), second(tol), tol)
