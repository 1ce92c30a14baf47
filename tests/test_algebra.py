import tracemalloc

import numpy as np
import pytest

from ebcert import (
    CPMap,
    KrausChannel,
    MatrixAlgebra,
    ToleranceConfig,
    center,
    complement_adjoint,
    minimal_kraus,
    multiplicative_domain,
    random_unitary,
    rank_one_resolution,
    structure,
)
from ebcert.algebra import (
    _decide,
    _domain_blocks,
    _separated,
    _transfer_apply,
    _verify_domain,
    commutant_from_elements,
    interaction_draws,
)
from ebcert.errors import NotMultiplicityFree, NotUnitalOrNotTP, VerificationFailure
from ebcert.zoo import (
    depolarizing,
    random_channel,
    random_projection_choi_channel,
    random_schur_complement_channel,
    schur_channel,
)

from oracles import (
    algebra_from_span,
    block_unital_complement,
    commutant,
    fixed_point_domain,
    intersect_spans,
    random_complex_matrix,
    span_projector,
    schwarz_defects,
    subspace_gap,
    transfer_matrix,
    verify_domain_per_element,
)


def matrix_units(d):
    out = []
    for i in range(d):
        for j in range(d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = 1.0
            out.append(m)
    return out


def diagonal_algebra(d, tol):
    return algebra_from_span(
        [np.diag(row) for row in np.eye(d).astype(complex)], tol
    )


def full_algebra(d, tol):
    return algebra_from_span(matrix_units(d), tol)


def conjugated(alg, unitary, tol):
    return algebra_from_span(
        [unitary @ b @ unitary.conj().T for b in alg.basis], tol
    )


def block_diag_algebra(sizes, tol):
    """Direct sum of full matrix algebras of the given sizes."""
    d = sum(sizes)
    mats = []
    offset = 0
    for size in sizes:
        for u in matrix_units(size):
            m = np.zeros((d, d), dtype=complex)
            m[offset:offset + size, offset:offset + size] = u
            mats.append(m)
        offset += size
    return algebra_from_span(mats, tol)


def repeated_block_algebra(multiplicity, size, tol):
    """Elements I_multiplicity (x) B for B of the given size."""
    return algebra_from_span(
        [np.kron(np.eye(multiplicity), u) for u in matrix_units(size)], tol
    )


def scalar_plus_block_algebra(tol):
    """Scalars on a 3-dim summand plus a full 2x2 block."""
    mats = [np.zeros((5, 5), dtype=complex)]
    mats[0][:3, :3] = np.eye(3)
    for u in matrix_units(2):
        m = np.zeros((5, 5), dtype=complex)
        m[3:, 3:] = u
        mats.append(m)
    return algebra_from_span(mats, tol)


class TestMatrixAlgebra:
    def test_from_span_orthonormalizes(self, tol):
        alg = full_algebra(2, tol)
        assert alg.dimension == 4
        for i, a in enumerate(alg.basis):
            for j, b in enumerate(alg.basis):
                gram = np.trace(a.conj().T @ b)
                assert gram == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_invariants_reject_non_algebra_span(self, tol):
        # span{E_12} in M_2 is not *-closed
        e12 = np.zeros((2, 2), dtype=complex)
        e12[0, 1] = 1.0
        with pytest.raises(VerificationFailure):
            algebra_from_span([e12, np.eye(2)], tol)

    def test_invariants_reject_star_closed_span_without_products(self, tol):
        # span{I, sigma_x, sigma_z} is *-closed but sigma_x sigma_z = -i sigma_y
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(VerificationFailure, match="multiplicatively"):
            algebra_from_span([np.eye(2), sx, sz], tol)

    def test_contains(self, tol):
        alg = diagonal_algebra(3, tol)
        assert alg.contains(np.diag([1.0, 2.0, -1.0]), tol)
        assert not alg.contains(np.ones((3, 3)), tol)

    def test_basis_is_one_read_only_stack(self, tol):
        mats = [np.eye(2), np.diag([1.0, -1.0])]
        alg = algebra_from_span(mats, tol)
        assert isinstance(alg.basis, np.ndarray)
        assert alg.basis.shape == (2, 2, 2) and alg.ambient_dim == 2
        assert not alg.basis.flags.writeable
        with pytest.raises(ValueError):
            alg.basis[0, 0, 0] = 5.0


class TestMultiplicativeDomain:
    def test_unitary_conjugation_has_full_domain(self, tol):
        u = random_unitary(4, 3)
        dom = multiplicative_domain(KrausChannel([u], tol), tol)
        assert dom.dimension == 16

    def test_depolarizing_has_trivial_domain(self, tol):
        dom = multiplicative_domain(depolarizing(4, tol), tol)
        assert dom.dimension == 1
        assert dom.contains(np.eye(4), tol)

    def test_complement_adjoint_of_rank_one_channel_is_diagonal(self, tol):
        # generic Gram vectors: strictly contractive off-diagonal multipliers
        # leave only the diagonal fixed
        ch = minimal_kraus(random_schur_complement_channel(4, 6, 5, tol), tol)
        dom = multiplicative_domain(complement_adjoint(ch, tol), tol)
        assert dom.dimension == 4
        assert structure(dom, tol).pairs() == ((1, 1),) * 4

    def test_rejects_non_unital_map(self, tol):
        ch = random_channel(3, 3, 2, 6, tol)  # TP but generically not unital
        with pytest.raises(NotUnitalOrNotTP):
            multiplicative_domain(ch, tol)

    def test_rejects_non_tp_map(self, tol):
        cp = CPMap([np.eye(3) / 2], tol)
        with pytest.raises(NotUnitalOrNotTP):
            multiplicative_domain(cp, tol)

    def test_rejects_non_square_map(self, tol):
        ch = random_channel(3, 2, 2, 6, tol)  # TP, from 3 x 3 to 2 x 2 matrices
        with pytest.raises(NotUnitalOrNotTP, match="endomorphism"):
            multiplicative_domain(ch, tol)

    def test_verification_rejects_a_span_beyond_the_domain(self, tol):
        # complete dephasing on M_2 has the diagonal matrices as its domain;
        # the off-diagonal units of full M_2 break the adjoint-product
        # criterion, here and in the per-element reference
        psi, alg = schur_channel(np.eye(2), tol), full_algebra(2, tol)
        with pytest.raises(VerificationFailure) as reference:
            verify_domain_per_element(psi, alg, tol)
        with pytest.raises(VerificationFailure) as grouped:
            _verify_domain(psi, alg, tol)
        assert str(grouped.value) == str(reference.value)

    def test_domain_satisfies_bilinear_conditions(self, tol):
        ch = schur_channel(np.eye(3), tol)  # dephasing, domain = diagonal
        dom = multiplicative_domain(ch, tol)
        assert dom.dimension == 3
        rng = np.random.default_rng(8)
        for a in dom.basis:
            for _ in range(10):
                x = random_complex_matrix(3, 3, rng)
                lhs = ch.apply(a @ x) - ch.apply(a) @ ch.apply(x)
                rhs = ch.apply(x @ a) - ch.apply(x) @ ch.apply(a)
                bound = tol.eps_verify * np.linalg.norm(a) * np.linalg.norm(x)
                assert np.linalg.norm(lhs) <= bound
                assert np.linalg.norm(rhs) <= bound

    def test_projections_in_domain_map_to_projections(self, tol):
        # inside the domain the image of a projection is a projection;
        # outside it fails for the depolarizing channel
        d = 3
        dep = depolarizing(d, tol)
        dom = multiplicative_domain(dep, tol)
        inside = np.eye(d)  # the only projections in the trivial domain: 0, I
        img = dep.apply(inside)
        assert np.linalg.norm(img @ img - img) <= tol.eps_verify
        outside = np.diag([1.0, 0.0, 0.0])
        img = dep.apply(outside)
        assert np.linalg.norm(img @ img - img) > 1e-3


ORACLE_FIXTURES = [
    *[pytest.param(lambda tol, sizes=sizes, j=j, seed=seed:
                   block_unital_complement(sizes, j, seed, tol),
                   id=f"blocks{''.join(map(str, sizes))}x{j}-seed{seed}")
      for sizes, j in [((1, 3), 1), ((2, 2), 1), ((1, 1, 2), 1), ((2,), 2),
                       ((1, 2), 2), ((2, 1), 3), ((1, 1), 3)]
      for seed in range(2)],
    *[pytest.param(lambda tol, n=n, eb=eb:
                   random_projection_choi_channel(n, n, 1 + (not eb), tol, ensure_eb=eb),
                   id=f"{'planted' if eb else 'generic'}-{n}")
      for n in (6, 16) for eb in (True, False)],
]


def clifford_generators():
    """Five pairwise anticommuting Hermitian unitaries on C^4."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2)
    return np.stack([np.kron(x, eye), np.kron(y, eye),
                     np.kron(z, x), np.kron(z, y), np.kron(z, z)])


class TestInteractionElements:
    @pytest.mark.parametrize("planted", [True, False], ids=["planted", "generic"])
    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_draws_are_slices_of_one_stack(self, tol, n, planted):
        # a caller that forms draws 0-1, then 2-7, reads the bits of the whole stack
        channel = random_projection_choi_channel(n, n, 1, tol, ensure_eb=planted)
        draw = interaction_draws(minimal_kraus(channel, tol).kraus, tol)
        whole = draw(slice(None))
        parts = [draw(draws) for draws in (slice(0, 2), slice(2, None))]
        assert [len(part) for part in parts] == [2, 6]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_commuting_branch_decomposes_one_element(self, tol, monkeypatch):
        # the eigenvalues of all eight elements from one call, then the
        # eigenvectors of the one element the blocks are read from
        kraus = minimal_kraus(random_projection_choi_channel(6, 6, 1, tol, ensure_eb=True),
                              tol).kraus
        shapes = {"eigh": [], "eigvalsh": []}
        originals = {name: getattr(np.linalg, name) for name in shapes}

        def counting(name):
            def decompose(a, *args, **kwargs):
                shapes[name].append(np.shape(a))
                return originals[name](a, *args, **kwargs)
            return decompose

        for name in shapes:
            monkeypatch.setattr(np.linalg, name, counting(name))
        decision = _decide(interaction_draws(kraus, tol), tol)
        assert decision.multiplicity_free
        assert shapes == {"eigh": [(6, 6)], "eigvalsh": [(8, 6, 6)]}


class TestTransferApply:
    """The gate's evaluation of psi through the row blocks of its transfer
    matrix, on maps with n != m and a Kraus count other than n, where a
    wrong vec convention or a swapped index would show."""

    @pytest.mark.parametrize("k, m, n", [(3, 4, 2), (5, 2, 3), (1, 3, 3), (2, 5, 4)])
    def test_matches_the_oracle_and_apply(self, tol, k, m, n):
        rng = np.random.default_rng(100 * k + 10 * m + n)
        kraus = random_complex_matrix(k * m, n, rng).reshape(k, m, n) / np.sqrt(k * n)
        stack = random_complex_matrix(4 * n, n, rng).reshape(4, n, n)
        images = _transfer_apply(kraus, stack)
        assert images.shape == (4, m, m)
        np.testing.assert_allclose(images, CPMap(kraus, tol).apply(stack), rtol=0, atol=1e-13)
        # the images of the matrix units are the columns of T, which on
        # row-major vecs is the conjugate of the column-stacking oracle
        units = np.eye(n * n).reshape(n * n, n, n)
        np.testing.assert_allclose(_transfer_apply(kraus, units).reshape(n * n, m * m).T,
                                   transfer_matrix(kraus).conj(), rtol=0, atol=1e-13)


class TestCommutantFromElements:
    @pytest.mark.parametrize("build", ORACLE_FIXTURES)
    def test_domain_matches_the_fixed_point_oracle(self, tol, build):
        minimal = minimal_kraus(build(tol), tol)
        psi = complement_adjoint(minimal, tol)
        dom, decision = _domain_blocks(minimal.kraus, tol)
        reference = fixed_point_domain(psi, tol)
        assert dom.dimension == reference.dimension
        assert subspace_gap(reference.basis, dom.basis) <= 1e-10
        assert decision.pairs == structure(reference, tol).pairs()
        assert multiplicative_domain(psi, tol).dimension == dom.dimension

    def test_basis_is_orthonormal_by_construction(self, tol):
        psi = complement_adjoint(minimal_kraus(block_unital_complement((1, 2), 2, 0, tol), tol), tol)
        flat = multiplicative_domain(psi, tol).basis.reshape(8, -1)
        np.testing.assert_allclose(flat.conj() @ flat.T, np.eye(8), atol=1e-12)

    def test_clifford_span_is_refused_not_misread(self, tol):
        """Elements more degenerate than the algebra they generate raise a
        named error instead of giving a wrong basis.

        Every element of span{I, g_1, ..., g_5}, for pairwise anticommuting
        Hermitian unitaries g_k on C^4, has two doubly degenerate eigenvalues,
        since (x.g)^2 = |x|^2 I, yet the span generates M_4, whose commutant
        is the scalars.  The clusters of size two read as the pair (2, 2).

        No unital trace-preserving psi has its interaction span inside
        span{I, g_k} unless that span is abelian, so the builder is handed
        such elements directly.  For Kraus operators P_1, ..., P_k of psi,
        the kd x kd matrix G of blocks P_b* P_a is L* L for L = [P_1 ... P_k],
        and L L* = I (psi unital) makes G a projection.  With every block in
        the span, G = Y_0 (x) I + sum_k Y_k (x) g_k for Hermitian k x k
        matrices Y, and G^2 = G forces [Y_k, Y_l] = 0, {Y_0, Y_k} = Y_k and
        Y_0^2 + sum_k Y_k^2 = Y_0.  In a joint eigenbasis of the Y_k, with
        eigenvalue vectors y(c) in R^5, each c with y(c) != 0 has
        (Y_0)_cc = 1/2 and every diagonal entry of Y_0 is nonnegative.  Trace
        preservation, sum_a P_a* P_a = I, gives tr Y_0 = 1 and
        sum_c y(c) = 0: so at most two c have y(c) != 0, and those two have
        opposite vectors.  Every block then lies in span{I, u.g} for one
        vector u, an abelian algebra whose degenerate clusters are read
        correctly (see the next test).
        """
        gammas = np.concatenate([np.eye(4)[None], clifford_generators()])
        coeffs = np.random.default_rng(5).standard_normal((8, 6))
        elements = np.tensordot(coeffs, gammas, axes=1)
        elements /= np.linalg.norm(elements, axis=(1, 2))[:, None, None]
        spectra = np.linalg.eigvalsh(elements)
        np.testing.assert_allclose(spectra[:, 0], spectra[:, 1], atol=1e-12)
        np.testing.assert_allclose(spectra[:, 2], spectra[:, 3], atol=1e-12)
        decision = _decide(elements.__getitem__, tol)
        assert decision.pairs == ((2, 2),)  # the generated algebra is M_4
        with pytest.raises(VerificationFailure, match="residual .* above eps_verify"):
            commutant_from_elements(decision, elements, tol)

    @pytest.mark.parametrize("kraus", [
        pytest.param(lambda g: np.stack([np.eye(4), *g]) / np.sqrt(6), id="all-generators"),
        pytest.param(lambda g: np.stack([0.6 * np.eye(4), 0.8 * g[0]]), id="one-generator"),
    ])
    def test_clifford_unital_maps_recover_the_domain(self, tol, kraus):
        # Kraus operators in span{I, g_k}: with several generators their
        # products P_b* P_a leave the span and generate M_4; with one the
        # span is abelian and each eigenvalue is doubly degenerate
        psi = KrausChannel(kraus(clifford_generators()), tol)
        dom, decision = _domain_blocks(np.conj(psi.kraus).transpose(2, 0, 1), tol)
        reference = fixed_point_domain(psi, tol)
        assert dom.dimension == reference.dimension
        assert subspace_gap(reference.basis, dom.basis) <= 1e-10
        assert decision.pairs == structure(reference, tol).pairs()

    @pytest.mark.parametrize("p, commuting", [(1e-2, False), (1e-6, True), (1e-10, True)])
    def test_nearly_commuting_algebra_is_refused_not_misread(self, tol, p, commuting):
        """A known limit of the one commutator rule, pinned so that a change
        to it is seen.  psi(X) = (1 - 2p) X + p U X U* + p V X V*, for the
        shift U and clock V on C^3, is unital and trace preserving, and its
        domain is the scalars for every p > 0, since U and V generate M_3.
        Its interaction elements are I / sqrt(3) plus terms of order sqrt(p),
        so their relative commutator is of order p.  Above sqrt(eps_eig) the
        blocks are read from two elements and the domain is found.  At or
        below it the elements count as commuting; the diagonal algebra of the
        chosen element's eigenvectors then misses the all-element commutator
        check at eps_verify by about sqrt(p), so the map is refused with a
        VerificationFailure instead of a wrong domain."""
        shift = np.roll(np.eye(3), 1, axis=0)
        clock = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
        psi = KrausChannel(np.stack([np.sqrt(1 - 2 * p) * np.eye(3),
                                     np.sqrt(p) * shift, np.sqrt(p) * clock]), tol)
        reference = fixed_point_domain(psi, tol)
        assert reference.dimension == 1
        kraus = np.conj(psi.kraus).transpose(2, 0, 1)  # the stack _domain_blocks reads
        decision = _decide(interaction_draws(kraus, tol), tol)
        assert decision.multiplicity_free == (decision.kappa <= np.sqrt(tol.eps_eig)) == commuting
        if not commuting:
            dom, decision = _domain_blocks(kraus, tol)
            assert subspace_gap(reference.basis, dom.basis) <= 1e-10
            assert decision.pairs == ((3, 1),)
        else:
            with pytest.raises(VerificationFailure, match="fails to commute with them"):
                multiplicative_domain(psi, tol)


VERIFY_FIXTURES = [p for p in ORACLE_FIXTURES if not p.id.startswith("generic")]


def moved_off(dom, offset):
    """The domain's basis with its middle element moved by offset along a
    unit direction orthogonal to the domain."""
    r, d = dom.dimension, dom.ambient_dim
    off = random_complex_matrix(d, d, np.random.default_rng(3)).reshape(1, -1)
    flat = dom.basis.reshape(r, -1)
    off -= (off @ flat.conj().T) @ flat
    basis = dom.basis.copy()
    basis[r // 2] += offset * (off / np.linalg.norm(off)).reshape(d, d)
    return MatrixAlgebra(basis)


class TestVerifyDomain:
    """The gate, which applies psi to products with three probes only,
    against the reference in the oracles, which also evaluates every product
    of two basis elements: same verdicts, and on a domain the same largest
    residual to 1e-14, as every residual there is rounding."""

    @staticmethod
    def domain(build, tol):
        psi = complement_adjoint(minimal_kraus(build(tol), tol), tol)
        return psi, multiplicative_domain(psi, tol)

    @pytest.mark.parametrize("group", [None, 5], ids=["budget", "fives"])
    @pytest.mark.parametrize("build", VERIFY_FIXTURES)
    def test_grouped_checks_match_the_reference(self, tol, build, group):
        # budget: the basis as built; fives: the same span in another
        # orthonormal basis, each group of five elements turned by a random
        # unitary, so the elements are no longer matrix units of the blocks
        psi, dom = self.domain(build, tol)
        if group is not None:
            r, rng = dom.dimension, np.random.default_rng(11)
            turn = np.zeros((r, r), dtype=complex)
            for g in range(0, r, group):
                size = min(group, r - g)
                turn[g:g + size, g:g + size] = random_unitary(size, rng)
            dom = MatrixAlgebra(np.tensordot(turn, dom.basis, axes=1))
        reference = verify_domain_per_element(psi, dom, tol)
        assert abs(_verify_domain(psi, dom, tol) - reference) <= 1e-14

    @pytest.mark.parametrize("build", [p for p in VERIFY_FIXTURES if p.id.startswith("planted")])
    def test_both_reject_one_element_moved_off_the_domain(self, tol, build):
        # A + 1e-6 E with E orthogonal to the domain: the adjoint-product
        # criterion moves only at second order, the probes at first
        psi, dom = self.domain(build, tol)
        moved = moved_off(dom, 1e-6)
        with pytest.raises(VerificationFailure, match="bilinear") as reference:
            verify_domain_per_element(psi, moved, tol)
        with pytest.raises(VerificationFailure, match="bilinear") as gate:
            _verify_domain(psi, moved, tol)
        assert str(gate.value) == str(reference.value)

    @pytest.mark.parametrize("kraus", [
        pytest.param(lambda tol: np.stack([np.sqrt(p) * random_unitary(4, s) for s, p in
                                           enumerate([0.5, 0.3, 0.2])]), id="mixed-unitary"),
        pytest.param(lambda tol: complement_adjoint(minimal_kraus(
            random_projection_choi_channel(5, 5, 1, tol, ensure_eb=True), tol), tol).kraus,
            id="planted-adjoint"),
    ])
    def test_defect_factors_through_the_stacked_kraus(self, tol, kraus):
        # psi(X* Y) - psi(X)* psi(Y) = B_X* B_Y, B_X = (I (x) X)V - V psi(X)
        # for V the K_i* stacked into a kd x d matrix
        psi = CPMap(kraus(tol), tol)
        k, d, _ = psi.kraus.shape
        v = psi.kraus.conj().transpose(0, 2, 1)
        rng = np.random.default_rng(4)

        def b(x):
            return (x @ v - v @ psi.apply(x)).reshape(k * d, d)

        for _ in range(3):
            x, y = (random_complex_matrix(d, d, rng) for _ in range(2))
            defect = psi.apply(x.conj().T @ y) - psi.apply(x).conj().T @ psi.apply(y)
            np.testing.assert_allclose(b(x).conj().T @ b(y), defect, atol=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 1e-4], ids=["built", "moved"])
    @pytest.mark.parametrize("build", VERIFY_FIXTURES)
    def test_criterion_bounds_the_basis_products(self, tol, build, offset):
        # every residual between two basis elements is at most d^(1/4) times
        # the largest adjoint-product residual; with an element moved by 1e-4
        # both sit between 1e-9 and 1e-8, far above rounding
        psi, dom = self.domain(build, tol)
        criterion, pairs = schwarz_defects(psi, moved_off(dom, offset).basis)
        assert pairs <= psi.input_dim ** 0.25 * criterion


class TestVerifyDomainCost:
    @pytest.mark.parametrize("n", [24, 32])
    def test_peak_memory_stays_below_the_transfer_matrix(self, tol, n):
        # the gate holds no whole copy of psi's transfer matrix T and no
        # r x d x k x d intermediate of CPMap.apply, each the size of T here
        # (r = d = k = n): its tracemalloc peak stays within 1.5 times the
        # bytes of T, and from n = 32 below them
        psi = complement_adjoint(minimal_kraus(
            random_projection_choi_channel(n, n, 1, tol, ensure_eb=True), tol), tol)
        dom = multiplicative_domain(psi, tol)
        k, m, d = psi.kraus.shape
        transfer_bytes = m * m * d * d * 16
        assert dom.dimension * d * k * d * 16 == transfer_bytes
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _verify_domain(psi, dom, tol)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * transfer_bytes
        if n >= 32:
            assert peak < transfer_bytes


class TestCommutant:
    def test_full_algebra_commutant_is_scalars(self, tol):
        com = commutant(full_algebra(3, tol), tol)
        assert com.dimension == 1
        assert com.contains(np.eye(3), tol)

    def test_scalar_commutant_is_everything(self, tol):
        triv = algebra_from_span([np.eye(3)], tol)
        assert commutant(triv, tol).dimension == 9

    def test_diagonal_is_its_own_commutant(self, tol):
        diag = diagonal_algebra(4, tol)
        com = commutant(diag, tol)
        assert com.dimension == 4
        for b in com.basis:
            assert diag.contains(b, tol)

    def test_commutant_elements_commute(self, tol):
        alg = repeated_block_algebra(2, 2, tol)
        com = commutant(alg, tol)
        for a in alg.basis:
            for b in com.basis:
                assert np.linalg.norm(a @ b - b @ a) <= tol.eps_verify


class TestIntersectAndCenter:
    def test_intersection_of_diagonal_and_full(self, tol):
        diag = diagonal_algebra(3, tol)
        full = full_algebra(3, tol)
        meet = intersect_spans(diag.basis, full.basis, tol)
        assert len(meet) == 3

    def test_center_of_factor_is_scalars(self, tol):
        assert len(center(full_algebra(3, tol), tol)) == 1

    def test_center_of_two_blocks(self, tol):
        assert len(center(block_diag_algebra([2, 3], tol), tol)) == 2

    @pytest.mark.parametrize("build", [
        lambda tol: block_diag_algebra([2, 3], tol),
        lambda tol: repeated_block_algebra(2, 2, tol),
        scalar_plus_block_algebra,
    ], ids=["block_diag", "repeated", "scalar_plus_block"])
    def test_center_matches_commutant_intersection(self, tol, build):
        alg = build(tol)
        alg = conjugated(alg, random_unitary(alg.ambient_dim, 61), tol)
        central = center(alg, tol)
        reference = intersect_spans(alg.basis, commutant(alg, tol).basis, tol)
        assert len(central) == len(reference)
        gram = np.array([[np.vdot(a, b) for b in central] for a in central])
        np.testing.assert_allclose(gram, np.eye(len(central)), atol=1e-12)
        assert np.linalg.norm(span_projector(central, tol)
                              - span_projector(reference, tol)) <= 1e-12


class TestStructure:
    @pytest.mark.parametrize("seed", range(4))
    def test_separated_takes_the_per_cluster_means(self, tol, seed):
        # one reduction over the runs against one mean per cluster, on
        # spectra whose cluster gaps lie near 10 eps_eig but not on it; odd
        # seeds also draw gaps below it
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 5, 6)
        gaps = rng.choice([9.5, 10.5, 30.0] if seed % 2 else [10.5, 30.0], len(sizes))
        centres = np.cumsum(gaps * tol.eps_eig)[::-1]
        evals = np.repeat(centres, sizes) + rng.uniform(-1, 1, sizes.sum()) * 1e-3 * tol.eps_eig
        clusters = np.split(np.arange(evals.size), np.cumsum(sizes)[:-1])
        means = np.array([np.mean(evals[c]) for c in clusters])
        assert _separated(evals, clusters, tol) == bool(np.all(-np.diff(means) >= 10 * tol.eps_eig))

    def test_diagonal(self, tol):
        s = structure(diagonal_algebra(3, tol), tol)
        assert s.pairs() == ((1, 1), (1, 1), (1, 1))
        assert s.multiplicity_free

    def test_full(self, tol):
        for d in (2, 4):
            s = structure(full_algebra(d, tol), tol)
            assert s.pairs() == ((1, d),)
            assert s.multiplicity_free

    def test_repeated_block(self, tol):
        s = structure(repeated_block_algebra(2, 2, tol), tol)
        assert s.pairs() == ((2, 2),)
        assert not s.multiplicity_free

    def test_two_full_blocks(self, tol):
        s = structure(block_diag_algebra([2, 3], tol), tol)
        assert s.pairs() == ((1, 3), (1, 2))
        assert s.multiplicity_free

    def test_mixed_repeated_scalar_block(self, tol):
        s = structure(scalar_plus_block_algebra(tol), tol)
        assert s.pairs() == ((1, 2), (3, 1))
        assert not s.multiplicity_free

    def test_invariant_under_conjugation_and_seed(self, tol):
        alg = block_diag_algebra([2, 2, 1], tol)
        expected = ((1, 2), (1, 2), (1, 1))
        assert structure(alg, tol).pairs() == expected
        for k in range(3):
            u = random_unitary(5, 100 + k)
            assert structure(conjugated(alg, u, tol), tol).pairs() == expected
        other = ToleranceConfig(seed=777)
        assert structure(alg, other).pairs() == expected

    def test_central_projections_partition_identity(self, tol):
        s = structure(block_diag_algebra([2, 3], tol), tol)
        total = sum(b.projection for b in s.blocks)
        np.testing.assert_allclose(total, np.eye(5), atol=1e-10)
        for b in s.blocks:
            np.testing.assert_allclose(
                b.projection @ b.projection, b.projection, atol=1e-10
            )

    def test_dimension_consistency(self, tol):
        alg = block_diag_algebra([3, 2], tol)
        s = structure(alg, tol)
        assert sum(j * j for _, j in s.pairs()) == alg.dimension
        assert sum(i * j for i, j in s.pairs()) == alg.ambient_dim


class TestRankOneResolution:
    def test_diagonal_gives_standard_basis_up_to_phase(self, tol):
        alg = diagonal_algebra(4, tol)
        vectors = rank_one_resolution(alg, structure(alg, tol), tol)
        assert len(vectors) == 4
        moduli = np.sort(np.argmax(np.abs(np.column_stack(vectors)), axis=0))
        np.testing.assert_array_equal(moduli, np.arange(4))
        for w in vectors:
            np.testing.assert_allclose(np.sort(np.abs(w)), [0, 0, 0, 1], atol=1e-10)

    def test_full_algebra_gives_orthonormal_basis(self, tol):
        alg = full_algebra(2, tol)
        vectors = rank_one_resolution(alg, structure(alg, tol), tol)
        total = sum(np.outer(w, w.conj()) for w in vectors)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-10)

    def test_projections_stay_in_algebra(self, tol):
        alg = block_diag_algebra([2, 3], tol)
        vectors = rank_one_resolution(alg, structure(alg, tol), tol)
        for w in vectors:
            assert alg.contains(np.outer(w, w.conj()), tol)

    def test_rejects_repeated_blocks(self, tol):
        alg = repeated_block_algebra(2, 2, tol)
        with pytest.raises(NotMultiplicityFree):
            rank_one_resolution(alg, structure(alg, tol), tol)

    def test_seed_determinism(self, tol):
        alg = full_algebra(3, tol)
        s = structure(alg, tol)
        first = rank_one_resolution(alg, s, tol)
        second = rank_one_resolution(alg, s, tol)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
