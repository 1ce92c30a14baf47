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
from ebcert.errors import NotMultiplicityFree, NotUnitalOrNotTP, VerificationFailure
from ebcert.zoo import (
    depolarizing,
    random_channel,
    random_schur_complement_channel,
    schur_channel,
)

from oracles import commutant, intersect_spans, random_complex_matrix, span_projector


def matrix_units(d):
    out = []
    for i in range(d):
        for j in range(d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = 1.0
            out.append(m)
    return out


def diagonal_algebra(d, tol):
    return MatrixAlgebra.from_span(
        [np.diag(row) for row in np.eye(d).astype(complex)], tol
    )


def full_algebra(d, tol):
    return MatrixAlgebra.from_span(matrix_units(d), tol)


def conjugated(alg, unitary, tol):
    return MatrixAlgebra.from_span(
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
    return MatrixAlgebra.from_span(mats, tol)


def repeated_block_algebra(multiplicity, size, tol):
    """Elements I_multiplicity (x) B for B of the given size."""
    return MatrixAlgebra.from_span(
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
    return MatrixAlgebra.from_span(mats, tol)


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
            MatrixAlgebra.from_span([e12, np.eye(2)], tol)

    def test_invariants_reject_star_closed_span_without_products(self, tol):
        # span{I, sigma_x, sigma_z} is *-closed but sigma_x sigma_z = -i sigma_y
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(VerificationFailure, match="multiplicatively"):
            MatrixAlgebra.from_span([np.eye(2), sx, sz], tol)

    def test_contains(self, tol):
        alg = diagonal_algebra(3, tol)
        assert alg.contains(np.diag([1.0, 2.0, -1.0]), tol)
        assert not alg.contains(np.ones((3, 3)), tol)

    def test_basis_is_one_read_only_stack(self, tol):
        mats = [np.eye(2), np.diag([1.0, -1.0])]
        alg = MatrixAlgebra.from_span(mats, tol)
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

    def test_verification_rejects_a_span_beyond_the_domain(self, tol):
        # complete dephasing on M_2 has the diagonal matrices as its domain;
        # the off-diagonal units of full M_2 break the adjoint-product criterion
        from ebcert.algebra import _verify_domain

        with pytest.raises(VerificationFailure):
            _verify_domain(schur_channel(np.eye(2), tol), full_algebra(2, tol), tol)

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


class TestCommutant:
    def test_full_algebra_commutant_is_scalars(self, tol):
        com = commutant(full_algebra(3, tol), tol)
        assert com.dimension == 1
        assert com.contains(np.eye(3), tol)

    def test_scalar_commutant_is_everything(self, tol):
        triv = MatrixAlgebra.from_span([np.eye(3)], tol)
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
