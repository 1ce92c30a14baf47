import numpy as np
import pytest

from ebcert import ToleranceConfig
from ebcert.errors import DimensionMismatch, NotHermitian
from ebcert.numerics import (
    MAX_RESAMPLE,
    from_pairs,
    hermitian_eig,
    nullspace,
    numerical_rank,
    phase_fix,
    random_hermitian_in_span,
    random_unitary,
    unvec,
    to_pairs,
    vec,
)
from ebcert.zoo import random_projection_choi_channel, redilate_fixture, werner_holevo

from oracles import (
    factor_distance,
    orthonormal_matrix_basis,
    random_complex_matrix,
    span_projector,
)


def random_hermitian(n, rng):
    g = random_complex_matrix(n, n, rng)
    return g + g.conj().T


class TestToleranceConfig:
    def test_defaults(self):
        t = ToleranceConfig()
        assert t.eps_rank == 1e-10
        assert t.eps_eig == 1e-8
        assert t.eps_verify == 1e-8
        assert MAX_RESAMPLE == 8

    @pytest.mark.parametrize("field", ["eps_rank", "eps_eig", "eps_verify"])
    def test_rejects_nonpositive_epsilons(self, field):
        with pytest.raises(ValueError):
            ToleranceConfig(**{field: 0.0})

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ToleranceConfig(seed=-3)

    def test_rng_is_deterministic_and_salted(self):
        t = ToleranceConfig(seed=5)
        a = t.rng(1).standard_normal(4)
        b = t.rng(1).standard_normal(4)
        c = t.rng(2).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestHermitianEig:
    def test_identity(self, tol):
        evals, evecs = hermitian_eig(np.eye(3), tol)
        np.testing.assert_allclose(evals, [1, 1, 1])
        np.testing.assert_allclose(evecs.conj().T @ evecs, np.eye(3), atol=1e-12)

    def test_diagonal_descending(self, tol):
        evals, evecs = hermitian_eig(np.diag([2.0, -1.0]), tol)
        np.testing.assert_allclose(evals, [2, -1])
        # eigenvectors are identity columns up to order and phase
        np.testing.assert_allclose(np.abs(evecs), np.eye(2), atol=1e-12)

    def test_pauli_x(self, tol):
        # by-hand characteristic polynomial: eigenvalues +-1,
        # eigenvectors (1, +-1)/sqrt(2)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        evals, evecs = hermitian_eig(x, tol)
        np.testing.assert_allclose(evals, [1, -1], atol=1e-12)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        assert abs(np.vdot(plus, evecs[:, 0])) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(minus, evecs[:, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_residual_on_random_inputs(self, tol):
        rng = np.random.default_rng(11)
        for n in (2, 5, 9):
            a = random_hermitian(n, rng)
            evals, evecs = hermitian_eig(a, tol)
            rebuilt = evecs @ np.diag(evals) @ evecs.conj().T
            assert np.linalg.norm(rebuilt - a) <= tol.eps_verify * (1 + np.linalg.norm(a))
            assert np.linalg.norm(evecs.conj().T @ evecs - np.eye(n)) <= tol.eps_verify

    def test_phase_fix_matches_per_column_loop_bit_for_bit(self, tol):
        rng = np.random.default_rng(12)
        inputs = [np.ones((4, 4)), np.eye(3), np.diag([1.0, 1.0, 2.0])]
        for n in (1, 2, 5, 9, 16):
            g = random_complex_matrix(n, n, rng)
            # rounded entries make tied moduli inside eigenvector columns
            for a in (g, np.round(g, 1), np.round(g), np.round(g.real)):
                inputs.append(a + a.conj().T)
        for a in inputs:
            evals, evecs = np.linalg.eigh(np.asarray(a, dtype=complex))
            order = np.argsort(evals)[::-1]
            expected = evecs[:, order]
            for k in range(expected.shape[1]):
                expected[:, k] = phase_fix(expected[:, k])
            got_evals, got = hermitian_eig(a, tol)
            np.testing.assert_array_equal(got_evals, evals[order])
            np.testing.assert_array_equal(got, expected)

    def test_stack_matches_per_matrix_calls_bit_for_bit(self, tol):
        rng = np.random.default_rng(13)
        for n in (1, 3, 8):
            g = np.stack([random_hermitian(n, rng) for _ in range(4)])
            # rounded entries and a multiple of the identity give tied eigenvalues
            stack = np.concatenate([g, np.round(g), 2 * np.eye(n)[None]])
            evals, evecs = hermitian_eig(stack, tol)
            for k, a in enumerate(stack):
                one_evals, one_evecs = hermitian_eig(a, tol)
                np.testing.assert_array_equal(evals[k], one_evals)
                np.testing.assert_array_equal(evecs[k], one_evecs)

    def test_stack_rejects_one_non_hermitian_matrix(self, tol):
        stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(NotHermitian):
            hermitian_eig(stack, tol)

    def test_rejects_non_hermitian(self, tol):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), tol)
        with pytest.raises(NotHermitian):
            hermitian_eig(np.ones((2, 3)), tol)


class TestNumericalRank:
    def test_zero_matrix(self, tol):
        assert numerical_rank(np.zeros((3, 4)), tol) == 0

    def test_outer_product_is_rank_one(self, tol):
        rng = np.random.default_rng(3)
        u = random_complex_matrix(5, 1, rng)
        v = random_complex_matrix(4, 1, rng)
        assert numerical_rank(u @ v.conj().T, tol) == 1

    def test_transpose_plus_trace_choi_rank(self, tol):
        # rank d(d+1)/2 at d=3
        from ebcert import choi
        rep = choi(werner_holevo(3), tol)
        assert numerical_rank(rep.choi, tol) == 6

    def test_invariant_under_unitaries(self, tol):
        rng = np.random.default_rng(7)
        a = random_complex_matrix(5, 3, rng) @ random_complex_matrix(3, 6, rng)
        r = numerical_rank(a, tol)
        assert r == 3
        u = random_unitary(5, 21)
        w = random_unitary(6, 22)
        assert numerical_rank(u @ a @ w, tol) == r


class TestNullspace:
    def test_identity_has_empty_nullspace(self, tol):
        assert nullspace(np.eye(4), tol).shape == (4, 0)

    def test_zero_matrix_nullspace_is_everything(self, tol):
        basis = nullspace(np.zeros((2, 2)), tol)
        assert basis.shape == (2, 2)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)

    def test_hand_solved_two_by_two(self, tol):
        # [[1,1],[0,0]] x = 0  <=>  x1 = -x2
        basis = nullspace(np.array([[1.0, 1.0], [0.0, 0.0]]), tol)
        assert basis.shape == (2, 1)
        expected = np.array([1, -1]) / np.sqrt(2)
        assert abs(np.vdot(expected, basis[:, 0])) == pytest.approx(1.0, abs=1e-12)

    def test_residual_orthonormality_and_count(self, tol):
        rng = np.random.default_rng(9)
        a = random_complex_matrix(4, 2, rng) @ random_complex_matrix(2, 7, rng)
        basis = nullspace(a, tol)
        assert basis.shape[1] == 7 - numerical_rank(a, tol)
        smax = np.linalg.svd(a, compute_uv=False)[0]
        for k in range(basis.shape[1]):
            assert np.linalg.norm(a @ basis[:, k]) <= tol.eps_rank * smax * 10
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-12)

    @pytest.mark.parametrize("rows", [9, 6, 3])  # tall, square, wide
    def test_same_null_space_for_every_shape(self, tol, rows):
        # a = x @ y with x of full column rank has the null space of y,
        # whose projector I - pinv(y) y comes from an independent solver
        rng = np.random.default_rng(40 + rows)
        y = random_complex_matrix(2, 6, rng)
        a = random_complex_matrix(rows, 2, rng) @ y
        basis = nullspace(a, tol)
        assert basis.shape == (6, 4)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(4), atol=1e-12)
        expected = np.eye(6) - np.linalg.pinv(y) @ y
        np.testing.assert_allclose(basis @ basis.conj().T, expected, atol=1e-12)

    def test_absolute_cutoff(self, tol):
        a = np.diag([1.0, 1e-6, 0.0])
        assert nullspace(a, tol).shape == (3, 1)
        assert nullspace(a, tol, cutoff=1e-5).shape == (3, 2)
        # below eps_rank the default rule calls everything null
        assert nullspace(1e-12 * a, tol).shape == (3, 3)
        assert nullspace(1e-12 * a, tol, cutoff=1e-14).shape == (3, 2)


class TestFactorDistance:
    @pytest.mark.parametrize("rows, ka, kb", [(12, 3, 5), (6, 4, 4), (6, 5, 4), (4, 7, 2)])
    def test_matches_the_dense_distance(self, rows, ka, kb):
        # 2k > rows in the last three cases, and ka > rows in the last
        rng = np.random.default_rng(rows * 100 + ka * 10 + kb)
        a = random_complex_matrix(rows, ka, rng)
        b = random_complex_matrix(rows, kb, rng)
        dense = np.linalg.norm(a @ a.conj().T - b @ b.conj().T)
        assert factor_distance(a, b) == pytest.approx(dense, rel=1e-12)

    def test_vanishes_between_redilations(self, tol):
        ch = random_projection_choi_channel(5, 4, 3, tol, ensure_eb=True)
        wide = redilate_fixture(ch, 9, 4, tol)
        other = redilate_fixture(ch, 7, 5, tol)
        assert factor_distance(vec(wide.kraus).T, vec(other.kraus).T) <= 1e-13

    def test_rejects_unequal_row_counts(self):
        with pytest.raises(DimensionMismatch):
            factor_distance(np.ones((3, 2)), np.ones((4, 2)))


class TestVecUnvecKron:
    def test_vec_stacks_columns(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        np.testing.assert_array_equal(vec(a), [1, 3, 2, 4])

    def test_vec_of_matrix_unit(self):
        e12 = np.zeros((2, 2), dtype=complex)
        e12[0, 1] = 1
        np.testing.assert_array_equal(vec(e12), [0, 0, 1, 0])

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(1)
        a = random_complex_matrix(3, 5, rng)
        np.testing.assert_array_equal(unvec(vec(a), 3, 5), a)

    def test_unvec_rejects_bad_length(self):
        with pytest.raises(DimensionMismatch):
            unvec(np.arange(5), 2, 3)

    def test_stacks_roundtrip_and_match_per_matrix(self):
        rng = np.random.default_rng(2)
        stack = np.stack([random_complex_matrix(3, 5, rng) for _ in range(4)])
        vecs = vec(stack)
        assert vecs.shape == (4, 15)
        for v, a in zip(vecs, stack):
            np.testing.assert_array_equal(v, vec(a))
            np.testing.assert_array_equal(unvec(v, 3, 5), a)
        np.testing.assert_array_equal(unvec(vecs, 3, 5), stack)
        with pytest.raises(DimensionMismatch):
            unvec(vecs, 5, 5)

    def test_vec_of_product_identity(self, tol):
        # vec(A X B) = kron(B.T, A) vec(X) for the column-stacking convention
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = random_complex_matrix(3, 4, rng)
            x = random_complex_matrix(4, 2, rng)
            b = random_complex_matrix(2, 5, rng)
            lhs = vec(a @ x @ b)
            rhs = np.kron(b.T, a) @ vec(x)
            assert np.linalg.norm(lhs - rhs) <= tol.eps_verify * np.linalg.norm(lhs)


class TestRandomness:
    def test_random_unitary_is_unitary(self, tol):
        for n in (1, 2, 6):
            u = random_unitary(n, 13)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= tol.eps_verify

    def test_random_unitary_dimension_one_is_unit_scalar(self):
        u = random_unitary(1, 2)
        assert abs(abs(u[0, 0]) - 1) < 1e-14

    def test_seeded_determinism_bit_identical(self):
        assert np.array_equal(random_unitary(4, 99), random_unitary(4, 99))
        basis = [np.eye(2, dtype=complex)]
        assert np.array_equal(
            random_hermitian_in_span(basis, 5), random_hermitian_in_span(basis, 5)
        )

    def test_hermitian_in_span_of_identity(self):
        h = random_hermitian_in_span([np.eye(2, dtype=complex)], 8)
        # 2c * identity for a real Gaussian c
        assert np.linalg.norm(h - h[0, 0].real * np.eye(2)) < 1e-14
        assert abs(h[0, 0].imag) < 1e-14

    def test_hermitian_in_span_membership(self, tol):
        rng = np.random.default_rng(30)
        mats = [random_complex_matrix(3, 3, rng) for _ in range(2)]
        span = mats + [m.conj().T for m in mats]
        h = random_hermitian_in_span(mats, 44)
        assert np.linalg.norm(h - h.conj().T) < 1e-12
        p = span_projector(span, tol)
        v = vec(h)
        assert np.linalg.norm(p @ v - v) <= tol.eps_verify * np.linalg.norm(v)


class TestPairs:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(4)
        a = random_complex_matrix(3, 2, rng)
        a[0, 0] = -0.0
        back = from_pairs(to_pairs(a), (3, 2))
        np.testing.assert_array_equal(back, a)
        assert np.signbit(back[0, 0].real)
        assert to_pairs(a)[1][0] == [float(a[1, 0].real), float(a[1, 0].imag)]

    def test_free_axis(self):
        assert from_pairs([[[1, 0], [0, 1]]], (1, None)).shape == (1, 2)

    @pytest.mark.parametrize("raw, error", [
        ([[1, 0]], DimensionMismatch),  # numbers in place of pairs
        ([[[1, 0, 0]]], DimensionMismatch),  # a triple in place of a pair
        ([[[1, 0]], [[1, 0], [0, 0]]], DimensionMismatch),  # ragged
        ([[["x", 0]]], ValueError),
        ([[["1", "0"]]], ValueError),  # numbers written as strings
        ([[[None, 0]]], ValueError),
        ([[[float("nan"), 0]]], ValueError),
    ])
    def test_rejects_malformed_data(self, raw, error):
        with pytest.raises(error):
            from_pairs(raw, (1, 1))


class TestBasisHelpers:
    def test_phase_fix_makes_pivot_real_positive(self):
        v = np.array([0.3j, -0.8 + 0.1j, 0.2])
        fixed = phase_fix(v)
        pivot = fixed[np.argmax(np.abs(fixed))]
        assert pivot.imag == pytest.approx(0.0, abs=1e-15)
        assert pivot.real > 0

    def test_orthonormal_matrix_basis_spans_and_is_orthonormal(self, tol):
        rng = np.random.default_rng(2)
        mats = [random_complex_matrix(2, 2, rng) for _ in range(3)]
        mats.append(mats[0] + mats[1])  # dependent
        basis = orthonormal_matrix_basis(mats, tol)
        assert len(basis) == 3
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                gram = np.trace(a.conj().T @ b)
                assert gram == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)
