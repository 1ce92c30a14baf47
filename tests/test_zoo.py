import importlib
import inspect

import numpy as np
import pytest

from ebcert import (
    ChoiClass,
    CorrelationMatrix,
    CPMap,
    KrausChannel,
    ToleranceConfig,
    certify,
    choi,
    complement,
    eb_rank,
    gram_vectors,
    random_unitary,
    schur_normal_form,
    verify_certificate,
)
from ebcert.cli import main
from ebcert.errors import (
    DimensionMismatch,
    InvalidCorrelation,
    NotEntanglementBreaking,
    NotUnitVector,
)
from ebcert.zoo import (
    depolarizing,
    external_twirl,
    identity_channel,
    internal_twirl,
    permute_kraus,
    random_channel,
    random_correlation,
    random_projection_choi_channel,
    random_schur_complement_channel,
    schur_channel,
    schur_complement_channel,
    werner_holevo,
)

from oracles import dense_family_distances, random_complex_matrix

CHANNEL = importlib.import_module("ebcert.channel")


def sorted_nonzero(spectrum, cutoff=1e-10):
    s = np.asarray(spectrum)
    return np.sort(s[s > cutoff])


class TestCorrelationMatrix:
    def test_from_vectors_has_unit_diagonal(self, tol):
        corr = random_correlation(5, 3, 1, tol)
        corr.validate(tol)
        np.testing.assert_allclose(np.diag(corr.matrix), np.ones(5), atol=1e-12)

    def test_rejects_bad_diagonal(self, tol):
        with pytest.raises(InvalidCorrelation):
            CorrelationMatrix(2.0 * np.eye(3)).validate(tol)

    def test_rejects_indefinite(self, tol):
        c = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(InvalidCorrelation):
            CorrelationMatrix(c).validate(tol)

    def test_rejects_non_unit_generating_vector(self, tol):
        with pytest.raises(NotUnitVector):
            CorrelationMatrix.from_vectors([np.array([1.0, 1.0])], tol)

    def test_gram_factor_reproduces_matrix(self, tol):
        corr = random_correlation(4, 2, 7, tol)
        factor = gram_vectors(corr, tol)
        assert factor.shape == (2, 4)
        np.testing.assert_allclose(factor.conj().T @ factor, corr.matrix, atol=1e-10)

    def test_validate_reads_the_eigenvalues_alone(self, tol, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            def spy(a, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _solver(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        random_correlation(6, 3, 2, tol).validate(tol)
        assert calls == ["eigvalsh"]
        # schur_channel's one eigendecomposition is its Gram factor's
        calls.clear()
        schur_channel(random_correlation(6, 3, 2, tol), tol)
        assert calls == ["eigvalsh", "eigh"]


class TestSchurChannel:
    def test_all_ones_correlation_is_identity_channel(self, tol):
        ch = schur_channel(np.ones((3, 3)), tol)
        assert len(ch) == 1
        rng = np.random.default_rng(2)
        x = random_complex_matrix(3, 3, rng)
        np.testing.assert_allclose(ch.apply(x), x, atol=1e-12)

    def test_identity_correlation_dephases(self, tol):
        ch = schur_channel(np.eye(3), tol)
        assert len(ch) == 3
        for op in ch.kraus:
            assert np.linalg.norm(op - np.diag(np.diag(op))) < 1e-14

    def test_kraus_count_is_correlation_rank(self, tol):
        corr = random_correlation(4, 2, 3, tol)
        ch = schur_channel(corr, tol)
        assert len(ch) == 2
        assert choi(ch, tol).choi_rank == 2

    def test_action_is_entrywise_product(self, tol):
        corr = random_correlation(4, 3, 4, tol)
        ch = schur_channel(corr, tol)
        rng = np.random.default_rng(5)
        x = random_complex_matrix(4, 4, rng)
        np.testing.assert_allclose(ch.apply(x), x * corr.matrix, atol=1e-12)

    def test_unital_and_trace_preserving(self, tol):
        ch = schur_channel(random_correlation(5, 4, 6, tol), tol)
        assert ch.trace_preserving
        assert ch.unital_residual() <= tol.eps_verify

    def test_complement_pair(self, tol):
        # the complement of the entrywise-product channel has the same Choi
        # spectrum as the rank-one-Kraus channel built on the conjugated
        # Gram factor
        corr = random_correlation(4, 3, 8, tol)
        ch = schur_channel(corr, tol)
        partner = schur_complement_channel(gram_vectors(corr, tol).conj(), tol)
        spec_a = choi(complement(ch, tol), tol).eigenvalues
        spec_b = choi(partner, tol).eigenvalues
        np.testing.assert_allclose(sorted_nonzero(spec_a), sorted_nonzero(spec_b), atol=1e-10)


class TestSchurComplementChannel:
    def test_standard_basis_vectors(self, tol):
        ch = schur_complement_channel(np.eye(3), tol)
        rep = choi(ch, tol)
        assert rep.classification is ChoiClass.PROJECTION
        expected = np.zeros((9, 9))
        for k in range(3):
            unit = np.zeros((3, 3))
            unit[k, k] = 1.0
            expected += np.kron(unit, unit)
        np.testing.assert_allclose(rep.choi, expected, atol=1e-12)

    def test_choi_is_block_diagonal_projection(self, tol):
        rng = np.random.default_rng(9)
        cols = random_complex_matrix(4, 2, rng)
        cols /= np.linalg.norm(cols, axis=0)
        rep = choi(schur_complement_channel(cols, tol), tol)
        assert rep.classification is ChoiClass.PROJECTION
        assert rep.choi_rank == 2
        expected = np.zeros((8, 8), dtype=complex)
        for k in range(2):
            unit = np.zeros((2, 2))
            unit[k, k] = 1.0
            expected += np.kron(unit, np.outer(cols[:, k], cols[:, k].conj()))
        np.testing.assert_allclose(rep.choi, expected, atol=1e-12)

    def test_two_dimensional_example(self, tol):
        theta = 0.7
        u = np.column_stack([[1.0, 0.0], [np.cos(theta), np.sin(theta)]])
        ch = schur_complement_channel(u, tol)
        assert choi(ch, tol).choi_rank == 2

    def test_rejects_non_unit_vectors(self, tol):
        bad = np.column_stack([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(NotUnitVector) as err:
            schur_complement_channel(bad, tol)
        assert err.value.index == 1


class TestWernerHolevo:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_choi_rank_and_scalar(self, tol, d):
        rep = choi(werner_holevo(d, tol), tol)
        assert rep.choi_rank == d * (d + 1) // 2
        assert rep.classification is ChoiClass.SCALED_PROJECTION
        assert rep.alpha == pytest.approx(2 / (d + 1), abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_choi_is_identity_plus_swap_over_d_plus_one(self, tol, d):
        kraus = werner_holevo(d, tol).kraus
        assert dense_family_distances(kraus, d)["transpose-plus-trace"] <= 1e-14

    @pytest.mark.parametrize("d", range(2, 9))
    def test_kraus_operators_are_exactly_symmetric(self, tol, d):
        # so the antisymmetry term of eb_rank's family rule is exactly zero
        kraus = werner_holevo(d, tol).kraus
        assert len(kraus) == d * (d + 1) // 2
        assert np.array_equal(kraus, kraus.transpose(0, 2, 1))

    def test_choi_eigenvalues_exactly_two_levels(self, tol):
        d = 3
        evals = choi(werner_holevo(d, tol), tol).eigenvalues
        top = evals[: d * (d + 1) // 2]
        rest = evals[d * (d + 1) // 2:]
        np.testing.assert_allclose(top, 2 / (d + 1), atol=tol.eps_eig)
        np.testing.assert_allclose(rest, 0.0, atol=tol.eps_eig)

    def test_action_matches_formula(self, tol):
        d = 3
        ch = werner_holevo(d, tol)
        rng = np.random.default_rng(10)
        x = random_complex_matrix(d, d, rng)
        expected = (np.trace(x) * np.eye(d) + x.T) / (d + 1)
        np.testing.assert_allclose(ch.apply(x), expected, atol=1e-12)

    def test_fixes_maximally_mixed_state(self, tol):
        d = 4
        ch = werner_holevo(d, tol)
        np.testing.assert_allclose(ch.apply(np.eye(d) / d), np.eye(d) / d, atol=1e-12)

    def test_rejects_dimension_one(self, tol):
        with pytest.raises(DimensionMismatch):
            werner_holevo(1, tol)


class TestDepolarizingAndIdentity:
    def test_depolarizing_two_has_four_scaled_units(self, tol):
        ch = depolarizing(2, tol)
        assert len(ch) == 4
        for op in ch.kraus:
            assert np.count_nonzero(op) == 1
            assert abs(np.abs(op).max() - 1 / np.sqrt(2)) < 1e-14

    def test_depolarizing_classification(self, tol):
        rep = choi(depolarizing(2, tol), tol)
        assert rep.classification is ChoiClass.SCALED_PROJECTION
        assert rep.alpha == pytest.approx(0.5, abs=1e-12)

    def test_identity_channel(self, tol):
        rep = choi(identity_channel(4, tol), tol)
        assert rep.choi_rank == 1
        assert rep.alpha == pytest.approx(4.0, abs=1e-12)


class TestRandomChannels:
    def test_random_channel_is_tp_with_generic_rank(self, tol):
        ch = random_channel(3, 3, 2, 11, tol)
        assert ch.tp_residual <= tol.eps_verify
        assert choi(ch, tol).choi_rank == 2

    def test_random_channel_seed_determinism(self, tol):
        a = random_channel(3, 2, 2, 12, tol)
        b = random_channel(3, 2, 2, 12, tol)
        for x, y in zip(a.kraus, b.kraus):
            np.testing.assert_array_equal(x, y)

    def test_projection_choi_sampler(self, tol):
        shapes = [(3, 4, seed) for seed in range(3)]
        shapes += [(1, 1, 0), (1, 3, 1), (3, 1, 2), (4, 2, 3), (2, 5, 4), (9, 9, 5), (24, 24, 6)]
        for n, m, seed in shapes:
            ch = random_projection_choi_channel(n, m, seed, tol)
            assert isinstance(ch, KrausChannel)
            rep = choi(ch, tol)
            assert rep.classification is ChoiClass.PROJECTION
            assert rep.choi_rank == n
            assert ch.tp_residual <= tol.eps_verify
            rows = ch.kraus.reshape(len(ch), -1)
            assert np.linalg.norm(rows.conj() @ rows.T - np.eye(len(ch))) <= tol.eps_verify

    def test_generic_sampler_factorizes_only_n_by_n(self, tol, monkeypatch):
        sizes = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            sizes.append(np.shape(a)[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        random_projection_choi_channel(6, 6, 7, tol)
        assert sizes and max(sizes) <= 6

    def test_generic_sample_is_refuted_by_ppt(self, tol):
        ch = random_projection_choi_channel(9, 9, 8, tol)
        with pytest.raises(NotEntanglementBreaking) as refusal:
            certify(ch, tol)
        assert refusal.value.ppt_violated is True

    def test_projection_choi_sampler_determinism(self, tol):
        a = random_projection_choi_channel(2, 3, 5, tol)
        b = random_projection_choi_channel(2, 3, 5, tol)
        for x, y in zip(a.kraus, b.kraus):
            np.testing.assert_array_equal(x, y)

    def test_planted_instances_are_projection_class(self, tol):
        ch = random_projection_choi_channel(3, 3, 6, tol, ensure_eb=True)
        assert choi(ch, tol).classification is ChoiClass.PROJECTION


class TestProjectionChoiAtTwoOutputs:
    """Every projection-Choi channel with m = 2 is entanglement breaking,
    with rank n, by the identities of its 2 x 2 output blocks
    J = [[A, B], [B*, C]] that the ``ebcert.zoo`` module docstring proves."""

    @pytest.mark.parametrize("n", [3, 8, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generic_draws_satisfy_the_block_identities_and_certify(self, tol, n, seed):
        ch = random_projection_choi_channel(n, 2, seed, tol)
        # blocks[a, b][i, j] = J[(i, a), (j, b)] = sum_k K_k[a, i] conj(K_k[b, j])
        blocks = np.einsum("kai,kbj->abij", ch.kraus, ch.kraus.conj())
        a, b, c = blocks[0, 0], blocks[0, 1], blocks[1, 1]
        np.testing.assert_allclose(blocks[1, 0], b.conj().T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a + c, np.eye(n), rtol=0, atol=1e-12)
        np.testing.assert_allclose(a @ b, b @ a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b @ b.conj().T, a - a @ a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.conj().T @ b, a - a @ a, rtol=0, atol=1e-12)
        report = eb_rank(ch, tol)  # through certify, for a projection Choi matrix
        assert (report.status, report.value, report.certificate.eb_rank) == ("certified", n, n)


class TestToleranceThreading:
    """Every map a call builds, and every spectrum and random draw it takes,
    is checked at the caller's tolerance, never at the package default."""

    TOL = ToleranceConfig(seed=3)

    @pytest.fixture
    def received(self, monkeypatch):
        """The tolerances CPMap construction, the Choi spectrum check and the
        seeded draws receive while the test runs."""
        seen = []
        init, spectrum, rng = CPMap.__init__, CHANNEL._spectrum, ToleranceConfig.rng
        signature = inspect.signature(init)

        def spy_init(self, *args, **kwargs):
            bound = signature.bind(self, *args, **kwargs)
            bound.apply_defaults()
            seen.append(bound.arguments["tol"])
            init(self, *args, **kwargs)

        def spy_spectrum(channel, evals, t):
            seen.append(t)
            return spectrum(channel, evals, t)

        def spy_rng(self, *salt):
            seen.append(self)
            return rng(self, *salt)

        monkeypatch.setattr(CPMap, "__init__", spy_init)
        monkeypatch.setattr(CHANNEL, "_spectrum", spy_spectrum)
        monkeypatch.setattr(ToleranceConfig, "rng", spy_rng)
        return seen

    @pytest.fixture(scope="class")
    def planted(self):
        ch = random_projection_choi_channel(4, 4, 0, self.TOL, ensure_eb=True)
        return ch, certify(ch, self.TOL)

    @pytest.mark.parametrize("call", [
        lambda t, ch, cert, path: random_projection_choi_channel(4, 4, 0, t, ensure_eb=True),
        lambda t, ch, cert, path: random_projection_choi_channel(3, 3, 0, t),
        lambda t, ch, cert, path: schur_channel(random_correlation(3, 2, 0, t), t),
        lambda t, ch, cert, path: certify(ch, t),
        lambda t, ch, cert, path: eb_rank(ch, t),
        lambda t, ch, cert, path: verify_certificate(cert, ch, t),
        lambda t, ch, cert, path: schur_normal_form(certify(ch, t), ch, t),
        lambda t, ch, cert, path: main(["gen", "random-projection-choi", "--n", "3", "--m", "3",
                                        "--ensure-eb", "--seed", "3", "--out", str(path)]),
    ], ids=["planted", "generic", "schur", "certify", "eb_rank", "verify_certificate",
            "schur_normal_form", "cli-gen-planted"])
    def test_every_check_runs_at_the_callers_tolerance(self, received, planted, tmp_path, call,
                                                       capsys):
        result = call(self.TOL, *planted, tmp_path / "ch.json")
        assert not isinstance(result, int) or result == 0  # the CLI's exit code
        assert received and all(t == self.TOL for t in received), received


class TestTwirlsAndPermutations:
    def test_twirls_preserve_channel_class(self, tol):
        ch = random_schur_complement_channel(3, 4, 13, tol)
        u = random_unitary(4, 14)
        v = random_unitary(3, 15)
        twirled = internal_twirl(external_twirl(ch, u, tol), v, tol)
        assert twirled.trace_preserving
        assert choi(twirled, tol).classification is ChoiClass.PROJECTION

    def test_external_twirl_action(self, tol):
        ch = random_channel(3, 3, 2, 16, tol)
        u = random_unitary(3, 17)
        rng = np.random.default_rng(18)
        x = random_complex_matrix(3, 3, rng)
        np.testing.assert_allclose(
            external_twirl(ch, u, tol).apply(x), u @ ch.apply(x) @ u.conj().T, atol=1e-12
        )

    def test_internal_twirl_action(self, tol):
        ch = random_channel(3, 3, 2, 19, tol)
        v = random_unitary(3, 20)
        rng = np.random.default_rng(21)
        x = random_complex_matrix(3, 3, rng)
        np.testing.assert_allclose(
            internal_twirl(ch, v, tol).apply(x), ch.apply(v @ x @ v.conj().T), atol=1e-12
        )

    def test_permutation_keeps_channel(self, tol):
        ch = depolarizing(2, tol)
        shuffled = permute_kraus(ch, [2, 0, 3, 1], tol)
        np.testing.assert_allclose(
            choi(shuffled, tol).choi, choi(ch, tol).choi, atol=1e-12
        )
        with pytest.raises(ValueError):
            permute_kraus(ch, [0, 0, 1, 2], tol)
