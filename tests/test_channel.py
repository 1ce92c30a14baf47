import importlib
import json
import re

import numpy as np
import pytest

from ebcert import (
    ChoiClass,
    ComplementAdjointKind,
    CPMap,
    KrausChannel,
    channel_from_json_dict,
    channel_to_json_dict,
    choi,
    choi_spectrum,
    classify_complement_adjoint,
    complement,
    complement_adjoint,
    complement_from_kraus,
    factor_distance,
    is_minimal,
    load_channel,
    minimal_kraus,
    random_unitary,
    redilate,
    save_channel,
)
from ebcert.errors import DimensionMismatch, NotMinimalKraus, NotTracePreserving, VerificationFailure
from ebcert.numerics import random_isometry, vec
from ebcert.zoo import (
    depolarizing,
    identity_channel,
    random_channel,
    random_correlation,
    random_projection_choi_channel,
    random_schur_complement_channel,
    redilate_fixture,
    schur_channel,
    schur_complement_channel,
    werner_holevo,
)

from oracles import (
    apply_kraus,
    classify_by_complement_apply,
    direct_choi,
    perturbed_planted,
    qr_reconstruction_residual,
    random_complex_matrix,
    random_density,
    transfer_matrix,
)

CHANNEL = importlib.import_module("ebcert.channel")


def matrix_unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


class TestConstruction:
    def test_rejects_non_tp_kraus(self, tol):
        with pytest.raises(NotTracePreserving):
            KrausChannel([np.eye(2) * 0.5], tol)

    def test_general_cp_map_carries_flag(self, tol):
        cp = CPMap([np.eye(2) * 0.5], tol)
        assert not cp.trace_preserving
        assert cp.tp_residual > tol.eps_verify

    def test_rejects_mixed_shapes(self, tol):
        with pytest.raises(DimensionMismatch):
            KrausChannel([np.eye(2), np.eye(3)], tol)

    def test_rejects_non_finite_entries(self, tol):
        with pytest.raises(ValueError):
            KrausChannel([np.array([[np.nan, 0], [0, 1]])], tol)

    def test_kraus_is_one_read_only_stack(self, tol):
        ops = [np.eye(2) / np.sqrt(2), np.diag([1.0, -1.0]) / np.sqrt(2)]
        ch = KrausChannel(ops, tol)
        assert ch.kraus.shape == (2, 2, 2)
        assert not ch.kraus.flags.writeable
        ops[0][0, 0] = 5.0  # the caller's arrays stay theirs
        assert ch.kraus[0, 0, 0] == pytest.approx(1 / np.sqrt(2))

    @pytest.mark.parametrize("kraus, error", [
        ([], ValueError),
        (np.zeros((0, 2, 2)), ValueError),
        ([np.eye(2), np.eye(3)], DimensionMismatch),  # ragged
        ([np.eye(2), np.ones(2)], DimensionMismatch),
        (np.eye(2), DimensionMismatch),  # one matrix, not a list of them
        ([np.array([[np.nan, 0], [0, 1]])], ValueError),
        ([np.array([[np.inf, 0], [0, 1]])], ValueError),
    ])
    def test_rejects_malformed_kraus_lists(self, tol, kraus, error):
        with pytest.raises(error):
            CPMap(kraus, tol)

    def test_with_kraus_keeps_the_kind(self, tol):
        half = [np.eye(2) * 0.5]
        ch = identity_channel(2, tol)
        assert type(ch.with_kraus([random_unitary(2, 1)], tol)) is KrausChannel
        with pytest.raises(NotTracePreserving):
            ch.with_kraus(half, tol)
        cp = CPMap(half, tol)
        assert type(cp.with_kraus([np.eye(2)], tol)) is CPMap


class TestApply:
    def test_identity_channel(self, tol):
        ch = identity_channel(3, tol)
        rng = np.random.default_rng(0)
        x = random_complex_matrix(3, 3, rng)
        np.testing.assert_allclose(ch.apply(x), x, atol=1e-14)

    def test_depolarizing_sends_states_to_maximally_mixed(self, tol):
        ch = depolarizing(3, tol)
        rho = random_density(3, np.random.default_rng(1))
        np.testing.assert_allclose(ch.apply(rho), np.eye(3) / 3, atol=1e-12)

    def test_schur_channel_with_identity_correlation_dephases(self, tol):
        ch = schur_channel(np.eye(4), tol)
        rng = np.random.default_rng(2)
        x = random_complex_matrix(4, 4, rng)
        np.testing.assert_allclose(ch.apply(x), np.diag(np.diag(x)), atol=1e-12)

    def test_linear_and_trace_preserving(self, tol):
        ch = random_channel(3, 4, 2, 5, tol)
        rng = np.random.default_rng(3)
        x = random_complex_matrix(3, 3, rng)
        y = random_complex_matrix(3, 3, rng)
        np.testing.assert_allclose(
            ch.apply(2 * x + 1j * y), 2 * ch.apply(x) + 1j * ch.apply(y), atol=1e-12
        )
        assert np.trace(ch.apply(x)) == pytest.approx(np.trace(x), abs=1e-12)

    def test_dimension_mismatch(self, tol):
        with pytest.raises(DimensionMismatch):
            identity_channel(2, tol).apply(np.eye(3))

    def test_stack_matches_oracle_on_each_slice(self, tol):
        ch = random_channel(3, 4, 2, 5, tol)
        rng = np.random.default_rng(4)
        xs = np.stack([random_complex_matrix(3, 3, rng) for _ in range(5)])
        out = ch.apply(xs)
        assert out.shape == (5, 4, 4)
        for x, y in zip(xs, out):
            np.testing.assert_allclose(y, apply_kraus(list(ch.kraus), x), atol=1e-12)

    @pytest.mark.parametrize("shape", [(5, 3, 2), (3, 2), (9,), (2, 2, 3, 3)])
    def test_rejects_wrong_trailing_shape_and_rank(self, tol, shape):
        with pytest.raises(DimensionMismatch):
            random_channel(3, 4, 2, 5, tol).apply(np.ones(shape))


class TestTransferMatrix:
    def test_non_square_map_matches_kron_sum_and_vec_identity(self, tol):
        rng = np.random.default_rng(6)
        ops = [random_complex_matrix(4, 3, rng) for _ in range(3)]
        transfer = transfer_matrix(ops)
        np.testing.assert_allclose(
            transfer, sum(np.kron(k.conj(), k) for k in ops), atol=1e-12
        )
        x = random_complex_matrix(3, 3, rng)
        np.testing.assert_allclose(
            transfer @ x.reshape(-1, order="F"),
            apply_kraus(ops, x).reshape(-1, order="F"),
            atol=1e-12,
        )


class TestChoi:
    def test_overflowing_gram_matrix_is_refused_alike(self, tol):
        # entries of 1e160 are finite, but the Gram matrix of their stack is not
        messages = []
        with np.errstate(over="ignore", invalid="ignore"):
            huge = CPMap(np.full((1, 2, 2), 1e160), tol)
            for spectral in (choi, choi_spectrum):
                with pytest.raises(ValueError) as err:
                    spectral(huge, tol)
                assert type(err.value) is ValueError
                messages.append(str(err.value))
        assert messages == ["matrix entries must be finite"] * 2

    def test_matches_matrix_unit_definition(self, tol):
        for ch in (random_channel(2, 3, 2, 7, tol), random_schur_complement_channel(3, 2, 8, tol)):
            direct = direct_choi(list(ch.kraus), ch.input_dim, ch.output_dim)
            np.testing.assert_allclose(choi(ch, tol).choi, direct, atol=1e-12)

    def test_identity_channel_is_rank_one_scaled_projection(self, tol):
        # Choi matrix is the outer product of the length-sqrt(n) maximally
        # entangled vector, so one eigenvalue n and scalar n
        n = 3
        rep = choi(identity_channel(n, tol), tol)
        assert rep.choi_rank == 1
        assert rep.classification is ChoiClass.SCALED_PROJECTION
        assert rep.alpha == pytest.approx(n, abs=1e-12)

    def test_depolarizing_choi_is_identity_over_n(self, tol):
        n = 2
        rep = choi(depolarizing(n, tol), tol)
        np.testing.assert_allclose(rep.choi, np.eye(n * n) / n, atol=1e-12)
        assert rep.choi_rank == n * n
        assert rep.classification is ChoiClass.SCALED_PROJECTION
        assert rep.alpha == pytest.approx(1 / n, abs=1e-12)

    def test_transpose_plus_trace_choi(self, tol):
        rep = choi(werner_holevo(3, tol), tol)
        assert rep.choi_rank == 6
        assert rep.classification is ChoiClass.SCALED_PROJECTION
        assert rep.alpha == pytest.approx(0.5, abs=1e-12)

    def test_rank_one_kraus_channel_choi_is_projection(self, tol):
        ch = random_schur_complement_channel(4, 3, 9, tol)
        rep = choi(ch, tol)
        assert rep.classification is ChoiClass.PROJECTION
        assert rep.choi_rank == 4

    def test_trace_equals_input_dimension(self, tol):
        for ch in (random_channel(4, 2, 3, 11, tol), werner_holevo(2, tol)):
            rep = choi(ch, tol)
            assert np.trace(rep.choi).real == pytest.approx(ch.input_dim, abs=1e-10)

    @pytest.mark.parametrize("make", [
        lambda tol: random_projection_choi_channel(4, 3, 5, tol, ensure_eb=True),  # k < nm
        lambda tol: depolarizing(3, tol),  # k = nm
        lambda tol: redilate_fixture(random_channel(2, 2, 3, 6, tol), 6, 7, tol),  # k > nm
    ])
    def test_eigenvalues_match_the_dense_spectrum(self, tol, make):
        ch = make(tol)
        n, m = ch.input_dim, ch.output_dim
        dense = np.linalg.eigvalsh(direct_choi(list(ch.kraus), n, m))[::-1]
        evals = choi(ch, tol).eigenvalues
        assert evals.shape == (n * m,)
        np.testing.assert_allclose(evals, dense, atol=1e-12)

    def test_minimal_set_is_a_redilation_of_the_input(self, tol):
        ch = redilate_fixture(random_channel(3, 2, 3, 8, tol), 5, 9, tol)
        rep = choi(ch, tol)
        assert factor_distance(vec(rep.kraus).T, vec(ch.kraus).T) <= 1e-13
        flat = rep.kraus.reshape(rep.choi_rank, -1)
        pivots = flat[np.arange(rep.choi_rank), np.argmax(np.abs(flat), axis=1)]
        np.testing.assert_allclose(pivots.imag, 0.0, atol=1e-15)
        assert np.all(pivots.real > 0)

    def test_nan_eigenbasis_fails_verification(self, tol, monkeypatch):
        ch = werner_holevo(3, tol)
        eig = CHANNEL.eigh_descending

        def nan_eigenbasis(a):
            evals, w = eig(a)
            return evals, np.full_like(w, np.nan)

        monkeypatch.setattr(CHANNEL, "eigh_descending", nan_eigenbasis)
        with pytest.raises(VerificationFailure, match="reconstruction residual"):
            choi(ch, tol)

    @pytest.mark.parametrize("variant, n, m, k, rank", [
        (variant, *case)
        for variant in ("true", "swap", "scaled", "mixed")
        for case in ((2, 3, 4, 4), (3, 3, 5, 3),  # k < nm
                     (2, 2, 4, 4), (2, 3, 6, 2),  # k = nm
                     (2, 2, 7, 4), (2, 2, 9, 2))  # k > nm
        # a full-rank basis has no dropped column to swap
        if variant != "swap" or case[3] < case[2]
    ])
    def test_residual_check_matches_the_qr_route(self, tol, monkeypatch, variant, n, m, k, rank):
        # a factor V = vec(K_i) of the given rank, scaled to |V|^2 = n
        rng = np.random.default_rng([n, m, k, rank])
        flat = random_complex_matrix(k, rank, rng) @ random_complex_matrix(rank, m * n, rng)
        ch = CPMap(flat.reshape(k, m, n) * np.sqrt(n) / np.linalg.norm(flat), tol)
        v = vec(ch.kraus).T
        eig = CHANNEL.eigh_descending
        evals, w = eig(v.conj().T @ v)
        if variant == "swap":
            w = w.copy()
            w[:, [rank - 1, rank]] = w[:, [rank, rank - 1]]
        elif variant == "scaled":
            w = w * (1 + 1e-6)
        elif variant == "mixed":
            w = w @ random_unitary(k, rng)
        monkeypatch.setattr(CHANNEL, "eigh_descending", lambda a: (evals, w))

        expected = qr_reconstruction_residual(v, w, rank)
        if expected <= tol.eps_verify * max(1, n):
            assert choi(ch, tol).choi_rank == rank
            assert variant in ("true", "mixed")
            return
        with pytest.raises(VerificationFailure) as err:
            choi(ch, tol)
        assert variant != "true"
        reported = float(re.search(r"residual (\S+) exceeds", str(err.value)).group(1))
        assert reported == pytest.approx(expected, rel=1e-2)


def _off_diagonal_ratio(ch):
    """|F| / (k u |G|) for the Gram matrix G = D + F of a Kraus list, D its
    real diagonal: at most 1 on the route that skips the eigensolver."""
    rows = ch.kraus.reshape(len(ch), -1)
    g = rows.conj() @ rows.T
    return np.linalg.norm(g - np.diag(g.diagonal().real)) / (
        len(g) * np.finfo(float).eps * np.linalg.norm(g))


class TestChoiSpectrumRoute:
    """choi_spectrum reads a Gram matrix that is diagonal to rounding off its
    diagonal and decomposes any other; either way it agrees with the
    eigenvalues of the Choi matrix from its definition."""

    @staticmethod
    def decompositions(monkeypatch, run):
        """(eigh calls, eigvalsh calls) made by run()."""
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            def counting(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _solver(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        result = run()
        monkeypatch.undo()
        return result, (calls["eigh"], calls["eigvalsh"])

    @staticmethod
    def dense_reference(ch, tol):
        """The classification of the Choi matrix's own spectrum."""
        dense = np.linalg.eigvalsh(direct_choi(list(ch.kraus), ch.input_dim, ch.output_dim))
        return CHANNEL._spectrum(ch, dense[::-1], tol)

    @pytest.mark.parametrize("make, calls", [
        (lambda tol: werner_holevo(5, tol), (0, 0)),
        (lambda tol: depolarizing(4, tol), (0, 0)),
        (lambda tol: redilate(werner_holevo(5, tol), random_unitary(15, 3), tol), (0, 0)),
        (lambda tol: redilate(depolarizing(4, tol), random_unitary(16, 4), tol), (0, 0)),
        (lambda tol: random_projection_choi_channel(6, 6, 1, tol, ensure_eb=True), (0, 0)),
        (lambda tol: (lambda ch: ch.with_kraus(choi(ch, tol).kraus, tol))(
            random_channel(3, 3, 3, 5, tol)), (0, 0)),
        (lambda tol: perturbed_planted(6, 3e-10, 0, tol), (0, 1)),
        (lambda tol: random_channel(3, 3, 3, 5, tol), (0, 1)),
        (lambda tol: redilate_fixture(werner_holevo(3, tol), 8, 2, tol), (0, 1)),  # not minimal
    ], ids=["werner-holevo", "depolarizing", "werner-holevo-haar", "depolarizing-haar",
            "planted", "choi-stack", "perturbed", "random", "non-minimal"])
    def test_route_and_the_dense_spectrum(self, tol, monkeypatch, make, calls):
        # orthogonal Kraus operators run no eigensolver, any other list one
        # eigvalsh; (eigh, eigvalsh) calls
        ch = make(tol)
        reference = self.dense_reference(ch, tol)
        spectrum, taken = self.decompositions(monkeypatch, lambda: choi_spectrum(ch, tol))
        assert taken == calls
        assert (spectrum.classification, spectrum.choi_rank) == (
            reference.classification, reference.choi_rank)
        if reference.alpha is None:
            assert spectrum.alpha is None
        else:
            assert spectrum.alpha == pytest.approx(reference.alpha, abs=1e-14)
        np.testing.assert_allclose(spectrum.eigenvalues, reference.eigenvalues, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("scale", [1e100, 1e-90])
    def test_the_rule_holds_where_squared_norms_leave_the_float_range(self, tol, monkeypatch,
                                                                       scale):
        # G = scale^2 [[2, 1], [1, 1]], whose squared norm over- or underflows
        with np.errstate(over="ignore"):
            ch = CPMap(np.array([[[1, 1], [0, 0]], [[1, 0], [0, 0]]]) * scale, tol)
        spectrum, calls = self.decompositions(monkeypatch, lambda: choi_spectrum(ch, tol))
        assert calls == (0, 1)
        np.testing.assert_allclose(spectrum.eigenvalues[:2] / scale ** 2,
                                   [(3 + np.sqrt(5)) / 2, (3 - np.sqrt(5)) / 2], rtol=1e-14)

    @pytest.mark.parametrize("ratio, calls", [(0.5, (0, 0)), (2.0, (0, 1))])
    def test_route_boundary(self, tol, monkeypatch, ratio, calls):
        # a Pauli channel: orthogonal Kraus operators of squared norms 2 p_i.
        # A rotation by theta of its I and X operators, whose supports are
        # disjoint, puts theta 2 (p_X - p_I) in both of their off-diagonal
        # Gram entries, and the others hold rounding two orders below that,
        # so theta places |F| at the given multiple of the bound k u |G|.
        p = np.array([0.4, 0.3, 0.2, 0.1])
        paulis = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                           [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        bound = 4 * np.finfo(float).eps * 2 * np.linalg.norm(p)
        theta = ratio * bound / (np.sqrt(2) * 2 * (p[0] - p[1]))
        givens = np.eye(4)
        givens[:2, :2] = [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        ch = KrausChannel(np.tensordot(givens, np.sqrt(p)[:, None, None] * paulis, axes=1), tol)
        assert _off_diagonal_ratio(ch) == pytest.approx(ratio, rel=1e-2)

        dense = self.dense_reference(ch, tol).eigenvalues
        spectrum, taken = self.decompositions(monkeypatch, lambda: choi_spectrum(ch, tol))
        assert taken == calls
        assert np.max(np.abs(spectrum.eigenvalues - dense)) <= ratio * bound


class TestMinimalKraus:
    def test_duplicated_kraus_collapses_to_one(self, tol):
        iso = random_isometry(4, 2, 15)
        ch = KrausChannel([iso / np.sqrt(2), iso / np.sqrt(2)], tol)
        reduced = minimal_kraus(ch, tol)
        assert len(reduced) == 1
        assert choi(reduced, tol).choi_rank == 1

    def test_depolarizing_already_minimal(self, tol):
        ch = depolarizing(2, tol)
        assert len(minimal_kraus(ch, tol)) == 4

    def test_redundant_rank_one_terms_reduce_to_choi_rank(self, tol):
        # channel given with r > d rank-one terms
        rng = np.random.default_rng(16)
        base = random_schur_complement_channel(3, 4, 17, tol)
        w = random_isometry(5, 3, 18)
        padded = redilate(base, w, tol)
        assert len(padded) == 5
        before = choi(padded, tol).choi_rank
        reduced = minimal_kraus(padded, tol)
        assert len(reduced) == before == 3

    def test_trace_orthogonal_output(self, tol):
        ch = random_channel(3, 3, 4, 19, tol)
        reduced = minimal_kraus(ch, tol)
        evals = choi(ch, tol).eigenvalues
        for i, a in enumerate(reduced.kraus):
            for j, b in enumerate(reduced.kraus):
                got = np.trace(a.conj().T @ b)
                want = evals[i] if i == j else 0.0
                assert got == pytest.approx(want, abs=1e-10)

    def test_preserves_choi_and_is_idempotent(self, tol):
        ch = redilate(random_channel(2, 3, 2, 20, tol), random_isometry(5, 2, 21), tol)
        reduced = minimal_kraus(ch, tol)
        np.testing.assert_allclose(choi(reduced, tol).choi, choi(ch, tol).choi, atol=1e-10)
        again = minimal_kraus(reduced, tol)
        for a, b in zip(reduced.kraus, again.kraus):
            assert np.linalg.norm(a - b) <= tol.eps_verify

    def test_is_minimal_detects_redundancy(self, tol):
        ch = random_channel(2, 2, 2, 22, tol)
        assert is_minimal(minimal_kraus(ch, tol), tol)
        padded = redilate(ch, random_isometry(4, 2, 23), tol)
        assert not is_minimal(padded, tol)


class TestComplement:
    def test_identity_channel_complement_is_trace(self, tol):
        comp = complement(identity_channel(3, tol), tol)
        assert comp.output_dim == 1
        rng = np.random.default_rng(31)
        x = random_complex_matrix(3, 3, rng)
        out = comp.apply(x)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(np.trace(x), abs=1e-12)

    def test_schur_channel_complement_formula(self, tol):
        # complement of the entrywise-product channel, computed from its
        # diagonal Kraus operators, reads off the input diagonal onto
        # conjugated Gram-vector dyads
        corr = random_correlation(4, 3, 33, tol)
        ch = schur_channel(corr, tol)
        factor_rows = [np.diag(k).conj() for k in ch.kraus]  # rows of the Gram factor
        factor = np.array(factor_rows)
        comp = complement_from_kraus(list(ch.kraus), tol)
        rng = np.random.default_rng(34)
        x = random_complex_matrix(4, 4, rng)
        expected = np.zeros((len(ch.kraus), len(ch.kraus)), dtype=complex)
        for k in range(4):
            col = factor[:, k]
            expected += x[k, k] * np.outer(col.conj(), col)
        np.testing.assert_allclose(comp.apply(x), expected, atol=1e-10)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda tol: random_projection_choi_channel(4, 4, 3, tol, ensure_eb=True),
                     id="planted"),
        pytest.param(lambda tol: random_projection_choi_channel(4, 4, 4, tol), id="generic"),
        pytest.param(lambda tol: random_schur_complement_channel(3, 4, 39, tol),
                     id="schur-complement"),
        pytest.param(lambda tol: random_channel(3, 2, 4, 39, tol), id="random-channel"),
    ])
    def test_is_the_complement_of_the_minimal_kraus_set(self, tol, build):
        ch = build(tol)
        comp = complement(ch, tol)
        assert type(comp) is KrausChannel
        assert np.array_equal(comp.kraus,
                              complement_from_kraus(minimal_kraus(ch, tol).kraus, tol).kraus)

    def test_complement_is_trace_preserving(self, tol):
        comp = complement(random_channel(3, 4, 2, 35, tol), tol)
        assert comp.trace_preserving

    def test_minimal_choice_only_moves_complement_by_a_unitary(self, tol):
        ch = random_channel(3, 3, 3, 36, tol)
        minimal = minimal_kraus(ch, tol)
        u = random_unitary(3, 37)
        other = redilate(minimal, u, tol)  # second minimal set
        assert is_minimal(other, tol)
        spec_a = np.sort(choi(complement(ch, tol), tol).eigenvalues)
        spec_b = np.sort(choi(complement_from_kraus(list(other.kraus), tol), tol).eigenvalues)
        np.testing.assert_allclose(spec_a, spec_b, atol=1e-10)

    def test_double_complement_preserves_choi_spectrum(self, tol):
        ch = random_schur_complement_channel(3, 4, 38, tol)
        once = complement(ch, tol)
        twice = complement(once, tol)
        spec_orig = choi(ch, tol).eigenvalues
        spec_twice = choi(twice, tol).eigenvalues
        keep = lambda s: np.sort(s[s > 1e-10])
        np.testing.assert_allclose(keep(spec_orig), keep(spec_twice), atol=1e-10)


class TestComplementAdjoint:
    def test_identity_on_full_space(self, tol):
        ch = minimal_kraus(random_channel(3, 4, 2, 40, tol), tol)
        d = len(ch)
        out = complement_adjoint(ch, tol).apply(np.eye(d))
        np.testing.assert_allclose(out, np.eye(3), atol=1e-10)

    def test_identity_channel_adjoint_scales_trace_by_n(self, tol):
        n = 3
        ch = minimal_kraus(identity_channel(n, tol), tol)
        out = complement_adjoint(ch, tol).apply(np.array([[2.0]]))
        np.testing.assert_allclose(out, 2.0 * np.eye(n), atol=1e-12)

    def test_matrix_unit_images_are_kraus_products(self, tol):
        ch = minimal_kraus(random_channel(2, 3, 2, 41, tol), tol)
        d = len(ch)
        for i in range(d):
            for j in range(d):
                got = complement_adjoint(ch, tol).apply(matrix_unit(d, i, j))
                want = ch.kraus[i].conj().T @ ch.kraus[j]
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rank_one_kraus_channel_adjoint_is_entrywise_multiplier(self, tol):
        # with Kraus operators u_k e_k*, the adjoint sends E_ij to <u_i, u_j> E_ij
        rng = np.random.default_rng(42)
        cols = random_complex_matrix(4, 3, rng)
        cols /= np.linalg.norm(cols, axis=0)
        ch = schur_complement_channel(cols, tol)
        assert is_minimal(ch, tol)
        for i in range(3):
            for j in range(3):
                got = complement_adjoint(ch, tol).apply(matrix_unit(3, i, j))
                want = np.vdot(cols[:, i], cols[:, j]) * matrix_unit(3, i, j)
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_cp_form_agrees_with_direct_evaluation(self, tol):
        ch = minimal_kraus(random_channel(3, 3, 3, 43, tol), tol)
        rng = np.random.default_rng(44)
        x = np.stack([random_complex_matrix(3, 3, rng) for _ in range(2)])
        # sum_ij X_ij K_i* K_j, entry by entry
        direct = np.einsum("sij,iab,jac->sbc", x, ch.kraus.conj(), ch.kraus)
        np.testing.assert_allclose(complement_adjoint(ch, tol).apply(x), direct, atol=1e-10)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda tol: random_projection_choi_channel(4, 4, 1, tol, ensure_eb=True),
                     id="planted"),
        pytest.param(lambda tol: random_projection_choi_channel(4, 4, 2, tol), id="generic"),
        pytest.param(lambda tol: random_schur_complement_channel(3, 4, 48, tol),
                     id="schur-complement"),
        pytest.param(lambda tol: random_channel(3, 3, 3, 43, tol), id="random-channel"),
        pytest.param(lambda tol: random_channel(3, 2, 2, 47, tol), id="random-channel-3-2"),
    ])
    def test_transpose_is_the_dual_of_the_complement(self, tol, build):
        minimal = minimal_kraus(build(tol), tol)
        comp = complement_from_kraus(minimal.kraus, tol)
        assert np.array_equal(complement_adjoint(minimal, tol).kraus,
                              comp.kraus.conj().transpose(0, 2, 1))

    def test_adjoint_requires_minimal_kraus(self, tol):
        padded = redilate(random_channel(2, 2, 2, 45, tol), random_isometry(4, 2, 46), tol)
        with pytest.raises(NotMinimalKraus):
            complement_adjoint(padded, tol).apply(np.eye(4))

    def test_adjoint_unital_for_channels(self, tol):
        adj = complement_adjoint(minimal_kraus(random_channel(3, 2, 2, 47, tol), tol), tol)
        assert adj.unital_residual() <= tol.eps_verify


class TestClassifyComplementAdjoint:
    def test_rank_one_kraus_channel_is_trace_preserving_class(self, tol):
        report = classify_complement_adjoint(random_schur_complement_channel(3, 3, 50, tol), tol)
        assert report.kind is ComplementAdjointKind.TRACE_PRESERVING
        assert report.residual <= 1e-10

    def test_identity_channel_stabilizes_with_scalar_n(self, tol):
        report = classify_complement_adjoint(identity_channel(4, tol), tol)
        assert report.kind is ComplementAdjointKind.TRACE_STABILIZING
        assert report.alpha == pytest.approx(4.0, abs=1e-10)

    def test_transpose_plus_trace_matches_choi_scalar(self, tol):
        for d in (2, 3):
            report = classify_complement_adjoint(werner_holevo(d, tol), tol)
            assert report.kind is ComplementAdjointKind.TRACE_STABILIZING
            assert report.alpha == pytest.approx(2 / (d + 1), abs=1e-10)

    def test_generic_channel_is_neither(self, tol):
        report = classify_complement_adjoint(random_channel(3, 3, 2, 51, tol), tol)
        assert report.kind is ComplementAdjointKind.NEITHER

    @pytest.mark.parametrize("make", [
        lambda tol: werner_holevo(4, tol),
        lambda tol: depolarizing(3, tol),
        lambda tol: identity_channel(3, tol),
        lambda tol: random_projection_choi_channel(4, 4, 1, tol, ensure_eb=True),
        lambda tol: random_projection_choi_channel(4, 4, 2, tol),
        lambda tol: random_schur_complement_channel(4, 7, 52, tol),  # n != m
        lambda tol: random_channel(3, 3, 2, 53, tol),
    ])
    def test_matches_the_complement_applied_to_the_identity(self, tol, make):
        ch = make(tol)
        kind, alpha, residual = classify_by_complement_apply(choi(ch, tol), tol)
        report = classify_complement_adjoint(ch, tol)
        assert report.kind is kind
        if alpha is None:
            assert report.alpha is None
        else:
            assert report.alpha == pytest.approx(alpha, abs=1e-13)
        assert report.residual == pytest.approx(residual, abs=1e-13)

    def test_perturbed_projection_inputs_are_trace_preserving(self, tol):
        """Perturbed-sweep inputs whose Choi eigenvalues all lie within
        eps_eig of 1 get the trace-preserving kind with that largest
        deviation as the residual, the verdict of the reference, where a
        Frobenius norm of the deviations at eps_verify read them as neither."""
        kinds = []
        for seed in range(32):
            ch = perturbed_planted(9, 1e-9, seed, tol)
            spectrum = choi_spectrum(ch, tol)
            report = classify_complement_adjoint(ch, tol)
            kind, alpha, residual = classify_by_complement_apply(choi(ch, tol), tol)
            assert (report.kind, report.alpha) == (kind, alpha)
            assert report.residual == pytest.approx(residual, abs=1e-13)
            if spectrum.classification is ChoiClass.PROJECTION:
                assert report.kind is ComplementAdjointKind.TRACE_PRESERVING
                assert report.residual == np.max(np.abs(spectrum.eigenvalues[:9] - 1.0))
                assert report.residual <= tol.eps_eig
            kinds.append(report.kind)
        assert kinds.count(ComplementAdjointKind.TRACE_PRESERVING) == 28


class TestKrausChoiceInvariance:
    def test_redilation_preserves_action_and_choi(self, tol):
        ch = minimal_kraus(random_channel(2, 3, 2, 53, tol), tol)
        w = random_isometry(5, 2, 54)
        other = redilate(ch, w, tol)
        rng = np.random.default_rng(55)
        x = random_complex_matrix(2, 2, rng)
        np.testing.assert_allclose(other.apply(x), ch.apply(x), atol=1e-12)
        np.testing.assert_allclose(choi(other, tol).choi, choi(ch, tol).choi, atol=1e-12)

    def test_redilation_keeps_complement_spectrum(self, tol):
        ch = random_channel(3, 2, 2, 56, tol)
        padded = redilate(minimal_kraus(ch, tol), random_isometry(4, 2, 57), tol)
        spec_a = np.sort(choi(complement(ch, tol), tol).eigenvalues)
        spec_b = np.sort(choi(complement(padded, tol), tol).eigenvalues)
        np.testing.assert_allclose(spec_a, spec_b, atol=1e-10)

    def test_projection_class_rank_equals_input_dimension(self, tol):
        rep = choi(random_schur_complement_channel(5, 3, 58, tol), tol)
        assert rep.classification is ChoiClass.PROJECTION
        assert rep.choi_rank == 5


class TestChannelFiles:
    def test_roundtrip(self, tol, tmp_path):
        ch = random_channel(3, 2, 2, 60, tol)
        path = tmp_path / "ch.json"
        save_channel(ch, path)
        loaded = load_channel(path, tol)
        assert loaded.input_dim == 3 and loaded.output_dim == 2
        for a, b in zip(ch.kraus, loaded.kraus):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_format_shape(self, tol):
        ch = random_channel(2, 3, 1, 61, tol)
        data = channel_to_json_dict(ch)
        assert data["n"] == 2 and data["m"] == 3
        assert len(data["kraus"]) == 1
        assert len(data["kraus"][0]) == 6  # row-major flat list of [re, im] pairs
        assert len(data["kraus"][0][0]) == 2

    def test_reader_validates_tp(self, tol):
        bad = {"n": 2, "m": 2, "kraus": [[[0.5, 0], [0, 0], [0, 0], [0.5, 0]]]}
        with pytest.raises(NotTracePreserving) as err:
            channel_from_json_dict(bad, tol)
        assert err.value.residual > tol.eps_verify

    def test_reader_rejects_malformed(self, tol):
        with pytest.raises(ValueError):
            channel_from_json_dict({"n": 2, "kraus": []}, tol)
        with pytest.raises(ValueError):
            channel_from_json_dict({"n": 0, "m": 1, "kraus": [[[1, 0]]]}, tol)

    @pytest.mark.parametrize("n, m", [(True, True), (2.9, 1.2), ("1", 1), (1, None)])
    def test_reader_rejects_non_integer_dimensions(self, tol, n, m):
        # bools and fractional numbers are not truncated into dimensions
        with pytest.raises(ValueError):
            channel_from_json_dict({"n": n, "m": m, "kraus": [[[1, 0]]]}, tol)

    def test_reader_accepts_integral_floats(self, tol):
        loaded = channel_from_json_dict({"n": 1.0, "m": 1, "kraus": [[[1, 0]]]}, tol)
        assert (loaded.input_dim, loaded.output_dim) == (1, 1)

    def test_written_file_is_loadable_json(self, tol, tmp_path):
        path = tmp_path / "dep.json"
        save_channel(depolarizing(2, tol), path)
        with open(path) as fh:
            parsed = json.load(fh)
        assert parsed["n"] == parsed["m"] == 2
        assert len(parsed["kraus"]) == 4
