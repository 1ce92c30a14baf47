import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from ebcert import (
    ChoiClass,
    ChoiReport,
    CPMap,
    EBCertificate,
    KrausChannel,
    ToleranceConfig,
    certify,
    choi,
    complement_adjoint,
    eb_rank,
    is_ppt,
    minimal_kraus,
    multiplicative_domain,
    npt_witness,
    partial_transpose,
    random_unitary,
    save_channel,
    schur_normal_form,
    structure,
    verify_certificate,
    verify_eb_witness,
)
from ebcert.algebra import _domain_blocks
from ebcert.certify import _minimal_distance
from ebcert.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NotEntanglementBreaking,
    NotMinimalKraus,
    NotOrthonormal,
    NotTracePreserving,
    NotUnitalOrNotTP,
    OutOfScope,
    RankFailure,
    ResolutionFailure,
    VerificationFailure,
)
from ebcert.numerics import unvec, vec
from ebcert.zoo import (
    depolarizing,
    external_twirl,
    identity_channel,
    internal_twirl,
    permute_kraus,
    random_channel,
    random_projection_choi_channel,
    random_schur_complement_channel,
    redilate_fixture,
    schur_complement_channel,
    werner_holevo,
)

from oracles import (
    block_unital_complement,
    dense_family_distances,
    direct_choi,
    factor_distance,
    perturbed,
    perturbed_planted,
    random_complex_matrix,
    top_left_singular_vectors,
)


def unit_columns(m, n, seed):
    rng = np.random.default_rng(seed)
    cols = random_complex_matrix(m, n, rng)
    return cols / np.linalg.norm(cols, axis=0)


def recover_permutation(expected_cols, recovered):
    """Match recovered orthonormal vectors against an expected basis; the
    pipeline's ordering is an internal convention, so comparisons go through
    this alignment."""
    overlaps = np.abs(expected_cols.conj().T @ np.column_stack(recovered))
    perm = [int(np.argmax(overlaps[:, i])) for i in range(overlaps.shape[1])]
    assert sorted(perm) == list(range(len(perm))), "recovered vectors do not align"
    return perm


class TestVerifyEBWitness:
    def test_rank_one_channel_standard_basis_witness(self, tol):
        cols = unit_columns(4, 3, 1)
        ch = schur_complement_channel(cols, tol)
        v = verify_eb_witness(ch, list(np.eye(3)), tol)
        # adjoint images are the dyads of the generating vectors up to phase
        for k in range(3):
            np.testing.assert_allclose(
                np.outer(v[k], v[k].conj()),
                abs(np.vdot(cols[:, k], cols[:, k])) * np.outer(
                    np.eye(3)[k], np.eye(3)[k]
                ),
                atol=1e-10,
            )

    def test_depolarizing_standard_witness_certifies_length_four(self, tol):
        # witness acceptance works for any channel in minimal form, here one
        # whose Choi matrix is only a scaled projection; the accepted witness
        # bounds the rank-one length by four
        ch = minimal_kraus(depolarizing(2, tol), tol)
        v = verify_eb_witness(ch, list(np.eye(4)), tol)
        assert len(v) == 4
        total = sum(np.outer(x, x.conj()) for x in v)
        np.testing.assert_allclose(total, np.eye(2) / 2 * 2, atol=1e-10)

    def test_scaled_resolution_fails(self, tol):
        ch = minimal_kraus(depolarizing(2, tol), tol)
        with pytest.raises(ResolutionFailure):
            verify_eb_witness(ch, list(np.eye(4) / np.sqrt(2)), tol)

    def test_rank_failure_reports_offending_index(self, tol):
        ch = random_projection_choi_channel(2, 3, 0, tol)  # generically refuted
        minimal = minimal_kraus(ch, tol)
        with pytest.raises(RankFailure) as err:
            verify_eb_witness(minimal, list(np.eye(2)), tol)
        assert err.value.index in (0, 1)
        assert err.value.rank >= 2

    @pytest.mark.parametrize("ensure_eb", [True, False])
    def test_batched_images_match_per_image_reference(self, tol, ensure_eb):
        from ebcert import hermitian_eig, numerical_rank

        ch = random_projection_choi_channel(4, 4, 3, tol, ensure_eb=ensure_eb)
        minimal = minimal_kraus(ch, tol)
        witness = certify(ch, tol).w if ensure_eb else random_unitary(4, 5)
        expected, failure = [], None
        for i, w in enumerate(witness):
            op = sum(np.conj(c) * k for c, k in zip(w, minimal.kraus))
            image = op.conj().T @ op
            rank = numerical_rank(image, tol)
            if rank > 1:
                failure = (i, rank)
                break
            evals, evecs = hermitian_eig(image, tol)
            expected.append(np.sqrt(max(evals[0], 0.0)) * evecs[:, 0])
        if failure is None:
            got = verify_eb_witness(minimal, witness, tol)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        else:
            with pytest.raises(RankFailure) as err:
                verify_eb_witness(minimal, witness, tol)
            assert (err.value.index, err.value.rank) == failure

    def test_requires_minimal_form(self, tol):
        padded = redilate_fixture(depolarizing(2, tol), 6, 3, tol)
        with pytest.raises(NotMinimalKraus):
            verify_eb_witness(padded, list(np.eye(6)), tol)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite_witness(self, tol, entry):
        minimal = minimal_kraus(random_schur_complement_channel(4, 3, 7, tol), tol)
        witness = np.eye(len(minimal), dtype=complex)
        witness[0, 0] = entry
        with pytest.raises(ValueError, match="finite"):
            verify_eb_witness(minimal, witness, tol)


class TestCertify:
    def test_rank_one_kraus_channel_certifies_at_choi_rank(self, tol):
        ch = random_schur_complement_channel(5, 4, 2, tol)
        cert = certify(ch, tol)
        assert cert.r == cert.eb_rank == cert.choi_rank == 5
        assert max(cert.residuals.values()) <= tol.eps_verify

    def test_complement_of_entrywise_product_channel_certifies(self, tol):
        # the complement of a full-rank entrywise-product channel on 5x5
        # matrices is a projection-Choi channel of rank 5
        from ebcert import complement
        from ebcert.zoo import random_correlation, schur_channel
        corr = random_correlation(5, 5, 77, tol)
        comp = complement(schur_channel(corr, tol), tol)
        cert = certify(comp, tol)
        assert cert.eb_rank == cert.choi_rank == 5

    def test_certificate_rebuilds_channel(self, tol):
        ch = random_schur_complement_channel(3, 5, 3, tol)
        cert = certify(ch, tol)
        rebuilt = cert.channel(tol)
        np.testing.assert_allclose(
            choi(rebuilt, tol).choi, choi(ch, tol).choi, atol=1e-9
        )
        for op in cert.rank_one_kraus:
            s = np.linalg.svd(op, compute_uv=False)
            assert s[1] <= 1e-10 * s[0]

    @pytest.mark.parametrize("seed", range(3))
    def test_phase_convention_matches_per_operator_svd(self, tol, seed):
        ch = random_projection_choi_channel(4, 5, seed, tol, ensure_eb=True)
        cert = certify(ch, tol)
        for op, u, v in zip(cert.rank_one_kraus, cert.u, cert.v):
            pivot = u[np.argmax(np.abs(u))]
            assert pivot.real > 0 and abs(pivot.imag) <= 1e-15
            left = np.linalg.svd(op)[0][:, 0]
            top = left[np.argmax(np.abs(left))]
            reference = left * abs(top) / top
            np.testing.assert_allclose(u, reference, rtol=0, atol=1e-12)
            np.testing.assert_allclose(v, op.conj().T @ reference, rtol=0, atol=1e-12)

    def test_norm_matching_of_witness_pairs(self, tol):
        cert = certify(random_schur_complement_channel(4, 3, 4, tol), tol)
        for w, v in zip(cert.w, cert.v):
            assert abs(np.linalg.norm(w) - np.linalg.norm(v)) <= tol.eps_verify

    def test_scaled_projection_is_out_of_scope(self, tol):
        with pytest.raises(OutOfScope) as err:
            certify(werner_holevo(3, tol), tol)
        assert err.value.classification == "scaled_projection"
        assert err.value.alpha == pytest.approx(0.5, abs=1e-10)

    def test_identity_channel_is_out_of_scope(self, tol):
        with pytest.raises(OutOfScope) as err:
            certify(identity_channel(3, tol), tol)
        assert err.value.alpha == pytest.approx(3.0, abs=1e-10)

    def test_generic_channel_is_out_of_scope(self, tol):
        with pytest.raises(OutOfScope) as err:
            certify(random_channel(3, 3, 2, 5, tol), tol)
        assert err.value.classification == "other"

    def test_map_that_is_not_a_channel_is_refused_up_front(self, tol):
        # an ill-posed input is refused with its margin, not as a failed check
        projection = CPMap([np.diag([1.0, 0.0])], tol)
        for call in (certify, eb_rank):
            with pytest.raises(NotTracePreserving) as err:
                call(projection, tol)
            assert err.value.residual == pytest.approx(1.0)

    def test_refutation_carries_structure_and_ppt_confirmation(self, tol):
        ch = random_projection_choi_channel(2, 3, 1, tol)
        with pytest.raises(NotEntanglementBreaking) as err:
            certify(ch, tol)
        assert err.value.blocks == ((2, 1),)
        assert err.value.ppt_violated is True

    def test_planted_instances_certify(self, tol):
        for seed in range(3):
            ch = random_projection_choi_channel(3, 4, seed, tol, ensure_eb=True)
            cert = certify(ch, tol)
            assert cert.eb_rank == 3

    def test_outcome_invariant_under_kraus_permutation(self, tol):
        ch = random_schur_complement_channel(3, 3, 6, tol)
        shuffled = permute_kraus(ch, [2, 0, 1], tol)
        assert certify(shuffled, tol).eb_rank == certify(ch, tol).eb_rank

        refuted = random_projection_choi_channel(2, 4, 2, tol)
        shuffled = permute_kraus(refuted, [1, 0], tol)
        with pytest.raises(NotEntanglementBreaking):
            certify(shuffled, tol)

    def test_outcome_invariant_under_external_conjugation(self, tol):
        u3 = random_unitary(3, 60)
        accepted = random_schur_complement_channel(3, 3, 61, tol)
        assert certify(external_twirl(accepted, u3, tol), tol).eb_rank == \
            certify(accepted, tol).eb_rank

        refuted = random_projection_choi_channel(2, 3, 5, tol)
        with pytest.raises(NotEntanglementBreaking) as before:
            certify(refuted, tol)
        with pytest.raises(NotEntanglementBreaking) as after:
            certify(external_twirl(refuted, random_unitary(3, 62), tol), tol)
        assert before.value.blocks == after.value.blocks

    def test_outcome_invariant_under_redilation(self, tol):
        ch = random_schur_complement_channel(3, 4, 7, tol)
        padded = redilate_fixture(ch, 5, 8, tol)
        assert certify(padded, tol).eb_rank == 3

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_emitted_channel_does_not_depend_on_the_presentation(self, tol, n):
        # certificates of one channel in other presentations may differ in w
        # and v, as a degenerate Gram eigenspace has no canonical basis, but
        # each rank-one channel lies within its choi_match of the channel, so
        # two of them lie within the sum of their choi_match of each other
        for seed in range(2):
            ch = random_projection_choi_channel(n, n, seed, tol, ensure_eb=True)
            scaled = ch.kraus * (1 + 1e-15)
            presentations = [
                ch,
                permute_kraus(ch, np.random.default_rng(seed).permutation(len(ch)), tol),
                redilate_fixture(ch, 3 * n, seed, tol),
                KrausChannel(scaled * np.sqrt(n) / np.linalg.norm(scaled), tol),
            ]
            certs = [certify(p, tol) for p in presentations]
            assert [c.eb_rank for c in certs] == [n] * 4
            for a, b in itertools.combinations(certs, 2):
                factors = (c.rank_one_kraus.reshape(c.r, -1).T for c in (a, b))
                bound = a.residuals["choi_match"] + b.residuals["choi_match"]
                assert factor_distance(*factors) <= bound, (seed, bound)

    def test_refutation_stable_across_seeds(self, tol):
        from ebcert import ToleranceConfig
        ch = random_projection_choi_channel(3, 3, 3, tol)
        outcomes = []
        for seed in (0, 17, 400):
            t = ToleranceConfig(seed=seed)
            with pytest.raises(NotEntanglementBreaking) as err:
                certify(ch, t)
            outcomes.append(err.value.blocks)
        assert len(set(outcomes)) == 1

    @pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_near_parallel_output_vectors_certify(self, tol, delta):
        # columns e_1 + delta-noise: the interaction elements' eigenvalues
        # sit about delta apart, far below any cutoff on dual o psi - I, and
        # mixing two eigenvectors mixes two nearly parallel rank-one terms
        rng = np.random.default_rng(0)
        cols = np.zeros((3, 4), dtype=complex)
        cols[0, :] = 1.0
        cols += delta * random_complex_matrix(3, 4, rng)
        cols /= np.linalg.norm(cols, axis=0)
        cert = certify(schur_complement_channel(cols, tol), tol)
        assert cert.eb_rank == cert.choi_rank == 4
        assert len(cert.rank_one_kraus) == 4

    @pytest.mark.parametrize("seed", range(6))
    def test_perturbed_planted_channel_certifies(self, tol, seed):
        ch = random_projection_choi_channel(3, 3, seed, tol, ensure_eb=True)
        rng = np.random.default_rng(100 + seed)
        ops = [k + 1e-10 * random_complex_matrix(3, 3, rng) for k in ch.kraus]
        evals, evecs = np.linalg.eigh(sum(k.conj().T @ k for k in ops))
        ops = [k @ evecs @ np.diag(evals ** -0.5) @ evecs.conj().T for k in ops]
        perturbed = KrausChannel(ops, tol)
        cert = certify(perturbed, tol)
        assert cert.residuals["choi_match"] <= tol.eps_verify * 3
        mismatch = direct_choi(cert.rank_one_kraus, 3, 3) - direct_choi(ops, 3, 3)
        assert np.linalg.norm(mismatch) <= tol.eps_verify * 3

    def test_pipeline_does_not_build_the_commutant(self, tol, monkeypatch):
        # the decision reads two d x d interaction elements: no SVD over d^2
        # unknowns, and none of the domain-path stages
        planted = random_projection_choi_channel(6, 6, 1, tol, ensure_eb=True)
        generic = random_projection_choi_channel(6, 6, 2, tol)
        widths = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            widths.append(np.shape(a)[-1])
            return svd(a, *args, **kwargs)

        def domain_stage(*args, **kwargs):
            raise AssertionError("certify entered the multiplicative-domain path")

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        # by module object: the package rebinds the name ebcert.certify
        for module in ("algebra", "certify", "channel"):
            for name in ("complement_adjoint", "multiplicative_domain", "structure",
                         "rank_one_resolution"):
                monkeypatch.setattr(importlib.import_module(f"ebcert.{module}"), name,
                                    domain_stage, raising=False)
        assert certify(planted, tol).eb_rank == 6
        assert sum(w >= 36 for w in widths) == 0
        widths.clear()
        with pytest.raises(NotEntanglementBreaking):
            certify(generic, tol)
        assert sum(w >= 36 for w in widths) == 0

    def test_analyze_does_not_build_the_fixed_point_space(self, tol, tmp_path, monkeypatch):
        # CLI analyze reads the domain from the interaction elements: no SVD
        # or eigh of width d^2 or more, and no center or structure pass
        from ebcert import cli

        paths = []
        for name, ch in (("planted", random_projection_choi_channel(6, 6, 1, tol, ensure_eb=True)),
                         ("generic", random_projection_choi_channel(6, 6, 2, tol))):
            paths.append(tmp_path / f"{name}.json")
            save_channel(ch, paths[-1])
        widths = []

        def counting(fn):
            def wrapper(a, *args, **kwargs):
                widths.append(np.shape(a)[-1])
                return fn(a, *args, **kwargs)
            return wrapper

        def structure_pass(*args, **kwargs):
            raise AssertionError("analyze entered the center or structure pass")

        monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
        for module in ("algebra", "cli"):
            for name in ("center", "structure"):
                monkeypatch.setattr(importlib.import_module(f"ebcert.{module}"), name,
                                    structure_pass, raising=False)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["analyze", "--format", "json", *map(str, paths)])
        assert code == 0
        assert widths and max(widths) < 36
        decoder, text, reports = json.JSONDecoder(), out.getvalue().strip(), []
        while text:
            report, end = decoder.raw_decode(text)
            reports.append(report["algebra"])
            text = text[end:].strip()
        assert [r["blocks"] for r in reports] == [[[1, 1]] * 6, [[6, 1]]]
        assert [r["dimension"] for r in reports] == [6, 1]
        assert [r["multiplicity_free"] for r in reports] == [True, False]

    def test_refutation_states_its_margin(self, tol):
        with pytest.raises(NotEntanglementBreaking) as err:
            certify(random_projection_choi_channel(6, 6, 2, tol), tol)
        refusal = err.value
        assert refusal.bound == pytest.approx(np.sqrt(tol.eps_eig))
        assert refusal.commutator > refusal.bound
        payload = refusal.payload()
        assert (payload["commutator"], payload["bound"]) == (refusal.commutator, refusal.bound)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("sizes, j", [
        ((1, 3), 1), ((2, 2), 1), ((1, 1, 2), 1), ((3, 1), 1),
        ((2,), 2), ((1, 2), 2), ((2, 1), 3),
    ])
    def test_refutation_blocks_match_the_domain_structure(self, tol, sizes, j, seed):
        ch = block_unital_complement(sizes, j, seed, tol)
        adjoint = complement_adjoint(minimal_kraus(ch, tol), tol)
        expected = structure(multiplicative_domain(adjoint, tol), tol).pairs()
        assert sorted(expected) == sorted((size, j) for size in sizes)
        with pytest.raises(NotEntanglementBreaking) as err:
            certify(ch, tol)
        assert err.value.blocks == expected

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("sizes, j", [((1,), 3), ((1, 1), 2), ((1, 1), 3)])
    def test_repeated_interaction_eigenvalues_certify(self, tol, sizes, j, seed):
        # each eigenvalue of the interaction elements has multiplicity j, and
        # any basis of its eigenspace resolves the domain
        ch = block_unital_complement(sizes, j, seed, tol)
        cert = certify(ch, tol)
        assert cert.eb_rank == cert.choi_rank == j * len(sizes)

    def test_one_choi_spectrum_per_call(self, tol, tmp_path, monkeypatch):
        from ebcert import classify_complement_adjoint, cli

        # presentations with k = 8 Kraus operators, so the k x k Gram
        # spectra stand apart from the d x d = 6 x 6 interaction elements
        # and from the nm x nm = 36 x 36 Choi matrix
        planted = redilate_fixture(random_projection_choi_channel(6, 6, 1, tol, ensure_eb=True),
                                   8, 11, tol)
        generic = redilate_fixture(random_projection_choi_channel(6, 6, 2, tol), 8, 12, tol)
        scaled = werner_holevo(5, tol)  # k = 15, nm = 25
        padded_scaled = redilate_fixture(scaled, 20, 13, tol)  # k = 20, not minimal
        sizes = {"eigh": [], "eigvalsh": []}
        originals = {name: getattr(np.linalg, name) for name in sizes}

        def counting(name):
            def decompose(a, *args, **kwargs):
                # the trailing size, so a stack of d x d matrices counts as d
                sizes[name].append(np.shape(a)[-1])
                return originals[name](a, *args, **kwargs)
            return decompose

        def decompositions(run, nm, k):
            """Decompositions of size nm, eigh of size k, eigvalsh of size k."""
            for calls in sizes.values():
                calls.clear()
            run()
            return (sizes["eigh"].count(nm) + sizes["eigvalsh"].count(nm),
                    sizes["eigh"].count(k), sizes["eigvalsh"].count(k))

        def refute():
            with pytest.raises(NotEntanglementBreaking):
                certify(generic, tol)

        def run_cli(*args):
            path = tmp_path / "planted.json"
            save_channel(planted, path)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([*args, "--format", "json", str(path)]) == 0

        for name in sizes:
            monkeypatch.setattr(np.linalg, name, counting(name))
        # no Choi matrix is decomposed; the pipeline's Gram spectrum, which
        # certificate verification reuses, through the library and the CLI
        assert decompositions(lambda: certify(planted, tol), 36, 8) == (0, 1, 0)
        assert decompositions(lambda: run_cli("certify"), 36, 8) == (0, 1, 0)
        assert decompositions(lambda: run_cli("analyze"), 36, 8) == (0, 1, 0)
        cert = certify(planted, tol)
        assert decompositions(lambda: verify_certificate(cert, planted, tol), 36, 8) == (0, 1, 0)
        # the pipeline's Gram spectrum; the partial-transpose witness takes
        # its Ritz pair from one eigh of the small Lanczos tridiagonal per
        # step, and here stops before that tridiagonal reaches size k
        assert decompositions(refute, 36, 8) == (0, 1, 0)
        # callers that read only the spectrum take its eigenvalues, no eigh:
        # none at all where the Gram matrix is diagonal, as for the natural
        # Werner-Holevo operators, and one eigvalsh where it is not
        assert decompositions(lambda: classify_complement_adjoint(scaled, tol), 25, 15) == (0, 0, 0)
        assert decompositions(lambda: eb_rank(scaled, tol), 25, 15) == (0, 0, 0)
        assert decompositions(lambda: classify_complement_adjoint(padded_scaled, tol),
                              25, 20) == (0, 0, 1)
        assert decompositions(lambda: eb_rank(padded_scaled, tol), 25, 20) == (0, 0, 1)
        # a projection eb_rank reads the spectrum, then certify decomposes
        assert decompositions(lambda: eb_rank(planted, tol), 36, 8) == (0, 1, 1)

    def test_no_call_runs_a_qr(self, tol, tmp_path, monkeypatch):
        from ebcert import classify_complement_adjoint, cli

        planted = random_projection_choi_channel(6, 6, 1, tol, ensure_eb=True)
        generic = random_projection_choi_channel(6, 6, 2, tol)
        scaled = werner_holevo(5, tol)  # k = 15 < nm = 25
        calls = []
        qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            calls.append(1)
            return qr(*args, **kwargs)

        def qr_calls(run):
            calls.clear()
            run()
            return len(calls)

        def refute():
            with pytest.raises(NotEntanglementBreaking):
                certify(generic, tol)

        def run_cli():
            path = tmp_path / "planted.json"
            save_channel(planted, path)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["certify", "--format", "json", str(path)]) == 0

        cert = certify(planted, tol)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        assert qr_calls(lambda: choi(scaled, tol)) == 0
        assert qr_calls(lambda: classify_complement_adjoint(scaled, tol)) == 0
        assert qr_calls(lambda: eb_rank(scaled, tol)) == 0
        assert qr_calls(refute) == 0
        # choi_match is measured in choi's eigenbasis, not by factor_distance
        assert qr_calls(lambda: certify(planted, tol)) == 0
        assert qr_calls(lambda: verify_certificate(cert, planted, tol)) == 0
        assert qr_calls(run_cli) == 0

    def test_complement_adjoint_classification_applies_nothing(self, tol, monkeypatch):
        from ebcert import classify_complement_adjoint

        scaled = werner_holevo(5, tol)
        calls = []
        apply = CPMap.apply

        def counting_apply(self, x):
            calls.append(1)
            return apply(self, x)

        monkeypatch.setattr(CPMap, "apply", counting_apply)
        classify_complement_adjoint(scaled, tol)
        assert len(calls) == 0

    def test_certify_forms_no_choi_matrix(self, tol, monkeypatch):
        planted = random_projection_choi_channel(6, 6, 1, tol, ensure_eb=True)
        generic = random_projection_choi_channel(6, 6, 2, tol)
        built = []

        def forbidden(self):
            built.append(self)
            raise AssertionError("a Choi matrix was formed")

        monkeypatch.setattr(ChoiReport, "choi", property(forbidden))
        assert certify(planted, tol).eb_rank == 6
        # the partial-transpose cross-check of a refutation works on the factor
        with pytest.raises(NotEntanglementBreaking) as err:
            certify(generic, tol)
        assert err.value.ppt_violated
        assert len(built) == 0

    @pytest.mark.parametrize("ensure_eb", [False, True])
    def test_generic_refutation_at_scale_forms_no_choi_matrix(self, tol, monkeypatch, ensure_eb):
        # at n = m = 32 the Choi matrix is 1024 x 1024; neither branch forms it
        ch = random_projection_choi_channel(32, 32, 1, tol, ensure_eb=ensure_eb)

        def forbidden(self):
            raise AssertionError("a Choi matrix was formed")

        monkeypatch.setattr(ChoiReport, "choi", property(forbidden))
        if ensure_eb:
            assert certify(ch, tol).eb_rank == 32
            return
        with pytest.raises(NotEntanglementBreaking) as err:
            certify(ch, tol)
        assert err.value.ppt_violated is True
        assert err.value.witness_quotient < -err.value.witness_bound

    @pytest.mark.parametrize("seed", range(3))
    def test_adjoint_rank_one_matches_the_complement_adjoint(self, tol, seed):
        ch = random_projection_choi_channel(5, 4, seed, tol, ensure_eb=True)
        cert = certify(ch, tol)
        w, v = cert.w, cert.v
        images = complement_adjoint(minimal_kraus(ch, tol), tol).apply(
            w[:, :, None] * w.conj()[:, None, :])
        expected = np.max(np.linalg.norm(images - v[:, :, None] * v.conj()[:, None, :],
                                         axis=(1, 2)))
        assert abs(cert.residuals["adjoint_rank_one"] - expected) <= 1e-13


def mix_two_rows(w):
    """Rotate the first two witness vectors into each other: the sum of
    their outer products, so the resolution, is unchanged, but each
    recombined operator gets rank two."""
    w = np.array(w)
    w[:2] = np.array([[1, -1], [1, 1]]) / np.sqrt(2) @ w[:2]
    return w


class TestCertifyGate:
    def test_certify_runs_no_other_acceptance_check(self, tol, monkeypatch):
        def other_check(*args, **kwargs):
            raise AssertionError("certify ran a check besides verify_certificate")

        # by module object: the package rebinds the name ebcert.certify
        for module in ("certify", "channel"):
            for name in ("verify_eb_witness", "is_minimal"):
                monkeypatch.setattr(importlib.import_module(f"ebcert.{module}"), name,
                                    other_check, raising=False)
        for ch in (random_projection_choi_channel(6, 6, 1, tol, ensure_eb=True),
                   random_schur_complement_channel(6, 6, 1, tol)):
            assert certify(ch, tol).eb_rank == 6

    def test_certify_and_verify_certificate_are_one_gate(self, tol, monkeypatch):
        # certify checks against the minimal set it built; the public gate
        # rebuilds that set from the channel and measures the same residuals
        for ch in (random_projection_choi_channel(6, 6, 1, tol, ensure_eb=True),
                   random_schur_complement_channel(4, 6, 1, tol),
                   random_projection_choi_channel(4, 5, 2, tol, ensure_eb=True)):
            cert = certify(ch, tol)
            assert verify_certificate(cert, ch, tol) == cert.residuals
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert certify(random_projection_choi_channel(6, 6, 1, tol, ensure_eb=True), tol).r == 6
        assert calls == []

    def test_a_refutation_forms_two_interaction_elements(self, tol, monkeypatch):
        # draws 0-1 decide; certify forms draws 2-7 only where it reads them,
        # from the one stack of coefficients it drew, and the domain of
        # analyze is checked against all eight
        algebra = importlib.import_module("ebcert.algebra")
        former, seeded = algebra.interaction_draws, ToleranceConfig.rng
        formed, streams = [], []

        def counting(*args, **kwargs):
            draw = former(*args, **kwargs)

            def forming(draws):
                elements = draw(draws)
                formed.append(len(elements))
                return elements
            return forming

        def counting_streams(self, *salt):
            streams.append(salt)
            return seeded(self, *salt)

        for module in (algebra, importlib.import_module("ebcert.certify")):
            monkeypatch.setattr(module, "interaction_draws", counting)
        monkeypatch.setattr(ToleranceConfig, "rng", counting_streams)
        generic = random_projection_choi_channel(6, 6, 0, tol)
        planted = random_projection_choi_channel(6, 6, 1, tol, ensure_eb=True)
        with pytest.raises(NotEntanglementBreaking):
            certify(generic, tol)
        assert formed == [2]
        assert streams.count((0x1A7E,)) == 1
        formed.clear()
        streams.clear()
        assert certify(planted, tol).r == 6
        assert formed == [2, 6]
        assert streams.count((0x1A7E,)) == 1
        for ch in (planted, generic):
            formed.clear()
            multiplicative_domain(complement_adjoint(minimal_kraus(ch, tol), tol), tol)
            assert formed == [8]

    def test_reads_the_kraus_stack_as_given_and_as_choi_built_it(self, tol, monkeypatch):
        # no vec of a Kraus stack into a second layout, and no map wrapped
        # around the minimal stack: not on a certificate, a refutation or the gate
        planted = random_projection_choi_channel(6, 6, 1, tol, ensure_eb=True)
        generic = random_projection_choi_channel(6, 6, 0, tol)
        cert = certify(planted, tol)
        real_vec, construct = vec, CPMap.__init__
        calls = {"vec of a stack": 0, "CPMap": 0}

        def watched_vec(a):
            calls["vec of a stack"] += np.ndim(a) == 3
            return real_vec(a)

        def counting_construct(self, *args, **kwargs):
            calls["CPMap"] += 1
            construct(self, *args, **kwargs)

        # every module that holds numerics.vec under its own name
        for name in ("algebra", "certify", "channel", "cli", "numerics", "zoo"):
            module = importlib.import_module(f"ebcert.{name}")
            if vars(module).get("vec") is real_vec:
                monkeypatch.setattr(module, "vec", watched_vec)
        monkeypatch.setattr(CPMap, "__init__", counting_construct)

        def refute():
            with pytest.raises(NotEntanglementBreaking):
                certify(generic, tol)

        for run in (lambda: certify(planted, tol), refute,
                    lambda: verify_certificate(cert, planted, tol)):
            calls.update({"vec of a stack": 0, "CPMap": 0})
            run()
            assert calls == {"vec of a stack": 0, "CPMap": 0}
        # the watch is live: the Choi matrix itself is the one vec of a stack
        assert choi(planted, tol).choi.shape == (36, 36)
        assert calls["vec of a stack"] == 1

    @pytest.mark.parametrize("planted, ratio", [(True, 9.0), (False, 8.0)],
                             ids=["planted", "generic"])
    def test_peak_memory_is_a_few_kraus_stacks(self, tol, planted, ratio):
        # at n = m = 32 the tracemalloc peak of certify, in units of the
        # input's Kraus stack: 0.13.1 read 12.6 (planted) and 8.8 (generic),
        # 0.14.0 10.5 and 7.5, 0.15.0 9.5 and 6.5, 0.16.0 8.5 and 6.5
        ch = random_projection_choi_channel(32, 32, 1, tol, ensure_eb=planted)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with contextlib.suppress(NotEntanglementBreaking):
                certify(ch, tol)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= ratio * ch.kraus.nbytes

    def test_choi_report_retains_one_kraus_stack(self, tol):
        # the minimal stack plus the spectrum, in units of the input's Kraus
        # stack; 0.15.0 also kept a column-major copy of the input and read 2.02
        ch = random_projection_choi_channel(32, 32, 1, tol, ensure_eb=True)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            report = choi(ch, tol)
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert report.choi_rank == 32
        assert retained <= 1.1 * ch.kraus.nbytes

    def test_certify_runs_no_hermitian_residual_check(self, tol, monkeypatch):
        # the Gram matrix and the interaction elements are Hermitian by construction
        channels = (random_projection_choi_channel(6, 6, 1, tol, ensure_eb=True),
                    random_projection_choi_channel(6, 6, 0, tol))
        calls = []
        numerics = importlib.import_module("ebcert.numerics")
        check = numerics.as_hermitian

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return check(*args, **kwargs)

        for name in ("numerics", "channel", "algebra", "certify"):
            monkeypatch.setattr(importlib.import_module(f"ebcert.{name}"), "as_hermitian",
                                counting, raising=False)
        assert certify(channels[0], tol).r == 6
        with pytest.raises(NotEntanglementBreaking):
            certify(channels[1], tol)
        assert calls == []
        numerics.hermitian_eig(np.eye(2), tol)  # the patch does count a call
        assert calls == [(2, 2)]

    @pytest.mark.parametrize("n, eps", [(3, 3e-10), (9, 1e-10)])
    def test_power_step_matches_the_svd_on_perturbed_inputs(self, tol, monkeypatch, n, eps):
        # u from one power step against the top left singular vector: the
        # same seeds certify, with the same factorization residual
        def factorization_residuals():
            out = []
            for seed in range(8):
                try:
                    out.append(certify(perturbed_planted(n, eps, seed, tol), tol)
                               .residuals["factorization"])
                except VerificationFailure:
                    out.append(None)
            return out

        power = factorization_residuals()
        monkeypatch.setattr(importlib.import_module("ebcert.certify"), "_left_vectors",
                            top_left_singular_vectors)
        reference = factorization_residuals()
        assert [p is None for p in power] == [r is None for r in reference]
        assert any(p is not None for p in power)
        for p, r in zip(power, reference):
            if p is not None:
                assert abs(p - r) <= 1e-6 * r

    @pytest.mark.parametrize("n, eps, certified, domain_failures", [
        (3, 1e-9, 15, 11), (6, 3e-10, 12, 6), (4, 1e-9, 9, 14), (9, 1e-10, 14, 3)])
    def test_perturbed_sweep_subset_does_not_regress(self, tol, n, eps, certified,
                                                     domain_failures):
        # seeds 0-15 of four sweep rows, against the counts of 0.13.0: no
        # fewer certified by certify, and no more domain builds of analyze
        # ending in exit 3, VerificationFailure or NotUnitalOrNotTP
        channels = [perturbed_planted(n, eps, seed, tol) for seed in range(16)]
        outcomes = []
        for ch in channels:
            try:
                certify(ch, tol)
                outcomes.append(True)
            except (VerificationFailure, NotEntanglementBreaking, OutOfScope):
                outcomes.append(False)
        failures = 0
        for report in (choi(ch, tol) for ch in channels):
            if report.classification is ChoiClass.PROJECTION:
                try:
                    _domain_blocks(report.kraus, tol)
                except (VerificationFailure, NotUnitalOrNotTP):
                    failures += 1
        assert sum(outcomes) >= certified
        assert failures <= domain_failures

    def test_zero_operator_gets_a_zero_vector_and_is_refused(self, tol):
        module = importlib.import_module("ebcert.certify")
        ch = random_projection_choi_channel(4, 5, 0, tol, ensure_eb=True)
        cert = certify(ch, tol)
        ops = cert.rank_one_kraus.copy()
        ops[1] = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = module._left_vectors(ops)
        np.testing.assert_array_equal(u[1], 0)
        np.testing.assert_allclose(u[[0, 2, 3]], cert.u[[0, 2, 3]], rtol=0, atol=1e-12)
        with pytest.raises(VerificationFailure) as err:
            verify_certificate(dataclasses.replace(cert, u=u), ch, tol)
        assert "'unit_norm'" in str(err.value)

    @pytest.mark.parametrize("tamper, failing, holding", [
        (mix_two_rows, "factorization", "resolution"),
        (lambda w: w / np.sqrt(2), "resolution", "factorization"),
    ], ids=["rank-two", "half-resolution"])
    def test_verify_certificate_refuses_a_bad_witness(self, tol, monkeypatch, tamper,
                                                      failing, holding):
        module = importlib.import_module("ebcert.certify")
        decide = module._decide

        def tampered(*args):
            # w is the rows of the decision's eigenvectors
            decision = decide(*args)
            return decision._replace(evecs=tamper(decision.evecs.T).T)

        monkeypatch.setattr(module, "_decide", tampered)
        with pytest.raises(VerificationFailure) as err:
            certify(random_projection_choi_channel(6, 6, 1, tol, ensure_eb=True), tol)
        assert f"'{failing}'" in str(err.value)
        assert f"'{holding}'" not in str(err.value)


class TestVerifyCertificate:
    def test_build_and_check_are_separate_paths(self, tol):
        ch = random_schur_complement_channel(4, 4, 8, tol)
        cert = certify(ch, tol)
        residuals = verify_certificate(cert, ch, tol)
        assert set(residuals) == {
            "resolution", "adjoint_rank_one", "input_resolution",
            "unit_norm", "factorization", "norm_match", "choi_match",
        }

    @pytest.mark.parametrize("kind", ["planted", "schur", "redilated", "perturbed"])
    def test_choi_match_bounds_the_dense_choi_distance(self, tol, kind):
        # choi_match = |D D* - M M*| + |V V* - M M*| against the dense
        # |D D* - V V*|: within 1e-13, and never below it beyond rounding
        inputs = {
            "planted": [random_projection_choi_channel(n, n, s, tol, ensure_eb=True)
                        for n, s in ((3, 0), (6, 1), (4, 2))],
            "schur": [random_schur_complement_channel(n, m, s, tol)
                      for n, m, s in ((3, 3, 0), (4, 6, 1), (5, 3, 2))],
            "redilated": [redilate_fixture(random_projection_choi_channel(n, n, s, tol,
                                                                          ensure_eb=True),
                                           3 * n, 40 + s, tol) for n, s in ((3, 0), (6, 1), (4, 2))],
            "perturbed": [perturbed_planted(n, eps, s, tol)
                          for n, eps in ((3, 1e-9), (6, 3e-10), (9, 1e-10)) for s in range(4)],
        }[kind]
        checked = 0
        for ch in inputs:
            try:
                cert = certify(ch, tol)
            except VerificationFailure:
                continue
            n, m = ch.input_dim, ch.output_dim
            dense = np.linalg.norm(direct_choi(cert.rank_one_kraus, n, m) - direct_choi(ch.kraus, n, m))
            match = cert.residuals["choi_match"]
            assert abs(match - dense) <= 1e-13
            assert match >= dense - 1e-14
            checked += 1
        assert checked >= 3

    def test_minimal_distance_is_the_factor_distance(self, tol):
        # the eigenbasis identity holds for any stack, of any length, far
        # from the minimal one as well as near it
        rng = np.random.default_rng(7)
        for ch in (random_projection_choi_channel(4, 5, 1, tol, ensure_eb=True),
                   redilate_fixture(random_projection_choi_channel(3, 3, 2, tol), 9, 3, tol)):
            report = choi(ch, tol)
            d, m, n = report.kraus.shape
            near = report.kraus + 1e-6 * random_complex_matrix(d, m * n, rng).reshape(d, m, n)
            for stack in (near, random_complex_matrix(d + 2, m * n, rng).reshape(-1, m, n),
                          random_complex_matrix(1, m * n, rng).reshape(1, m, n)):
                reference = factor_distance(vec(stack).T, vec(report.kraus).T)
                assert _minimal_distance(stack, report) == pytest.approx(reference, rel=1e-10)

    @pytest.mark.parametrize("other", ["random", "depolarizing"])
    def test_refuses_a_channel_outside_the_projection_class(self, tol, other):
        # same Choi rank as the certificate, but not a projection Choi
        # matrix: refused by its class before any residual
        ch, expected = {"random": (random_channel(3, 3, 3, 4, tol), "other"),
                        "depolarizing": (depolarizing(2, tol), "scaled_projection")}[other]
        d = choi(ch, tol).choi_rank
        cert = certify(random_projection_choi_channel(d, 3, 1, tol, ensure_eb=True), tol)
        assert cert.choi_rank == d
        with pytest.raises(VerificationFailure, match=f"the channel's is {expected}$"):
            verify_certificate(cert, ch, tol)

    def test_detects_corrupted_witness(self, tol):
        ch = random_schur_complement_channel(3, 3, 9, tol)
        cert = certify(ch, tol)
        bad = dataclasses.replace(cert, w=tuple(0.5 * w for w in cert.w))
        with pytest.raises(VerificationFailure):
            verify_certificate(bad, ch, tol)

    def test_nan_residual_fails_closed(self, tol):
        # NaN compares false against every bound, so it must count as failing
        ch = random_schur_complement_channel(4, 3, 7, tol)
        cert = certify(ch, tol)
        w = np.array(cert.w)
        w[0, 0] = np.nan
        with pytest.raises(VerificationFailure, match="out of tolerance"):
            verify_certificate(dataclasses.replace(cert, w=w), ch, tol)

    def test_detects_wrong_channel(self, tol):
        cert = certify(random_schur_complement_channel(3, 3, 10, tol), tol)
        other = random_schur_complement_channel(3, 3, 11, tol)
        with pytest.raises(VerificationFailure):
            verify_certificate(cert, other, tol)

    def test_json_roundtrip(self, tol):
        ch = random_schur_complement_channel(3, 2, 12, tol)
        cert = certify(ch, tol)
        data = cert.to_json_dict()
        back = EBCertificate.from_json_dict(data)
        assert back.r == cert.r
        r, n, m = cert.r, ch.input_dim, ch.output_dim
        assert back.w.shape == (r, cert.choi_rank)
        assert back.v.shape == (r, n)
        assert back.u.shape == (r, m)
        assert back.rank_one_kraus.shape == (r, m, n)
        for a, b in zip(cert.w, back.w):
            np.testing.assert_allclose(a, b, atol=1e-15)
        for a, b in zip(cert.rank_one_kraus, back.rank_one_kraus):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_same_verdict_in_memory_and_after_json(self, tol):
        ch = random_projection_choi_channel(4, 4, 2, tol, ensure_eb=True)
        cert = certify(ch, tol)
        phases = np.exp(1j * np.linspace(0.5, 2.5, cert.r))
        bad = dataclasses.replace(cert, u=phases[:, None] * cert.u)
        for held in (bad, EBCertificate.from_json_dict(bad.to_json_dict())):
            with pytest.raises(VerificationFailure, match="factorization"):
                verify_certificate(held, ch, tol)

    def test_json_rejects_disagreeing_lengths(self, tol):
        data = certify(random_schur_complement_channel(3, 2, 12, tol), tol).to_json_dict()
        for key in ("r", "eb_rank", "choi_rank"):
            with pytest.raises(ValueError):
                EBCertificate.from_json_dict({**data, key: 4})
            # a bool or a fraction is not truncated into a length
            for value in (True, 3.5, "3"):
                with pytest.raises(ValueError):
                    EBCertificate.from_json_dict({**data, key: value})
        assert EBCertificate.from_json_dict({**data, "r": 3.0}).r == 3
        for key in ("w", "v", "u"):
            with pytest.raises(DimensionMismatch):
                EBCertificate.from_json_dict({**data, key: data[key][:2]})
        with pytest.raises(DimensionMismatch):
            EBCertificate.from_json_dict({**data, "w": [row[:2] for row in data["w"]]})

    @pytest.mark.parametrize("stack, expected", [("v", (4, 4)), ("u", (4, 3))])
    def test_a_stack_of_the_wrong_width_fails_verification(self, tol, stack, expected):
        """A certificate read from JSON whose v or u rows are padded to width 5
        is refused with both shapes named, not by a broadcasting error."""
        ch = random_projection_choi_channel(4, 3, 1, tol, ensure_eb=True)
        data = certify(ch, tol).to_json_dict()
        data[stack] = [row + [[0.0, 0.0]] * (5 - len(row)) for row in data[stack]]
        cert = EBCertificate.from_json_dict(data)
        with pytest.raises(VerificationFailure) as err:
            verify_certificate(cert, ch, tol)
        assert f"{stack} has shape (4, 5), expected {expected}" in str(err.value)

    def test_json_rejects_malformed_data(self, tol):
        data = certify(random_schur_complement_channel(3, 2, 12, tol), tol).to_json_dict()
        missing = [{k: val for k, val in data.items() if k != key} for key in ("r", "w", "u")]
        for bad in (*missing, [data], "certificate", None, {**data, "residuals": [1.0]}):
            with pytest.raises(ValueError, match="malformed certificate data"):
                EBCertificate.from_json_dict(bad)


class TestSchurNormalForm:
    def test_roundtrip_recovers_gram_moduli(self, tol):
        cols = unit_columns(5, 4, 13)
        ch = schur_complement_channel(cols, tol)
        cert = certify(ch, tol)
        form = schur_normal_form(cert, ch, tol)
        perm = recover_permutation(np.eye(4), cert.v)
        expected = np.abs(cols.conj().T @ cols)
        got = np.abs(form.correlation)
        for i in range(4):
            for j in range(4):
                assert got[i, j] == pytest.approx(expected[perm[i], perm[j]], abs=1e-7)

    def test_external_twirl_preserves_gram_moduli(self, tol):
        cols = unit_columns(4, 3, 14)
        ch = schur_complement_channel(cols, tol)
        twirled = external_twirl(ch, random_unitary(4, 15), tol)
        cert = certify(twirled, tol)
        form = schur_normal_form(cert, twirled, tol)
        perm = recover_permutation(np.eye(3), cert.v)
        expected = np.abs(cols.conj().T @ cols)
        got = np.abs(form.correlation)
        for i in range(3):
            for j in range(3):
                assert got[i, j] == pytest.approx(expected[perm[i], perm[j]], abs=1e-7)

    def test_internal_twirl_preserves_gram_moduli(self, tol):
        cols = unit_columns(4, 3, 16)
        v = random_unitary(3, 17)
        twirled = internal_twirl(schur_complement_channel(cols, tol), v, tol)
        cert = certify(twirled, tol)
        form = schur_normal_form(cert, twirled, tol)
        # the input rotation folds into the recovered basis
        perm = recover_permutation(v.conj().T, cert.v)
        expected = np.abs(cols.conj().T @ cols)
        got = np.abs(form.correlation)
        for i in range(3):
            for j in range(3):
                assert got[i, j] == pytest.approx(expected[perm[i], perm[j]], abs=1e-7)

    def test_basis_change_is_unitary_and_correlation_valid(self, tol):
        ch = random_schur_complement_channel(4, 6, 18, tol)
        cert = certify(ch, tol)
        form = schur_normal_form(cert, ch, tol)
        v = form.basis_change
        assert np.linalg.norm(v.conj().T @ v - np.eye(4)) <= tol.eps_verify
        np.testing.assert_allclose(np.diag(form.correlation), np.ones(4), atol=1e-10)
        evals = np.linalg.eigvalsh(form.correlation)
        assert evals[0] >= -tol.eps_verify

    def test_corrupted_certificate_raises_not_orthonormal(self, tol):
        ch = random_schur_complement_channel(3, 3, 19, tol)
        cert = certify(ch, tol)
        skewed = list(cert.v)
        skewed[0] = (skewed[0] + skewed[1]) / np.sqrt(2)
        bad = dataclasses.replace(cert, v=tuple(skewed))
        with pytest.raises(NotOrthonormal):
            schur_normal_form(bad, ch, tol)

    def test_corrupted_output_vector_fails_the_anchor(self, tol):
        ch = random_schur_complement_channel(3, 3, 19, tol)
        cert = certify(ch, tol)
        u = np.array(cert.u)
        u[0, 0] += 1e-6
        with pytest.raises(VerificationFailure, match="certificate invariants out of tolerance") as err:
            schur_normal_form(dataclasses.replace(cert, u=u), ch, tol)
        assert "'choi_match'" in str(err.value)

    def test_nan_input_vector_is_not_orthonormal(self, tol):
        ch = random_schur_complement_channel(3, 3, 19, tol)
        cert = certify(ch, tol)
        v = np.array(cert.v)
        v[1, 2] = np.nan
        with pytest.raises(NotOrthonormal):
            schur_normal_form(dataclasses.replace(cert, v=v), ch, tol)

    def test_reads_the_form_off_the_certificate(self, tol, monkeypatch):
        # the gate's one Choi decomposition, no complement applied to matrix
        # units, no dense Choi matrix and no SVD or QR
        schur = random_schur_complement_channel(5, 6, 3, tol)
        channels = [random_projection_choi_channel(6, 6, 1, tol, ensure_eb=True), schur,
                    redilate_fixture(schur, 8, 4, tol)]
        expected = []
        for ch in channels:
            cert = certify(ch, tol)
            expected.append((cert, schur_normal_form(cert, ch, tol)))

        def forbidden(*args, **kwargs):
            raise AssertionError("the normal form recomputes what the certificate holds")

        calls = []

        def counting_choi(*args, **kwargs):
            calls.append(1)
            return choi(*args, **kwargs)

        monkeypatch.setattr(CPMap, "apply", forbidden)
        monkeypatch.setattr(ChoiReport, "choi", property(forbidden))
        for name in ("svd", "qr"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        monkeypatch.setattr(importlib.import_module("ebcert.certify"), "choi", counting_choi)
        monkeypatch.setattr(importlib.import_module("ebcert.channel"), "choi", forbidden)
        for ch, (cert, form) in zip(channels, expected):
            calls.clear()
            got = schur_normal_form(cert, ch, tol)
            assert len(calls) == 1
            np.testing.assert_array_equal(got.basis_change, form.basis_change)
            np.testing.assert_array_equal(got.correlation, form.correlation)
            assert got.residual == verify_certificate(cert, ch, tol)["choi_match"]

    def test_memory_stays_at_the_size_of_the_kraus_stack(self, tol):
        # a complement applied to all n^2 matrix units held an n^4 m intermediate,
        # about 127 MB here; the stacks the form reads are about 0.2 MB each
        ch = random_projection_choi_channel(24, 24, 1, tol, ensure_eb=True)
        cert = certify(ch, tol)
        tracemalloc.start()
        try:
            schur_normal_form(cert, ch, tol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestEBRank:
    def test_certified_value(self, tol):
        report = eb_rank(random_schur_complement_channel(4, 5, 20, tol), tol)
        assert report.value == 4
        assert report.status == "certified"
        assert report.certificate is not None

    def test_depolarizing_is_cited(self, tol):
        report = eb_rank(depolarizing(3, tol), tol)
        assert report.value == 9
        assert report.status == "cited"
        assert report.certificate is None

    def test_transpose_plus_trace_is_cited(self, tol):
        report = eb_rank(werner_holevo(2, tol), tol)
        assert report.value == 4
        assert report.status == "cited"
        assert "unverified" in report.note

    def test_unrecognized_scaled_projection_refused(self, tol):
        with pytest.raises(OutOfScope):
            eb_rank(identity_channel(3, tol), tol)

    def test_refutation_propagates(self, tol):
        with pytest.raises(NotEntanglementBreaking):
            eb_rank(random_projection_choi_channel(2, 3, 4, tol), tol)

    @pytest.mark.parametrize("family, make", [("transpose-plus-trace", werner_holevo),
                                              ("completely depolarizing", depolarizing)])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_recognition_agrees_with_the_dense_rule_on_perturbed_families(self, tol, family,
                                                                          make, n):
        # sound: whatever is cited lies within eps_verify n of its family; and an
        # input within half that is cited, the bound being at most about
        # (1 + sqrt 2) times the dense distance
        exact = make(n, tol)
        bound = tol.eps_verify * n
        outcomes = set()
        for eps in (0, 1e-11, 1e-10, 1e-9, 3e-9, 1e-8):
            for seed in range(8):
                ch = perturbed(exact, eps, seed, tol)
                distances = dense_family_distances(ch.kraus, n)
                try:
                    cited = eb_rank(ch, tol).note.split(" channel:")[0]
                except OutOfScope:
                    cited = None
                if cited is not None:
                    assert distances[cited] <= bound, (eps, seed, cited, distances)
                if distances[family] <= bound / 2:
                    assert cited == family, (eps, seed, distances)
                outcomes.add(cited)
        assert outcomes == {family, None}

    @pytest.mark.parametrize("seed", range(3))
    def test_a_one_sided_twirl_of_werner_holevo_is_refused(self, tol, seed):
        # X -> U F(X) U* keeps the Choi spectrum, but moves the range off the
        # symmetric subspace; X -> U^T F(U X U*) conj(U) leaves the channel as it is
        wh = werner_holevo(4, tol)
        u = random_unitary(4, 300 + seed)
        with pytest.raises(OutOfScope) as refusal:
            eb_rank(external_twirl(wh, u, tol), tol)
        assert refusal.value.classification == "scaled_projection"
        assert refusal.value.alpha == pytest.approx(2 / 5, abs=1e-12)
        covariant = eb_rank(external_twirl(internal_twirl(wh, u, tol), u.T, tol), tol)
        assert (covariant.value, covariant.status) == (16, "cited")

    def test_recognition_memory_stays_at_the_spectrum_route(self, tol):
        # nm = 576, k = 300: one nm x nm complex matrix alone is 5.3 MB
        from ebcert import classify_complement_adjoint

        wh = werner_holevo(24, tol)
        peaks = []
        for call in (classify_complement_adjoint, eb_rank):
            tracemalloc.start()
            try:
                call(wh, tol)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**19, peaks

    @pytest.mark.parametrize("make, verdict, kind, alpha", [
        (lambda tol: werner_holevo(5, tol), (25, "cited", "scaled_projection"),
         "trace_stabilizing", 1 / 3),
        (lambda tol: depolarizing(3, tol), (9, "cited", "scaled_projection"),
         "trace_stabilizing", 1 / 3),
        (lambda tol: identity_channel(3, tol), ("out of scope", "scaled_projection", 3.0),
         "trace_stabilizing", 3.0),
        (lambda tol: random_channel(3, 3, 2, 51, tol), ("out of scope", "other", None),
         "neither", None),
    ], ids=["werner-holevo", "depolarizing", "identity", "random-channel"])
    def test_spectrum_only_paths_take_no_eigenvectors(self, tol, monkeypatch,
                                                      make, verdict, kind, alpha):
        from ebcert import classify_complement_adjoint

        ch = make(tol)

        def forbidden(*args, **kwargs):
            raise AssertionError("eigenvectors were computed")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(ChoiReport, "choi", property(forbidden))
        try:
            report = eb_rank(ch, tol)
            assert (report.value, report.status, report.classification) == verdict
        except OutOfScope as refusal:
            assert ("out of scope", refusal.classification, refusal.alpha) == verdict
        adjoint = classify_complement_adjoint(ch, tol)
        assert adjoint.kind.value == kind
        assert adjoint.alpha == (None if alpha is None else pytest.approx(alpha, abs=1e-12))


class TestPartialTranspose:
    def test_hand_example(self):
        j = np.arange(16, dtype=complex).reshape(4, 4)
        expected = np.array([
            [0, 1, 8, 9],
            [4, 5, 12, 13],
            [2, 3, 10, 11],
            [6, 7, 14, 15],
        ], dtype=complex)
        np.testing.assert_array_equal(partial_transpose(j, 2, 2), expected)

    def test_involution(self):
        rng = np.random.default_rng(21)
        j = random_complex_matrix(12, 12, rng)
        np.testing.assert_array_equal(
            partial_transpose(partial_transpose(j, 3, 4), 3, 4), j
        )

    def test_maximally_entangled_state_fails_ppt(self, tol):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        assert not is_ppt(rho, 2, 2, tol)

    def test_product_state_passes_ppt(self, tol):
        rng = np.random.default_rng(22)
        a = random_complex_matrix(2, 2, rng)
        b = random_complex_matrix(3, 3, rng)
        rho = np.kron(a @ a.conj().T, b @ b.conj().T)
        assert is_ppt(rho / np.trace(rho), 2, 3, tol)


class TestNPTWitness:
    @pytest.mark.parametrize("n, m", [(1, 2), (2, 2), (2, 3), (3, 5), (5, 3), (6, 6), (9, 4),
                                      (9, 9)])
    def test_agrees_with_the_dense_oracle_on_zoo_draws(self, tol, n, m):
        for seed in range(40):
            for ensure_eb in (False, True):
                ch = random_projection_choi_channel(n, m, seed, tol, ensure_eb=ensure_eb)
                witness = npt_witness(minimal_kraus(ch, tol).kraus, tol)
                j = direct_choi(ch.kraus, n, m)
                assert (witness is not None) == (not is_ppt(j, n, m, tol)), (seed, ensure_eb)
                if witness is None:
                    continue
                x = witness.vector
                assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
                dense = np.vdot(x, partial_transpose(j, n, m) @ x).real
                assert abs(witness.quotient - dense) <= 1e-12
                assert witness.quotient < -witness.bound
                assert witness.bound == pytest.approx(tol.eps_verify * n)

    def test_maximally_entangled_state_has_a_witness(self, tol):
        # J = |phi><phi| for the one operator I / sqrt(2), vec(I) / sqrt(2) = phi
        witness = npt_witness(np.eye(2)[None] / np.sqrt(2), tol)
        assert witness is not None
        # the partial transpose of |phi><phi| is half the swap, lowest eigenvalue -1/2
        assert witness.quotient == pytest.approx(-0.5, abs=1e-12)

    def test_product_state_has_none(self, tol):
        rng = np.random.default_rng(22)
        a = random_complex_matrix(2, 1, rng)
        b = random_complex_matrix(3, 1, rng)
        factor = np.kron(a, b)
        assert is_ppt(factor @ factor.conj().T, 2, 3, tol)
        # the one 3 x 2 operator whose vec is the product vector
        assert npt_witness(unvec(factor.T, 3, 2) / np.linalg.norm(factor), tol) is None

    def test_is_seeded(self, tol):
        kraus = random_projection_choi_channel(3, 3, 2, tol).kraus
        first, again = npt_witness(kraus, tol), npt_witness(kraus, tol)
        np.testing.assert_array_equal(first.vector, again.vector)
        assert first.quotient == again.quotient

    def test_rejects_a_stack_that_is_not_3d_or_not_finite(self, tol):
        with pytest.raises(ValueError, match="shape"):
            npt_witness(np.ones((6, 2)), tol)
        kraus = random_projection_choi_channel(2, 3, 0, tol).kraus.copy()
        kraus[0, 2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            npt_witness(kraus, tol)

    def test_a_solver_failure_is_a_convergence_failure(self, tol, monkeypatch):
        # the Ritz pair comes from eigh_descending, so a failing solver ends
        # in the package's error (CLI exit 3), not numpy's LinAlgError
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        kraus = random_projection_choi_channel(3, 3, 2, tol).kraus
        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            npt_witness(kraus, tol)
