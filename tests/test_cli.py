import argparse
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from ebcert import (
    EBCertificate,
    VerificationFailure,
    algebra,
    channel,
    channel_to_json_dict,
    cli,
    load_channel,
    save_channel,
    verify_certificate,
)
from ebcert.cli import main
from ebcert.numerics import write_json
from ebcert.zoo import redilate_fixture

from oracles import perturbed_planted, verify_domain_per_element


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_projection_choi(path, n, seed, capsys, planted=True):
    """A random-projection-choi channel file, planted entanglement breaking
    or generic."""
    argv = ["gen", "random-projection-choi", "--n", n, "--m", n, "--seed", seed, "--out", path]
    code, _, _ = run(argv + (["--ensure-eb"] if planted else []), capsys)
    assert code == 0
    return path


def perturbed_files(tmp_path, n, eps, tol):
    """The perturbed-sweep channel files of seeds 0-31 (see
    :func:`oracles.perturbed_planted`)."""
    paths = [tmp_path / f"p{seed}.json" for seed in range(32)]
    for seed, path in enumerate(paths):
        save_channel(perturbed_planted(n, eps, seed, tol), path)
    return paths


def write_indented(fh, obj):
    """The 0.6.0 layout of every JSON document: indent=2, then a newline."""
    json.dump(obj, fh, indent=2)
    fh.write("\n")


class TestGen:
    def test_transpose_plus_trace_file(self, tmp_path, capsys):
        out = tmp_path / "wh.json"
        code, stdout, _ = run(["gen", "werner-holevo", "--d", "3", "--out", out], capsys)
        assert code == 0
        assert "6 Kraus operators" in stdout
        ch = load_channel(out)
        assert ch.input_dim == ch.output_dim == 3
        assert len(ch) == 6

    def test_depolarizing_has_n_squared_operators(self, tmp_path, capsys):
        out = tmp_path / "dep.json"
        code, stdout, _ = run(["gen", "depolarizing", "--n", "2", "--out", out], capsys)
        assert code == 0
        assert len(load_channel(out)) == 4

    def test_seeded_generation_is_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            code, _, _ = run(
                ["gen", "schur-complement", "--n", "4", "--m", "3", "--seed", "7",
                 "--out", out], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_families_generate(self, tmp_path, capsys):
        cases = [
            (["gen", "schur", "--n", "3", "--k", "2"], "schur"),
            (["gen", "schur-complement", "--n", "3", "--m", "2"], "sc"),
            (["gen", "werner-holevo", "--d", "2"], "wh"),
            (["gen", "depolarizing", "--n", "3"], "dep"),
            (["gen", "random", "--n", "2", "--m", "3", "--d", "2"], "rand"),
            (["gen", "random-projection-choi", "--n", "2", "--m", "3"], "rpc"),
        ]
        for argv, name in cases:
            out = tmp_path / f"{name}.json"
            code, _, _ = run(argv + ["--out", out, "--seed", "3"], capsys)
            assert code == 0, name
            load_channel(out)

    def test_missing_parameter_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(["gen", "werner-holevo"], capsys)
        assert code == 2
        assert "needs" in stderr


class TestAnalyze:
    @pytest.fixture
    def wh_file(self, tmp_path, capsys):
        out = tmp_path / "wh2.json"
        run(["gen", "werner-holevo", "--d", "2", "--out", out], capsys)
        return out

    @pytest.fixture
    def sc_file(self, tmp_path, capsys):
        out = tmp_path / "sc.json"
        run(["gen", "schur-complement", "--n", "3", "--m", "4", "--seed", "5",
             "--out", out], capsys)
        return out

    def test_json_report_fields(self, wh_file, capsys):
        code, stdout, _ = run(["analyze", wh_file, "--format", "json"], capsys)
        assert code == 0
        report = json.loads(stdout)
        assert report["channel"]["n"] == 2
        assert report["choi"]["classification"] == "scaled_projection"
        assert report["choi"]["alpha"]["value"] == pytest.approx(2 / 3, abs=1e-9)
        assert report["choi"]["rank"] == 3
        assert report["complement_adjoint"]["kind"] == "trace_stabilizing"
        # every judged number carries its tolerance
        assert "tolerance" in report["channel"]["tp_residual"]

    def test_projection_class_includes_algebra(self, sc_file, capsys):
        code, stdout, _ = run(["analyze", sc_file, "--format", "json"], capsys)
        assert code == 0
        report = json.loads(stdout)
        assert report["choi"]["classification"] == "projection"
        assert report["algebra"]["multiplicity_free"] is True
        assert report["algebra"]["dimension"] == 3
        # the margin of the decision, against sqrt(eps_eig)
        commutator = report["algebra"]["commutator"]
        assert commutator["tolerance"] == pytest.approx(1e-4)
        assert commutator["value"] <= commutator["tolerance"]
        # algebra dump carries the basis matrices alongside the block list
        assert len(report["algebra"]["basis"]) == 3
        assert len(report["algebra"]["basis"][0]) == 3  # rows of a 3x3 matrix

    def test_text_report(self, sc_file, capsys):
        code, stdout, _ = run(["analyze", sc_file], capsys)
        assert code == 0
        assert "projection" in stdout
        assert "tol" in stdout
        assert "multiplicity-free: True; commutator" in stdout

    def test_trace_tolerance_is_the_applied_bound(self, sc_file, capsys):
        # |tr J - n| is judged at eps_verify max(1, n), here n = 3
        code, stdout, _ = run(["analyze", sc_file, "--format", "json", "--tol-verify", "1e-9"],
                              capsys)
        assert code == 0
        assert json.loads(stdout)["choi"]["trace"]["tolerance"] == pytest.approx(3e-9)
        code, stdout, _ = run(["analyze", sc_file, "--tol-verify", "1e-9"], capsys)
        assert code == 0
        assert re.search(r"choi: .*; trace 3 \(tol 3\.0e-09\)", stdout)

    def test_text_spectrum_lists_the_rank_many_levels(self, tmp_path, capsys):
        # Kraus operators sqrt(1 - delta) I and sqrt(delta) X: the level
        # delta = 1e-11 lies below the rank cutoff, so the report prints rank
        # 1 and one level
        delta = 1e-11
        path = tmp_path / "flip.json"
        save_channel(channel.KrausChannel([np.sqrt(1 - delta) * np.eye(2),
                                           np.sqrt(delta) * np.array([[0, 1], [1, 0]])]), path)
        code, stdout, _ = run(["analyze", path], capsys)
        assert code == 0
        assert "choi: rank 1," in stdout
        assert re.search(r"normalized state spectrum \(nonzero\): (.*)$", stdout,
                         re.MULTILINE).group(1) == "1"

    def test_multiple_files_keep_input_order(self, wh_file, sc_file, capsys):
        code, stdout, _ = run(
            ["analyze", wh_file, sc_file, "--format", "json"], capsys)
        assert code == 0
        decoder = json.JSONDecoder()
        text = stdout.strip()
        reports = []
        while text:
            obj, idx = decoder.raw_decode(text)
            reports.append(obj)
            text = text[idx:].strip()
        assert [r["file"] for r in reports] == [str(wh_file), str(sc_file)]

    def test_one_choi_spectrum_per_file(self, wh_file, sc_file, tmp_path, capsys, monkeypatch):
        # the Schur complement presented with 5 Kraus operators, so its 5 x 5
        # Gram spectrum stands apart from the 3 x 3 domain work
        padded = tmp_path / "sc5.json"
        save_channel(redilate_fixture(load_channel(sc_file), 5, 0), padded)
        sizes = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            # the trailing size, so a stack of d x d matrices counts as d
            sizes.append(np.shape(a)[-1])
            return eigh(a, *args, **kwargs)

        def eigh_calls(path, *dims):
            sizes.clear()
            code, _, _ = run(["analyze", path, "--format", "json"], capsys)
            assert code == 0
            return tuple(sizes.count(dim) for dim in dims)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        # Choi matrices are nm x nm, 4 x 4 for Werner-Holevo and 12 x 12 for
        # the Schur complement, and none is decomposed; the spectra come from
        # the k x k Gram matrices, 3 x 3 and 5 x 5, and the classification
        # reuses them
        assert eigh_calls(wh_file, 4, 3) == (0, 1)
        assert eigh_calls(padded, 12, 5) == (0, 1)

    def test_domain_verification_applies(self, tmp_path, capsys, monkeypatch):
        # r = 6: the gate calls no CPMap.apply; it makes one pass over the row
        # blocks of psi's transfer matrix, and measures a residual for each of
        # the three probes against each basis element, on either side; no
        # product of two basis elements is evaluated
        path = gen_projection_choi(tmp_path / "p.json", 6, 1, capsys)
        apply, verify = channel.CPMap.apply, algebra._verify_domain
        transfer, norms = algebra._transfer_apply, algebra.frob_each
        calls, passes, normed, inside = [], [], [], []

        def counting_apply(self, x):
            calls.extend(inside)
            return apply(self, x)

        def counting_transfer(kraus, stack):
            passes.extend(inside)
            return transfer(kraus, stack)

        def recording_norms(mats):
            if inside:
                normed.append(np.shape(mats)[:-2])
            return norms(mats)

        def tracked_verify(*args):
            inside.append(1)
            try:
                return verify(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(channel.CPMap, "apply", counting_apply)
        monkeypatch.setattr(algebra, "_transfer_apply", counting_transfer)
        monkeypatch.setattr(algebra, "frob_each", recording_norms)
        monkeypatch.setattr(algebra, "_verify_domain", tracked_verify)
        code, stdout, _ = run(["analyze", path, "--format", "json"], capsys)
        assert code == 0
        assert json.loads(stdout)["algebra"]["dimension"] == 6
        assert len(calls) == 0
        assert len(passes) == 1
        assert normed.count((3, 6)) == 2

    def test_no_complement_or_dual_map_is_built(self, tmp_path, capsys, monkeypatch):
        """analyze forms the complement adjoint from choi's minimal Kraus
        stack: no complement or rank test runs, and the documents are
        those of an unpatched run."""
        paths = [gen_projection_choi(tmp_path / f"{kind}.json", 6, 2, capsys, planted)
                 for kind, planted in (("planted", True), ("generic", False))]

        def documents():
            docs = []
            for path in paths:
                code, stdout, _ = run(["analyze", path, "--format", "json"], capsys)
                assert code == 0
                docs.append(json.loads(stdout))
                docs[-1].pop("timings")
            return docs

        unpatched = documents()

        def built(*args, **kwargs):
            raise AssertionError("analyze built a complement or a dual map, or tested minimality")

        for module in (channel, algebra, cli):
            for name in ("complement_adjoint", "complement_from_kraus", "is_minimal"):
                monkeypatch.setattr(module, name, built, raising=False)
        assert documents() == unpatched

    @pytest.mark.parametrize("n, eps", [(6, 3e-10), (3, 1e-9)])
    def test_perturbed_documents_match_the_reference_gate(self, tmp_path, capsys, monkeypatch,
                                                           tol, n, eps):
        """On planted channels plus eps times a whole-stack complex Gaussian
        draw, re-normalized to trace preservation, analyze gives the same exit
        code and document as with the reference domain verification, which
        also applies every product of two basis elements."""
        paths = perturbed_files(tmp_path, n, eps, tol)

        def outcomes():
            out = []
            for path in paths:
                code, stdout, _ = run(["analyze", path, "--format", "json"], capsys)
                doc = json.loads(stdout)
                doc.pop("timings", None)
                out.append((code, doc))
            return out

        shipped = outcomes()
        monkeypatch.setattr(algebra, "_verify_domain", verify_domain_per_element)
        assert outcomes() == shipped

    @pytest.mark.parametrize("n, eps", [(3, 3e-10), (6, 3e-10)])
    def test_analyze_agrees_with_certify_on_perturbed_files(self, tmp_path, capsys, tol, n, eps):
        """The two commands take multiplicity freedom from one decision:
        where both end in a verdict, the verdicts agree, so no certified
        file reads as having a repeated factor (analyze ends in a verdict
        exactly when it reports a domain)."""
        certified = 0
        for path in perturbed_files(tmp_path, n, eps, tol):
            code, stdout, _ = run(["analyze", path, "--format", "json"], capsys)
            verdict, _, _ = run(["certify", path, "--format", "json",
                                 "--out", tmp_path / "c.json"], capsys)
            certified += verdict == 0
            if code == 0 and verdict in (0, 4):
                assert json.loads(stdout)["algebra"]["multiplicity_free"] is (verdict == 0), path
        assert certified >= 26

    def test_complement_adjoint_is_judged_by_the_choi_rule(self, tmp_path, capsys, tol):
        """Perturbed projection inputs whose Choi eigenvalues each lie within
        eps_eig of 1 are reported trace preserving, with the largest
        deviation against eps_eig; their analysis no longer ends in an
        inconsistent classification (the exit code is the domain's)."""
        for path in perturbed_files(tmp_path, 9, 1e-9, tol)[2:8]:
            _, stdout, _ = run(["analyze", path, "--format", "json"], capsys)
            doc = json.loads(stdout)
            assert doc["choi"]["classification"] == "projection"
            adjoint = doc["complement_adjoint"]
            assert adjoint["kind"] == "trace_preserving"
            assert adjoint["residual"]["tolerance"] == tol.eps_eig
            assert adjoint["residual"]["value"] <= tol.eps_eig
            assert "complement adjoint" not in doc.get("error", "")

    def test_commutator_matches_the_refusal(self, tmp_path, capsys, tol):
        path = gen_projection_choi(tmp_path / "g.json", 6, 3, capsys, planted=False)
        code, stdout, _ = run(["analyze", path, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(stdout)["algebra"]
        assert doc["multiplicity_free"] is False
        code, stdout, _ = run(["certify", path, "--format", "json"], capsys)
        assert code == 4
        refusal = json.loads(stdout)["refusal"]
        assert doc["commutator"] == {"value": refusal["commutator"], "tolerance": refusal["bound"]}
        assert doc["blocks"] == refusal["structure"]
        assert refusal["bound"] == np.sqrt(tol.eps_eig)
        assert doc["commutator"]["value"] > doc["commutator"]["tolerance"]
        code, stdout, _ = run(["analyze", path], capsys)
        assert f"commutator {refusal['commutator']:.3e} (tol {refusal['bound']:.1e})" in stdout

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nonsense")
        code, stdout, _ = run(["analyze", bad], capsys)
        assert code == 2
        assert "error" in stdout
        # certify reports per file on stdout; normal-form has one file and uses stderr
        code, stdout, _ = run(["certify", bad], capsys)
        assert code == 2
        assert "error" in stdout
        code, _, stderr = run(["normal-form", bad], capsys)
        assert code == 2
        assert "error" in stderr

    @pytest.mark.parametrize("command", ["analyze", "certify", "normal-form"])
    @pytest.mark.parametrize("dims", [(True, True), (2.9, 1.2)], ids=["bools", "fractions"])
    def test_non_integer_dimensions_are_input_errors(self, tmp_path, capsys, command, dims):
        # {"n": true, "m": true} would otherwise load as a 1 x 1 channel
        bad = tmp_path / "dims.json"
        bad.write_text(json.dumps({"n": dims[0], "m": dims[1], "kraus": [[[1, 0]]]}))
        code, stdout, stderr = run([command, bad], capsys)
        assert code == 2
        assert "must be an integer" in (stderr if command == "normal-form" else stdout)

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code, _, _ = run(["analyze", tmp_path / "nope.json"], capsys)
        assert code == 2

    def test_wrong_matrix_length_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps({"n": 2, "m": 2, "kraus": [[[1.0, 0.0]]]}))
        code, stdout, _ = run(["analyze", bad], capsys)
        assert code == 2
        assert "expected 4" in stdout

    @pytest.mark.parametrize("command", ["analyze", "certify", "normal-form"])
    @pytest.mark.parametrize("kraus", [[[1, 0]], [[["x", 0]]]], ids=["numbers", "strings"])
    def test_malformed_pairs_are_input_errors(self, tmp_path, capsys, command, kraus):
        # numbers in place of [re, im] pairs, and a pair that is not numbers
        bad = tmp_path / "pairs.json"
        bad.write_text(json.dumps({"n": 2, "m": 2, "kraus": kraus}))
        code, _, _ = run([command, bad], capsys)
        assert code == 2


class TestCertify:
    def test_certifies_rank_one_channel(self, tmp_path, capsys):
        ch_file = tmp_path / "sc.json"
        run(["gen", "schur-complement", "--n", "3", "--m", "3", "--seed", "11",
             "--out", ch_file], capsys)
        code, stdout, _ = run(["certify", ch_file, "--format", "json"], capsys)
        assert code == 0
        report = json.loads(stdout)
        assert report["certificate"]["eb_rank"] == 3
        cert_file = tmp_path / "sc.cert.json"
        assert cert_file.exists()
        stored = json.loads(cert_file.read_text())
        assert stored["r"] == 3

    def test_out_of_scope_exit_code(self, tmp_path, capsys):
        ch_file = tmp_path / "wh.json"
        run(["gen", "werner-holevo", "--d", "3", "--out", ch_file], capsys)
        code, stdout, _ = run(["certify", ch_file, "--format", "json"], capsys)
        assert code == 5
        report = json.loads(stdout)
        assert report["refusal"]["reason"] == "out_of_scope"

    def test_refuted_exit_code_with_structure_witness(self, tmp_path, capsys):
        ch_file = tmp_path / "rpc.json"
        run(["gen", "random-projection-choi", "--n", "2", "--m", "3", "--seed", "1",
             "--out", ch_file], capsys)
        code, stdout, _ = run(["certify", ch_file, "--format", "json"], capsys)
        assert code == 4
        report = json.loads(stdout)
        assert report["refusal"]["reason"] == "not_entanglement_breaking"
        assert report["refusal"]["structure"] == [[2, 1]]
        assert report["refusal"]["ppt_violated"] is True
        # the partial-transpose witness states its margin
        assert report["refusal"]["witness_quotient"] < -report["refusal"]["witness_bound"] < 0

    def test_corrupted_input_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2')
        code, _, _ = run(["certify", bad], capsys)
        assert code == 2

    def test_custom_certificate_path(self, tmp_path, capsys):
        ch_file = tmp_path / "sc.json"
        cert_file = tmp_path / "proof.json"
        run(["gen", "schur-complement", "--n", "2", "--m", "2", "--seed", "3",
             "--out", ch_file], capsys)
        code, _, _ = run(["certify", ch_file, "--out", cert_file], capsys)
        assert code == 0
        assert cert_file.exists()

    def test_text_names_the_worst_residual_against_its_own_bound(self, tmp_path, capsys, tol):
        # this input certifies with choi_match 1.46e-8, above eps_verify but within
        # its bound eps_verify n; factorization, 9.4e-9 against eps_verify, is
        # the residual nearest its bound
        path = tmp_path / "p.json"
        save_channel(perturbed_planted(3, 1e-9, 6, tol), path)
        code, stdout, _ = run(["certify", path], capsys)
        assert code == 0
        line = next(s for s in stdout.splitlines() if "certificate residuals" in s)
        name, value, bound = re.search(r"worst (\w+) (\S+) \(tol (\S+)\)", line).groups()
        assert (name, float(bound)) == ("factorization", tol.eps_verify)
        assert float(value) <= float(bound)
        code, stdout, _ = run(["certify", path, "--format", "json"], capsys)
        residuals = json.loads(stdout)["certificate"]["residuals"]
        assert tol.eps_verify < residuals["choi_match"] <= 3 * tol.eps_verify

    def test_mixed_batch_returns_first_failure_in_order(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        scaled = tmp_path / "scaled.json"
        run(["gen", "schur-complement", "--n", "2", "--m", "3", "--seed", "9",
             "--out", good], capsys)
        run(["gen", "werner-holevo", "--d", "2", "--out", scaled], capsys)
        code, stdout, _ = run(["certify", good, scaled], capsys)
        assert code == 5
        assert stdout.index(str(good)) < stdout.index(str(scaled))


class TestNormalForm:
    def test_dump_contains_unitary_and_correlation(self, tmp_path, capsys):
        ch_file = tmp_path / "sc.json"
        run(["gen", "schur-complement", "--n", "3", "--m", "5", "--seed", "21",
             "--out", ch_file], capsys)
        code, stdout, _ = run(["normal-form", ch_file, "--format", "json"], capsys)
        assert code == 0
        dump = json.loads(stdout)
        v = np.array([[complex(re, im) for re, im in row] for row in dump["basis_change"]])
        c = np.array([[complex(re, im) for re, im in row] for row in dump["correlation"]])
        assert np.linalg.norm(v.conj().T @ v - np.eye(3)) < 1e-8
        np.testing.assert_allclose(np.diag(c).real, 1.0, atol=1e-8)
        # the residual is the Choi anchor, judged at the bound of choi_match
        assert dump["residual"]["value"] <= dump["residual"]["tolerance"]
        assert dump["residual"]["tolerance"] == pytest.approx(3e-8)

    def test_refuses_out_of_scope(self, tmp_path, capsys):
        ch_file = tmp_path / "dep.json"
        run(["gen", "depolarizing", "--n", "2", "--out", ch_file], capsys)
        code, _, stderr = run(["normal-form", ch_file], capsys)
        assert code == 5
        assert "out_of_scope" in stderr


class TestSeedHandling:
    def test_env_seed_used_as_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EBCERT_SEED", "123")
        a = tmp_path / "a.json"
        run(["gen", "random", "--n", "2", "--m", "2", "--d", "2", "--out", a], capsys)
        monkeypatch.delenv("EBCERT_SEED")
        b = tmp_path / "b.json"
        run(["gen", "random", "--n", "2", "--m", "2", "--d", "2", "--seed", "123",
             "--out", b], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_tolerance_flags_accepted(self, tmp_path, capsys):
        ch_file = tmp_path / "sc.json"
        run(["gen", "schur-complement", "--n", "2", "--m", "2", "--seed", "2",
             "--out", ch_file], capsys)
        code, _, _ = run(
            ["analyze", ch_file, "--tol-rank", "1e-9", "--tol-eig", "1e-7",
             "--tol-verify", "1e-7"], capsys)
        assert code == 0


class TestBadOptions:
    @pytest.mark.parametrize("command", ["gen", "analyze", "certify", "normal-form"])
    @pytest.mark.parametrize("options, env, named", [
        (["--tol-eig", "-1"], None, "eps_eig"),
        (["--tol-eig", "nan"], None, "eps_eig"),
        (["--tol-verify", "0"], None, "eps_verify"),
        (["--tol-verify", "inf"], None, "eps_verify"),
        (["--seed", "-3"], None, "seed"),
        ([], "abc", "EBCERT_SEED"),
    ], ids=["negative-tol", "nan-tol", "zero-tol", "inf-tol", "negative-seed", "env-seed"])
    def test_bad_option_is_input_error(self, tmp_path, capsys, monkeypatch, command,
                                       options, env, named):
        ch_file = tmp_path / "sc.json"
        run(["gen", "schur-complement", "--n", "2", "--m", "2", "--out", ch_file], capsys)
        if env is not None:
            monkeypatch.setenv("EBCERT_SEED", env)
        out = tmp_path / "out.json"
        target = (["depolarizing", "--n", "2", "--out", out] if command == "gen"
                  else [ch_file])
        code, stdout, stderr = run([command, *target, *options], capsys)
        assert code == 2
        assert stderr.startswith("error: ") and named in stderr
        assert stdout == ""
        assert not out.exists()


def test_main_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = gen_projection_choi(tmp_path / "p.json", 3, 1, capsys)
    code, _, _ = run(["analyze", path], capsys)
    assert code == 0
    assert built.count("ebcert") == 1
    assert cli.build_parser() is not cli._parser()


class TestOutputErrors:
    """An output path that cannot be written is an input error, exit 2,
    with an `error: output:` message and no traceback."""

    def test_gen(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code, stdout, stderr = run(["gen", "depolarizing", "--n", "2", "--out", out], capsys)
        assert code == 2
        assert stderr.startswith("error: output: ")
        assert stdout == ""

    def test_certify_reports_per_file_and_runs_the_rest(self, tmp_path, capsys):
        first = gen_projection_choi(tmp_path / "first.json", 4, 1, capsys)
        second = gen_projection_choi(tmp_path / "second.json", 4, 2, capsys)
        (tmp_path / "first.cert.json").mkdir()  # the default certificate path is taken
        code, stdout, _ = run(["certify", first, second, "--format", "json"], capsys)
        assert code == 2
        failed, certified = map(json.loads, stdout.splitlines())
        assert failed["file"] == str(first) and failed["error"].startswith("output: ")
        assert certified["file"] == str(second) and "certificate" in certified
        assert (tmp_path / "second.cert.json").is_file()
        code, _, stderr = run(["certify", second, "--out", tmp_path / "missing" / "c.json"],
                              capsys)
        assert code == 2
        assert stderr == ""

    def test_normal_form(self, tmp_path, capsys):
        path = gen_projection_choi(tmp_path / "p.json", 4, 1, capsys)
        code, stdout, stderr = run(["normal-form", path, "--format", "json",
                                    "--out", tmp_path / "missing" / "nf.json"], capsys)
        assert code == 2
        assert stderr.startswith("error: output: ")
        assert stdout == ""


class TestOverwrites:
    """Output paths that would overwrite an input, or each other, are an
    input error found before any file is processed."""

    def test_certify_refuses_two_inputs_with_one_certificate_path(self, tmp_path, capsys):
        # a.json and a.txt both default to a.cert.json
        first = gen_projection_choi(tmp_path / "a.json", 3, 1, capsys)
        second = gen_projection_choi(tmp_path / "a.txt", 4, 2, capsys)
        code, stdout, stderr = run(["certify", first, second], capsys)
        assert code == 2
        assert stderr.startswith("error: ") and str(first) in stderr and str(second) in stderr
        assert stdout == ""
        assert not (tmp_path / "a.cert.json").exists()
        # one input named twice writes its one certificate
        code, _, _ = run(["certify", first, tmp_path / "." / "a.json"], capsys)
        assert code == 0

    def test_certify_refuses_a_certificate_path_that_is_an_input(self, tmp_path, capsys):
        path = gen_projection_choi(tmp_path / "a.json", 3, 1, capsys)
        other = gen_projection_choi(tmp_path / "a.cert.json", 3, 2, capsys)
        contents = path.read_text(), other.read_text()
        # --out names the input itself; a.json's default path is the input a.cert.json
        for argv, named in ((["certify", path, "--out", path], path),
                            (["certify", path, other], other)):
            code, stdout, stderr = run(argv, capsys)
            assert code == 2
            assert stderr.startswith("error: ") and str(path) in stderr and str(named) in stderr
            assert stdout == ""
        assert (path.read_text(), other.read_text()) == contents

    def test_normal_form_refuses_an_out_path_that_is_its_input(self, tmp_path, capsys):
        path = gen_projection_choi(tmp_path / "p.json", 3, 1, capsys)
        contents = path.read_text()
        code, stdout, stderr = run(["normal-form", path, "--out", tmp_path / "." / "p.json"],
                                   capsys)
        assert code == 2
        assert stderr.startswith("error: ") and str(path) in stderr
        assert stdout == ""
        assert path.read_text() == contents


REPORT = ["file"]
ANALYSIS = REPORT + ["channel", "choi", "complement_adjoint"]


class TestOutcomes:
    """Each outcome of the per-file commands, pinned: exit code, the stream
    it goes to and, in JSON, the report's top-level keys in order (for
    normal-form's stderr lines, the line's prefix)."""

    @pytest.fixture
    def inputs(self, tmp_path, capsys):
        files = {
            "planted": gen_projection_choi(tmp_path / "planted.json", 4, 1, capsys),
            "generic": gen_projection_choi(tmp_path / "generic.json", 4, 2, capsys, planted=False),
            "scaled": tmp_path / "wh.json",
            "malformed": tmp_path / "bad.json",
        }
        run(["gen", "werner-holevo", "--d", "3", "--out", files["scaled"]], capsys)
        files["malformed"].write_text("{nonsense")
        return files

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("command, outcome, code, expected", [
        ("analyze", "planted", 0, ANALYSIS + ["algebra", "timings"]),
        ("analyze", "generic", 0, ANALYSIS + ["algebra", "timings"]),
        ("analyze", "scaled", 0, ANALYSIS + ["timings"]),
        ("analyze", "malformed", 2, REPORT + ["error"]),
        ("analyze", "numerical", 3, ANALYSIS + ["error"]),
        ("certify", "planted", 0, REPORT + ["certificate", "certificate_file", "timings"]),
        ("certify", "malformed", 2, REPORT + ["error"]),
        ("certify", "unwritable", 2, REPORT + ["error"]),
        ("certify", "numerical", 3, REPORT + ["error"]),
        ("certify", "generic", 4, REPORT + ["refusal", "timings"]),
        ("certify", "scaled", 5, REPORT + ["refusal", "timings"]),
        ("normal-form", "planted", 0, REPORT + ["basis_change", "correlation", "residual"]),
        ("normal-form", "malformed", 2, "error: input: "),
        ("normal-form", "unwritable", 2, "error: output: "),
        ("normal-form", "numerical", 3, "error: numerical: "),
        ("normal-form", "generic", 4, "refused (not_entanglement_breaking): "),
        ("normal-form", "scaled", 5, "refused (out_of_scope): "),
    ])
    def test_exit_code_stream_and_keys(self, inputs, tmp_path, capsys, monkeypatch, fmt,
                                       command, outcome, code, expected):
        argv = [command, inputs.get(outcome, inputs["planted"]), "--format", fmt]
        if outcome == "unwritable":
            argv += ["--out", tmp_path / "missing" / "out.json"]
        if outcome == "numerical":
            def broken(*args, **kwargs):
                raise VerificationFailure("forced")

            monkeypatch.setattr(cli, "certify", broken)
            monkeypatch.setattr(cli, "_domain_blocks", broken)
        got, stdout, stderr = run(argv, capsys)
        assert got == code
        if isinstance(expected, str):  # normal-form's one line on stderr
            assert stdout == "" and stderr.startswith(expected) and stderr.count("\n") == 1
            return
        assert stderr == "" and stdout
        if fmt == "json":
            assert list(json.loads(stdout)) == expected
            assert stdout.count("\n") == 1


class TestJsonLayout:
    """Every JSON document is one compact line from the C encoder; readers
    take the 0.6.0 indented layout too, and the values are the 0.6.0 ones."""

    def test_no_document_reaches_the_python_encoder(self, tmp_path, capsys, monkeypatch):
        def python_encoder(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder was used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
        path = gen_projection_choi(tmp_path / "p.json", 4, 1, capsys)
        for argv in (["analyze", path, "--format", "json"],
                     ["certify", path, "--format", "json"],
                     ["normal-form", path, "--format", "json", "--out", tmp_path / "nf.json"]):
            code, stdout, _ = run(argv, capsys)
            assert code == 0, argv
            json.loads(stdout)

    def test_bytes_are_those_of_the_default_encoder(self, tmp_path, capsys, monkeypatch):
        # write_json skips the circular-reference check; every document the
        # CLI writes is still byte for byte the default json.dumps
        documents = []

        def checked(fh, obj):
            buffer = io.StringIO()
            write_json(buffer, obj)
            assert buffer.getvalue() == json.dumps(obj) + "\n"
            documents.append(obj)
            fh.write(buffer.getvalue())

        monkeypatch.setattr(cli, "write_json", checked)
        path = gen_projection_choi(tmp_path / "p.json", 4, 1, capsys)
        for argv in (["analyze", path, "--format", "json"],
                     ["certify", path, "--format", "json", "--out", tmp_path / "c.json"],
                     ["normal-form", path, "--format", "json", "--out", tmp_path / "nf.json"]):
            code, _, _ = run(argv, capsys)
            assert code == 0, argv
        # three reports, the certificate file and the normal-form dump
        assert len(documents) == 5

    @pytest.mark.parametrize("command", ["analyze", "certify"])
    def test_json_format_prints_one_line_per_file(self, tmp_path, capsys, command):
        paths = [gen_projection_choi(tmp_path / f"p{seed}.json", 4, seed, capsys)
                 for seed in range(3)]
        code, stdout, _ = run([command, *paths, "--format", "json"], capsys)
        assert code == 0
        lines = stdout.split("\n")
        assert len(lines) == 4 and lines[-1] == ""
        assert [json.loads(line)["file"] for line in lines[:-1]] == [str(p) for p in paths]

    def test_files_are_one_line(self, tmp_path, capsys):
        path = gen_projection_choi(tmp_path / "p.json", 4, 1, capsys)
        run(["certify", path, "--out", tmp_path / "c.json"], capsys)
        for written in (path, tmp_path / "c.json"):
            text = written.read_text()
            assert text.endswith("\n") and text.count("\n") == 1

    def test_indented_files_still_load(self, tmp_path, capsys):
        path = gen_projection_choi(tmp_path / "p.json", 4, 1, capsys)
        cert_file = tmp_path / "c.json"
        run(["certify", path, "--out", cert_file], capsys)
        compact = EBCertificate.from_json_dict(json.loads(cert_file.read_text()))
        indented_channel = tmp_path / "indented.json"
        with open(indented_channel, "w", encoding="utf-8") as fh:
            write_indented(fh, channel_to_json_dict(load_channel(path)))
        with open(cert_file, "w", encoding="utf-8") as fh:
            write_indented(fh, compact.to_json_dict())
        assert cert_file.read_text().count("\n") > 1
        indented = EBCertificate.from_json_dict(json.loads(cert_file.read_text()))
        ch = load_channel(indented_channel)
        assert verify_certificate(indented, ch) == verify_certificate(compact, load_channel(path))
        code, stdout, _ = run(["certify", indented_channel, "--format", "json"], capsys)
        assert code == 0
        assert json.loads(stdout)["certificate"]["eb_rank"] == compact.eb_rank

    @pytest.mark.parametrize("planted", [True, False], ids=["planted", "generic"])
    def test_documents_keep_their_values(self, tmp_path, capsys, monkeypatch, planted):
        """Every document parses to what the 0.6.0 writer and the
        per-element domain verification give, timings aside."""
        path = tmp_path / "p.json"
        argvs = [["analyze", path, "--format", "json"],
                 ["certify", path, "--format", "json", "--out", tmp_path / "c.json"]]
        written = [path]
        if planted:
            argvs.append(["normal-form", path, "--format", "json",
                          "--out", tmp_path / "nf.json"])
            written += [tmp_path / "c.json", tmp_path / "nf.json"]

        def documents():
            gen_projection_choi(path, 6, 2, capsys, planted)
            docs = []
            for argv in argvs:
                _, stdout, _ = run(argv, capsys)
                docs.append(json.loads(stdout))
                docs[-1].pop("timings", None)
            return docs + [json.loads(p.read_text()) for p in written]

        current = documents()
        assert len(current) == (6 if planted else 3)
        monkeypatch.setattr(cli, "write_json", write_indented)
        monkeypatch.setattr(channel, "write_json", write_indented)
        monkeypatch.setattr(algebra, "_verify_domain", verify_domain_per_element)
        assert documents() == current


def test_version_has_one_source():
    """pyproject.toml reads the package version from ebcert.__version__."""
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert "version" not in config["project"] and config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "ebcert.__version__"}
