"""Batch command-line front end: generate, analyze, certify, and report on
channels stored as JSON files.

Exit codes are a stable contract: 0 success, 2 input error (an unreadable
input, an unwritable output path, or output paths that would overwrite an
input or each other), 4 refuted (not entanglement breaking),
5 out of scope (Choi matrix not a projection), 3 numerical inconsistency.
Several input files are processed one after another, in input order, and the
exit code is the first nonzero one in that order.  The per-file commands,
analyze, certify and normal-form, share one runner that loads each file and
maps its outcome to a report and an exit code.

Every JSON document, printed or written, is one compact line, so the JSON
format prints one document per input file, one per line (JSON Lines).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

import numpy as np

from .algebra import _domain_blocks
from .certify import _residual_bound, certify, schur_normal_form
from .channel import (
    ChoiClass,
    KrausChannel,
    _classify_complement_adjoint,
    choi,
    load_channel,
    save_channel,
)
from .errors import CertificationRefusal, EBCertError, NotEntanglementBreaking, OutOfScope
from .numerics import ToleranceConfig, frob, from_pairs, to_pairs, write_json
from .zoo import (
    depolarizing,
    random_channel,
    random_correlation,
    random_projection_choi_channel,
    random_schur_complement_channel,
    schur_channel,
    werner_holevo,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_REFUTED = 4
EXIT_OUT_OF_SCOPE = 5

FAMILIES = (
    "schur",
    "schur-complement",
    "werner-holevo",
    "depolarizing",
    "random",
    "random-projection-choi",
)


def _add_tolerance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-rank", type=float, default=None,
                        help="relative singular-value cutoff for rank decisions")
    parser.add_argument("--tol-eig", type=float, default=None,
                        help="eigenvalue clustering radius")
    parser.add_argument("--tol-verify", type=float, default=None,
                        help="residual bound for equality checks")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized steps (default: EBCERT_SEED or 0)")


def _tolerances(args) -> ToleranceConfig:
    seed = args.seed
    if seed is None:
        env = os.environ.get("EBCERT_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"EBCERT_SEED must be an integer, got {env!r}") from None
    fields = {"tol_rank": "eps_rank", "tol_eig": "eps_eig", "tol_verify": "eps_verify"}
    given = {field: getattr(args, flag) for flag, field in fields.items()
             if getattr(args, flag) is not None}
    return ToleranceConfig(seed=seed, **given)


def _judged(value: float, tolerance: float) -> dict:
    return {"value": float(value), "tolerance": float(tolerance)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebcert",
        description="Analyze quantum channels: Choi matrices, complements, "
                    "multiplicative domains, entanglement-breaking certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a channel file from a named family")
    gen.add_argument("family", choices=FAMILIES)
    gen.add_argument("--n", type=int, default=None, help="input dimension")
    gen.add_argument("--m", type=int, default=None, help="output dimension")
    gen.add_argument("--d", type=int, default=None,
                     help="Kraus count (random) or dimension (werner-holevo)")
    gen.add_argument("--k", type=int, default=None,
                     help="Gram-vector dimension for the schur family")
    gen.add_argument("--ensure-eb", action="store_true",
                     help="plant an entanglement-breaking projection-Choi instance")
    gen.add_argument("--out", type=Path, default=None, help="output path")
    _add_tolerance_args(gen)

    analyze = sub.add_parser("analyze", help="full report for channel files")
    analyze.add_argument("files", nargs="+", type=Path)
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    _add_tolerance_args(analyze)

    cert = sub.add_parser("certify", help="entanglement-breaking certification")
    cert.add_argument("files", nargs="+", type=Path)
    cert.add_argument("--format", choices=("text", "json"), default="text")
    cert.add_argument("--out", type=Path, default=None,
                      help="certificate path (single input file only; "
                           "default <input>.cert.json)")
    _add_tolerance_args(cert)

    nf = sub.add_parser("normal-form", help="entrywise-product normal form of a "
                                            "certified channel")
    nf.add_argument("file", type=Path)
    nf.add_argument("--format", choices=("text", "json"), default="text")
    nf.add_argument("--out", type=Path, default=None, help="normal-form dump path")
    _add_tolerance_args(nf)

    return parser


# built on first use, not at import, and shared by every main call
_parser = functools.cache(build_parser)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _require(args, names: list[str]) -> list[int]:
    values = []
    for name in names:
        value = getattr(args, name)
        if value is None or value < 1:
            raise ValueError(f"family {args.family} needs --{name} >= 1")
        values.append(value)
    return values


def _generate(args, tol: ToleranceConfig):
    family = args.family
    if family == "schur":
        (n,) = _require(args, ["n"])
        k = args.k if args.k is not None else n
        corr = random_correlation(n, k, np.random.SeedSequence([tol.seed, 0x6E0]), tol)
        return schur_channel(corr, tol), f"schur-n{n}-k{k}"
    if family == "schur-complement":
        n, m = _require(args, ["n", "m"])
        ch = random_schur_complement_channel(n, m, np.random.SeedSequence([tol.seed, 0x6E1]), tol)
        return ch, f"schur-complement-n{n}-m{m}"
    if family == "werner-holevo":
        (d,) = _require(args, ["d"])
        return werner_holevo(d, tol), f"werner-holevo-d{d}"
    if family == "depolarizing":
        (n,) = _require(args, ["n"])
        return depolarizing(n, tol), f"depolarizing-n{n}"
    if family == "random":
        n, m, d = _require(args, ["n", "m", "d"])
        return random_channel(n, m, d, np.random.SeedSequence([tol.seed, 0x6E2]), tol), \
            f"random-n{n}-m{m}-d{d}"
    if family == "random-projection-choi":
        n, m = _require(args, ["n", "m"])
        ch = random_projection_choi_channel(n, m, tol.seed, tol, ensure_eb=args.ensure_eb)
        return ch, f"random-projection-choi-n{n}-m{m}"
    raise ValueError(f"unknown family {family}")


def _cmd_gen(args, tol: ToleranceConfig) -> int:
    try:
        channel, stem = _generate(args, tol)
    except (ValueError, EBCertError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out = args.out if args.out is not None else Path(f"{stem}.json")
    try:
        save_channel(channel, out)
    except OSError as exc:
        print(f"error: output: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"{out}: {args.family} channel, {channel.input_dim}x{channel.input_dim} -> "
          f"{channel.output_dim}x{channel.output_dim}, {len(channel)} Kraus operators, "
          f"tp residual {channel.tp_residual:.3e}, seed {tol.seed}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# the per-file runner of analyze, certify and normal-form
# ---------------------------------------------------------------------------

REFUSAL_EXITS = {OutOfScope: EXIT_OUT_OF_SCOPE, NotEntanglementBreaking: EXIT_REFUTED}


def _run_file(path: Path, tol: ToleranceConfig, fill, timing: str | None) -> tuple[dict, int]:
    """Load one channel file, let ``fill(channel, report, tol)`` fill its report, and
    return it with its exit code: ``input:`` for a file that does not load, a refusal's
    payload and REFUSAL_EXITS code, ``numerical:`` for any other EBCertError, ``output:``
    for a failed write.  An error-free report times ``fill`` under a ``timing`` key."""
    report: dict = {"file": str(path)}
    try:
        channel = load_channel(path, tol)
    except (OSError, ValueError, EBCertError) as exc:
        report["error"] = f"input: {exc}"
        return report, EXIT_INPUT
    t0, code = time.perf_counter(), EXIT_OK
    try:
        fill(channel, report, tol)
    except CertificationRefusal as refusal:
        report["refusal"], code = refusal.payload(), REFUSAL_EXITS[type(refusal)]
    except EBCertError as exc:
        report["error"], code = f"numerical: {exc}", EXIT_NUMERICAL
    except OSError as exc:
        report["error"], code = f"output: {exc}", EXIT_INPUT
    if timing is not None and "error" not in report:
        report["timings"] = {timing: time.perf_counter() - t0}
    return report, code


def _emit(results: list[tuple[dict, int]], fmt: str, print_text) -> int:
    """Print the per-file reports in input order and return the first
    nonzero exit code, or EXIT_OK."""
    for report, _ in results:
        if fmt == "json":
            write_json(sys.stdout, report)
        else:
            print_text(report)
    return next((code for _, code in results if code != EXIT_OK), EXIT_OK)


def _overwrite_error(writes: list[tuple[Path, Path]]) -> str | None:
    """The error for (input, output) path pairs of which an output resolves
    to an input, or two distinct inputs share one output; None if neither.
    Each path is resolved once: a resolution costs a file-system lookup per
    path component."""
    resolved = [(path, path.resolve(), out, out.resolve()) for path, out in writes]
    inputs = {source: path for path, source, _, _ in resolved}
    writers: dict[Path, tuple[Path, Path]] = {}
    for path, source, out, target in resolved:
        if target in inputs:
            return f"output {out} of {path} would overwrite input {inputs[target]}"
        first, first_source = writers.setdefault(target, (path, source))
        if first_source != source:
            return f"inputs {first} and {path} would both write {out}"
    return None


def _write_file(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(fh, obj)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _analyze(channel: KrausChannel, report: dict, tol: ToleranceConfig) -> None:
    report["channel"] = {
        "n": channel.input_dim,
        "m": channel.output_dim,
        "kraus_count": len(channel),
        "tp_residual": _judged(channel.tp_residual, tol.eps_verify),
    }
    cr = choi(channel, tol)
    report["choi"] = {
        "rank": cr.choi_rank,
        # the bound _spectrum applies to |tr J - n|
        "trace": _judged(frob(channel.kraus) ** 2, tol.eps_verify * max(1, channel.input_dim)),
        "classification": cr.classification.value,
        "alpha": None if cr.alpha is None else _judged(cr.alpha, tol.eps_eig),
        "eigenvalues": [float(v) for v in cr.eigenvalues],
        "normalized_state_eigenvalues": [float(v) / channel.input_dim for v in cr.eigenvalues],
    }
    ca = _classify_complement_adjoint(cr)
    report["complement_adjoint"] = {
        "kind": ca.kind.value,
        "alpha": ca.alpha,
        "residual": _judged(ca.residual, tol.eps_eig),
    }
    if cr.classification is ChoiClass.PROJECTION:
        dom, decision = _domain_blocks(cr.kraus, tol)
        report["algebra"] = {
            "dimension": dom.dimension,
            "basis": to_pairs(dom.basis),
            "blocks": [list(p) for p in decision.pairs],
            "multiplicity_free": decision.multiplicity_free,
            "commutator": _judged(decision.kappa, decision.bound),
        }


def _print_analysis_text(report: dict) -> None:
    print(f"== {report['file']}")
    if "error" in report:
        print(f"  error: {report['error']}")
        return
    ch = report["channel"]
    print(f"  channel: {ch['n']} -> {ch['m']}, {ch['kraus_count']} Kraus operators; "
          f"tp residual {ch['tp_residual']['value']:.3e} "
          f"(tol {ch['tp_residual']['tolerance']:.1e})")
    cr = report["choi"]
    alpha = "" if cr["alpha"] is None else f", scalar {cr['alpha']['value']:.9g}"
    print(f"  choi: rank {cr['rank']}, {cr['classification']}{alpha}; "
          f"trace {cr['trace']['value']:.9g} (tol {cr['trace']['tolerance']:.1e})")
    levels = cr["normalized_state_eigenvalues"][:cr["rank"]]
    shown = ", ".join(f"{v:.6g}" for v in levels[:8]) + (", ..." if len(levels) > 8 else "")
    print(f"  normalized state spectrum (nonzero): {shown}")
    ca = report["complement_adjoint"]
    note = "complement adjoint preserves traces exactly when the Choi matrix is a projection"
    print(f"  complement adjoint: {ca['kind']}"
          + (f", scalar {ca['alpha']:.9g}" if ca["alpha"] is not None else "")
          + f"; residual {ca['residual']['value']:.3e} (tol {ca['residual']['tolerance']:.1e})")
    print(f"    [{note}]")
    if "algebra" in report:
        alg = report["algebra"]
        verdict = ("rank-one Kraus decomposition of minimal length exists"
                   if alg["multiplicity_free"]
                   else "a repeated tensor factor rules out rank-one Kraus decompositions")
        print(f"  multiplicative domain of the complement adjoint: dimension {alg['dimension']}, "
              f"blocks {alg['blocks']}, multiplicity-free: {alg['multiplicity_free']}; commutator "
              f"{alg['commutator']['value']:.3e} (tol {alg['commutator']['tolerance']:.1e})")
        print(f"    [{verdict}]")
    print(f"  elapsed: {report['timings']['analyze_seconds']:.3f}s")


def _cmd_analyze(args, tol: ToleranceConfig) -> int:
    return _emit([_run_file(path, tol, _analyze, "analyze_seconds") for path in args.files],
                 args.format, _print_analysis_text)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _certify(channel: KrausChannel, report: dict, tol: ToleranceConfig, cert_path: Path) -> None:
    cert_dict = certify(channel, tol).to_json_dict()
    _write_file(cert_path, cert_dict)
    report["certificate"] = cert_dict
    report["certificate_file"] = str(cert_path)


def _print_certify_text(report: dict, tol: ToleranceConfig) -> None:
    print(f"== {report['file']}")
    if "error" in report:
        print(f"  error: {report['error']}")
        return
    if "refusal" in report:
        ref = report["refusal"]
        print(f"  refused ({ref['reason']}): {ref['message']}")
        if ref["reason"] == "out_of_scope":
            print("    [the equality of entanglement-breaking and Choi ranks is specific "
                  "to projection Choi matrices; scaled projections admit counterexamples]")
        if ref.get("ppt_violated"):
            print("    [cross-check: negative partial transpose independently rules out "
                  "separability of the Choi matrix]")
        return
    cert = report["certificate"]
    print(f"  certified entanglement breaking: eb_rank = choi_rank = {cert['eb_rank']}")
    print("    [rank-one Kraus decomposition at minimal length; no shorter resolution "
          "of the identity exists]")
    residuals, n = cert["residuals"], len(cert["v"][0])  # v: one length-n row per term
    worst = max(residuals, key=lambda k: residuals[k] / _residual_bound(k, n, tol))
    print(f"  certificate residuals: worst {worst} {residuals[worst]:.3e} "
          f"(tol {_residual_bound(worst, n, tol):.1e}); written to {report['certificate_file']}")
    print(f"  elapsed: {report['timings']['certify_seconds']:.3f}s")


def _cmd_certify(args, tol: ToleranceConfig) -> int:
    if args.out is not None and len(args.files) != 1:
        print("error: --out requires exactly one input file", file=sys.stderr)
        return EXIT_INPUT
    writes = [(path, args.out or path.with_suffix(".cert.json")) for path in args.files]
    if clash := _overwrite_error(writes):
        print(f"error: {clash}", file=sys.stderr)
        return EXIT_INPUT
    results = [_run_file(path, tol, functools.partial(_certify, cert_path=out), "certify_seconds")
               for path, out in writes]
    return _emit(results, args.format, lambda report: _print_certify_text(report, tol))


# ---------------------------------------------------------------------------
# normal-form
# ---------------------------------------------------------------------------

def _normal_form(channel: KrausChannel, report: dict, tol: ToleranceConfig,
                 out: Path | None) -> None:
    form = schur_normal_form(certify(channel, tol), channel, tol)
    report["basis_change"] = to_pairs(form.basis_change)
    report["correlation"] = to_pairs(form.correlation)
    report["residual"] = _judged(form.residual,
                                 _residual_bound("choi_match", channel.input_dim, tol))
    if out is not None:
        _write_file(out, report)


def _cmd_normal_form(args, tol: ToleranceConfig) -> int:
    if args.out is not None and (clash := _overwrite_error([(args.file, args.out)])):
        print(f"error: {clash}", file=sys.stderr)
        return EXIT_INPUT
    dump, code = _run_file(args.file, tol, functools.partial(_normal_form, out=args.out), None)
    if "error" in dump:
        print(f"error: {dump['error']}", file=sys.stderr)
    elif "refusal" in dump:
        print(f"refused ({dump['refusal']['reason']}): {dump['refusal']['message']}",
              file=sys.stderr)
    elif args.format == "json":
        write_json(sys.stdout, dump)
    else:
        value, bound = dump["residual"]["value"], dump["residual"]["tolerance"]
        print(f"== {dump['file']}")
        print(f"  after the input rotation, the complement multiplies entry (i, j) by the "
              f"conjugated correlation entry; residual {value:.3e} (tol {bound:.1e})")
        print("  correlation matrix (modulus):")
        for row in np.abs(from_pairs(dump["correlation"], (None, None))):
            print("    " + "  ".join(f"{x:.6f}" for x in row))
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        tol = _tolerances(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    commands = {"gen": _cmd_gen, "analyze": _cmd_analyze, "certify": _cmd_certify,
                "normal-form": _cmd_normal_form}
    return commands[args.command](args, tol)


if __name__ == "__main__":
    sys.exit(main())
