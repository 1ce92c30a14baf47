"""The four workloads: inputs from the seed, the timed op, its output check
and, for the traced run, the replay of the op's stages.

Each workload's inputs are of one size class, so the times of its ops pool
into one steady median.  A round is the same list of items every time; a run
repeats whole rounds.
"""

from __future__ import annotations

import contextlib
import io
from contextlib import nullcontext
from importlib import import_module
from pathlib import Path

import numpy as np

from ebcert.errors import NotEntanglementBreaking
from ebcert.numerics import ToleranceConfig, random_unitary

import bench_checks as checks

# module objects, looked up by name: the package rebinds ``ebcert.certify`` to
# the function of that name.  Calls go through the module attributes so that
# the traced run's wrappers see them.
algebra, certify, channel, cli, zoo = (
    import_module(f"ebcert.{name}") for name in ("algebra", "certify", "channel", "cli", "zoo"))

TOL = ToleranceConfig()
ROUND = 3  # items per round; certify-planted has twice as many


def _seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _planted(n: int, seed: int, count: int, tracer) -> list:
    """``count`` planted entanglement-breaking projection-Choi channels: the
    last one straight from the Schur-complement generator, the others
    unitarily twirled ones from the projection-Choi generator."""
    channels = []
    for k in range(count):
        with tracer.span("zoo.planted") if tracer else nullcontext():
            if k == count - 1:
                ch = zoo.random_schur_complement_channel(n, n, np.random.SeedSequence([seed, k]), TOL)
            else:
                ch = zoo.random_projection_choi_channel(n, n, _seed(seed, k), TOL, ensure_eb=True)
        channels.append(ch)
    return channels


class Workload:
    name = ""
    one_thread = True  # the op runs on the calling thread alone

    def setup(self, seed: int, workdir: Path, tracer=None) -> list:
        """The items of one round."""
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def check(self, item, output) -> None:
        raise NotImplementedError

    def replay(self, item, reference, tracer) -> dict:
        """Call the op's stages one at a time, in the order the op calls
        them; ``reference`` is an untraced output of the op on ``item``.
        Returns the per-op values that are not span times."""
        raise NotImplementedError


class CertifyPlanted(Workload):
    """Six items per round.  An untwirled Schur-complement channel certifies
    about 20 % faster than a twirled one, so it is one item in six: the
    75th percentile then falls among the twirled ones instead of on the gap
    between the two."""

    name = "certify-planted"
    n = 9

    def setup(self, seed, workdir, tracer=None):
        return _planted(self.n, seed, 2 * ROUND, tracer)

    def op(self, ch):
        return certify.certify(ch, TOL)

    def check(self, ch, cert):
        checks.check_certificate(ch.kraus, cert.rank_one_kraus, ch.input_dim)

    def _domain(self, ch):
        report = channel.choi(ch, TOL)
        minimal = channel.minimal_kraus(ch, TOL)
        adjoint = channel.complement_adjoint(minimal, TOL)
        domain = algebra.multiplicative_domain(adjoint, TOL)
        return report, minimal, domain, algebra.structure(domain, TOL)

    def replay(self, ch, cert, tracer):
        _, minimal, domain, struct = self._domain(ch)
        w_list = algebra.rank_one_resolution(domain, struct, TOL)
        certify.verify_eb_witness(minimal, w_list, TOL)
        certify.verify_certificate(cert, ch, TOL)
        return {"algebra.domain_dim": domain.dimension}


class RefuteGeneric(CertifyPlanted):
    name = "refute-generic"
    n = 9

    def setup(self, seed, workdir, tracer=None):
        items = []
        for k in range(ROUND):
            with tracer.counting_span("zoo.sample") if tracer else nullcontext():
                items.append(zoo.random_projection_choi_channel(self.n, self.n, _seed(seed, k), TOL))
        return items

    def op(self, ch):
        try:
            return certify.certify(ch, TOL)
        except NotEntanglementBreaking as refusal:
            return refusal

    def check(self, ch, refusal):
        checks.check_refutation(ch.kraus, ch.input_dim, ch.output_dim, refusal)

    def replay(self, ch, refusal, tracer):
        report, _, domain, _ = self._domain(ch)
        certify.is_ppt(report.choi, ch.input_dim, ch.output_dim, TOL)
        return {"algebra.domain_dim": domain.dimension}


class ClassifyScaled(Workload):
    """One op classifies a Werner-Holevo channel and a completely
    depolarizing one, sized so that each takes about the same time.  The
    seed picks a unitary re-dilation of each Kraus set; the channels, and so
    every verdict, stay the same."""

    name = "classify-scaled"
    d = 13  # Werner-Holevo dimension
    n = 11  # depolarizing dimension

    def setup(self, seed, workdir, tracer=None):
        wh, dep = zoo.werner_holevo(self.d, TOL), zoo.depolarizing(self.n, TOL)
        items = []
        for k in range(ROUND):
            pair = [channel.redilate(ch, random_unitary(len(ch), np.random.SeedSequence([seed, k, i])), TOL)
                    for i, ch in enumerate((wh, dep))]
            items.append(tuple(pair))
        return items

    def op(self, pair):
        return [(certify.eb_rank(ch, TOL), channel.classify_complement_adjoint(ch, TOL))
                for ch in pair]

    def check(self, pair, output):
        alphas = (2.0 / (self.d + 1), 1.0 / self.n)
        for ch, alpha, (rank, adjoint) in zip(pair, alphas, output):
            checks.check_scaled(ch.kraus, alpha, rank, adjoint)

    def replay(self, pair, reference, tracer):
        # the op's own calls are its stages
        self.op(pair)
        return {"algebra.domain_dim": 0}


class CliBatch(Workload):
    """`analyze` then `certify` through ``cli.main`` over one batch of
    planted channel files, more files than cores.  Multi-file `certify`
    writes ``<stem>.cert.json`` next to each input, so the files live in a
    fresh directory of their own."""

    name = "cli-batch"
    n = 6
    files = 3
    one_thread = False  # the CLI's pool threads spread over the CPUs

    def setup(self, seed, workdir, tracer=None):
        paths = []
        for k, ch in enumerate(_planted(self.n, seed, self.files, tracer)):
            path = workdir / f"planted-{k}.json"
            channel.save_channel(ch, path)
            paths.append(path)
        return [paths]

    @staticmethod
    def _main(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
        return code, out.getvalue()

    def op(self, paths):
        code_a, text_a = self._main("analyze", "--format", "json", *paths)
        code_c, text_c = self._main("certify", "--format", "json", *paths)
        return (code_a, code_c), text_a + text_c

    def check(self, paths, output):
        codes, text = output
        checks.check_cli_batch(paths, codes, text)

    def replay(self, paths, reference, tracer):
        dims = []
        for path in paths:
            with tracer.phase("cli.per_file"):
                _, text = self._main("analyze", "--format", "json", path)
                self._main("certify", "--format", "json", path)
            dims.append(checks.json_documents(text)[0]["algebra"]["dimension"])
        return {"algebra.domain_dim": max(dims)}


WORKLOADS = {w.name: w for w in (CertifyPlanted(), RefuteGeneric(), ClassifyScaled(), CliBatch())}
