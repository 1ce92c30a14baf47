"""The benchmark's output checks accept correct outputs and reject corrupted
ones, so a passing benchmark run means something.

    python3 -m pytest benchmarks/test_bench_checks.py -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ebcert as eb  # noqa: E402

import bench_checks as checks  # noqa: E402
from bench_workloads import TOL, CliBatch  # noqa: E402


def planted(n, seed=3):
    return eb.random_projection_choi_channel(n, n, seed, TOL, ensure_eb=True)


def test_certificate_with_one_operator_perturbed_is_rejected():
    ch = planted(4)
    cert = eb.certify(ch, TOL)
    checks.check_certificate(ch.kraus, cert.rank_one_kraus, 4)
    rng = np.random.default_rng(0)
    ops = list(cert.rank_one_kraus)
    ops[1] = ops[1] + 1e-6 * (rng.standard_normal(ops[1].shape) + 1j * rng.standard_normal(ops[1].shape))
    with pytest.raises(checks.CheckFailed, match="rank one"):
        checks.check_certificate(ch.kraus, ops, 4)


def test_refutation_claimed_for_a_planted_channel_is_rejected():
    generic = eb.random_projection_choi_channel(3, 3, 5, TOL)
    with pytest.raises(eb.NotEntanglementBreaking) as refusal:
        eb.certify(generic, TOL)
    checks.check_refutation(generic.kraus, 3, 3, refusal.value)

    fake = eb.NotEntanglementBreaking(refusal.value.blocks, ppt_violated=True)
    with pytest.raises(checks.CheckFailed, match="partial transpose is positive"):
        checks.check_refutation(planted(3).kraus, 3, 3, fake)


def test_scaled_family_rank_below_the_choi_rank_is_rejected():
    ch = eb.werner_holevo(3, TOL)
    rank, adjoint = eb.eb_rank(ch, TOL), eb.classify_complement_adjoint(ch, TOL)
    checks.check_scaled(ch.kraus, 0.5, rank, adjoint)

    choi_rank = 3 * 4 // 2
    low = dataclasses.replace(rank, value=choi_rank - 1)
    with pytest.raises(checks.CheckFailed, match="below the Choi rank"):
        checks.check_scaled(ch.kraus, 0.5, low, adjoint)


def test_cli_certificate_file_with_one_u_vector_altered_is_rejected(tmp_path):
    workload = CliBatch()
    workload.n = 4
    (paths,) = workload.setup(7, tmp_path)
    codes, text = workload.op(paths)
    checks.check_cli_batch(paths, codes, text)

    cert_file = paths[0].with_suffix(".cert.json")
    data = json.loads(cert_file.read_text())
    u = np.array([complex(re, im) for re, im in data["u"][0]])
    u[0] += 0.1
    u /= np.linalg.norm(u)
    data["u"][0] = [[z.real, z.imag] for z in u]
    cert_file.write_text(json.dumps(data))
    with pytest.raises(checks.CheckFailed, match="Choi mismatch"):
        checks.check_cli_batch(paths, codes, text)
