"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  Every
tolerance is pinned in this file.
"""

import time

import numpy as np

from ebcert import (
    ChoiClass,
    KrausChannel,
    ToleranceConfig,
    certify,
    choi,
    complement,
    random_unitary,
    schur_normal_form,
    structure,
)
from ebcert.algebra import multiplicative_domain, rank_one_resolution
from ebcert.errors import NotEntanglementBreaking, OutOfScope
from ebcert.zoo import (
    depolarizing,
    external_twirl,
    identity_channel,
    internal_twirl,
    permute_kraus,
    random_channel,
    random_correlation,
    random_projection_choi_channel,
    redilate_fixture,
    schur_channel,
    schur_complement_channel,
    werner_holevo,
)

from oracles import algebra_from_span, brute_force_eb_search, random_complex_matrix

TOL = ToleranceConfig()


def criterion(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def unit_columns(m, n, seed):
    rng = np.random.default_rng(seed)
    cols = random_complex_matrix(m, n, rng)
    return cols / np.linalg.norm(cols, axis=0)


def test_criterion_1_certification_at_choi_rank():
    """100 seeded rank-one-Kraus channels certify with entanglement-breaking
    rank equal to the Choi rank, all residuals at 1e-8, in under 30 s."""
    started = time.perf_counter()
    count = 0
    worst = 0.0
    rng_dims = np.random.default_rng(1001)
    for k in range(100):
        n = int(rng_dims.integers(2, 9))
        m = int(rng_dims.integers(2, 9))
        ch = schur_complement_channel(unit_columns(m, n, 2000 + k), TOL)
        cert = certify(ch, TOL)
        assert cert.eb_rank == cert.choi_rank == n, (n, m, cert.eb_rank)
        worst = max(worst, max(cert.residuals.values()))
        count += 1
    elapsed = time.perf_counter() - started
    criterion(
        "1 certification at Choi rank",
        count == 100 and worst <= 1e-8 and elapsed < 30.0,
        f"{count} channels, worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_normal_form_roundtrip():
    """50 seeded instances: the normal form recovers the generating Gram
    moduli to 1e-7, including under internal and external unitary twirls."""
    mismatches = 0
    worst = 0.0
    for k in range(50):
        n = 2 + k % 5
        m = 2 + (k * 3) % 6
        cols = unit_columns(m, n, 3000 + k)
        ch = schur_complement_channel(cols, TOL)
        variant = k % 4
        inner = None
        if variant in (1, 3):
            outer = random_unitary(m, 4000 + k)
            ch = external_twirl(ch, outer, TOL)
        if variant in (2, 3):
            inner = random_unitary(n, 5000 + k)
            ch = internal_twirl(ch, inner, TOL)
        cert = certify(ch, TOL)
        form = schur_normal_form(cert, ch, TOL)
        expected_basis = np.eye(n) if inner is None else inner.conj().T
        overlaps = np.abs(expected_basis.conj().T @ np.column_stack(cert.v))
        perm = [int(np.argmax(overlaps[:, i])) for i in range(n)]
        if sorted(perm) != list(range(n)):
            mismatches += 1
            continue
        expected = np.abs(cols.conj().T @ cols)
        got = np.abs(form.correlation)
        err = max(
            abs(got[i, j] - expected[perm[i], perm[j]])
            for i in range(n) for j in range(n)
        )
        worst = max(worst, err)
        if err > 1e-7:
            mismatches += 1
    criterion(
        "2 normal-form roundtrip under twirls",
        mismatches == 0 and worst <= 1e-7,
        f"50 instances, worst modulus error {worst:.2e}",
    )


def _mixed_fixture_pool():
    pool = []
    for n in range(2, 6):
        pool.append(identity_channel(n, TOL))
    for n in range(2, 5):
        pool.append(depolarizing(n, TOL))
    for d in range(2, 5):
        pool.append(werner_holevo(d, TOL))
    for seed in range(30):
        n = 3 + seed % 4
        rank = 2 + seed % 3
        pool.append(schur_channel(random_correlation(n, rank, 6000 + seed, TOL), TOL))
    for seed in range(40):
        n = 2 + seed % 5
        m = 2 + (seed * 2) % 5
        pool.append(schur_complement_channel(unit_columns(m, n, 6100 + seed), TOL))
    for seed in range(30):
        n = 2 + seed % 3
        m = 2 + (seed * 2) % 4
        pool.append(random_projection_choi_channel(n, m, 6200 + seed, TOL, ensure_eb=True))
    dims = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]
    for seed in range(30):
        n, m = dims[seed % len(dims)]
        pool.append(random_projection_choi_channel(n, m, 6300 + seed, TOL))
    for seed in range(40):
        n = 2 + seed % 4
        m = 2 + (seed * 3) % 4
        d = 1 + seed % 4
        pool.append(random_channel(n, m, d, 6400 + seed, TOL))
    for seed in range(20):
        base = schur_complement_channel(unit_columns(3, 3, 6500 + seed), TOL)
        if seed % 2:
            pool.append(redilate_fixture(base, 3 + seed % 3, 6600 + seed, TOL))
        else:
            pool.append(external_twirl(base, random_unitary(3, 6700 + seed), TOL))
    return pool


def test_criterion_3_projection_iff_complement_unital():
    """Over 200 mixed fixtures the Choi matrix is a projection exactly when
    the complement sends the identity to the identity, at 1e-8."""
    pool = _mixed_fixture_pool()
    assert len(pool) == 200
    disagreements = 0
    for ch in pool:
        rep = choi(ch, TOL)
        comp = complement(ch, TOL)
        gram = comp.apply(np.eye(ch.input_dim))
        unital = np.linalg.norm(gram - np.eye(comp.output_dim)) <= 1e-8
        if (rep.classification is ChoiClass.PROJECTION) != unital:
            disagreements += 1
    criterion(
        "3 projection class iff complement is unital",
        disagreements == 0,
        f"200 fixtures, {disagreements} disagreements",
    )


def test_criterion_4_scaled_projection_families():
    """Named families report the expected scalars (to 1e-9) and ranks."""
    ok = True
    details = []
    for d in range(2, 6):
        rep = choi(werner_holevo(d, TOL), TOL)
        good = (
            rep.classification is ChoiClass.SCALED_PROJECTION
            and abs(rep.alpha - 2 / (d + 1)) <= 1e-9
            and rep.choi_rank == d * (d + 1) // 2
        )
        ok &= good
        details.append(f"wh{d}:{'ok' if good else 'bad'}")
    for n in range(2, 5):
        rep = choi(depolarizing(n, TOL), TOL)
        good = (
            rep.classification is ChoiClass.SCALED_PROJECTION
            and abs(rep.alpha - 1 / n) <= 1e-9
            and rep.choi_rank == n * n
        )
        ok &= good
        details.append(f"dep{n}:{'ok' if good else 'bad'}")
    for n in range(2, 5):
        rep = choi(identity_channel(n, TOL), TOL)
        good = (
            rep.classification is ChoiClass.SCALED_PROJECTION
            and abs(rep.alpha - n) <= 1e-9
            and rep.choi_rank == 1
        )
        ok &= good
        details.append(f"id{n}:{'ok' if good else 'bad'}")
    criterion("4 scaled-projection family numbers", ok, " ".join(details))


def test_criterion_5_witness_search_oracle_agreement():
    """Brute-force witness search agrees with the certifier's accept/refuse
    verdict on 20 projection-Choi instances at n = m = 2, with refutations
    cross-confirmed by a negative partial transpose.

    At n = m = 2 every projection-Choi channel turns out to be entanglement
    breaking (the two null directions of the combined-operator determinant
    are forced to be orthogonal), so the refuted branch of the agreement is
    additionally exercised on n = 2 instances with larger output dimension,
    where the same two-vector search applies.
    """
    agreements = 0
    confirmed_refutations = 0
    verdicts = []
    instances = []
    for k in range(20):
        instances.append(random_projection_choi_channel(2, 2, 7000 + k, TOL,
                                                        ensure_eb=bool(k % 2)))
    for k, ch in enumerate(instances):
        search_eb, best = brute_force_eb_search(list(ch.kraus), 2, 2)
        try:
            certify(ch, TOL)
            cert_eb = True
        except NotEntanglementBreaking as refusal:
            cert_eb = False
            if refusal.ppt_violated:
                confirmed_refutations += 1
        verdicts.append(cert_eb)
        if search_eb == cert_eb:
            agreements += 1

    # refuted branch of the same oracle, exercised where refutations exist
    extra_agree = 0
    extra_total = 0
    extra_confirmed = 0
    for k in range(8):
        m = 3 + k % 2
        ch = random_projection_choi_channel(2, m, 7100 + k, TOL, ensure_eb=k >= 6)
        search_eb, _ = brute_force_eb_search(list(ch.kraus), 2, m)
        try:
            certify(ch, TOL)
            cert_eb = True
        except NotEntanglementBreaking as refusal:
            cert_eb = False
            rep = choi(ch, TOL)
            from ebcert import is_ppt
            if refusal.ppt_violated and not is_ppt(rep.choi, 2, m, TOL):
                extra_confirmed += 1
        extra_total += 1
        if search_eb == cert_eb:
            extra_agree += 1

    criterion(
        "5 witness-search oracle agreement",
        agreements == 20 and extra_agree == extra_total and extra_confirmed >= 1,
        f"20/20 at n=m=2 ({sum(verdicts)} accepted), "
        f"{extra_agree}/{extra_total} at n=2 m>2 "
        f"({extra_confirmed} refutations NPT-confirmed)",
    )


def _unital_tp_fixture_pool():
    fixtures = []
    for k in range(25):
        d = 2 + k % 4
        fixtures.append(("unitary", d, KrausChannel([random_unitary(d, 8000 + k)], TOL)))
    for k in range(10):
        n = 2 + k % 5
        fixtures.append(("depolarizing", n, depolarizing(n, TOL)))
    for k in range(25):
        n = 3 + k % 4
        fixtures.append(("schur", n,
                         schur_channel(random_correlation(n, 2 + k % 3, 8100 + k, TOL), TOL)))
    from ebcert import complement_adjoint, minimal_kraus
    for k in range(25):
        n = 2 + k % 3
        m = 2 + (k * 2) % 4
        ch = random_projection_choi_channel(n, m, 8200 + k, TOL, ensure_eb=bool(k % 2))
        fixtures.append(("complement-adjoint", n,
                         complement_adjoint(minimal_kraus(ch, TOL), TOL)))
    for k in range(15):
        d = 2 + k % 3
        rng = np.random.default_rng(8300 + k)
        probs = rng.dirichlet(np.ones(3))
        ops = [np.sqrt(p) * random_unitary(d, 8400 + 10 * k + i)
               for i, p in enumerate(probs)]
        fixtures.append(("mixed-unitary", d, KrausChannel(ops, TOL)))
    return fixtures


def test_criterion_6_multiplicative_domain_properties():
    """On 100 unital trace-preserving fixtures the computed domain passes
    closure and bilinear checks at 1e-8 and the projection criterion; the
    depolarizing domain is trivial and the unitary-conjugation domain is
    everything."""
    fixtures = _unital_tp_fixture_pool()
    assert len(fixtures) == 100
    rng = np.random.default_rng(8500)
    failures = []
    for kind, d, psi in fixtures:
        dom = multiplicative_domain(psi, TOL)
        try:
            dom.check_invariants(TOL)
        except Exception as exc:
            failures.append(f"{kind}: closure {exc}")
            continue
        if kind == "unitary" and dom.dimension != d * d:
            failures.append(f"unitary domain dim {dom.dimension} != {d * d}")
        if kind == "depolarizing" and dom.dimension != 1:
            failures.append(f"depolarizing domain dim {dom.dimension} != 1")
        for a in dom.basis:
            for _ in range(10):
                x = random_complex_matrix(d, d, rng)
                bound = 1e-8 * np.linalg.norm(a) * np.linalg.norm(x)
                left = psi.apply(a @ x) - psi.apply(a) @ psi.apply(x)
                right = psi.apply(x @ a) - psi.apply(x) @ psi.apply(a)
                if np.linalg.norm(left) > bound or np.linalg.norm(right) > bound:
                    failures.append(f"{kind}: bilinear residual")
                    break
        # projection criterion: spectral projections of a domain element map
        # to projections; a generic projection outside the domain does not
        st = structure(dom, TOL)
        if st.multiplicity_free:
            vectors = rank_one_resolution(dom, st, TOL)
            for w in vectors[:2]:
                img = psi.apply(np.outer(w, w.conj()))
                if np.linalg.norm(img @ img - img) > 1e-8:
                    failures.append(f"{kind}: projection image fails inside domain")
                    break
        if dom.dimension < d * d:
            outside_ok = False
            for _ in range(5):
                v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                v /= np.linalg.norm(v)
                p = np.outer(v, v.conj())
                if dom.contains(p, TOL):
                    continue
                img = psi.apply(p)
                if np.linalg.norm(img @ img - img) > 1e-6:
                    outside_ok = True
                break
            if not outside_ok:
                failures.append(f"{kind}: outside projection not detected")
    criterion(
        "6 multiplicative-domain properties",
        not failures,
        f"100 fixtures{'' if not failures else '; ' + failures[0]}",
    )


def _known_structure_algebras():
    def units(d):
        out = []
        for i in range(d):
            for j in range(d):
                m = np.zeros((d, d), dtype=complex)
                m[i, j] = 1.0
                out.append(m)
        return out

    diagonal = [np.diag(row.astype(complex)) for row in np.eye(3)]
    full = units(3)
    repeated = [np.kron(np.eye(2), u) for u in units(2)]
    two_blocks = []
    for u in units(2):
        m = np.zeros((5, 5), dtype=complex)
        m[:2, :2] = u
        two_blocks.append(m)
    for u in units(3):
        m = np.zeros((5, 5), dtype=complex)
        m[2:, 2:] = u
        two_blocks.append(m)
    scalar_plus_block = [np.zeros((5, 5), dtype=complex)]
    scalar_plus_block[0][:3, :3] = np.eye(3)
    for u in units(2):
        m = np.zeros((5, 5), dtype=complex)
        m[3:, 3:] = u
        scalar_plus_block.append(m)
    return [
        ("diagonal", diagonal, ((1, 1), (1, 1), (1, 1))),
        ("full", full, ((1, 3),)),
        ("repeated-2x2", repeated, ((2, 2),)),
        ("2-plus-3", two_blocks, ((1, 3), (1, 2))),
        ("scalars3-plus-2", scalar_plus_block, ((1, 2), (3, 1))),
    ]


def test_criterion_7_structure_recognition():
    """Known block structures are recovered exactly under 20 random unitary
    conjugations each, with the multiset independent of the seed."""
    failures = []
    for name, mats, expected in _known_structure_algebras():
        d = mats[0].shape[0]
        for k in range(20):
            u = random_unitary(d, 9000 + 100 * hash(name) % 1000 + k)
            alg = algebra_from_span(
                [u @ m @ u.conj().T for m in mats], TOL
            )
            got = structure(alg, TOL).pairs()
            if got != expected:
                failures.append(f"{name}@{k}: {got}")
                break
        alg = algebra_from_span(mats, TOL)
        for seed in (0, 31, 997):
            got = structure(alg, ToleranceConfig(seed=seed)).pairs()
            if got != expected:
                failures.append(f"{name} seed {seed}: {got}")
    criterion(
        "7 structure recognition under conjugation",
        not failures,
        "5 algebras x 20 conjugations" + ("" if not failures else f"; {failures[0]}"),
    )


def _certify_outcome(ch):
    try:
        return ("eb", certify(ch, TOL).eb_rank)
    except NotEntanglementBreaking as refusal:
        return ("refuted", tuple(sorted(refusal.blocks)))
    except OutOfScope as refusal:
        return ("out_of_scope", refusal.classification)


def test_criterion_8_invariance_suite():
    """Certification outcome and rank are unchanged under Kraus-list
    permutation and isometry re-dilation of the minimal set: 50 instances,
    zero flips."""
    rng = np.random.default_rng(9500)
    flips = 0
    for k in range(50):
        if k % 2:
            n = 2 + k % 3
            m = 2 + (k * 2) % 4
            ch = random_projection_choi_channel(n, m, 9600 + k, TOL, ensure_eb=True)
        else:
            dims = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]
            n, m = dims[(k // 2) % len(dims)]
            ch = random_projection_choi_channel(n, m, 9700 + k, TOL)
        base = _certify_outcome(ch)

        order = list(rng.permutation(len(ch)))
        if _certify_outcome(permute_kraus(ch, order, TOL)) != base:
            flips += 1
            continue
        padded = redilate_fixture(ch, len(ch) + 1 + k % 3, 9800 + k, TOL)
        if _certify_outcome(padded) != base:
            flips += 1
    criterion(
        "8 invariance under Kraus presentation",
        flips == 0,
        f"50 instances, {flips} flips",
    )
