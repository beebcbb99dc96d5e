"""Acceptance criteria, one test per criterion.

Corpus: all uniform matroids U(r, n) for 1 <= r <= n <= 6, the cycle matroid
of K4, the Fano plane from explicit bases, and 20 seeded loopless matroids
obtained by random iterated principal truncations of Boolean matroids.

Every check here is exact (integer or rational); each test prints a PASS
line with the measured scope.
"""

import json
import os
import subprocess
import sys
import time
import numpy as np

from chowmat import (
    bergman_class,
    check_balanced,
    h_matroid,
    matroid_intersection,
    poincare_pairing,
    sample_ample,
    uniform,
)
from chowmat._linalg import is_full_rank, rank_int
from chowmat.bergman import bergman_weight_space_dimension, cap_weight_with_monomial, weight_vector
from chowmat.chow import ring_for
from chowmat.hodge import (
    char_poly,
    dhr_triple_report,
    kahler_check,
    log_concavity_report,
    lorentzian_check,
    mu_via_degrees,
    sample_nabla_cone,
    star_factorization_check,
    truncation_hessian,
    volume_polynomial,
)
from chowmat.matroid import popcount
from chowmat.quotients import apply_exponent_chain

from _quotient_oracle import relative_nested_quotients
from conftest import small_corpus

KAHLER_SAMPLES = 25
KAHLER_SEED = 0


def _report(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS {detail}")


def test_criterion_01_dhr_triple_agreement(corpus):
    """dhr_degree == Groebner/normal-form degree == chain termination,
    for every degree-d multiset of rank >= 2 flats of every corpus matroid."""
    t0 = time.time()
    total = 0
    for name, m in corpus:
        report = dhr_triple_report(m)
        assert report.ok, name
        assert report.live_leaves + report.dead_counted == report.total_multisets, name
        total += report.total_multisets
    _report(
        "criterion 1: DHR triple agreement",
        f"{total} multisets across {len(corpus)} matroids in {time.time()-t0:.1f}s",
    )


def test_criterion_02_poincare_duality(corpus):
    """Pairing matrices between degrees k and d-k have full rank; the
    Hilbert function is palindromic."""
    t0 = time.time()
    pairings = 0
    for name, m in corpus:
        ring = ring_for(m)
        hilbert = ring.hilbert_function()
        assert hilbert == hilbert[::-1], name
        for k in range(ring.d + 1):
            mat = np.array(
                [[int(v) for v in row] for row in poincare_pairing(m, k)],
                dtype=np.int64,
            )
            assert mat.shape[0] == mat.shape[1] == hilbert[k], (name, k)
            assert is_full_rank(mat), (name, k)
            pairings += 1
    _report(
        "criterion 2: Poincare duality",
        f"{pairings} pairing matrices across {len(corpus)} matroids in {time.time()-t0:.1f}s",
    )


def test_criterion_03_nested_bijection(corpus):
    """The nested monomials of degree c map one-to-one onto the loopless
    relative nested quotients of corank c, which an independent route finds
    from linear subclasses of hyperplanes; the images agree with the
    matroid-intersection route and with cap products, and the Bergman
    weights are independent."""
    t0 = time.time()
    paired = 0
    for name, m in corpus:
        ring = ring_for(m)
        quotients = relative_nested_quotients(m)
        for c in range(ring.d + 1):
            weights = []
            seen_bases = set()
            for chain in ring.nested[c]:
                quotient = apply_exponent_chain(m, chain)
                # Cross-route: iterated matroid intersection with the
                # corank-one matroids H_F, largest flat first.
                slow = m
                for f, a in reversed(chain):
                    for _ in range(a):
                        slow = matroid_intersection(h_matroid(m.n_elements, f), slow)
                assert slow == quotient, (name, chain)
                assert quotient.bases not in seen_bases, (name, chain)
                seen_bases.add(quotient.bases)
                capped = cap_weight_with_monomial(m, chain)
                assert capped == bergman_class(quotient), (name, chain)
                weights.append(capped)
                paired += 1
            assert seen_bases == quotients[c], (name, c)
            cones = sorted({cone for w in weights for cone in w.weights})
            if cones:
                mat = np.array(
                    [weight_vector(w, cones) for w in weights], dtype=np.int64
                )
                assert rank_int(mat) == len(weights), (name, c)
    _report(
        "criterion 3: nested bijection",
        f"{paired} monomial/quotient pairs verified, onto every quotient, in {time.time()-t0:.1f}s",
    )


def test_criterion_04_lorentzian(corpus):
    """M-convex support and Hessian signatures (1, m-1, 0) for every
    nonvanishing derivative quadratic; the U(3,3) Hessian matches the
    reference matrix up to the factor 2."""
    t0 = time.time()
    gens, hess = truncation_hessian(uniform(3, 3))
    reference = np.array(
        [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1]], dtype=np.int64
    )
    assert (hess == 2 * reference).all()
    modes = {}
    hessians = 0
    for name, m in corpus:
        report = lorentzian_check(m)
        assert report.mconvex, name
        assert report.signatures_ok, name
        modes[report.mconvex_mode] = modes.get(report.mconvex_mode, 0) + 1
        hessians += report.hessians_checked
    _report(
        "criterion 4: Lorentzian",
        f"{hessians} Hessians, M-convexity modes {modes} in {time.time()-t0:.1f}s",
    )


def test_criterion_05_kahler_degree_one(corpus):
    """For sample_ample and 25 seeded positive combinations of nontrivial
    simplicial generators: the top power is positive and Q^1 has signature
    exactly (1, dim A^1 - 1, 0)."""
    t0 = time.time()
    checked = 0
    for name, m in corpus:
        ring = ring_for(m)
        divisors = [sample_ample(m).x_form]
        divisors += sample_nabla_cone(m, KAHLER_SAMPLES, KAHLER_SEED)
        for ell in divisors:
            report = kahler_check(m, ell)
            assert report.top_power > 0, name
            if ring.d >= 2:
                assert report.q1_signature == (1, len(ring.nested[1]) - 1, 0), name
            assert report.ok, name
            checked += 1
    _report(
        "criterion 5: Kahler degree <= 1",
        f"{checked} divisor classes across {len(corpus)} matroids in {time.time()-t0:.1f}s",
    )


def test_criterion_06_heron_rota_welsh(corpus):
    """mu vectors agree between the Möbius and Chow-degree routes, are
    log-concave, and have no internal zeros; anchors pinned."""
    t0 = time.time()
    assert char_poly(uniform(3, 4)).mu == [1, 3, 3]
    assert char_poly(uniform(2, 3)).mu == [1, 2]
    for name, m in corpus:
        mu = char_poly(m).mu
        assert mu == mu_via_degrees(m), name
        assert log_concavity_report(mu), name
        assert all(v > 0 for v in mu), name
    _report(
        "criterion 6: Heron-Rota-Welsh",
        f"mu vectors on {len(corpus)} matroids in {time.time()-t0:.1f}s",
    )


def test_criterion_07_balancing(corpus):
    """Bergman classes are balanced; the top Minkowski-weight space of the
    Bergman fan is one-dimensional for |E| <= 5."""
    t0 = time.time()
    kernels = 0
    for name, m in corpus:
        assert check_balanced(bergman_class(m)), name
        if m.n_elements <= 5:
            assert bergman_weight_space_dimension(m) == 1, name
            kernels += 1
    _report(
        "criterion 7: balancing",
        f"{len(corpus)} Bergman classes balanced, {kernels} weight-space kernels in {time.time()-t0:.1f}s",
    )


def _postnikov_bruteforce(n_plus_1: int) -> dict[tuple[int, ...], int]:
    """Ordered subset tuples (S_1, ..., S_n) with |union over J| >= |J| + 1,
    tallied per sorted multiset.  Pure subset cardinalities, no matroid calls."""
    n = n_plus_1 - 1
    subsets = [s for s in range(1, 1 << n_plus_1)]
    counts: dict[tuple[int, ...], int] = {}

    def extend(prefix: tuple[int, ...], unions: list[tuple[int, int]]) -> None:
        if len(prefix) == n:
            key = tuple(sorted(prefix))
            counts[key] = counts.get(key, 0) + 1
            return
        for s in subsets:
            new_unions = []
            ok = True
            for size, u in unions:
                nu = u | s
                if popcount(nu) < size + 2:
                    ok = False
                    break
                new_unions.append((size + 1, nu))
            if ok:
                extend(prefix + (s,), unions + new_unions)

    extend((), [(0, 0)])
    return counts


def test_criterion_08_postnikov_specialization():
    """Boolean volume polynomials match the direct ordered-tuple enumeration."""
    t0 = time.time()
    total_terms = 0
    for n in range(1, 5):
        m = uniform(n + 1, n + 1)
        vp = volume_polynomial(m)
        brute = _postnikov_bruteforce(n + 1)
        assert vp.terms == brute, f"n={n}"
        total_terms += len(brute)
    _report(
        "criterion 8: Postnikov specialization",
        f"{total_terms} multiset coefficients matched for n <= 4 in {time.time()-t0:.1f}s",
    )


def test_criterion_09_star_factorization():
    """A(M)/ann(x_F) matches A(M|F) (x) A(M/F) in dimensions and degree,
    for every proper flat of every corpus matroid with |E| <= 5."""
    t0 = time.time()
    flats_checked = 0
    for name, m in small_corpus(5):
        if m.rank_full < 2:
            continue
        for f in m.lattice().flats:
            if f in (0, m.full_mask):
                continue
            report = star_factorization_check(m, f)
            assert report.ok, (name, f)
            flats_checked += 1
    _report(
        "criterion 9: star factorization",
        f"{flats_checked} proper flats checked in {time.time()-t0:.1f}s",
    )


def test_criterion_10_cli_determinism(tmp_path):
    """Byte-identical output across processes; exit-code contract holds."""
    t0 = time.time()
    spec = tmp_path / "u34.json"
    spec.write_text(json.dumps({"type": "uniform", "r": 3, "n": 4}))
    outputs = []
    for hashseed in ("0", "42"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-m", "chowmat.cli", "verify", str(spec), "--suite", "all"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = subprocess.run(
        [sys.executable, "-m", "chowmat.cli", "info", str(bad)],
        capture_output=True,
    )
    assert proc.returncode == 2

    # Seeded failure fixture: a stub module forces one suite to fail.
    stub = tmp_path / "forced_failure.py"
    stub.write_text(
        "from chowmat import cli\n"
        "from chowmat.cli import main\n"
        "cli.bergman.check_balanced = lambda w: False\n"
        "main()\n"
    )
    proc = subprocess.run(
        [sys.executable, str(stub), "verify", str(spec), "--suite", "balance"],
        capture_output=True,
    )
    assert proc.returncode == 1
    _report("criterion 10: CLI determinism", f"completed in {time.time()-t0:.1f}s")
