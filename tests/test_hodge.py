"""DHR numbers, volume polynomials, Lorentzian and Kähler verification,
characteristic polynomials, star factorization."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowmat import ChowElement, graphic, hodge, sample_ample, uniform
from chowmat._linalg import signature
from chowmat.chow import convert_element, normal_form, ring_for
from chowmat.matroid import direct_sum
from chowmat.errors import (
    EmptySetMember,
    GroundSetMismatch,
    InhomogeneousElement,
    InvariantViolation,
    LoopyMatroid,
    NotAFlat,
    NotAProperFlat,
    NotDegreeOne,
    WrongArity,
    WrongGrade,
)
from chowmat.hodge import (
    _divisor_coeffs,
    VolumePolynomial,
    chain_terminates_loopless,
    char_poly,
    dhr_check,
    dhr_degree,
    dhr_triple_report,
    hr_form,
    kahler_check,
    log_concavity_report,
    lorentzian_check,
    mconvex_support,
    mu_via_degrees,
    sample_nabla_cone,
    star_factorization_check,
    truncation_hessian,
    ultra_log_concave,
    volume_polynomial,
)

from _dhr_oracle import dhr_check_by_size
from _fraction_oracle import rank_exact_fraction
from _quotient_oracle import truncated_bases
from _scan_oracle import triple_scan
from conftest import fano, full_corpus, k4, random_truncation_corpus, small_corpus, truncated_booleans, vamos

U33 = uniform(3, 3)
U34 = uniform(3, 4)
E3 = 0b111
E4 = 0b1111


# -- DHR -----------------------------------------------------------------------


def test_dhr_check_examples():
    assert dhr_check(U33, [E3, E3])
    assert not dhr_check(U33, [0b011, 0b011])
    assert dhr_check(U34, [0b0011])
    with pytest.raises(EmptySetMember):
        dhr_check(U33, [0, E3])


def test_dhr_degree_examples():
    assert dhr_degree(U33, [0b011, 0b101]) == 1
    assert dhr_degree(U33, [0b011, 0b011]) == 0
    with pytest.raises(WrongArity):
        dhr_degree(U33, [E3])


def test_dhr_equals_chain_termination():
    flats = [f for f in U34.lattice().flats if U34.rank(f) >= 2]
    for multiset in itertools.combinations_with_replacement(flats, 2):
        assert dhr_degree(U34, list(multiset)) == (
            1 if chain_terminates_loopless(U34, list(multiset)) else 0
        )


@pytest.mark.parametrize(
    "members, error",
    [
        ([-1, 3], GroundSetMismatch),
        ([3, -8], GroundSetMismatch),
        ([16, 3], GroundSetMismatch),
        ([0, 3], EmptySetMember),
    ],
)
def test_routes_reject_bad_members(members, error):
    """A member with elements outside E, a negative int included, or an empty
    member is a typed error in every route, not a read from the end of a table."""
    ring = ring_for(U34)
    with pytest.raises(error):
        dhr_check(U34, members)
    with pytest.raises(error):
        dhr_degree(U34, members)
    with pytest.raises(error):
        ring.h_monomial_degree(members)
    with pytest.raises(error):
        chain_terminates_loopless(U34, members)


@st.composite
def flat_families(draw):
    """A truncated Boolean on up to six elements and one to five of its nonempty
    flats, with repeats."""
    m = draw(truncated_booleans(largest=6))
    family = draw(st.lists(st.sampled_from([f for f in m.lattice().flats if f]), min_size=1, max_size=4))
    return m, family + family[: draw(st.integers(0, 1))]


def test_dhr_subset_walk_matches_the_definition():
    outcomes = set()

    @settings(max_examples=200, deadline=None)
    @given(flat_families())
    def check(case):
        m, family = case
        expected = dhr_check_by_size(m, family)
        assert dhr_check(m, family) == expected
        outcomes.add(expected)

    check()
    assert outcomes == {True, False}


@st.composite
def subset_multisets(draw):
    """A truncated Boolean of rank r and r - 1 nonempty subsets of E, flats or not."""
    m = draw(truncated_booleans())
    d = m.rank_full - 1
    return m, draw(st.lists(st.integers(1, m.full_mask), min_size=d, max_size=d))


def test_three_routes_agree_on_subsets_and_their_closures():
    outcomes = set()

    @settings(max_examples=150, deadline=None)
    @given(subset_multisets())
    def check(case):
        m, members = case
        closures = [m.closure(s) for s in members]
        ring = ring_for(m)
        dhr = dhr_degree(m, members)
        assert dhr == ring.h_monomial_degree(members) == int(chain_terminates_loopless(m, members))
        assert dhr == dhr_degree(m, closures)
        assert ring.h_monomial_degree(members) == ring.h_monomial_degree(closures)
        assert chain_terminates_loopless(m, members) == chain_terminates_loopless(m, closures)
        outcomes.add(dhr)

    check()
    assert outcomes == {0, 1}


def chain_walk_on_bases(m, multiset) -> bool:
    bases = set(m.bases)
    for s in multiset:
        if max((b & s).bit_count() for b in bases) < 2:
            return False
        bases = truncated_bases(bases, s)
    return sorted(bases) == [1 << e for e in range(m.n_elements)]


@st.composite
def chain_walks(draw):
    """A matroid, loops allowed, and a multiset of nonempty subsets; a subset
    of rank 1 stops the walk."""
    m = draw(truncated_booleans())
    if draw(st.booleans()):
        m = direct_sum(m, uniform(0, 1))
    subsets = st.integers(1, m.full_mask)
    return m, draw(st.lists(subsets, min_size=max(m.rank_full - 2, 0), max_size=m.rank_full))


def test_chain_termination_walks_tables_like_the_basis_loop():
    outcomes = set()

    @settings(max_examples=150, deadline=None)
    @given(chain_walks())
    def check(case):
        m, multiset = case
        expected = chain_walk_on_bases(m, multiset)
        assert chain_terminates_loopless(m, multiset) == expected
        outcomes.add(expected)

    check()
    assert outcomes == {True, False}


def test_chain_termination_ends_on_the_leaf_rule(monkeypatch):
    """The point query's last step is the scan leaf's rule, so a fault there
    flips a live chain; an empty chain is M itself."""
    live = [E4, E4, 0b0011]
    assert chain_terminates_loopless(uniform(4, 4), live)
    assert chain_terminates_loopless(uniform(1, 3), [])
    assert not chain_terminates_loopless(uniform(2, 3), [])
    assert not chain_terminates_loopless(direct_sum(uniform(1, 2), uniform(0, 1)), [])
    monkeypatch.setattr(hodge, "_lands_on_rank_one", lambda ranks: np.zeros(1, dtype=bool))
    assert not chain_terminates_loopless(uniform(4, 4), live)


def test_dhr_triple_report_small():
    for m in [U34, k4(), fano(), random_truncation_corpus()[5]]:
        report = dhr_triple_report(m)
        assert report.ok
        assert report.live_leaves + report.dead_counted == report.total_multisets
    assert dhr_triple_report(U33).boundary_checked > 0


def test_spot_check_finds_its_dead_multisets():
    """The default spot check (50 dead multisets, seed 0) finds all 50 on
    every corpus matroid of rank >= 3, on the bench's scan matroids U(6,6),
    U(4,7) and M(K5), and on U(4,8), U(3,16) and the Vamos matroid, whose
    dead multisets are rare among the draws (about 1.3 %, 0.7 % and 2.3 %).
    Rank 2 leaves no d-multiset of rank >= 2 flats dead."""
    k5 = graphic(5, list(itertools.combinations(range(5), 2)))
    cases = [m for _, m in full_corpus()] + [uniform(6, 6), uniform(4, 7), k5, uniform(4, 8), uniform(3, 16), vamos()]
    assert [hodge._spot_check_dead(m, 50, 0) for m in cases] == [50 if m.rank_full >= 3 else 0 for m in cases]


@pytest.mark.parametrize("route", ["dhr", "groebner", "chain"])
def test_spot_check_sees_a_route_that_calls_a_dead_multiset_live(monkeypatch, route):
    m = uniform(4, 5)
    if route == "dhr":
        monkeypatch.setattr(hodge, "dhr_check", lambda m, multiset: True)
    elif route == "groebner":
        monkeypatch.setattr(ring_for(m), "h_monomial_degree", lambda multiset: Fraction(1))
    else:
        monkeypatch.setattr(hodge, "chain_terminates_loopless", lambda m, multiset: True)
    with pytest.raises(InvariantViolation, match="disagrees"):
        hodge._spot_check_dead(m, 50, 0)


def test_triple_scan_batched_matches_plain_reference():
    """The level-batched scan agrees with the straightforward recursion, also
    on ground sets past six elements (rank tables of 2^|E| rows) and on
    rank 2, where the root is the one block of level d - 1."""
    k5 = graphic(5, list(itertools.combinations(range(5), 2)))
    more = [uniform(2, 5), uniform(2, 16), uniform(3, 7), uniform(3, 9), uniform(4, 8)]
    for m in [U33, U34, uniform(4, 5), k4(), random_truncation_corpus()[2], fano(), uniform(4, 7), k5, *more]:
        fast = dhr_triple_report(m, spot_checks=0)
        slow = triple_scan(m)
        assert fast.ok and slow.ok
        assert fast.total_multisets == slow.total_multisets
        assert fast.live_leaves == slow.live_leaves
        assert fast.dead_counted == slow.dead_counted
        assert {type(c) for c in (fast.live_leaves, fast.dead_counted, fast.verified_nodes)} == {int}


# -- volume polynomial ------------------------------------------------------------


def test_volume_u33_pinned():
    vp = volume_polynomial(U33)
    a, b, c = 0b011, 0b101, 0b110
    assert vp.terms == {
        (E3, E3): 1,
        (a, E3): 2,
        (b, E3): 2,
        (c, E3): 2,
        (a, b): 2,
        (a, c): 2,
        (b, c): 2,
    }


def test_volume_u23():
    assert volume_polynomial(uniform(2, 3)).terms == {(E3,): 1}


def test_volume_rank_one_constant():
    assert volume_polynomial(uniform(1, 3)).terms == {(): 1}


def test_volume_rejects_loops():
    with pytest.raises(LoopyMatroid):
        volume_polynomial(uniform(0, 2))


def test_volume_coefficient_is_multinomial():
    vp = volume_polynomial(uniform(4, 4))
    for mono, coeff in vp.terms.items():
        counts = {}
        for f in mono:
            counts[f] = counts.get(f, 0) + 1
        expected = 1
        rem = len(mono)
        import math

        for c in counts.values():
            expected *= math.comb(rem, c)
            rem -= c
        assert coeff == expected


def test_volume_total_equals_ordered_tuples():
    """Sum of multinomials equals the number of ordered DHR tuples."""
    m = U34
    vp = volume_polynomial(m)
    flats = [f for f in m.lattice().flats if m.rank(f) >= 2]
    ordered = sum(
        1
        for tup in itertools.product(flats, repeat=2)
        if dhr_check(m, list(tup))
    )
    assert sum(vp.terms.values()) == ordered


def test_mconvex_small():
    assert mconvex_support(volume_polynomial(U33))
    assert mconvex_support(volume_polynomial(U34))
    assert mconvex_support(volume_polynomial(uniform(4, 5)))


def test_mconvex_detects_hole():
    vp = volume_polynomial(U33)
    broken = dict(vp.terms)
    del broken[(0b011, E3)]
    assert not mconvex_support(VolumePolynomial(U33, 2, broken))


def test_mconvex_two_point_fixture():
    fixture = VolumePolynomial(U33, 2, {(E3, E3): 1, (0b011, 0b101): 1})
    assert not mconvex_support(fixture)


def test_bivariate_ultra_log_concave():
    for name, m in small_corpus(5):
        if not m.is_loopless():
            continue
        vp = volume_polynomial(m)
        full = m.full_mask
        for f in m.lattice().flats:
            if m.rank(f) < 2 or f == full:
                continue
            seq = vp.restrict_to_pair(f, full)
            assert ultra_log_concave(seq), (name, f, seq)


def test_ultra_log_concave_rejects():
    assert not ultra_log_concave([1, 0, 1])  # internal zero
    assert not ultra_log_concave([1, 1, 5])


# -- characteristic polynomial -----------------------------------------------------


def test_char_poly_values():
    cp = char_poly(uniform(2, 3))
    assert cp.reduced_coeffs == [1, -2]
    assert cp.mu == [1, 2]
    cp34 = char_poly(U34)
    assert cp34.reduced_coeffs == [1, -3, 3]
    assert cp34.mu == [1, 3, 3]


def test_char_poly_leading_coefficient():
    for name, m in small_corpus():
        if m.is_loopless():
            assert char_poly(m).mu[0] == 1, name


def test_mu_via_degrees_agrees():
    for m in [uniform(2, 3), U34, k4(), random_truncation_corpus()[7]]:
        assert mu_via_degrees(m) == char_poly(m).mu


def test_log_concavity_report():
    assert log_concavity_report([1, 3, 3])
    assert log_concavity_report([1, 2])
    assert not log_concavity_report([1, 1, 5])


# -- Lorentzian ---------------------------------------------------------------------


def test_u33_hessian_pinned():
    gens, hess = truncation_hessian(U33)
    assert gens == [0b011, 0b101, 0b110, E3]
    expected = 2 * np.array(
        [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1]]
    )
    assert (hess == expected).all()
    sig = signature([[Fraction(int(v)) for v in row] for row in hess])
    assert sig == (1, 3, 0)


def test_lorentzian_small():
    for m in [U33, U34, k4()]:
        report = lorentzian_check(m)
        assert report.ok
        assert report.mconvex_mode == "exhaustive"
    # K4 has rank 3, so there is exactly one Hessian to check.
    assert lorentzian_check(k4()).hessians_checked == 1


def test_lorentzian_crosscheck_runs():
    report = lorentzian_check(uniform(4, 5))
    assert report.ok
    assert report.crosschecked_entries > 0


# -- Hodge-Riemann forms --------------------------------------------------------------


def test_hr_form_degree_zero_positive():
    amp = sample_ample(U34)
    rep = hr_form(U34, amp.x_form, 0)
    assert len(rep.matrix) == 1
    assert rep.matrix[0][0] > 0
    assert rep.signature == (1, 0, 0)


def test_hr_form_rank3_is_pairing():
    from chowmat import poincare_pairing

    amp = sample_ample(U33)
    rep = hr_form(U33, amp.x_form, 1)
    assert rep.matrix == poincare_pairing(U33, 1)
    assert rep.signature == (1, 3, 0)


def test_hr_form_zero_divisor():
    rep = hr_form(U34, ChowElement.zero("x"), 0)
    assert rep.matrix == [[Fraction(0)]]
    assert rep.signature == (0, 0, 1)


def test_hr_form_rejects_wrong_degree():
    with pytest.raises(WrongGrade):
        hr_form(uniform(2, 3), sample_ample(uniform(2, 3)).x_form, 1)
    with pytest.raises(NotDegreeOne):
        hr_form(U34, ChowElement.variable("h", E4, 2), 0)


def test_hr_form_rational_divisor():
    amp = sample_ample(U34)
    scaled = Fraction(1, 3) * amp.x_form
    rep = hr_form(U34, scaled, 1)
    assert rep.signature == (1, 6, 0)


def test_kahler_check_sample_ample_u34():
    rep = kahler_check(U34, sample_ample(U34).x_form)
    assert rep.ok
    assert rep.q1_signature == (1, 6, 0)
    assert rep.top_power > 0


def test_kahler_check_k4_sum_of_generators():
    m = k4()
    flats = [f for f in m.lattice().flats if m.rank(f) >= 2]
    ell = ChowElement("h", {((f, 1),): Fraction(1) for f in flats})
    rep = kahler_check(m, ell)
    assert rep.ok


def test_groebner_degree_agrees_on_multisets_with_atoms():
    """Multisets containing rank-1 flats vanish in all routes (h_a = 0)."""
    for m in [U34, k4()]:
        ring = ring_for(m)
        atoms = m.lattice().by_rank[1]
        others = [f for f in m.lattice().flats if m.rank(f) >= 2]
        for a in atoms[:2]:
            for g in others:
                multiset = [a, g]
                assert dhr_degree(m, multiset) == 0
                assert ring.h_monomial_degree(multiset) == 0
                assert not chain_terminates_loopless(m, multiset)


def test_kahler_check_rejects_boundary_nef_class():
    """A single simplicial generator is nef but not ample; HR0 must fail."""
    ell = ChowElement.variable("h", 0b0011)
    rep = kahler_check(U34, ell)
    assert rep.top_power == 0
    assert not rep.ok


def test_kahler_check_rank2_vacuous():
    m = uniform(2, 4)
    rep = kahler_check(m, sample_ample(m).x_form)
    assert rep.ok and rep.degree_one_vacuous
    assert rep.q1_signature is None


def test_kahler_q1_signature_is_the_hr_form_signature(corpus):
    """kahler_check reads Q^1 off the integer helper; hr_form builds its Fraction
    matrix. Both must give the same signature, for the ample divisor and two
    nabla samples on every corpus matroid of rank >= 3."""
    for name, m in corpus:
        ring = ring_for(m)
        if ring.d < 2:
            continue
        for ell in [ring.ample_x_form(), *sample_nabla_cone(m, 2, seed=3)]:
            rep = kahler_check(m, ell)
            assert rep.q1_signature == hr_form(m, ell, 1).signature, name
            assert rep.q1_signature == signature(hr_form(m, ell, 1).matrix), name


def test_divisor_coeffs_match_the_alphabet_conversion():
    """The linear substitutions x_F = z_F and h_F = -sum_{G >= F} z_G agree with
    convert_element, on integer and rational divisors in all three alphabets."""
    for m in [U34, k4(), fano(), random_truncation_corpus()[4]]:
        ring = ring_for(m)
        elements = [ring.ample_x_form(), Fraction(2, 3) * ring.ample_x_form(), *sample_nabla_cone(m, 2, seed=4)]
        elements.append(ChowElement("h", {((f, 1),): Fraction(f % 5 - 2, 1 + f % 3) for f in ring.flats_nonempty}))
        elements.append(ChowElement("z", {((f, 1),): Fraction(f % 7 - 3) for f in ring.flats_nonempty}))
        for e in elements:
            z = convert_element(ring, e, "z")
            denom = math.lcm(*(c.denominator for c in z.terms.values()))
            expected = {mono[0][0]: int(c * denom) for mono, c in z.terms.items()}
            coeffs, scale = _divisor_coeffs(ring, e)
            assert scale == denom
            assert {f: c for f, c in coeffs.items() if c} == expected


def test_divisor_coeffs_fall_back_for_other_elements():
    ring = ring_for(U34)
    with pytest.raises(NotDegreeOne):
        _divisor_coeffs(ring, ChowElement.variable("h", E4, 2))
    with pytest.raises(NotDegreeOne):
        _divisor_coeffs(ring, ChowElement.one("x"))
    with pytest.raises(NotAFlat):
        _divisor_coeffs(ring, ChowElement.variable("x", E4))
    with pytest.raises(NotAFlat):
        _divisor_coeffs(ring, ChowElement.variable("h", 0b0111))
    with pytest.raises(InhomogeneousElement):
        _divisor_coeffs(ring, ChowElement.variable("h", E4) + ChowElement.variable("h", E4, 2))
    assert _divisor_coeffs(ring, ChowElement.zero("h")) == ({}, 1)


@pytest.mark.parametrize("alphabet", ["x", "z", "h"])
def test_the_empty_flat_is_no_divisor_variable(alphabet):
    """x_0, z_0 and h_0 are no variables: the ring's superset lists, which the
    alphabets read, are keyed by the nonempty flats only."""
    ell = ChowElement.variable(alphabet, 0)
    with pytest.raises(NotAFlat):
        hr_form(U34, ell, 1)
    with pytest.raises(NotAFlat):
        kahler_check(U34, ell)


def test_sample_ample_keeps_its_x_form():
    for m in [U34, k4()]:
        ring = ring_for(m)
        amp = sample_ample(m)
        assert amp.x_form == ring.ample_x_form()
        assert amp.h_form == normal_form(m, ring.ample_x_form())


def test_kahler_seeded_samples():
    m = U34
    for ell in sample_nabla_cone(m, 5, seed=1):
        rep = kahler_check(m, ell)
        assert rep.ok
        assert rep.q1_signature == (1, 6, 0)


def test_sample_nabla_cone_deterministic():
    a = sample_nabla_cone(U34, 3, seed=7)
    b = sample_nabla_cone(U34, 3, seed=7)
    assert a == b


def test_q1_signature_invariant_under_basis_change():
    """Recompute Q^1 in a basis extracted from the x-variables."""
    for m in [U34, k4()]:
        ring = ring_for(m)
        ell = sample_ample(m).x_form
        rep = hr_form(m, ell, 1)
        n1 = len(ring.nested[1])
        # Coordinates of each x_F in the nested h-basis of degree 1.
        cols = []
        for f in ring.flats_nonempty:
            if f == m.full_mask:
                continue
            nf = normal_form(m, ChowElement.variable("x", f))
            cols.append([nf.terms.get(mono, Fraction(0)) for mono in ring.nested[1]])
        # Greedily extract a basis among the columns.
        chosen: list[list[Fraction]] = []
        for col in cols:
            trial = chosen + [col]
            if rank_exact_fraction(trial) == len(trial):
                chosen.append(col)
            if len(chosen) == n1:
                break
        assert len(chosen) == n1
        b = [[chosen[j][i] for j in range(n1)] for i in range(n1)]
        q = rep.matrix
        q_new = [
            [
                sum(
                    b[r][i] * q[r][s] * b[s][j]
                    for r in range(n1)
                    for s in range(n1)
                )
                for j in range(n1)
            ]
            for i in range(n1)
        ]
        assert signature(q_new) == rep.signature


# -- star factorization -----------------------------------------------------------------


def test_star_factorization_u34():
    f = 0b0011
    rep = star_factorization_check(U34, f)
    assert rep.ok
    assert rep.quotient_dims == rep.tensor_dims == [1, 1]
    assert rep.degree_probe == 1
    assert rep.tensor_degree_probe == 1


def test_star_factorization_rank_one_flat():
    m = U34
    rep = star_factorization_check(m, 0b0001)
    # M|F is trivial, so the quotient dims match those of A(M/F).
    from chowmat import contract, hilbert_function

    quotient = contract(m, 0b0001).matroid
    assert rep.quotient_dims == hilbert_function(quotient)
    assert rep.ok


def test_star_factorization_all_proper_flats_small():
    for name, m in small_corpus(5):
        if not m.is_loopless() or m.rank_full < 2:
            continue
        for f in m.lattice().flats:
            if f in (0, m.full_mask):
                continue
            rep = star_factorization_check(m, f)
            assert rep.ok, (name, f)


def test_star_factorization_k4_triangle():
    m = k4()
    triangle = m.closure(0b000011)  # edges 01, 02 close up with 12
    rep = star_factorization_check(m, triangle)
    assert rep.ok
    assert rep.quotient_dims == rep.tensor_dims


def test_star_factorization_errors():
    with pytest.raises(NotAProperFlat):
        star_factorization_check(U34, 0)
    with pytest.raises(NotAProperFlat):
        star_factorization_check(U34, E4)
    with pytest.raises(NotAProperFlat):
        star_factorization_check(uniform(2, 4), 0b0011)


# -- signatures ------------------------------------------------------------------------


def test_signature_basics():
    assert signature([[Fraction(2)]]) == (1, 0, 0)
    assert signature([[Fraction(0)]]) == (0, 0, 1)
    hyper = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert signature(hyper) == (1, 1, 0)


def test_signature_matches_numpy_on_random_integer_matrices():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        a = rng.integers(-4, 5, size=(n, n))
        sym = a + a.T
        sig = signature([[Fraction(int(v)) for v in row] for row in sym])
        eig = np.linalg.eigvalsh(sym.astype(float))
        pos = int((eig > 1e-9).sum())
        neg = int((eig < -1e-9).sum())
        zero = n - pos - neg
        assert sig == (pos, neg, zero)
