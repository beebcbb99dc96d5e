"""Nested basis, alphabet conversions, normal forms, degree map, pairing."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from chowmat import (
    ChowElement,
    alpha_beta,
    convert,
    degree,
    hilbert_function,
    nested_basis,
    normal_form,
    poincare_pairing,
    sample_ample,
    uniform,
)
from chowmat import chow
from chowmat.chow import ChowRing, SparseMap, imatmul, ring_for
from chowmat.errors import InhomogeneousElement, InvariantViolation, LoopyMatroid, WrongGrade
from chowmat.matroid import popcount
from chowmat.quotients import enumerate_relative_nested

from _quotient_oracle import relative_nested_quotients
from conftest import k4, random_truncation_corpus, small_corpus

U33 = uniform(3, 3)
U34 = uniform(3, 4)
E3 = 0b111
E4 = 0b1111


def test_nested_basis_counts_u34():
    basis = nested_basis(U34)
    assert [len(level) for level in basis] == [1, 7, 1]
    assert basis[0] == [()]
    assert basis[2] == [((E4, 2),)]
    # Degree 1: the six pairs and E, each to the first power.
    assert [mono[0][0] for mono in basis[1]] == [
        0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100, E4,
    ]


def test_hilbert_examples():
    assert hilbert_function(U34) == [1, 7, 1]
    assert hilbert_function(uniform(2, 3)) == [1, 1]
    assert hilbert_function(uniform(1, 4)) == [1]


def test_tinv_inverts_t_on_every_degree(corpus):
    """A fresh ring per matroid, so that the identity re-check inside
    tinv_matrix runs on every degree; the left product is checked here."""
    for name, m in [*corpus, ("U(5,6)", uniform(5, 6)), ("U(6,6)", uniform(6, 6))]:
        if not m.is_loopless():
            continue
        ring = ChowRing(m)
        for k in range(ring.d + 1):
            inv = ring.tinv_matrix(k)
            assert (imatmul(inv, ring.t_matrix(k)) == np.eye(len(inv), dtype=np.int64)).all(), (name, k)


@pytest.mark.parametrize("defect", ["diagonal", "cycle"])
def test_tinv_rejects_a_basis_change_that_is_not_unipotent(monkeypatch, defect):
    ring = ChowRing(U34)
    t = ring.t_matrix(1).copy()
    if defect == "diagonal":
        t[0, 0] *= 2
    else:  # the diagonal stays -1, but N = I + T gets a 2-cycle
        t[0, 1] = t[1, 0] = 1
    monkeypatch.setattr(ring, "t_matrix", lambda deg: t)
    with pytest.raises(InvariantViolation, match="not unitriangular"):
        ring.tinv_matrix(1)


def test_hilbert_palindromic_on_corpus():
    for name, m in small_corpus():
        if m.is_loopless():
            h = hilbert_function(m)
            assert h == h[::-1], name


def test_loopy_matroid_rejected():
    with pytest.raises(LoopyMatroid):
        ring_for(uniform(0, 2))


def test_convert_round_trips():
    hF = ChowElement.variable("h", 0b011)
    back = convert(U33, convert(U33, hF, "z"), "h")
    assert back == hF
    zF = ChowElement.variable("z", 0b011)
    assert convert(U33, convert(U33, zF, "h"), "z") == zF
    xF = ChowElement.variable("x", 0b011)
    assert convert(U33, convert(U33, xF, "z"), "x") == xF


def test_h_atom_is_zero():
    for m in [U33, U34, k4()]:
        atom = m.lattice().by_rank[1][0]
        assert normal_form(m, ChowElement.variable("h", atom)).is_zero()


def test_alpha_equals_h_E():
    for m in [uniform(2, 3), U33, U34]:
        alpha, _ = alpha_beta(m)
        nf_alpha = normal_form(m, alpha)
        assert nf_alpha == ChowElement.variable("h", m.full_mask)
        # alpha agrees with -z_E in the ring.
        minus_zE = ChowElement("z", {((m.full_mask, 1),): Fraction(-1)})
        assert normal_form(m, minus_zE) == nf_alpha


def test_alpha_beta_independent_of_basepoint():
    for m in [U34, k4()]:
        proper = [f for f in m.lattice().flats if f not in (0, m.full_mask)]
        for i in [1, 2]:
            alpha_i = ChowElement(
                "x", {((f, 1),): Fraction(1) for f in proper if f & (1 << i)}
            )
            beta_i = ChowElement(
                "x", {((f, 1),): Fraction(1) for f in proper if not f & (1 << i)}
            )
            alpha, beta = alpha_beta(m)
            assert normal_form(m, alpha_i) == normal_form(m, alpha)
            assert normal_form(m, beta_i) == normal_form(m, beta)


def test_alpha_beta_degrees_u23():
    m = uniform(2, 3)
    alpha, beta = alpha_beta(m)
    assert degree(m, alpha) == 1
    assert degree(m, beta) == 2


def test_normal_form_idempotent_and_multiplicative():
    m = U34
    alpha, beta = alpha_beta(m)
    alpha_h = convert(m, alpha, "h")
    h1 = ChowElement.variable("h", 0b0011)
    h2 = ChowElement.variable("h", E4)
    for e in [alpha, beta, h1, h2, alpha_h + 2 * h1]:
        nf = normal_form(m, e)
        assert normal_form(m, nf) == nf
    for a, b in [(alpha, beta), (h1, h2), (alpha_h, h1)]:
        lhs = normal_form(m, a * b)
        rhs = normal_form(m, normal_form(m, a) * normal_form(m, b))
        assert lhs == rhs


def test_normal_form_kills_incomparable_products():
    x1 = ChowElement.variable("x", 0b0011)
    x2 = ChowElement.variable("x", 0b0101)
    assert normal_form(U34, x1 * x2).is_zero()
    assert degree(U34, x1 * x2) == 0


def test_normal_form_fixes_nested_monomials():
    e = ChowElement("h", {((0b0011, 1),): Fraction(1)})
    assert normal_form(U34, e) == e


def test_normal_form_inhomogeneous_rejected():
    e = ChowElement("h", {(): Fraction(1), ((E4, 1),): Fraction(1)})
    with pytest.raises(InhomogeneousElement):
        normal_form(U34, e)


def test_h_square_of_two_flat_pairs_to_zero():
    h = ChowElement.variable("h", 0b011)
    assert degree(U33, h * h) == 0


def test_degree_of_maximal_chains():
    for name, m in small_corpus(5):
        if not m.is_loopless() or m.rank_full < 2:
            continue
        lat = m.lattice()
        d = m.rank_full - 1

        def chains(prefix, r):
            if r > d:
                yield prefix
                return
            for g in lat.by_rank[r]:
                if not prefix or prefix[-1] & ~g == 0:
                    yield from chains(prefix + [g], r + 1)

        for chain in chains([], 1):
            mono = ChowElement.monomial("x", chain)
            assert degree(m, mono) == 1, (name, chain)


def test_degree_wrong_grade():
    with pytest.raises(WrongGrade):
        degree(U34, ChowElement.variable("x", 0b0011))


def test_degree_h_E_squared():
    assert degree(U33, ChowElement.variable("h", E3, 2)) == 1


def test_pairing_k0():
    assert poincare_pairing(U34, 0) == [[Fraction(1)]]


def test_pairing_u33_degree_one():
    mat = poincare_pairing(U33, 1)
    expected = [
        [0, 1, 1, 1],
        [1, 0, 1, 1],
        [1, 1, 0, 1],
        [1, 1, 1, 1],
    ]
    assert [[int(v) for v in row] for row in mat] == expected


def test_pairing_full_rank_small():
    import numpy as np

    from chowmat._linalg import is_full_rank

    for name, m in small_corpus(5):
        if not m.is_loopless():
            continue
        d = m.rank_full - 1
        for k in range(d + 1):
            mat = np.array(
                [[int(v) for v in row] for row in poincare_pairing(m, k)],
                dtype=np.int64,
            )
            assert mat.shape[0] == mat.shape[1], name
            assert is_full_rank(mat), (name, k)


def test_nested_counts_match_quotient_enumeration():
    """The nested basis of degree c is counted by, and maps onto, the loopless
    relative nested quotients of corank c that the linear-subclass route finds."""
    for m in [U34, uniform(4, 5), k4(), random_truncation_corpus()[4]]:
        basis = nested_basis(m)
        for c, expected in enumerate(relative_nested_quotients(m)):
            assert len(basis[c]) == len(expected)
            assert {q.bases for q in enumerate_relative_nested(m, c)} == expected


def test_sample_ample_values_u23():
    m = uniform(2, 3)
    amp = sample_ample(m)
    assert amp.x_form == ChowElement(
        "x", {((1 << i, 1),): Fraction(2) for i in range(3)}
    )
    assert degree(m, amp.x_form) == 6


def test_sample_ample_strict_submodularity():
    """c_S = |S| * |E\\S| satisfies c_A + c_B - c_AuB - c_AnB = 2|A\\B||B\\A|."""
    for n in range(2, 7):
        full = (1 << n) - 1

        def c(s: int) -> int:
            return popcount(s) * (n - popcount(s))

        for a in range(full + 1):
            for b in range(full + 1):
                gap = c(a) + c(b) - c(a | b) - c(a & b)
                assert gap == 2 * popcount(a & ~b) * popcount(b & ~a)
                if a & ~b and b & ~a:
                    assert gap > 0


def test_sample_ample_excludes_trivial_flats():
    amp = sample_ample(U34)
    for mono in amp.x_form.terms:
        (mask, exp) = mono[0]
        assert mask not in (0, E4)
    # The h-form is supported on the nontrivial simplicial generators.
    assert amp.h_form.grade() == 1
    for mono in amp.h_form.terms:
        assert U34.rank(mono[0][0]) >= 2


def test_groebner_degree_equals_dhr_small():
    from chowmat.hodge import dhr_degree

    ring = ring_for(U34)
    flats = [f for f in U34.lattice().flats if U34.rank(f) >= 2]
    for multiset in itertools.combinations_with_replacement(flats, 2):
        assert ring.h_monomial_degree(multiset) == dhr_degree(U34, list(multiset))


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_groebner_degree_is_the_same_on_wider_products(monkeypatch, dtype):
    """Every degree-d multiset of nonempty flats of the small corpus, with the
    Groebner route's one dtype forced off float64."""
    cases = []
    for _, m in small_corpus():
        ring = ring_for(m)
        multisets = list(itertools.combinations_with_replacement([f for f in m.lattice().flats if f], ring.d))
        cases.append((ring, multisets, [ring.h_monomial_degree(ms) for ms in multisets]))
    monkeypatch.setattr(chow, "exact_dtype", lambda bound: dtype)
    for ring, multisets, expected in cases:
        assert [ring.h_monomial_degree(ms) for ms in multisets] == expected


def test_groebner_degree_stays_exact_past_int64(monkeypatch):
    """h-maps scaled by 3^19: the running bound passes 2^53 and 2^62 within one
    product, and every degree is still the exact integer."""
    m = uniform(4, 5)
    ring = ring_for(m)
    multisets = list(itertools.combinations_with_replacement([f for f in m.lattice().flats if f], ring.d))
    expected = [ring.h_monomial_degree(ms) for ms in multisets]
    h_matrix, scale = ring.h_matrix, 3**19

    def scaled(f, deg):
        h = h_matrix(f, deg)
        return SparseMap(h.shape, h.outs, h.ins, h.block * scale, h.bound * scale)

    monkeypatch.setattr(ring, "h_matrix", scaled)
    assert [ring.h_monomial_degree(ms) for ms in multisets] == [e * scale**ring.d for e in expected]
    assert any(expected)


def test_normal_form_preserves_ring_class_degree_two():
    """NF at a degree with several basis monomials keeps the ring class.

    Certified through the nondegenerate pairing: integrating against every
    basis monomial of the complementary degree must give the same values
    before and after reduction.
    """
    m = uniform(4, 5)
    ring = ring_for(m)
    d = ring.d
    assert len(ring.nested[2]) > 1
    samples = [
        ChowElement.variable("h", 0b00111) * ChowElement.variable("h", 0b00111),
        ChowElement.variable("h", 0b00011) * ChowElement.variable("h", 0b11111),
        ChowElement.variable("x", 0b00011) * ChowElement.variable("x", 0b00111),
        convert(m, alpha_beta(m)[0], "h") * ChowElement.variable("h", 0b10110),
    ]
    for e in samples:
        nf = normal_form(m, e)
        assert normal_form(m, nf) == nf
        for mono in nested_basis(m)[d - 2]:
            probe = ChowElement("h", {mono: Fraction(1)})
            e_h = convert(m, e, "h") if e.alphabet != "h" else e
            assert degree(m, nf * probe) == degree(m, e_h * probe)


def test_convert_round_trip_through_x_in_the_ring():
    """z_E -> x -> z is not a polynomial identity, but holds in the ring."""
    m = U34
    z_top = ChowElement.variable("z", E4)
    round_tripped = convert(m, convert(m, z_top, "x"), "z")
    assert round_tripped != z_top  # polynomial level: -alpha expands
    assert normal_form(m, round_tripped) == normal_form(m, z_top)


def test_pairing_entries_equal_dhr_values():
    """Every pairing entry is the DHR indicator of the combined multiset."""
    from chowmat.hodge import dhr_degree

    for m in [U34, k4(), random_truncation_corpus()[9]]:
        ring = ring_for(m)
        for k in range(ring.d + 1):
            mat = poincare_pairing(m, k)
            for i, bi in enumerate(ring.nested[k]):
                for j, bj in enumerate(ring.nested[ring.d - k]):
                    multiset = [f for f, a in bi for _ in range(a)]
                    multiset += [f for f, a in bj for _ in range(a)]
                    assert mat[i][j] == dhr_degree(m, multiset)


def test_multiplication_matrices_commute():
    """NF is a well-defined ring map: generator maps commute."""
    import numpy as np

    ring = ring_for(U34)
    flats = ring.flats_nonempty
    # Applied to the identity, the composite maps give their full matrices.
    basis = np.eye(len(ring.nested[0]), dtype=np.int64)
    for f in flats:
        for g in flats:
            lhs = ring.z_matrix(f, 1).apply(ring.z_matrix(g, 0).apply(basis))
            rhs = ring.z_matrix(g, 1).apply(ring.z_matrix(f, 0).apply(basis))
            assert (lhs == rhs).all(), (f, g)


def test_imatmul_exact_on_large_entries():
    import numpy as np

    from chowmat.chow import imatmul

    big = 3**40  # far beyond int64
    a = np.array([[big]], dtype=object)
    b = np.array([[big]], dtype=object)
    assert imatmul(a, b)[0, 0] == big * big
    mid = np.array([[2**40, 1]], dtype=np.int64)
    c = np.array([[2**40], [3]], dtype=np.int64)
    assert imatmul(mid, c)[0, 0] == 2**80 + 3


def test_chow_element_arithmetic():
    a = ChowElement.variable("h", 0b011)
    b = ChowElement.variable("h", 0b111)
    assert (a + b) - b == a
    assert (2 * a).terms[((0b011, 1),)] == 2
    assert (a * b).grade() == 2
    with pytest.raises(ValueError):
        a + ChowElement.variable("z", 0b011)
