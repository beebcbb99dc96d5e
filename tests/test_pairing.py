"""Independent checks of ``ChowRing.pairing`` and of the rank-table χ.

The pairing is compared with three things it is not computed from: the
degree map on product elements, the volume polynomial evaluated at a
divisor's coefficients (BES result (iii): int ell^d), and the volume
polynomial's second partial derivatives (d(d-1) int h_F h_G ell^(d-2)).
The characteristic polynomial read off the rank table by Whitney's formula
is compared with the Möbius sum over the lattice of flats.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from chowmat import ChowElement, graphic, uniform
from chowmat.chow import ring_for
from chowmat.errors import WrongGrade
from chowmat.hodge import _divisor_coeffs, char_poly, hr_form, kahler_check, sample_nabla_cone, volume_polynomial

from conftest import small_corpus, truncated_booleans


def _k(n: int, minus: tuple = ()):
    return graphic(n, [e for e in itertools.combinations(range(n), 2) if e not in minus])


def _nabla_samples(m, count: int = 2, seed: int = 5):
    """Seeded divisors ell = sum c_F h_F over the rank >= 2 flats, with their c."""
    return [(ell, {mono[0][0]: int(c) for mono, c in ell.terms.items()}) for ell in sample_nabla_cone(m, count, seed)]


def _volume_at(vp, c: dict[int, int]) -> int:
    total = 0
    for mono, coeff in vp.terms.items():
        for f in mono:
            coeff *= c[f]
        total += coeff
    return total


def _volume_hessian_at(vp, c: dict[int, int]) -> dict[tuple[int, int], int]:
    """(F, G) -> d^2 vol / dt_F dt_G at t = c, over the pairs with a nonzero entry."""
    hess: dict[tuple[int, int], int] = {}
    for mono, coeff in vp.terms.items():
        exps = Counter(mono)
        for f, g in itertools.product(exps, repeat=2):
            rest = exps.copy()
            factor = rest[f]
            rest[f] -= 1
            factor *= rest[g]
            rest[g] -= 1
            if factor:
                value = coeff * factor
                for h, e in rest.items():
                    value *= c[h] ** e
                hess[f, g] = hess.get((f, g), 0) + value
    return hess


def test_top_power_is_the_volume_polynomial_at_the_coefficients():
    for name, m in small_corpus(5):
        if not m.is_loopless():
            continue
        vp = volume_polynomial(m)
        for ell, c in _nabla_samples(m):
            assert kahler_check(m, ell).top_power == _volume_at(vp, c), name


def test_hr_form_is_the_volume_hessian():
    for name, m in [*small_corpus(5), ("M(K4)", _k(4))]:
        d = m.rank_full - 1
        if not m.is_loopless() or d < 2:
            continue
        vp = volume_polynomial(m)
        for ell, c in _nabla_samples(m):
            rep = hr_form(m, ell, 1)
            hess = _volume_hessian_at(vp, c)
            flats = [mono[0][0] for mono in rep.basis]
            for (i, f), (j, g) in itertools.product(enumerate(flats), repeat=2):
                assert d * (d - 1) * rep.matrix[i][j] == hess.get((f, g), 0), (name, f, g)


def test_pairing_through_maps_is_the_degree_of_the_product():
    """Entry (i, j) of pairing(k, maps) for h-maps h_{F_1}, ..., h_{F_s} is the
    degree of b_i * h_{F_1} ... h_{F_s} * b_j, the element built and reduced;
    every entry up to 4 elements, a seeded sample of entries on 5."""
    rng = random.Random(11)
    for name, m in small_corpus(5):
        if not m.is_loopless():
            continue
        ring = ring_for(m)
        for k in range(ring.d + 1):
            s = rng.randint(0, ring.d - k)
            lower = ring.d - k - s
            flats = [rng.choice(ring.flats_nonempty) for _ in range(s)]
            maps = [ring.h_matrix(f, lower + t) for t, f in enumerate(flats)]
            got = ring.pairing(k, maps)
            assert got.shape == (len(ring.nested[k]), len(ring.nested[lower])), name
            middle = ChowElement.monomial("h", flats)
            entries = list(itertools.product(range(len(ring.nested[k])), range(len(ring.nested[lower]))))
            if m.n_elements == 5:
                entries = rng.sample(entries, min(3, len(entries)))
            for i, j in entries:
                product = ChowElement("h", {ring.nested[k][i]: 1}) * middle * ChowElement("h", {ring.nested[lower][j]: 1})
                assert got[i, j] == ring.degree(product), (name, k, flats, i, j)


def test_pairing_of_divisor_maps_is_the_degree_of_their_product():
    """d seeded divisors, one per degree: pairing(0, maps) is the degree of
    their product.  The divisors are a h_F + b h_G, with any nonempty flats
    and coefficients of both signs, and the full ``sample_nabla_cone``
    divisors over every rank >= 2 flat (23,751 h-terms in the product on
    U(5,5))."""
    rng = random.Random(8)
    for name, m in small_corpus(5):
        if not m.is_loopless():
            continue
        ring = ring_for(m)
        two_terms = [
            ChowElement("h", {((f, 1),): rng.choice([-3, -1, 1, 2, 5]) for f in rng.sample(ring.flats_nonempty, 2)})
            for _ in range(ring.d)
        ]
        for divisors in (two_terms, sample_nabla_cone(m, ring.d, seed=8)):
            product = ChowElement.one("h")
            maps = []
            for deg, ell in enumerate(divisors):
                maps.append(ring.divisor_matrix(_divisor_coeffs(ring, ell)[0], deg))
                product = product * ell
            assert ring.pairing(0, maps)[0, 0] == ring.degree(product), name


def test_pairing_rejects_degrees_outside_the_range():
    ring = ring_for(uniform(3, 4))
    with pytest.raises(WrongGrade):
        ring.pairing(3)
    with pytest.raises(WrongGrade):
        ring.pairing(-1)
    with pytest.raises(WrongGrade):
        ring.pairing(1, [ring.h_matrix(0b1111, 1)] * 2)


# -- the characteristic polynomial: Whitney against Möbius ------------------------


def reduced_chi_by_moebius(m) -> list[int]:
    """The Möbius route: chi(t) = sum_F mu(0, F) t^(r - rk F), divided by (t - 1)."""
    lattice = m.lattice()
    chi = [0] * (m.rank_full + 1)
    for f in lattice.flats:
        chi[m.rank(f)] += lattice.moebius(0, f)
    return list(itertools.accumulate(chi))[:-1]


def test_whitney_chi_matches_the_moebius_sum(corpus):
    extra = [("M(K5)", _k(5)), ("K6 minus a triangle", _k(6, ((0, 1), (0, 2), (1, 2)))),
             ("U(3,12)", uniform(3, 12)), ("U(5,10)", uniform(5, 10))]
    for name, m in [*corpus, *extra]:
        if m.is_loopless():
            assert char_poly(m).reduced_coeffs == reduced_chi_by_moebius(m), name


@settings(max_examples=40, deadline=None)
@given(truncated_booleans(largest=7))
def test_whitney_chi_matches_the_moebius_sum_on_random_matroids(m):
    assert char_poly(m).reduced_coeffs == reduced_chi_by_moebius(m)
