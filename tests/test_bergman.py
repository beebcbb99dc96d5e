"""Bergman classes, balancing, cap products, Minkowski-weight spaces."""

import random

import numpy as np
import pytest

from chowmat import bergman_class, cap_with_h, check_balanced, degree_of_point, graphic, uniform
from chowmat._linalg import rank_int
from chowmat.bergman import (
    ChainCone,
    MinkowskiWeight,
    bergman_weight_space_dimension,
    cap_weight_with_monomial,
    weight_vector,
)
from chowmat.errors import LoopyMatroid, NotAFlat, WrongDimension
from chowmat.matroid import mask_of
from chowmat.quotients import apply_exponent_chain, nested_exponent_chains, principal_truncation

import _fraction_oracle as oracle
from conftest import k4, small_corpus


def test_bergman_u23():
    w = bergman_class(uniform(2, 3))
    assert w.dim == 1
    assert w.weights == {(0b001,): 1, (0b010,): 1, (0b100,): 1}


def test_bergman_point():
    w = bergman_class(uniform(1, 4))
    assert w.dim == 0
    assert degree_of_point(w) == 1


def test_bergman_u34_counts():
    w = bergman_class(uniform(3, 4))
    assert w.dim == 2
    assert len(w.weights) == 12
    for cone in w.weights:
        a, b = cone
        assert a & ~b == 0 and a != b


def test_bergman_rejects_loops():
    with pytest.raises(LoopyMatroid):
        bergman_class(uniform(0, 2))


def test_support_is_flat_chains_counted_by_covers():
    """Flag count via a covers DP agrees with the Bergman support size."""
    for name, m in small_corpus():
        if not m.is_loopless() or m.rank_full < 2:
            continue
        lat = m.lattice()
        counts = {f: 1 for f in lat.by_rank[1]}
        for r in range(1, m.rank_full - 1):
            nxt = {}
            for f in lat.by_rank[r]:
                for g in lat.covers[f]:
                    nxt[g] = nxt.get(g, 0) + counts.get(f, 0)
            counts = nxt
        expected = sum(counts.values()) if m.rank_full > 1 else 1
        assert len(bergman_class(m).weights) == expected, name


def test_balancing_holds_on_corpus():
    for name, m in small_corpus(5):
        if m.is_loopless():
            assert check_balanced(bergman_class(m)), name
    assert check_balanced(bergman_class(k4()))


def test_balancing_detects_flip():
    w = bergman_class(uniform(2, 3))
    flipped = dict(w.weights)
    flipped[(0b001,)] = -1
    assert not check_balanced(MinkowskiWeight(3, 1, flipped))


def test_balancing_detects_dropped_cone():
    w = bergman_class(uniform(3, 4))
    broken = dict(w.weights)
    first = sorted(broken)[0]
    del broken[first]
    assert not check_balanced(MinkowskiWeight(4, 2, broken))


def _perturbations(w: MinkowskiWeight, cone: ChainCone) -> list[MinkowskiWeight]:
    """w with the sign at ``cone`` flipped, with ``cone`` dropped, and with +-1 there."""
    out = []
    for change in (lambda v: -v, lambda v: 0, lambda v: v + 1, lambda v: v - 1):
        weights = dict(w.weights)
        weights[cone] = change(weights[cone])
        out.append(MinkowskiWeight(w.n_elements, w.dim, weights))
    return out


def test_balancing_matches_span_membership_oracle():
    """Block constancy agrees with the Fraction span-membership test."""
    k6_minus_triangle = graphic(
        6, [(a, b) for a in range(6) for b in range(a + 1, 6) if not {a, b} <= {0, 1, 2}]
    )
    cases = [(name, m) for name, m in small_corpus(6) if m.is_loopless()]
    cases.append(("K6 minus a triangle", k6_minus_triangle))
    rng = random.Random(7)
    for name, m in cases:
        w = bergman_class(m)
        assert check_balanced(w) and oracle.check_balanced(w), name
        if w.dim == 0:
            continue
        for perturbed in _perturbations(w, rng.choice(sorted(w.weights))):
            assert check_balanced(perturbed) == oracle.check_balanced(perturbed), name


def test_cap_with_h_top():
    assert cap_with_h(0b111, uniform(3, 3)) == bergman_class(uniform(2, 3))


def test_cap_with_h_rank_one_is_zero():
    z = cap_with_h(0b0001, uniform(3, 4))
    assert z.is_zero()
    assert z.dim == 1


def test_cap_with_h_errors():
    with pytest.raises(NotAFlat):
        cap_with_h(0b0011, uniform(2, 4))  # pairs are not flats of U(2,4)
    with pytest.raises(LoopyMatroid):
        cap_with_h(1, uniform(0, 2))


def test_cap_matches_truncation_and_intersection_route():
    m = uniform(3, 4)
    for f in m.lattice().flats:
        if m.rank(f) < 2:
            continue
        assert cap_with_h(f, m) == bergman_class(principal_truncation(m, f))


def test_iterated_caps_realize_monomial_chains():
    for m in [uniform(3, 4), k4()]:
        for corank in range(m.rank_full):
            for chain in nested_exponent_chains(m, corank):
                capped = cap_weight_with_monomial(m, chain)
                assert capped == bergman_class(apply_exponent_chain(m, chain))


def test_cap_with_a_non_nested_monomial_is_zero():
    """h_F^2 with rk F = 2 is not nested: its second step meets F at rank 1."""
    for m in [uniform(3, 4), uniform(4, 5), k4()]:
        for f in m.lattice().by_rank[2]:
            w = cap_weight_with_monomial(m, ((f, 2),))
            assert w.is_zero() and w.dim == m.rank_full - 3


def test_degree_of_point_linearity():
    w = bergman_class(uniform(1, 3))
    assert degree_of_point(w.scale(3)) == 3
    assert degree_of_point(MinkowskiWeight(3, 0, {})) == 0
    with pytest.raises(WrongDimension):
        degree_of_point(bergman_class(uniform(2, 3)))


def test_nested_weight_vectors_linearly_independent():
    """Linear independence of Bergman classes of nested quotients."""
    for m in [uniform(3, 4), uniform(3, 5), k4()]:
        for corank in range(m.rank_full):
            weights = [
                cap_weight_with_monomial(m, chain)
                for chain in nested_exponent_chains(m, corank)
            ]
            cones = sorted({c for w in weights for c in w.weights})
            if not cones:
                assert len(weights) == 1
                continue
            mat = np.array([weight_vector(w, cones) for w in weights], dtype=np.int64)
            assert rank_int(mat) == len(weights)


def test_weight_space_dimension_is_one():
    for name, m in small_corpus(5):
        if m.is_loopless():
            assert bergman_weight_space_dimension(m) == 1, name


def test_minkowski_weight_validation():
    with pytest.raises(WrongDimension):
        MinkowskiWeight(3, 1, {(0b111,): 1})  # E is not a proper subset
    with pytest.raises(WrongDimension):
        MinkowskiWeight(3, 2, {(0b011, 0b001): 1})  # not increasing
    w = MinkowskiWeight(3, 1, {(0b001,): 0})
    assert w.is_zero()


def test_weight_vector_roundtrip():
    w = bergman_class(uniform(2, 3))
    cones = [(mask_of([0]),), (mask_of([1]),), (mask_of([2]),)]
    assert weight_vector(w, cones) == [1, 1, 1]
