"""Quotients, principal truncations, matroid intersections, Higgs chains,
relative nested quotients."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowmat import (
    enumerate_relative_nested,
    f_cyclic_flats,
    h_matroid,
    higgs_factorization,
    is_quotient,
    is_relative_nested,
    matroid_from_bases,
    matroid_intersection,
    principal_truncation,
    uniform,
)
from chowmat.errors import EmptyFlat, GroundSetMismatch, InvalidRank, NotAFlat
from chowmat.matroid import Matroid, direct_sum, popcount
from chowmat.quotients import apply_exponent_chain, nested_exponent_chains, truncate_by_subset

from _quotient_oracle import relative_nested_quotients, truncated_bases
from conftest import k4, random_truncation_corpus, truncated_booleans


def test_is_quotient_truncation():
    w = is_quotient(uniform(2, 4), uniform(3, 4))
    assert w is not None
    assert w.nullity(uniform(3, 4).full_mask) == 1
    assert w.corank == 1


def test_everything_is_quotient_of_boolean():
    for m in [uniform(2, 4), k4(), random_truncation_corpus()[3]]:
        assert is_quotient(m, uniform(m.n_elements, m.n_elements)) is not None


def test_rank_increase_is_not_quotient():
    assert is_quotient(uniform(3, 4), uniform(2, 4)) is None


def brute_flats(m: Matroid) -> set[int]:
    def rank(s: int) -> int:
        return max(popcount(b & s) for b in m.bases)

    return {
        s
        for s in range(1 << m.n_elements)
        if all(rank(s | 1 << e) > rank(s) for e in range(m.n_elements) if not s >> e & 1)
    }


@st.composite
def truncated_by_subsets(draw, n):
    """Iterated truncations of the Boolean matroid on n elements by arbitrary
    subsets of positive rank; rank-1 subsets make loops."""
    m = uniform(n, n)
    for _ in range(draw(st.integers(0, n - 1))):
        m = truncate_by_subset(m, draw(st.sampled_from([s for s in range(1, 1 << n) if m.rank(s)])))
    return m


@st.composite
def ground_set_pairs(draw):
    """(lower, upper) on one ground set: a truncation and its source in either
    order, or two unrelated matroids."""
    n = draw(st.integers(2, 5))
    m = draw(truncated_by_subsets(n))
    kind = draw(st.sampled_from(["truncation below", "truncation above", "unrelated"]))
    if kind == "unrelated":
        return m, draw(truncated_by_subsets(n))
    t = truncate_by_subset(m, draw(st.sampled_from([s for s in range(1, 1 << n) if m.rank(s)])))
    return (t, m) if kind == "truncation below" else (m, t)


def test_is_quotient_iff_every_flat_of_lower_is_a_flat_of_upper():
    outcomes = set()

    @settings(max_examples=80, deadline=None)
    @given(ground_set_pairs())
    def check(pair):
        lower, upper = pair
        expected = brute_flats(lower) <= brute_flats(upper)
        assert (is_quotient(lower, upper) is not None) == expected
        outcomes.add(expected)

    check()
    assert outcomes == {True, False}


def pairwise_nested(w) -> bool:
    """The definition: no two f-cyclic flats are incomparable."""
    cyc = f_cyclic_flats(w)
    return all(not (f & ~g and g & ~f) for f, g in itertools.combinations(cyc, 2))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5).flatmap(truncated_by_subsets), ground_set_pairs())
def test_relative_nested_in_one_pass_matches_the_pairwise_definition(m, pair):
    """The f-cyclic flats come sorted by (size, mask), so consecutive containment
    decides the chain."""
    for lower, upper in [(m, uniform(m.n_elements, m.n_elements)), pair]:
        w = is_quotient(lower, upper)
        if w is not None:
            assert is_relative_nested(w) == pairwise_nested(w)


def test_relative_nested_on_every_elementary_quotient():
    """Both verdicts, on the elementary quotients of U(3,4) from all its modular cuts."""
    m = uniform(3, 4)
    verdicts = set()
    for cut in _modular_cuts(m):
        w = is_quotient(_elementary_quotient_from_cut(m, cut), m)
        if w is not None:
            assert is_relative_nested(w) == pairwise_nested(w)
            verdicts.add(pairwise_nested(w))
    assert verdicts == {True, False}


def test_quotient_ground_mismatch():
    with pytest.raises(GroundSetMismatch):
        is_quotient(uniform(2, 3), uniform(2, 4))


def test_principal_truncation_top():
    assert principal_truncation(uniform(3, 4), 0b1111) == uniform(2, 4)


def test_principal_truncation_rank_one_flat_gives_loop():
    t = principal_truncation(uniform(3, 4), 0b0001)
    assert not t.is_loopless()
    assert t.rank_full == 2


def test_principal_truncation_errors():
    with pytest.raises(EmptyFlat):
        principal_truncation(uniform(3, 4), 0)
    t = principal_truncation(uniform(3, 4), 0b0011)
    with pytest.raises(NotAFlat):
        # {0} is not a flat of the truncation (it closes up to {0,1}).
        principal_truncation(t, 0b0001)
    # Subsets outside the ground set, negative ints included, get typed errors.
    for outside in (0b1000, -1):
        with pytest.raises(NotAFlat):
            principal_truncation(uniform(2, 3), outside)
    for outside in (0b1001, -2):
        with pytest.raises(GroundSetMismatch):
            truncate_by_subset(uniform(2, 3), outside)


def test_truncation_at_the_cap():
    m = uniform(3, 16)
    t = truncate_by_subset(m, 0b11)
    assert t.bases == tuple(sorted(truncated_bases(m.bases, 0b11)))


def test_principal_truncation_along_the_loops():
    """The flat of loops meets no basis: the shared body reports InvalidRank."""
    m = direct_sum(uniform(2, 2), uniform(0, 1))
    assert m.is_flat(0b100)
    with pytest.raises(InvalidRank):
        principal_truncation(m, 0b100)


def test_truncation_flat_partition():
    """Flats of T_F(M) split into {G >= F} and the flats far from F."""
    m = uniform(3, 4)
    f = 0b0011
    t = principal_truncation(m, f)
    upper = {g for g in m.lattice().flats if f & ~g == 0}
    lower = {
        g
        for g in m.lattice().flats
        if m.rank(g | f) >= m.rank(g) + 2
    }
    assert set(t.lattice().flats) == upper | lower
    assert upper.isdisjoint(lower)
    w = is_quotient(t, m)
    for g in upper:
        assert w.nullity(g) == 1
    for g in lower:
        assert w.nullity(g) == 0


def test_matroid_intersection_examples():
    u33 = uniform(3, 3)
    assert matroid_intersection(h_matroid(3, 0b111), u33) == uniform(2, 3)
    # The Boolean matroid is the identity for the intersection.
    for m in [uniform(2, 4), k4()]:
        boolean = uniform(m.n_elements, m.n_elements)
        assert matroid_intersection(m, boolean) == m


def test_intersection_depends_only_on_closure():
    # T(U34, {0,1}) closes {0,2} up to {0,1,2}.
    t = principal_truncation(uniform(3, 4), 0b0011)
    s = 0b0101
    cl = t.closure(s)
    assert cl != s
    assert matroid_intersection(h_matroid(4, s), t) == matroid_intersection(
        h_matroid(4, cl), t
    )


def test_truncation_equals_intersection_exhaustive():
    """T_F(M) = H_F wedge M for every flat of rank >= 1 (two routes)."""
    matroids = [uniform(r, n) for n in range(2, 7) for r in range(1, n + 1)]
    matroids += [k4(), random_truncation_corpus()[1]]
    for m in matroids:
        for f in m.lattice().flats:
            if m.rank(f) < 1:
                continue
            assert principal_truncation(m, f) == matroid_intersection(
                h_matroid(m.n_elements, f), m
            )


def test_f_cyclic_identity():
    m = uniform(2, 4)
    w = is_quotient(m, m)
    assert f_cyclic_flats(w) == [0]
    assert is_relative_nested(w)


def test_f_cyclic_truncation_of_uniform():
    w = is_quotient(uniform(2, 4), uniform(3, 4))
    assert f_cyclic_flats(w) == [0, 0b1111]
    assert is_relative_nested(w)


def test_f_cyclic_from_boolean_are_cyclic_flats():
    """Against the Boolean matroid, f-cyclic flats are the cyclic flats."""
    m = matroid_from_bases(4, [{0, 2}, {0, 3}, {1, 2}, {1, 3}])
    w = is_quotient(m, uniform(4, 4))
    assert w is not None

    def is_cyclic_flat(f: int) -> bool:
        if not m.is_flat(f):
            return False
        # No coloops in the restriction: every element of f lies in a circuit
        # within f, i.e. dropping it does not drop the rank.
        return all(m.rank(f ^ (1 << e)) == m.rank(f) for e in range(4) if f & (1 << e))

    expected = sorted(
        (f for f in m.lattice().flats if is_cyclic_flat(f)),
        key=lambda f: (popcount(f), f),
    )
    assert f_cyclic_flats(w) == expected == [0, 0b0011, 0b1100, 0b1111]
    assert not is_relative_nested(w)


def _elementary_quotient_from_cut(m: Matroid, cut: frozenset[int]) -> Matroid:
    """Rebuild the elementary quotient of a modular cut from its new flat family."""
    lattice = m.lattice()
    covered = {
        f
        for f in lattice.flats
        if any(k in cut for k in lattice.covers.get(f, []))
    }
    new_flats = (set(lattice.flats) - covered) | set(cut)
    # Heights in the new flat poset give the quotient rank function.
    heights: dict[int, int] = {}
    for f in sorted(new_flats, key=popcount):
        below = [heights[g] for g in new_flats if g != f and g & ~f == 0]
        heights[f] = max(below, default=-1) + 1
    new_rank = heights[m.full_mask]

    def rank_of(s: int) -> int:
        return min(heights[f] for f in new_flats if s & ~f == 0)

    bases = [
        s
        for s in range(1 << m.n_elements)
        if popcount(s) == new_rank and rank_of(s) == new_rank
    ]
    return matroid_from_bases(m.n_elements, bases)


def _modular_cuts(m: Matroid) -> list[frozenset[int]]:
    """All modular cuts not containing the bottom flat (brute-force filter)."""
    lattice = m.lattice()
    flats = [f for f in lattice.flats if f != lattice.flats[0]]
    cuts = []
    for bits_ in range(1, 1 << len(flats)):
        cut = frozenset(f for i, f in enumerate(flats) if bits_ & (1 << i))
        ok = True
        for f in cut:
            for g in lattice.flats:
                if f & ~g == 0 and g not in cut and g != f:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for f, g in itertools.combinations(cut, 2):
            if m.rank(f) + m.rank(g) == m.rank(f | g) + m.rank(f & g):
                meet = m.closure(f & g)
                if meet not in cut:
                    ok = False
                    break
        if ok:
            cuts.append(cut)
    return cuts


def test_corank_one_quotient_with_incomparable_cyclic_flats():
    """Search corank-1 quotients of U(3,4) by modular-cut enumeration."""
    m = uniform(3, 4)
    non_nested = []
    for cut in _modular_cuts(m):
        q = _elementary_quotient_from_cut(m, cut)
        if q.rank_full != m.rank_full - 1:
            continue
        w = is_quotient(q, m)
        assert w is not None
        if not is_relative_nested(w):
            non_nested.append((cut, q))
    assert non_nested, "expected a non-nested corank-1 quotient"
    # The classic witness: the cut generated by two disjoint 2-flats.
    expected = matroid_from_bases(4, [{0, 2}, {0, 3}, {1, 2}, {1, 3}])
    assert any(q == expected for _, q in non_nested)


def test_higgs_corank_zero():
    m = uniform(2, 4)
    chain = higgs_factorization(is_quotient(m, m))
    assert chain.stages == [m]
    assert chain.cuts == []


def test_higgs_u13_from_u33():
    w = is_quotient(uniform(1, 3), uniform(3, 3))
    chain = higgs_factorization(w)
    assert len(chain.stages) == 3
    assert chain.stages[0] == uniform(1, 3)
    assert chain.stages[1] == uniform(2, 3)
    assert chain.stages[2] == uniform(3, 3)
    for lower, upper in zip(chain.stages, chain.stages[1:]):
        ww = is_quotient(lower, upper)
        assert ww is not None and ww.corank == 1
    # The cuts collect the flats of each stage with nullity >= i.
    for i, cut in enumerate(chain.cuts, start=1):
        stage = chain.stages[i]
        assert cut == frozenset(
            g for g in stage.lattice().flats if w.nullity(g) >= i
        )


def test_higgs_on_random_quotients():
    for m in random_truncation_corpus()[:6]:
        boolean = uniform(m.n_elements, m.n_elements)
        w = is_quotient(m, boolean)
        chain = higgs_factorization(w)
        assert chain.stages[0] == m
        assert chain.stages[-1] == boolean
        for lower, upper in zip(chain.stages, chain.stages[1:]):
            ww = is_quotient(lower, upper)
            assert ww is not None and ww.corank == 1


def test_nullity_monotone():
    pairs = [
        (uniform(2, 4), uniform(3, 4)),
        (uniform(1, 3), uniform(3, 3)),
        (random_truncation_corpus()[2], None),
    ]
    for lower, upper in pairs:
        if upper is None:
            upper = uniform(lower.n_elements, lower.n_elements)
        w = is_quotient(lower, upper)
        full = lower.full_mask
        for s in range(full + 1):
            for e in range(lower.n_elements):
                if not s & (1 << e):
                    assert w.nullity(s) <= w.nullity(s | (1 << e))


def test_enumerate_relative_nested_counts():
    u34 = uniform(3, 4)
    assert len(enumerate_relative_nested(u34, 1)) == 7
    assert enumerate_relative_nested(u34, 0) == [u34]
    assert enumerate_relative_nested(uniform(3, 3), 2) == [uniform(1, 3)]


def test_enumerated_quotients_are_relative_nested_and_reconstruct():
    """Cyclic flats and their nullities recover the generating exponents."""
    for m in [uniform(3, 4), uniform(4, 5), k4()]:
        for corank in range(m.rank_full):
            chains = nested_exponent_chains(m, corank)
            quotients = enumerate_relative_nested(m, corank)
            assert len(chains) == len(quotients)
            for chain, q in zip(chains, quotients):
                w = is_quotient(q, m)
                assert w is not None
                assert is_relative_nested(w)
                cyc = [f for f in f_cyclic_flats(w) if w.nullity(f) > 0]
                assert cyc == [f for f, _ in chain]
                prev = 0
                for f, a in chain:
                    assert w.nullity(f) - prev == a
                    prev = w.nullity(f)


@settings(max_examples=40, deadline=None)
@given(truncated_booleans())
def test_chain_images_are_every_relative_nested_quotient(m):
    """Surjectivity of bijection (i): the chain images of corank c are all the
    loopless relative nested quotients of corank c, by the linear-subclass route."""
    for c, expected in enumerate(relative_nested_quotients(m)):
        images = {apply_exponent_chain(m, chain).bases for chain in nested_exponent_chains(m, c)}
        assert images == expected


def test_enumerate_relative_nested_loopless():
    for m in [uniform(3, 4), k4()]:
        for corank in range(m.rank_full):
            for q in enumerate_relative_nested(m, corank):
                assert q.is_loopless()
                assert q.rank_full == m.rank_full - corank


def test_apply_exponent_chain_identity():
    m = uniform(3, 4)
    assert apply_exponent_chain(m, ()) is m


def test_apply_exponent_chain_errors():
    """Every flat is checked once against M; a step along a flat of rank < 2 in
    its stage is refused, not turned into a loopy quotient."""
    m = uniform(3, 4)
    with pytest.raises(EmptyFlat):
        apply_exponent_chain(m, ((0, 1),))
    for outside in (0b10000, 0b10011, -1):
        with pytest.raises(NotAFlat):
            apply_exponent_chain(m, ((0b0011, 1), (outside, 1)))
    with pytest.raises(NotAFlat):
        apply_exponent_chain(uniform(2, 4), ((0b0011, 1),))  # pairs are not flats of U(2,4)
    with pytest.raises(InvalidRank):
        apply_exponent_chain(m, ((0b0001, 1),))  # rank 1 in M
    with pytest.raises(InvalidRank):
        apply_exponent_chain(m, ((0b0011, 2),))  # rank 1 in the second stage
    with pytest.raises(InvalidRank):
        apply_exponent_chain(m, ((0b0011, 1), (0b1111, 2)))  # not nested: a_2 >= rk E - rk F_1
