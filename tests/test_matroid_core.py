"""Matroid construction, oracles, lattice of flats, Möbius function."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowmat import (
    direct_sum,
    graphic,
    h_matroid,
    mask_of,
    matroid_from_bases,
    uniform,
)
from chowmat.errors import (
    EmptyBases,
    ExchangeAxiomViolation,
    GroundSetTooLarge,
    InvalidEdge,
    InvalidRank,
    NotComparable,
)
from chowmat.matroid import MAX_GROUND, bits, popcount

from conftest import k4, k4_edges, random_truncation_corpus, truncated_booleans

E3 = 0b111


def test_from_bases_uniform23():
    m = matroid_from_bases(3, [{0, 1}, {0, 2}, {1, 2}])
    assert m == uniform(2, 3)


def test_from_bases_unequal_cardinality_rejected():
    with pytest.raises(ExchangeAxiomViolation):
        matroid_from_bases(3, [{0, 1}, {2}])
    # Its rank table, max |X ∩ B|, is that of U(1,1) plus a loop.
    with pytest.raises(ExchangeAxiomViolation):
        matroid_from_bases(2, [{0}, {0, 1}])


def test_from_bases_exchange_violation_rejected():
    # {0,1} and {2,3} cannot be the only bases of a matroid.
    with pytest.raises(ExchangeAxiomViolation):
        matroid_from_bases(4, [{0, 1}, {2, 3}])


def test_from_bases_empty_rejected():
    with pytest.raises(EmptyBases):
        matroid_from_bases(3, [])


def exchange_by_pairs(bases: list[int]) -> bool:
    """The basis exchange axiom, pair by pair: for bases A != B and e in A - B
    some f in B - A makes A - e + f a basis."""
    base_set = set(bases)
    return all(
        any((a ^ (1 << e)) | (1 << f) in base_set for f in bits(b & ~a))
        for a, b in itertools.permutations(base_set, 2)
        for e in bits(a & ~b)
    )


@st.composite
def equal_size_families(draw):
    """Families of equal-size subsets: the bases of a truncated Boolean or a
    graphic matroid with a few sets dropped or added, or random sets."""
    kind = draw(st.sampled_from(["truncation", "graphic", "random"]))
    if kind == "truncation":
        m = draw(truncated_booleans(largest=6))
    elif kind == "graphic":
        pairs = list(itertools.combinations(range(4), 2))
        m = graphic(4, draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6)))
    if kind == "random":
        n = draw(st.integers(1, 6))
        r = draw(st.integers(0, n))
        family = set()
    else:
        n, r, family = m.n_elements, m.rank_full, set(m.bases)
    sets = [mask_of(c) for c in itertools.combinations(range(n), r)]
    family ^= set(draw(st.lists(st.sampled_from(sets), max_size=3)))
    if not family:
        family = {draw(st.sampled_from(sets))}
    return n, sorted(family)


def test_exchange_check_matches_the_pairwise_axiom():
    verdicts = set()

    @settings(max_examples=300, deadline=None)
    @given(equal_size_families())
    def check(case):
        n, bases = case
        try:
            m = matroid_from_bases(n, bases)
        except ExchangeAxiomViolation:
            valid = False
        else:
            valid = True
            assert m.bases == tuple(bases)
        assert valid == exchange_by_pairs(bases)
        verdicts.add(valid)

    check()
    assert verdicts == {True, False}


def test_exchange_check_reaches_the_first_pair():
    # r(X + a) + r(X + b) >= r(X + a + b) + r(X) fails only for {a, b} = {0, 1}.
    bases = [mask_of(b) for b in ({0, 1}, {0, 3}, {1, 3}, {2, 3})]
    assert not exchange_by_pairs(bases)
    with pytest.raises(ExchangeAxiomViolation, match=r"r\(X \+ 0\) \+ r\(X \+ 1\)"):
        matroid_from_bases(4, bases)


def test_from_bases_all_triples_is_u34():
    m = matroid_from_bases(4, itertools.combinations(range(4), 3))
    assert m == uniform(3, 4)
    assert m.rank_full == 3


def test_uniform_counts():
    assert len(uniform(2, 3).bases) == 3
    assert len(uniform(3, 3).bases) == 1
    rank0 = uniform(0, 2)
    assert rank0.rank_full == 0
    assert not rank0.is_loopless()


def test_uniform_invalid_rank():
    with pytest.raises(InvalidRank):
        uniform(4, 3)


def test_ground_set_cap():
    with pytest.raises(GroundSetTooLarge):
        uniform(1, MAX_GROUND + 1)


def test_graphic_k3_is_u23():
    assert graphic(3, [(0, 1), (1, 2), (0, 2)]) == uniform(2, 3)


def test_graphic_k4_is_rank3_with_16_bases():
    m = k4()
    assert m.rank_full == 3
    assert len(m.bases) == 16  # Cayley: 4^2 spanning trees


def test_graphic_endpoints_must_be_vertices():
    """Negative endpoints do not wrap around to the last vertices."""
    for vertices, edges in [(3, [(-1, 0), (0, 1)]), (3, [(0, 3)]), (0, [(0, 0)])]:
        with pytest.raises(InvalidEdge):
            graphic(vertices, edges)
    # The vertices only bound the endpoints: isolated vertices change nothing.
    assert graphic(10**6, [(7, 900_000), (900_000, 3), (3, 7)]) == graphic(3, [(0, 1), (1, 2), (2, 0)])


def test_graphic_parallel_edges():
    m = graphic(2, [(0, 1), (0, 1)])
    assert m.rank_full == 1
    assert len(m.bases) == 2


def test_rank_examples():
    u23 = uniform(2, 3)
    assert u23.rank(0b011) == 2
    assert u23.rank(0) == 0
    # Any triangle of K4 has rank 2; edges 01, 02, 12 are indices 0, 1, 3.
    assert k4().rank(mask_of([0, 1, 3])) == 2


def test_closure_examples():
    u23 = uniform(2, 3)
    assert u23.closure(0b001) == 0b001
    assert u23.closure(0b011) == E3
    # Two edges of a triangle close up to the third.
    assert k4().closure(mask_of([0, 1])) == mask_of([0, 1, 3])


def test_flat_lattice_counts():
    assert len(uniform(2, 3).lattice()) == 5
    assert len(uniform(3, 4).lattice()) == 12
    rank0 = uniform(0, 3)
    assert list(rank0.lattice().flats) == [rank0.full_mask]


def test_flat_count_formula_uniform():
    # U(r, n) has sum_{k < r} C(n, k) flats below the top, plus E itself.
    for n in range(1, 8):
        for r in range(1, n + 1):
            expected = sum(math.comb(n, k) for k in range(r)) + 1
            assert len(uniform(r, n).lattice()) == expected


def test_moebius_values():
    u23 = uniform(2, 3)
    lat = u23.lattice()
    for f in lat.flats:
        assert lat.moebius(f, f) == 1
    assert lat.moebius(0, u23.full_mask) == 2
    u34 = uniform(3, 4)
    assert u34.lattice().moebius(0, u34.full_mask) == -3


def test_moebius_not_comparable():
    lat = uniform(3, 4).lattice()
    with pytest.raises(NotComparable):
        lat.moebius(0b0011, 0b0101)


def test_moebius_alternating_sum():
    from conftest import small_corpus

    matroids = [m for _, m in small_corpus(5) if m.is_loopless()]
    for m in matroids + [k4()]:
        lat = m.lattice()
        for f in lat.flats:
            for h in lat.flats:
                if f & ~h:
                    continue
                total = sum(lat.moebius(f, g) for g in lat.interval(f, h))
                assert total == (1 if f == h else 0)


def test_restrict_contract_uniform():
    from chowmat import contract, restrict

    u34 = uniform(3, 4)
    two_flat = 0b0011
    res = restrict(u34, two_flat)
    assert res.matroid == uniform(2, 2)
    assert res.relabel == {0: 0, 1: 1}
    con = contract(u34, two_flat)
    assert con.matroid == uniform(1, 2)
    assert con.relabel == {2: 0, 3: 1}
    # Restricting to everything is the identity.
    assert restrict(u34, u34.full_mask).matroid == u34


def test_direct_sum():
    assert direct_sum(uniform(1, 1), uniform(1, 1)) == uniform(2, 2)
    # H_E on three elements is U(2,3).
    assert h_matroid(3, E3) == uniform(2, 3)
    # H_{0,1} on three elements has bases E\0 and E\1.
    h = h_matroid(3, 0b011)
    assert set(h.bases) == {0b110, 0b101}
    # The defining decomposition: U(|S|-1, S) + U(|E\S|, E\S) on {0,1} + {2}.
    assert h == direct_sum(uniform(1, 2), uniform(1, 1))
    assert sorted(map(popcount, h.bases)) == [2, 2]


def test_is_loopless():
    assert uniform(2, 3).is_loopless()
    assert not uniform(0, 2).is_loopless()
    assert not direct_sum(uniform(1, 2), uniform(0, 1)).is_loopless()


def test_rank_submodular_exhaustive():
    for m in [uniform(3, 5), k4(), random_truncation_corpus()[0]]:
        full = m.full_mask
        for a in range(full + 1):
            for b in range(full + 1):
                assert m.rank(a) + m.rank(b) >= m.rank(a | b) + m.rank(a & b)


def test_closure_idempotent_extensive():
    for m in [uniform(2, 4), uniform(3, 5), k4()]:
        for s in range(m.full_mask + 1):
            cl = m.closure(s)
            assert cl & s == s
            assert m.closure(cl) == cl
            assert m.rank(cl) == m.rank(s)


def test_k4_flats_are_vertex_partitions():
    """Flats of M(K4) correspond to partitions of the vertices into connected parts."""
    m = k4()
    edges = k4_edges()
    flats = set(m.lattice().flats)
    # For each flat, the edge set must equal all edges inside the connected
    # components it spans.
    for f in flats:
        adj = {v: {v} for v in range(4)}
        for i in bits(f):
            u, v = edges[i]
            joined = adj[u] | adj[v]
            for w in joined:
                adj[w] = joined
        induced = mask_of(
            i for i, (u, v) in enumerate(edges) if v in adj[u]
        )
        assert induced == f
    # Conversely there are as many flats as partitions of 4 vertices.
    assert len(flats) == 15  # Bell(4)


def test_spanning_sets_uniform():
    u23 = uniform(2, 3)
    assert sorted(u23.spanning_sets()) == [0b011, 0b101, 0b110, 0b111]
