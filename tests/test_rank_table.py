"""The rank table and truncations on it against the brute-force definitions, and the hard ground-set cap."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from chowmat import Matroid, direct_sum, graphic, uniform
from chowmat import cli
from chowmat.errors import InvalidRank
from chowmat.matroid import MAX_GROUND, subset_index
from chowmat.quotients import principal_truncation, truncate_by_subset

from _quotient_oracle import truncated_bases


@st.composite
def truncated_booleans(draw):
    """Iterated principal truncations of a Boolean matroid, as in the test corpus."""
    n = draw(st.integers(3, 7))
    m = uniform(n, n)
    for _ in range(draw(st.integers(0, n - 2))):
        flats = [f for f in m.lattice().flats if m.rank(f) >= 2]
        m = principal_truncation(m, draw(st.sampled_from(flats)))
    return m


@st.composite
def graphic_matroids(draw):
    """Cycle matroids of random multigraphs; self-loops give loops of the matroid."""
    vertices = draw(st.integers(2, 5))
    vertex = st.integers(0, vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=7))
    return graphic(vertices, edges)


@st.composite
def loopy_matroids(draw):
    base = draw(st.one_of(truncated_booleans(), graphic_matroids()))
    loops = draw(st.integers(1, 2))
    return direct_sum(base, uniform(0, loops))


matroids = st.one_of(truncated_booleans(), graphic_matroids(), loopy_matroids())


def brute_rank(m: Matroid, subset: int) -> int:
    return max(bin(b & subset).count("1") for b in m.bases)


def brute_closure(m: Matroid, subset: int) -> int:
    r = brute_rank(m, subset)
    return subset | sum(
        1 << e for e in range(m.n_elements) if brute_rank(m, subset | (1 << e)) == r
    )


@settings(max_examples=60, deadline=None)
@given(matroids)
def test_oracles_match_definitions(m):
    subsets = range(1 << m.n_elements)
    expected_rank = [brute_rank(m, s) for s in subsets]
    expected_closure = [brute_closure(m, s) for s in subsets]

    fresh = Matroid(m.n_elements, m.bases, validate=False)
    assert [fresh.rank(s) for s in subsets] == expected_rank

    # Table lookups, for every subset.
    assert fresh.rank_table().tolist() == expected_rank
    assert [fresh.rank(s) for s in subsets] == expected_rank
    assert [fresh.closure(s) for s in subsets] == expected_closure
    assert [fresh.is_flat(s) for s in subsets] == [c == s for s, c in zip(subsets, expected_closure)]
    # Point queries read the rank list; the closure table is built on demand.
    assert fresh._closure is None
    assert fresh.closure_table().tolist() == expected_closure
    assert fresh.spanning_sets() == [s for s in subsets if expected_rank[s] == m.rank_full]

    closed = sorted(set(expected_closure), key=lambda f: (expected_rank[f], f))
    lattice = Matroid(m.n_elements, m.bases, validate=False).lattice()
    assert list(lattice.flats) == closed
    assert list(lattice.rank_of) == [expected_rank[f] for f in closed]
    assert lattice.covers == {
        f: [g for g in closed if expected_rank[g] == expected_rank[f] + 1 and f & ~g == 0]
        for f in closed
        if expected_rank[f] < m.rank_full
    }


@settings(max_examples=40, deadline=None)
@given(matroids)
def test_truncation_on_tables_matches_the_basis_loop(m):
    """Truncation along every subset, flat or not, against the basis description;
    each stage's preset table is the one its bases give."""
    assert Matroid.from_rank_table(m.rank_table().copy()) == m
    for s in range(1, 1 << m.n_elements):
        if m.rank(s) == 0:
            with pytest.raises(InvalidRank):
                truncate_by_subset(m, s)
            continue
        t = truncate_by_subset(m, s)
        assert t.bases == tuple(sorted(truncated_bases(m.bases, s)))
        assert t.rank_table().tolist() == Matroid(m.n_elements, t.bases, validate=False).rank_table().tolist()


def test_one_read_only_subset_index_per_ground_set():
    subsets, sizes = subset_index(5)
    assert subset_index(5)[0] is subsets
    assert subsets.tolist() == list(range(32)) and sizes.tolist() == [s.bit_count() for s in range(32)]
    assert not subsets.flags.writeable and not sizes.flags.writeable


def test_subsets_at_the_cap_fit_uint16():
    """The closure table and the DHR union masks hold subsets as uint16."""
    assert MAX_GROUND <= 16
    table = uniform(2, MAX_GROUND).closure_table()
    assert table.dtype == np.uint16
    assert int(table[0b11]) == (1 << MAX_GROUND) - 1


def test_hard_cap_lattices():
    for r, n in [(2, MAX_GROUND), (3, 14)]:
        m = uniform(r, n)
        summary = cli.matroid_summary(m)
        assert summary["flats_by_rank"] == [math.comb(n, k) for k in range(r)] + [1]


def test_info_at_hard_cap(tmp_path):
    spec = tmp_path / "u216.json"
    spec.write_text(json.dumps({"type": "uniform", "r": 2, "n": MAX_GROUND}))
    result = CliRunner().invoke(cli.main, ["info", str(spec), "--max-ground", str(MAX_GROUND)])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["matroid"]["flats_by_rank"] == [1, MAX_GROUND, 1]
    assert doc["result"]["hilbert"] == [1, 1]
