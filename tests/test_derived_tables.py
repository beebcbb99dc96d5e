"""The lattice's flat tables, read by the ring and the nested basis, and the
one memo that keeps the ring's per-degree tables and the Möbius values."""

import numpy as np
import pytest

from chowmat import graphic, uniform
from chowmat.chow import ChowRing
from chowmat.errors import NotAFlat, NotComparable
from chowmat.matroid import memoized

from conftest import full_corpus, k4


def corpus():
    k5 = graphic(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    return [m for _, m in full_corpus()] + [k5]


def test_ring_reads_its_flat_tables_off_the_lattice():
    """The ring's flats, ranks and superset lists are the ones it used to build
    itself, with no key for the empty flat; every list is in mask order."""
    for m in corpus():
        ring = ChowRing(m)
        flats = [f for f in m.lattice().flats if f]
        masks = np.array(m.lattice().flats, dtype=np.int64)
        assert list(ring.flats_nonempty) == flats
        assert ring.flat_rank == {f: m.rank(f) for f in flats}
        assert ring.supersets == {f: sorted(masks[masks & f == f].tolist()) for f in flats}
        assert ring.lattice.supersets[0] == sorted(m.lattice().flats)


class Counter:
    def __init__(self):
        self.calls = 0

    @memoized
    def square(self, x):
        self.calls += 1
        if x < 0:
            raise ValueError(x)
        return [x * x]


def test_memoized_keeps_one_result_per_instance_and_arguments():
    a, b = Counter(), Counter()
    assert a.square(3) is a.square(3) and a.calls == 1
    assert b.square(3) == a.square(3) and b.square(3) is not a.square(3)
    for _ in range(2):
        with pytest.raises(ValueError):
            a.square(-1)
    assert a.calls == 3 and list(vars(a)["_square_memo"]) == [(3,)]


def memos(obj) -> dict:
    return {name: dict(memo) for name, memo in vars(obj).items() if name.endswith("_memo")}


def test_a_raising_call_stores_nothing():
    ring = ChowRing(uniform(3, 4))
    ring.h_matrix(0b0001, 0)
    lattice = ring.lattice
    lattice.moebius(0, 0b1111)
    before, before_lattice = memos(ring), memos(lattice)
    for _ in range(2):
        for method in (ring.z_matrix, ring.h_matrix):
            with pytest.raises(NotAFlat):
                method(0b0111, 0)
        with pytest.raises(NotComparable):
            lattice.moebius(0b0011, 0b0101)
        with pytest.raises(NotComparable):
            lattice.moebius(0b0011, 0b0111)
    assert memos(ring) == before and memos(lattice) == before_lattice


def test_repeated_calls_return_the_same_table_and_rings_share_none():
    m = k4()
    a, b = ChowRing(m), ChowRing(m)
    tables = [
        lambda r: r.z_matrix(0b001011, 1),
        lambda r: r.h_matrix(0b001011, 1),
        lambda r: r.t_matrix(2),
        lambda r: r.tinv_matrix(1),
        lambda r: r._pairing_rows(1),
        lambda r: r._chain_positions(2),
    ]
    for table in tables:
        assert table(a) is table(a)
        assert table(b) is not table(a)
    assert all(memo is not vars(b)[name] for name, memo in vars(a).items() if name.endswith("_memo"))
