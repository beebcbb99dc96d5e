"""The sorted DHR support, its link table, the exchange check and the gathered
Hessians, against brute-force definitions and the truncated-matroid route."""

import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chowmat import cli, graphic, hodge, uniform
from chowmat._linalg import signature
from chowmat.chow import SparseMap, ring_for
from chowmat.errors import InvalidRank, LoopyMatroid
from chowmat.hodge import (
    MCONVEX_EXHAUSTIVE_CAP,
    VolumePolynomial,
    _BLOCK,
    _bit_clear,
    _child_counts,
    _exchange_sampled,
    _mconvex,
    _parent_blocks,
    _support_link,
    _support_points,
    _unpack_links,
    dhr_check,
    dhr_levels,
    dhr_triple_report,
    lorentzian_check,
    mconvex_support,
    truncation_hessian,
    volume_polynomial,
)
from chowmat.matroid import direct_sum
from chowmat.quotients import principal_truncation, truncate_along, truncate_by_subset

import _lorentzian_oracle as oracle
from _scan_oracle import triple_scan
from _volume_oracle import dhr_multisets, volume_terms
from conftest import child_peak_mb, non_pappus, non_representable, small_corpus, truncated_booleans, vamos


@st.composite
def loopless_graphic(draw):
    """Cycle matroids of multigraphs without self-loops, of rank >= 3."""
    vertices = draw(st.integers(4, 5))
    pairs = list(itertools.combinations(range(vertices), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=3, max_size=8))
    m = graphic(vertices, edges)
    assume(m.rank_full >= 3)
    return m


matroids = st.one_of(truncated_booleans(), loopless_graphic())


def rank2_flats(m):
    return [f for f in m.lattice().flats if m.rank(f) >= 2]


# -- the enumerator -------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(matroids)
@example(vamos())  # 70 rank >= 2 flats: two words per dead set
@example(uniform(4, 8))  # 85
@example(uniform(3, 12))  # 67
def test_enumerator_matches_dhr_check(m):
    d = m.rank_full - 1
    flats = rank2_flats(m)
    levels, words = dhr_levels(m, d)
    assert len(words) == d
    for rows, w in zip(levels, words):
        assert w.dtype == np.uint64 and w.shape == (len(rows), -(-len(flats) // 64))
        # The bits past the last flat are clear, so equal link rows have equal word bytes.
        assert not np.unpackbits(w.view(np.uint8), axis=1)[:, len(flats) :].any()
    links = [_unpack_links(w, len(flats)) for w in words]
    for k, rows in enumerate(levels):
        expected = [
            combo
            for combo in itertools.combinations_with_replacement(range(len(flats)), k)
            if dhr_check(m, [flats[i] for i in combo])
        ]
        assert rows.dtype == np.uint16
        assert [tuple(r) for r in rows.tolist()] == expected
    for rows, link in zip(levels, links):
        assert link.shape == (len(rows), len(flats))
        for tee, row in zip(rows.tolist(), link):
            assert [dhr_check(m, [flats[i] for i in tee + [j]]) for j in range(len(flats))] == row.tolist()
    if d < 2:
        return
    # The scan's dead-set step, on the nodes of level d - 2 with their subfamily unions, gives
    # the dead sets of level d - 1: the complement of its links as packed uint64 words.
    below, tight, _, _ = hodge._dhr_root(m, d)
    parents, children = levels[d - 2], levels[d - 1]
    masks = np.array(flats, dtype=np.uint16)
    unions = np.zeros((len(parents), 1 << (d - 2)), dtype=np.uint16)
    for j in range(len(unions.T)):
        for p in range(d - 2):
            if j >> p & 1:
                unions[:, j] |= masks[parents[:, p]]
    x = hodge._index(hodge._keys(parents), children[:, 1:])
    grown, _ = hodge._child_dead(below, tight, _packed(~links[d - 2])[x], unions[x], masks[children[:, 0], None])
    assert grown.dtype == np.uint64 and grown.shape == (len(children), -(-len(flats) // 64))
    assert grown.tolist() == words[d - 1].tolist() == _packed(~links[d - 1]).tolist()


def _packed(rows):
    """Boolean rows as packed uint64 words, in the bit order of ``np.packbits``."""
    return np.packbits(np.pad(rows, ((0, 0), (0, -rows.shape[1] % 64))), axis=1).view(np.uint64)


def test_levels_are_the_same_in_small_blocks(monkeypatch):
    """The packed bit rows of flats below flats, and the dead sets gathered
    from them, do not depend on the block size."""
    cases = []
    for _, m in small_corpus(6):
        flats = np.array(rank2_flats(m), dtype=np.uint16)
        lattice = np.array(m.lattice().flats, dtype=np.uint16)
        dense = np.pad((flats & ~lattice[:, None]) == 0, ((1, 0), (0, -len(flats) % 64)))
        cases.append((m, np.packbits(dense, axis=1).view("<u8"), hodge.dhr_levels(m, m.rank_full - 1)))
    monkeypatch.setattr(hodge, "_BLOCK", 3)
    for m, below, (levels, words) in cases:
        assert hodge._dhr_root(m, m.rank_full - 1)[0].tolist() == below.tolist()
        small_levels, small_words = hodge.dhr_levels(m, m.rank_full - 1)
        assert [a.tolist() for a in small_levels] == [a.tolist() for a in levels]
        assert [a.tolist() for a in small_words] == [a.tolist() for a in words]


def test_growth_keeps_no_parent_index():
    """U(6,6) grown to its 4,614,021-row support, every level kept.  The
    children of each v are written a block of parents at a time, with no
    parent index for a whole level (18 MB of int32 at the top); with that
    index the traced peak was 78.2 MiB."""
    m = uniform(6, 6)
    m.lattice(), m.closure_table()
    tracemalloc.start()
    try:
        levels = list(hodge._dhr_growth(m, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(levels[5][0]) == 4_614_021
    assert peak < 66 << 20, f"traced peak {peak / 2**20:.1f} MiB"


def test_enumerator_matches_recursive_walk():
    k5 = ("M(K5)", graphic(5, list(itertools.combinations(range(5), 2))))
    for name, m in small_corpus(6) + [k5] + non_representable():
        if not m.is_loopless() or m.rank_full > 5:
            continue
        levels, _ = dhr_levels(m, m.rank_full - 1)
        assert [tuple(r) for r in levels[-1].tolist()] == dhr_multisets(m, m.rank_full - 1), name


# -- the triple-route scan ----------------------------------------------------------


@st.composite
def scan_matroids(draw):
    """Graphic matroids and truncated uniform matroids on at most 8 elements,
    of rank at most 4 (at most 3 on 8 elements, to keep the reference walk short)."""
    if draw(st.booleans()):
        return draw(loopless_graphic())
    n = draw(st.integers(3, 8))
    m = uniform(draw(st.integers(3, min(n, 4 if n < 8 else 3))), n)
    for _ in range(draw(st.integers(0, m.rank_full - 3))):
        m = principal_truncation(m, draw(st.sampled_from(rank2_flats(m))))
    return m


@settings(max_examples=30, deadline=None)
@given(scan_matroids())
@example(vamos())
@example(non_pappus())
def test_triple_scan_matches_recursive_walk(m):
    fast = dhr_triple_report(m, spot_checks=0)
    slow = triple_scan(m)
    assert fast.ok and slow.ok
    counts = (fast.total_multisets, fast.live_leaves, fast.dead_counted)
    assert counts == (slow.total_multisets, slow.live_leaves, slow.dead_counted)
    assert fast.live_leaves == len(dhr_multisets(m, m.rank_full - 1))


def test_triple_scan_at_the_hard_cap():
    report = dhr_triple_report(uniform(3, 16))
    assert report.ok
    assert report.total_multisets == math.comb(122, 2) == 7381


def _mark_dead(words, i, u):
    """Set bit u of row i of packed dead-set words: row i + e_u is no longer DHR."""
    words.view(np.uint8)[i, u // 8] |= np.uint8(0x80 >> u % 8)


def _corrupt_root(monkeypatch, u):
    """The scan's root gets u in its dead set: the link entry (T = (), j = u) cleared."""
    real = hodge._dhr_root

    def corrupted(*args):
        below, tight, unions, dead = real(*args)
        _mark_dead(dead, 0, u)
        return below, tight, unions, dead

    monkeypatch.setattr(hodge, "_dhr_root", corrupted)


@pytest.mark.parametrize("route", ["dhr", "groebner", "chain"])
def test_triple_scan_sees_a_corrupted_route(monkeypatch, route):
    m = uniform(4, 5)
    if route == "dhr":
        _corrupt_root(monkeypatch, 0)
    elif route == "groebner":
        ring = ring_for(m)
        h_matrix = ring.h_matrix
        zeroed = rank2_flats(m)[0]

        def corrupted(f, deg):
            h = h_matrix(f, deg)
            return SparseMap(h.shape, h.rows, h.cols, 0 * h.vals, h.bound) if f == zeroed else h

        monkeypatch.setattr(ring, "h_matrix", corrupted)
    else:
        # Every truncation loses the flats' ranks.
        monkeypatch.setattr(hodge, "truncated_ranks", lambda table, subset: np.zeros_like(table))
    report = dhr_triple_report(m, spot_checks=0)
    assert not report.agree and not report.ok


@pytest.mark.parametrize("m", [uniform(4, 5), uniform(3, 7), uniform(2, 4)], ids=["U(4,5)", "U(3,7)", "U(2,4)"])
@pytest.mark.parametrize("route", ["dhr", "groebner", "degree", "chain"])
def test_triple_scan_sees_a_corrupted_leaf(monkeypatch, m, route):
    """A fault that only the last step reads: a link entry of level d - 1, an
    h-map into the top degree (zeroed, or doubled so that degrees are +-2, for
    the last flat and for the first), or the last truncation, onto U(1,E),
    read at the root when d = 1."""
    d = m.rank_full - 1
    if route == "dhr":
        levels, words = dhr_levels(m, d)
        firsts = levels[d - 1][:, 0] if d > 1 else np.full(1, len(rank2_flats(m)) - 1)
        # A live link entry of a candidate the scan checks: u <= T[0].
        link = _unpack_links(words[d - 1], len(rank2_flats(m)))
        i, u = next((i, u) for i, u in zip(*np.nonzero(link)) if u <= firsts[i])
        if d == 1:
            _corrupt_root(monkeypatch, u)
        else:
            real = hodge._child_dead
            done = [0]

            def corrupted(below, tight, dead, unions, flat):
                # The dead sets of level d - 1 come out in the row order of levels[d - 1],
                # a block at a time: mark u dead for row i.
                words, new = real(below, tight, dead, unions, flat)
                if unions.shape[1] == 1 << (d - 2):
                    if 0 <= i - done[0] < len(words):
                        _mark_dead(words, i - done[0], u)
                    done[0] += len(words)
                return words, new

            monkeypatch.setattr(hodge, "_child_dead", corrupted)
    elif route in ("groebner", "degree"):
        ring = ring_for(m)
        h_matrix = ring.h_matrix
        scale = 0 if route == "groebner" else 2

        def corrupt(flat):
            def corrupted(f, deg):
                h = h_matrix(f, deg)
                if (f, deg) != (flat, d - 1):
                    return h
                return SparseMap(h.shape, h.rows, h.cols, scale * h.vals, max(scale, 1) * h.bound)

            monkeypatch.setattr(ring, "h_matrix", corrupted)

        if route == "degree":
            # The leaf reads the degrees of T + e_u for u <= T[0]: only the nodes with every
            # member the last flat read its map.
            corrupt(rank2_flats(m)[-1])
            assert not dhr_triple_report(m, spot_checks=0).ok
        corrupt(rank2_flats(m)[0])
    else:
        real = hodge._lands_on_rank_one

        def corrupted(ranks):
            # The last truncation of every chain, read at E and the singletons, leaves {0} a loop.
            ranks = ranks.copy()
            ranks[1] = 0
            return real(ranks)

        monkeypatch.setattr(hodge, "_lands_on_rank_one", corrupted)
    assert not dhr_triple_report(m, spot_checks=0).ok


_SCAN_CASES = [
    uniform(2, 5),
    uniform(3, 3),
    uniform(4, 5),
    uniform(4, 7),
    graphic(4, list(itertools.combinations(range(4), 2))),
    graphic(5, list(itertools.combinations(range(5), 2))),
]


@pytest.mark.parametrize("dtype", [np.float64, np.int64, object])
def test_triple_scan_is_the_same_on_wider_products(monkeypatch, dtype):
    """Every product of the scan, the leaf's included, forced off float32."""
    expected = [dhr_triple_report(m, spot_checks=0) for m in _SCAN_CASES]
    monkeypatch.setattr(hodge, "exact_dtype", lambda bound: dtype)
    assert [dhr_triple_report(m, spot_checks=0) for m in _SCAN_CASES] == expected


@pytest.mark.parametrize(
    "name, value",
    [("_BLOCK", 3), ("_storage_dtype", lambda bound: np.int64), ("_storage_dtype", lambda bound: object)],
    ids=["block-3", "int64-storage", "object-storage"],
)
def test_triple_scan_is_the_same_in_tiny_blocks_and_wide_storage(monkeypatch, name, value):
    """Products in blocks of 3 nodes, the leaf's links unpacked 3 nodes at a
    time, and coordinates stored as int64 or as Python ints."""
    expected = [dhr_triple_report(m, spot_checks=0) for m in _SCAN_CASES]
    monkeypatch.setattr(hodge, name, value)
    assert [dhr_triple_report(m, spot_checks=0) for m in _SCAN_CASES] == expected


@pytest.mark.parametrize(
    "bound, dtype",
    [
        (0, np.int8),
        (127, np.int8),
        (128, np.int16),
        (32767, np.int16),
        (32768, np.int32),
        ((1 << 31) - 1, np.int32),
        (1 << 31, np.int64),
        ((1 << 63) - 1, np.int64),
        (1 << 63, object),
    ],
)
def test_storage_dtype_holds_its_bound(bound, dtype):
    assert hodge._storage_dtype(bound) is dtype
    if dtype is not object:
        assert np.array([bound, -bound], dtype=dtype).tolist() == [bound, -bound]


def test_triple_scan_stores_small_coordinates_in_int8(monkeypatch):
    """U(4,7)'s level-1 coordinates are at most 1, so its states' coordinates
    take one byte each: 57 rows of dim A^1 = 57 entries, one per flat, beside
    their 57 int8 rank tables, one per column."""
    chosen, states = [], []
    real_dtype, real_numbered = hodge._storage_dtype, hodge._States.numbered

    def recording_dtype(bound):
        chosen.append(real_dtype(bound))
        return chosen[-1]

    def recording_numbered(self, *args, **kwargs):
        numbered = real_numbered(self, *args, **kwargs)
        states.append(numbered)
        return numbered

    monkeypatch.setattr(hodge, "_storage_dtype", recording_dtype)
    monkeypatch.setattr(hodge._States, "numbered", recording_numbered)
    assert dhr_triple_report(uniform(4, 7), spot_checks=0).ok
    assert chosen == [np.int8]  # level 1 = d - 2, the only level past the root that holds states
    [(coords, ranks, _)] = states  # one numbering per level
    assert (coords.dtype, coords.shape) == (np.int8, (57, 57))
    assert (ranks.dtype, ranks.shape) == (np.int8, (128, 57))


def _state_counts(monkeypatch, m):
    """The number of states of each level the scan of m interns."""
    counts = []
    real = hodge._States.numbered

    def counting(self, *args, **kwargs):
        numbered = real(self, *args, **kwargs)
        counts.append(len(numbered[-1]))  # one last node per state
        return numbered

    monkeypatch.setattr(hodge._States, "numbered", counting)
    report = dhr_triple_report(m, spot_checks=0)
    monkeypatch.setattr(hodge._States, "numbered", real)
    return report, counts


@pytest.mark.parametrize("block", [2048, 3], ids=["block-2048", "block-3"])
def test_triple_scan_is_the_same_when_every_key_collides(monkeypatch, block):
    """With every state key 0, only the exact comparison tells states apart:
    the reports and the number of states per level stay the same."""
    expected = [_state_counts(monkeypatch, m) for m in _SCAN_CASES]
    monkeypatch.setattr(hodge, "_BLOCK", block)
    monkeypatch.setattr(hodge, "_state_keys", lambda rows: np.zeros(len(rows), dtype=np.uint64))
    assert [_state_counts(monkeypatch, m) for m in _SCAN_CASES] == expected


def test_triple_scan_state_counts(monkeypatch):
    """U(6,6)'s 31,494 nodes of level d - 2 share 1,202 states, pairs of a rank
    table and a coordinate row; its 57 and 1,638 nodes of levels 1 and 2 have
    57 and 627."""
    report, counts = _state_counts(monkeypatch, uniform(6, 6))
    assert report.ok and counts == [57, 627, 1202]


@pytest.mark.parametrize(
    "m",
    [uniform(5, 6), uniform(5, 7), direct_sum(uniform(2, 3), uniform(3, 4))],
    ids=["U(5,6)", "U(5,7)", "U(2,3)+U(3,4)"],
)
def test_rank_tables_and_coordinates_split_the_nodes_alike(monkeypatch, m):
    """The fact one state per node rests on: on each level k = 1 .. d - 2 the
    DHR multisets T with equal truncated rank tables are those with equal
    nested coordinates of their products, so the distinct tables, the distinct
    coordinate rows and the distinct pairs are equally many: the scan's states.
    Each T's table and row come from its parent's, T[1:], by one truncation and
    one h-map."""
    d = m.rank_full - 1
    flats = rank2_flats(m)
    ring = ring_for(m)
    levels, _ = dhr_levels(m, d - 2)
    states = {(): (m.rank_table(), np.ones((1, 1), dtype=np.int64))}
    counts = []
    for k in range(1, d - 1):
        pairs = []
        for node in map(tuple, levels[k].tolist()):
            table, z = states[node[1:]]
            states[node] = table, z = truncate_along(table, [flats[node[0]]]), ring.h_matrix(flats[node[0]], k - 1).apply(z)
            pairs.append((table.tobytes(), tuple(z[:, 0].tolist())))
        tables, coords = zip(*pairs)
        counts.append(len(set(pairs)))
        assert len(set(tables)) == len(set(coords)) == counts[-1]
    assert counts[-1] < len(levels[d - 2])  # nodes share states
    report, scanned = _state_counts(monkeypatch, m)
    assert report.ok and scanned == counts


@pytest.mark.parametrize("block", [2048, 3], ids=["block-2048", "block-3"])
def test_triple_scan_sees_a_corrupted_node_that_shares_its_states(monkeypatch, block):
    """The routes are compared per node, not per state: a node of level d - 2 of
    U(5,6) whose rank table and coordinates other nodes share gets one live
    extension T + e_u, u <= T[0], marked dead in its dead set."""
    m = uniform(5, 6)
    d = m.rank_full - 1
    flats = rank2_flats(m)
    ring = ring_for(m)
    levels, words = dhr_levels(m, d)
    nodes = levels[d - 2].tolist()

    def table(node):
        return truncate_along(m.rank_table(), [flats[j] for j in node]).tobytes()

    def coordinates(node):
        z = np.ones((1, 1), dtype=np.int64)
        for k, j in enumerate(node):
            z = ring.h_matrix(flats[j], k).apply(z)
        return tuple(z[:, 0].tolist())

    tables = [table(node) for node in nodes]
    coords = [coordinates(node) for node in nodes]
    link = _unpack_links(words[d - 2], len(flats))
    i, u = next(
        (i, u)
        for i in range(len(nodes))
        if tables.count(tables[i]) > 1 and coords.count(coords[i]) > 1
        for u in range(nodes[i][0] + 1)
        if link[i, u]
    )
    monkeypatch.setattr(hodge, "_BLOCK", block)
    real = hodge._child_dead
    done = [0]

    def corrupted(below, tight, dead, unions, flat):
        # The dead sets of level d - 2 come out in the row order of levels[d - 2].
        words, new = real(below, tight, dead, unions, flat)
        if unions.shape[1] == 1 << (d - 3):
            if 0 <= i - done[0] < len(words):
                _mark_dead(words, i - done[0], u)
            done[0] += len(words)
        return words, new

    monkeypatch.setattr(hodge, "_child_dead", corrupted)
    assert not dhr_triple_report(m, spot_checks=0).ok


@pytest.mark.parametrize("route", ["dhr", "groebner", "chain"])
def test_triple_scan_sees_a_corrupted_route_in_tiny_blocks(monkeypatch, route):
    monkeypatch.setattr(hodge, "_BLOCK", 3)
    test_triple_scan_sees_a_corrupted_route(monkeypatch, route)


@pytest.mark.parametrize("m", [uniform(4, 5), uniform(3, 7), uniform(2, 4)], ids=["U(4,5)", "U(3,7)", "U(2,4)"])
@pytest.mark.parametrize("route", ["dhr", "groebner", "degree", "chain"])
def test_triple_scan_sees_a_corrupted_leaf_in_tiny_blocks(monkeypatch, m, route):
    monkeypatch.setattr(hodge, "_BLOCK", 3)
    test_triple_scan_sees_a_corrupted_leaf(monkeypatch, m, route)


def test_triple_scan_u66_in_a_child_process():
    """5,949,147 multisets with no coordinate block past level d - 2, int8
    coordinates, blocked products, and no DHR level built before the scan:
    the 448,845 dead sets of level d - 1 exist one block at a time.  Its
    31,494 nodes of level d - 2 share 1,202 states; with a
    coordinate column and a rank table per node the scan peaked at 50 MB."""
    probe = (
        "from chowmat import uniform\n"
        "from chowmat.hodge import dhr_triple_report\n"
        "r = dhr_triple_report(uniform(6, 6))\n"
        "print(r.ok, r.total_multisets, r.live_leaves, r.dead_counted, r.verified_nodes)\n"
    )
    out, peak_mb = child_peak_mb(probe, timeout=600)
    assert out.split() == ["True", "5949147", "4614021", "1335126", "6180311"]
    assert peak_mb < 44, f"peak RSS {peak_mb:.0f} MB"


def test_triple_scan_u412_in_a_child_process():
    """4,096-row rank tables, where the recursive oracle is too slow: the counts
    are pinned, and the leaf truncates one block of nodes at a time (the
    whole (2^12, 41,262) stack of level d - 1 would take 161 MiB)."""
    probe = (
        "from chowmat import uniform\n"
        "from chowmat.hodge import dhr_triple_report\n"
        "r = dhr_triple_report(uniform(4, 12), spot_checks=0)\n"
        "print(r.ok, r.total_multisets, r.live_leaves, r.dead_counted, r.verified_nodes)\n"
    )
    out, peak_mb = child_peak_mb(probe, timeout=600)
    assert out.split() == ["True", "3981264", "3960562", "20702", "4020668"]
    assert peak_mb < 80, f"peak RSS {peak_mb:.0f} MB"


def test_triple_scan_u414_in_a_child_process():
    """16,384-row rank tables and the 456 degree-1 h-maps of U(4,14).  Stored as
    their 42,498 nonzero entries the maps take about 1 MB; as dense blocks
    between their nonzero rows and columns they took 27 MB, with 13.5 MB more
    of float32 copies, and the scan peaked at 115 MB."""
    probe = (
        "from chowmat import uniform\n"
        "from chowmat.hodge import dhr_triple_report\n"
        "r = dhr_triple_report(uniform(4, 14), spot_checks=0)\n"
        "print(r.ok, r.total_multisets, r.live_leaves, r.dead_counted, r.verified_nodes)\n"
    )
    out, peak_mb = child_peak_mb(probe, timeout=600)
    assert out.split() == ["True", "15907256", "15862848", "44408", "16007722"]
    assert peak_mb < 65, f"peak RSS {peak_mb:.0f} MB"


def test_triple_scan_u58_in_a_child_process():
    """25 M multisets over 256-row tables, pinned: the leaf truncates only the
    rows it reads, and its dead sets are built a block at a time; with the
    whole level d - 1 of dead sets built first, the scan peaked at 71 MB, and
    with a coordinate column and a rank table per node of level d - 2 (12,062
    nodes, 2,521 states), at 51 MB."""
    probe = (
        "from chowmat import uniform\n"
        "from chowmat.hodge import dhr_triple_report\n"
        "r = dhr_triple_report(uniform(5, 8), spot_checks=0)\n"
        "print(r.ok, r.total_multisets, r.live_leaves, r.dead_counted, r.verified_nodes)\n"
    )
    out, peak_mb = child_peak_mb(probe, timeout=600)
    assert out.split() == ["True", "24992045", "24560327", "431718", "25569478"]
    assert peak_mb < 49, f"peak RSS {peak_mb:.0f} MB"


def test_triple_scan_u67_in_a_child_process():
    """168 M multisets, pinned: the 244,252 nodes of level d - 2 share 7,253
    states.  With a coordinate column (813 int16 entries) and a rank
    table per node, the scan peaked at 471 MB."""
    probe = (
        "from chowmat import uniform\n"
        "from chowmat.hodge import dhr_triple_report\n"
        "r = dhr_triple_report(uniform(6, 7), spot_checks=0)\n"
        "print(r.ok, r.total_multisets, r.live_leaves, r.dead_counted, r.verified_nodes)\n"
    )
    out, peak_mb = child_peak_mb(probe, timeout=600)
    assert out.split() == ["True", "167549733", "158108322", "9441411", "173100908"]
    assert peak_mb < 120, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.slow
def test_triple_scan_u77_in_a_child_process():
    """Every multiset of the Boolean matroid on seven elements, C(125, 6) of
    them: the 8,880,880 nodes of level d - 2 keep int32 state numbers beside
    their unions and dead sets.  It ran in 45 s and fit a 1 GB address space."""
    probe = (
        "from chowmat import uniform\n"
        "from chowmat.hodge import dhr_triple_report\n"
        "r = dhr_triple_report(uniform(7, 7), spot_checks=0)\n"
        "print(r.ok, r.total_multisets, r.live_leaves, r.dead_counted, r.verified_nodes)\n"
    )
    out, peak_mb = child_peak_mb(probe, timeout=1800)
    assert out.split() == ["True", str(math.comb(125, 6)), "4002353566", "688271934", "4811579815"]
    assert peak_mb < 1000, f"peak RSS {peak_mb:.0f} MB"


# -- the volume polynomial --------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(matroids)
def test_volume_matches_recursive_walk(m):
    vp = volume_polynomial(m)
    expected = volume_terms(m)
    assert vp.terms == expected
    assert list(vp.terms) == list(expected)


def test_volume_corpus_matches_recursive_walk():
    for name, m in small_corpus(5) + non_representable():
        if m.is_loopless():
            assert volume_polynomial(m).terms == volume_terms(m), name


# -- the exchange check ------------------------------------------------------------


def brute_mconvex(points: set[tuple[int, ...]], nvars: int) -> bool:
    """The pairwise exchange definition on count vectors."""
    vectors = set()
    for p in points:
        v = [0] * nvars
        for i in p:
            v[i] += 1
        vectors.add(tuple(v))
    for a in vectors:
        for b in vectors:
            for i in range(nvars):
                if a[i] > b[i] and not any(
                    a[j] < b[j]
                    and tuple(x - (k == i) + (k == j) for k, x in enumerate(a)) in vectors
                    for j in range(nvars)
                ):
                    return False
    return True


def as_support(points) -> np.ndarray:
    rows = sorted(sorted(p) for p in points)
    return np.array(rows, dtype=np.uint16).reshape(len(rows), len(rows[0]))


@st.composite
def point_sets(draw):
    """Sets of d-multisets over a few variables: boxes (M-convex), boxes with a
    point removed, and arbitrary subsets, so both outcomes are common."""
    nvars = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    every = list(itertools.combinations_with_replacement(range(nvars), d))
    kind = draw(st.sampled_from(["box", "box minus a point", "subset"]))
    if kind == "subset":
        return draw(st.sets(st.sampled_from(every), min_size=1)), nvars
    upper = draw(st.lists(st.integers(0, d), min_size=nvars, max_size=nvars))
    box = {p for p in every if all(p.count(i) <= upper[i] for i in range(nvars))}
    assume(box)
    if kind == "box minus a point" and len(box) > 1:
        box.discard(draw(st.sampled_from(sorted(box))))
    return box, nvars


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_exchange_check_matches_pairwise_definition(case):
    points, nvars = case
    support = as_support(points)
    tees, dead, starts = _support_link(support, nvars)
    expected = brute_mconvex(points, nvars)
    assert _mconvex(tees, dead, starts, lambda: support, 0) == (expected, "exhaustive", len(support))
    # Small sets: the 20,000 sampled pairs cover every ordered pair.
    assert _exchange_sampled(tees, dead, starts, _child_counts(dead, starts), 20_000, 3) == expected


def test_exchange_check_sees_both_outcomes():
    rng = random.Random(7)
    outcomes = []
    for _ in range(300):
        nvars, d = rng.randint(2, 5), rng.randint(2, 3)
        every = list(itertools.combinations_with_replacement(range(nvars), d))
        points = set(rng.sample(every, rng.randint(1, len(every))))
        expected = brute_mconvex(points, nvars)
        support = as_support(points)
        assert _mconvex(*_support_link(support, nvars), lambda: support, 0)[0] == expected
        outcomes.append(expected)
    assert 0 < sum(outcomes) < len(outcomes)


def test_exchange_check_counts_multiplicities():
    """The violating beta shares an index with T = alpha - e_i, and stays at
    or below T's multiplicity there."""
    points = {(0, 2, 2), (1, 1, 2), (1, 2, 2)}
    assert not brute_mconvex(points, 3)
    support = as_support(points)
    assert _mconvex(*_support_link(support, 3), lambda: support, 0) == (False, "exhaustive", 3)


def test_wide_support_that_is_not_mconvex():
    """Violations on variables far past 64 are seen (no fixed-width keys)."""
    m = uniform(3, 13)
    flats = rank2_flats(m)
    assert len(flats) >= 70
    every = volume_polynomial(m)
    assert mconvex_support(every)
    two_points = {(flats[70], flats[71]): 1, (flats[72], flats[73]): 1}
    assert not mconvex_support(VolumePolynomial(m, 2, two_points))


def test_wide_sampled_support_that_is_not_mconvex():
    """Two blocks of 2-multisets over 260 variables: past the exhaustive cap,
    and most sampled pairs straddle the blocks and have no exchange."""
    clusters = [range(0, 160), range(160, 260)]
    points = [p for c in clusters for p in itertools.combinations_with_replacement(c, 2)]
    assert len(points) > MCONVEX_EXHAUSTIVE_CAP
    support = as_support(points)
    assert _mconvex(*_support_link(support, 260), lambda: support, 0) == (False, "sampled", len(points))
    m = uniform(4, 12)
    flats = rank2_flats(m)
    terms = {tuple(sorted((flats[a], flats[b]))): 1 for a, b in points}
    assert not mconvex_support(VolumePolynomial(m, 2, terms))


# -- the gathered Hessians ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(matroids)
def test_gathered_hessian_inertia_matches_truncation(m):
    d = m.rank_full - 1
    assume(d >= 2)
    flats = rank2_flats(m)
    levels, words = dhr_levels(m, d)
    blocks = _parent_blocks(levels[d - 2], words[d - 2], levels[d - 1], words[d - 1], len(flats))
    for q, a, t, keep in itertools.islice(blocks, 40):
        gathered = signature(_bit_clear(words[d - 1][t[keep]], a[keep]).astype(np.int64))
        current = m
        for i in levels[d - 2][q].tolist():
            current = truncate_by_subset(current, flats[i])
        _, hess = truncation_hessian(current)
        assert gathered == signature(hess)
        assert gathered == (1, int(keep.sum()) - 1, 0)


@settings(max_examples=40, deadline=None)
@given(matroids)
@example(vamos())
@example(uniform(3, 12))
def test_parent_blocks_match_their_definition(m):
    """For each DHR (d-2)-multiset P in order: the a with P + e_a DHR, the
    rows of the sorted P + e_a in level d - 1, and the first a of each
    distinct link row, all by dhr_check.  On U(3,12) the link rows of the
    rank-2 flats past the 64th differ only in the second word."""
    d = m.rank_full - 1
    assume(d >= 2)
    flats = rank2_flats(m)
    levels, words = dhr_levels(m, d)
    row_of = {tee: i for i, tee in enumerate(map(tuple, levels[d - 1].tolist()))}
    link_rows = {}
    parents = levels[d - 2].tolist()
    blocks = list(_parent_blocks(levels[d - 2], words[d - 2], levels[d - 1], words[d - 1], len(flats)))
    assert [q for q, *_ in blocks] == list(range(len(parents)))
    for parent, (_, a, t, keep) in zip(parents, blocks):
        expected = [j for j in range(len(flats)) if dhr_check(m, [flats[i] for i in parent + [j]])]
        assert a.tolist() == expected
        tees = [tuple(sorted(parent + [j])) for j in expected]
        assert t.tolist() == [row_of[tee] for tee in tees]
        first = set()
        for tee, kept in zip(tees, keep.tolist()):
            if tee not in link_rows:
                link_rows[tee] = tuple(dhr_check(m, [flats[i] for i in tee + (j,)]) for j in range(len(flats)))
            assert kept == (link_rows[tee] not in first)
            first.add(link_rows[tee])


def test_truncation_hessian_rejects_bad_input():
    with pytest.raises(InvalidRank):
        truncation_hessian(uniform(4, 5))
    with pytest.raises(LoopyMatroid):
        truncation_hessian(direct_sum(uniform(3, 3), uniform(0, 1)))


# -- pinned Lorentzian reports: the former overflow defects, and matroids no field represents --


@pytest.mark.parametrize(
    "m,support,hessians,mode",
    [
        (uniform(4, 8), 103_167, 85, "sampled"),
        (graphic(5, list(itertools.combinations(range(5), 2))), 10_846, 41, "exhaustive"),
        (vamos(), 57_182, 70, "sampled"),
        (non_pappus(), 211, 1, "exhaustive"),
    ],
    ids=["U(4,8)", "M(K5)", "V8", "non-Pappus"],
)
def test_lorentzian_regression_tier(m, support, hessians, mode):
    report = lorentzian_check(m)
    assert report.ok
    assert (report.support_size, report.hessians_checked, report.mconvex_mode) == (support, hessians, mode)


@pytest.mark.parametrize("r,n", [(4, 8), (3, 12)])
def test_verify_lorentzian_past_63_flats(tmp_path, r, n):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"type": "uniform", "r": r, "n": n}))
    result = CliRunner().invoke(cli.main, ["verify", str(spec), "--suite", "lorentzian"])
    assert result.exit_code == 0, result.output
    suite = json.loads(result.stdout)["result"]["suites"]["lorentzian"]
    assert suite["passed"] and suite["mconvex"]


def test_support_layer_unpacks_only_what_it_reads(monkeypatch):
    """The levels keep their dead sets as packed words.  The volume polynomial
    reads no link table, and the Lorentzian check unpacks at most a block of
    :data:`_BLOCK` rows at a time: on U(5,6), whose level d - 1 has 22,501
    rows, an unpack of the whole level fails."""
    m = uniform(5, 6)
    unpacked = []
    real = hodge._unpack_links

    def counting(dead, count):
        unpacked.append(len(dead))
        return real(dead, count)

    monkeypatch.setattr(hodge, "_unpack_links", counting)
    volume_polynomial(m)
    assert unpacked == []
    lorentzian_check(m)
    assert len(dhr_levels(m, 3)[0][3]) == 22_501
    assert unpacked and max(unpacked) <= _BLOCK


@settings(max_examples=30, deadline=None)
@given(matroids, st.integers(0, 3))
@example(vamos(), 0)  # sampled
@example(non_pappus(), 1)
@example(uniform(3, 12), 0)  # 67 rank >= 2 flats: two words per dead set
def test_lorentzian_check_matches_the_bool_table_oracle(m, seed):
    """Every report field, and every parent's link, rows, kept mask and gathered
    block, against the whole support and whole-level bool link tables."""
    assert lorentzian_check(m, seed) == oracle.lorentzian_check(m, seed)
    d = m.rank_full - 1
    nvars = len(rank2_flats(m))
    levels, words = dhr_levels(m, d)
    ours = _parent_blocks(levels[d - 2], words[d - 2], levels[d - 1], words[d - 1], nvars)
    theirs = oracle.hessian_blocks(levels, words, nvars)
    for (q, a, t, keep), (q0, a0, t0, keep0, block) in itertools.zip_longest(ours, theirs):
        assert (q, a.tolist(), t.tolist(), keep.tolist()) == (q0, a0.tolist(), t0.tolist(), keep0.tolist())
        assert _bit_clear(words[d - 1].take(t[keep], axis=0), a[keep]).tolist() == block.tolist()


@settings(max_examples=30, deadline=None)
@given(matroids)
@example(vamos())
@example(uniform(3, 12))
def test_support_points_are_the_support(m):
    """The support's size is the count of clear bits v <= T[0] over level d - 1,
    and mapping every index 0 .. N - 1 through the cumulative child counts,
    in any order, gives the top level of dhr_levels row for row.  The growth's
    ``starts`` are where each level's rows with T[0] >= v start."""
    d = m.rank_full - 1
    nvars = len(rank2_flats(m))
    levels, words, starts = zip(*hodge._dhr_growth(m, d))
    for rows, first in zip(levels[1:], starts[1:]):
        assert first.tolist() == np.searchsorted(rows[:, 0], np.arange(nvars)).tolist()
    starts = starts[d - 1]
    counts = _child_counts(words[d - 1], starts)
    assert int(counts.sum()) == len(levels[d])
    index = np.arange(len(levels[d]))
    points = _support_points(levels[d - 1], words[d - 1], starts, counts, index)
    assert points.dtype == np.uint16 and points.tolist() == levels[d].tolist()
    random.Random(d).shuffle(index)
    assert _support_points(levels[d - 1], words[d - 1], starts, counts, index).tolist() == levels[d][index].tolist()


@pytest.mark.parametrize("r,n,support", [(5, 6, 283_326), (4, 8, 103_167)])
def test_cold_verify_lorentzian_in_a_child_process(tmp_path, r, n, support):
    """The two sampled supports of the benchmark's Lorentzian runs.  Read off
    the packed words of level d - 1, cold ``verify --suite lorentzian`` peaked
    at 35.0 MB on both; with the whole support, two whole-level bool link
    tables and ``numpy.random`` for the sample, it took 44.5 MB on U(5,6) and
    41.2 MB on U(4,8)."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"type": "uniform", "r": r, "n": n}))
    probe = (
        "import runpy, sys\n"
        f"sys.argv = ['chowmat', 'verify', {str(spec)!r}, '--suite', 'lorentzian']\n"
        "try:\n"
        "    runpy.run_module('chowmat.cli', run_name='__main__')\n"
        "except SystemExit as e:\n"
        "    assert not e.code, e.code\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out, peak_mb = child_peak_mb(probe, timeout=300)
    report, loaded = out.splitlines()
    suite = json.loads(report)["result"]["suites"]["lorentzian"]
    assert (suite["passed"], suite["mconvex_mode"], suite["support"]) == (True, "sampled", support)
    assert loaded == "False"
    assert peak_mb < 38, f"peak RSS {peak_mb:.1f} MB"


@pytest.mark.slow
def test_cold_verify_lorentzian_u510_in_a_child_process(tmp_path):
    """The 842,530,176 support points of U(5,10) would take 6.3 GiB as uint16
    rows, and its level d - 1 as a bool link table 3.12 GiB; the check that
    built them exited 3.  Read off the 8,912,496 rows of level d - 1 and
    their packed words, it finished in 23 s at 649 MB."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"type": "uniform", "r": 5, "n": 10}))
    probe = (
        "import runpy, sys\n"
        f"sys.argv = ['chowmat', 'verify', {str(spec)!r}, '--suite', 'lorentzian']\n"
        "try:\n"
        "    runpy.run_module('chowmat.cli', run_name='__main__')\n"
        "except SystemExit as e:\n"
        "    assert not e.code, e.code\n"
    )
    out, peak_mb = child_peak_mb(probe, timeout=1800)
    suite = json.loads(out)["result"]["suites"]["lorentzian"]
    assert (suite["passed"], suite["mconvex_mode"], suite["support"]) == (True, "sampled", 842_530_176)
    assert peak_mb < 800, f"peak RSS {peak_mb:.0f} MB"


def test_degenerate_hessian_fails_the_check(monkeypatch):
    """A gathered block must be nondegenerate, not merely have one positive
    eigenvalue; the check stops at the first parent that fails."""
    from chowmat import _linalg

    monkeypatch.setattr(_linalg, "signature", lambda block: (1, len(block) - 2, 1))
    report = lorentzian_check(uniform(4, 6))
    assert report.mconvex and not report.signatures_ok and not report.ok
    assert report.hessians_checked == 1
