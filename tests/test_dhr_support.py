"""The sorted DHR support, its link table, the exchange check and the gathered
Hessians, against brute-force definitions and the truncated-matroid route."""

import itertools
import json
import math
import random

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chowmat import cli, graphic, hodge, uniform
from chowmat._linalg import signature
from chowmat.chow import SparseMap, ring_for
from chowmat.errors import InvalidRank, LoopyMatroid
from chowmat.hodge import (
    MCONVEX_EXHAUSTIVE_CAP,
    VolumePolynomial,
    _exchange_sampled,
    _mconvex,
    _parent_blocks,
    _support_link,
    dhr_check,
    dhr_levels,
    dhr_triple_report,
    lorentzian_check,
    mconvex_support,
    truncation_hessian,
    volume_polynomial,
)
from chowmat.matroid import direct_sum
from chowmat.quotients import principal_truncation, truncate_by_subset

from _scan_oracle import triple_scan
from _volume_oracle import dhr_multisets, volume_terms
from conftest import child_peak_mb, small_corpus, truncated_booleans


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
def test_enumerator_matches_dhr_check(m):
    d = m.rank_full - 1
    flats = rank2_flats(m)
    levels, links = dhr_levels(m, d)
    assert len(links) == d
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
    # The scan's call builds no level d, and the same links: the last level as packed dead-set words.
    short_levels, short_links = hodge._dhr_levels(m, d, top=False)
    assert [rows.tolist() for rows in short_levels[:d]] == [rows.tolist() for rows in levels[:d]]
    assert [link.tolist() for link in short_links[:-1]] == [link.tolist() for link in links[:-1]]
    words = short_links[-1]
    assert words.dtype == np.uint64 and words.shape == (len(levels[d - 1]), -(-len(flats) // 64))
    unpacked = np.unpackbits((~words).view(np.uint8), axis=1, count=len(flats)).view(bool)
    assert unpacked.tolist() == links[d - 1].tolist()


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
    for m, below, (levels, links) in cases:
        assert hodge._below(m).tolist() == below.tolist()
        small_levels, small_links = hodge.dhr_levels(m, m.rank_full - 1)
        assert [a.tolist() for a in small_levels] == [a.tolist() for a in levels]
        assert [a.tolist() for a in small_links] == [a.tolist() for a in links]


def test_enumerator_matches_recursive_walk():
    for name, m in small_corpus(6) + [("M(K5)", graphic(5, list(itertools.combinations(range(5), 2))))]:
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


def _clear_first_link_entry(dhr_levels):
    def corrupted(*args, **kwargs):
        levels, links = dhr_levels(*args, **kwargs)
        links[0][0, 0] = False
        return levels, links

    return corrupted


@pytest.mark.parametrize("route", ["dhr", "groebner", "chain"])
def test_triple_scan_sees_a_corrupted_route(monkeypatch, route):
    m = uniform(4, 5)
    if route == "dhr":
        monkeypatch.setattr(hodge, "_dhr_levels", _clear_first_link_entry(hodge._dhr_levels))
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
    h-map into the top degree (zeroed, or doubled so that degrees are +-2),
    or the last truncation, onto U(1,E), read at the root when d = 1."""
    d = m.rank_full - 1
    if route == "dhr":
        levels, links = dhr_levels(m, d)
        firsts = levels[d - 1][:, 0] if d > 1 else np.full(1, len(rank2_flats(m)) - 1)
        # A live link entry of a candidate the scan checks: u <= T[0].
        i, u = next((i, u) for i, u in zip(*np.nonzero(links[d - 1])) if u <= firsts[i])
        real = hodge._dhr_levels

        def corrupted(*args, **kwargs):
            # The scan's last level is packed dead-set words: mark u dead for row i.
            levels, links = real(*args, **kwargs)
            links[d - 1].view(np.uint8)[i, u // 8] |= np.uint8(0x80 >> u % 8)
            return levels, links

        monkeypatch.setattr(hodge, "_dhr_levels", corrupted)
    elif route in ("groebner", "degree"):
        ring = ring_for(m)
        h_matrix = ring.h_matrix
        scale = 0 if route == "groebner" else 2

        def corrupted(f, deg):
            h = h_matrix(f, deg)
            if (f, deg) != (rank2_flats(m)[0], d - 1):
                return h
            return SparseMap(h.shape, h.rows, h.cols, scale * h.vals, max(scale, 1) * h.bound)

        monkeypatch.setattr(ring, "h_matrix", corrupted)
    else:
        real = hodge._lands_on_rank_one

        def corrupted(tables):
            # The last truncation of every chain, read at E and the singletons, leaves {0} a loop.
            tables = tables.copy()
            tables[0b1] = 0
            return real(tables)

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
    """U(4,7)'s level-1 coordinates are at most 1, so they take one byte each."""
    chosen = []
    real = hodge._storage_dtype

    def recording(bound):
        chosen.append(real(bound))
        return chosen[-1]

    monkeypatch.setattr(hodge, "_storage_dtype", recording)
    assert dhr_triple_report(uniform(4, 7), spot_checks=0).ok
    assert chosen == [np.int8]  # level 1 = d - 2, the only level past the root that holds coordinates


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
    coordinates, blocked products and a packed leaf link table."""
    probe = (
        "from chowmat import uniform\n"
        "from chowmat.hodge import dhr_triple_report\n"
        "report = dhr_triple_report(uniform(6, 6))\n"
        "print(report.ok, report.total_multisets)\n"
    )
    out, peak_mb = child_peak_mb(probe, timeout=600)
    ok, total = out.split()
    assert ok == "True" and int(total) == 5_949_147
    assert peak_mb < 90, f"peak RSS {peak_mb:.0f} MB"


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
    assert peak_mb < 100, f"peak RSS {peak_mb:.0f} MB"


# -- the volume polynomial --------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(matroids)
def test_volume_matches_recursive_walk(m):
    vp = volume_polynomial(m)
    expected = volume_terms(m)
    assert vp.terms == expected
    assert list(vp.terms) == list(expected)


def test_volume_corpus_matches_recursive_walk():
    for name, m in small_corpus(5):
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
    tees, link = _support_link(support, nvars)
    expected = brute_mconvex(points, nvars)
    assert _mconvex(support, tees, link, 0) == (expected, "exhaustive")
    # Small sets: the 20,000 sampled pairs cover every ordered pair.
    assert _exchange_sampled(support, tees, link, 20_000, 3) == expected


def test_exchange_check_sees_both_outcomes():
    rng = random.Random(7)
    outcomes = []
    for _ in range(300):
        nvars, d = rng.randint(2, 5), rng.randint(2, 3)
        every = list(itertools.combinations_with_replacement(range(nvars), d))
        points = set(rng.sample(every, rng.randint(1, len(every))))
        expected = brute_mconvex(points, nvars)
        support = as_support(points)
        assert _mconvex(support, *_support_link(support, nvars), 0)[0] == expected
        outcomes.append(expected)
    assert 0 < sum(outcomes) < len(outcomes)


def test_exchange_check_counts_multiplicities():
    """The violating beta shares an index with T = alpha - e_i, and stays at
    or below T's multiplicity there."""
    points = {(0, 2, 2), (1, 1, 2), (1, 2, 2)}
    assert not brute_mconvex(points, 3)
    support = as_support(points)
    assert _mconvex(support, *_support_link(support, 3), 0) == (False, "exhaustive")


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
    assert _mconvex(support, *_support_link(support, 260), 0) == (False, "sampled")
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
    levels, links = dhr_levels(m, d)
    link = links[d - 1]
    blocks = _parent_blocks(levels[d - 2], levels[d - 1], link)
    for q, a, t, keep in itertools.islice(blocks, 40):
        gathered = signature(link[np.ix_(t[keep], a[keep])].astype(np.int64))
        current = m
        for i in levels[d - 2][q].tolist():
            current = truncate_by_subset(current, flats[i])
        _, hess = truncation_hessian(current)
        assert gathered == signature(hess)
        assert gathered == (1, int(keep.sum()) - 1, 0)


def test_truncation_hessian_rejects_bad_input():
    with pytest.raises(InvalidRank):
        truncation_hessian(uniform(4, 5))
    with pytest.raises(LoopyMatroid):
        truncation_hessian(direct_sum(uniform(3, 3), uniform(0, 1)))


# -- the former overflow defects ------------------------------------------------------


@pytest.mark.parametrize(
    "m,support,hessians,mode",
    [
        (uniform(4, 8), 103_167, 85, "sampled"),
        (graphic(5, list(itertools.combinations(range(5), 2))), 10_846, 41, "exhaustive"),
    ],
    ids=["U(4,8)", "M(K5)"],
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


def test_degenerate_hessian_fails_the_check(monkeypatch):
    """A gathered block must be nondegenerate, not merely have one positive
    eigenvalue; the check stops at the first parent that fails."""
    from chowmat import _linalg

    monkeypatch.setattr(_linalg, "signature", lambda block: (1, len(block) - 2, 1))
    report = lorentzian_check(uniform(4, 6))
    assert report.mconvex and not report.signatures_ok and not report.ok
    assert report.hessians_checked == 1
