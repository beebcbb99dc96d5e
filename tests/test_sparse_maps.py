"""The compressed multiplication maps of the Chow ring (z-, h- and divisor
maps) and their apply kernel."""

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chowmat import ChowElement, graphic, hodge, uniform
from chowmat import chow
from chowmat.chow import ALPHABETS, ChowRing, SparseMap, _canon, absmax, exact_dtype, imatmul, ring_for
from chowmat.errors import NotAFlat, WrongGrade
from chowmat.matroid import Matroid
from chowmat.quotients import principal_truncation

from _map_oracle import (
    dense_h,
    dense_z,
    densify,
    nf_by_recursion,
    walk_by_apply,
    walks_by_apply,
    zcoords_by_apply,
    zcoords_by_expansion,
)
from conftest import child_peak_mb, small_corpus


@st.composite
def small_matroids(draw, largest=7):
    """Truncated Boolean matroids and loopless graphic matroids on at most
    ``largest`` elements, of rank at most 4 on 7 elements."""
    if draw(st.booleans()):
        vertices = draw(st.integers(3, 5))
        pairs = list(itertools.combinations(range(vertices), 2))
        m = graphic(vertices, draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=largest)))
        assume(m.rank_full >= 2)
        return m
    n = draw(st.integers(2, largest))
    m = uniform(n, n)
    for _ in range(draw(st.integers(max(0, n - 4) if n == 7 else 0, max(0, n - 2)))):
        flats = [f for f in m.lattice().flats if m.rank(f) >= 2]
        m = principal_truncation(m, draw(st.sampled_from(flats)))
    return m


def _check_compressed(m: SparseMap, dense: np.ndarray) -> None:
    assert m.shape == dense.shape
    assert (densify(m) == dense).all()
    # The entries are exactly the nonzero ones, sorted by row and then by column.
    rows, cols = np.nonzero(dense)
    assert m.rows.tolist() == rows.tolist() and m.cols.tolist() == cols.tolist()
    assert m.vals.dtype == np.int64
    assert m.bound == max((sum(abs(v) for v in row) for row in dense), default=0)


@settings(max_examples=30, deadline=None)
@given(small_matroids(), st.data())
def test_compressed_maps_equal_dense_normal_forms(m, data):
    ring = ring_for(m)
    flats = data.draw(
        st.lists(st.sampled_from(ring.flats_nonempty), min_size=1, max_size=4, unique=True)
    )
    for f in flats:
        for deg in range(ring.d):
            z, h = ring.z_matrix(f, deg), ring.h_matrix(f, deg)
            _check_compressed(z, dense_z(ring, f, deg))
            _check_compressed(h, dense_h(ring, f, deg))
            _check_compressed(h.T, dense_h(ring, f, deg).T)
    coeffs = {f: data.draw(st.integers(-9, 9)) for f in flats}
    for deg in range(ring.d):
        dense = sum(c * dense_z(ring, f, deg) for f, c in coeffs.items())
        _check_compressed(ring.divisor_matrix(coeffs, deg), dense)


def _check_every_map(m, with_h: bool = True) -> None:
    """Every z-map (and h-map) of a fresh ring equals the dense maps of the
    recursion oracle, entry for entry."""
    ring = ChowRing(m)
    for deg in range(ring.d):
        dense = {f: dense_z(ring, f, deg) for f in ring.flats_nonempty}
        for f in ring.flats_nonempty:
            assert (densify(ring.z_matrix(f, deg)) == dense[f]).all(), (f, deg)
            if with_h:
                h = -sum(dense[g] for g in ring.supersets[f])
                assert (densify(ring.h_matrix(f, deg)) == h).all(), (f, deg)


@settings(max_examples=25, deadline=None)
@given(small_matroids(largest=6))
def test_every_map_equals_the_recursion_oracle(m):
    _check_every_map(m)


@settings(max_examples=40, deadline=None)
@given(small_matroids(largest=6), st.data())
def test_any_monomial_reduces_like_the_recursion_oracle(m, data):
    """Monomials of up to four flats, chains or not, of every degree up to d."""
    ring = ChowRing(m)
    flats = st.sampled_from(ring.flats_nonempty)
    # A monomial of degree <= d has at most d flats and exponents at most d: drawing
    # within those caps keeps the same monomials and leaves little for assume to drop.
    exps = st.integers(1, min(3, ring.d))
    pairs = data.draw(st.lists(st.tuples(flats, exps), min_size=1, max_size=min(4, ring.d), unique_by=lambda t: t[0]))
    assume(sum(e for _, e in pairs) <= ring.d)
    mono = _canon(pairs)
    expected = nf_by_recursion(ring, mono)
    assert ring._nf(mono) == expected
    grade, coords = ring.zcoords(ChowElement("z", {mono: 1}))
    assert grade == sum(e for _, e in mono)
    assert {i: int(v) for i, v in enumerate(coords) if v} == expected


@pytest.mark.slow
def test_every_z_map_of_rank_5_equals_the_recursion_oracle():
    k6_minus_triangle = graphic(6, [e for e in itertools.combinations(range(6), 2) if not set(e) <= {0, 1, 2}])
    for m in (uniform(5, 8), k6_minus_triangle):
        _check_every_map(m, with_h=False)


def test_maps_of_a_non_flat_raise():
    ring = ChowRing(uniform(3, 4))
    # {0, 1, 2} spans E; 0 is the empty flat; bit 4 lies outside E.
    for mask in (0b0111, 0, 0b10000):
        for deg in range(ring.d):
            with pytest.raises(NotAFlat):
                ring.z_matrix(mask, deg)
            with pytest.raises(NotAFlat):
                ring.h_matrix(mask, deg)
        with pytest.raises(NotAFlat):
            ring.zcoords(ChowElement("z", {((mask, 1),): 1}))
    # Also when two earlier flats already make the monomial zero.
    with pytest.raises(NotAFlat):
        ring.zcoords(ChowElement("z", {((0b0001, 1), (0b0010, 1), (0b0111, 1)): 1}))


def test_zcoords_rejects_variables_that_are_not_flats_in_every_alphabet():
    """Every variable is checked, at grades up to d and above it, and also
    after a factor that already makes the product zero."""
    ring = ChowRing(uniform(4, 5))
    a, b, full = 0b00001, 0b00010, 0b11111
    bad = 0b01111  # spans E
    for alphabet in ALPHABETS:
        # z_a z_b = 0 (a and b are incomparable), and h_a = 0 (an atom).
        assert not any(ring.zcoords(ChowElement(alphabet, {((a, 1), (b, 1)): 1}))[1])
        for mono in (((bad, 1),), ((bad, 4),), ((a, 1), (b, 1), (bad, 1)), ((a, 1), (b, 1), (bad, 2))):
            with pytest.raises(NotAFlat):
                ring.zcoords(ChowElement(alphabet, {mono: 1}))
    # E is a flat in z and h, but x has no variable x_E.
    for exp in (1, ring.d, ring.d + 1):
        assert ring.zcoords(ChowElement.variable("z", full, exp))[0] == exp
        assert ring.zcoords(ChowElement.variable("h", full, exp))[0] == exp
        with pytest.raises(NotAFlat):
            ring.zcoords(ChowElement.variable("x", full, exp))
        with pytest.raises(NotAFlat):
            ring.zcoords(ChowElement("x", {((a, 1), (b, 1), (full, exp)): 1}))


@st.composite
def _elements(draw, ring: ChowRing) -> ChowElement:
    """Homogeneous elements of grade 0..d+1 in any alphabet: up to three
    terms over a few flats, so that exponents above 1 are common and chains
    are not required, with nonzero rational coefficients; no terms give 0."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    full = ring.matroid.full_mask
    flats = [f for f in ring.flats_nonempty if alphabet != "x" or f != full]
    pool = draw(st.lists(st.sampled_from(flats), min_size=1, max_size=3, unique=True))
    # The top degree half the time, where degree reads the one coordinate.
    grade = draw(st.one_of(st.just(ring.d), st.integers(0, ring.d + 1)))
    terms = {}
    for _ in range(draw(st.sampled_from([1, 2, 3, 0]))):
        mono = _canon((f, 1) for f in draw(st.lists(st.sampled_from(pool), min_size=grade, max_size=grade)))
        terms[mono] = draw(st.fractions(-5, 5, max_denominator=6).filter(bool))
    return ChowElement(alphabet, terms)


@settings(max_examples=150, deadline=None)
@given(small_matroids(largest=5), st.data())
def test_elements_reduce_like_the_expansion_oracle(m, data):
    """zcoords, normal_form and degree agree with the expansion route: every
    term rewritten in z-monomials and each reduced by the plain recursion."""
    ring = ring_for(m)
    e = data.draw(_elements(ring))
    expected = zcoords_by_expansion(ring, e)
    assert ring.zcoords(e) == expected
    grade, coords = expected
    nf = ring.normal_form(e)
    assert set(nf.terms) <= set(ring.nested[grade] if grade <= ring.d else ())
    if nf.is_zero():
        assert not any(coords)
    else:
        assert zcoords_by_expansion(ring, nf) == expected
    if e.is_zero():
        assert ring.degree(e) == 0
    elif grade == ring.d:
        assert ring.degree(e) == coords[0] * (-1) ** ring.d
    else:
        with pytest.raises(WrongGrade):
            ring.degree(e)


def _walks_agree(ring: ChowRing, maps, members) -> None:
    assert ring._walk(maps, members) == walk_by_apply(ring, maps, members), members


def test_walk_matches_block_products_on_the_small_corpus():
    """Every degree-d multiset of nonempty subsets of E, flats or not, through
    the h-maps, and every one of nonempty flats through the z-maps."""
    for _, m in small_corpus():
        ring = ring_for(m)
        for maps, members in ((ring.h_matrix, range(1, 1 << m.n_elements)), (ring.z_matrix, ring.flats_nonempty)):
            for multiset, expected in walks_by_apply(ring, maps, members, ring.d):
                assert ring._walk(maps, multiset) == expected, multiset


@settings(max_examples=40, deadline=None)
@given(small_matroids(largest=6), st.data())
def test_walk_matches_block_products_on_hypothesis_matroids(m, data):
    """Products of up to d generators: h-maps of nonempty subsets of E, and
    z-maps of nonempty flats."""
    ring = ring_for(m)
    subsets = st.lists(st.integers(1, (1 << m.n_elements) - 1), max_size=ring.d)
    flats = st.lists(st.sampled_from(ring.flats_nonempty), max_size=ring.d)
    for _ in range(10):
        _walks_agree(ring, ring.h_matrix, data.draw(subsets))
        _walks_agree(ring, ring.z_matrix, data.draw(flats))


@settings(max_examples=100, deadline=None)
@given(small_matroids(largest=5), st.data())
def test_zcoords_matches_block_products(m, data):
    """Elements with signed rational coefficients in every alphabet."""
    ring = ring_for(m)
    e = data.draw(_elements(ring))
    assert ring.zcoords(e) == zcoords_by_apply(ring, e)


def test_column_views_equal_the_dense_maps():
    """Every h- and z-map of a small ring, column by column: the view holds
    the nonzero entries of the column as (row, value) pairs of Python ints,
    rows ascending."""
    for m in (uniform(4, 5), graphic(4, list(itertools.combinations(range(4), 2)))):
        ring = ChowRing(m)
        for deg in range(ring.d):
            for f in ring.flats_nonempty:
                for sparse in (ring.z_matrix(f, deg), ring.h_matrix(f, deg)):
                    dense = densify(sparse)
                    assert len(sparse._columns) == sparse.shape[1]
                    for c, entries in enumerate(sparse._columns):
                        assert {type(v) for v in entries} <= {int}
                        rows = np.flatnonzero(dense[:, c] != 0).tolist()
                        assert list(entries) == [v for r in rows for v in (r, dense[r, c])]


@pytest.mark.parametrize(
    "members, k",
    [([0b000001, 0b000011, 0b000111], 0), ([0b000011, 0b000011, 0b000111], 1), ([0b000111] * 3, 2)],
    ids=["atom", "rank-2-twice", "rank-3-thrice"],
)
def test_walk_stops_at_the_first_zero_product(monkeypatch, members, k):
    """On U(5,6) (d = 4) h_a = 0 for an atom a, h_F^2 = 0 for a rank-2 flat F
    and h_G^3 = 0 for a rank-3 flat G, since DHR fails on those multisets.
    A walk whose product vanishes at step k, on a fresh ring, asks for k + 1
    h-maps and builds the column views of those maps only; the closure of
    the last member, a 5-subset that is not a flat, is never taken."""
    m = uniform(5, 6)
    ring = ChowRing(m)
    h_matrix, calls = ring.h_matrix, []

    def counted(f, deg):
        calls.append((f, deg))
        return h_matrix(f, deg)

    def never_closed(self, subset):
        pytest.fail("closure of a factor after the zero product")

    monkeypatch.setattr(ring, "h_matrix", counted)
    monkeypatch.setattr(Matroid, "closure", never_closed)
    assert ring.h_monomial_degree(members + [0b011111]) == 0
    assert calls == [(f, deg) for deg, f in enumerate(members[: k + 1])]
    built = [*ring._h_matrix_memo.values(), *ring._z_matrix_memo.values()]
    assert [sparse for sparse in built if "_columns" in vars(sparse)] == [h_matrix(f, deg) for f, deg in calls]


def test_block_products_read_no_column_view(monkeypatch):
    """The pairings, top powers and the triple scan work on whole blocks."""
    monkeypatch.setattr(SparseMap, "_columns", property(lambda self: pytest.fail("column view read")))
    for m in (uniform(4, 5), graphic(4, list(itertools.combinations(range(4), 2))), uniform(3, 7)):
        ring = ChowRing(m)
        ell = [ring.h_matrix(f, deg) for deg, f in enumerate(ring.flats_nonempty[-ring.d :])]
        for k in range(ring.d + 1):
            ring.pairing(k)
        ring.pairing(0, ell)
        monkeypatch.setattr(hodge, "ring_for", lambda _: ring)
        assert hodge._triple_scan(m).ok
    with pytest.raises(pytest.fail.Exception):
        ring.h_monomial_degree(ring.flats_nonempty[-ring.d :])


def test_from_columns_keeps_the_nonzero_rows_and_columns():
    m = SparseMap.from_columns(4, [{}, {}, {3: 7}, {}, {1: 5, 3: -2}])
    assert m.shape == (4, 5)
    assert (m.rows.tolist(), m.cols.tolist(), m.vals.tolist()) == ([1, 3, 3], [4, 2, 4], [5, 7, -2])
    outs, ins, block = m.dense_block()
    assert outs.tolist() == [1, 3] and ins.tolist() == [2, 4]
    assert block.tolist() == [[0, 5], [7, -2]]
    assert m._columns == ((), (), (3, 7), (), (1, 5, 3, -2))
    assert m.bound == 9
    big = SparseMap.from_columns(2, [{1: 2**70}, {}])
    assert big.vals.dtype == object and big._columns == ((1, 2**70), ())
    assert m.T.shape == (5, 4) and m.T.bound == 7 and m.T.dense_block()[2].tolist() == [[0, 7], [5, -2]]
    empty = SparseMap.from_columns(2, [{}, {}, {}])
    assert empty.dense_block()[2].shape == (0, 0) and empty.bound == 0
    assert (empty.apply(np.ones((3, 2), dtype=np.int64)) == 0).all()


def _random_map(rng, shape, magnitude):
    dense = np.zeros(shape, dtype=object)
    for r, c in zip(*np.nonzero(rng.random(shape) < 0.4)):
        dense[r, c] = int(rng.integers(-magnitude, magnitude + 1))
    columns = [{r: dense[r, c] for r in range(shape[0]) if dense[r, c]} for c in range(shape[1])]
    return dense, SparseMap.from_columns(shape[0], columns)


def _random_block(rng, shape, magnitude):
    entries = rng.integers(-magnitude, magnitude + 1, size=shape, dtype=np.int64)
    return entries.astype(object)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_apply_matches_python_ints(map_bits, x_bits, seed):
    rng = np.random.default_rng(seed)
    dense, m = _random_map(rng, (5, 6), 2**map_bits)
    x = _random_block(rng, (6, 3), 2**x_bits)
    expected = dense @ x
    fits = m.bound * max(abs(v) for v in x.flat) < 2**62
    for given_x in (x, x.astype(np.int64)):
        got = m.apply(given_x)
        assert got.dtype == (np.int64 if fits else object)
        assert (got == expected).all()
    assert (m.T.apply(expected) == dense.T @ expected).all()


@st.composite
def integer_maps(draw, shape=None):
    """``(dense, map)``: a matrix of Python ints and its SparseMap.  A few
    entries land on random positions (some on one position, where they add up
    or cancel), so most rows and columns stay empty; with 70 bits the values
    leave int64 and the map holds Python ints."""
    if shape is None:
        shape = (draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    dense = np.zeros(shape, dtype=object)
    if 0 not in shape:
        bits = draw(st.sampled_from([1, 4, 12, 30, 61, 70]))
        cells = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1), st.integers(-(2**bits), 2**bits))
        for r, c, v in draw(st.lists(cells, max_size=10)):
            dense[r, c] += v
    columns = [{r: dense[r, c] for r in range(shape[0]) if dense[r, c]} for c in range(shape[1])]
    return dense, SparseMap.from_columns(shape[0], columns)


def _product(dense: np.ndarray, x: np.ndarray) -> np.ndarray:
    """dense @ x in Python ints, for a block x of Python ints."""
    out = np.zeros(dense.shape[:1] + x.shape[1:], dtype=object)
    for (i, j), a in np.ndenumerate(dense):
        out[i] += a * x[j]
    return out


def _row_sums(dense: np.ndarray) -> int:
    return max((sum(abs(v) for v in row) for row in dense.tolist()), default=0)


@settings(max_examples=200, deadline=None)
@given(integer_maps(), st.sampled_from([24, 53, 62]), st.booleans(), st.sampled_from([1, 3]), st.data())
def test_products_match_python_ints_on_both_sides_of_each_tier(mapped, edge, above, width, data):
    """M @ x for blocks of one and three columns, each given as Python ints and
    in every narrower dtype that holds it, with the largest |x| chosen so that
    bound * max |x| lands just below 2^edge or just above it.  Blocks are also
    taken one and five gathered elements at a time."""
    dense, m = mapped
    n_rows, n_cols = dense.shape
    assert m.bound == _row_sums(dense)
    xmax = max(1, (2**edge - 1) // max(m.bound, 1) + above)
    shape = (n_cols, width)
    flat = data.draw(st.lists(st.integers(-xmax, xmax), min_size=math.prod(shape), max_size=math.prod(shape)))
    if flat:
        flat[data.draw(st.integers(0, len(flat) - 1))] = data.draw(st.sampled_from([xmax, -xmax]))
    x = np.array(flat, dtype=object).reshape(shape)
    expected = _product(dense, x)
    path = exact_dtype(m.bound * xmax) if m.vals.dtype != object else object
    given_xs = [x]
    for dtype, limit in ((np.int64, 2**63), (np.float64, 2**53), (np.float32, 2**24)):
        if xmax < limit:
            given_xs.append(x.astype(dtype))
    chunk = data.draw(st.sampled_from([1, 5, chow._CHUNK]))
    with mock.patch.object(chow, "_CHUNK", chunk):
        for given_x in given_xs:
            got = m.apply(given_x)
            # Integer input leaves the float paths as int64.
            integer_from_floats = path in (np.float32, np.float64) and given_x.dtype.kind != "f"
            assert got.dtype == (np.int64 if integer_from_floats else path)
            assert got.shape == expected.shape
            assert [int(v) for v in got.flat] == list(expected.flat)
    # The transpose, on an input of the row side.
    t_rows, t_cols = np.nonzero(dense.T)
    assert m.T.rows.tolist() == t_rows.tolist() and m.T.cols.tolist() == t_cols.tolist()
    assert (densify(m.T) == dense.T).all() and m.T.bound == _row_sums(dense.T)
    y = np.resize(x, (n_rows, width))
    assert [int(v) for v in m.T.apply(y).flat] == list(_product(dense.T, y).flat)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_combination_matches_python_ints(n_rows, n_cols, data):
    """Sums of maps with coefficients, one of them cancelled by its negative:
    the entries are the nonzero sums, sorted, the bound is the largest absolute
    row sum, and values leave int64 only when the bound says they might."""
    maps = data.draw(st.lists(integer_maps((n_rows, n_cols)), min_size=1, max_size=3))
    coeffs = data.draw(st.lists(st.integers(-(2**40), 2**40), min_size=len(maps), max_size=len(maps)))
    terms = list(zip(coeffs, maps)) + [(-coeffs[0], maps[0])]
    got = SparseMap.combination((n_rows, n_cols), [(c, m) for c, (_, m) in terms])
    expected = sum((c * dense for c, (dense, _) in terms), start=np.zeros((n_rows, n_cols), dtype=object))
    assert got.shape == (n_rows, n_cols)
    assert (densify(got) == expected).all()
    rows, cols = np.nonzero(expected)
    assert got.rows.tolist() == rows.tolist() and got.cols.tolist() == cols.tolist()
    assert got.bound == _row_sums(expected)
    live = [(c, m) for c, (_, m) in terms if c and m.bound]
    fits = sum(abs(c) * m.bound for c, m in live) < 2**62 and all(m.vals.dtype != object for _, m in live)
    assert got.vals.dtype == (np.int64 if fits else object)
    outs, ins, block = got.dense_block()
    assert outs.tolist() == np.flatnonzero(expected.any(axis=1)).tolist()
    assert ins.tolist() == np.flatnonzero(expected.any(axis=0)).tolist()
    assert (block == expected[np.ix_(outs, ins)]).all()


@pytest.mark.parametrize(
    "entry, value, dtype",
    [
        (3, 5, np.int64),  # float64 BLAS
        (2**30 + 1, 2**30 + 3, np.int64),  # past 2^53: float64 would round
        (2**40 + 1, 2**40 + 1, object),  # past 2^62: int64 would wrap
        (2**70 + 1, 1, object),  # an entry beyond int64
    ],
)
def test_apply_paths_stay_exact(entry, value, dtype):
    m = SparseMap.from_columns(2, [{0: entry}, {}, {0: -entry, 1: 1}])
    x = np.array([[value], [7], [value - 1]], dtype=object)
    expected = [[entry * value - entry * (value - 1)], [value - 1]]
    got = m.apply(x if dtype is object else x.astype(np.int64))
    assert got.dtype == dtype
    assert got.tolist() == expected


@pytest.mark.parametrize(
    "entry, value, dtype",
    [
        (3, 5_592_405, np.float32),  # bound * xmax = 2^24 - 1
        (97, 172_961, np.float64),  # bound * xmax = 2^24 + 1, which float32 rounds to 2^24
    ],
)
def test_float32_tier_ends_at_2_to_the_24(entry, value, dtype):
    m = SparseMap.from_columns(1, [{0: entry}])
    expected = [[entry * value]]
    assert entry * value in (2**24 - 1, 2**24 + 1)
    # Integer input comes back int64 and exact from either float tier.
    got = m.apply(np.array([[value]], dtype=np.int64))
    assert got.dtype == np.int64 and got.tolist() == expected
    # Float input keeps the tier's float dtype.
    for x_dtype in (np.float32, np.float64):
        got = m.apply(np.array([[value]], dtype=x_dtype))
        assert got.dtype == dtype and got.tolist() == expected
    got = imatmul(np.array([[entry]], dtype=np.int64), np.array([[value]], dtype=np.int64))
    assert got.dtype == np.int64 and got.tolist() == expected


def test_float64_block_stays_float64():
    m = SparseMap.from_columns(2, [{1: -2}, {0: 3}])
    x = np.array([[1.0, 2.0], [4.0, 2.0**40]])
    got = m.apply(x, xmax=2**40)
    assert got.dtype == np.float64
    assert got.tolist() == [[12.0, 3.0 * 2**40], [-2.0, -4.0]]
    # Past 2^62 the float64 input leaves float64 for Python ints, exactly.
    big = SparseMap.from_columns(2, [{1: 1}, {0: 2**20 + 1}])
    y = np.array([[1.0], [2.0**52 + 1]])
    assert big.apply(y).tolist() == [[(2**20 + 1) * (2**52 + 1)], [1]]


def test_absmax_of_the_most_negative_int64():
    """-(-2^63) does not fit in int64; the bound must not wrap to a small number."""
    x = np.array([[-(2**63), 5]], dtype=np.int64)
    assert absmax(x) == 2**63
    # With a wrapped bound this product would run in float64 and round.
    assert imatmul(x, np.array([[3], [1]], dtype=np.int64)).tolist() == [[-3 * 2**63 + 5]]


def test_charpoly_u510_stays_below_60_mb(tmp_path):
    """The dense maps of U(5,10) would need 3.9 GB.  Maps stored as their
    nonzero entries, with the zero products never reduced and only nonzero
    normal forms memoized, keep the cold command near 45 MB; dense blocks
    between the nonzero rows and columns took 70 MB, and memoizing every
    normal form 464 MB."""
    spec = tmp_path / "u510.json"
    spec.write_text(json.dumps({"type": "uniform", "r": 5, "n": 10}))
    probe = (
        "import runpy, sys\n"
        f"sys.argv = ['chowmat', 'charpoly', {str(spec)!r}]\n"
        "try:\n"
        "    runpy.run_module('chowmat.cli', run_name='__main__')\n"
        "except SystemExit as e:\n"
        "    assert not e.code, e.code\n"
    )
    out, peak_mb = child_peak_mb(probe, timeout=300)
    result = json.loads(out)["result"]
    assert result["mu_chow"] == [math.comb(9, k) for k in range(5)]
    assert peak_mb < 60, f"peak RSS {peak_mb:.0f} MB"


def test_every_z_map_of_u58_stays_below_64_mb():
    """All 652 z-maps of U(5,8); memoizing every normal form took 100 MB."""
    probe = (
        "import numpy as np\n"
        "from chowmat import uniform\n"
        "from chowmat.chow import ChowRing\n"
        "ring = ChowRing(uniform(5, 8))\n"
        "maps = [ring.z_matrix(f, k) for k in range(ring.d) for f in ring.flats_nonempty]\n"
        "print(len(maps), sum(np.count_nonzero(m.dense_block()[2]) for m in maps))\n"
    )
    out, peak_mb = child_peak_mb(probe, timeout=300)
    assert out.split() == ["652", "25292"]  # maps and nonzero entries
    assert peak_mb < 64, f"peak RSS {peak_mb:.0f} MB"
