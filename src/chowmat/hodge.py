"""Dragon Hall-Rado intersection numbers, volume polynomials, Lorentzian and
Kähler-package verification, and characteristic polynomials.

The dragon Hall-Rado (DHR) condition - rk(union of any nonempty subfamily J)
at least |J| + 1 - characterizes the nonvanishing degree-d products of
simplicial generators.  Three independent routes compute such a product:

* the combinatorial rank scan (:func:`dhr_check`),
* Groebner/normal-form reduction in the Chow ring,
* the chain of matroid intersections with corank-one matroids, which must
  terminate at the rank-one loopless matroid exactly in the nonzero case.

Every DHR multiset comes from one level-batched enumerator,
:func:`dhr_levels`: lexicographically sorted uint16 rows of flat indices per
level, each row with its dead set, the complement of N(T) = {j : T + e_j is
DHR}, as packed uint64 words that each child grows from its parent's by the
triple scan's step (:func:`_child_dead`).

:func:`dhr_triple_report` verifies all three routes agree on every degree-d
multiset of rank >= 2 flats.  Its nodes carry their own dead sets, grown by
the same step, as the DHR route.  For the chain route (rank tables, truncated
by :func:`~chowmat.quotients.truncated_ranks`) and the Groebner route
(nested z-coordinates) they share states, interned by content per level, so
every candidate extension is pushed through those routes once per distinct
state and compared with the DHR route node by node.  Once a candidate dies
in all three routes at once, every extension dies in all three for
route-internal reasons (a failing subfamily stays failing, loops persist
under further intersections, and zero stays zero under multiplication), so
dead subtrees are counted instead of walked.

The support S of the volume polynomial is the top level of
:func:`dhr_levels`.  :func:`volume_arrays` weights it (the CLI writes its
terms from these arrays, :func:`volume_polynomial` builds a dict), and
:func:`mconvex_support` and :func:`lorentzian_check` read everything off
these arrays (Brändén-Huh,
arXiv 1902.03719): the M-convex exchange check runs once per T, and every
Hessian of a derivative quadratic is a gather of link rows, so no truncated
matroid is built outside the cross-check.  The Lorentzian check stops at
level d - 1: S is counted and sampled off its dead sets, and grown only for
the exhaustive exchange check.  No link table is unpacked whole: the check
unpacks (:func:`_unpack_links`) at most :data:`_BLOCK` rows of words at a
time, or reads bit columns off them (:func:`_bit_clear`).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _linalg
from .chow import ChowElement, ChowRing, SparseMap, absmax, exact_dtype, ring_for
from .chow import imatmul  # noqa: F401  unused here; bench/spans.py rebinds hodge.imatmul (BY_VALUE)
from .errors import (
    InvalidRank,
    InvariantViolation,
    LoopyMatroid,
    NonexactDivision,
    NotAFlat,
    NotAProperFlat,
    NotDegreeOne,
    WrongArity,
    WrongGrade,
)
from .matroid import Matroid, bits, contract, restrict, singleton_index, subset_index
from .quotients import truncate_along, truncated_ranks
from .quotients import truncate_by_subset  # noqa: F401  unused here; bench/spans.py rebinds hodge.truncate_by_subset (BY_VALUE)


# -- the DHR condition ---------------------------------------------------------


def dhr_check(m: Matroid, multiset: list[int]) -> bool:
    """rk(union over J) >= |J| + 1 for every nonempty subfamily J.

    The 2^k - 1 subfamilies are the nonzero bitmasks j over the k members,
    walked upward, so each union is one OR onto a smaller subfamily's:
    ``unions[j] = unions[j & (j - 1)] | sets[lowest bit of j]``.  The first
    failing subfamily ends the walk.  Members must be nonempty subsets of E.
    """
    sets = list(multiset)
    m.check_members(sets)
    unions = [0] * (1 << len(sets))
    for j in range(1, len(unions)):
        rest = j & (j - 1)
        unions[j] = union = unions[rest] | sets[(j ^ rest).bit_length() - 1]
        if m.rank(union) <= j.bit_count():
            return False
    return True


def dhr_degree(m: Matroid, multiset: list[int]) -> int:
    """Indicator form of the DHR condition for a degree-d multiset."""
    d = m.rank_full - 1
    if len(multiset) != d:
        raise WrongArity(f"need {d} sets, got {len(multiset)}")
    return 1 if dhr_check(m, multiset) else 0


def chain_terminates_loopless(m: Matroid, multiset: list[int]) -> bool:
    """Whether M wedge H_{A_1} wedge ... wedge H_{A_d} equals U_{1,E}, the loopless
    matroid of rank 1, walked on rank tables.  Members must be nonempty subsets of E.

    The table is truncated along every member but the last; the last must then
    have rank >= 2, and the last truncation is read as the scan's leaf reads it
    (:func:`_lands_on_rank_one`), at E and the singletons only.  An empty chain
    leaves M itself, which must be U_{1,E}."""
    m.check_members(multiset)
    if not multiset:
        return m.rank_full == 1 and m.is_loopless()
    table = truncate_along(m.rank_table(), multiset[:-1])
    if table is None or table[multiset[-1]] < 2:
        return False
    return bool(_lands_on_rank_one(table[_rank_one_rows(m.n_elements)]))


# -- the DHR support --------------------------------------------------------------

#: Rows (or sampled pairs) per block in the support layer, which bounds its temporaries.
_BLOCK = 2048


def _flats_rank2(m: Matroid) -> list[int]:
    """The flats of rank >= 2, in lattice order."""
    return list(m.lattice().flats[_first_rank2(m) :])


def _first_rank2(m: Matroid) -> int:
    """The position in lattice order of the first flat of rank >= 2."""
    return bisect.bisect_left(m.lattice().rank_of, 2)


def dhr_levels(m: Matroid, size: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Every DHR multiset of rank >= 2 flats with at most ``size`` members.

    Returns ``(levels, words)``.  ``levels[k]`` is the lexicographically
    sorted ``(N_k, k)`` uint16 array of the k-multisets, one nondecreasing row
    of indices into :func:`_flats_rank2` each.  ``words[k]``, for k < size,
    holds the dead sets of the rows T of ``levels[k]`` as packed uint64 words:
    bit j (:func:`_unpack_links` order) is clear iff T + e_j is DHR, and the
    bits past the last flat are clear.  The levels are those of
    :func:`_dhr_growth`, which grows them one at a time.
    """
    levels, words = zip(*_dhr_growth(m, size))
    return list(levels), list(words[:-1])


def _dhr_growth(m: Matroid, size: int):
    """The levels 0 .. ``size`` of :func:`dhr_levels` as ``(rows, dead)``
    pairs, each grown only when the one before it has been taken, so that a
    caller that stops early never builds the rest.  The top level's dead sets
    are None.

    The growth step is the triple scan's.  Each row T carries its dead set,
    and the unions of its subfamilies while its children get dead sets.
    Level k + 1 is :func:`_children` of level k, and the children's dead sets
    grow from their parents' (:func:`_child_dead`), :data:`_BLOCK` children
    at a time."""
    flats = m.lattice().masks[_first_rank2(m) :].astype(np.uint16)
    below, tight, unions, dead = _dhr_root(m, size)
    rows = np.zeros((1, 0), dtype=np.uint16)
    for k in range(size):
        yield rows, dead
        children, parents = _children(rows, dead, *_child_counts(rows, dead, len(flats)))
        linked = k + 1 < size  # the children get dead sets
        grow = k + 2 < size  # the children have children with dead sets: keep their unions
        child_dead = np.empty((len(children) if linked else 0, dead.shape[1]), dtype=np.uint64)
        child_unions = np.empty((len(children) if grow else 0, 2 * unions.shape[1]), dtype=np.uint16)
        for lo in range(0, len(child_dead), _BLOCK):
            x = parents[lo : lo + _BLOCK]
            live = slice(lo, lo + len(x))
            parent_unions = unions.take(x, axis=0)
            child_dead[live], new = _child_dead(
                below, tight, dead.take(x, axis=0), parent_unions, flats[children[live, 0], None]
            )
            if grow:
                child_unions[live] = np.concatenate((parent_unions, new), axis=1)
        rows, dead, unions = children, child_dead, child_unions
        del parents  # not held while the caller reads the level
    yield rows, None


def _child_counts(rows: np.ndarray, dead: np.ndarray, nvars: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the suffix of the sorted rows with T[0] >= v starts (every row has
    no T[0] at level 0), and how many of its rows have bit v of their dead
    sets clear: the children of v, for each v < ``nvars``."""
    if rows.shape[1]:
        starts = np.searchsorted(rows[:, 0], np.arange(nvars))
    else:
        starts = np.zeros(nvars, dtype=np.intp)
    counts = [np.count_nonzero(_bit_clear(dead[start:], v)) for v, start in enumerate(starts.tolist())]
    return starts, np.array(counts, dtype=np.int64)


def _parents(dead: np.ndarray, starts: np.ndarray, v: int) -> np.ndarray:
    """The rows of v's suffix whose bit v is clear, ascending: the parents of v's children."""
    return np.flatnonzero(_bit_clear(dead[starts[v] :], v)) + starts[v]


def _children(
    rows: np.ndarray, dead: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The growth step: each v prepended to its parents (:func:`_parents`), v
    by v, so that the children of sorted rows come out sorted; also each
    child's parent row, as int32 below 2^31 rows."""
    children = np.empty((int(counts.sum()), rows.shape[1] + 1), dtype=np.uint16)
    parents = np.empty(len(children), dtype=np.int32 if len(rows) < 1 << 31 else np.intp)
    for v, (end, count) in enumerate(zip(np.cumsum(counts).tolist(), counts.tolist())):
        x = parents[end - count : end] = _parents(dead, starts, v)
        children[end - count : end, 0] = v
        children[end - count : end, 1:] = rows.take(x, axis=0)
    return children, parents


def _dhr_root(m: Matroid, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lookups of :func:`_child_dead` for at most ``size`` members, and the
    root's empty unions and dead set.  Row i + 1 of ``below`` packs the rank >= 2
    flats below lattice flat i (row 0 none), built :data:`_BLOCK` rows at a
    time; ``tight[r, U]`` is the row of cl(U) if rk(U) = r, else 0."""
    masks = m.lattice().masks.astype(np.uint16)
    flats = masks[_first_rank2(m) :]
    below = np.zeros((len(masks) + 1, -(-len(flats) // 64)), dtype=np.uint64)
    for lo in range(0, len(masks), _BLOCK):
        part = (flats & ~masks[lo : lo + _BLOCK, None]) == 0
        below.view(np.uint8)[lo + 1 : lo + 1 + len(part), : -(-len(flats) // 8)] = np.packbits(part, axis=1)
    position = np.zeros(1 << m.n_elements, dtype=np.min_scalar_type(len(masks)))
    position[masks] = np.arange(1, len(masks) + 1)
    tight = np.where(m.rank_table() == np.arange(max(m.rank_full, size) + 1)[:, None], position[m.closure_table()], 0)
    return below, tight, np.zeros((1, 1), dtype=np.uint16), np.zeros((1, below.shape[1]), dtype=np.uint64)


def _child_dead(below: np.ndarray, tight: np.ndarray, dead: np.ndarray, unions: np.ndarray, flat):
    """The dead sets D(v, T) of children, as packed uint64 words, from their
    parents' words and ``(N, 2^k)`` uint16 subfamily unions U_J and F_v's mask
    (or an ``(N, 1)`` column of them); also the new unions U_J | F_v.

    As T is DHR, T + e_j fails only on a subfamily J + j with
    rk(U_J | F_j) = rk(U_J) = |J| + 1: J is tight and F_j lies in cl(U_J).
    So D(T), the j with T + e_j not DHR (bit j in ``np.unpackbits`` order), is
    the union over the tight J of the flats below cl(U_J), and D(v, T) adds to
    D(T) those below cl(U_J | F_v) over the J with rk(U_J | F_v) = |J| + 2.
    The lookups run J-major, so that each gather and the OR over J read
    contiguous rows."""
    new = unions | flat
    offsets = _tight_offsets(unions.shape[1].bit_length() - 1, tight.shape[1])
    closures = tight.ravel().take(np.add(offsets, new.T, order="C"))
    return dead | np.bitwise_or.reduce(below.take(closures, axis=0), axis=0), new


@functools.cache
def _tight_offsets(k: int, size: int) -> np.ndarray:
    """The start in ``tight.ravel()`` of row |J| + 2 for each subfamily J of k
    members, a column; ``size`` is the row length."""
    offsets = (subset_index(k)[1].astype(np.intp)[:, None] + 2) * size
    offsets.setflags(write=False)
    return offsets


def _unpack_links(dead: np.ndarray, count: int) -> np.ndarray:
    """The boolean link table over the first ``count`` flats of packed dead-set words."""
    return np.unpackbits((~dead).view(np.uint8), axis=1, count=count).view(bool)


def _keys(rows: np.ndarray) -> np.ndarray:
    """One sortable key per index row: the row as big-endian uint16 bytes in a
    fixed-width byte string, so byte order is row order and no width overflows."""
    if rows.shape[1] == 0:
        return np.zeros(len(rows), dtype="S1")
    return np.ascontiguousarray(rows, dtype=">u2").view(f"S{2 * rows.shape[1]}").ravel()


def _index(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of ``rows`` among the sorted ``keys``; every row must be there."""
    queries = _keys(rows)
    pos = np.searchsorted(keys, queries)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == queries[found]
    if not found.all():
        raise InvariantViolation("a sub-multiset of the support is missing from the level below it")
    return pos


def _copy_index(rows: np.ndarray) -> np.ndarray:
    """For each entry of the nondecreasing rows, how many equal entries precede
    it, as int8: rows have at most 15 entries."""
    occ = np.zeros(rows.shape, dtype=np.int8)
    for p in range(1, rows.shape[1]):
        occ[:, p] = np.where(rows[:, p] == rows[:, p - 1], occ[:, p - 1] + 1, 0)
    return occ


def _multinomials(rows: np.ndarray) -> np.ndarray:
    """d! / prod c_F! for each nondecreasing row of d entries, as int64.

    prod c_F! is the product over the entries of (number of equal entries
    before it + 1), taken in int64 so that d! <= 15! cannot overflow."""
    return math.factorial(rows.shape[1]) // (_copy_index(rows) + 1).prod(axis=1, dtype=np.int64)


# -- volume polynomial ----------------------------------------------------------


@dataclass
class VolumePolynomial:
    """Multinomial form of int (sum t_F h_F)^d over rank >= 2 flats."""

    matroid: Matroid
    degree: int
    terms: dict[tuple[int, ...], int]

    def coefficient(self, multiset: tuple[int, ...]) -> int:
        return self.terms.get(tuple(sorted(multiset)), 0)

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.terms)

    def restrict_to_pair(self, f: int, g: int) -> list[int]:
        """Coefficients of the bivariate restriction t_f^k t_g^(d-k), k = 0..d."""
        return [
            self.terms.get(tuple(sorted([f] * k + [g] * (self.degree - k))), 0)
            for k in range(self.degree + 1)
        ]


def volume_arrays(m: Matroid) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The volume polynomial as arrays: the DHR multisets of rank >= 2 flats
    with multinomial weights d! / prod c_F!.

    Returns ``(flats, rows, coeffs)``: the rank >= 2 flats in mask order; one
    nondecreasing uint16 row of positions in ``flats`` per term, in the order
    of :func:`dhr_levels`' top level; and the terms' int64 coefficients."""
    if not m.is_loopless():
        raise LoopyMatroid("volume polynomials are defined for loopless matroids")
    d = m.rank_full - 1
    rows = dhr_levels(m, d)[0][d]
    flats = _flats_rank2(m)
    order = np.argsort(flats)
    place = np.empty(len(flats), dtype=np.uint16)
    place[order] = np.arange(len(flats))
    for lo in range(0, len(rows), _BLOCK):  # in place, a block at a time
        rows[lo : lo + _BLOCK] = np.sort(place[rows[lo : lo + _BLOCK]], axis=1)
    return sorted(flats), rows, _multinomials(rows)


def volume_polynomial(m: Matroid) -> VolumePolynomial:
    """The DHR multisets of rank >= 2 flats with multinomial weights d! / prod c_F!."""
    flats, rows, coeffs = volume_arrays(m)
    # Keys hold the flats' own int objects in mask order, built a block at a time.
    by_mask = np.array(flats, dtype=object)
    terms = {}
    for lo in range(0, len(rows), _BLOCK):
        keys = by_mask[rows[lo : lo + _BLOCK]]
        terms.update(zip(map(tuple, keys.tolist()), coeffs[lo : lo + _BLOCK].tolist()))
    return VolumePolynomial(m, m.rank_full - 1, terms)


def mconvex_support(v: VolumePolynomial) -> bool:
    """M-convexity of the exponent vectors of any term dict.

    The exchange check of :func:`lorentzian_check`, with the dead sets read
    off the terms themselves: exhaustive up to :data:`MCONVEX_EXHAUSTIVE_CAP`
    points, a seeded pair sample beyond that.
    """
    index = {f: i for i, f in enumerate(_flats_rank2(v.matroid))}
    rows = sorted(sorted(index[f] for f in mono) for mono in v.terms)
    if v.degree == 0:
        return True
    support = np.array(rows, dtype=np.uint16).reshape(len(rows), v.degree)
    return _mconvex(*_support_link(support, len(index)), len(index), 0)[0]


def _support_link(support: np.ndarray, nvars: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted (d-1)-multisets T below a sorted support, and their dead sets
    as packed uint64 words: bit j is clear iff T + e_j is in the support.  The
    support is then the children of the T (:func:`_children`)."""
    drops = [np.delete(support, p, axis=1) for p in range(support.shape[1])]
    tees = np.unique(np.concatenate(drops), axis=0)
    keys = _keys(tees)
    dead = np.ones((len(tees), -(-nvars // 64) * 64), dtype=bool)
    dead[:, nvars:] = False
    for p, drop in enumerate(drops):
        dead[_index(keys, drop), support[:, p]] = False
    return tees, np.packbits(dead, axis=1).view(np.uint64)


def ultra_log_concave(seq: list[int]) -> bool:
    """No internal zeros, and ULC after normalizing by binomials."""
    d = len(seq) - 1
    nz = [i for i, a in enumerate(seq) if a]
    if nz and any(seq[i] == 0 for i in range(nz[0], nz[-1] + 1)):
        return False
    for k in range(1, d):
        lhs = Fraction(seq[k], math.comb(d, k)) ** 2
        rhs = Fraction(seq[k - 1], math.comb(d, k - 1)) * Fraction(seq[k + 1], math.comb(d, k + 1))
        if lhs < rhs:
            return False
    return True


# -- characteristic polynomial ---------------------------------------------------


@dataclass
class CharPoly:
    """Reduced characteristic polynomial with its absolute coefficient vector."""

    reduced_coeffs: list[int]  # descending powers t^d ... t^0
    mu: list[int]


def char_poly(m: Matroid) -> CharPoly:
    """chi(t) from the rank table, divided exactly by (t - 1).

    By Whitney's formula chi(t) = sum_{S subset E} (-1)^|S| t^(r(E) - r(S)),
    the coefficient of t^(r(E) - j) is the number of even subsets of rank j
    minus the odd ones.  For a loopless matroid it equals the Möbius sum over
    the flats, sum_F mu(0, F) t^(r(E) - rk F) (Rota 1964): the ``mu_moebius``
    of the ``charpoly`` command."""
    if not m.is_loopless():
        raise LoopyMatroid("the reduced characteristic polynomial needs a loopless matroid")
    r = m.rank_full
    # chi by descending power t^r ... t^0: one count over 2 r(S) + (|S| mod 2),
    # in intp, as the sizes are uint8.
    parity = subset_index(m.n_elements)[1] & 1
    counts = np.bincount(2 * m.rank_table().astype(np.intp) + parity, minlength=2 * r + 2)
    chi = (counts[0::2] - counts[1::2]).tolist()
    quotient = []
    remainder = 0
    for c in chi:
        remainder = remainder + c
        quotient.append(remainder)
    if quotient[-1] != 0:
        raise NonexactDivision("chi(t) is not divisible by (t - 1)")
    reduced = quotient[:-1]
    mu = []
    for k, c in enumerate(reduced):
        if c * (-1) ** k < 0:
            raise NonexactDivision("coefficient signs do not alternate")
        mu.append(abs(c))
    return CharPoly(reduced, mu)


def mu_via_degrees(m: Matroid) -> list[int]:
    """mu^k = int alpha^(d-k) beta^k computed in the Chow ring."""
    ring = ring_for(m)
    d = ring.d
    full = m.full_mask
    alpha_z = {full: -1}
    beta_z = {f: 1 for f in ring.flats_nonempty if f != full and not f & 1}
    alpha = [ring.divisor_matrix(alpha_z, deg) for deg in range(d)]
    beta = [ring.divisor_matrix(beta_z, deg) for deg in range(d)]
    return [int(ring.pairing(0, beta[:k] + alpha[k:])[0, 0]) for k in range(d + 1)]


def log_concavity_report(mu: list[int]) -> bool:
    return all(mu[k - 1] * mu[k + 1] <= mu[k] ** 2 for k in range(1, len(mu) - 1))


# -- symmetric forms and the Kähler package ---------------------------------------


@dataclass
class SymmetricFormReport:
    """A Hodge-Riemann form: basis labels, exact matrix, and its signature."""

    basis: list[tuple]
    matrix: list[list[Fraction]]
    signature: tuple[int, int, int]


def _divisor_coeffs(ring: ChowRing, e: ChowElement) -> tuple[dict[int, int], int]:
    """(coeffs, scale) with e = (1/scale) * sum c_F z_F for a degree-1 element e, read off the
    linear substitutions x_F = z_F (F != E) and h_F = -sum_{G >= F} z_G."""
    grade = e.grade()
    if grade not in (None, 1):
        raise NotDegreeOne(f"expected a degree-1 divisor, got grade {grade}")
    full = ring.matroid.full_mask if e.alphabet == "x" else 0
    lin = ring.supersets if e.alphabet == "h" else {f: [f] for f in ring.supersets if f != full}
    z: dict[int, Fraction] = {}
    for ((f, _),), c in e.terms.items():
        if f not in lin:
            raise NotAFlat(f"variable {sorted(bits(f))} not available in this alphabet")
        for g in lin[f]:
            z[g] = z.get(g, 0) + (-c if e.alphabet == "h" else c)
    denom = math.lcm(*(c.denominator for c in z.values()))
    return {f: int(c * denom) for f, c in z.items()}, denom


def _hr_matrix(ring: ChowRing, maps: list[SparseMap], i: int) -> np.ndarray:
    """Q^i times scale^(d-2i) as an integer matrix, ``maps[deg]`` the divisor's map deg -> deg+1:
    the ring's pairing of degree i through ell^(d-2i), checked symmetric."""
    q_int = ring.pairing(i, maps[i : ring.d - i])
    if not (q_int == q_int.T).all():
        raise InvariantViolation("Q must be symmetric")
    return q_int


def hr_form(m: Matroid, ell: ChowElement, i: int) -> SymmetricFormReport:
    """The Hodge-Riemann form Q^i(x, y) = int(x y ell^(d-2i)) on nested degree i."""
    ring = ring_for(m)
    d = ring.d
    if i not in (0, 1) or 2 * i > d:
        raise WrongGrade(f"degree {i} not covered (need i in {{0,1}} and 2i <= d)")
    coeffs, scale = _divisor_coeffs(ring, ell)
    q_int = _hr_matrix(ring, [ring.divisor_matrix(coeffs, deg) for deg in range(d - i)], i)
    denom = Fraction(scale) ** (d - 2 * i)
    matrix = [[Fraction(int(v)) / denom for v in row] for row in q_int]
    # Q = q_int / scale^(d-2i) with a positive scale: the same inertia.
    return SymmetricFormReport(list(ring.nested[i]), matrix, _linalg.signature(q_int))


@dataclass
class KahlerReport:
    """HL/HR in degrees 0 and 1 for one divisor class."""

    matroid: Matroid
    top_power: Fraction
    hr0: bool
    q1_signature: tuple[int, int, int] | None
    hl1: bool
    hr1: bool
    degree_one_vacuous: bool

    @property
    def ok(self) -> bool:
        return self.hr0 and self.hl1 and self.hr1


def kahler_check(m: Matroid, ell: ChowElement) -> KahlerReport:
    """Verify HL0/HR0 (positive top power) and HL1/HR1 (Lorentzian signature)."""
    ring = ring_for(m)
    d = ring.d
    coeffs, scale = _divisor_coeffs(ring, ell)
    maps = [ring.divisor_matrix(coeffs, deg) for deg in range(d)]
    top = Fraction(int(ring.pairing(0, maps)[0, 0]), scale**d)
    hr0 = top > 0
    if d < 2:
        return KahlerReport(m, top, hr0, None, True, True, True)
    sig = _linalg.signature(_hr_matrix(ring, maps, 1))
    return KahlerReport(m, top, hr0, sig, sig[2] == 0, sig == (1, len(ring.nested[1]) - 1, 0), False)


def sample_nabla_cone(m: Matroid, count: int, seed: int) -> list[ChowElement]:
    """Seeded strictly positive combinations of the nontrivial simplicial generators."""
    if not m.is_loopless():
        raise LoopyMatroid("Chow rings are defined for loopless matroids")
    rng = random.Random(seed)
    flats = _flats_rank2(m)
    return [ChowElement("h", {((f, 1),): Fraction(rng.randint(1, 9)) for f in flats}) for _ in range(count)]


# -- star factorization ------------------------------------------------------------


@dataclass
class StarFactorizationReport:
    """A(M)/ann(x_F) against A(M|F) (x) A(M/F): dimensions and a degree probe."""

    flat: int
    quotient_dims: list[int]
    tensor_dims: list[int]
    dims_match: bool
    degree_probe: Fraction
    tensor_degree_probe: Fraction

    @property
    def ok(self) -> bool:
        return (
            self.dims_match
            and self.degree_probe == 1
            and self.tensor_degree_probe == 1
        )


def star_factorization_check(m: Matroid, flat: int) -> StarFactorizationReport:
    """Compare A(M)/ann(x_F) with the tensor product of the two minors."""
    if flat == 0 or flat == m.full_mask or not m.is_flat(flat):
        raise NotAProperFlat(f"{sorted(bits(flat))} is not a proper nonempty flat")
    ring = ring_for(m)
    d = ring.d
    quotient_dims = []
    for k in range(d):
        # The rank of x_F: the block between its nonzero rows and columns has the same rank.
        _, ins, block = ring.z_matrix(flat, k).dense_block()
        quotient_dims.append(len(ins) - _linalg.nullity_int(block))
    restricted = restrict(m, flat)
    contracted = contract(m, flat)
    ha = ring_for(restricted.matroid).hilbert_function()
    hb = ring_for(contracted.matroid).hilbert_function()
    tensor_dims = [
        sum(ha[i] * hb[k - i] for i in range(k + 1) if i < len(ha) and k - i < len(hb))
        for k in range(d)
    ]
    # Degree probe: a maximal flag through the flat; the complement monomial
    # must integrate to 1 against x_F, and factor as two maximal flags.
    chain = m.lattice().maximal_chain(flat)
    complement = [f for f in chain if f != flat]
    probe = ring.degree(ChowElement.monomial("x", complement + [flat]))
    below = [restricted.old_to_new_mask(f) for f in complement if f & ~flat == 0]
    above = [contracted.old_to_new_mask(f & ~flat) for f in complement if f & ~flat]
    ring_a = ring_for(restricted.matroid)
    ring_b = ring_for(contracted.matroid)
    tensor_probe = ring_a.degree(ChowElement.monomial("x", below)) * ring_b.degree(
        ChowElement.monomial("x", above)
    )
    return StarFactorizationReport(
        flat,
        quotient_dims,
        tensor_dims,
        quotient_dims == tensor_dims,
        probe,
        tensor_probe,
    )


# -- the triple-route scan and the Lorentzian verification --------------------------


@dataclass
class TripleScanReport:
    """Outcome of the three-route agreement scan over all degree-d multisets."""

    matroid: Matroid
    total_multisets: int
    live_leaves: int
    dead_counted: int
    verified_nodes: int
    agree: bool
    boundary_checked: int = 0

    @property
    def ok(self) -> bool:
        return self.agree and self.live_leaves + self.dead_counted == self.total_multisets


def dhr_triple_report(m: Matroid, spot_checks: int = 50, seed: int = 0) -> TripleScanReport:
    """Verify dhr_degree == Groebner degree == chain termination, exhaustively.

    The nodes are the DHR multisets, level by level, and each (k+1)-multiset
    is some v prepended to a k-multiset T with v <= T[0].  Every such
    candidate of every node is evaluated through all three routes: T's dead
    set (DHR), whether the rank table of M truncated along T's flats gives
    F_v rank >= 2 (chain), and whether T's product times h_{F_v} is nonzero
    (Groebner).  A candidate dead in all three at once proves its whole
    subtree dead in all three (monotonicity within each route), so the
    subtree - the C(v + r, r) ways to prepend r more indices <= v - is
    counted, not walked.  A seeded sample of dead multisets is still
    evaluated directly through all three routes as a spot check of that
    argument.  No node of level d - 1 is kept: each block of them is checked
    as it comes out of its parents, and then dropped."""
    if not m.is_loopless():
        raise LoopyMatroid("the scan is defined for loopless matroids")
    report = _triple_scan(m)
    report.boundary_checked = _spot_check_dead(m, spot_checks, seed)
    return report


def _storage_dtype(bound: int):
    """The narrowest signed integer dtype holding every integer of absolute value
    at most ``bound``; Python ints beyond int64."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return object


def _lands_on_rank_one(ranks: np.ndarray) -> np.ndarray:
    """For each column r of a stack of rank tables (or one table), given by its
    rows E and {0}, ..., {n - 1} (:func:`_rank_one_rows`), whether one more
    truncation, along any F_u with r(F_u) >= 2, gives U(1,E): the last step of
    the scan's leaf and of :func:`chain_terminates_loopless`.  The last table
    r'(X) = min(r(X), r(X | F_u) - 1) is read only at E and at the
    singletons, and there it does not depend on u: r'(E) = r(E) - 1, and
    r({e} | F_u) - 1 >= r(F_u) - 1 >= 1 >= r({e}) gives r'({e}) = r({e}).
    So r must read 2 at E and 1 at every singleton."""
    return (ranks.reshape(len(ranks), -1) == _landing_ranks(len(ranks) - 1)).all(axis=0)


@functools.cache
def _landing_ranks(n: int) -> np.ndarray:
    """The column (2, 1, ..., 1) of :func:`_lands_on_rank_one` for n singletons."""
    column = np.ones((n + 1, 1), dtype=np.int8)
    column[0] = 2
    column.setflags(write=False)
    return column


@functools.cache
def _rank_one_rows(n: int) -> np.ndarray:
    """The rows of a rank table that :func:`_lands_on_rank_one` reads: E and the
    singletons {0}, ..., {n - 1}, as intp; one read-only array per n."""
    rows = np.concatenate(([(1 << n) - 1], singleton_index(n)))
    rows.setflags(write=False)
    return rows


def _triple_scan(m: Matroid) -> TripleScanReport:
    """Level-batched scan over interned states.  Each node of levels 0 .. d - 2
    carries its subfamily unions and dead set for the DHR route (T + e_v is DHR
    iff bit v is clear), and two state numbers.  The chain state is one of the
    level's distinct int8 rank tables, the columns of a (2^n, S) block: the
    test is r(F_v) >= 2, and a live child's table is :func:`truncated_ranks`
    of its parent's along F_v.  The Groebner state is one of its distinct rows
    of nested z-coordinates, put through the sparse h-maps.  Nodes share
    states (the 31,494 nodes of level d - 2 of U(6,6) have 1,202 of each), so
    each flat multiplies, tests and truncates each state once, not each node.
    The states are interned by their exact content (:class:`_States`) and
    numbered by their last node, descending, so that the suffix of nodes a
    flat reads holds exactly a prefix of each table.  The routes are compared
    per node, its dead-set bit against its two states' tests, and the live
    children's dead sets (:func:`_child_dead`) are built once they agree.
    The products are GEMMs: each flat's h-map is densified once per level
    (:meth:`~chowmat.chow.SparseMap.dense_block`), into the block between its
    nonzero rows and columns in the level's product dtype, and dropped when
    the flat's states are done.

    Level d - 1 comes out of level d - 2 in blocks T[0] = v, checked with
    every u <= v and dropped.  Its leaves are read per state: the children's
    coordinates times the first v + 1 rows of the top-degree h-maps, times
    (-1)^d, give their degrees, which must be 0 or 1; the chain tables,
    truncated along F_v only at E, the singletons and the first v + 1 flats,
    give r(F_u) >= 2, and each table that lives to level d - 1, of rank 2
    without loops, must land on U(1,E) (:func:`_lands_on_rank_one`).  Both
    sets of leaf bits are packed like the dead sets, and each node's first
    v + 1 bits of its child's dead set, cleared, must equal its two states'.

    Each level stores its coordinates in the narrowest integer dtype of
    :func:`_storage_dtype` that holds them; only the entries a product
    gathers are cast to its :func:`exact_dtype`, and the product stays in
    that dtype until it is queued for the level below.  Both live in one
    buffer each per level.  Products run over :data:`_BLOCK` states at a time
    and the nodes' steps over :data:`_BLOCK` nodes, which bounds the gathered
    coordinates, the products and the leaf's dead sets."""
    ring = ring_for(m)
    d = ring.d
    if d == 0:
        return TripleScanReport(m, 1, 1, 0, 1, True)
    n = m.n_elements
    flats = _flats_rank2(m)
    nvars = len(flats)
    total = math.comb(nvars + d - 1, d)
    below, tight, unions, words = _dhr_root(m, d)
    width = words.shape[1]
    # The rows the leaf reads: E, the singletons, F_0 .. F_{nvars - 1}.
    rows = np.concatenate((_rank_one_rows(n), flats))
    # (2^n, S_k): the distinct rank tables of M truncated along the flats of the nodes, one per column.
    tables = m.rank_table()[:, None]
    # (S_k, dim A^k): the distinct nested z-coordinates of the products of the nodes.
    coords = np.ones((1, 1), dtype=np.int64)
    # Each node's chain and Groebner state, and each state's last node.
    cstate = gstate = np.zeros(1, dtype=np.intp)
    clast = glast = np.zeros(1, dtype=np.intp)
    # A^d has one coordinate: the entries of h_{F_u}: A^(d-1) -> A^d, times (-1)^d, are row u of
    # one functional, so a nonzero degree-d product reads 1.
    tops = [ring.h_matrix(f, d - 1) for f in flats]
    functional = np.zeros((nvars, tops[0].shape[1]), dtype=np.result_type(*(h.vals for h in tops)))
    for u, h in enumerate(tops):
        functional[u, h.cols] = (-1) ** d * h.vals
    top_bound = max(h.bound for h in tops)
    live_leaves = dead = verified = 0
    # Row u holds the bits 0 .. u, packed in the bytes of the dead sets' words.
    leading = np.packbits(np.tri(nvars, dtype=bool), axis=1)

    def chain_leaves(ranks: np.ndarray, usable: np.ndarray) -> np.ndarray | None:
        """The leaf bits r(F_u) >= 2, u < count, of the chain states whose tables a
        ``(n + 1 + count, S)`` stack gives at E, the singletons and the first count
        flats, packed like the dead sets (one row of bytes per state); None if a
        ``usable`` state, one whose chain lives to level d - 1, misses U(1,E).  Such
        a chain has rank 2 and no loop, so each usable state must land, whether or
        not some leaf of it lives."""
        if not _lands_on_rank_one(ranks[: n + 1])[usable].all():
            return None
        return np.packbits(np.ascontiguousarray(ranks[n + 1 :].T) >= 2, axis=1)

    def leaves(dead_words: np.ndarray, chain_bits: np.ndarray, degree_bits: np.ndarray, count: int) -> bool:
        """Checks the T + e_u, u < count, for a block of nodes T of level d - 1: the
        cleared bits u < count of their dead sets must be the packed bits of their chain
        and degree states, given one row each."""
        nonlocal live_leaves, dead, verified
        nbytes = chain_bits.shape[1]
        live = ~dead_words.view(np.uint8)[:, :nbytes] & leading[count - 1, :nbytes]
        alive = int(np.bitwise_count(live).sum())
        size = count * len(live)
        verified += size
        live_leaves += alive
        dead += size - alive
        return bool(((live == chain_bits) & (live == degree_bits)).all())

    if d == 1:  # the root
        degree = (functional @ coords).T
        one = degree == 1
        chain_bits = chain_leaves(tables[rows], np.ones(1, dtype=bool))
        ok = (
            chain_bits is not None
            and np.count_nonzero(degree) == np.count_nonzero(one)
            and leaves(words, chain_bits, np.packbits(one, axis=1), nvars)
        )
        return TripleScanReport(m, total, live_leaves, dead, verified, ok)

    # The nodes with T[0] >= v, a suffix of the v-blocked nodes, take v.
    starts = np.zeros(nvars, dtype=int)
    for k in range(d - 1):
        fused = k + 2 == d
        hmaps = [ring.h_matrix(f, k) for f in flats]
        # One bound per level: the children's coordinates, the products, are at most ``bound``,
        # and at the fused level the partial sums of their leaves' degrees at most
        # top_bound * bound; all of them fit in ``dtype``.
        bound = max(h.bound for h in hmaps) * absmax(coords)
        dtype = exact_dtype(bound * max(top_bound, 1) if fused else bound)
        if fused:
            top = functional.astype(dtype)
            # Each flat's leaf bits of the degrees, one row of bytes per state.
            degree_bytes = np.empty((len(coords), -(-nvars // 8)), dtype=np.uint8)
        else:
            # The children of v, in v-blocked order: the nodes of its suffix, those with
            # T[0] >= v, whose bit v is clear.  Counted over blocks of nodes, for every v at once.
            firsts = np.searchsorted(starts, np.arange(len(words)), side="right") - 1
            counts = np.zeros(nvars, dtype=int)
            for lo in range(0, len(words), _BLOCK):
                takes = firsts[lo : lo + _BLOCK, None] >= np.arange(nvars)
                counts += (_unpack_links(words[lo : lo + _BLOCK], nvars) & takes).sum(axis=0)
            size = int(counts.sum())
            # Each child's candidate numbers, turned into its state numbers once the level is
            # done: int32 on a level of more than _BLOCK nodes, where they take the most memory,
            # and intp, which numpy gathers by without a cast, on a smaller one.
            index = np.int32 if size > _BLOCK else np.intp
            child_gstate = np.empty(size, dtype=index)
            child_cstate = np.empty(size, dtype=index)
            child_unions = np.empty((size, 2 * unions.shape[1]), dtype=np.uint16)
            child_words = np.empty((size, width), dtype=np.uint64)
            next_coords = _States(hmaps[0].shape[0], _storage_dtype(bound), size)
            next_tables = _States(len(tables), tables.dtype, size)
            # Each flat's candidate number of each state's child.
            gchildren = np.empty(len(coords), dtype=np.int32)
            cchildren = np.empty(tables.shape[1], dtype=np.int32)
        # One buffer each for the gathered coordinates and the products of every (v, block),
        # so that their pages are faulted in once per level, not once per new largest size.
        cols = min(_BLOCK, len(coords))
        gathered = np.empty(cols * hmaps[0].shape[1], dtype=dtype)
        products = np.empty(cols * hmaps[0].shape[0], dtype=dtype)
        nf_oks = np.empty(len(coords), dtype=bool)
        # The states of the nodes from starts[v] on, whose last node is there or later: a prefix
        # of each table.
        gcounts = (len(glast) - np.searchsorted(glast[::-1], starts)).tolist()
        ccounts = (len(clast) - np.searchsorted(clast[::-1], starts)).tolist()
        end = 0
        for v, (start, gcount, ccount) in enumerate(zip(starts.tolist(), gcounts, ccounts)):
            outs, ins, block = hmaps[v].dense_block(dtype)
            nf_ok = nf_oks[:gcount]
            if fused:
                # The children's leaves' degrees times (-1)^d, one row per child.
                leaf = top[: v + 1, outs].T
                degree_bits = degree_bytes[:gcount, : (v >> 3) + 1]
            else:
                gchild, cchild = gchildren[:gcount], cchildren[:ccount]
            for lo in range(0, gcount, _BLOCK):
                part = slice(lo, min(lo + _BLOCK, gcount))
                factor = gathered[: (part.stop - lo) * len(ins)].reshape(-1, len(ins))
                np.copyto(factor, coords[part, ins], casting="unsafe")
                # One row per state: its child's coordinates at outs.
                product = np.matmul(factor, block.T, out=products[: len(factor) * len(outs)].reshape(len(factor), -1))
                ok = nf_ok[part] = (product != 0).any(axis=1)  # a bool reduction, faster than a float one
                if fused:
                    degree = product @ leaf
                    one = degree == 1
                    if np.count_nonzero(degree) != np.count_nonzero(one):
                        return TripleScanReport(m, total, live_leaves, dead, verified, False)
                    degree_bits[part] = np.packbits(one, axis=1)
                else:
                    x = ok.nonzero()[0]
                    gchild[lo + x] = next_coords.add(product[x], outs)
            chain_ok = tables[flats[v], :ccount] >= 2
            dhr_ok = _bit_clear(words[start:], v)
            verified += len(dhr_ok)
            if not ((chain_ok.take(cstate[start:]) == dhr_ok) & (nf_ok.take(gstate[start:]) == dhr_ok)).all():
                return TripleScanReport(m, total, live_leaves, dead, verified, False)
            dead += (len(dhr_ok) - int(np.count_nonzero(dhr_ok))) * math.comb(v + d - k - 1, v)
            # The chain states of the live nodes, truncated along F_v once each.
            if fused:
                chain_bits = chain_leaves(truncated_ranks(tables[:, :ccount], flats[v], rows[: n + v + 2]), chain_ok)
                if chain_bits is None:
                    return TripleScanReport(m, total, live_leaves, dead, verified, False)
            else:
                x = chain_ok.nonzero()[0]
                for lo in range(0, len(x), _BLOCK):
                    part = x[lo : lo + _BLOCK]
                    cchild[part] = next_tables.add(truncated_ranks(tables[:, part], flats[v]).T)
            for lo in range(0, len(dhr_ok), _BLOCK):
                x = dhr_ok[lo : lo + _BLOCK].nonzero()[0] + (start + lo)
                parent_unions = unions.take(x, axis=0)
                child_dead, new = _child_dead(below, tight, words.take(x, axis=0), parent_unions, flats[v])
                if fused:
                    if not leaves(child_dead, chain_bits.take(cstate.take(x), axis=0), degree_bits.take(gstate.take(x), axis=0), v + 1):
                        return TripleScanReport(m, total, live_leaves, dead, verified, False)
                else:
                    live = slice(end, end + len(x))
                    child_gstate[live] = gchild.take(gstate.take(x))
                    child_cstate[live] = cchild.take(cstate.take(x))
                    child_unions[live] = np.concatenate((parent_unions, new), axis=1)
                    child_words[live] = child_dead
                    end += len(x)
        if not fused:
            starts = np.cumsum(counts) - counts
            coords, glast = next_coords.numbered(child_gstate)
            tables, clast = next_tables.numbered(child_cstate, axis=1)
            gstate, cstate = child_gstate, child_cstate
            unions, words = child_unions, child_words
            del next_coords, next_tables
    return TripleScanReport(m, total, live_leaves, dead, verified, True)


class _States:
    """The distinct states of one route at one level, one row each, interned by
    their exact content.

    Candidate rows are queued behind the states and interned :data:`_BLOCK` at
    a time, so that a level pays a few interning passes, not one per flat.  A
    row's 64-bit key (:func:`_state_keys`) names the state it most likely
    equals, and an exact comparison decides; a row unlike that state is
    compared with every state of its key, so that a colliding key costs time,
    never a wrong state."""

    def __init__(self, width: int, dtype, nodes: int) -> None:
        # There are at most as many states as nodes.
        self.rows = np.empty((min(nodes, _BLOCK), width), dtype=dtype)
        self.size = self.queued = self.added = 0
        self.found: list[np.ndarray] = []  # the state of each interned candidate, a queue at a time
        self.first: dict[int, int] = {}  # key -> its first state
        self.more: dict[int, list[int]] = {}  # key -> its later states, if any

    def add(self, values: np.ndarray, columns: np.ndarray | None = None) -> range:
        """Queue candidate rows, ``values`` at ``columns`` (all by default) and zero
        elsewhere; their candidate numbers, counted in the order added."""
        end = self.size + self.queued + len(values)
        if end > len(self.rows):
            grown = np.empty((max(end, 2 * len(self.rows)), self.rows.shape[1]), dtype=self.rows.dtype)
            grown[: end - len(values)] = self.rows[: end - len(values)]
            self.rows = grown
        if columns is None:
            self.rows[end - len(values) : end] = values
        else:
            self.rows[end - len(values) : end] = 0
            self.rows[end - len(values) : end, columns] = values
        numbers = range(self.added, self.added + len(values))
        self.added += len(values)
        self.queued += len(values)
        if self.queued >= _BLOCK:
            self._intern()
        return numbers

    def _intern(self) -> None:
        """Give each queued row its state; the rows of new states move down to the queue's start."""
        base = self.size
        queue = self.rows[base : base + self.queued]
        keys = _state_keys(queue).tolist()
        # Each row takes its key's first state, and the first row j of a new key gives it
        # base + j; the new states are then numbered on from base in row order.
        state = np.fromiter(map(self.first.setdefault, keys, itertools.count(base)), dtype=np.int32, count=len(keys))
        keep = (state == base + np.arange(len(keys))).nonzero()[0]  # keep[i]: the queued row of state base + i
        fresh = state >= base
        number = np.empty(len(keys), dtype=np.int32)
        number[keep] = base + np.arange(len(keep))
        state[fresh] = number[state[fresh] - base]
        self.first.update(zip([keys[j] for j in keep.tolist()], range(base, base + len(keep))))
        # The rows that took a state by their key alone, held before the new states move down.
        taken = np.ones(len(state), dtype=bool)
        taken[keep] = False
        taken = taken.nonzero()[0]
        held = queue[taken]
        if (keep != np.arange(len(keep))).any():
            self.rows[base : base + len(keep)] = queue[keep]
        self.size += len(keep)
        # A held row unlike its state collided: it is compared with every state of its key.
        unlike = (held != self.rows[state[taken]]).any(axis=1)
        for j, row in zip(taken[unlike].tolist(), held[unlike]):
            bucket = [state[j], *self.more.get(keys[j], ())]
            state[j] = next((s for s in bucket if np.array_equal(self.rows[s], row)), self.size)
            if state[j] == self.size:
                self.rows[self.size] = row
                self.size += 1
                self.more.setdefault(keys[j], []).append(int(state[j]))
        self.queued = 0
        self.found.append(state)

    def numbered(self, nodes: np.ndarray, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Number the states by their last node, descending.  ``nodes`` holds each
        node's candidate number, and is overwritten with its state's number,
        :data:`_BLOCK` nodes at a time.  Returns the states in that order as one
        table, a row (``axis`` 0) or a column (1) each, and each state's last
        node.  Every state has a node."""
        self._intern()
        found = np.concatenate(self.found)
        last = np.full(self.size, -1, dtype=np.intp)
        for lo in range(0, len(nodes), _BLOCK):
            block = nodes[lo : lo + _BLOCK]
            np.maximum.at(last, found[block], np.arange(lo, lo + len(block)))
        order = np.argsort(-last)
        number = np.empty(self.size, dtype=np.int32)
        number[order] = np.arange(self.size)
        for lo in range(0, len(nodes), _BLOCK):
            block = nodes[lo : lo + _BLOCK]
            block[:] = number[found[block]]
        states = self.rows[: self.size]
        if axis == 0:
            return states.take(order, axis=0), last[order]
        # The columns are written 64 table rows at a time, so that each block's transpose
        # stays in cache; a take along the transposed table reads one cache line per entry.
        table = np.empty((states.shape[1], self.size), dtype=states.dtype)
        for lo in range(0, len(table), 64):
            table[lo : lo + 64] = states[:, lo : lo + 64].take(order, axis=0).T
        return table, last[order]


def _state_keys(rows: np.ndarray) -> np.ndarray:
    """A 64-bit key per row, equal for equal rows: the row's bytes as 16-bit
    lanes (an odd last byte a lane of its own), summed with fixed odd 64-bit
    weights modulo 2^64.  Two rows whose lanes differ by d_i collide only if
    sum w_i d_i = 0 modulo 2^64, and as d_i < 2^16 each term keeps at least
    48 bits of its weight.  Rows of Python ints are keyed by the hashes of
    their tuples."""
    if rows.dtype == object:
        return np.array([hash(tuple(r)) for r in rows.tolist()], dtype=np.int64).view(np.uint64)
    data = np.ascontiguousarray(rows).view(np.uint8)
    lanes = data[:, : data.shape[1] & ~1].view(np.uint16)
    weights = _key_weights(lanes.shape[1] + 1)
    # einsum reads the strided lanes in place and widens them a buffer at a time.
    keys = np.einsum("ij,j->i", lanes, weights[:-1], dtype=np.uint64, casting="unsafe")
    if data.shape[1] & 1:
        keys += data[:, -1] * weights[-1]
    return keys


@functools.cache
def _key_weights(count: int) -> np.ndarray:
    """``count`` fixed pseudo-random odd uint64 weights: the splitmix64 outputs
    of the counter 1 .. count (numpy.random is not loaded for them)."""
    x = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31)) | np.uint64(1)


def _bit_clear(words: np.ndarray, v: int) -> np.ndarray:
    """Whether bit v of each row of packed dead-set words (:func:`_unpack_links` order) is clear;
    for an array of v, one column per v."""
    return (words.view(np.uint8)[:, v >> 3] & (0x80 >> (v & 7))) == 0


#: Candidates the spot check draws at most per dead multiset it is asked for.
_SPOT_DRAWS = 200


def _spot_check_dead(m: Matroid, count: int, seed: int) -> int:
    """Directly triple-check a seeded sample of ``count`` dead multisets, and
    return how many were found.

    The candidates are d-multisets of rank >= 2 flats, drawn :data:`_BLOCK`
    at a time, at most ``count`` * :data:`_SPOT_DRAWS` in all: little-endian
    64-bit words of ``random.Random(seed).randbytes`` reduced modulo the
    number of flats, as in :func:`_exchange_sampled`.  A block is tested for
    DHR in one pass over its 2^d subfamily unions on the rank table, and its
    dead multisets, in draw order, go through :func:`dhr_check`, the Groebner
    degree and chain termination until ``count`` have been checked."""
    ring = ring_for(m)
    d = ring.d
    flats = np.array(_flats_rank2(m), dtype=np.int64)
    if d < 2 or not len(flats):
        return 0
    rng = random.Random(seed)
    table = m.rank_table()
    checked = 0
    for _ in range(0, count * _SPOT_DRAWS, _BLOCK):
        draw = np.frombuffer(rng.randbytes(8 * d * _BLOCK), dtype="<u8") % np.uint64(len(flats))
        sets = np.sort(flats[draw.astype(np.int64)].reshape(_BLOCK, d), axis=1)
        # unions[j]: the union of the subfamily j, a bitmask over the d members.
        unions = np.zeros((1 << d, _BLOCK), dtype=np.int64)
        dead = np.zeros(_BLOCK, dtype=bool)
        for j in range(1, 1 << d):
            rest = j & (j - 1)
            unions[j] = unions[rest] | sets[:, (j ^ rest).bit_length() - 1]
            dead |= table[unions[j]] <= j.bit_count()
        for multiset in sets[dead].tolist():
            live = dhr_check(m, multiset), ring.h_monomial_degree(multiset) != 0, chain_terminates_loopless(m, multiset)
            if any(live):
                raise InvariantViolation(f"dead multiset {multiset} disagrees")
            checked += 1
            if checked == count:
                return checked
    return checked


# -- Lorentzian verification ---------------------------------------------------------


@dataclass
class LorentzianReport:
    matroid: Matroid
    mconvex: bool
    mconvex_mode: str
    support_size: int
    hessians_checked: int
    signatures_ok: bool
    crosschecked_entries: int

    @property
    def ok(self) -> bool:
        return self.mconvex and self.signatures_ok


#: Supports larger than this get the seeded sampled exchange check.
MCONVEX_EXHAUSTIVE_CAP = 17_000
MCONVEX_SAMPLED_PAIRS = 20_000


def lorentzian_check(m: Matroid, seed: int = 0) -> LorentzianReport:
    """Verify the Brändén-Huh conditions for the volume polynomial.

    Everything is read off the DHR (d-1)-multisets T of :func:`dhr_levels`
    and their dead sets, whose clear bits are the link N(T) = {j : T + e_j in
    S} of the support S; the (d-2)-multisets below them give the Hessians.
    Levels 0 .. d - 1 are grown (:func:`_dhr_growth`), and S is not: its size
    is the count of the clear bits v <= T[0] over the T, and its points are
    the T + e_v.  No link table is unpacked whole: the exchange check and the
    Hessians gather the words of at most :data:`_BLOCK` rows at a time and
    read bits off them.

    (a) S is M-convex: for all alpha, beta in S and i with alpha_i > beta_i
    some j with alpha_j < beta_j has alpha - e_i + e_j in S.  With
    T = alpha - e_i the candidates are T + e_j, and i is in N(T) because
    T + e_i = alpha.  So (alpha, beta, i) violates exchange iff
    beta_j <= T_j for every j in N(T) (for j = i that is alpha_i > beta_i),
    and conversely any T and beta with beta <= T on a nonempty N(T) give a
    violation through any i in N(T).  The check therefore runs once per T:
    no beta may stay below T on all of N(T).  It is exhaustive up to
    :data:`MCONVEX_EXHAUSTIVE_CAP` support points, the only case in which S
    is grown, and beyond that runs on a seeded sample of
    :data:`MCONVEX_SAMPLED_PAIRS` pairs (:func:`_exchange_sampled`).

    (b) For every DHR (d-2)-multiset P, the Hessian 2 [P + e_a + e_b in S]
    of the derivative quadratic has one positive eigenvalue.  It is the
    Hessian of the rank-3 truncation M_P (:func:`truncation_hessian`) pulled
    back along F -> cl_{M_P}(F): a flat that drops below rank 2 gives a zero
    row, and flats with one closure give equal rows.  Every generator of M_P
    is a flat of M, the largest of its class, so each appears.  Row a is
    nonzero iff P + e_a is DHR (then so is P + e_a + e_E), that is iff a is in
    P's link, read off P's dead set at level d - 2; and then it is the link
    row of P + e_a.  The gather over those a skips exactly the zero rows.
    Deleting a zero row and column, or subtracting a duplicate row and column
    from its twin and deleting it, is a congruence that keeps both
    eigenvalue counts.  So the block of distinct link rows has the positive
    and negative counts of the truncation's Hessian, and it must have
    signature (1, m - 1, 0), m its size, as the truncation's must.
    Signatures are memoized on the block's bytes and taken by elimination.

    For |E| <= 5 every gathered Hessian is also compared entry by entry with
    :func:`truncation_hessian` of the truncated matroid.
    """
    if not m.is_loopless():
        raise LoopyMatroid("Lorentzian verification needs a loopless matroid")
    d = m.rank_full - 1
    nvars = len(_flats_rank2(m))
    if d == 0:
        return LorentzianReport(m, True, "exhaustive", 1, 0, True, 0)
    levels, words = zip(*itertools.islice(_dhr_growth(m, d), d))
    tees, dead = levels[d - 1], words[d - 1]
    mconvex, mode, size = _mconvex(tees, dead, nvars, seed)
    hessians = 0
    signatures_ok = True
    crosschecked = 0
    if d >= 2:
        memo: dict[bytes, tuple[int, int, int]] = {}
        for q, a, t, keep in _parent_blocks(levels[d - 2], words[d - 2], tees, dead, nvars):
            hessians += 1
            block = _bit_clear(dead.take(t[keep], axis=0), a[keep])
            key = block.tobytes()
            sig = memo.get(key)
            if sig is None:
                sig = memo[key] = _linalg.signature(block.astype(object))
            if sig != (1, len(block) - 1, 0):
                signatures_ok = False
                break
            if m.n_elements <= 5:
                crosschecked += _crosscheck_hessian(m, levels[d - 2][q], a, _bit_clear(dead.take(t, axis=0), a))
    return LorentzianReport(m, mconvex, mode, size, hessians, signatures_ok, crosschecked)


def _mconvex(tees: np.ndarray, dead: np.ndarray, nvars: int, seed: int) -> tuple[bool, str, int]:
    """The exchange check, its mode and the support's size, for the sorted
    (d-1)-multisets T below a support and their dead sets: the support is the
    T + e_v with v <= T[0] and bit v clear, grown only for the exhaustive check."""
    starts, counts = _child_counts(tees, dead, nvars)
    size = int(counts.sum())
    if size <= MCONVEX_EXHAUSTIVE_CAP:
        support = _children(tees, dead, starts, counts)[0]
        return _exchange_exhaustive(support, tees, dead, nvars), "exhaustive", size
    return _exchange_sampled(tees, dead, starts, counts, MCONVEX_SAMPLED_PAIRS, seed), "sampled", size


def _exchange_exhaustive(support: np.ndarray, tees: np.ndarray, dead: np.ndarray, nvars: int) -> bool:
    """No beta in S with beta_j <= T_j on all of N(T), for any T.

    ``exceeds[(j, t)]`` is the bitset of the beta with beta_j > t; a T is
    cleared when the union of ``exceeds[(j, T_j)]`` over j in N(T) is all of S.
    The links are unpacked for about :data:`_BLOCK` // nvars rows T at a time.
    """
    n, d = support.shape
    exceeds = np.zeros((nvars * d, n), dtype=bool)
    for p, copies in enumerate(_copy_index(support).T):
        exceeds[support[:, p].astype(np.intp) * d + copies, np.arange(n)] = True
    exceeds = np.packbits(exceeds, axis=1)
    everything = np.packbits(np.ones(n, dtype=bool))
    step = max(1, _BLOCK // nvars)
    for lo in range(0, len(tees), step):
        t, j = np.nonzero(_unpack_links(dead[lo : lo + step], nvars))
        if not len(t):
            continue
        rows = j * d + (tees[lo + t] == j[:, None]).sum(axis=1)
        covered = np.bitwise_or.reduceat(exceeds[rows], np.flatnonzero(np.diff(t, prepend=-1)), axis=0)
        if (covered != everything).any():
            return False
    return True


def _exchange_sampled(
    tees: np.ndarray, dead: np.ndarray, starts: np.ndarray, counts: np.ndarray, pairs: int, seed: int
) -> bool:
    """The exchange condition on a seeded sample of ordered support pairs.

    For alpha_i > beta_i the exchange partners of (alpha, beta, i) are the j
    in N(alpha - e_i) with beta_j > alpha_j.

    The pairs are 2 * ``pairs`` indices into the sorted support of size N:
    little-endian 64-bit words of ``random.Random(seed).randbytes``, reduced
    modulo N.  An index is drawn with probability floor(2^64 / N) / 2^64 or
    ceil(2^64 / N) / 2^64, so the draw is uniform up to a relative bias below
    N / 2^64.  ``numpy.random`` is not used: importing it costs about 5 MB of
    resident memory, as much as the rest of the check on small matroids.
    Each index becomes its point through the cumulative child counts
    (:func:`_support_points`), and only the links of the alpha - e_i drawn,
    :data:`_BLOCK` pairs at a time, are unpacked.
    """
    d = tees.shape[1] + 1
    nvars = len(counts)
    draw = np.frombuffer(random.Random(seed).randbytes(16 * pairs), dtype="<u8") % np.uint64(counts.sum())
    points = _support_points(tees, dead, starts, counts, draw.astype(np.int64)).reshape(pairs, 2, d)
    keys = _keys(tees)
    for lo in range(0, pairs, _BLOCK):
        alpha, beta = points[lo : lo + _BLOCK, 0], points[lo : lo + _BLOCK, 1]
        here = np.arange(len(alpha))
        tally = np.zeros((2, len(alpha), nvars), dtype=np.int16)
        for side, rows in enumerate((alpha, beta)):
            for p in range(d):
                tally[side, here, rows[:, p]] += 1
        gain = tally[1] > tally[0]
        for p in range(d):
            i = alpha[:, p]
            need = tally[0, here, i] > tally[1, here, i]
            t = _index(keys, np.delete(alpha, p, axis=1))
            exchanged = (_unpack_links(dead.take(t, axis=0), nvars) & gain).any(axis=1)
            if (need & ~exchanged).any():
                return False
    return True


def _support_points(
    tees: np.ndarray, dead: np.ndarray, starts: np.ndarray, counts: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """The points of the sorted support, the children of the rows ``tees``
    (:func:`_children`), at the given indices, without growing the rest: index
    i lies in the block of the v with ``cumsum(counts)[v - 1] <= i <
    cumsum(counts)[v]``, and its parent is v's parent of that rank, found with
    one pass over v's suffix per v drawn."""
    ends = np.cumsum(counts)
    v = np.searchsorted(ends, index, side="right")
    rank = index - (ends - counts)[v]
    points = np.empty((len(index), tees.shape[1] + 1), dtype=np.uint16)
    points[:, 0] = v
    order = np.argsort(v, kind="stable")
    bounds = np.searchsorted(v[order], np.arange(len(counts) + 1))
    for u in np.flatnonzero(np.diff(bounds)).tolist():
        here = order[bounds[u] : bounds[u + 1]]
        points[here, 1:] = tees.take(_parents(dead, starts, u).take(rank[here]), axis=0)
    return points


def _parent_blocks(parents: np.ndarray, parent_dead: np.ndarray, tees: np.ndarray, dead: np.ndarray, nvars: int):
    """For each parent P (in order): its index q, the a with P + e_a DHR
    (ascending), read off P's dead-set words ``parent_dead``, the rows t of
    the P + e_a among the sorted ``tees``, and the mask ``keep`` of the first
    a of each distinct link row.  Link rows are compared on the bytes of the
    tees' dead-set words ``dead``, whose bits past the last flat are clear.
    The parents' words are unpacked about :data:`_BLOCK` links at a time."""
    keys = _keys(tees)
    row = f"V{dead.itemsize * dead.shape[1]}"
    step = max(1, _BLOCK // nvars)
    for lo in range(0, len(parents), step):
        block = parents[lo : lo + step]
        q, a = np.nonzero(_unpack_links(parent_dead[lo : lo + step], nvars))  # row-major: ordered by (q, a)
        a = a.astype(np.uint16)
        t = _index(keys, np.sort(np.column_stack((block.take(q, axis=0), a)), axis=1))
        bounds = np.searchsorted(q, np.arange(len(block) + 1))
        for p in range(len(block)):
            span = slice(bounds[p], bounds[p + 1])
            keep = np.zeros(span.stop - span.start, dtype=bool)
            keep[np.unique(dead.take(t[span], axis=0).view(row).ravel(), return_index=True)[1]] = True
            yield lo + p, a[span], t[span], keep


def truncation_hessian(current: Matroid) -> tuple[list[int], np.ndarray]:
    """Hessian of the volume polynomial of a rank-3 loopless matroid.

    Generators ordered rank-2 flats first, then the full ground set; the
    entry at (a, b) is twice the DHR pair indicator.
    """
    if current.rank_full != 3:
        raise InvalidRank(f"the truncation Hessian needs rank 3, got {current.rank_full}")
    if not current.is_loopless():
        raise LoopyMatroid("the truncation Hessian needs a loopless matroid")
    gens = [*current.lattice().by_rank[2], current.full_mask]
    size = len(gens)
    hess = np.zeros((size, size), dtype=np.int64)
    for a in range(size):
        for b in range(size):
            hess[a, b] = 2 * dhr_degree(current, [gens[a], gens[b]])
    return gens, hess


def _crosscheck_hessian(m: Matroid, parent: np.ndarray, a: np.ndarray, gathered: np.ndarray) -> int:
    """The gathered Hessian of ``parent`` against the truncated-matroid route."""
    flats = _flats_rank2(m)
    table = truncate_along(m.rank_table(), [flats[i] for i in parent.tolist()])
    if table is None:
        raise InvariantViolation(f"DHR multiset {parent.tolist()} is not truncatable")
    current = Matroid.from_rank_table(table)
    gens, hess = truncation_hessian(current)
    where = {g: i for i, g in enumerate(gens)}
    # Flats that drop below rank 2 have no generator: the extra zero row and column.
    pos = [where.get(current.closure(f), len(gens)) for f in flats]
    padded = np.zeros((len(gens) + 1, len(gens) + 1), dtype=np.int64)
    padded[:-1, :-1] = hess
    expected = padded[np.ix_(pos, pos)]
    symbolic = np.zeros_like(expected)
    symbolic[np.ix_(a, a)] = 2 * gathered
    if not (symbolic == expected).all():
        r, c = np.argwhere(symbolic != expected)[0]
        raise InvariantViolation(f"Hessian entry mismatch at {parent.tolist()} + ({r},{c})")
    return len(flats) * (len(flats) + 1) // 2
