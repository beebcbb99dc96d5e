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
level, each with its link table N(T) = {j : T + e_j is DHR}.

:func:`dhr_triple_report` verifies all three routes agree on every degree-d
multiset of rank >= 2 flats.  Its nodes are the rows of :func:`dhr_levels`
and its DHR route is their link tables; every candidate extension is also
pushed through the chain route (rank tables, truncated by
:func:`~chowmat.quotients.truncated_ranks`) and the Groebner route.  Once
a candidate dies in all three routes at once, every extension dies in all
three for route-internal reasons (a failing subfamily stays failing, loops
persist under further intersections, and zero stays zero under
multiplication), so dead subtrees are counted instead of walked.

The support S of the volume polynomial is the top level of
:func:`dhr_levels`.  :func:`volume_polynomial`, :func:`mconvex_support` and
:func:`lorentzian_check` read everything off these arrays (Brändén-Huh,
arXiv 1902.03719): the M-convex exchange check runs once per T, and every
Hessian of a derivative quadratic is a gather of link rows, so no truncated
matroid is built outside the cross-check.
"""

from __future__ import annotations

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
from .matroid import Matroid, bits, contract, restrict, subset_index
from .quotients import truncate_along, truncate_by_subset, truncated_ranks


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
    matroid of rank 1, walked on rank tables.  Members must be nonempty subsets of E."""
    m.check_members(multiset)
    table = truncate_along(m.rank_table(), multiset)
    return table is not None and table[-1] == 1 and bool((table[1 << np.arange(m.n_elements)] == 1).all())


# -- the DHR support --------------------------------------------------------------

#: Rows (or sampled pairs) per block in the support layer, which bounds its temporaries.
_BLOCK = 2048


def _flats_rank2(m: Matroid) -> list[int]:
    """The flats of rank >= 2, in lattice order."""
    lattice = m.lattice()
    return [f for f, r in zip(lattice.flats, lattice.rank_of) if r >= 2]


def dhr_levels(m: Matroid, size: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Every DHR multiset of rank >= 2 flats with at most ``size`` members.

    Returns ``(levels, links)``.  ``levels[k]`` is the lexicographically
    sorted ``(N_k, k)`` uint16 array of the k-multisets, one nondecreasing row
    of indices into :func:`_flats_rank2` each.  ``links[k]``, for k < size,
    is the boolean ``(N_k, nvars)`` table N(T) = {j : T + e_j is DHR} over the
    rows T of ``levels[k]``.

    Each row T carries the unions U_J of its 2^k subfamilies as uint16 masks.
    As T is DHR, T + e_j fails only on a subfamily J + j with
    rk(U_J | F_j) = rk(U_J) = |J| + 1: J is tight and F_j lies in cl(U_J).
    So N(T) is every j outside the dead set D(T), the union over the tight J
    of the flats below cl(U_J).  Level k + 1 prepends each v to the rows of
    its link column whose first index is >= v, a suffix of the sorted rows,
    so the children come out sorted.  The subfamilies of a child (v, T) are
    those of T and the J + v, so D(v, T) is D(T) together with the flats
    below cl(U_J | F_v) over the J with J + v tight, rk(U_J | F_v) = |J| + 2.
    Each level keeps its dead sets as packed uint64 words, and a child ORs
    onto its parent's only the bit rows of its 2^k new subfamilies, gathered
    in blocks of children.  A level whose children get no dead sets keeps no
    union table.  ``links[k]`` unpacks those words: j is in N(T) iff bit j of
    T's dead set is clear.
    """
    return _dhr_levels(m, size, top=True)


def _below(m: Matroid) -> np.ndarray:
    """Bit rows of the rank >= 2 flats below each flat of the lattice, in uint64
    words, row i + 1 for lattice flat i and row 0 empty; built packed,
    :data:`_BLOCK` lattice rows at a time."""
    flats = np.array(_flats_rank2(m), dtype=np.uint16)
    lattice = np.array(m.lattice().flats, dtype=np.uint16)
    below = np.zeros((len(lattice) + 1, -(-len(flats) // 64)), dtype=np.uint64)
    packed = below.view(np.uint8)
    for lo in range(0, len(lattice), _BLOCK):
        part = (flats & ~lattice[lo : lo + _BLOCK, None]) == 0
        packed[lo + 1 : lo + 1 + len(part), : -(-len(flats) // 8)] = np.packbits(part, axis=1)
    return below


def _dhr_levels(m: Matroid, size: int, top: bool) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """:func:`dhr_levels`; without ``top``, it leaves out the rows of level
    ``size``, and ``links[size - 1]`` is the packed ``(N_{size-1}, ceil(nvars / 64))``
    uint64 dead-set words of level size - 1 instead of their boolean table:
    bit j of row T, in the bit order of ``np.unpackbits`` over the words' bytes,
    is set iff T + e_j is not DHR (:func:`_unpack_links`)."""
    flats = np.array(_flats_rank2(m), dtype=np.uint16)
    nvars = len(flats)
    below = _below(m)
    # tight[r << n | U]: the row of ``below`` for cl(U) if rk(U) = r, else row 0.
    lattice = np.array(m.lattice().flats, dtype=np.intp)
    position = np.zeros(1 << m.n_elements, dtype=np.min_scalar_type(len(lattice)))
    position[lattice] = np.arange(1, len(lattice) + 1)
    rank = m.rank_table()
    closed = position[m.closure_table()]
    tight = np.where(rank == np.arange(max(m.rank_full, size) + 1)[:, None], closed, 0).ravel()
    rows = np.zeros((1, 0), dtype=np.uint16)
    unions = np.zeros((1, 1), dtype=np.uint16)
    dead = np.zeros((1, below.shape[1]), dtype=np.uint64)
    levels = [rows]
    links = []
    for k in range(size):
        if k + 1 == size and not top:
            links.append(dead)
            break
        link = _unpack_links(dead, nvars)
        links.append(link)
        starts = np.searchsorted(rows[:, 0], np.arange(nvars)) if k else np.zeros(nvars, dtype=int)
        ends = np.cumsum([np.count_nonzero(link[starts[v] :, v]) for v in range(nvars)], dtype=int)
        children = np.empty((ends[-1] if nvars else 0, k + 1), dtype=np.uint16)
        linked = k + 1 < size  # the children get dead sets
        if linked:
            parent = np.empty(len(children), dtype=np.intp)
        for v, end in enumerate(ends):
            x = np.flatnonzero(link[starts[v] :, v]) + starts[v]
            block = slice(end - len(x), end)
            children[block, 0] = v
            children[block, 1:] = rows[x]
            if linked:
                parent[block] = x
        if linked:
            # The new subfamilies J + v of the children; J + v is tight iff rk(U_J | F_v) = |J| + 2.
            half = 1 << k
            offsets = (subset_index(k)[1].astype(np.intp) + 2) << m.n_elements
            child_dead = np.empty((len(children), dead.shape[1]), dtype=np.uint64)
            grow = k + 2 < size  # the children have children with dead sets: keep their unions
            if grow:
                child_unions = np.empty((len(children), 2 * half), dtype=np.uint16)
            for lo in range(0, len(children), _BLOCK):
                x = parent[lo : lo + _BLOCK]
                new = unions[x] | flats[children[lo : lo + _BLOCK, 0], None]
                hits = below[tight[offsets + new]]
                child_dead[lo : lo + _BLOCK] = dead[x] | np.bitwise_or.reduce(hits, axis=1)
                if grow:
                    child_unions[lo : lo + _BLOCK, :half] = unions[x]
                    child_unions[lo : lo + _BLOCK, half:] = new
            dead = child_dead
            if grow:
                unions = child_unions
        rows = children
        levels.append(rows)
    return levels, links


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
    """For each entry of the nondecreasing rows, how many equal entries precede it."""
    occ = np.zeros(rows.shape, dtype=np.intp)
    for p in range(1, rows.shape[1]):
        occ[:, p] = np.where(rows[:, p] == rows[:, p - 1], occ[:, p - 1] + 1, 0)
    return occ


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


def volume_polynomial(m: Matroid) -> VolumePolynomial:
    """The DHR multisets of rank >= 2 flats with multinomial weights d! / prod c_F!."""
    if not m.is_loopless():
        raise LoopyMatroid("volume polynomials are defined for loopless matroids")
    d = m.rank_full - 1
    support = dhr_levels(m, d)[0][d]
    # prod c_F! is the product over the entries of (number of equal entries before it + 1).
    coeffs = math.factorial(d) // (_copy_index(support) + 1).prod(axis=1)
    flats = _flats_rank2(m)
    order = np.argsort(flats)
    place = np.empty_like(order)
    place[order] = np.arange(len(flats))
    by_mask = np.array(flats, dtype=object)[order]
    # Keys hold the flats' own int objects in mask order, built a block at a time.
    terms = {}
    for lo in range(0, len(support), _BLOCK):
        keys = by_mask[np.sort(place[support[lo : lo + _BLOCK]], axis=1)]
        terms.update(zip(map(tuple, keys.tolist()), coeffs[lo : lo + _BLOCK].tolist()))
    return VolumePolynomial(m, d, terms)


def mconvex_support(v: VolumePolynomial) -> bool:
    """M-convexity of the exponent vectors of any term dict.

    The exchange check of :func:`lorentzian_check`, with the link table read
    off the terms themselves: exhaustive up to :data:`MCONVEX_EXHAUSTIVE_CAP`
    points, a seeded pair sample beyond that.
    """
    index = {f: i for i, f in enumerate(_flats_rank2(v.matroid))}
    rows = sorted(sorted(index[f] for f in mono) for mono in v.terms)
    if v.degree == 0:
        return True
    support = np.array(rows, dtype=np.uint16).reshape(len(rows), v.degree)
    return _mconvex(support, *_support_link(support, len(index)), 0)[0]


def _support_link(support: np.ndarray, nvars: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted (d-1)-multisets T below a sorted support and their link table."""
    drops = [np.delete(support, p, axis=1) for p in range(support.shape[1])]
    tees = np.unique(np.concatenate(drops), axis=0)
    keys = _keys(tees)
    link = np.zeros((len(tees), nvars), dtype=bool)
    for p, drop in enumerate(drops):
        link[_index(keys, drop), support[:, p]] = True
    return tees, link


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

    The nodes are the DHR multisets of :func:`dhr_levels`, level by level, and
    each (k+1)-multiset is some v prepended to a k-multiset T with v <= T[0].
    Every such candidate of every node is evaluated through all three routes:
    the link table of T (DHR), whether the rank table of M truncated along
    T's flats gives F_v rank >= 2 (chain), and whether T's product times
    h_{F_v} is nonzero (Groebner).  A candidate dead in all three at once proves its
    whole subtree dead in all three (monotonicity within each route), so the
    subtree - the C(v + r, r) ways to prepend r more indices <= v - is
    counted, not walked.  A seeded sample of dead multisets is still
    evaluated directly through all three routes as a spot check of that
    argument.  Coordinate blocks and rank tables stop at level d - 2; the
    last step takes one product and one truncation per parent block.
    """
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


def _lands_on_rank_one(tables: np.ndarray) -> np.ndarray:
    """For each column r of a (2^n, N) stack of rank tables, whether one more
    truncation, along any F_u with r(F_u) >= 2, gives U(1,E).  Like
    :func:`chain_terminates_loopless`, it reads the last table
    r'(X) = min(r(X), r(X | F_u) - 1) only at E and at the singletons, and
    there it does not depend on u: r'(E) = r(E) - 1, and
    r({e} | F_u) - 1 >= r(F_u) - 1 >= 1 >= r({e}) gives r'({e}) = r({e})."""
    singletons = 1 << np.arange(len(tables).bit_length() - 1)
    return (tables[-1] == 2) & (tables[singletons] == 1).all(axis=0)


def _triple_scan(m: Matroid) -> TripleScanReport:
    """Level-batched scan: the link tables of :func:`dhr_levels` for the DHR
    route; for the chain route one int8 rank table per node up to level
    d - 2, a column of a (2^n, N_k) block, where a candidate's test is the row
    gather r(F_v) >= 2 and a live child's table is :func:`truncated_ranks` of
    its parent's along F_v (the leaf reads it only at E and the singletons,
    :func:`_lands_on_rank_one`); and for the Groebner route one nested
    z-coordinate column per node up to level d - 2, put through the sparse
    h-maps of the ring.  Level d - 1 comes out of level d - 2 in blocks
    T[0] = v, each checked at once with every u <= v.  The products are
    GEMMs: each flat's h-map is densified once per level
    (:meth:`~chowmat.chow.SparseMap.dense_block`), into the block between
    its nonzero rows and columns in the level's product dtype, and that
    block is dropped when the flat's nodes are done.

    Each level stores its coordinates in the narrowest integer dtype of
    :func:`_storage_dtype` that holds them; only the rows a product gathers
    are cast to its :func:`exact_dtype`, and the product stays in that dtype
    until it is stored into the level below.  Every flat's product and
    truncation runs over its suffix of nodes :data:`_BLOCK` columns at a time,
    which bounds the gathered rows, the products, the truncated tables and
    the leaf's tables.  The link table of level d - 1 stays as the packed
    dead-set words of :func:`_dhr_levels`, and the leaf unpacks only the
    (nodes, v + 1) block it checks."""
    ring = ring_for(m)
    d = ring.d
    if d == 0:
        return TripleScanReport(m, 1, 1, 0, 1, True)
    flats = _flats_rank2(m)
    nvars = len(flats)
    total = math.comb(nvars + d - 1, d)
    levels, links = _dhr_levels(m, d, top=False)
    # (2^n, N_k): column i holds the rank table of M truncated along the flats of row i of levels[k].
    tables = m.rank_table()[:, None]
    # (dim A^k, N_k): column i holds the nested z-coordinates of row i of levels[k].
    coords = np.ones((1, 1), dtype=np.int64)
    # A^d has one coordinate: the entries of h_{F_u}: A^(d-1) -> A^d are row u of one functional.
    tops = [ring.h_matrix(f, d - 1) for f in flats]
    functional = np.zeros((nvars, tops[0].shape[1]), dtype=np.result_type(*(h.vals for h in tops)))
    for u, h in enumerate(tops):
        functional[u, h.cols] = h.vals
    top_bound = max(h.bound for h in tops)
    live_leaves = dead = verified = 0

    def leaves(co: np.ndarray, outs: np.ndarray, tab: np.ndarray, dead_words: np.ndarray, count: int, dtype) -> bool:
        """Checks the T + e_u, u < count, for a block of nodes T of level d - 1
        with the rank tables ``tab`` and the packed dead sets ``dead_words``."""
        nonlocal live_leaves, dead, verified
        dhr_ok = _unpack_links(dead_words, count)
        degree = (functional[:count, outs].astype(dtype) @ co).T
        chain_ok = (tab[flats[:count]] >= 2).T
        verified += chain_ok.size
        live_leaves += int(chain_ok.sum())
        dead += int((~chain_ok).sum())
        # The routes agree, the degree (the one coordinate of A^d) is (-1)^d, the chain lands on U(1,E).
        agree = ((chain_ok == dhr_ok) & (dhr_ok == (degree != 0))).all()
        landed = _lands_on_rank_one(tab)[chain_ok.any(axis=1)]
        return bool(agree and (degree[chain_ok] == (-1) ** d).all() and landed.all())

    if d == 1:  # the root
        dtype = exact_dtype(top_bound)
        ok = leaves(coords.astype(dtype), [0], tables, links[0], nvars, dtype)
        return TripleScanReport(m, total, live_leaves, dead, verified, ok)
    for k in range(d - 1):
        rows, link = levels[k], links[k]
        fused = k + 2 == d
        hmaps = [ring.h_matrix(f, k) for f in flats]
        # One bound per level: the children's coordinates are at most ``bound``, and the
        # products of the level, the leaf's included, fit in ``dtype``.
        bound = max(h.bound for h in hmaps) * absmax(coords)
        dtype = exact_dtype(bound * (top_bound if fused else 1))
        # The nodes with T[0] >= v, a suffix of the sorted rows, take v.
        starts = np.searchsorted(rows[:, 0], np.arange(nvars)) if k else np.zeros(nvars, dtype=int)
        if not fused:
            child_tables = np.empty((len(tables), len(levels[k + 1])), dtype=tables.dtype)
            child_coords = np.zeros((hmaps[0].shape[0], len(levels[k + 1])), dtype=_storage_dtype(bound))
        end = 0
        for v, start in enumerate(starts):
            outs, ins, block = hmaps[v].dense_block(dtype)
            for lo in range(start, len(rows), _BLOCK):
                tab = tables[:, lo : lo + _BLOCK]
                chain_ok = tab[flats[v]] >= 2
                dhr_ok = link[lo : lo + _BLOCK, v]
                # Rows outs of the products; every other row is zero.
                new_co = block @ coords[ins, lo : lo + _BLOCK].astype(dtype)
                nf_ok = new_co.any(axis=0)
                verified += len(chain_ok)
                if not ((chain_ok == dhr_ok) & (dhr_ok == nf_ok)).all():
                    return TripleScanReport(m, total, live_leaves, dead, verified, False)
                n_live = int(chain_ok.sum())
                dead += (len(chain_ok) - n_live) * math.comb(v + d - k - 1, v)
                # Compressed, not masked: the gathers of a contiguous block are much faster.
                truncated = truncated_ranks(np.compress(chain_ok, tab, axis=1), flats[v])
                # The live children, in the v-blocked row order of levels[k + 1].
                if fused:
                    words = links[d - 1][end : end + n_live]
                    if not leaves(new_co[:, chain_ok], outs, truncated, words, v + 1, dtype):
                        return TripleScanReport(m, total, live_leaves, dead, verified, False)
                else:
                    child_tables[:, end : end + n_live] = truncated
                    child_coords[outs, end : end + n_live] = new_co[:, chain_ok]
                end += n_live
        if not fused:
            tables, coords = child_tables, child_coords
    return TripleScanReport(m, total, live_leaves, dead, verified, True)


def _spot_check_dead(m: Matroid, count: int, seed: int) -> int:
    """Directly triple-check a seeded sample of dead multisets."""
    rng = random.Random(seed)
    ring = ring_for(m)
    d = ring.d
    flats = _flats_rank2(m)
    if d < 2 or not flats:
        return 0
    checked = 0
    attempts = 0
    while checked < count and attempts < count * 40:
        attempts += 1
        multiset = sorted(rng.choice(flats) for _ in range(d))
        if dhr_check(m, multiset):
            continue
        nf = ring.h_monomial_degree(multiset)
        chain = chain_terminates_loopless(m, multiset)
        if nf != 0 or chain:
            raise InvariantViolation(f"dead multiset {multiset} disagrees")
        checked += 1
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

    Everything is read off the sorted DHR support S of :func:`dhr_levels` and
    its link table N(T) = {j : T + e_j in S} over the (d-1)-multisets T.

    (a) S is M-convex: for all alpha, beta in S and i with alpha_i > beta_i
    some j with alpha_j < beta_j has alpha - e_i + e_j in S.  With
    T = alpha - e_i the candidates are T + e_j, and i is in N(T) because
    T + e_i = alpha.  So (alpha, beta, i) violates exchange iff
    beta_j <= T_j for every j in N(T) (for j = i that is alpha_i > beta_i),
    and conversely any T and beta with beta <= T on a nonempty N(T) give a
    violation through any i in N(T).  The check therefore runs once per T:
    no beta may stay below T on all of N(T).  It is exhaustive up to
    :data:`MCONVEX_EXHAUSTIVE_CAP` support points, and beyond that runs on a
    seeded sample of :data:`MCONVEX_SAMPLED_PAIRS` pairs.

    (b) For every DHR (d-2)-multiset P, the Hessian 2 [P + e_a + e_b in S]
    of the derivative quadratic has one positive eigenvalue.  It is the
    Hessian of the rank-3 truncation M_P (:func:`truncation_hessian`) pulled
    back along F -> cl_{M_P}(F): a flat that drops below rank 2 gives a zero
    row, and flats with one closure give equal rows.  Every generator of M_P
    is a flat of M, the largest of its class, so each appears.  Row a is
    nonzero iff P + e_a is DHR (then so is P + e_a + e_E), and then it is the
    link row of P + e_a; the gather over those a skips exactly the zero rows.
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
    levels, links = dhr_levels(m, d)
    support = levels[d]
    if d == 0:
        mconvex, mode = True, "exhaustive"
    else:
        link = links[d - 1]
        mconvex, mode = _mconvex(support, levels[d - 1], link, seed)
    hessians = 0
    signatures_ok = True
    crosschecked = 0
    if d >= 2:
        memo: dict[bytes, tuple[int, int, int]] = {}
        for q, a, t, keep in _parent_blocks(levels[d - 2], levels[d - 1], link):
            hessians += 1
            block = link[np.ix_(t[keep], a[keep])]
            key = block.tobytes()
            sig = memo.get(key)
            if sig is None:
                sig = memo[key] = _linalg.signature(block.astype(object))
            if sig != (1, len(block) - 1, 0):
                signatures_ok = False
                break
            if m.n_elements <= 5:
                crosschecked += _crosscheck_hessian(m, levels[d - 2][q], a, link[np.ix_(t, a)])
    return LorentzianReport(
        m, mconvex, mode, len(support), hessians, signatures_ok, crosschecked
    )


def _mconvex(support: np.ndarray, tees: np.ndarray, link: np.ndarray, seed: int) -> tuple[bool, str]:
    """The exchange check and its mode, for a sorted support with its link table."""
    if len(support) <= MCONVEX_EXHAUSTIVE_CAP:
        return _exchange_exhaustive(support, tees, link), "exhaustive"
    return _exchange_sampled(support, tees, link, MCONVEX_SAMPLED_PAIRS, seed), "sampled"


def _exchange_exhaustive(support: np.ndarray, tees: np.ndarray, link: np.ndarray) -> bool:
    """No beta in S with beta_j <= T_j on all of N(T), for any T.

    ``exceeds[(j, t)]`` is the bitset of the beta with beta_j > t; a T is
    cleared when the union of ``exceeds[(j, T_j)]`` over j in N(T) is all of S.
    """
    n, d = support.shape
    exceeds = np.zeros((link.shape[1] * d, n), dtype=bool)
    for p, copies in enumerate(_copy_index(support).T):
        exceeds[support[:, p].astype(np.intp) * d + copies, np.arange(n)] = True
    exceeds = np.packbits(exceeds, axis=1)
    everything = np.packbits(np.ones(n, dtype=bool))
    t, j = np.nonzero(link)
    rows = j * d + (tees[t] == j[:, None]).sum(axis=1)
    starts = np.flatnonzero(np.diff(t, prepend=-1))
    step = max(1, _BLOCK // link.shape[1])
    for g in range(0, len(starts), step):
        lo = starts[g]
        hi = starts[g + step] if g + step < len(starts) else len(t)
        covered = np.bitwise_or.reduceat(exceeds[rows[lo:hi]], starts[g : g + step] - lo, axis=0)
        if (covered != everything).any():
            return False
    return True


def _exchange_sampled(
    support: np.ndarray, tees: np.ndarray, link: np.ndarray, pairs: int, seed: int
) -> bool:
    """The exchange condition on a seeded sample of ordered support pairs.

    For alpha_i > beta_i the exchange partners of (alpha, beta, i) are the j
    in N(alpha - e_i) with beta_j > alpha_j.
    """
    n, d = support.shape
    draw = np.random.default_rng(seed).integers(n, size=(pairs, 2))
    keys = _keys(tees)
    for lo in range(0, pairs, _BLOCK):
        alpha, beta = support[draw[lo : lo + _BLOCK, 0]], support[draw[lo : lo + _BLOCK, 1]]
        here = np.arange(len(alpha))
        counts = np.zeros((2, len(alpha), link.shape[1]), dtype=np.int16)
        for side, rows in enumerate((alpha, beta)):
            for p in range(d):
                counts[side, here, rows[:, p]] += 1
        gain = counts[1] > counts[0]
        for p in range(d):
            i = alpha[:, p]
            need = counts[0, here, i] > counts[1, here, i]
            exchanged = (link[_index(keys, np.delete(alpha, p, axis=1))] & gain).any(axis=1)
            if (need & ~exchanged).any():
                return False
    return True


def _parent_blocks(parents: np.ndarray, tees: np.ndarray, link: np.ndarray):
    """For each parent P (in order): its index q, the a with P + e_a a row of
    ``tees`` (ascending), those rows t, and the mask ``keep`` of the first a
    of each distinct link row."""
    q, a, t = [], [], []
    keys = _keys(parents)
    k = tees.shape[1]
    index = np.int32 if max(len(parents), len(tees)) < 1 << 31 else np.intp
    for p in range(k):
        # Drop the last copy of each entry: P = T - e_a once per distinct a.
        rows = np.flatnonzero(tees[:, p] != tees[:, p + 1]) if p + 1 < k else np.arange(len(tees))
        q.append(_index(keys, np.delete(tees[rows], p, axis=1)).astype(index))
        a.append(tees[rows, p])
        t.append(rows.astype(index))
    q, a, t = np.concatenate(q), np.concatenate(a), np.concatenate(t)
    order = np.lexsort((a, q))
    q, a, t = q[order], a[order], t[order]
    row_id = np.unique(_keys(np.packbits(link, axis=1)), return_inverse=True)[1].ravel()
    bounds = np.searchsorted(q, np.arange(len(parents) + 1, dtype=index))
    for p in range(len(parents)):
        span = slice(bounds[p], bounds[p + 1])
        keep = np.zeros(span.stop - span.start, dtype=bool)
        keep[np.unique(row_id[t[span]], return_index=True)[1]] = True
        yield p, a[span], t[span], keep


def truncation_hessian(current: Matroid) -> tuple[list[int], np.ndarray]:
    """Hessian of the volume polynomial of a rank-3 loopless matroid.

    Generators ordered rank-2 flats first, then the full ground set; the
    entry at (a, b) is twice the DHR pair indicator.
    """
    if current.rank_full != 3:
        raise InvalidRank(f"the truncation Hessian needs rank 3, got {current.rank_full}")
    if not current.is_loopless():
        raise LoopyMatroid("the truncation Hessian needs a loopless matroid")
    gens = [f for f in current.lattice().flats if current.rank(f) == 2]
    gens.append(current.full_mask)
    size = len(gens)
    hess = np.zeros((size, size), dtype=np.int64)
    for a in range(size):
        for b in range(size):
            hess[a, b] = 2 * dhr_degree(current, [gens[a], gens[b]])
    return gens, hess


def _crosscheck_hessian(m: Matroid, parent: np.ndarray, a: np.ndarray, gathered: np.ndarray) -> int:
    """The gathered Hessian of ``parent`` against the truncated-matroid route."""
    flats = _flats_rank2(m)
    current = m
    for i in parent.tolist():
        if current.rank(flats[i]) < 2:
            raise InvariantViolation(f"DHR multiset {parent.tolist()} is not truncatable")
        current = truncate_by_subset(current, flats[i])
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
