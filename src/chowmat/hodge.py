"""Dragon Hall-Rado intersection numbers, volume polynomials, Lorentzian and
Kähler-package verification, and characteristic polynomials.

The dragon Hall-Rado (DHR) condition - rk(union of any nonempty subfamily J)
at least |J| + 1 - characterizes the nonvanishing degree-d products of
simplicial generators.  Three independent routes compute such a product:

* the combinatorial rank scan (:func:`dhr_check`),
* Groebner/normal-form reduction in the Chow ring,
* the chain of matroid intersections with corank-one matroids, which must
  terminate at the rank-one loopless matroid exactly in the nonzero case.

:func:`dhr_triple_report` verifies all three agree on every degree-d multiset
of rank >= 2 flats.  Multisets are walked as nondecreasing sequences; once a
prefix dies in all three routes at once, every extension dies in all three
for route-internal reasons (a failing subfamily stays failing, loops persist
under further intersections, and zero stays zero under multiplication), so
dead subtrees are counted instead of walked.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _linalg
from .chow import ChowElement, ChowRing, convert_element, imatmul, ring_for
from .errors import (
    EmptySetMember,
    InvariantViolation,
    LoopyMatroid,
    NonexactDivision,
    NotAProperFlat,
    NotDegreeOne,
    WrongArity,
    WrongGrade,
)
from .matroid import Matroid, bits, contract, popcount, restrict
from .quotients import truncate_by_subset


# -- the DHR condition ---------------------------------------------------------


def dhr_check(m: Matroid, multiset: list[int]) -> bool:
    """rk(union over J) >= |J| + 1 for every nonempty subfamily J."""
    sets = list(multiset)
    if any(s == 0 for s in sets):
        raise EmptySetMember("DHR takes nonempty subsets")
    for size in range(1, len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), size):
            union = 0
            for i in combo:
                union |= sets[i]
            if m.rank(union) < size + 1:
                return False
    return True


def dhr_degree(m: Matroid, multiset: list[int]) -> int:
    """Indicator form of the DHR condition for a degree-d multiset."""
    d = m.rank_full - 1
    if len(multiset) != d:
        raise WrongArity(f"need {d} sets, got {len(multiset)}")
    return 1 if dhr_check(m, multiset) else 0


def chain_terminates_loopless(m: Matroid, multiset: list[int]) -> bool:
    """Whether M wedge H_{A_1} wedge ... wedge H_{A_d} equals U_{1,E}."""
    current = m
    for s in multiset:
        if current.rank(s) < 2:
            return False
        current = truncate_by_subset(current, s)
    singles = sorted(1 << e for e in range(m.n_elements))
    return list(current.bases) == singles


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


def _multinomial_of_counts(counts: list[int]) -> int:
    total = sum(counts)
    result = 1
    for c in counts:
        result *= math.comb(total, c)
        total -= c
    return result


def volume_polynomial(m: Matroid) -> VolumePolynomial:
    """Enumerate the DHR multisets of rank >= 2 flats with multinomial weights."""
    if not m.is_loopless():
        raise LoopyMatroid("volume polynomials are defined for loopless matroids")
    d = m.rank_full - 1
    flats = [f for f in m.lattice().flats if m.rank(f) >= 2]
    terms: dict[tuple[int, ...], int] = {}

    def extend(prefix: tuple[int, ...], start: int, unions: list[tuple[int, int]]) -> None:
        if len(prefix) == d:
            counts: dict[int, int] = {}
            for f in prefix:
                counts[f] = counts.get(f, 0) + 1
            terms[tuple(sorted(prefix))] = _multinomial_of_counts(list(counts.values()))
            return
        for idx in range(start, len(flats)):
            f = flats[idx]
            new_unions = []
            ok = True
            for size, u in unions:
                nu = u | f
                if m.rank(nu) < size + 2:
                    ok = False
                    break
                new_unions.append((size + 1, nu))
            if ok:
                extend(prefix + (f,), idx, unions + new_unions)

    extend((), 0, [(0, 0)])
    return VolumePolynomial(m, d, terms)


def mconvex_support(v: VolumePolynomial) -> bool:
    """Pairwise exchange over the exponent vectors of the support.

    Exhaustive for supports up to :data:`MCONVEX_EXHAUSTIVE_CAP` points; a
    seeded pair sample beyond that (the pairwise scan is quadratic).
    """
    flats = [f for f in v.matroid.lattice().flats if v.matroid.rank(f) >= 2]
    index = {f: i for i, f in enumerate(flats)}
    vecs = np.zeros((len(v.terms), len(flats)), dtype=np.int16)
    for row, mono in enumerate(sorted(v.terms)):
        for f in mono:
            vecs[row, index[f]] += 1
    if len(vecs) <= MCONVEX_EXHAUSTIVE_CAP:
        return _mconvex_exhaustive(vecs)
    return _mconvex_sampled(vecs, MCONVEX_SAMPLED_PAIRS, 0)


def _mconvex_exhaustive(vecs: np.ndarray) -> bool:
    """Exchange for every ordered support pair, vectorized over the second point."""
    if len(vecs) == 0:
        return True
    n_points, nvars = vecs.shape
    key_set = {row.tobytes() for row in vecs}
    pow2 = 1 << np.arange(nvars, dtype=np.int64)
    for a in range(n_points):
        alpha = vecs[a]
        excess = (vecs > alpha) @ pow2
        for i in np.nonzero(alpha)[0]:
            moved = alpha.copy()
            moved[i] -= 1
            w = 0
            for j in range(nvars):
                if j == i:
                    continue
                moved[j] += 1
                if moved.tobytes() in key_set:
                    w |= 1 << j
                moved[j] -= 1
            violations = (vecs[:, int(i)] < alpha[i]) & ((excess & w) == 0)
            if violations.any():
                return False
    return True


def _mconvex_sampled(vecs: np.ndarray, pairs: int, seed: int) -> bool:
    """Exchange on a seeded sample of ordered support pairs."""
    if len(vecs) == 0:
        return True
    n_points, nvars = vecs.shape
    key_set = {row.tobytes() for row in vecs}
    rng = random.Random(seed)
    for _ in range(pairs):
        alpha = vecs[rng.randrange(n_points)]
        beta = vecs[rng.randrange(n_points)]
        for i in range(nvars):
            if alpha[i] > beta[i]:
                moved = alpha.copy()
                moved[i] -= 1
                found = False
                for j in range(nvars):
                    if alpha[j] < beta[j]:
                        moved[j] += 1
                        if moved.tobytes() in key_set:
                            found = True
                        moved[j] -= 1
                        if found:
                            break
                if not found:
                    return False
    return True


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
    """Möbius sum over all flats, divided exactly by (t - 1)."""
    if not m.is_loopless():
        raise LoopyMatroid("the reduced characteristic polynomial needs a loopless matroid")
    lattice = m.lattice()
    r = m.rank_full
    # chi(t) = sum_F mu(0, F) t^(r - rk F), coefficients by descending power.
    chi = [0] * (r + 1)
    for f in lattice.flats:
        chi[m.rank(f)] += lattice.moebius(0, f)
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
    beta_z = {
        f: 1
        for f in ring.flats_nonempty
        if f != full and not f & 1
    }
    out = []
    for k in range(d + 1):
        vec = np.ones((1, 1), dtype=np.int64)
        deg = 0
        for _ in range(k):
            vec = imatmul(ring.divisor_matrix(beta_z, deg), vec)
            deg += 1
        for _ in range(d - k):
            vec = imatmul(ring.divisor_matrix(alpha_z, deg), vec)
            deg += 1
        out.append(int(vec[0, 0]) * (-1) ** d)
    return out


def log_concavity_report(mu: list[int]) -> bool:
    return all(mu[k - 1] * mu[k + 1] <= mu[k] ** 2 for k in range(1, len(mu) - 1))


# -- symmetric forms and the Kähler package ---------------------------------------


@dataclass
class SymmetricFormReport:
    """A Hodge-Riemann form: basis labels, exact matrix, and its signature."""

    basis: list[tuple]
    matrix: list[list[Fraction]]
    signature: tuple[int, int, int]


def _element_z_integer_coeffs(ring: ChowRing, e: ChowElement) -> tuple[dict[int, int], int]:
    """z-coefficients of a degree-1 element, scaled to integers.

    Returns (coeffs, scale) with element = (1/scale) * sum c_F z_F.
    """
    z = convert_element(ring, e, "z")
    grade = z.grade()
    if grade not in (None, 1):
        raise NotDegreeOne(f"expected a degree-1 divisor, got grade {grade}")
    denom = 1
    for c in z.terms.values():
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    coeffs = {mono[0][0]: int(c * denom) for mono, c in z.terms.items()}
    return coeffs, denom


def hr_form(m: Matroid, ell: ChowElement, i: int) -> SymmetricFormReport:
    """The Hodge-Riemann form Q^i(x, y) = int(x y ell^(d-2i)) on nested degree i."""
    ring = ring_for(m)
    d = ring.d
    if i not in (0, 1) or 2 * i > d:
        raise WrongGrade(f"degree {i} not covered (need i in {{0,1}} and 2i <= d)")
    coeffs, scale = _element_z_integer_coeffs(ring, ell)
    basis = ring.nested[i]
    # Columns: ell^(d-2i) * b_c in nested z-coordinates.
    cols = ring.t_matrix(i)
    deg = i
    for _ in range(d - 2 * i):
        cols = imatmul(ring.divisor_matrix(coeffs, deg), cols)
        deg += 1
    rows = []
    for mono in basis:
        w = np.array([[(-1) ** d]], dtype=np.int64)
        cur = d
        for mask, exp in reversed(mono):
            for _ in range(exp):
                w = imatmul(w, ring.h_matrix(mask, cur - 1))
                cur -= 1
        rows.append(w[0])
    q_int = imatmul(np.stack(rows, axis=0), cols)
    if not (q_int == q_int.T).all():
        raise InvariantViolation("Q must be symmetric")
    denom = Fraction(scale) ** (d - 2 * i)
    matrix = [[Fraction(int(v)) / denom for v in row] for row in q_int]
    # Q = q_int / scale^(d-2i) with a positive scale: the same inertia.
    return SymmetricFormReport(list(basis), matrix, _linalg.signature(q_int))


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
    coeffs, scale = _element_z_integer_coeffs(ring, ell)
    vec = np.ones((1, 1), dtype=np.int64)
    for deg in range(d):
        vec = imatmul(ring.divisor_matrix(coeffs, deg), vec)
    top = Fraction(int(vec[0, 0]) * (-1) ** d, scale**d)
    hr0 = top > 0
    if d < 2:
        return KahlerReport(m, top, hr0, None, True, True, True)
    q1 = hr_form(m, ell, 1)
    n1 = len(ring.nested[1])
    hl1 = q1.signature[2] == 0
    hr1 = q1.signature == (1, n1 - 1, 0)
    return KahlerReport(m, top, hr0, q1.signature, hl1, hr1, False)


def sample_nabla_cone(m: Matroid, count: int, seed: int) -> list[ChowElement]:
    """Seeded strictly positive combinations of the nontrivial simplicial generators."""
    ring = ring_for(m)
    rng = random.Random(seed)
    flats = [f for f in ring.flats_nonempty if ring.flat_rank[f] >= 2]
    out = []
    for _ in range(count):
        out.append(
            ChowElement(
                "h",
                {((f, 1),): Fraction(rng.randint(1, 9)) for f in flats},
            )
        )
    return out


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
        mat = ring.z_matrix(flat, k)
        quotient_dims.append(mat.shape[1] - _linalg.nullity_int(mat))
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
    chain = _maximal_chain_through(m, flat)
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


def _maximal_chain_through(m: Matroid, flat: int) -> list[int]:
    lattice = m.lattice()
    chain = []
    current = 0
    for r in range(1, m.rank_full):
        nxt = next(
            f
            for f in lattice.by_rank[r]
            if current & ~f == 0 and (f & ~flat == 0 or flat & ~f == 0)
        )
        chain.append(nxt)
        current = nxt
    return chain


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


def _basis_bitmap(m: Matroid) -> int:
    bm = 0
    for b in m.bases:
        bm |= 1 << b
    return bm


def dhr_triple_report(m: Matroid, spot_checks: int = 50, seed: int = 0) -> TripleScanReport:
    """Verify dhr_degree == Groebner degree == chain termination, exhaustively.

    Live prefixes are walked with all three routes evaluated per node; a
    prefix dead in all three at once proves its whole subtree dead in all
    three (monotonicity within each route), so the subtree is counted, not
    walked.  A seeded sample of dead extensions is still evaluated directly
    through all three routes as a spot check of that argument.
    """
    if not m.is_loopless():
        raise LoopyMatroid("the scan is defined for loopless matroids")
    if m.n_elements <= 6:
        report = _triple_scan_batched(m)
    else:
        report = _triple_scan_plain(m)
    report.boundary_checked = _spot_check_dead(m, spot_checks, seed)
    return report


def _flats_rank2(m: Matroid) -> list[int]:
    return [f for f in m.lattice().flats if m.rank(f) >= 2]


def _triple_scan_plain(m: Matroid) -> TripleScanReport:
    ring = ring_for(m)
    d = ring.d
    flats = _flats_rank2(m)
    nvars = len(flats)
    live_leaves = 0
    dead = 0
    verified = 0
    agree = True

    def walk(start: int, multiset: list[int], current: Matroid, vec: np.ndarray) -> None:
        nonlocal live_leaves, dead, verified, agree
        depth = len(multiset)
        if depth == d:
            live_leaves += 1
            return
        for idx in range(start, nvars):
            f = flats[idx]
            chain_ok = current.rank(f) >= 2
            dhr_ok = dhr_check(m, multiset + [f])
            child_vec = imatmul(ring.h_matrix(m.closure(f), depth), vec)
            nf_ok = bool(child_vec.any())
            verified += 1
            if not (chain_ok == dhr_ok == nf_ok):
                agree = False
                return
            if chain_ok:
                walk(idx, multiset + [f], truncate_by_subset(current, f), child_vec)
            else:
                remaining = d - depth - 1
                dead += math.comb(nvars - idx + remaining - 1, remaining)

    walk(0, [], m, np.ones((1, 1), dtype=np.int64))
    total = math.comb(nvars + d - 1, d)
    return TripleScanReport(m, total, live_leaves, dead, verified, agree)


def _triple_scan_batched(m: Matroid) -> TripleScanReport:
    """Level-batched scan with numpy: uint64 basis bitmaps for the chain route,
    uint8 union tables for the DHR route, int64 coordinate blocks for the
    Groebner route."""
    ring = ring_for(m)
    d = ring.d
    n = m.n_elements
    flats = _flats_rank2(m)
    nvars = len(flats)
    if d == 0 or nvars == 0:
        ok = d == 0
        return TripleScanReport(m, 1 if d == 0 else 0, 1 if d == 0 else 0, 0, 1, ok)
    rank_table = m.rank_table().astype(np.uint8)
    # Chain-route tables over the 2^n subset positions of a uint64 bitmap.
    hi = [np.uint64(sum(1 << s for s in range(1 << n) if s & (1 << f))) for f in range(n)]
    pairs_mask = [
        np.uint64(sum(1 << s for s in range(1 << n) if popcount(s & f) >= 2)) for f in flats
    ]
    singles_bitmap = np.uint64(sum(1 << (1 << e) for e in range(n)))
    hmats = {
        deg: [ring.h_matrix(f, deg).T.copy() for f in flats] for deg in range(d)
    }
    flat_arr = [np.uint8(f) for f in flats]

    last = np.zeros(1, dtype=np.int16)
    bitmaps = np.array([_basis_bitmap(m)], dtype=np.uint64)
    unions = np.zeros((1, 1), dtype=np.uint8)
    coords = np.ones((1, 1), dtype=np.int64)
    live_leaves = 0
    dead = 0
    verified = 0
    agree = True
    total = math.comb(nvars + d - 1, d)

    for depth in range(d):
        nmask = 1 << depth
        sizes = np.array([popcount(mask) + 2 for mask in range(nmask)], dtype=np.uint8)
        pieces_last, pieces_bm, pieces_un, pieces_co = [], [], [], []
        # Nodes stay sorted by their last flat index; a new flat v extends
        # exactly the prefix of nodes with last <= v.
        ends = np.searchsorted(last, np.arange(nvars), side="right")
        for v in range(nvars):
            end = ends[v]
            if end == 0:
                continue
            bm = bitmaps[:end]
            un = unions[:end]
            co = coords[:end]
            count = end
            # chain route: does the current matroid give the flat rank >= 2?
            chain_ok = (bm & pairs_mask[v]) != 0
            # DHR route: every new subfamily (containing the new set) passes.
            new_un = un | flat_arr[v]
            ranks = rank_table[new_un]
            dhr_ok = (ranks >= sizes).all(axis=1)
            # Groebner route: multiply by h_{cl(F)} and test for zero.
            new_co = imatmul(co, hmats[depth][v])
            nf_ok = new_co.any(axis=1)
            verified += count
            if not ((chain_ok == dhr_ok) & (dhr_ok == nf_ok)).all():
                agree = False
                break
            livem = chain_ok
            n_live = int(livem.sum())
            n_dead = count - n_live
            if n_dead:
                remaining = d - depth - 1
                dead += n_dead * math.comb(nvars - v + remaining - 1, remaining)
            if n_live:
                if depth + 1 == d:
                    live_leaves += n_live
                    # chain route must land exactly on U_{1,E}.
                    final = _truncate_bitmaps(bm[livem], flats[v], hi, n)
                    if not (final == singles_bitmap).all():
                        agree = False
                        break
                    # Groebner route: degree value must be exactly 1.
                    if not (new_co[livem][:, 0] == (-1) ** d).all():
                        agree = False
                        break
                else:
                    pieces_last.append(np.full(n_live, v, dtype=np.int16))
                    pieces_bm.append(_truncate_bitmaps(bm[livem], flats[v], hi, n))
                    full_un = np.concatenate([un[livem], new_un[livem]], axis=1)
                    pieces_un.append(full_un)
                    pieces_co.append(new_co[livem])
        if not agree or depth + 1 == d:
            break
        if not pieces_last:
            break
        last = np.concatenate(pieces_last)
        bitmaps = np.concatenate(pieces_bm)
        unions = np.concatenate(pieces_un)
        coords = np.concatenate(pieces_co)

    return TripleScanReport(m, total, live_leaves, dead, verified, agree)


def _truncate_bitmaps(bm: np.ndarray, flat: int, hi: list[np.uint64], n: int) -> np.ndarray:
    out = np.zeros_like(bm)
    for f in bits(flat):
        out |= (bm & hi[f]) >> np.uint64(1 << f)
    return out


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
        assert nf == 0 and not chain, f"dead multiset {multiset} disagrees"
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


#: Supports larger than this get the seeded sampled exchange check; the
#: exhaustive pairwise scan is quadratic in the support size.
MCONVEX_EXHAUSTIVE_CAP = 17_000
MCONVEX_SAMPLED_PAIRS = 20_000


def lorentzian_check(m: Matroid, seed: int = 0, crosscheck: bool | None = None) -> LorentzianReport:
    """Verify the two Lorentzian conditions for the volume polynomial.

    (a) The support (all DHR multisets of rank >= 2 flats) is M-convex;
    exhaustively pairwise up to :data:`MCONVEX_EXHAUSTIVE_CAP` support points,
    by a seeded pair sample beyond that.

    (b) For every (d-2)-multiset with nonvanishing derivative, the derivative
    quadratic computed on the truncated matroid (a loopless rank-3 matroid)
    has Hessian of exact signature (1, m-1, 0) where m = dim A^1 of the
    truncation.

    With ``crosscheck`` (default: on for |E| <= 5), Hessian entries are also
    recomputed by symbolic differentiation of the volume polynomial and
    compared entry by entry against the truncated-matroid route.
    """
    if not m.is_loopless():
        raise LoopyMatroid("Lorentzian verification needs a loopless matroid")
    d = m.rank_full - 1
    flats = _flats_rank2(m)
    nvars = len(flats)
    packed = _support_packed_sorted(m, d)
    n_support = len(packed)
    if n_support <= MCONVEX_EXHAUSTIVE_CAP:
        mode = "exhaustive"
        mconvex = _mconvex_exhaustive(_unpack_matrix(packed, d, nvars))
    else:
        mode = "sampled"
        mconvex = _mconvex_sampled_packed(packed, d, nvars, MCONVEX_SAMPLED_PAIRS, seed)
    hessians = 0
    signatures_ok = True
    crosschecked = 0
    if d >= 2:
        do_cross = crosscheck if crosscheck is not None else m.n_elements <= 5
        support_set = {int(x) for x in packed} if do_cross else None
        signature_memo: dict[bytes, tuple[int, int, int]] = {}
        for packed_parent in _support_packed_sorted(m, d - 2):
            parent = _unpack(int(packed_parent), d - 2)
            current = m
            for i in parent:
                assert current.rank(flats[i]) >= 2, "live multisets must stay truncatable"
                current = truncate_by_subset(current, flats[i])
            hessians += 1
            if not _hessian_signature_ok(current, signature_memo):
                signatures_ok = False
                break
            if do_cross:
                crosschecked += _crosscheck_hessian(
                    flats, parent, current, support_set, d
                )
    return LorentzianReport(
        m, mconvex, mode, n_support, hessians, signatures_ok, crosschecked
    )


# Multisets of flat indices pack into an int, 6 bits per index, ascending.
_PACK_BITS = 6


def _pack(indices: tuple[int, ...]) -> int:
    out = 0
    for pos, idx in enumerate(sorted(indices)):
        out |= idx << (_PACK_BITS * pos)
    return out


def _unpack(packed: int, size: int) -> tuple[int, ...]:
    return tuple((packed >> (_PACK_BITS * pos)) & 0x3F for pos in range(size))


def _unpack_matrix(packed: np.ndarray, size: int, nvars: int) -> np.ndarray:
    vecs = np.zeros((len(packed), nvars), dtype=np.int16)
    for row, value in enumerate(packed):
        for i in _unpack(int(value), size):
            vecs[row, i] += 1
    return vecs


def _support_packed_sorted(m: Matroid, size: int) -> np.ndarray:
    """All DHR multisets of rank >= 2 flats, packed and sorted."""
    if m.n_elements <= 6:
        leaves = _support_packed_batched(m, size)
    else:
        leaves = np.array(
            [_pack(t) for t in _live_index_multisets(m, size)], dtype=np.uint64
        )
    leaves.sort()
    return leaves


def _live_index_multisets(m: Matroid, size: int) -> list[tuple[int, ...]]:
    flats = _flats_rank2(m)
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], start: int, unions: list[tuple[int, int]]) -> None:
        if len(prefix) == size:
            out.append(prefix)
            return
        for idx in range(start, len(flats)):
            f = flats[idx]
            new_unions = []
            ok = True
            for sz, u in unions:
                nu = u | f
                if m.rank(nu) < sz + 2:
                    ok = False
                    break
                new_unions.append((sz + 1, nu))
            if ok:
                extend(prefix + (idx,), idx, unions + new_unions)

    extend((), 0, [(0, 0)])
    return out


def _support_packed_batched(m: Matroid, size: int) -> np.ndarray:
    """Level-batched DHR walk carrying only union tables and packed keys."""
    flats = _flats_rank2(m)
    nvars = len(flats)
    if size == 0:
        return np.zeros(1, dtype=np.uint64)
    rank_table = m.rank_table().astype(np.uint8)
    flat_arr = [np.uint8(f) for f in flats]
    last = np.zeros(1, dtype=np.int16)
    unions = np.zeros((1, 1), dtype=np.uint8)
    keys = np.zeros(1, dtype=np.uint64)
    for depth in range(size):
        nmask = 1 << depth
        sizes = np.array([popcount(mask) + 2 for mask in range(nmask)], dtype=np.uint8)
        pieces_last, pieces_un, pieces_keys = [], [], []
        ends = np.searchsorted(last, np.arange(nvars), side="right")
        for v in range(nvars):
            end = ends[v]
            if end == 0:
                continue
            new_un = unions[:end] | flat_arr[v]
            live = (rank_table[new_un] >= sizes).all(axis=1)
            if not live.any():
                continue
            new_keys = keys[:end][live] | np.uint64(v << (_PACK_BITS * depth))
            if depth + 1 == size:
                pieces_keys.append(new_keys)
            else:
                pieces_last.append(np.full(int(live.sum()), v, dtype=np.int16))
                pieces_un.append(
                    np.concatenate([unions[:end][live], new_un[live]], axis=1)
                )
                pieces_keys.append(new_keys)
        if depth + 1 == size:
            return (
                np.concatenate(pieces_keys) if pieces_keys else np.zeros(0, dtype=np.uint64)
            )
        if not pieces_keys:
            return np.zeros(0, dtype=np.uint64)
        last = np.concatenate(pieces_last)
        unions = np.concatenate(pieces_un)
        keys = np.concatenate(pieces_keys)
    return keys


def _mconvex_sampled_packed(
    packed: np.ndarray, size: int, nvars: int, pairs: int, seed: int
) -> bool:
    """Seeded sampled exchange over a packed, sorted support."""
    rng = random.Random(seed)
    n_points = len(packed)
    for _ in range(pairs):
        alpha = _unpack(int(packed[rng.randrange(n_points)]), size)
        beta = _unpack(int(packed[rng.randrange(n_points)]), size)
        counts_a: dict[int, int] = {}
        counts_b: dict[int, int] = {}
        for i in alpha:
            counts_a[i] = counts_a.get(i, 0) + 1
        for i in beta:
            counts_b[i] = counts_b.get(i, 0) + 1
        for i in counts_a:
            if counts_a[i] > counts_b.get(i, 0):
                targets = [j for j in counts_b if counts_b[j] > counts_a.get(j, 0)]
                remaining = list(alpha)
                remaining.remove(i)
                candidates = np.array(
                    sorted(_pack(tuple(remaining) + (j,)) for j in targets),
                    dtype=np.uint64,
                )
                pos = np.searchsorted(packed, candidates)
                hit = (pos < n_points) & (packed[np.minimum(pos, n_points - 1)] == candidates)
                if not hit.any():
                    return False
    return True


def truncation_hessian(current: Matroid) -> tuple[list[int], np.ndarray]:
    """Hessian of the volume polynomial of a rank-3 loopless matroid.

    Generators ordered rank-2 flats first, then the full ground set; the
    entry at (a, b) is twice the DHR pair indicator.
    """
    assert current.rank_full == 3 and current.is_loopless()
    gens = [f for f in current.lattice().flats if current.rank(f) == 2]
    gens.append(current.full_mask)
    size = len(gens)
    hess = np.zeros((size, size), dtype=np.int64)
    for a in range(size):
        for b in range(size):
            hess[a, b] = 2 * dhr_degree(current, [gens[a], gens[b]])
    return gens, hess


def _hessian_signature_ok(current: Matroid, memo: dict[bytes, tuple[int, int, int]]) -> bool:
    """Signature (1, m-1, 0) for the rank-3 truncation's Hessian."""
    _, hess = truncation_hessian(current)
    size = hess.shape[0]
    key = hess.tobytes()
    sig = memo.get(key)
    if sig is None:
        sig = _linalg.signature(hess)
        memo[key] = sig
    return sig == (1, size - 1, 0)


def _crosscheck_hessian(
    flats: list[int],
    parent: tuple[int, ...],
    truncated: Matroid,
    support_set: set[int],
    d: int,
) -> int:
    """Symbolic-differentiation entries vs the truncated-matroid route."""
    checked = 0
    for a in range(len(flats)):
        for b in range(a, len(flats)):
            symbolic = 1 if _pack(parent + (a, b)) in support_set else 0
            ca = truncated.closure(flats[a])
            cb = truncated.closure(flats[b])
            if truncated.rank(ca) < 2 or truncated.rank(cb) < 2:
                via_truncation = 0
            else:
                via_truncation = dhr_degree(truncated, [ca, cb])
            assert symbolic == via_truncation, (
                f"Hessian entry mismatch at {parent} + ({a},{b})"
            )
            checked += 1
    return checked
