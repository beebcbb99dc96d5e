"""Matroid quotients: principal truncations, intersections, Higgs factorizations,
and relative nested quotients.

A quotient ``f: M' <<- M`` is witnessed by every flat of ``M'`` being a flat
of ``M``.  The f-nullity ``n_f(S) = rk_M(S) - rk_M'(S)`` grades the quotient;
its minimal flats per nullity level (the f-cyclic flats) determine the
quotient, and quotients whose f-cyclic flats form a chain are exactly the
images of nested-basis monomials under the cap product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import EmptyFlat, GroundSetMismatch, InvalidRank, InvariantViolation, NotAFlat
from .matroid import Matroid, popcount, subset_index


@dataclass
class QuotientWitness:
    """Certifies that ``lower`` is a matroid quotient of ``upper``."""

    lower: Matroid
    upper: Matroid

    def nullity(self, subset: int) -> int:
        return self.upper.rank(subset) - self.lower.rank(subset)

    @property
    def corank(self) -> int:
        return self.nullity(self.upper.full_mask)


@dataclass
class HiggsChain:
    """The canonical factorization of a quotient into elementary quotients.

    ``stages[0]`` is the lower matroid and ``stages[-1]`` the upper one; all
    stages live on the shared ambient ground set.  ``cuts[i]`` is the modular
    cut of ``stages[i+1]`` defining the step down to ``stages[i]``.
    """

    stages: list[Matroid]
    cuts: list[frozenset[int]]


def is_quotient(lower: Matroid, upper: Matroid) -> QuotientWitness | None:
    """Witness that every flat of ``lower`` is a flat of ``upper``, else None."""
    if lower.n_elements != upper.n_elements:
        raise GroundSetMismatch("quotients need a common ground set")
    # Every flat of L is a flat of U iff cl_U(S) <= cl_L(S) for every S: a flat
    # F of L has cl_U(F) <= cl_L(F) = F, and conversely cl_L(S) is a flat of L,
    # hence of U, and contains S, so it contains cl_U(S).
    if (upper.closure_table() & ~lower.closure_table()).any():
        return None
    return QuotientWitness(lower, upper)


def principal_truncation(m: Matroid, flat: int) -> Matroid:
    """The elementary quotient T_F(M) of the interval modular cut [F, E].

    Bases are ``{B \\ f : B a basis of M, f in B & F}``; the result is
    loopless iff rk(F) > 1.
    """
    _check_flats(m, [flat])
    return truncate_by_subset(m, flat)


def _check_flats(m: Matroid, flats: list[int]) -> None:
    """Raise EmptyFlat or NotAFlat unless every member is a nonempty flat of M."""
    for f in flats:
        if not 0 < f <= m.full_mask or not m.is_flat(f):
            raise (EmptyFlat if f == 0 else NotAFlat)(f"{f:#b} is not a nonempty flat")


def truncate_by_subset(m: Matroid, subset: int) -> Matroid:
    """M wedge H_S for a nonempty subset S, read off the rank table: the principal
    truncation along cl(S), with loops exactly when rk(S) = 1."""
    m.check_members([subset])
    if m.rank(subset) == 0:
        # S consists of loops of m: every spanning-set intersection keeps rank.
        raise InvalidRank("subset consists of loops; intersection is not rank-decreasing")
    return Matroid.from_rank_table(truncated_ranks(m.rank_table(), subset))


def truncated_ranks(table: np.ndarray, subset: int) -> np.ndarray:
    """The rank table of the truncation along cl(S), rk(S) >= 1: the modular cut [cl S, E]
    gives r'(X) = min(r(X), r(X | S) - 1).  If S is inside cl X, r(X | S) = r(X) and X loses
    one rank; otherwise r(X | S) >= r(X) + 1 and X keeps it.  So r' = r - [S <= cl X].
    A (2^n, N) stack of tables, one per column, truncates column by column, as
    ``table[subsets | S]`` gathers whole rows."""
    return np.minimum(table, table[subset_index(len(table).bit_length() - 1)[0] | subset] - 1)


def truncate_along(table: np.ndarray, subsets: Iterable[int]) -> np.ndarray | None:
    """The rank table after truncating along each subset in turn, or None once one has rank
    < 2 in its stage.  The order is free: steps along S and T give min(r(X), r(X | S) - 1,
    r(X | T) - 1, r(X | S | T) - 2), symmetric in S and T; a step of rank >= 2 creates no loop
    and one of rank <= 1 a loop (or a negative rank) that persists, so it stops in every order or none."""
    for s in subsets:
        if table[s] < 2:
            return None
        table = truncated_ranks(table, s)
    return table


def matroid_intersection(a: Matroid, b: Matroid) -> Matroid:
    """The matroid whose spanning sets are pairwise intersections of spanning sets.

    Computed from the definition: minimal intersections are the bases.  The
    exchange axiom is re-checked, keeping this route independent of the
    principal-truncation shortcut it cross-validates.
    """
    if a.n_elements != b.n_elements:
        raise GroundSetMismatch("matroid intersection needs a common ground set")
    inter = {sa & sb for sa in a.spanning_sets() for sb in b.spanning_sets()}
    min_size = min(popcount(s) for s in inter)
    candidates = [s for s in inter if popcount(s) == min_size]
    return Matroid(a.n_elements, candidates, validate=True)


def f_cyclic_flats(w: QuotientWitness) -> list[int]:
    """Flats of the lower matroid minimal among those sharing their f-nullity.

    The nullities are one difference of the two rank tables; flat i is dropped
    when some other flat j inside it has its nullity.
    """
    flats = np.array(w.lower.lattice().flats, dtype=np.uint16)
    nullity = w.upper.rank_table()[flats] - w.lower.rank_table()[flats]
    shadowed = ((flats[None] & ~flats[:, None]) == 0) & (nullity[None] == nullity[:, None])
    np.fill_diagonal(shadowed, False)
    return sorted(flats[~shadowed.any(axis=1)].tolist(), key=lambda f: (popcount(f), f))


def is_relative_nested(w: QuotientWitness) -> bool:
    """True iff the f-cyclic flats are totally ordered by inclusion."""
    # Sorted by (size, mask), they form a chain iff each lies inside the next.
    cyc = f_cyclic_flats(w)
    return all(f & ~g == 0 for f, g in zip(cyc, cyc[1:]))


def higgs_factorization(w: QuotientWitness) -> HiggsChain:
    """Interpolate the quotient by its canonical chain of elementary quotients.

    Stage ``i`` is the Higgs lift with rank min(rk_M(X), rk_M'(X) + i): its
    bases are the subsets of size rk(M') + i that span the lower matroid and
    are independent in the upper one.  The cut of each step collects the
    flats whose f-nullity is still at least the step index.
    """
    corank, lower, upper = w.corank, w.lower, w.upper
    lifts = [np.minimum(upper.rank_table(), lower.rank_table() + i) for i in range(1, corank)]
    stages = [lower, *map(Matroid.from_rank_table, lifts), upper] if corank else [lower]
    cuts = [frozenset(f for f in stages[i].lattice().flats if w.nullity(f) >= i) for i in range(1, corank + 1)]
    return HiggsChain(stages, cuts)


def nested_exponent_chains(m: Matroid, corank: int) -> list[tuple[tuple[int, int], ...]]:
    """Chains ((F_1, a_1), ..., (F_k, a_k)) with sum a_i = corank satisfying
    the nested-basis constraints 1 <= a_i < rk(F_i) - rk(F_{i-1})."""
    if not 0 <= corank <= max(m.rank_full - 1, 0):
        raise InvalidRank(f"corank {corank} outside 0..{m.rank_full - 1}")
    return _nested_chain_levels(m, corank)[corank]


def _nested_chain_levels(m: Matroid, depth: int) -> list[list[tuple[tuple[int, int], ...]]]:
    """The nested exponent chains of every corank 0..depth, each level sorted.

    One recursion fills all levels; the Chow ring reads its nested monomial
    basis, degree by degree, off the same levels.
    """
    lattice = m.lattice()
    flats = [(f, r) for f, r in zip(lattice.flats, lattice.rank_of) if f]
    levels: list[list[tuple[tuple[int, int], ...]]] = [[] for _ in range(depth + 1)]

    def extend(prefix: tuple[tuple[int, int], ...], last_flat: int, last_rank: int, total: int) -> None:
        levels[total].append(prefix)
        for f, r in flats:
            if last_flat and (last_flat & ~f or f == last_flat):
                continue
            for a in range(1, min(r - last_rank - 1, depth - total) + 1):
                extend(prefix + ((f, a),), f, r, total + a)

    extend((), 0, 0, 0)
    for level in levels:
        level.sort()
    return levels


def apply_exponent_chain(m: Matroid, chain: tuple[tuple[int, int], ...]) -> Matroid:
    """The quotient of M truncated a_i times along each F_i of the chain, in one walk on rank
    tables.  Every F_i must be a nonempty flat of M, checked once, and no step may have rank < 2."""
    _check_flats(m, [f for f, _ in chain])
    table = truncate_along(m.rank_table(), [f for f, a in chain for _ in range(a)])
    if table is None:
        raise InvalidRank(f"chain {chain} truncates along a flat of rank < 2")
    return Matroid.from_rank_table(table) if chain else m


def enumerate_relative_nested(m: Matroid, corank: int) -> list[Matroid]:
    """All loopless relative nested quotients of the given corank.

    Generated by iterated principal truncations over nested exponent chains;
    distinct chains must give distinct matroids, so a collision is an error,
    not something to deduplicate silently.
    """
    results: list[Matroid] = []
    seen: dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {}
    for chain in nested_exponent_chains(m, corank):
        quotient = apply_exponent_chain(m, chain)
        key = quotient.bases
        if key in seen:
            raise InvariantViolation(
                f"exponent chains {seen[key]} and {chain} produced the same quotient"
            )
        seen[key] = chain
        results.append(quotient)
    return results
