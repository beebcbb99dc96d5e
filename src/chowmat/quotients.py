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
    return _nested_chain_levels(m, corank)[0][corank]


def _nested_chain_levels(m: Matroid, depth: int) -> tuple[list[list[tuple[tuple[int, int], ...]]], list[list[int]]]:
    """The nested exponent chains of every corank 0..depth, each level in tuple order, and
    ``parents[k][i]`` (k >= 1), the position in level k - 1 of chain i's parent: the chain with
    its last exponent lowered by one, the flat dropped at 0.  A parent with last pair (F, a)
    (cl(0) and 0 if empty) gains each flat G >= F with rk G - rk F >= 2, in mask order, then
    (F, a + 1) while a + 1 < rk F - rk F' (F' the flat before F, or cl(0)).  These children
    first differ at the parent's last pair, (F, a) < (F, a + 1); children of parents p < q first
    differ where p and q do, as q has the same corank and so cannot extend p.  So each level
    grows from the one below in tuple order, without a sort."""
    lattice = m.lattice()
    rank = dict(zip(lattice.flats, lattice.rank_of))
    masks, ranks = np.array(sorted(rank.items()), dtype=np.int64).T
    above = {f: masks[(masks & f == f) & (ranks >= r + 2)].tolist() for f, r in rank.items()}
    levels, parents = [[()]], [[]]
    for _ in range(depth):
        level, up = [], []
        for p, chain in enumerate(levels[-1]):
            f, a = chain[-1] if chain else (lattice.flats[0], 0)
            level += [chain + ((g, 1),) for g in above[f]]
            if a + 1 < rank[f] - (rank[chain[-2][0]] if len(chain) > 1 else 0):
                level.append(chain[:-1] + ((f, a + 1),))
            up += [p] * (len(level) - len(up))
        levels.append(level)
        parents.append(up)
    return levels, parents


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
