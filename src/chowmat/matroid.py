"""Matroids on small ground sets, with rank/closure oracles and the lattice of flats.

Ground sets are ``{0, 1, ..., n}`` and subsets are machine-word bitmasks, so
everything here is exact and exhaustive.  Ranks are read off one numpy rank
table over all ``2^|E|`` subsets, and closures in bulk off one closure table
built from it; the hard cap on the ground set size (:data:`MAX_GROUND`)
bounds both tables.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    EmptyBases,
    EmptyFlat,
    EmptySetMember,
    ExchangeAxiomViolation,
    GroundSetMismatch,
    GroundSetTooLarge,
    InvalidEdge,
    InvalidRank,
    NotComparable,
)

#: Largest supported ground set.  The rank table has 2^|E| entries (64 KiB of
#: int8 at 16), so this is mostly a memory and cost guard; the closure table
#: holds subsets as uint16, so it is also the widest ground set that fits.
MAX_GROUND = 16


def popcount(x: int) -> int:
    return x.bit_count()


def bits(x: int) -> Iterable[int]:
    """Yield the set bit positions of ``x`` in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


@functools.lru_cache(maxsize=None)
def subset_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The bitmasks 0 .. 2^n - 1 of the subsets of an n-element ground set, as
    intp, and their sizes; one read-only pair per n."""
    subsets = np.arange(1 << n, dtype=np.intp)
    sizes = np.bitwise_count(subsets)
    subsets.setflags(write=False)
    sizes.setflags(write=False)
    return subsets, sizes


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


class Matroid:
    """A matroid given by its set of bases over ``E = {0, ..., n}``.

    Immutable after construction; the rank and closure tables, the rank list and
    the lattice fill in lazily, and building any of them twice gives the same result.
    """

    __slots__ = ("n_elements", "full_mask", "bases", "rank_full", "_table", "_ranks", "_closure", "_lattice")

    def __init__(self, n_elements: int, bases: Iterable[int], *, validate: bool = True):
        if not 1 <= n_elements <= MAX_GROUND:
            raise GroundSetTooLarge(f"ground set size {n_elements} outside 1..{MAX_GROUND}")
        basis_list = sorted(set(bases))
        if not basis_list:
            raise EmptyBases("a matroid needs at least one basis")
        full_mask = (1 << n_elements) - 1
        for b in basis_list:
            if b & ~full_mask:
                raise ExchangeAxiomViolation(f"basis {b:b} not contained in the ground set")
        self._fill(n_elements, tuple(basis_list))
        if validate:
            self._check_exchange()

    def _fill(self, n_elements: int, bases: tuple[int, ...]) -> None:
        """Set the fields from checked bases: sorted, unique, nonempty and inside E."""
        self.n_elements = n_elements
        self.full_mask = (1 << n_elements) - 1
        self.bases: tuple[int, ...] = bases
        self.rank_full = popcount(bases[0])
        self._table: np.ndarray | None = None
        self._ranks: list[int] | None = None
        self._closure: np.ndarray | None = None
        self._lattice: FlatLattice | None = None

    @classmethod
    def from_rank_table(cls, table: np.ndarray) -> "Matroid":
        """The matroid of an int8 rank table over all ``2^n`` subsets, which it keeps
        read-only; its bases are the sets whose rank is their size and the full rank.
        They come out of the table ascending and unique, so they are not re-sorted."""
        n = len(table).bit_length() - 1
        sizes = subset_index(n)[1]
        bases = np.flatnonzero((table == table[-1]) & (sizes == table[-1])).tolist()
        m = cls.__new__(cls)
        m._fill(n, tuple(bases))
        table.setflags(write=False)
        m._table = table
        return m

    def _check_exchange(self) -> None:
        """Raise ``ExchangeAxiomViolation`` unless the bases are those of a matroid.

        The rank table holds r(X) = max over the given sets B of |X ∩ B|, so
        r(∅) = 0 and r(X) <= r(X + a) <= r(X) + 1.  For a family of sets of
        one size r(E), such an r is a matroid rank function exactly when the
        family is the bases of a matroid (Oxley §1.3): the bases of a matroid
        give its rank function; conversely the bases of the matroid of r are
        the sets with |B| = r(B) = r(E), and |B| = r(B) puts B inside a member
        of the family, which has that size.  A function with those two
        properties is a rank function iff it is submodular, which holds iff
        it is locally submodular: r(X + a) + r(X + b) >= r(X + a + b) + r(X)
        for every X and a, b outside X, that is, the gain r(X + a) - r(X)
        never grows when b joins X.  The condition is symmetric in a and b,
        so it is one comparison of gain tables per element b, over a < b.
        """
        r = self.rank_full
        for b in self.bases:
            if popcount(b) != r:
                raise ExchangeAxiomViolation("bases of unequal cardinality")
        n = self.n_elements
        table = self.rank_table()
        subsets = subset_index(n)[0]
        # gains[a, X] = r(X + a) - r(X), zero for X holding a.
        gains = table[subsets | (1 << np.arange(n))[:, None]] - table
        for b in range(1, n):
            planes = gains[:b].reshape(b, -1, 2, 1 << b)
            grown = planes[:, :, 1] > planes[:, :, 0]
            if grown.any():
                a, high, low = (int(i[0]) for i in np.nonzero(grown))
                x = high << (b + 1) | low
                raise ExchangeAxiomViolation(
                    f"the bases are not those of a matroid: r(X + {a}) + r(X + {b}) < "
                    f"r(X + {a} + {b}) + r(X) for X = {sorted(bits(x))}"
                )

    # -- oracles -----------------------------------------------------------

    def rank_table(self) -> np.ndarray:
        """Ranks of all ``2^n`` subsets as a read-only int8 array indexed by bitmask."""
        if self._table is None:
            n = self.n_elements
            # Push the bases' rank down one bit-plane at a time, losing 1 per
            # element dropped: a subset S of a basis B gets rk - |B \ S| = |S|,
            # and the dependent sets stay negative.
            table = np.full(1 << n, -n, dtype=np.int8)
            table[list(self.bases)] = self.rank_full
            for e in range(n):
                planes = table.reshape(-1, 2, 1 << e)
                np.maximum(planes[:, 0], planes[:, 1] - 1, out=planes[:, 0])
            np.maximum(table, 0, out=table)
            for e in range(n):  # rank(S) is the largest independent subset of S
                planes = table.reshape(-1, 2, 1 << e)
                np.maximum(planes[:, 1], planes[:, 0], out=planes[:, 1])
            table.setflags(write=False)
            self._table = table
        return self._table

    def closure_table(self) -> np.ndarray:
        """Closures of all ``2^n`` subsets as a read-only uint16 array indexed by bitmask."""
        if self._closure is None:
            table = self.rank_table()
            closure = np.arange(len(table), dtype=np.uint16)
            for e in range(self.n_elements):
                # e joins the closure of every S without e that it leaves at the same rank.
                planes = table.reshape(-1, 2, 1 << e)
                closure.reshape(-1, 2, 1 << e)[:, 0] |= (planes[:, 1] == planes[:, 0]).astype(np.uint16) << e
            closure.setflags(write=False)
            self._closure = closure
        return self._closure

    def rank(self, subset: int) -> int:
        """Rank of a subset, read off the rank list, which the first point query builds."""
        if self._ranks is None:
            self._ranks = self.rank_table().tolist()
        return self._ranks[subset]

    def closure(self, subset: int) -> int:
        """The largest superset of ``subset`` with the same rank."""
        # One question reads the rank list; it builds no closure table.
        r = self.rank(subset)
        ranks = self._ranks
        return subset | sum(1 << e for e in bits(self.full_mask & ~subset) if ranks[subset | 1 << e] == r)

    def check_members(self, members: list[int]) -> None:
        """Raise unless every member is a nonempty subset of E: ``EmptySetMember``
        for 0, ``GroundSetMismatch`` for bits outside E, negative ints included."""
        for s in members:
            if not 0 < s <= self.full_mask:
                if s == 0:
                    raise EmptySetMember("members must be nonempty subsets")
                raise GroundSetMismatch(f"{s:#b} is not a subset of the ground set")

    def is_flat(self, subset: int) -> bool:
        return self.closure(subset) == subset

    def is_loopless(self) -> bool:
        """True iff every element lies in some basis."""
        covered = 0
        for b in self.bases:
            covered |= b
        return covered == self.full_mask

    def spanning_sets(self) -> list[int]:
        """All spanning subsets of the ground set, in increasing bitmask order."""
        return np.flatnonzero(self.rank_table() == self.rank_full).tolist()

    def lattice(self) -> "FlatLattice":
        if self._lattice is None:
            self._lattice = FlatLattice(self)
        return self._lattice

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matroid)
            and self.n_elements == other.n_elements
            and self.bases == other.bases
        )

    def __hash__(self) -> int:
        return hash((self.n_elements, self.bases))

    def __repr__(self) -> str:
        shown = [sorted(bits(b)) for b in self.bases[:4]]
        more = "..." if len(self.bases) > 4 else ""
        return f"Matroid(n={self.n_elements}, rank={self.rank_full}, bases={shown}{more})"


class FlatLattice:
    """All flats of a matroid, graded by rank, with covers and Möbius values.

    The flats are the fixed points of the closure table.
    """

    def __init__(self, matroid: Matroid):
        self.matroid = matroid
        closure = matroid.closure_table()
        masks = np.flatnonzero(closure == np.arange(len(closure), dtype=np.uint16))
        ranks = matroid.rank_table()[masks]
        # Order flats by (rank, bitmask); this is the canonical order used
        # everywhere downstream.
        order = np.lexsort((masks, ranks))
        self.flats: tuple[int, ...] = tuple(masks[order].tolist())
        self.index: dict[int, int] = {f: i for i, f in enumerate(self.flats)}
        self.rank_of: tuple[int, ...] = tuple(ranks[order].tolist())
        self.by_rank: list[list[int]] = [[] for _ in range(matroid.rank_full + 1)]
        for f, r in zip(self.flats, self.rank_of):
            self.by_rank[r].append(f)
        self._moebius: dict[tuple[int, int], int] = {}

    @functools.cached_property
    def covers(self) -> dict[int, list[int]]:
        """The flats covering each flat F other than E, the closures of F + e, on first use."""
        flats = np.array(self.flats[:-1], dtype=np.uint16)  # E is last in the (rank, bitmask) order
        joins = self.matroid.closure_table()[flats[:, None] | 1 << np.arange(self.matroid.n_elements)]
        return {f: sorted(set(row) - {f}) for f, row in zip(flats.tolist(), joins.tolist())}

    def interval(self, f: int, g: int) -> list[int]:
        """Flats h with f <= h <= g."""
        return [h for h in self.flats if f & ~h == 0 and h & ~g == 0]

    def maximal_chain(self, through: int) -> list[int]:
        """The proper nonempty flats of a maximal chain of flats through the
        flat ``through``: of each rank, the first flat in mask order that
        contains the one below and is comparable with ``through``."""
        chain = []
        current = 0
        for r in range(1, self.matroid.rank_full):
            current = next(
                f
                for f in self.by_rank[r]
                if current & ~f == 0 and (f & ~through == 0 or through & ~f == 0)
            )
            chain.append(current)
        return chain

    def moebius(self, f: int, g: int) -> int:
        """Möbius function of the lattice of flats, memoized."""
        if f & ~g:
            raise NotComparable(f"{sorted(bits(f))} is not below {sorted(bits(g))}")
        if f not in self.index or g not in self.index:
            raise NotComparable("arguments must be flats")
        key = (f, g)
        cached = self._moebius.get(key)
        if cached is not None:
            return cached
        if f == g:
            value = 1
        else:
            value = -sum(self.moebius(f, h) for h in self.interval(f, g) if h != g)
        self._moebius[key] = value
        return value

    def __len__(self) -> int:
        return len(self.flats)


# -- constructors ----------------------------------------------------------


def matroid_from_bases(n_elements: int, bases: Iterable[Iterable[int] | int]) -> Matroid:
    """Build a matroid from explicit bases, verifying the exchange axiom."""
    masks = [b if isinstance(b, int) else mask_of(b) for b in bases]
    return Matroid(n_elements, masks, validate=True)


def uniform(r: int, n_elements: int) -> Matroid:
    """The uniform matroid U_{r, n_elements}: every r-subset is a basis."""
    if not 0 <= r <= n_elements:
        raise InvalidRank(f"rank {r} outside 0..{n_elements}")
    if n_elements > MAX_GROUND:  # before C(n, r) bases are enumerated
        raise GroundSetTooLarge(f"ground set size {n_elements} outside 1..{MAX_GROUND}")
    bases = [mask_of(c) for c in itertools.combinations(range(n_elements), r)]
    return Matroid(n_elements, bases, validate=False)


def graphic(vertices: int, edges: list[tuple[int, int]]) -> Matroid:
    """The cycle matroid of a multigraph on the vertices 0 .. vertices - 1; ground set =
    edge indices.  Bases are the maximal spanning forests, found by exhausting edge
    subsets with a union-find over the endpoints that occur."""
    if not edges:
        raise EmptyBases("need at least one edge")
    if len(edges) > MAX_GROUND:
        raise GroundSetTooLarge(f"{len(edges)} edges exceeds the cap {MAX_GROUND}")
    ends = {x for edge in edges for x in edge}
    if min(ends) < 0 or max(ends) >= vertices:
        raise InvalidEdge(f"edge endpoints must lie in 0..{vertices - 1}")

    def forest_size(subset: int) -> int:
        parent = {x: x for x in ends}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        size = 0
        for i in bits(subset):
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                size += 1
        return size

    m = len(edges)
    max_rank = forest_size((1 << m) - 1)
    bases = [
        mask_of(c)
        for c in itertools.combinations(range(m), max_rank)
        if forest_size(mask_of(c)) == max_rank
    ]
    return Matroid(m, bases, validate=False)


def direct_sum(a: Matroid, b: Matroid) -> Matroid:
    """Direct sum; the second summand's elements are shifted past the first's."""
    n = a.n_elements + b.n_elements
    if n > MAX_GROUND:
        raise GroundSetTooLarge(f"direct sum has {n} elements, cap is {MAX_GROUND}")
    shift = a.n_elements
    bases = [ba | (bb << shift) for ba in a.bases for bb in b.bases]
    return Matroid(n, bases, validate=False)


def h_matroid(n_elements: int, subset: int) -> Matroid:
    """The corank-one matroid with bases ``{E \\ i : i in subset}``.

    Equals the direct sum of the Boolean matroid on the complement with the
    corank-one uniform matroid on ``subset``.
    """
    if subset == 0:
        raise EmptyFlat("subset must be nonempty")
    full = (1 << n_elements) - 1
    return Matroid(n_elements, [full ^ (1 << i) for i in bits(subset)], validate=False)


@dataclass
class RelabeledMatroid:
    """A minor together with the old-element -> new-element relabeling."""

    matroid: Matroid
    relabel: dict[int, int]

    def old_to_new_mask(self, subset: int) -> int:
        return mask_of(self.relabel[e] for e in bits(subset) if e in self.relabel)


def _minor(m: Matroid, elements: list[int], contracted: int) -> RelabeledMatroid:
    """(M / C) restricted to ``elements`` (disjoint from C), relabeled onto
    {0, ..., len(elements)-1}: the rank of X is rk(X | C) - rk(C)."""
    # spread[Y]: the elements that Y relabels.  With no elements left, one loop keeps n >= 1.
    spread = np.zeros(1 << max(len(elements), 1), dtype=np.intp)
    for i, e in enumerate(elements):
        spread.reshape(-1, 2, 1 << i)[:, 1] |= 1 << e
    table = m.rank_table()[spread | contracted] - m.rank(contracted)
    return RelabeledMatroid(Matroid.from_rank_table(table), {e: i for i, e in enumerate(elements)})


def restrict(m: Matroid, subset: int) -> RelabeledMatroid:
    """Restriction M|S, relabeled onto {0, ..., |S|-1}."""
    return _minor(m, list(bits(subset)), 0)


def contract(m: Matroid, subset: int) -> RelabeledMatroid:
    """Contraction M/S, relabeled onto {0, ..., |E\\S|-1}.

    The result is loopless whenever ``subset`` is a flat.
    """
    return _minor(m, list(bits(m.full_mask & ~subset)), subset)


# -- thin functional wrappers (operation names from the public surface) -----


def rank(m: Matroid, subset: int) -> int:
    return m.rank(subset)


def closure(m: Matroid, subset: int) -> int:
    return m.closure(subset)


def flat_lattice(m: Matroid) -> FlatLattice:
    return m.lattice()


def moebius(lattice: FlatLattice, f: int, g: int) -> int:
    return lattice.moebius(f, g)


def is_loopless(m: Matroid) -> bool:
    return m.is_loopless()
