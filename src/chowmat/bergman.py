"""Bergman classes as Minkowski weights on the braid fan.

Cones of the braid fan are chains of nonempty proper subsets of the ground
set; a k-dimensional Minkowski weight assigns integers to k-chains subject to
the balancing condition at every (k-1)-chain.  For a flag tau = S_1 < ... <
S_k the span of e_E and the e_S with S in tau is exactly the set of vectors
constant on each block S_1, S_2 - S_1, ..., E - S_k, so balancing at tau is a
block-constancy test on the weighted sum of the inserted rays: integer
arithmetic, no elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .errors import InvalidRank, LoopyMatroid, NotAFlat, WrongDimension
from .matroid import Matroid, bits
from .quotients import apply_exponent_chain, principal_truncation

#: A cone of the braid fan: a strictly increasing chain of nonempty proper
#: subsets, stored as a tuple of bitmasks.
ChainCone = tuple[int, ...]


def is_chain(cone: ChainCone, full_mask: int) -> bool:
    prev = 0
    for s in cone:
        if s == 0 or s == full_mask:
            return False
        if prev and (prev & ~s or s == prev):
            return False
        prev = s
    return True


@dataclass
class MinkowskiWeight:
    """Sparse integer weighting of the k-chains; zero entries are omitted."""

    n_elements: int
    dim: int
    weights: dict[ChainCone, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        full = (1 << self.n_elements) - 1
        cleaned = {}
        for cone, value in self.weights.items():
            if len(cone) != self.dim:
                raise WrongDimension(f"cone {cone} is not a {self.dim}-chain")
            if not is_chain(cone, full):
                raise WrongDimension(f"{cone} is not a chain of nonempty proper subsets")
            if value:
                cleaned[cone] = value
        self.weights = cleaned

    def is_zero(self) -> bool:
        return not self.weights

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MinkowskiWeight)
            and self.n_elements == other.n_elements
            and self.dim == other.dim
            and self.weights == other.weights
        )

    def scale(self, c: int) -> "MinkowskiWeight":
        return MinkowskiWeight(
            self.n_elements, self.dim, {cone: c * v for cone, v in self.weights.items()}
        )


def bergman_class(m: Matroid) -> MinkowskiWeight:
    """Weight 1 on every chain of d proper nonempty flats, 0 elsewhere."""
    if not m.is_loopless():
        raise LoopyMatroid("Bergman classes exist for loopless matroids only")
    d = m.rank_full - 1
    covers = m.lattice().covers
    chains: list[ChainCone] = []

    # d strictly increasing proper flats have ranks 1, ..., d, so each one
    # covers the one before it.
    def grow(prefix: tuple[int, ...], last: int) -> None:
        if len(prefix) == d:
            chains.append(prefix)
            return
        for f in covers[last]:
            grow(prefix + (f,), f)

    grow((), 0)
    return MinkowskiWeight(m.n_elements, d, {c: 1 for c in chains})


def _facets(weights: dict[ChainCone, int], dim: int) -> dict[ChainCone, list[tuple[int, int]]]:
    """Each (dim-1)-chain tau with the (inserted set, value) of the cones through it."""
    facets: dict[ChainCone, list[tuple[int, int]]] = {}
    for cone, value in weights.items():
        for i in range(dim):
            facets.setdefault(cone[:i] + cone[i + 1 :], []).append((cone[i], value))
    return facets


def _flag_blocks(tau: ChainCone, full_mask: int) -> list[list[int]]:
    """The blocks S_1, S_2 - S_1, ..., E - S_k of the flag tau, as element lists."""
    blocks, prev = [], 0
    for s in tau + (full_mask,):
        blocks.append(list(bits(s & ~prev)))
        prev = s
    return blocks


def check_balanced(w: MinkowskiWeight) -> bool:
    """Verify the balancing condition at every (dim-1)-chain.

    For each facet chain tau, the weighted sum of the inserted rays must lie
    in span{e_S : S in tau} + span{e_E}, that is, be constant on every block
    of the flag tau.
    """
    if w.dim == 0:
        return True
    full = (1 << w.n_elements) - 1
    for tau, contributions in _facets(w.weights, w.dim).items():
        total = [0] * w.n_elements
        for inserted, value in contributions:
            for e in bits(inserted):
                total[e] += value
        for block in _flag_blocks(tau, full):
            if any(total[e] != total[block[0]] for e in block):
                return False
    return True


def cap_with_h(flat: int, source: Matroid) -> MinkowskiWeight:
    """Cap product of the simplicial generator of ``flat`` with the Bergman class.

    Realized through the matroid side: the principal truncation when the flat
    has rank > 1, the zero weight otherwise.
    """
    if not source.is_loopless():
        raise LoopyMatroid("cap products with Bergman classes need loopless input")
    if flat == 0 or not source.is_flat(flat):
        raise NotAFlat(f"{sorted(bits(flat))} is not a nonempty flat")
    d = source.rank_full - 1
    if source.rank(flat) <= 1:
        return MinkowskiWeight(source.n_elements, d - 1, {})
    return bergman_class(principal_truncation(source, flat))


def cap_weight_with_monomial(
    m: Matroid, chain: tuple[tuple[int, int], ...]
) -> MinkowskiWeight:
    """Iterated cap product of a nested monomial with the Bergman class of m: the Bergman
    class of its quotient, or zero where a step meets a flat of rank < 2 and no quotient exists."""
    try:
        return bergman_class(apply_exponent_chain(m, chain))
    except InvalidRank:
        return MinkowskiWeight(m.n_elements, m.rank_full - 1 - sum(a for _, a in chain), {})


def degree_of_point(w: MinkowskiWeight) -> int:
    """The single value of a zero-dimensional weight (at the trivial chain)."""
    if w.dim != 0:
        raise WrongDimension(f"weight has dimension {w.dim}, expected 0")
    return w.weights.get((), 0)


def weight_vector(w: MinkowskiWeight, cones: list[ChainCone]) -> list[int]:
    """Flatten a weight over an explicit list of cones."""
    return [w.weights.get(c, 0) for c in cones]


def bergman_weight_space_dimension(m: Matroid) -> int:
    """dim MW_d(Sigma_M): weights on top chains of flats of m, balanced inside m.

    Each facet tau and each element e of a block B of its flag give the
    balancing equation t_e = t_rep(B) on the weighted sum t of the inserted
    rays; the dimension is the nullity of that integer system.  The Bergman
    class spans it, so the answer should be 1.
    """
    if not m.is_loopless():
        raise LoopyMatroid("Bergman fans exist for loopless matroids only")
    d = m.rank_full - 1
    top = sorted(bergman_class(m).weights)
    if d == 0:
        return 1
    index = {cone: i for i, cone in enumerate(top)}
    rows: set[tuple[int, ...]] = set()
    for tau, contributions in _facets(index, d).items():
        for rep, *others in _flag_blocks(tau, m.full_mask):
            for e in others:
                row = [0] * len(top)
                for inserted, wi in contributions:
                    row[wi] = (inserted >> e & 1) - (inserted >> rep & 1)
                if any(row):
                    rows.add(tuple(row))
    if not rows:
        return len(top)
    return len(top) - _linalg.rank_int(np.array(sorted(rows), dtype=np.int64))
