"""Small bitmask matroid helpers, written independently of chowmat.

The benchmark uses them to build its inputs (spec files and the seeded random
truncations) and to compute expected values without asking the program under
test: rank tables, flats, DHR indicators.  Element ``i`` is bit ``i``.
"""

from __future__ import annotations

import itertools
import math
import random

FANO_LINES = ({0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5})


def mask(elements) -> int:
    out = 0
    for e in elements:
        out |= 1 << e
    return out


def members(m: int) -> list[int]:
    return [e for e in range(m.bit_length()) if m >> e & 1]


def uniform_bases(r: int, n: int) -> list[int]:
    return [mask(c) for c in itertools.combinations(range(n), r)]


def complete_graph_edges(vertices: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(vertices), 2))


def k6_minus_triangle_edges() -> list[tuple[int, int]]:
    """K6 without the edges of the triangle {0, 1, 2}: 12 edges, rank 5."""
    return [e for e in complete_graph_edges(6) if not set(e) <= {0, 1, 2}]


def graphic_bases(vertices: int, edges: list[tuple[int, int]]) -> list[int]:
    """Spanning forests of maximal size, by union-find over edge subsets."""

    def forest_size(subset) -> int:
        parent = list(range(vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        size = 0
        for i in subset:
            a, b = find(edges[i][0]), find(edges[i][1])
            if a != b:
                parent[a] = b
                size += 1
        return size

    r = forest_size(range(len(edges)))
    return [mask(c) for c in itertools.combinations(range(len(edges)), r) if forest_size(c) == r]


def fano_bases() -> list[int]:
    return [mask(c) for c in itertools.combinations(range(7), 3) if set(c) not in FANO_LINES]


class BitMatroid:
    """A matroid from its bases, with a full rank table over all subsets."""

    def __init__(self, n: int, bases: list[int]):
        self.n = n
        self.bases = sorted(set(bases))
        self.rank_full = self.bases[0].bit_count()
        self.ranks = [max((b & s).bit_count() for b in self.bases) for s in range(1 << n)]

    def is_flat(self, s: int) -> bool:
        r = self.ranks[s]
        return all(self.ranks[s | 1 << e] > r for e in range(self.n) if not s >> e & 1)

    def flats(self) -> list[int]:
        """Flats ordered by (rank, bitmask)."""
        return sorted((s for s in range(1 << self.n) if self.is_flat(s)), key=lambda s: (self.ranks[s], s))

    def flats_rank2(self) -> list[int]:
        return [f for f in self.flats() if self.ranks[f] >= 2]

    def truncate(self, flat: int) -> "BitMatroid":
        """Principal truncation along a flat: bases B - f for f in B & flat."""
        bases = {b ^ (1 << f) for b in self.bases for f in members(b & flat)}
        return BitMatroid(self.n, sorted(bases))

    def dhr(self, multiset: list[int]) -> int:
        """1 iff rk(union of J) >= |J| + 1 for every nonempty subfamily J."""
        for size in range(1, len(multiset) + 1):
            for combo in itertools.combinations(multiset, size):
                union = 0
                for s in combo:
                    union |= s
                if self.ranks[union] < size + 1:
                    return 0
        return 1


def from_spec(doc: dict) -> BitMatroid:
    """The matroid of a chowmat spec document."""
    if doc["type"] == "uniform":
        return BitMatroid(doc["n"], uniform_bases(doc["r"], doc["n"]))
    if doc["type"] == "graphic":
        edges = [tuple(e) for e in doc["edges"]]
        return BitMatroid(len(edges), graphic_bases(doc["vertices"], edges))
    return BitMatroid(doc["ground"], [mask(b) for b in doc["bases"]])


def random_truncation(rng: random.Random, n: int, steps: int) -> BitMatroid:
    """Iterated principal truncations of the Boolean matroid on n elements.

    The procedure of the test suite's random corpus, with n and the number of
    steps fixed by the caller: each step truncates along a flat of rank >= 2
    chosen with ``rng``.  The result is loopless.
    """
    m = BitMatroid(n, [(1 << n) - 1])
    for _ in range(steps):
        m = m.truncate(rng.choice(m.flats_rank2()))
    return m


def uniform_flats_by_rank(r: int, n: int) -> list[int]:
    return [math.comb(n, k) for k in range(r)] + [1]


def uniform_mu(r: int, n: int) -> list[int]:
    """|coefficients| of the reduced characteristic polynomial of U(r, n)."""
    return [math.comb(n - 1, k) for k in range(r)]


def complete_graph_mu(vertices: int) -> list[int]:
    """|coefficients| of prod_{k=2}^{v-1} (t - k), the reduced polynomial of M(K_v)."""
    coeffs = [1]
    for k in range(2, vertices):
        coeffs = [a + k * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def uniform_bergman_cones(r: int, n: int) -> int:
    """Maximal chains of proper nonempty flats of U(r, n): n!/(n-r+1)!."""
    return math.perm(n, r - 1)
