"""Reference DHR enumeration by a plain recursive walk, used only by the tests.

This is the straightforward prefix recursion that the library's level-batched
enumerator (``chowmat.hodge.dhr_levels``) and the volume polynomial built on
it are compared against.  It is slow and deliberately simple; nothing in
``src/`` imports it.
"""

from __future__ import annotations

import math

from chowmat.matroid import Matroid


def dhr_multisets(m: Matroid, size: int) -> list[tuple[int, ...]]:
    """Every DHR ``size``-multiset of rank >= 2 flats, as nondecreasing index
    tuples into the rank >= 2 flats in lattice order, in lexicographic order."""
    flats = [f for f in m.lattice().flats if m.rank(f) >= 2]
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], start: int, unions: list[tuple[int, int]]) -> None:
        if len(prefix) == size:
            out.append(prefix)
            return
        for idx in range(start, len(flats)):
            new_unions = []
            for sz, u in unions:
                nu = u | flats[idx]
                if m.rank(nu) < sz + 2:
                    break
                new_unions.append((sz + 1, nu))
            else:
                extend(prefix + (idx,), idx, unions + new_unions)

    extend((), 0, [(0, 0)])
    return out


def volume_terms(m: Matroid) -> dict[tuple[int, ...], int]:
    """The volume polynomial's terms: sorted flat masks -> d! / prod c_F!."""
    d = m.rank_full - 1
    flats = [f for f in m.lattice().flats if m.rank(f) >= 2]
    terms = {}
    for multiset in dhr_multisets(m, d):
        coeff = math.factorial(d)
        for i in set(multiset):
            coeff //= math.factorial(multiset.count(i))
        terms[tuple(sorted(flats[i] for i in multiset))] = coeff
    return terms
