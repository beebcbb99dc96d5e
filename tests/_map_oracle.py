"""Dense multiplication matrices and element coordinates built from an
independent normal-form recursion, used only by the tests.

The library stores each multiplication map compressed to its nonzero rows and
columns (``chowmat.chow.SparseMap``) and skips the products it knows to be
zero; these are the plain dense matrices it must equal, with Python-int
entries, from a recursion that skips nothing.  The library reduces elements
through those maps, one column per nonzero coordinate;
:func:`zcoords_by_expansion` reduces them the other way, by expanding every
term into z-monomials first, and :func:`walk_by_apply` through the same maps as
whole block products.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np

from chowmat.chow import ChowElement, ChowRing, Monomial, SparseMap, _canon, convert_element

_memos: weakref.WeakKeyDictionary[ChowRing, dict[Monomial, dict[int, int]]] = weakref.WeakKeyDictionary()


def _first_violation(ring: ChowRing, mono: Monomial) -> int | None:
    """Index of the first exponent violation, -1 for two consecutive flats
    that are not nested, None for a nested monomial."""
    prev_mask, prev_rank = 0, 0
    for j, (mask, exp) in enumerate(mono):
        r = ring.flat_rank[mask]
        if prev_mask and (r == prev_rank or prev_mask & ~mask):
            return -1
        if exp >= r - prev_rank:
            return j
        prev_mask, prev_rank = mask, r
    return None


def nf_by_recursion(ring: ChowRing, mono: Monomial) -> dict[int, int]:
    """Normal form of a z-monomial on the nested basis of its degree, by the
    plain Groebner recursion: every child is reduced, whether or not its flats
    form a chain, and every result, zero included, is memoized per ring."""
    memo = _memos.setdefault(ring, {})
    cached = memo.get(mono)
    if cached is not None:
        return cached
    j = _first_violation(ring, mono)
    if j is None:
        deg = sum(e for _, e in mono)
        result = {ring.nested_index[deg][mono]: 1}
    elif j == -1:
        result = {}
    else:
        mask, exp = mono[j]
        prev_rank = ring.flat_rank[mono[j - 1][0]] if j else 0
        c = ring.flat_rank[mask] - prev_rank
        stripped = _canon((m, e - c if m == mask else e) for m, e in mono)
        result = {}
        for combo in itertools.combinations_with_replacement(ring.supersets[mask], c):
            if all(g == mask for g in combo):
                continue
            coeff = math.factorial(c)
            for count in Counter(combo).values():
                coeff //= math.factorial(count)
            child = _canon(itertools.chain(stripped, ((g, 1) for g in combo)))
            for idx, v in nf_by_recursion(ring, child).items():
                acc = result.get(idx, 0) - coeff * v
                if acc:
                    result[idx] = acc
                else:
                    result.pop(idx, None)
    memo[mono] = result
    return result


def zcoords_by_expansion(ring: ChowRing, e: ChowElement) -> tuple[int, list[Fraction]]:
    """(degree, nested z-coordinates) of a homogeneous element with flat
    variables: the element rewritten in the z alphabet (``convert_element``)
    and every z-monomial reduced by :func:`nf_by_recursion`."""
    grade = e.grade()
    if grade is None:
        return 0, [Fraction(0)] * len(ring.nested[0])
    if grade > ring.d:
        return grade, []
    out = [Fraction(0)] * len(ring.nested[grade])
    for mono, coeff in convert_element(ring, e, "z").terms.items():
        for idx, v in nf_by_recursion(ring, mono).items():
            out[idx] += coeff * v
    return grade, out


def walk_by_apply(ring: ChowRing, maps, members) -> dict[int, int]:
    """Nested z-coordinates of a product of generators, as {index: int} over
    the nonzero ones: the 1 x 1 block of 1 pushed through
    ``maps(cl(members[k]), k)`` for every k by ``SparseMap.apply``, without
    stopping at a zero block."""
    block = np.ones((1, 1), dtype=np.int64)
    for deg, member in enumerate(members):
        block = maps(ring.matroid.closure(member), deg).apply(block)
    return _nonzero(block)


def walks_by_apply(ring: ChowRing, maps, members, size: int):
    """``(multiset, walk_by_apply(ring, maps, multiset))`` for every
    ``size``-multiset of ``members``, in ``combinations_with_replacement``
    order; the block of a prefix that several multisets share is pushed
    through the maps once."""

    def grow(prefix: tuple, start: int, block: np.ndarray):
        if len(prefix) == size:
            yield prefix, _nonzero(block)
            return
        for i in range(start, len(members)):
            step = maps(ring.matroid.closure(members[i]), len(prefix))
            yield from grow(prefix + (members[i],), i, step.apply(block))

    yield from grow((), 0, np.ones((1, 1), dtype=np.int64))


def _nonzero(block: np.ndarray) -> dict[int, int]:
    return {i: int(v) for i, v in enumerate(block[:, 0].tolist()) if v}


def zcoords_by_apply(ring: ChowRing, e: ChowElement) -> tuple[int, list[Fraction]]:
    """(degree, nested z-coordinates) of a homogeneous element with flat
    variables: each term's :func:`walk_by_apply`, through the h-maps in the h
    alphabet and the z-maps otherwise, times its coefficient."""
    grade = e.grade() or 0
    if grade > ring.d:
        return grade, []
    maps = ring.h_matrix if e.alphabet == "h" else ring.z_matrix
    out = [Fraction(0)] * len(ring.nested[grade])
    for mono, coeff in e.terms.items():
        for idx, v in walk_by_apply(ring, maps, [f for f, exp in mono for _ in range(exp)]).items():
            out[idx] += coeff * v
    return grade, out


def dense_z(ring: ChowRing, flat: int, deg: int) -> np.ndarray:
    """Column c: the normal form of z_flat times the c-th nested monomial of degree deg."""
    mat = np.zeros((len(ring.nested[deg + 1]), len(ring.nested[deg])), dtype=object)
    for col, mono in enumerate(ring.nested[deg]):
        for idx, v in nf_by_recursion(ring, _canon(itertools.chain(mono, ((flat, 1),)))).items():
            mat[idx, col] = v
    return mat


def dense_h(ring: ChowRing, flat: int, deg: int) -> np.ndarray:
    """h_flat = -sum_{G >= flat} z_G."""
    return -sum(dense_z(ring, g, deg) for g in ring.supersets[flat])


def densify(m: SparseMap) -> np.ndarray:
    """The matrix of a map's entries, as Python ints; entries at one position add."""
    out = np.zeros(m.shape, dtype=object)
    np.add.at(out, (m.rows, m.cols), m.vals.astype(object))
    return out
