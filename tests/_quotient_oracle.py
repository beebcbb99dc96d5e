"""All loopless relative nested quotients of a matroid, by a route that
enumerates no exponent chains.

Elementary quotients of M correspond to the linear subclasses of its
hyperplanes (Oxley, *Matroid Theory*, Thm 7.2.3; equivalently the modular
cuts, Crapo 1965): a set H' of hyperplanes such that two members meeting in a
flat of rank r - 2 bring every hyperplane over that flat with them.  The
modular cut C of H' holds E and the flats F such that every hyperplane
containing F lies in H'; the quotient has rank r_Q(X) = r(X) - [cl X in C].
The full subclass puts the closure of the empty set into C and is left out.

A quotient of corank c is c elementary steps (Higgs).  Loops persist under
quotients, so loopy stages are dropped; every stage is deduplicated by its
bases, and the last one is filtered by ``is_relative_nested``.  Slow and
deliberately simple; nothing in ``src/`` imports it.

:func:`truncated_bases` is the direct basis description of one truncation,
the oracle for the rank-table truncation in ``src/``.  :func:`truncate_by_stages`
and :func:`apply_exponent_chain_by_stages` build one matroid per truncation
step, the oracles for the table walk ``quotients.truncate_along``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from chowmat.matroid import Matroid
from chowmat.quotients import is_quotient, is_relative_nested, principal_truncation, truncate_by_subset


def relative_nested_quotients(m: Matroid) -> list[set[tuple[int, ...]]]:
    """Item c: the bases of every loopless relative nested quotient of corank c,
    for c = 0, ..., r - 1."""
    stage = {m.bases: m}
    out = []
    for corank in range(m.rank_full):
        if corank:
            found = set().union(*(_loopless_elementary_quotients(p) for p in stage.values()))
            stage = {bases: Matroid(m.n_elements, bases, validate=False) for bases in found}
        nested = set()
        for bases, q in stage.items():
            witness = is_quotient(q, m)
            assert witness is not None, "an iterated quotient must be a quotient"
            if is_relative_nested(witness):
                nested.add(bases)
        out.append(nested)
    return out


def _loopless_elementary_quotients(m: Matroid) -> set[tuple[int, ...]]:
    """The bases of the loopless quotients of corank one of a matroid of rank
    at least 2, one per linear subclass."""
    n, r = m.n_elements, m.rank_full
    lattice = m.lattice()
    hyperplanes = lattice.by_rank[r - 1]
    assert len(hyperplanes) < 63, "hyperplane sets are int64 bitmasks"
    # above[i]: the hyperplanes containing flat i, as a bitmask over their indices.
    above = [sum(1 << j for j, h in enumerate(hyperplanes) if f & ~h == 0) for f in lattice.flats]
    lines = [above[lattice.index[f]] for f in lattice.by_rank[r - 2]]
    full = (1 << len(hyperplanes)) - 1
    subclasses = [s for s in _linear_subclasses(len(hyperplanes), lines) if s != full]
    subclasses = np.array(subclasses, dtype=np.int64)
    # Row k, column i: flat i lies in the modular cut of subclass k.
    cuts = np.array(above, dtype=np.int64) & ~subclasses[:, None] == 0
    table = m.rank_table().astype(np.int64)
    everything = np.arange(1 << n)
    closure = everything.copy()
    for e in range(n):
        closure |= np.where(table[everything | 1 << e] == table, 1 << e, 0)
    flat_index = np.zeros(1 << n, dtype=np.intp)
    flat_index[list(lattice.flats)] = np.arange(len(lattice.flats))
    ranks = table - cuts[:, flat_index[closure]]
    loopless = (ranks[:, 1 << np.arange(n)] > 0).all(axis=1)
    sizes = sum(everything >> e & 1 for e in range(n))
    is_basis = (ranks[loopless] == r - 1) & (sizes == r - 1)
    return {tuple(np.flatnonzero(row).tolist()) for row in is_basis}


def _linear_subclasses(count: int, lines: list[int]) -> list[int]:
    """Every set of hyperplane indices, as a bitmask, that holds none, one or
    all of the hyperplanes of each line (each bitmask in ``lines``)."""
    through = [[line for line in lines if line >> i & 1] for i in range(count)]
    out = []

    def extend(i: int, chosen: int) -> None:
        if i == count:
            out.append(chosen)
            return
        decided = (2 << i) - 1
        for pick in (chosen, chosen | 1 << i):
            # Not linear: two hyperplanes of a line are in and a third is out.
            left_out = decided & ~pick
            if all((pick & line).bit_count() < 2 or not line & left_out for line in through[i]):
                extend(i + 1, pick)

    extend(0, 0)
    return out


def truncated_bases(bases: Iterable[int], subset: int) -> set[int]:
    """Bases of the truncation along cl(S), rk(S) >= 1: every basis B gives
    B - f for each f in B & S."""
    out = set()
    for b in bases:
        for f in range((b & subset).bit_length()):
            if (b & subset) >> f & 1:
                out.add(b ^ 1 << f)
    return out


def truncate_by_stages(m: Matroid, subsets: Iterable[int]) -> Matroid | None:
    """One matroid per step along the subsets in the given order, or None at the
    first subset of rank < 2 in its stage."""
    for s in subsets:
        if m.rank(s) < 2:
            return None
        m = truncate_by_subset(m, s)
    return m


def apply_exponent_chain_by_stages(m: Matroid, chain: tuple[tuple[int, int], ...]) -> Matroid:
    """Iterated principal truncation, one matroid per stage, largest flat first
    with multiplicity; every flat must be a flat of its stage."""
    for f, a in reversed(chain):
        for _ in range(a):
            m = principal_truncation(m, f)
    return m
