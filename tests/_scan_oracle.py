"""Reference triple-route scan by a plain recursive walk, used only by the tests.

This is the straightforward prefix recursion that the library's level-batched
scan (``chowmat.hodge.dhr_triple_report``) is compared against: one truncated
``Matroid`` per node for the chain route, ``dhr_check`` on the whole prefix
for the DHR route, and one h-matrix product per node for the Groebner route.
It is slow and deliberately simple; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import math

import numpy as np

from chowmat.chow import imatmul, ring_for
from chowmat.hodge import TripleScanReport, dhr_check
from chowmat.matroid import Matroid
from chowmat.quotients import truncate_by_subset


def triple_scan(m: Matroid) -> TripleScanReport:
    """Walk nondecreasing prefixes, appending flats; count dead subtrees."""
    ring = ring_for(m)
    d = ring.d
    flats = [f for f in m.lattice().flats if m.rank(f) >= 2]
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
            child_vec = imatmul(ring.h_matrix(f, depth), vec)
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
