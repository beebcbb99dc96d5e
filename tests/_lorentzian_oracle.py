"""Reference Lorentzian check on whole-level bool link tables, used only by the tests.

This is the route the library's :func:`chowmat.hodge.lorentzian_check` took
before it read its links straight from the packed dead-set words: it builds
the whole support, unpacks the link tables of levels d - 1 and d - 2 whole,
and gathers each Hessian with ``np.ix_``.  Its sampled exchange check draws
the same support indices as the library's and reads them off the whole
support, so the two reports agree field by field.  Nothing in ``src/``
imports it.
"""

from __future__ import annotations

import random

import numpy as np

from chowmat import _linalg
from chowmat.hodge import (
    MCONVEX_EXHAUSTIVE_CAP,
    MCONVEX_SAMPLED_PAIRS,
    LorentzianReport,
    _copy_index,
    _crosscheck_hessian,
    _flats_rank2,
    _index,
    _keys,
    _unpack_links,
    dhr_levels,
)
from chowmat.matroid import Matroid


def lorentzian_check(m: Matroid, seed: int = 0) -> LorentzianReport:
    """The library's report, from the whole support and whole link tables."""
    d = m.rank_full - 1
    nvars = len(_flats_rank2(m))
    levels, words = dhr_levels(m, d)
    support = levels[d]
    if d == 0:
        mconvex, mode = True, "exhaustive"
    else:
        link = _unpack_links(words[d - 1], nvars)
        mconvex, mode = mconvex_check(support, levels[d - 1], link, seed)
    hessians = 0
    signatures_ok = True
    crosschecked = 0
    if d >= 2:
        for q, a, t, keep, block in hessian_blocks(levels, words, nvars):
            hessians += 1
            if _linalg.signature(block.astype(object)) != (1, len(block) - 1, 0):
                signatures_ok = False
                break
            if m.n_elements <= 5:
                crosschecked += _crosscheck_hessian(m, levels[d - 2][q], a, link[np.ix_(t, a)])
    return LorentzianReport(m, mconvex, mode, len(support), hessians, signatures_ok, crosschecked)


def hessian_blocks(levels, words, nvars):
    """For each parent P of level d - 2 in order: (q, a, t, keep, block), the
    gathered block being ``link[np.ix_(t[keep], a[keep])]``."""
    d = len(words)
    link = _unpack_links(words[d - 1], nvars)
    parents, tees = levels[d - 2], levels[d - 1]
    q, a = np.nonzero(_unpack_links(words[d - 2], nvars))  # row-major: ordered by (q, a)
    a = a.astype(np.uint16)
    t = _index(_keys(tees), np.sort(np.column_stack((parents.take(q, axis=0), a)), axis=1))
    row_id = np.unique(words[d - 1].view(f"V{8 * words[d - 1].shape[1]}").ravel(), return_inverse=True)[1].ravel()
    bounds = np.searchsorted(q, np.arange(len(parents) + 1))
    for p in range(len(parents)):
        span = slice(bounds[p], bounds[p + 1])
        keep = np.zeros(span.stop - span.start, dtype=bool)
        keep[np.unique(row_id[t[span]], return_index=True)[1]] = True
        yield p, a[span], t[span], keep, link[np.ix_(t[span][keep], a[span][keep])]


def mconvex_check(support: np.ndarray, tees: np.ndarray, link: np.ndarray, seed: int) -> tuple[bool, str]:
    """The exchange check and its mode, for a sorted support with its whole link table."""
    if len(support) <= MCONVEX_EXHAUSTIVE_CAP:
        return exchange_exhaustive(support, tees, link), "exhaustive"
    return exchange_sampled(support, tees, link, MCONVEX_SAMPLED_PAIRS, seed), "sampled"


def sampled_indices(size: int, pairs: int, seed: int) -> np.ndarray:
    """The library's draw: 2 * pairs support indices, 64-bit words of
    ``random.Random(seed)`` bytes reduced modulo the support size."""
    words = np.frombuffer(random.Random(seed).randbytes(16 * pairs), dtype="<u8")
    return (words % np.uint64(size)).astype(np.intp).reshape(pairs, 2)


def exchange_exhaustive(support: np.ndarray, tees: np.ndarray, link: np.ndarray) -> bool:
    """No beta in S with beta_j <= T_j on all of N(T), for any T."""
    n, d = support.shape
    exceeds = np.zeros((link.shape[1] * d, n), dtype=bool)
    for p, copies in enumerate(_copy_index(support).T):
        exceeds[support[:, p].astype(np.intp) * d + copies, np.arange(n)] = True
    exceeds = np.packbits(exceeds, axis=1)
    everything = np.packbits(np.ones(n, dtype=bool))
    t, j = np.nonzero(link)
    rows = j * d + (tees[t] == j[:, None]).sum(axis=1)
    starts = np.flatnonzero(np.diff(t, prepend=-1))
    step = max(1, 2048 // link.shape[1])
    for g in range(0, len(starts), step):
        lo = starts[g]
        hi = starts[g + step] if g + step < len(starts) else len(t)
        covered = np.bitwise_or.reduceat(exceeds[rows[lo:hi]], starts[g : g + step] - lo, axis=0)
        if (covered != everything).any():
            return False
    return True


def exchange_sampled(support: np.ndarray, tees: np.ndarray, link: np.ndarray, pairs: int, seed: int) -> bool:
    """The exchange condition on the library's sample of ordered support pairs."""
    d = support.shape[1]
    draw = sampled_indices(len(support), pairs, seed)
    keys = _keys(tees)
    alpha, beta = support[draw[:, 0]], support[draw[:, 1]]
    here = np.arange(pairs)
    counts = np.zeros((2, pairs, link.shape[1]), dtype=np.int16)
    for side, rows in enumerate((alpha, beta)):
        for p in range(d):
            counts[side, here, rows[:, p]] += 1
    gain = counts[1] > counts[0]
    for p in range(d):
        i = alpha[:, p]
        need = counts[0, here, i] > counts[1, here, i]
        exchanged = (link[_index(keys, np.delete(alpha, p, axis=1))] & gain).any(axis=1)
        if (need & ~exchanged).any():
            return False
    return True
