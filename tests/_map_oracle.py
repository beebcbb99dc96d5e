"""Dense multiplication matrices built straight from the normal forms, used
only by the tests.

The library stores each multiplication map compressed to its nonzero rows and
columns (``chowmat.chow.SparseMap``); these are the plain dense matrices it
must equal, with Python-int entries.
"""

from __future__ import annotations

import itertools

import numpy as np

from chowmat.chow import ChowRing, SparseMap, _canon


def dense_z(ring: ChowRing, flat: int, deg: int) -> np.ndarray:
    """Column c: the normal form of z_flat times the c-th nested monomial of degree deg."""
    mat = np.zeros((len(ring.nested[deg + 1]), len(ring.nested[deg])), dtype=object)
    for col, mono in enumerate(ring.nested[deg]):
        for idx, v in ring._nf(_canon(itertools.chain(mono, ((flat, 1),)))).items():
            mat[idx, col] = v
    return mat


def dense_h(ring: ChowRing, flat: int, deg: int) -> np.ndarray:
    """h_flat = -sum_{G >= flat} z_G."""
    return -sum(dense_z(ring, g, deg) for g in ring.supersets[flat])


def densify(m: SparseMap) -> np.ndarray:
    out = np.zeros(m.shape, dtype=object)
    out[np.ix_(m.outs, m.ins)] = m.block.astype(object)
    return out
