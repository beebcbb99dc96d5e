"""Exact linear algebra on Python integers: signatures, ranks, nullities.

One fraction-free kernel serves every exact question.  Rational input is
first multiplied by a positive common denominator, which changes neither the
rank nor the inertia, so all elimination runs on Python ints.

* :func:`signature` reduces a symmetric matrix by congruence: a nonzero
  diagonal entry (the smallest in absolute value) is a 1x1 pivot; when the
  whole diagonal vanishes, a nonzero off-diagonal entry gives the hyperbolic
  2x2 block, which contributes one positive and one negative square.  Each
  Schur complement is kept as a *positive* integer multiple of itself: after
  a 1x1 pivot by Bareiss's exact division with the signs tracked, after a
  2x2 block by dividing out its content.  Either way its entries stay
  bounded by minors of the input (Sylvester's identity).
* :func:`rank_exact` is Bareiss's fraction-free elimination, whose exact
  division by the previous pivot keeps every entry a minor of the input.
* :func:`rank_int` proves full rank by one elimination modulo a prime (full
  rank mod p implies full rank over Q) and falls back to :func:`rank_exact`
  otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import InvariantViolation

#: Prime below 2^31 so products of two reduced entries stay inside int64.
_P = 2147483647


def _integer_rows(matrix) -> list[list[int]]:
    """The rows of ``matrix`` as Python ints, scaled by a positive common denominator.

    Accepts nested lists or numpy arrays of ints, numpy integers or rationals.
    """
    rows = np.asarray(matrix, dtype=object).tolist()
    if all(type(v) is int for row in rows for v in row):
        return rows
    exact = [[Fraction(v) for v in row] for row in rows]
    den = math.lcm(*(v.denominator for row in exact for v in row))
    return [[int(v * den) for v in row] for row in exact]


def signature(sym) -> tuple[int, int, int]:
    """Exact inertia (n_plus, n_minus, n_zero) of a symmetric rational matrix."""
    a = _integer_rows(sym)
    n = len(a)
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    pos = neg = 0
    prev = 1
    while a:
        k = min((i for i in range(len(a)) if a[i][i]), key=lambda i: abs(a[i][i]), default=None)
        if k is not None:
            # (|d| A' - sign(d) c c^T) / |previous pivot|: Bareiss's exact
            # division, and a positive multiple of the Schur complement.
            d = a[k][k]
            if d > 0:
                pos += 1
                sign = 1
            else:
                neg += 1
                sign = -1
            col = _remove(a, k)
            signed = [sign * x for x in col]
            d *= sign
            a = [[(d * x - f * y) // prev for x, y in zip(row, col)] for row, f in zip(a, signed)]
            prev = d
            continue
        pair = next(((i, j) for i in range(len(a)) for j in range(i + 1, len(a)) if a[i][j]), None)
        if pair is None:
            break
        # Zero diagonal: with B = [[0, v], [v, 0]] the complement is
        # A' - (c_i c_j^T + c_j c_i^T) / v.  Scale it by |v|, divide out its
        # content and restart the Bareiss divisors from 1.
        i, j = pair
        v = a[i][j]
        sign = 1 if v > 0 else -1
        pos += 1
        neg += 1
        cj = _remove(a, j)
        ci = _remove(a, i)
        del cj[i]
        v *= sign
        a = [
            [v * x - sign * (ci[r] * y + cj[r] * z) for x, y, z in zip(row, cj, ci)]
            for r, row in enumerate(a)
        ]
        content = math.gcd(*(x for row in a for x in row))
        if content > 1:
            a = [[x // content for x in row] for row in a]
        prev = 1
    return pos, neg, n - pos - neg


def _remove(a: list[list[int]], k: int) -> list[int]:
    """Delete row and column k of a symmetric matrix in place; return the column without a[k][k]."""
    col = a.pop(k)
    del col[k]
    for row in a:
        del row[k]
    return col


def rank_mod_p(matrix: np.ndarray, p: int = _P) -> int:
    """Rank of an integer matrix over GF(p); a lower bound for the Q-rank."""
    arr = np.asarray(matrix)
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        m = np.array([[int(v) % p for v in row] for row in arr], dtype=np.int64)
    else:
        m = arr.astype(np.int64) % p
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        sel = None
        for r in range(rank, rows):
            if m[r, col]:
                sel = r
                break
        if sel is None:
            continue
        m[[rank, sel]] = m[[sel, rank]]
        inv = pow(int(m[rank, col]), p - 2, p)
        m[rank] = (m[rank] * inv) % p
        mask = m[rank + 1 :, col] != 0
        if mask.any():
            m[rank + 1 :][mask] = (m[rank + 1 :][mask] - np.outer(m[rank + 1 :, col][mask], m[rank])) % p
        rank += 1
        if rank == rows:
            break
    return rank


def rank_exact(matrix) -> int:
    """Exact rank over Q by Bareiss elimination on Python ints."""
    m = _integer_rows(matrix)
    rows = len(m)
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        sel = next((r for r in range(rank, rows) if m[r][col]), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        piv = m[rank]
        p = piv[col]
        for r in range(rank + 1, rows):
            f = m[r][col]
            m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], piv)]
        prev = p
        rank += 1
        if rank == rows:
            break
    return rank


#: The name ``bench/spans.py`` wraps for the exact fallback's span.
rank_exact_fraction = rank_exact


def rank_int(matrix: np.ndarray) -> int:
    """Exact rank over Q of an integer matrix.

    Fast path: if the rank mod p is already maximal, that is a proof.  The
    modular rank never exceeds the rational one, so any shortfall triggers
    the exact fraction-free elimination.
    """
    if matrix.size == 0:
        return 0
    modular = rank_mod_p(matrix)
    if modular == min(matrix.shape):
        return modular
    exact = rank_exact(matrix)
    if exact < modular:
        raise InvariantViolation(f"exact rank {exact} is below the rank {modular} mod p")
    return exact


def nullity_int(matrix: np.ndarray) -> int:
    if matrix.size == 0:
        return matrix.shape[1] if matrix.ndim == 2 else 0
    return matrix.shape[1] - rank_int(matrix)


def is_full_rank(matrix: np.ndarray) -> bool:
    if matrix.size == 0:
        return min(matrix.shape) == 0
    return rank_int(matrix) == min(matrix.shape)
