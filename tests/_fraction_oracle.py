"""Reference exact linear algebra over ``Fraction``, used only by the tests.

These are the textbook rational eliminations the library's fraction-free
integer kernel (``chowmat._linalg``) and block-constancy balancing test
(``chowmat.bergman.check_balanced``) are compared against.  They are slow and
deliberately simple; nothing in ``src/`` imports them.
"""

from __future__ import annotations

from fractions import Fraction

from chowmat.bergman import MinkowskiWeight
from chowmat.matroid import bits


def signature(sym) -> tuple[int, int, int]:
    """Exact inertia (n_plus, n_minus, n_zero) of a symmetric rational matrix."""
    n = len(sym)
    a = [[Fraction(v) for v in row] for row in sym]
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        k = next((i for i in active if a[i][i] != 0), None)
        if k is not None:
            d = a[k][k]
            if d > 0:
                pos += 1
            else:
                neg += 1
            active.remove(k)
            col = {r: a[r][k] for r in active}
            for r in active:
                if col[r]:
                    for c in active:
                        a[r][c] -= col[r] * a[k][c] / d
            continue
        pair = next(
            ((i, j) for ii, i in enumerate(active) for j in active[ii + 1 :] if a[i][j] != 0),
            None,
        )
        if pair is None:
            zero += len(active)
            break
        i, j = pair
        v = a[i][j]
        pos += 1
        neg += 1
        active.remove(i)
        active.remove(j)
        coli = {r: a[r][i] for r in active}
        colj = {r: a[r][j] for r in active}
        for r in active:
            if coli[r] or colj[r]:
                for c in active:
                    a[r][c] -= (coli[r] * a[j][c] + colj[r] * a[i][c]) / v
    return pos, neg, zero


def rank_exact_fraction(matrix) -> int:
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    m = [[Fraction(v) for v in row] for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    for col in range(cols):
        sel = next((r for r in range(rank, rows) if m[r][col]), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        piv = m[rank][col]
        for r in range(rows):
            if r != rank and m[r][col]:
                f = m[r][col] / piv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def in_span(vectors: list[list[Fraction]], target: list[Fraction]) -> bool:
    """Exact membership of ``target`` in the rational span of ``vectors``."""
    cols = len(vectors)
    rows = len(target)
    # Augmented elimination over the columns.
    mat = [[vectors[c][r] for c in range(cols)] + [target[r]] for r in range(rows)]
    pivot_row = 0
    for col in range(cols):
        sel = next((r for r in range(pivot_row, rows) if mat[r][col]), None)
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        inv = mat[pivot_row][col]
        for r in range(rows):
            if r != pivot_row and mat[r][col]:
                factor = mat[r][col] / inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
    return all(mat[r][cols] == 0 for r in range(pivot_row, rows))


def check_balanced(w: MinkowskiWeight) -> bool:
    """Balancing by span membership: at every facet tau, the weighted sum of
    the inserted rays lies in span{e_S : S in tau} + span{e_E}."""
    if w.dim == 0:
        return True
    n = w.n_elements
    facets: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for cone, value in w.weights.items():
        for i in range(w.dim):
            facets.setdefault(cone[:i] + cone[i + 1 :], []).append((cone[i], value))
    for tau, contributions in facets.items():
        total = [Fraction(0)] * n
        for inserted, value in contributions:
            for e in bits(inserted):
                total[e] += value
        span = [[Fraction(1)] * n] + [[Fraction(s >> e & 1) for e in range(n)] for s in tau]
        if not in_span(span, total):
            return False
    return True
