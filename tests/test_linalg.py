"""Exact rank, nullity, and signature helpers, against the Fraction oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowmat import _linalg
from chowmat._linalg import (
    is_full_rank,
    nullity_int,
    rank_exact,
    rank_int,
    rank_mod_p,
    signature,
)
from chowmat.errors import InvariantViolation

import _fraction_oracle as oracle


def test_rank_int_known_matrices():
    assert rank_int(np.array([[1, 2], [2, 4]], dtype=np.int64)) == 1
    assert rank_int(np.array([[1, 0], [0, 1]], dtype=np.int64)) == 2
    assert rank_int(np.zeros((3, 2), dtype=np.int64)) == 0
    assert not is_full_rank(np.array([[1, 1], [1, 1]], dtype=np.int64))
    assert is_full_rank(np.array([[2, 1], [1, 1]], dtype=np.int64))


def test_rank_matches_exact_fraction_on_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        a = rng.integers(-3, 4, size=(rows, cols))
        exact = oracle.rank_exact_fraction([[Fraction(int(v)) for v in row] for row in a])
        assert rank_int(a.astype(np.int64)) == exact
        assert rank_mod_p(a.astype(np.int64)) <= exact


def test_nullity():
    a = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.int64)
    assert nullity_int(a) == 2


def test_rank_handles_object_entries():
    big = 10**30
    a = np.array([[big, 0], [0, big]], dtype=object)
    assert rank_mod_p(a) == 2


def test_signature_zero_diagonal_blocks():
    # Two hyperbolic pairs and a kernel direction.
    mat = [
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 0, 0, 2, 0],
        [0, 0, 2, 0, 0],
        [0, 0, 0, 0, 0],
    ]
    q = [[Fraction(v) for v in row] for row in mat]
    assert signature(q) == (2, 2, 1)


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        signature([[Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)]])


# -- the integer kernel against the Fraction oracle ------------------------------------


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices up to 12x12; about a quarter have a zero diagonal."""
    n = draw(st.integers(0, 12))
    zero_diagonal = draw(st.booleans()) and draw(st.booleans())
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i < j or not zero_diagonal:
                a[i][j] = a[j][i] = draw(st.integers(-4, 4))
    return a


@st.composite
def gram_products(draw):
    """B D B^T with B of shape n x k, k < n: singular, inertia bounded by D's."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(0, n - 1))
    b = [[draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(n)]
    d = [draw(st.integers(-3, 3)) for _ in range(k)]
    return [[sum(b[i][t] * d[t] * b[j][t] for t in range(k)) for j in range(n)] for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_signature_matches_oracle(a):
    sig = signature(a)
    assert sig == oracle.signature(a)
    assert sig == signature(np.array(a, dtype=np.int64).reshape(len(a), len(a)))
    assert sum(sig) == len(a)


@settings(max_examples=60, deadline=None)
@given(gram_products())
def test_signature_of_singular_products(a):
    assert signature(a)[2] >= 1
    assert signature(a) == oracle.signature(a)


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices(), st.integers(63, 90), st.integers(-5, 5))
def test_signature_beyond_int64_in_object_arrays(a, shift, offset):
    """Entries past 2^63: a scaled copy plus one huge diagonal perturbation."""
    n = len(a)
    big = [[v << shift for v in row] for row in a]
    if n:
        big[0][0] += (1 << shift) + offset
    obj = np.array(big, dtype=object).reshape(n, n)
    assert signature(obj) == oracle.signature(big)


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices(), st.integers(1, 30))
def test_signature_of_rational_input(a, den):
    """Symmetric rational entries with mixed denominators."""
    q = [[Fraction(v, den + (i + j) % 3) for j, v in enumerate(row)] for i, row in enumerate(a)]
    assert signature(q) == oracle.signature(q)


@st.composite
def rectangular_matrices(draw):
    """Random integer matrices, half of them low-rank products L @ R."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    if draw(st.booleans()):
        inner = draw(st.integers(0, min(rows, cols)))
        left = np.array([[draw(st.integers(-3, 3)) for _ in range(inner)] for _ in range(rows)], dtype=np.int64)
        right = np.array([[draw(st.integers(-3, 3)) for _ in range(cols)] for _ in range(inner)], dtype=np.int64)
        return (left.reshape(rows, inner) @ right.reshape(inner, cols)).astype(np.int64)
    return np.array([[draw(st.integers(-5, 5)) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(rectangular_matrices())
def test_rank_and_nullity_match_oracle(a):
    exact = oracle.rank_exact_fraction(a.tolist())
    assert rank_exact(a) == exact
    assert rank_int(a) == exact
    assert nullity_int(a) == a.shape[1] - exact
    assert is_full_rank(a) == (exact == min(a.shape))
    assert rank_exact(a.astype(object) * (1 << 70)) == exact


def test_rank_invariant_violation_is_typed(monkeypatch):
    """A modular rank above the exact one is a defect and raises a ChowmatError."""
    monkeypatch.setattr(_linalg, "rank_mod_p", lambda matrix, p=_linalg._P: 2)
    with pytest.raises(InvariantViolation):
        rank_int(np.array([[1, 2, 3], [2, 4, 6], [0, 0, 0]], dtype=np.int64))
