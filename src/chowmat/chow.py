"""The Chow ring of a matroid in its classical and simplicial presentations.

Elements are exact-rational polynomials in flat-indexed variables in one of
three alphabets:

* ``z``: one variable per nonempty flat, with the incomparability quadrics
  and one linear relation per atom;
* ``x``: one variable per proper nonempty flat (``x_F = z_F``, and ``z_E``
  equals minus the hyperplane class);
* ``h``: the simplicial generators ``h_F = -sum_{G >= F} z_G``.

Reduction to the nested monomial basis runs in the ``z`` alphabet, rewriting
along the known Groebner basis of the defining ideal (incomparable quadrics,
``z_F * (sum_{H >= G} z_H)^(rk G - rk F)`` for ``F < G``, and
``(sum_{H >= G} z_H)^(rk G)``), whose standard monomials are exactly the
nested monomials.  All arithmetic is integer or rational.

Multiplication by a generator is a :class:`SparseMap` between the nested
coordinates of two consecutive degrees: only its nonzero rows and columns
and the integer block between them are stored, because a Groebner normal
form touches only the nested monomials above one chain (Feichtner-Yuzvinsky).
Every product picks float64, int64 or Python-int arithmetic from a bound on
its entries, so no fixed-width path can wrap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from . import quotients
from .errors import (
    InhomogeneousElement,
    InvariantViolation,
    LoopyMatroid,
    NotAFlat,
    WrongGrade,
)
from .matroid import Matroid, bits, popcount

#: Exponent monomial: ((flat_mask, exponent), ...) sorted by (popcount, mask).
Monomial = tuple[tuple[int, int], ...]

ALPHABETS = ("z", "x", "h")


def _canon(pairs: Iterable[tuple[int, int]]) -> Monomial:
    merged: dict[int, int] = {}
    for mask, exp in pairs:
        if exp:
            merged[mask] = merged.get(mask, 0) + exp
    return tuple(sorted(((m, e) for m, e in merged.items() if e), key=lambda t: (popcount(t[0]), t[0])))


@dataclass
class ChowElement:
    """Sparse polynomial in flat variables of a single alphabet."""

    alphabet: str
    terms: dict[Monomial, Fraction]

    def __post_init__(self) -> None:
        if self.alphabet not in ALPHABETS:
            raise ValueError(f"unknown alphabet {self.alphabet!r}")
        self.terms = {m: Fraction(c) for m, c in self.terms.items() if c}

    @classmethod
    def variable(cls, alphabet: str, mask: int, exp: int = 1) -> "ChowElement":
        return cls(alphabet, {_canon([(mask, exp)]): Fraction(1)})

    @classmethod
    def monomial(cls, alphabet: str, flats: Iterable[int]) -> "ChowElement":
        return cls(alphabet, {_canon((f, 1) for f in flats): Fraction(1)})

    @classmethod
    def one(cls, alphabet: str) -> "ChowElement":
        return cls(alphabet, {(): Fraction(1)})

    @classmethod
    def zero(cls, alphabet: str) -> "ChowElement":
        return cls(alphabet, {})

    def is_zero(self) -> bool:
        return not self.terms

    def grade(self) -> int | None:
        """Common degree of all terms; None for zero, error if inhomogeneous."""
        degrees = {sum(e for _, e in m) for m in self.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise InhomogeneousElement(f"mixed degrees {sorted(degrees)}")
        return degrees.pop()

    def map_terms(self, pairs: Iterable[tuple[Monomial, Fraction]]) -> "ChowElement":
        acc: dict[Monomial, Fraction] = {}
        for m, c in pairs:
            acc[m] = acc.get(m, Fraction(0)) + c
        return ChowElement(self.alphabet, acc)

    def __add__(self, other: "ChowElement") -> "ChowElement":
        self._same(other)
        return self.map_terms(itertools.chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "ChowElement") -> "ChowElement":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, ChowElement):
            self._same(other)
            acc: dict[Monomial, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    key = _canon(itertools.chain(m1, m2))
                    acc[key] = acc.get(key, Fraction(0)) + c1 * c2
            return ChowElement(self.alphabet, acc)
        return ChowElement(self.alphabet, {m: c * Fraction(other) for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ChowElement)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return f"ChowElement({self.alphabet!r}, 0)"
        bits_ = []
        for m, c in sorted(self.terms.items()):
            vars_ = "*".join(
                f"{self.alphabet}_{{{','.join(map(str, sorted(bits(mask))))}}}" + ("" if e == 1 else f"^{e}")
                for mask, e in m
            )
            bits_.append(f"{c}*{vars_}" if vars_ else f"{c}")
        return f"ChowElement({self.alphabet!r}, {' + '.join(bits_)})"

    def _same(self, other: "ChowElement") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError(f"mixed alphabets {self.alphabet!r} and {other.alphabet!r}")


class AmpleDivisor(NamedTuple):
    """A sampled combinatorially ample divisor, in both useful alphabets."""

    x_form: ChowElement
    h_form: ChowElement


# Guard for exact float64 BLAS matmuls: products and accumulated sums must
# stay below 2^53 to be exactly representable.
_FLOAT_EXACT = 1 << 53
_INT64_SAFE = 1 << 62


def absmax(x: np.ndarray) -> int:
    """The largest absolute entry of an integer-valued array (0 if empty)."""
    if x.size == 0:
        return 0
    if x.dtype == object:
        return max(abs(int(v)) for v in x.flat)
    return max(int(x.max()), -int(x.min()))


def exact_dtype(bound: int):
    """The cheapest dtype that holds every partial sum of an integer product
    exactly, given a bound on the absolute values of those sums."""
    return np.float64 if bound < _FLOAT_EXACT else np.int64 if bound < _INT64_SAFE else object


def imatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer matmul; picks the fastest representation that cannot lose."""
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    if a.dtype == object or b.dtype == object:
        path = object
    else:
        path = exact_dtype(a.shape[1] * absmax(a) * absmax(b))
    prod = a.astype(path) @ b.astype(path)
    return prod.astype(np.int64) if path is np.float64 else prod


class SparseMap:
    """An integer matrix stored as the block between its nonzero rows and columns.

    ``outs`` and ``ins`` are the ascending indices of the rows and columns
    holding a nonzero entry, ``block`` the entries between them (int64, or
    Python ints when some entry does not fit), and ``bound`` the largest
    absolute row sum of ``block``, so that max |M x| <= bound * max |x|.
    """

    def __init__(
        self, shape: tuple[int, int], outs: np.ndarray, ins: np.ndarray, block: np.ndarray, bound: int
    ) -> None:
        self.shape = shape
        self.outs = outs
        self.ins = ins
        self.block = block
        self.bound = bound

    @classmethod
    def from_columns(cls, n_rows: int, columns: list[dict[int, int]]) -> SparseMap:
        """The map whose column c holds the nonzero entries ``columns[c]``, row -> value."""
        ins = [c for c, col in enumerate(columns) if col]
        outs = sorted(set().union(*columns))
        where = {r: i for i, r in enumerate(outs)}
        rows = [where[r] for c in ins for r in columns[c]]
        cols = [j for j, c in enumerate(ins) for _ in columns[c]]
        vals = [v for c in ins for v in columns[c].values()]
        fits = all(abs(v) < _INT64_SAFE for v in vals)
        block = np.zeros((len(outs), len(ins)), dtype=np.int64 if fits else object)
        block[rows, cols] = vals
        outs, ins = np.array(outs, dtype=np.intp), np.array(ins, dtype=np.intp)
        return cls((n_rows, len(columns)), outs, ins, block, _row_bound(block))

    @classmethod
    def combination(cls, shape: tuple[int, int], terms: list[tuple[int, SparseMap]]) -> SparseMap:
        """The sum of c * M over the ``(c, M)`` terms, maps of the given shape."""
        terms = [(c, m) for c, m in terms if c and m.bound]
        # Every entry of the sum is at most sum |c| * bound(M).
        fits = sum(abs(c) * m.bound for c, m in terms) < _INT64_SAFE
        dtype = np.int64 if fits and all(m.block.dtype != object for _, m in terms) else object
        parts = [m.entries for _, m in terms] or [np.zeros((3, 0), dtype=np.intp)]
        rows, cols, vals = np.concatenate(parts, axis=1)
        coeffs = np.array([c for c, _ in terms], dtype=dtype)
        vals = vals.astype(dtype) * np.repeat(coeffs, [m.entries.shape[1] for _, m in terms])
        outs, r = _positions(rows.astype(np.intp, copy=False), shape[0])
        ins, c = _positions(cols.astype(np.intp, copy=False), shape[1])
        block = np.zeros((len(outs), len(ins)), dtype=dtype)
        np.add.at(block, (r, c), vals)
        # Drop the rows and columns whose entries all cancelled.
        live_rows, live_cols = block.any(axis=1), block.any(axis=0)
        if not (live_rows.all() and live_cols.all()):
            block, outs, ins = block[np.ix_(live_rows, live_cols)], outs[live_rows], ins[live_cols]
        return cls(shape, outs, ins, block, _row_bound(block))

    @cached_property
    def entries(self) -> np.ndarray:
        """The nonzero entries as the columns (row, column, value), in matrix indices."""
        r, c = np.nonzero(self.block)
        return np.stack([self.outs[r], self.ins[c], self.block[r, c]])

    @cached_property
    def T(self) -> SparseMap:
        """The transpose, for row vectors: ``M.T.apply(w)`` is ``(w.T @ M).T``.
        Its block is a view of this one."""
        block = self.block.T
        return SparseMap(self.shape[::-1], self.ins, self.outs, block, _row_bound(block))

    @cached_property
    def _float_block(self) -> np.ndarray:
        return self.block.astype(np.float64)

    def rows(self, x: np.ndarray, xmax: int | None = None) -> np.ndarray:
        """Rows ``outs`` of the exact product M @ x, for an integer block x.

        ``x`` is ``(shape[1], N)`` with integer entries held as int64, as
        float64 below 2^53, or as Python ints; ``xmax`` bounds their absolute
        values (read off the gathered rows when omitted).  The product runs in
        float64 when bound * xmax < 2^53, in int64 below 2^62 and on Python
        ints otherwise.  A float64 x gives a float64 product on the float64
        path; every other product is int64 or Python ints.
        """
        gathered = x[self.ins]
        if xmax is None:
            xmax = absmax(gathered)
        path = exact_dtype(self.bound * xmax) if self.block.dtype != object else object
        if x.dtype == np.float64 and path is not np.float64:
            gathered = gathered.astype(np.int64)
        block = self._float_block if path is np.float64 else self.block.astype(path, copy=False)
        prod = block @ gathered.astype(path, copy=False)
        return prod.astype(np.int64) if path is np.float64 and x.dtype != np.float64 else prod

    def apply(self, x: np.ndarray, xmax: int | None = None) -> np.ndarray:
        """The exact product M @ x, zero outside the rows ``outs``."""
        prod = self.rows(x, xmax)
        out = np.zeros((self.shape[0], x.shape[1]), dtype=prod.dtype)
        out[self.outs] = prod
        return out


def _positions(indices: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``indices`` below ``size``, ascending, and the
    position of each index among them."""
    present = np.zeros(size, dtype=bool)
    present[indices] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[indices]


def _row_bound(block: np.ndarray) -> int:
    """The largest absolute row sum of an integer block, exactly."""
    if block.size == 0:
        return 0
    if block.dtype != object:
        # Sums of nonnegative integers stay exact in float64 while below 2^53.
        bound = float(np.abs(block).sum(axis=1, dtype=np.float64).max())
        if bound < _FLOAT_EXACT:
            return int(bound)
    return max(sum(abs(int(v)) for v in row) for row in block)


class ChowRing:
    """Reduction tables for the Chow ring of one loopless matroid.

    Tables fill in lazily per degree and are immutable once computed; all
    cached values are deterministic, so a concurrent warm-up can at worst
    duplicate work (dict writes are atomic under the GIL).
    """

    def __init__(self, m: Matroid):
        if not m.is_loopless():
            raise LoopyMatroid("Chow rings are defined for loopless matroids")
        self.matroid = m
        self.lattice = m.lattice()
        self.d = m.rank_full - 1
        self.flats_nonempty = [f for f in self.lattice.flats if f != 0]
        self.flat_rank = {f: m.rank(f) for f in self.flats_nonempty}
        self.supersets = {
            f: [g for g in self.flats_nonempty if f & ~g == 0] for f in self.flats_nonempty
        }
        self.nested: list[list[Monomial]] = quotients._nested_chain_levels(m, self.d)
        self.nested_index: list[dict[Monomial, int]] = [
            {mono: i for i, mono in enumerate(level)} for level in self.nested
        ]
        self._nf_memo: dict[Monomial, dict[int, int]] = {}
        self._zmap: dict[tuple[int, int], SparseMap] = {}
        self._hmap: dict[tuple[int, int], SparseMap] = {}
        self._t: dict[int, np.ndarray] = {}
        self._rows: dict[int, np.ndarray] = {}
        self._tinv: dict[int, np.ndarray] = {}
        self._check_degree_normalization()

    # -- nested basis --------------------------------------------------------

    def hilbert_function(self) -> list[int]:
        return [len(level) for level in self.nested]

    # -- Groebner reduction in the z alphabet ---------------------------------

    def _violation(self, mono: Monomial) -> int | None:
        """Index of the first exponent-constraint violation, None if standard.

        Returns -1 for monomials killed by the incomparability quadrics.
        """
        prev_mask, prev_rank = 0, 0
        for j, (mask, exp) in enumerate(mono):
            r = self.flat_rank.get(mask)
            if r is None:
                raise NotAFlat(f"{sorted(bits(mask))} is not a nonempty flat")
            if prev_mask and (r == prev_rank or prev_mask & ~mask):
                return -1
            if exp >= r - prev_rank:
                return j
            prev_mask, prev_rank = mask, r
        return None

    def _nf(self, mono: Monomial) -> dict[int, int]:
        """Normal form of a z-monomial on the nested basis of its degree."""
        cached = self._nf_memo.get(mono)
        if cached is not None:
            return cached
        j = self._violation(mono)
        if j is None:
            deg = sum(e for _, e in mono)
            result = {self.nested_index[deg][mono]: 1}
        elif j == -1:
            result = {}
        else:
            mask, exp = mono[j]
            prev_rank = self.flat_rank[mono[j - 1][0]] if j else 0
            c = self.flat_rank[mask] - prev_rank
            stripped = _canon(
                (m, e - c if m == mask else e) for m, e in mono
            )
            sups = self.supersets[mask]
            result: dict[int, int] = {}
            for combo in itertools.combinations_with_replacement(sups, c):
                if all(g == mask for g in combo):
                    continue
                coeff = _multinomial(combo)
                child = _canon(itertools.chain(stripped, ((g, 1) for g in combo)))
                for idx, v in self._nf(child).items():
                    acc = result.get(idx, 0) - coeff * v
                    if acc:
                        result[idx] = acc
                    else:
                        result.pop(idx, None)
        self._nf_memo[mono] = result
        return result

    def reduce_z_terms(self, terms: dict[Monomial, Fraction]) -> list[Fraction]:
        """Reduce a z-polynomial (assumed homogeneous) to nested z-coordinates."""
        degrees = {sum(e for _, e in m) for m in terms}
        if len(degrees) > 1:
            raise InhomogeneousElement(f"mixed degrees {sorted(degrees)}")
        deg = degrees.pop() if degrees else 0
        if deg > self.d:
            return []
        out = [Fraction(0)] * len(self.nested[deg])
        for mono, coeff in terms.items():
            for idx, v in self._nf(mono).items():
                out[idx] += coeff * v
        return out

    def _check_degree_normalization(self) -> None:
        # The top graded piece must be spanned by z_E^d alone, and a maximal
        # chain of proper flats must reduce to (-1)^d z_E^d.
        top = self.nested[self.d]
        full = self.matroid.full_mask
        expected = [((full, self.d),)] if self.d else [()]
        if top != expected:
            raise InvariantViolation("top nested basis is not the power of z_E")
        chain = self.lattice.maximal_chain(full)
        nf = self._nf(_canon((f, 1) for f in chain))
        if nf != {0: (-1) ** self.d}:
            raise InvariantViolation("degree normalization failed")

    # -- matrices -------------------------------------------------------------

    def z_matrix(self, flat: int, deg: int) -> SparseMap:
        """Multiplication by z_flat as a map of nested z-coordinates, deg -> deg+1."""
        key = (flat, deg)
        cached = self._zmap.get(key)
        if cached is None:
            columns = [
                self._nf(_canon(itertools.chain(mono, ((flat, 1),)))) for mono in self.nested[deg]
            ]
            cached = SparseMap.from_columns(len(self.nested[deg + 1]), columns)
            self._zmap[key] = cached
        return cached

    def h_matrix(self, flat: int, deg: int) -> SparseMap:
        """Multiplication by h_flat = -sum_{G >= flat} z_G in nested z-coordinates."""
        key = (flat, deg)
        cached = self._hmap.get(key)
        if cached is None:
            cached = self.divisor_matrix({g: -1 for g in self.supersets[flat]}, deg)
            self._hmap[key] = cached
        return cached

    def divisor_matrix(self, zcoeffs: dict[int, int], deg: int) -> SparseMap:
        """Multiplication by an integer z-divisor sum(c_F z_F), deg -> deg+1."""
        shape = (len(self.nested[deg + 1]), len(self.nested[deg]))
        terms = [(c, self.z_matrix(f, deg)) for f, c in zcoeffs.items() if c]
        return SparseMap.combination(shape, terms)

    def t_matrix(self, deg: int) -> np.ndarray:
        """Columns: nested z-coordinates of the nested h-basis monomials."""
        cached = self._t.get(deg)
        if cached is None:
            if deg == 0:
                cached = np.ones((1, 1), dtype=np.int64)
            else:
                below = self.t_matrix(deg - 1)

                def step(h: SparseMap, parents: list[int]) -> np.ndarray:
                    return h.apply(below[:, parents])

                cached = self._by_last_flat(deg, deg - 1, step)
            self._t[deg] = cached
        return cached

    def pairing_rows(self, k: int) -> np.ndarray:
        """Row i: the functional x -> int(b_i * x) on nested z-coordinates of
        degree d - k, for the nested h-basis monomials b_i of degree k."""
        cached = self._rows.get(k)
        if cached is None:
            if k == 0:
                cached = np.array([[(-1) ** self.d]], dtype=np.int64)
            else:
                above = self.pairing_rows(k - 1)

                def step(h: SparseMap, parents: list[int]) -> np.ndarray:
                    # int(h_F b' x) = int(b' (h_F x)): the row of b' through the transposed h-map.
                    return h.T.apply(above[parents].T)

                cached = self._by_last_flat(k, self.d - k, step).T
            self._rows[k] = cached
        return cached

    def _by_last_flat(self, deg: int, map_deg: int, step) -> np.ndarray:
        """Column i: ``step(h, parents)`` for the nested monomial m_i = m' * h_F
        of degree ``deg``, with F its last flat, h the h-map of F at degree
        ``map_deg`` and m' the parent, one batch per F."""
        groups: dict[int, tuple[list[int], list[int]]] = {}
        for i, mono in enumerate(self.nested[deg]):
            mask, exp = mono[-1]
            parent = _canon(itertools.chain(mono[:-1], ((mask, exp - 1),)))
            members, parents = groups.setdefault(mask, ([], []))
            members.append(i)
            parents.append(self.nested_index[deg - 1][parent])
        order, blocks = [], []
        for mask, (members, parents) in groups.items():
            order.extend(members)
            blocks.append(step(self.h_matrix(mask, map_deg), parents))
        return np.concatenate(blocks, axis=1)[:, np.argsort(order)]

    def tinv_matrix(self, deg: int) -> np.ndarray:
        """Exact integer inverse of t_matrix, as a finite series.

        The basis change is triangular in lex order with diagonal (-1)^deg, so
        N = I - (-1)^deg T is nilpotent and T^-1 = (-1)^deg (I + N)(I + N^2)(I + N^4)...,
        up to the first zero power of N.  Powers of N have a zero diagonal, so
        adding I only fills it, and every other sum stays inside
        :func:`imatmul`'s exact dtype choice.  The product is re-checked
        against the identity.
        """
        cached = self._tinv.get(deg)
        if cached is None:
            t = self.t_matrix(deg)
            eye = np.eye(len(t), dtype=np.int64)
            power = eye - (-1) ** deg * t
            inv = eye
            for _ in range(len(t).bit_length() + 1):
                if not power.any():
                    break
                inv = imatmul(inv, eye + power)
                power = imatmul(power, power)
            else:
                raise InvariantViolation("basis change is not unitriangular")
            inv = (-1) ** deg * inv
            if not (imatmul(t, inv) == eye).all():
                raise InvariantViolation("triangular inverse failed")
            cached = inv
            self._tinv[deg] = cached
        return cached

    # -- element-level operations ---------------------------------------------

    def to_z(self, e: ChowElement) -> ChowElement:
        return convert_element(self, e, "z")

    def zcoords(self, e: ChowElement) -> tuple[int, list[Fraction]]:
        """(degree, nested z-coordinates) of a homogeneous element."""
        z = self.to_z(e)
        grade = z.grade()
        if grade is None:
            return 0, [Fraction(0)] * len(self.nested[0])
        if grade > self.d:
            return grade, []
        return grade, self.reduce_z_terms(z.terms)

    def normal_form(self, e: ChowElement) -> ChowElement:
        """The representative supported on the nested basis (h alphabet)."""
        grade, coords = self.zcoords(e)
        if grade > self.d:
            return ChowElement.zero("h")
        tinv = self.tinv_matrix(grade)
        hcoords = [
            sum(Fraction(int(tinv[i, j])) * coords[j] for j in range(len(coords)) if coords[j])
            for i in range(len(coords))
        ]
        return ChowElement(
            "h", {self.nested[grade][i]: c for i, c in enumerate(hcoords) if c}
        )

    def degree(self, e: ChowElement) -> Fraction:
        """The degree map on the top graded piece."""
        if not e.terms:
            return Fraction(0)
        grade, coords = self.zcoords(e)
        if grade != self.d:
            raise WrongGrade(f"element has grade {grade}, top degree is {self.d}")
        return coords[0] * (-1) ** self.d

    def h_monomial_degree(self, flats: Iterable[int]) -> Fraction:
        """Degree of a product of simplicial generators h_{A_1} ... h_{A_d}, via
        Groebner reduction: 1 in nested z-coordinates is pushed through the h-maps
        of the closures cl(A_i), degree by degree, and the one coordinate of A^d
        read off.

        Each member must be a nonempty subset of E.  A step gathers the map's
        input coordinates and stops at the first zero vector, so no later map is
        built.  Its dtype comes from the running product of the h-maps' largest
        absolute row sums, which bounds every partial sum so far: float64, int64
        or Python ints (:func:`exact_dtype`), rising with the product.
        """
        flats = list(flats)
        if len(flats) != self.d:
            raise WrongGrade(f"need {self.d} factors, got {len(flats)}")
        self.matroid.check_members(flats)
        vec, bound = np.array([1.0]), 1
        for deg, f in enumerate(flats):
            h = self.h_matrix(f if f in self.flat_rank else self.matroid.closure(f), deg)
            x = vec[h.ins]
            if not np.count_nonzero(x):
                return Fraction(0)
            bound *= h.bound
            dtype = exact_dtype(bound)
            if dtype is np.float64:
                block = h._float_block
            else:
                block = h.block.astype(dtype, copy=False)
                # Floats below 2^53 pass through int64, so object vectors hold Python ints.
                x = (x.astype(np.int64) if x.dtype == np.float64 else x).astype(dtype, copy=False)
            vec = np.zeros(h.shape[0], dtype=dtype)
            vec[h.outs] = block @ x
        return Fraction(int(vec[0]) * (-1) ** self.d)

    def poincare_pairing(self, k: int) -> list[list[Fraction]]:
        """Matrix of int(b_i * b_j) over nested degrees k and d-k (h basis)."""
        if not 0 <= k <= self.d:
            raise WrongGrade(f"degree {k} outside 0..{self.d}")
        prod = imatmul(self.pairing_rows(k), self.t_matrix(self.d - k))
        return [[Fraction(int(v)) for v in row] for row in prod]

    def alpha_beta(self) -> tuple[ChowElement, ChowElement]:
        """The nef classes alpha = sum_{i in F} x_F and beta = sum_{i not in F} x_F."""
        i = 0
        proper = [f for f in self.flats_nonempty if f != self.matroid.full_mask]
        alpha = ChowElement(
            "x", {_canon([(f, 1)]): Fraction(1) for f in proper if f & (1 << i)}
        )
        beta = ChowElement(
            "x", {_canon([(f, 1)]): Fraction(1) for f in proper if not f & (1 << i)}
        )
        return alpha, beta

    def ample_x_form(self) -> ChowElement:
        """The canonical strictly submodular divisor c_S = |S| * |E \\ S|, in x."""
        n = self.matroid.n_elements
        proper = [f for f in self.flats_nonempty if f != self.matroid.full_mask]
        return ChowElement("x", {_canon([(f, 1)]): Fraction(popcount(f) * (n - popcount(f))) for f in proper})

    def sample_ample(self) -> AmpleDivisor:
        """:meth:`ample_x_form` and its normal form in the h alphabet."""
        x_form = self.ample_x_form()
        return AmpleDivisor(x_form, self.normal_form(x_form))


def _multinomial(combo: tuple[int, ...]) -> int:
    counts: dict[int, int] = {}
    for g in combo:
        counts[g] = counts.get(g, 0) + 1
    total = len(combo)
    result = 1
    remaining = total
    for c in counts.values():
        result *= math.comb(remaining, c)
        remaining -= c
    return result


# -- alphabet conversions ----------------------------------------------------


def convert_element(ring: ChowRing, e: ChowElement, target: str) -> ChowElement:
    """Exact change of variables between the z, x and h alphabets."""
    if target not in ALPHABETS:
        raise ValueError(f"unknown alphabet {target!r}")
    if e.alphabet == target:
        return ChowElement(target, dict(e.terms))
    if e.alphabet == "h" and target == "z":
        subs = {
            f: {g: Fraction(-1) for g in ring.supersets[f]} for f in ring.flats_nonempty
        }
    elif e.alphabet == "z" and target == "h":
        subs = {
            f: {
                g: Fraction(-ring.lattice.moebius(f, g))
                for g in ring.supersets[f]
                if ring.lattice.moebius(f, g)
            }
            for f in ring.flats_nonempty
        }
    elif e.alphabet == "x" and target == "z":
        subs = {
            f: {f: Fraction(1)}
            for f in ring.flats_nonempty
            if f != ring.matroid.full_mask
        }
    elif e.alphabet == "z" and target == "x":
        full = ring.matroid.full_mask
        alpha = {
            f: Fraction(-1)
            for f in ring.flats_nonempty
            if f != full and f & 1
        }
        subs = {f: {f: Fraction(1)} for f in ring.flats_nonempty if f != full}
        subs[full] = alpha
    else:
        return convert_element(ring, convert_element(ring, e, "z"), target)
    acc: dict[Monomial, Fraction] = {}
    for mono, coeff in e.terms.items():
        expanded = {(): coeff}
        for mask, exp in mono:
            lin = subs.get(mask)
            if lin is None:
                raise NotAFlat(f"variable {sorted(bits(mask))} not available in this alphabet")
            new: dict[Monomial, Fraction] = {}
            items = list(lin.items())
            for combo in itertools.combinations_with_replacement(range(len(items)), exp):
                mult = _multinomial(tuple(combo))
                cf = Fraction(mult)
                extra: list[tuple[int, int]] = []
                for idx in combo:
                    g, c = items[idx]
                    cf *= c
                    extra.append((g, 1))
                for base, bc in expanded.items():
                    key = _canon(itertools.chain(base, extra))
                    new[key] = new.get(key, Fraction(0)) + bc * cf
            expanded = new
        for key, c in expanded.items():
            acc[key] = acc.get(key, Fraction(0)) + c
    return ChowElement(target, acc)


# -- public functional surface ------------------------------------------------


@lru_cache(maxsize=64)
def ring_for(m: Matroid) -> ChowRing:
    return ChowRing(m)


def nested_basis(m: Matroid) -> list[list[Monomial]]:
    return ring_for(m).nested


def hilbert_function(m: Matroid) -> list[int]:
    return ring_for(m).hilbert_function()


def convert(m: Matroid, e: ChowElement, target: str) -> ChowElement:
    return convert_element(ring_for(m), e, target)


def normal_form(m: Matroid, e: ChowElement) -> ChowElement:
    return ring_for(m).normal_form(e)


def degree(m: Matroid, e: ChowElement) -> Fraction:
    return ring_for(m).degree(e)


def poincare_pairing(m: Matroid, k: int) -> list[list[Fraction]]:
    return ring_for(m).poincare_pairing(k)


def alpha_beta(m: Matroid) -> tuple[ChowElement, ChowElement]:
    return ring_for(m).alpha_beta()


def sample_ample(m: Matroid) -> AmpleDivisor:
    return ring_for(m).sample_ample()
