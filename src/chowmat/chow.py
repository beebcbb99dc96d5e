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
nested monomials.  That reduction (:meth:`ChowRing._nf`) fills the columns of
the multiplication maps, and elements reduce through the maps
(:meth:`ChowRing.zcoords`).  All arithmetic is integer or rational.  A product
z_F * m whose chain m holds a flat incomparable with F is zero, because z_F
z_G for incomparable F and G generates the ideal (Feichtner-Yuzvinsky,
Invent. Math. 2004): the multiplication maps read those products off chain
membership and never reduce them, and the reduction drops every child that
is not a chain.  So nearly every zero is found at sight, and the normal-form
memo holds nonzero results only.

Multiplication by a generator is a :class:`SparseMap` between the nested
coordinates of two consecutive degrees: only its nonzero entries are stored,
as (row, column, value) triples, because a Groebner normal form touches only
the nested monomials above one chain (Feichtner-Yuzvinsky).  A single
monomial is reduced by a walk (:meth:`ChowRing._walk`) that keeps its few
nonzero coordinates as Python ints and reads only the map columns they
select, so it is exact at any size.  Block products gather and sum the
entries; a dense block is built only at the point of use of a GEMM, and not
kept.  Every block product picks float32, float64, int64 or Python-int
arithmetic from a bound on its partial sums (:func:`exact_dtype`), so no
fixed-width path can round or wrap.

Every intersection matrix is one call, :meth:`ChowRing.pairing`: the
functionals int(b_i * -) of the nested h-basis against the z-coordinates of
the nested h-basis pushed through a list of maps.  No maps give the Poincaré
pairing, powers of one divisor its Hodge-Riemann forms and top power.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import quotients
from .errors import (
    InhomogeneousElement,
    InvariantViolation,
    LoopyMatroid,
    NotAFlat,
    WrongGrade,
)
from .matroid import Matroid, bits, memoized, popcount

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


# Guards for exact float BLAS matmuls: products and accumulated sums must stay
# below 2^24 (float32) or 2^53 (float64) to be exactly representable.
_FLOAT32_EXACT = 1 << 24
_FLOAT_EXACT = 1 << 53
_INT64_SAFE = 1 << 62
_FLOATS = (np.float32, np.float64)


def absmax(x: np.ndarray) -> int:
    """The largest absolute entry of an integer-valued array (0 if empty)."""
    if x.size == 0:
        return 0
    if x.dtype == object:
        return max(abs(int(v)) for v in x.flat)
    return max(int(x.max()), -int(x.min()))


def exact_dtype(bound: int):
    """The cheapest dtype that holds every partial sum of an integer product
    exactly, given a bound on the absolute values of those sums.

    Below 2^24 that is float32: every product and partial sum is then an
    integer of absolute value at most ``bound``, which binary32 holds exactly
    in any summation order, BLAS blocking and fused multiply-adds included.
    Below 2^53 the same holds for float64, below 2^62 int64 cannot wrap, and
    beyond that the product runs on Python ints.
    """
    if bound < _FLOAT32_EXACT:
        return np.float32
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
    return prod.astype(np.int64) if path in _FLOATS else prod


#: Largest (entries x columns) temporary of one block product; a block is
#: taken this many gathered elements at a time.
_CHUNK = 1 << 20


class SparseMap:
    """An integer matrix stored as its nonzero entries.

    ``rows``, ``cols`` and ``vals`` hold the entries sorted by row, and by
    column within a row: intp indices, and values as int64, or as Python ints
    when some value does not fit.  ``bound`` is the largest absolute row sum,
    so that max |M x| <= bound * max |x|.  Block products gather and sum the
    entries (:meth:`apply`); a dense block exists only where a caller builds
    one for a GEMM (:meth:`dense_block`), and nothing keeps it.  A product
    with a few nonzero coordinates reads single columns (:attr:`_columns`).
    """

    def __init__(
        self, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, bound: int
    ) -> None:
        self.shape = shape
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.bound = bound

    @classmethod
    def from_columns(cls, n_rows: int, columns: list[dict[int, int]]) -> SparseMap:
        """The map whose column c holds the nonzero entries ``columns[c]``, row -> value."""
        rows = np.array([r for col in columns for r in col], dtype=np.intp)
        cols = np.array([c for c, col in enumerate(columns) for _ in col], dtype=np.intp)
        vals = [v for col in columns for v in col.values()]
        fits = all(abs(v) < _INT64_SAFE for v in vals)
        return cls._from_entries((n_rows, len(columns)), rows, cols, np.array(vals, dtype=np.int64 if fits else object))

    @classmethod
    def combination(cls, shape: tuple[int, int], terms: list[tuple[int, SparseMap]]) -> SparseMap:
        """The sum of c * M over the ``(c, M)`` terms, maps of the given shape."""
        terms = [(c, m) for c, m in terms if c and m.bound]
        # Every entry of the sum is at most sum |c| * bound(M).
        fits = sum(abs(c) * m.bound for c, m in terms) < _INT64_SAFE
        dtype = np.int64 if fits and all(m.vals.dtype != object for _, m in terms) else object
        empty = np.zeros(0, dtype=np.intp)
        rows = np.concatenate([m.rows for _, m in terms] + [empty])
        cols = np.concatenate([m.cols for _, m in terms] + [empty])
        vals = np.concatenate([c * m.vals.astype(dtype, copy=False) for c, m in terms] + [empty.astype(dtype)])
        return cls._from_entries(shape, rows, cols, vals)

    @classmethod
    def _from_entries(cls, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> SparseMap:
        """The map of entries given in any order: one sort by position, the
        entries at one position summed and the zero sums dropped."""
        width = max(shape[1], 1)
        key = rows * width + cols
        order = np.argsort(key)
        key, vals = key[order], vals[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        if len(first) < len(key):
            key, vals = key[first], np.add.reduceat(vals, first)
        live = vals != 0
        rows, cols = np.divmod(key[live], width)
        vals = vals[live]
        return cls(shape, rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False), vals, _row_bound(rows, vals))

    @property
    def T(self) -> SparseMap:
        """The transpose, for row vectors: ``M.T.apply(w)`` is ``(w.T @ M).T``."""
        order = np.argsort(self.cols, kind="stable")
        rows, cols, vals = self.cols[order], self.rows[order], self.vals[order]
        return SparseMap(self.shape[::-1], rows, cols, vals, _row_bound(rows, vals))

    @cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero rows, ascending, and the position of each one's first entry."""
        first = np.flatnonzero(np.diff(self.rows, prepend=-1))
        return self.rows[first], first

    @cached_property
    def _block_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(outs, ins, r, c)``: the nonzero rows and columns, ascending, and
        the position of each entry's row among ``outs`` and column among ``ins``."""
        outs, first = self._segments
        ins, c = np.unique(self.cols, return_inverse=True)
        # The entries are sorted by row: segment i holds the entries of row outs[i].
        r = np.repeat(np.arange(len(outs), dtype=np.int32), np.diff(first, append=len(self.vals)))
        # int32 halves the cache: a position is below the entry count, far below 2^31 for any map in memory.
        return outs, ins, r, c.astype(np.int32)

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """Column c as one flat tuple ``(row, value, row, value, ...)`` of
        Python ints, rows ascending: the entries that a product with a vector
        supported on a few columns reads.  Built on first use and read-only."""
        order = np.argsort(self.cols, kind="stable")
        starts = np.searchsorted(self.cols[order], np.arange(self.shape[1] + 1)).tolist()
        flat = np.empty(2 * len(order), dtype=self.vals.dtype)
        flat[0::2], flat[1::2] = self.rows[order], self.vals[order]
        flat = flat.tolist()
        return tuple(tuple(flat[2 * a : 2 * b]) for a, b in zip(starts, starts[1:]))

    def dense_block(self, dtype=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(outs, ins, block)``: the ascending nonzero rows and columns and the
        dense block between them, in ``dtype`` (the entries' own by default).
        It is built anew on every call, for a dense product at its point of use;
        only the entry positions (:attr:`_block_index`) are kept."""
        outs, ins, r, c = self._block_index
        block = np.zeros((len(outs), len(ins)), dtype=dtype or self.vals.dtype)
        block[r, c] = self.vals
        return outs, ins, block

    def apply(self, x: np.ndarray, xmax: int | None = None) -> np.ndarray:
        """The exact product M @ x, for an integer block x.

        ``x`` is ``(shape[1], N)`` with integer entries held as int64, as
        float32 below 2^24, as float64 below 2^53, or as Python ints; ``xmax``
        bounds their absolute values (read off x when omitted).  Each entry of
        M is multiplied by its gathered row of x and the products are summed
        per row of M with ``np.add.reduceat``, so every partial sum is at most
        bound * xmax: the product runs in float32 when that is below 2^24, in
        float64 below 2^53, in int64 below 2^62 and on Python ints otherwise
        (:func:`exact_dtype`).  The block is taken a few columns at a time, so
        that no gathered temporary exceeds :data:`_CHUNK` elements.  A float x
        gives a float product on the float paths; every other product is int64
        or Python ints.
        """
        if xmax is None:
            xmax = absmax(x)
        path = exact_dtype(self.bound * xmax) if self.vals.dtype != object else object
        floats = x.dtype.kind == "f"
        if floats and path not in _FLOATS or x.dtype == object and path in _FLOATS:
            # Floats reach the integer paths, and Python ints the float paths, as int64.
            x = x.astype(np.int64)
        out = np.zeros((self.shape[0], x.shape[1]), dtype=path if floats or path not in _FLOATS else np.int64)
        outs, first = self._segments
        if not len(first):
            return out
        vals = self.vals.astype(path)[:, None]
        step = max(1, _CHUNK // len(vals))
        for lo in range(0, x.shape[1], step):
            gathered = x[self.cols, lo : lo + step].astype(path, copy=False)
            out[outs, lo : lo + step] = np.add.reduceat(vals * gathered, first, axis=0)
        return out


def _row_bound(rows: np.ndarray, vals: np.ndarray) -> int:
    """The largest absolute row sum of the entries ``(rows, vals)``, exactly."""
    if not len(vals):
        return 0
    if vals.dtype != object:
        # Sums of nonnegative integers stay exact in float64 while below 2^53.
        bound = float(np.bincount(rows, weights=np.abs(vals)).max())
        if bound < _FLOAT_EXACT:
            return int(bound)
    sums: dict[int, int] = {}
    for r, v in zip(rows.tolist(), vals.tolist()):
        sums[r] = sums.get(r, 0) + abs(v)
    return max(sums.values())


class ChowRing:
    """Reduction tables for the Chow ring of one loopless matroid.

    Tables fill in lazily per degree (:func:`~chowmat.matroid.memoized`) and
    are immutable once computed; all cached values are deterministic, so a
    concurrent warm-up can at worst duplicate work (dict writes are atomic
    under the GIL).
    """

    def __init__(self, m: Matroid):
        if not m.is_loopless():
            raise LoopyMatroid("Chow rings are defined for loopless matroids")
        self.matroid = m
        self.lattice = lattice = m.lattice()
        self.d = m.rank_full - 1
        # The ring is loopless, so the empty flat comes first.
        self.flats_nonempty = lattice.flats[1:]
        self.flat_rank = dict(zip(self.flats_nonempty, lattice.rank_of[1:]))
        self.supersets = {f: lattice.supersets[f] for f in self.flats_nonempty}
        self.nested, self._parents = quotients._nested_chain_levels(m, self.d)
        self.nested_index: list[dict[Monomial, int]] = [
            {mono: i for i, mono in enumerate(level)} for level in self.nested
        ]
        self._nf_memo: dict[Monomial, dict[int, int]] = {}
        self._check_degree_normalization()

    # -- nested basis --------------------------------------------------------

    def hilbert_function(self) -> list[int]:
        return [len(level) for level in self.nested]

    # -- Groebner reduction in the z alphabet ---------------------------------

    def _violation(self, mono: Monomial) -> int | None:
        """Index of the first exponent violation, None if the monomial is nested,
        and -1 if it is zero at sight: when its flats are not a chain, or when
        some flat P of the chain, or P = 0, has at least rk E - rk P of the
        degree on the flats above it (see :meth:`_nf`).
        """
        above, top = sum(e for _, e in mono), self.d + 1
        first, prev_mask, prev_rank = None, 0, 0
        for j, (mask, exp) in enumerate(mono):
            r = self.flat_rank.get(mask)
            if r is None:
                raise NotAFlat(f"{sorted(bits(mask))} is not a nonempty flat")
            # Flats in (size, mask) order form a chain iff each lies in the next.
            if prev_mask & ~mask or above >= top - prev_rank:
                return -1
            if first is None and exp >= r - prev_rank:
                first = j
            above -= exp
            prev_mask, prev_rank = mask, r
        return first

    def _nf(self, mono: Monomial) -> dict[int, int]:
        """Normal form of a z-monomial on the nested basis of its degree.

        A step rewrites the first exponent violation z_F^e of a chain, e >= c =
        rk F - rk F' for the flat F' before F (or 0), along the Groebner
        element ``z_F' (sum_{H >= F} z_H)^c`` (without z_F' when F is first):
        z_F^c becomes minus the other degree-c monomials in the flats G >= F,
        with multinomial coefficients.  Two kinds of monomials are zero at
        sight and never recurse (:meth:`_violation`):

        * those whose flats are not a chain: they are multiples of z_F z_G for
          incomparable F and G, a generator of the ideal (Feichtner-Yuzvinsky).
          The children of a step that are not chains are dropped before they
          are built.
        * chains F_1 < ... < F_m with sum_{t >= i} e_t >= rk E - rk F_{i-1}
          for some i (F_0 = 0): the degree above F_{i-1} exceeds the top
          degree of the contraction M / F_{i-1}.  A step keeps this true: it
          moves degree from F_j onto flats G >= F_j, so the degree above
          F_{i-1} does not fall while F_{i-1} stays, and a step that removes
          F_{i-1} (e = c) leaves at least (rk F_{i-1} - rk F_{i-2}) + (rk E -
          rk F_{i-1}) above F_{i-2}.  A nested monomial has e_t < rk F_t -
          rk F_{t-1} for every t, so it never meets the bound, and the
          reduction, which ends in nested monomials, gives zero.

        Only nonzero results are memoized: the zero products of
        :meth:`z_matrix` and the zeros above cost one pass over the monomial
        to find again.  (Memoizing every result while every product was
        reduced held 1.2 M monomials on U(5,10), 98.6 % of them zero.)
        """
        cached = self._nf_memo.get(mono)
        if cached is not None:
            return cached
        j = self._violation(mono)
        if j == -1:
            return {}
        if j is None:
            deg = sum(e for _, e in mono)
            result = {self.nested_index[deg][mono]: 1}
        else:
            mask, exp = mono[j]
            prev_rank = self.flat_rank[mono[j - 1][0]] if j else 0
            c = self.flat_rank[mask] - prev_rank
            stripped = _canon(
                (m, e - c if m == mask else e) for m, e in mono
            )
            # The flats G >= F comparable with the flats above F in the chain,
            # so that every child built from them and from stripped is a chain.
            above = [f for f, _ in mono[j + 1:]]
            sups = [g for g in self.supersets[mask] if all(g & ~f == 0 or f & ~g == 0 for f in above)]
            result: dict[int, int] = {}
            for combo in itertools.combinations_with_replacement(sups, c):
                # combo is in mask order with F first: it is F^c, the
                # leading term, iff its last flat is F, and a chain iff each
                # flat lies in the next.
                if combo[-1] == mask or any(a & ~b for a, b in itertools.pairwise(combo)):
                    continue
                coeff = _multinomial(combo)
                child = _canon(itertools.chain(stripped, ((g, 1) for g in combo)))
                for idx, v in self._nf(child).items():
                    acc = result.get(idx, 0) - coeff * v
                    if acc:
                        result[idx] = acc
                    else:
                        result.pop(idx, None)
        if result:
            self._nf_memo[mono] = result
        return result

    def _check_flat(self, mask: int) -> None:
        if mask not in self.flat_rank:
            raise NotAFlat(f"{sorted(bits(mask))} is not a nonempty flat")

    @memoized
    def _chain_positions(self, deg: int) -> np.ndarray:
        """Row i: the lattice positions of the flats of the i-th nested monomial
        of degree ``deg``, padded to ``deg`` columns with 0, the empty flat."""
        index = self.lattice.index
        rows = [[index[f] for f, _ in mono] + [0] * (deg - len(mono)) for mono in self.nested[deg]]
        return np.array(rows, dtype=np.intp).reshape(len(rows), deg)

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

    @memoized
    def z_matrix(self, flat: int, deg: int) -> SparseMap:
        """Multiplication by z_flat as a map of nested z-coordinates, deg -> deg+1.

        The product with a nested monomial whose chain holds a flat
        incomparable with ``flat`` is zero, since z_F z_G for incomparable F
        and G generates the ideal (Feichtner-Yuzvinsky).  Those columns are
        one boolean product, the incomparability vector of ``flat`` over the
        lattice gathered through the chain positions of the degree, and
        never reach :meth:`_nf`.
        """
        self._check_flat(flat)
        masks = self.lattice.masks
        incomparable = (masks & ~flat != 0) & (masks & flat != flat)
        zero = incomparable[self._chain_positions(deg)].any(axis=1).tolist()
        columns = [
            {} if dead else self._nf(_canon(itertools.chain(mono, ((flat, 1),))))
            for mono, dead in zip(self.nested[deg], zero)
        ]
        return SparseMap.from_columns(len(self.nested[deg + 1]), columns)

    @memoized
    def h_matrix(self, flat: int, deg: int) -> SparseMap:
        """Multiplication by h_flat = -sum_{G >= flat} z_G in nested z-coordinates."""
        self._check_flat(flat)
        return self.divisor_matrix({g: -1 for g in self.supersets[flat]}, deg)

    def divisor_matrix(self, zcoeffs: dict[int, int], deg: int) -> SparseMap:
        """Multiplication by an integer z-divisor sum(c_F z_F), deg -> deg+1."""
        shape = (len(self.nested[deg + 1]), len(self.nested[deg]))
        terms = [(c, self.z_matrix(f, deg)) for f, c in zcoeffs.items() if c]
        return SparseMap.combination(shape, terms)

    @memoized
    def t_matrix(self, deg: int) -> np.ndarray:
        """Columns: nested z-coordinates of the nested h-basis monomials."""
        if deg == 0:
            return np.ones((1, 1), dtype=np.int64)
        below = self.t_matrix(deg - 1)

        def step(h: SparseMap, parents: list[int]) -> np.ndarray:
            return h.apply(below[:, parents])

        return self._by_last_flat(deg, deg - 1, step)

    def pairing(self, k: int, maps: Sequence[SparseMap] = ()) -> np.ndarray:
        """The integer matrix of int(b_i * m(b_j)), b_i over the nested h-basis
        of degree k, b_j over that of degree d - k - len(maps), and m the
        ``maps`` (of nested z-coordinates, deg -> deg+1) applied in turn.

        No maps give the Poincaré pairing, powers of one divisor its
        Hodge-Riemann form, and d maps at k = 0 the degree of their product."""
        if not 0 <= k <= self.d - len(maps):
            raise WrongGrade(f"degree {k} outside 0..{self.d - len(maps)}")
        cols = self.t_matrix(self.d - k - len(maps))
        for step in maps:
            cols = step.apply(cols)
        return imatmul(self._pairing_rows(k), cols)

    @memoized
    def _pairing_rows(self, k: int) -> np.ndarray:
        """Row i: the functional x -> int(b_i * x) on nested z-coordinates of
        degree d - k, for the nested h-basis monomials b_i of degree k."""
        if k == 0:
            return np.array([[(-1) ** self.d]], dtype=np.int64)
        above = self._pairing_rows(k - 1)

        def step(h: SparseMap, parents: list[int]) -> np.ndarray:
            # int(h_F b' x) = int(b' (h_F x)): the row of b' through the transposed h-map.
            return h.T.apply(above[parents].T)

        return self._by_last_flat(k, self.d - k, step).T

    def _by_last_flat(self, deg: int, map_deg: int, step) -> np.ndarray:
        """Column i: ``step(h, parents)`` for the nested monomial m_i = m' * h_F
        of degree ``deg``, with F its last flat, h the h-map of F at degree
        ``map_deg`` and m' the parent stored with the levels, one batch per F."""
        groups: dict[int, tuple[list[int], list[int]]] = {}
        for i, (mono, parent) in enumerate(zip(self.nested[deg], self._parents[deg])):
            members, parents = groups.setdefault(mono[-1][0], ([], []))
            members.append(i)
            parents.append(parent)
        order, blocks = [], []
        for mask, (members, parents) in groups.items():
            order.extend(members)
            blocks.append(step(self.h_matrix(mask, map_deg), parents))
        return np.concatenate(blocks, axis=1)[:, np.argsort(order)]

    @memoized
    def tinv_matrix(self, deg: int) -> np.ndarray:
        """Exact integer inverse of t_matrix, as a finite series.

        The basis change is triangular in lex order with diagonal (-1)^deg, so
        N = I - (-1)^deg T is nilpotent and T^-1 = (-1)^deg (I + N)(I + N^2)(I + N^4)...,
        up to the first zero power of N.  Powers of N have a zero diagonal, so
        adding I only fills it, and every other sum stays inside
        :func:`imatmul`'s exact dtype choice.  The product is re-checked
        against the identity.
        """
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
        return inv

    # -- element-level operations ---------------------------------------------

    def _walk(self, maps, flats: Sequence[int]) -> dict[int, int]:
        """Nested z-coordinates of a product of generators, as {index: Python
        int} over the nonzero ones: 1 pushed through ``maps(cl(flats[0]), 0)``,
        ``maps(cl(flats[1]), 1)``, ....  A step reads only the columns
        (:attr:`SparseMap._columns`) of the nonzero coordinates, which are few
        because a normal form touches only the nested monomials above one
        chain (Feichtner-Yuzvinsky); Python ints keep every step exact.  The
        walk stops at the first zero vector, so no later map (or closure) is
        built."""
        vec = {0: 1}
        for deg, f in enumerate(flats):
            if not vec:
                break
            columns = maps(f if f in self.flat_rank else self.matroid.closure(f), deg)._columns
            out: dict[int, int] = {}
            for col, x in vec.items():
                entries = columns[col]
                for i in range(0, len(entries), 2):
                    row = entries[i]
                    out[row] = out.get(row, 0) + x * entries[i + 1]
            vec = {row: v for row, v in out.items() if v}
        return vec

    def zcoords(self, e: ChowElement) -> tuple[int, list[Fraction]]:
        """(degree, nested z-coordinates) of a homogeneous element, none above
        the top degree: the sum of its terms' walks (:meth:`_walk`) through
        the h-maps in the h alphabet and the z-maps otherwise (x_F = z_F),
        each walk's nonzero coordinates times the term's coefficient.  Every
        variable must be a nonempty flat, and not E in the x alphabet."""
        for mask, _ in itertools.chain.from_iterable(e.terms):
            if mask not in self.flat_rank or e.alphabet == "x" and mask == self.matroid.full_mask:
                raise NotAFlat(f"variable {sorted(bits(mask))} not available in the {e.alphabet} alphabet")
        grade = e.grade() or 0
        if grade > self.d:
            return grade, []
        maps = self.h_matrix if e.alphabet == "h" else self.z_matrix
        out = [Fraction(0)] * len(self.nested[grade])
        for mono, coeff in e.terms.items():
            for i, v in self._walk(maps, [mask for mask, exp in mono for _ in range(exp)]).items():
                out[i] += coeff * v
        return grade, out

    def normal_form(self, e: ChowElement) -> ChowElement:
        """The representative supported on the nested basis (h alphabet): the
        z-coordinates, scaled to integers, through :meth:`tinv_matrix`."""
        grade, coords = self.zcoords(e)
        if grade > self.d:
            return ChowElement.zero("h")
        scale = math.lcm(*(c.denominator for c in coords))
        ints = [int(c * scale) for c in coords]
        col = np.array(ints, dtype=np.int64 if all(abs(v) < _INT64_SAFE for v in ints) else object)
        hcoords = imatmul(self.tinv_matrix(grade), col[:, None])[:, 0]
        return ChowElement("h", {mono: Fraction(int(c), scale) for mono, c in zip(self.nested[grade], hcoords) if c})

    def degree(self, e: ChowElement) -> Fraction:
        """The degree map on the top graded piece."""
        if not e.terms:
            return Fraction(0)
        grade, coords = self.zcoords(e)
        if grade != self.d:
            raise WrongGrade(f"element has grade {grade}, top degree is {self.d}")
        return coords[0] * (-1) ** self.d

    def h_monomial_degree(self, flats: Iterable[int]) -> Fraction:
        """Degree of a product of simplicial generators h_{A_1} ... h_{A_d}, A_i
        nonempty subsets of E: the one coordinate of the walk (:meth:`_walk`)
        through the h-maps of the closures cl(A_i), 0 when the walk ends
        empty."""
        flats = list(flats)
        if len(flats) != self.d:
            raise WrongGrade(f"need {self.d} factors, got {len(flats)}")
        self.matroid.check_members(flats)
        return Fraction(self._walk(self.h_matrix, flats).get(0, 0) * (-1) ** self.d)

    def poincare_pairing(self, k: int) -> list[list[Fraction]]:
        """Matrix of int(b_i * b_j) over nested degrees k and d-k (h basis)."""
        return [[Fraction(int(v)) for v in row] for row in self.pairing(k)]

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
