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
nested monomials.  All arithmetic is integer or rational; matrices are int64
with guarded magnitudes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

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


def imatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer matmul; picks the fastest representation that cannot lose."""
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    ma = int(np.abs(a).max()) if a.dtype != object else max(abs(int(v)) for v in a.flat)
    mb = int(np.abs(b).max()) if b.dtype != object else max(abs(int(v)) for v in b.flat)
    bound = a.shape[1] * ma * mb
    if a.dtype == object or b.dtype == object or bound >= _INT64_SAFE:
        return a.astype(object) @ b.astype(object)
    if bound < _FLOAT_EXACT:
        return np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return a.astype(np.int64) @ b.astype(np.int64)


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
        # FlatOrder: descending rank, ties by ascending bitmask.  Later
        # positions are the lex-larger variables.
        self.flat_order = sorted(self.flats_nonempty, key=lambda f: (-self.flat_rank[f], f))
        self.flat_position = {f: i for i, f in enumerate(self.flat_order)}
        self.nested: list[list[Monomial]] = self._enumerate_nested()
        self.nested_index: list[dict[Monomial, int]] = [
            {mono: i for i, mono in enumerate(level)} for level in self.nested
        ]
        self._nf_memo: dict[Monomial, dict[int, int]] = {}
        self._zmat: dict[tuple[int, int], np.ndarray] = {}
        self._hmat: dict[tuple[int, int], np.ndarray] = {}
        self._t: dict[int, np.ndarray] = {}
        self._tinv: dict[int, np.ndarray] = {}
        self._check_degree_normalization()

    # -- nested basis --------------------------------------------------------

    def _enumerate_nested(self) -> list[list[Monomial]]:
        levels: list[list[Monomial]] = [[] for _ in range(self.d + 1)]

        def extend(prefix: Monomial, last_flat: int, last_rank: int, total: int) -> None:
            levels[total].append(prefix)
            for f in self.flats_nonempty:
                if last_flat and (last_flat & ~f or f == last_flat):
                    continue
                gap = self.flat_rank[f] - last_rank
                for a in range(1, min(gap - 1, self.d - total) + 1):
                    extend(prefix + ((f, a),), f, self.flat_rank[f], total + a)

        extend((), 0, 0, 0)
        for level in levels:
            level.sort()
        return levels

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
        chain = []
        current = 0
        for r in range(1, self.d + 1):
            current = next(
                f for f in self.flats_nonempty if self.flat_rank[f] == r and current & ~f == 0
            )
            chain.append(current)
        nf = self._nf(_canon((f, 1) for f in chain))
        if nf != {0: (-1) ** self.d}:
            raise InvariantViolation("degree normalization failed")

    # -- matrices -------------------------------------------------------------

    def z_matrix(self, flat: int, deg: int) -> np.ndarray:
        """Multiplication by z_flat as a map of nested z-coordinates, deg -> deg+1."""
        key = (flat, deg)
        cached = self._zmat.get(key)
        if cached is None:
            rows, cols = len(self.nested[deg + 1]), len(self.nested[deg])
            mat = np.zeros((rows, cols), dtype=np.int64)
            for col, mono in enumerate(self.nested[deg]):
                for idx, v in self._nf(_canon(itertools.chain(mono, ((flat, 1),)))).items():
                    if abs(v) >= _INT64_SAFE:
                        raise InvariantViolation(f"z-matrix entry {v} does not fit in int64")
                    mat[idx, col] = v
            cached = mat
            self._zmat[key] = cached
        return cached

    def h_matrix(self, flat: int, deg: int) -> np.ndarray:
        """Multiplication by h_flat = -sum_{G >= flat} z_G in nested z-coordinates."""
        key = (flat, deg)
        cached = self._hmat.get(key)
        if cached is None:
            rows, cols = len(self.nested[deg + 1]), len(self.nested[deg])
            mat = np.zeros((rows, cols), dtype=np.int64)
            for g in self.supersets[flat]:
                mat -= self.z_matrix(g, deg)
            cached = mat
            self._hmat[key] = cached
        return cached

    def divisor_matrix(self, zcoeffs: dict[int, int], deg: int) -> np.ndarray:
        """Multiplication by an integer z-divisor sum(c_F z_F)."""
        rows, cols = len(self.nested[deg + 1]), len(self.nested[deg])
        bound = sum(
            abs(c) * int(np.abs(self.z_matrix(f, deg)).max() or 0)
            for f, c in zcoeffs.items()
            if c
        )
        mat = np.zeros((rows, cols), dtype=np.int64 if bound < _INT64_SAFE else object)
        for f, c in zcoeffs.items():
            if c:
                mat = mat + c * self.z_matrix(f, deg).astype(mat.dtype)
        return mat

    def t_matrix(self, deg: int) -> np.ndarray:
        """Columns: nested z-coordinates of the nested h-basis monomials."""
        cached = self._t.get(deg)
        if cached is None:
            cols = [self._h_monomial_zcoords(mono) for mono in self.nested[deg]]
            cached = np.stack(cols, axis=1) if cols else np.zeros((0, 0), dtype=np.int64)
            self._t[deg] = cached
        return cached

    def _h_monomial_zcoords(self, mono: Monomial) -> np.ndarray:
        if not mono:
            return np.ones(1, dtype=np.int64)
        mask, exp = mono[-1]
        parent = _canon(itertools.chain(mono[:-1], ((mask, exp - 1),)))
        deg = sum(e for _, e in parent)
        return imatmul(self.h_matrix(mask, deg), self._h_monomial_zcoords(parent)[:, None])[:, 0]

    def tinv_matrix(self, deg: int) -> np.ndarray:
        """Exact integer inverse of t_matrix, via the lex-triangular structure.

        In lex-descending monomial order the basis change is triangular with
        diagonal (-1)^deg, so forward substitution inverts it over the
        integers, one row of the inverse at a time for all columns at once;
        the product is re-checked against the identity.
        """
        cached = self._tinv.get(deg)
        if cached is None:
            t = self.t_matrix(deg)
            n = t.shape[0]
            order = sorted(range(n), key=lambda i: self._lex_key(self.nested[deg][i]), reverse=True)
            tobj = t.astype(object)
            inv = np.eye(n, dtype=int).astype(object)
            for p, j in enumerate(order):
                diag = int(tobj[j, j])
                if diag not in (1, -1):
                    raise InvariantViolation("basis change is not unitriangular")
                earlier = order[:p]
                inv[j] = (inv[j] - tobj[j, earlier].dot(inv[earlier])) * diag
            check = imatmul(t, inv)
            ident = np.eye(n, dtype=object)
            if not (check == ident).all():
                raise InvariantViolation("triangular inverse failed")
            cached = inv
            self._tinv[deg] = cached
        return cached

    def _lex_key(self, mono: Monomial) -> tuple[int, ...]:
        """Exponent vector read from the lex-greatest variable down."""
        expo = dict(mono)
        ordered = sorted(self.flats_nonempty, key=lambda f: self.flat_position[f], reverse=True)
        return tuple(expo.get(f, 0) for f in ordered)

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
        """Degree of a product of simplicial generators, via Groebner reduction."""
        flats = list(flats)
        if len(flats) != self.d:
            raise WrongGrade(f"need {self.d} factors, got {len(flats)}")
        vec = np.ones(1, dtype=np.int64)
        for deg, f in enumerate(flats):
            cl = self.matroid.closure(f)
            vec = imatmul(self.h_matrix(cl, deg), vec[:, None])[:, 0]
            if not vec.any():
                return Fraction(0)
        return Fraction(int(vec[0]) * (-1) ** self.d)

    def poincare_pairing(self, k: int) -> list[list[Fraction]]:
        """Matrix of int(b_i * b_j) over nested degrees k and d-k (h basis)."""
        if not 0 <= k <= self.d:
            raise WrongGrade(f"degree {k} outside 0..{self.d}")
        rows = []
        for mono in self.nested[k]:
            w = np.array([(-1) ** self.d], dtype=np.int64)[None, :]
            cur = self.d
            for mask, exp in reversed(mono):
                for _ in range(exp):
                    w = imatmul(w, self.h_matrix(mask, cur - 1))
                    cur -= 1
            rows.append(w[0])
        t = self.t_matrix(self.d - k)
        prod = imatmul(np.stack(rows, axis=0), t)
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

    def sample_ample(self) -> AmpleDivisor:
        """The canonical strictly submodular divisor c_S = |S| * |E \\ S|."""
        n = self.matroid.n_elements
        proper = [f for f in self.flats_nonempty if f != self.matroid.full_mask]
        x_form = ChowElement(
            "x",
            {_canon([(f, 1)]): Fraction(popcount(f) * (n - popcount(f))) for f in proper},
        )
        return AmpleDivisor(x_form, self.normal_form(x_form))


def _multinomial(combo: tuple[int, ...]) -> int:
    counts: dict[int, int] = {}
    for g in combo:
        counts[g] = counts.get(g, 0) + 1
    total = len(combo)
    result = 1
    remaining = total
    for c in counts.values():
        result *= _binom(remaining, c)
        remaining -= c
    return result


def _binom(n: int, k: int) -> int:
    num = 1
    for i in range(k):
        num = num * (n - i) // (i + 1)
    return num


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
