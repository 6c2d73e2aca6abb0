"""Exact integer and rational linear algebra.

Everything here works over arbitrary-precision Python ints; no floating
point is used anywhere.  Vectors are plain tuples of ints, matrices are
immutable ``IntMatrix`` values acting on column vectors.  The module
provides Hermite and Smith normal forms with their unimodular transforms,
saturated kernels, sublattices with canonical HNF bases, and an exact solver
for monomial (torus character) equations.

One elimination, ``_hermite``, computes every Hermite normal form.  The
transform is carried as extra columns: ``hermite_normal_form`` reduces
[m | I] on m's columns and splits off U, while ``Sublattice.from_rows``
reduces the bare rows and builds no transform.  The vector leaves (``dot``,
``vec``, ``is_zero_vec``, ``primitive``) run inside builtins (``map``,
``sum``, ``any``, one ``math.gcd``), since every layer calls them.

Rank, rational span and ray reduction share one fraction-free elimination
(``_echelon`` and ``_clear``); inverses of unimodular matrices come from the
HNF transform.  ``fractions.Fraction`` appears only in torus coordinates:
monomial values, coset reduction and the torus equation solver.

A saturated kernel is one Hermite elimination; Smith normal forms serve only
quotient data, invariant factors and the torus equation solver.
``Sublattice.perp`` is memoised in ``_PERPS``, a ``WeakValueDictionary``
keyed by the input's ``(ambient, basis)``: while the result of one perp is
alive, an equal input gets that object back with no elimination.  The
memo holds its values weakly, so a lattice lives exactly as long as a caller
keeps it, and nothing stores a perp on its input: a lattice and its perp
that referred to each other would form a reference cycle, outlive the
computation that built them until a garbage collection, and let later work
reuse them or not depending on when the collector last ran.
"""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .frozen import Frozen

IntVec = tuple[int, ...]
FracVec = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# vector helpers


def vec(values: Iterable[int]) -> IntVec:
    return tuple(map(int, values))


def vec_sub(a: Sequence[int], b: Sequence[int]) -> IntVec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_neg(a: Sequence[int]) -> IntVec:
    return tuple(-x for x in a)


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ValueError(f"dot product of vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def is_zero_vec(a: Sequence[int]) -> bool:
    return not any(a)


def primitive(a: Sequence[int]) -> IntVec:
    """Divide out the (positive) gcd of the entries, keeping orientation."""
    g = gcd(*a)
    if g <= 1:
        return tuple(a)
    return tuple(x // g for x in a)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def bezout_2x2(a: int, b: int) -> tuple[int, int, int, int, int]:
    """Coefficients (g, x, y, p, q) of the unimodular 2x2 transform
    [[x, y], [-q, p]] sending (a, b) to (g, 0) with g = gcd(a, b) >= 0.

    When a divides b the transform is a plain elimination (y = 0), which
    keeps already-cleared companion entries clear in normal form loops.
    """
    if a != 0 and b % a == 0:
        s = 1 if a > 0 else -1
        return abs(a), s, 0, s, b // abs(a)
    g, x, y = xgcd(a, b)
    return g, x, y, a // g, b // g


# ---------------------------------------------------------------------------
# matrices


class IntMatrix(Frozen):
    """Immutable integer matrix, acting on column vectors: v -> M @ v.

    Semantically a homomorphism Z^ncols -> Z^nrows.
    """

    _fields = ("rows", "ncols")

    def __init__(self, rows: Iterable[Sequence[int]], ncols: int | None = None):
        rows_t = tuple(vec(r) for r in rows)
        if ncols is None:
            if not rows_t:
                raise ValueError("column count required for a matrix with no rows")
            ncols = len(rows_t[0])
        for r in rows_t:
            if len(r) != ncols:
                raise ValueError("inconsistent row lengths")
        object.__setattr__(self, "rows", rows_t)
        object.__setattr__(self, "ncols", ncols)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rows, self.ncols) == (other.rows, other.ncols)
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.ncols))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls(tuple((0,) * ncols for _ in range(nrows)), ncols)

    def column(self, j: int) -> IntVec:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> tuple[IntVec, ...]:
        return tuple(self.column(j) for j in range(self.ncols))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.columns(), self.nrows)

    def apply(self, v: Sequence[int]) -> IntVec:
        if len(v) != self.ncols:
            raise ValueError(f"expected vector of length {self.ncols}, got {len(v)}")
        return tuple(dot(r, v) for r in self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix dimensions do not match")
        cols = other.columns()
        return IntMatrix(
            tuple(tuple(dot(r, c) for c in cols) for r in self.rows), other.ncols
        )

    def rank(self) -> int:
        return rank_of_rows(self.rows)

    def inverse_unimodular(self) -> "IntMatrix":
        """Inverse of a unimodular matrix, exact and integral: the HNF
        transform U with U @ self == identity."""
        h, u = hermite_normal_form(self)
        if h != IntMatrix.identity(self.ncols):
            raise ValueError("matrix is not unimodular")
        return u


def _clear(v: list[int], echelon: Sequence[tuple[int, IntVec]]) -> list[int]:
    """Reduce v in integers against the (pivot, row) pairs of ``_echelon``:
    zero v at each pivot column in turn.  Every pivot entry is
    positive, so the result is a positive multiple of v minus a vector of
    the span, and a ray keeps its orientation."""
    for p, row in echelon:
        c = v[p]
        if c:
            a = row[p]
            g = gcd(a, c)
            a, c = a // g, c // g
            v = [a * x - c * y for x, y in zip(v, row)]
    return v


def _echelon(rows: Iterable[Sequence[int]]) -> list[tuple[int, IntVec]]:
    """Incremental integer echelon form of the rows' Q-span.

    Each kept row is primitive, has a positive entry at its pivot column and
    zeros at the pivot columns of the rows before it, so ``_clear`` applied
    in this order zeroes every pivot column.
    """
    out: list[tuple[int, IntVec]] = []
    for r in rows:
        w = _clear(list(r), out)
        p = next((j for j, x in enumerate(w) if x), None)
        if p is not None:
            out.append((p, primitive(w if w[p] > 0 else [-x for x in w])))
    return out


def rank_of_rows(rows: Sequence[Sequence[int]]) -> int:
    """Rank of a list of integer row vectors."""
    return len(_echelon(rows))


def reduce_mod_span(v: Sequence[int], echelon_rows: Sequence[Sequence[int]]) -> IntVec:
    """Canonical primitive representative of the ray v modulo the Q-span of
    the given rows (for rows in row echelon / HNF order, the pivots are the
    rows' own leading columns).

    Returns the zero vector when v lies in the span.  The representative has
    zeros in every pivot column, so it is unique up to positive scaling, and
    primitivity pins the scale.
    """
    return reduce_each_mod_span((v,), echelon_rows)[0]


def reduce_each_mod_span(vs: Iterable[IntVec], rows: Sequence[IntVec]) -> list[IntVec]:
    """``reduce_mod_span`` of each v, against one echelon form of the rows."""
    echelon = _echelon(rows)
    return [primitive(_clear(list(v), echelon)) for v in vs]


# ---------------------------------------------------------------------------
# normal forms


def _hermite(a: list[list[int]], c: int) -> None:
    """Bring the first c columns of the rows a to row-style Hermite normal
    form in place: row echelon form with positive pivots and entries above
    each pivot reduced into [0, pivot).  Every row operation acts on whole
    rows, so columns past c carry along whatever the caller appended (the
    identity, for the transform)."""
    r = len(a)
    piv_row = 0
    pivots: list[tuple[int, int]] = []
    for col in range(c):
        if piv_row >= r:
            break
        sel = next((i for i in range(piv_row, r) if a[i][col] != 0), None)
        if sel is None:
            continue
        a[piv_row], a[sel] = a[sel], a[piv_row]
        for i in range(piv_row + 1, r):
            if a[i][col] == 0:
                continue
            g, x, y, p, q = bezout_2x2(a[piv_row][col], a[i][col])
            a[piv_row], a[i] = (
                [x * s + y * t for s, t in zip(a[piv_row], a[i])],
                [-q * s + p * t for s, t in zip(a[piv_row], a[i])],
            )
        if a[piv_row][col] < 0:
            a[piv_row] = [-x for x in a[piv_row]]
        pivots.append((piv_row, col))
        piv_row += 1
    for prow, pcol in pivots:
        p = a[prow][pcol]
        for i in range(prow):
            q = a[i][pcol] // p
            if q != 0:
                a[i] = [s - q * t for s, t in zip(a[i], a[prow])]


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U @ m == H, H in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    U is carried as extra columns: ``_hermite`` reduces [m | I] on its first
    ``ncols`` columns, and the result splits into [H | U].
    """
    r, c = m.nrows, m.ncols
    a = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(m.rows)]
    _hermite(a, c)
    return IntMatrix([row[:c] for row in a], c), IntMatrix([row[c:] for row in a], r)


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (D, U, V) with U @ m @ V == D, U and V
    unimodular, D diagonal with nonnegative entries d1 | d2 | ...
    """
    r, c = m.nrows, m.ncols
    a = [list(row) for row in m.rows]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def row_op(i, j, g, x, y, p, q):
        a[i], a[j] = (
            [x * s + y * t for s, t in zip(a[i], a[j])],
            [-q * s + p * t for s, t in zip(a[i], a[j])],
        )
        u[i], u[j] = (
            [x * s + y * t for s, t in zip(u[i], u[j])],
            [-q * s + p * t for s, t in zip(u[i], u[j])],
        )

    def col_op(i, j, g, x, y, p, q):
        for row in a:
            row[i], row[j] = x * row[i] + y * row[j], -q * row[i] + p * row[j]
        for row in v:
            row[i], row[j] = x * row[i] + y * row[j], -q * row[i] + p * row[j]

    t = 0
    while t < min(r, c):
        # move an entry of minimal absolute value in the remaining block to (t, t)
        best = None
        for i in range(t, r):
            for j in range(t, c):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
            for row in v:
                row[t], row[bj] = row[bj], row[t]
        while True:
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    g, x, y, p, q = bezout_2x2(a[t][t], a[i][t])
                    row_op(t, i, g, x, y, p, q)
            for j in range(t + 1, c):
                if a[t][j] != 0:
                    g, x, y, p, q = bezout_2x2(a[t][t], a[t][j])
                    col_op(t, j, g, x, y, p, q)
            if all(a[i][t] == 0 for i in range(t + 1, r)) and all(
                a[t][j] == 0 for j in range(t + 1, c)
            ):
                # enforce divisibility of the remaining block by the pivot
                offender = None
                for i in range(t + 1, r):
                    for j in range(t + 1, c):
                        if a[i][j] % a[t][t] != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                a[t] = [s + w for s, w in zip(a[t], a[offender])]
                u[t] = [s + w for s, w in zip(u[t], u[offender])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return (
        IntMatrix(tuple(tuple(row) for row in a), c),
        IntMatrix(tuple(tuple(row) for row in u), r),
        IntMatrix(tuple(tuple(row) for row in v), c),
    )


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    d, _, _ = smith_normal_form(m)
    out = []
    for j in range(min(m.nrows, m.ncols)):
        if d.rows[j][j] == 0:
            break
        out.append(d.rows[j][j])
    return tuple(out)


# ---------------------------------------------------------------------------
# sublattices


class Sublattice(Frozen):
    """A sublattice of Z^n given by a canonical HNF row basis.

    The canonical basis makes equality structural; ``quotient`` data is
    derived lazily for saturated lattices and drives coset reduction of
    torus elements modulo the associated subtorus.
    """

    _fields = ("ambient", "basis")

    def __init__(self, ambient: int, basis: tuple[IntVec, ...]):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ambient, self.basis) == (other.ambient, other.basis)
        return NotImplemented

    def __hash__(self):
        return hash((self.ambient, self.basis))

    @classmethod
    def from_rows(cls, ambient: int, rows: Iterable[Sequence[int]]) -> "Sublattice":
        a = [list(map(int, r)) for r in rows]
        for r in a:
            if len(r) != ambient:
                raise ValueError("basis vector has wrong length")
        _hermite(a, ambient)
        return cls(ambient, tuple(tuple(r) for r in a if any(r)))

    @classmethod
    def zero(cls, ambient: int) -> "Sublattice":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> "Sublattice":
        return cls(ambient, IntMatrix.identity(ambient).rows)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def matrix(self) -> IntMatrix:
        return IntMatrix(self.basis, self.ambient)

    def saturate(self) -> "Sublattice":
        """Smallest saturated sublattice containing this one ((L^perp)^perp)."""
        if not self.basis:
            return self
        return self.perp().perp()

    def perp(self) -> "Sublattice":
        """The saturated lattice of integer vectors orthogonal to this one,
        one object per input while it is alive (see ``_PERPS``); a full-rank
        lattice's is zero with no elimination."""
        key = (self.ambient, self.basis)
        out = _PERPS.get(key)
        if out is None:
            if not self.basis:
                out = Sublattice.full(self.ambient)
            elif self.rank == self.ambient:
                out = Sublattice.zero(self.ambient)
            else:
                out = kernel_saturated(self.matrix())
            _PERPS[key] = out
        return out

    def __add__(self, other: "Sublattice") -> "Sublattice":
        if self.ambient != other.ambient:
            raise ValueError("ambient ranks differ")
        return Sublattice.from_rows(self.ambient, self.basis + other.basis)

    def reduce(self, v: Sequence[int]) -> IntVec:
        """Canonical representative of v modulo the lattice: floor division
        by each HNF pivot leaves the pivot columns in [0, pivot)."""
        work = list(vec(v))
        for row in self.basis:
            p = next(j for j, x in enumerate(row) if x != 0)
            q = work[p] // row[p]
            if q:
                work = [x - q * y for x, y in zip(work, row)]
        return tuple(work)

    def contains(self, v: Sequence[int]) -> bool:
        """Integral membership: v in the Z-span of the basis."""
        return is_zero_vec(self.reduce(v))

    # -- quotient structure (saturated lattices only) -----------------------

    @cached_property
    def _quotient_data(self) -> tuple[IntMatrix, IntMatrix]:
        """(V, W = V^-1) from the SNF of the basis; the first ``rank`` rows of
        W form a basis of the lattice and the rest complete it to Z^n."""
        v = IntMatrix.identity(self.ambient)
        if self.basis:
            d, _, v = smith_normal_form(self.matrix())
            if any(d.rows[i][i] != 1 for i in range(self.rank)):
                raise ValueError("quotient structure requires a saturated lattice")
        return v, v.inverse_unimodular()

    def quotient_matrix(self) -> IntMatrix:
        """The projection Z^n -> Z^n / L, in coordinates of Z^(n - rank),
        acting on column vectors."""
        v, _ = self._quotient_data
        return IntMatrix(tuple(v.column(l) for l in range(self.rank, self.ambient)),
                         self.ambient)

    def lift_matrix(self) -> IntMatrix:
        """n x (n - rank) matrix whose columns lift the unit vectors of
        Z^n / L to Z^n (a section of ``quotient_matrix``)."""
        _, w = self._quotient_data
        return IntMatrix(w.rows[self.rank:], self.ambient).transpose()

    def coset_reduce(self, t: Sequence[Fraction]) -> FracVec:
        """Canonical representative of t modulo the subtorus with cocharacter
        lattice L (requires L saturated)."""
        v, w = self._quotient_data
        if len(t) != self.ambient:
            raise ValueError("torus element has wrong rank")
        that = [monomial_value(v.column(l), t) for l in range(self.ambient)]
        for l in range(self.rank):
            that[l] = Fraction(1)
        return tuple(monomial_value(w.column(i), that) for i in range(self.ambient))

    def in_subtorus(self, t: Sequence[Fraction]) -> bool:
        """Is t in the subtorus with cocharacter lattice L (L saturated)?"""
        return all(x == 1 for x in self.coset_reduce(t))


# (ambient, basis) of a lattice -> its perp; values are held weakly
_PERPS: "weakref.WeakValueDictionary[tuple, Sublattice]" = weakref.WeakValueDictionary()


def kernel_saturated(m: IntMatrix) -> Sublattice:
    """The saturated kernel lattice {v : m @ v == 0}, by one Hermite
    elimination of [m^T | I] on all its columns: the rows whose m^T part
    vanishes come last, and their I part is the kernel's HNF basis."""
    k = m.nrows
    a = [list(col) + [int(i == j) for j in range(m.ncols)] for i, col in enumerate(m.columns())]
    _hermite(a, k + m.ncols)
    return Sublattice(m.ncols, tuple(tuple(row[k:]) for row in a if not any(row[:k])))


def _snf_kernel(d: IntMatrix, v: IntMatrix) -> Sublattice:
    """The saturated kernel of m read off U @ m @ V == D: the columns of V
    at the zero diagonal entries of D."""
    cols = [v.column(j) for j in range(v.ncols) if j >= d.nrows or d.rows[j][j] == 0]
    return Sublattice.from_rows(v.ncols, cols)


# ---------------------------------------------------------------------------
# monomial equation solving


def monomial_value(exponents: Sequence[int], values: Sequence[Fraction]) -> Fraction:
    """prod values[i] ** exponents[i], exact."""
    out = Fraction(1)
    for e, x in zip(exponents, values, strict=True):
        if e:
            out *= Fraction(x) ** e
    return out


def apply_exponent_matrix(m: IntMatrix, t: Sequence[Fraction]) -> FracVec:
    """The torus homomorphism attached to m: component j is prod t_i^m[j][i]."""
    return tuple(monomial_value(row, t) for row in m.rows)


def integer_nth_root(m: int, d: int) -> int | None:
    """Exact d-th root of m >= 0, or None when m is not a perfect power."""
    if m < 0:
        raise ValueError("negative radicand")
    if m in (0, 1) or d == 1:
        return m
    lo, hi = 0, 1
    while hi**d <= m:
        hi *= 2
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**d <= m:
            lo = mid
        else:
            hi = mid
    return lo if lo**d == m else None


_EVEN_NEGATIVE = object()


def _fraction_nth_root(q: Fraction, d: int):
    if q < 0 and d % 2 == 0:
        return _EVEN_NEGATIVE
    num = integer_nth_root(abs(q.numerator), d)
    den = integer_nth_root(q.denominator, d)
    if num is None or den is None:
        return None
    root = Fraction(num, den)
    return -root if q < 0 else root


class CosetSolution(Frozen):
    """Solutions of a monomial system: representative * T_kernel, possibly
    times finitely many sign twists (one per even invariant factor)."""

    _fields = ("representative", "kernel", "torsion")

    def __init__(self, representative: FracVec, kernel: Sublattice,
                 torsion: tuple[FracVec, ...] = ()):
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "torsion", torsion)


class NoRationalPoint(Frozen):
    """Solutions exist over a field extension, but none are rational.

    The defining data is kept so membership of candidates can still be
    tested exactly."""

    _fields = ("kernel", "exponents", "target")

    def __init__(self, kernel: Sublattice, exponents: IntMatrix, target: FracVec):
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "target", target)


class Inconsistent(Frozen):
    """The monomial system has no solutions at all."""

    _fields = ("reason",)

    def __init__(self, reason: str):
        object.__setattr__(self, "reason", reason)


def solve_torus_equation(
    m: IntMatrix, target: Sequence[Fraction]
) -> CosetSolution | NoRationalPoint | Inconsistent:
    """Solve prod_i s_i^m[j][i] == target[j] for all j, over the rational torus.

    Returns the full solution structure, a certified no-rational-point
    answer, or inconsistency.  Sign handling after SNF reduction: an
    equation w^d = q with d even and q < 0 has no rational (or real)
    solution and is reported Inconsistent; d even and q > 0 not a perfect
    d-th power yields NoRationalPoint.
    """
    q = tuple(Fraction(x) for x in target)
    if len(q) != m.nrows:
        raise ValueError("target length does not match row count")
    if any(x == 0 for x in q):
        raise ValueError("target entries must be nonzero")
    d, u, v = smith_normal_form(m)
    p = apply_exponent_matrix(u, q)
    w: list[Fraction] = [Fraction(1)] * m.ncols
    even_indices: list[int] = []
    for j in range(m.nrows):
        dj = d.rows[j][j] if j < m.ncols else 0
        if dj == 0:
            if p[j] != 1:
                return Inconsistent(f"equation 1 = {p[j]} after reduction")
            continue
        root = _fraction_nth_root(p[j], dj)
        if root is _EVEN_NEGATIVE:
            return Inconsistent(f"equation w^{dj} = {p[j]} with even exponent")
        if root is None:
            return NoRationalPoint(_snf_kernel(d, v), m, q)
        w[j] = root
        if dj % 2 == 0:
            even_indices.append(j)
    rep = tuple(monomial_value(v.rows[i], w) for i in range(m.ncols))
    torsion = tuple(
        tuple(Fraction(-1 if v.rows[i][j] % 2 else 1) for i in range(m.ncols))
        for j in even_indices
    )
    return CosetSolution(rep, _snf_kernel(d, v), torsion)


# ---------------------------------------------------------------------------
# misc


def lattice_points_in_box(lo: Sequence[int], hi: Sequence[int]):
    """Iterate integer points of the box prod [lo_i, hi_i], lexicographically."""
    ranges = [range(a, b + 1) for a, b in zip(lo, hi, strict=True)]
    return itertools.product(*ranges)
