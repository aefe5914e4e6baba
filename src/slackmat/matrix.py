"""Exact dense rational linear algebra.

The API is `fractions.Fraction`-exact, so equality tests are literal.  The
loops run in Python ints, and Fractions are formed only where the API
returns them.  Products clear the denominators of each left row and each
right column once and sum integer products, one Fraction per entry.
Elimination is fraction-free on primitive int rows, so a caller that holds
ints (recognition eliminates [M | 1] once and reads its integer factors off
the result) clears nothing twice; `rank`, `solve_linear` and the kernels
read the integer echelon form directly, and only `rref` builds the Fraction
RREF.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

Vec = tuple[Fraction, ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dot: length mismatch %d vs %d" % (len(u), len(v)))
    (p, dp), (q, dq) = integer_vec(u), integer_vec(v)
    return Fraction(sum(map(mul, p, q)), dp * dq)


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction, u: Sequence[Fraction]) -> Vec:
    c = frac(c)
    return tuple(c * a for a in u)


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def integer_vec(u: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(ints, d) with u == ints / d; d > 0 is the lcm of the denominators."""
    dens = [x.denominator for x in u]
    d = lcm(*dens)
    return tuple([x.numerator * (d // e) for x, e in zip(u, dens)]), d


def primitive(u: Sequence[int]) -> tuple[int, ...]:
    """An int vector divided by the gcd of its entries; zero stays zero."""
    g = gcd(*u)
    return tuple(u) if g <= 1 else tuple(x // g for x in u)


def _products(u, vs) -> list[Fraction]:
    """u . v for each v, all given as (ints, d) pairs from `integer_vec`."""
    p, dp = u
    return [Fraction(sum(map(mul, p, q)), dp * dq) for q, dq in vs]


class Matrix:
    """Immutable dense matrix of exact rationals, row major.

    Empty matrices (0 rows and/or 0 columns) are legal; when there are no
    rows the column count must be given explicitly.
    """

    __slots__ = ("rows", "cols", "data", "__weakref__")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        rows = tuple(vec(r) for r in data)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != ncols:
                raise ValueError("cols=%d disagrees with row length %d" % (cols, ncols))
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            ncols = cols
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    @classmethod
    def _of(cls, rows: tuple[Vec, ...], cols: int) -> "Matrix":
        """A matrix of trusted rows: a tuple of Fraction tuples, each of
        length `cols`, taken as they are."""
        m = object.__new__(cls)
        object.__setattr__(m, "data", rows)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", cols)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zero(cls, p: int, q: int) -> "Matrix":
        return cls([[Fraction(0)] * q for _ in range(p)], cols=q)

    def row(self, i: int) -> Vec:
        return self.data[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.data)

    def columns(self) -> list[Vec]:
        return [self.col(j) for j in range(self.cols)]

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return "Matrix(%dx%d: %s)" % (self.rows, self.cols, body)

    def transpose(self) -> "Matrix":
        if self.rows == 0:
            return Matrix._of(((),) * self.cols, 0)
        return Matrix._of(tuple(zip(*self.data)), self.rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                "matmul: %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols)
            )
        if self.cols == 0:
            return Matrix.zero(self.rows, other.cols)
        right = [integer_vec(c) for c in zip(*other.data)]
        return Matrix._of(tuple(tuple(_products(integer_vec(r), right))
                                for r in self.data), other.cols)

    def matvec(self, x: Sequence[Fraction]) -> Vec:
        if len(x) != self.cols:
            raise ValueError("matvec: length mismatch")
        xv = integer_vec(x)
        return tuple(_products(xv, map(integer_vec, self.data)))

    def vecmat(self, y: Sequence[Fraction]) -> Vec:
        if len(y) != self.rows:
            raise ValueError("vecmat: length mismatch")
        if self.rows == 0:
            return (Fraction(0),) * self.cols
        return tuple(_products(integer_vec(y), map(integer_vec, zip(*self.data))))

    def is_nonnegative(self) -> bool:
        return all(x.numerator >= 0 for r in self.data for x in r)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("vstack: column mismatch")
        return Matrix._of(self.data + other.data, self.cols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix._of(
            tuple(tuple(self.data[i][j] for j in col_idx) for i in row_idx),
            len(col_idx))


def _cleared(rows: Iterable[Sequence[Fraction]]) -> list[tuple[int, ...]]:
    """Rational rows as primitive int rows: positive multiples of them."""
    return [primitive(integer_vec(r)[0]) for r in rows]


def _echelon(a: list[tuple[int, ...]], ncols: int):
    """Fraction-free Gauss-Jordan elimination of primitive int rows, in place.

    Returns (a, pivots): row i < len(pivots) of the RREF is a[i] divided by
    a[i][pivots[i]], and the remaining rows of a are zero.
    """
    # A positive scaling of a row leaves the RREF as it is, and so does any
    # nonzero scaling of a row that is eliminated against a pivot row.
    nrows = len(a)
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for i in range(pr, nrows):
            if a[i][pc] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[pr], a[pivot_row] = a[pivot_row], a[pr]
        prow = a[pr]
        pv = prow[pc]
        for i in range(nrows):
            f = a[i][pc]
            if i != pr and f != 0:
                a[i] = primitive([pv * x - f * y for x, y in zip(a[i], prow)])
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return a, tuple(pivots)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row-echelon form.

    Returns (reduced, pivot_columns, rank).  The RREF is unique, which makes
    every construction built on it deterministic.
    """
    a, pivots = _echelon(_cleared(m.data), m.cols)
    rk = len(pivots)
    out = tuple(tuple(Fraction(x, a[i][pc]) for x in a[i])
                for i, pc in enumerate(pivots))
    out += ((Fraction(0),) * m.cols,) * (m.rows - rk)
    return Matrix._of(out, m.cols), pivots, rk


def rank(m: Matrix) -> int:
    return len(_echelon(_cleared(m.data), m.cols)[1])


def right_kernel_basis(m: Matrix) -> list[Vec]:
    """Basis of { x : m x = 0 }, one vector per free column of the RREF."""
    return list(_kernel_basis(*_echelon(_cleared(m.data), m.cols), m.cols))


def _kernel_basis(a, pivots, ncols: int) -> Iterator[Vec]:
    """The right kernel basis read off an `_echelon` result, built lazily."""
    pivot_set = set(pivots)
    for f in (j for j in range(ncols) if j not in pivot_set):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            x[pc] = Fraction(-a[i][f], a[i][pc])
        yield tuple(x)


def left_kernel_basis(m: Matrix) -> list[Vec]:
    """Basis of { y : y^T m = 0 }; size equals rows - rank."""
    return right_kernel_basis(m.transpose())


def solve_linear(a: Matrix, b: Sequence[Fraction]) -> Vec | None:
    """Some exact solution of a x = b, or None if the system is inconsistent.

    The particular solution sets all free variables to zero, so the output is
    deterministic.
    """
    if len(b) != a.rows:
        raise ValueError("solve_linear: rhs length %d, expected %d" % (len(b), a.rows))
    n = a.cols
    aug, pivots = _echelon(_cleared(r + (x,) for r, x in zip(a.data, vec(b))), n + 1)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, pc in enumerate(pivots):
        x[pc] = Fraction(aug[i][n], aug[i][pc])
    return tuple(x)


def rank_factorization(m: Matrix) -> tuple[Matrix, Matrix]:
    """Exact factorization m = a b with inner dimension rank(m).

    Uses the pivot-column decomposition: a is the pivot columns of m, b the
    nonzero rows of the RREF.  Rank zero yields empty inner dimension.
    """
    r, pivots, rk = rref(m)
    a = m.submatrix(range(m.rows), pivots)
    b = Matrix._of(r.data[:rk], m.cols)
    return a, b


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises on singular input."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    aug = Matrix._of(tuple(r + unit(n, i) for i, r in enumerate(m.data)), 2 * n)
    r, pivots, rk = rref(aug)
    if rk < n or any(p >= n for p in pivots):
        raise ValueError("singular matrix")
    return r.submatrix(range(n), range(n, 2 * n))


def ones(n: int) -> Vec:
    return tuple(Fraction(1) for _ in range(n))


def unit(n: int, i: int) -> Vec:
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
