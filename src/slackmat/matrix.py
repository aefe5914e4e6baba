"""Exact dense rational linear algebra.

The API is `fractions.Fraction`-exact, so equality tests are literal.  The
loops run in Python ints: elimination clears each row's denominators once
and is fraction-free, keeping rows primitive by their gcd, and Fractions are
formed only for the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dot: length mismatch %d vs %d" % (len(u), len(v)))
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction, u: Sequence[Fraction]) -> Vec:
    c = frac(c)
    return tuple(c * a for a in u)


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def integer_vec(u: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(ints, d) with u == ints / d; d > 0 is the lcm of the denominators."""
    d = lcm(*(x.denominator for x in u))
    return tuple(x.numerator * (d // x.denominator) for x in u), d


def primitive(u: Sequence[int]) -> tuple[int, ...]:
    """An int vector divided by the gcd of its entries; zero stays zero."""
    g = gcd(*u)
    return tuple(u) if g <= 1 else tuple(x // g for x in u)


class Matrix:
    """Immutable dense matrix of exact rationals, row major.

    Empty matrices (0 rows and/or 0 columns) are legal; when there are no
    rows the column count must be given explicitly.
    """

    __slots__ = ("rows", "cols", "data")

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
            return Matrix([[] for _ in range(self.cols)] if self.cols else [], cols=0)
        return Matrix(zip(*self.data), cols=self.rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                "matmul: %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols)
            )
        cols = other.cols
        out = []
        for r in self.data:
            out.append([
                sum((r[k] * other.data[k][j] for k in range(self.cols)), Fraction(0))
                for j in range(cols)
            ])
        return Matrix(out, cols=cols)

    def matvec(self, x: Sequence[Fraction]) -> Vec:
        if len(x) != self.cols:
            raise ValueError("matvec: length mismatch")
        return tuple(dot(r, x) for r in self.data)

    def vecmat(self, y: Sequence[Fraction]) -> Vec:
        if len(y) != self.rows:
            raise ValueError("vecmat: length mismatch")
        return tuple(
            sum((y[i] * self.data[i][j] for i in range(self.rows)), Fraction(0))
            for j in range(self.cols)
        )

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for r in self.data for x in r)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("hstack: row mismatch")
        return Matrix(
            [self.data[i] + other.data[i] for i in range(self.rows)],
            cols=self.cols + other.cols,
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("vstack: column mismatch")
        return Matrix(self.data + other.data, cols=self.cols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix(
            [[self.data[i][j] for j in col_idx] for i in row_idx], cols=len(col_idx)
        )


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row-echelon form.

    Returns (reduced, pivot_columns, rank).  The RREF is unique, which makes
    every construction built on it deterministic.
    """
    # A positive scaling of a row leaves the RREF as it is, and so does any
    # nonzero scaling of a row that is eliminated against a pivot row.
    a = [primitive(integer_vec(r)[0]) for r in m.data]
    nrows, ncols = m.rows, m.cols
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
    out = [[Fraction(x, a[i][pc]) for x in a[i]] for i, pc in enumerate(pivots)]
    out += [[Fraction(0)] * ncols for _ in range(nrows - pr)]
    return Matrix(out, cols=ncols), tuple(pivots), pr


def rank(m: Matrix) -> int:
    return rref(m)[2]


def right_kernel_basis(m: Matrix) -> list[Vec]:
    """Basis of { x : m x = 0 }, one vector per free column of the RREF."""
    r, pivots, rk = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for f in free:
        x = [Fraction(0)] * m.cols
        x[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            x[pc] = -r.data[i][f]
        basis.append(tuple(x))
    return basis


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
    aug = a.hstack(Matrix([[x] for x in vec(b)], cols=1) if a.rows else Matrix([], cols=1))
    r, pivots, rk = rref(aug)
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for i, pc in enumerate(pivots):
        x[pc] = r.data[i][a.cols]
    return tuple(x)


def rank_factorization(m: Matrix) -> tuple[Matrix, Matrix]:
    """Exact factorization m = a b with inner dimension rank(m).

    Uses the pivot-column decomposition: a is the pivot columns of m, b the
    nonzero rows of the RREF.  Rank zero yields empty inner dimension.
    """
    r, pivots, rk = rref(m)
    a = m.submatrix(range(m.rows), pivots)
    b = Matrix([r.data[i] for i in range(rk)], cols=m.cols)
    return a, b


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises on singular input."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    aug = m.hstack(Matrix.identity(n))
    r, pivots, rk = rref(aug)
    if rk < n or any(p >= n for p in pivots):
        raise ValueError("singular matrix")
    return r.submatrix(range(n), range(n, 2 * n))


def ones(n: int) -> Vec:
    return tuple(Fraction(1) for _ in range(n))


def unit(n: int, i: int) -> Vec:
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
