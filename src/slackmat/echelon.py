"""The recognition record: M's spanning-forest normal form, its one
fraction-free elimination, and the two decisions read off it.

Both questions recognition asks of a nonnegative matrix M, the CCGC and
the polytope one, are unchanged by positive row and column scalings, so
they are decided on N = D1 M D2 for positive diagonals read off a spanning
forest of M's support (`_normal_form`), whose integers do not grow with
such scalings of M.  One elimination of [N | D1 1] (`_eliminate`) gives the
rank, A, B and the c with A c = 1, or shows that 1 is not in M's column
span: one record, `_Echelon`, that answers both questions at most once, on
ints, and states every answer, NO certificates included, in M's
coordinates.  `_cone_match` is the one ray match that recognition and the
YES-certificate checker share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional

from .matrix import Matrix, Vec, _echelon, _kernel_basis, integer_vec, primitive
from .polyhedra import _dd, canonical_ray

UNMATCHED_RAY = "unmatched_ray"
ONES_NOT_IN_SPAN = "ones_not_in_span"
RANK_TOO_SMALL = "rank_too_small"


@dataclass(frozen=True)
class NoCertificate:
    """Witness refuting the slack-matrix claim.

    reason UNMATCHED_RAY: `witness` lies in the relevant span intersected
    with the nonnegative orthant while `separator` is nonnegative on every
    generator of the claimed cone and negative on the witness.  The
    convention names those generators, rows or columns (rows: from B's side).

    reason ONES_NOT_IN_SPAN: `witness` annihilates the matrix from the left
    but not the all-ones vector, so no polytope realization exists.

    reason RANK_TOO_SMALL: rank below two never comes from a polytope.
    """

    reason: str
    convention: str = "column"
    witness: Optional[Vec] = None
    separator: Optional[Vec] = None


@dataclass(frozen=True)
class _Echelon:
    """One fraction-free elimination of [N | r], for N = D1 M D2 with
    positive diagonals D1 and D2 and r = D1 1, which decides M's CCGC
    (`unmatched`) and its polytope question (`polytope_no`) at most once.

    N has M's pivots and rank, 1 is in M's column span iff r is in N's, and
    with A_N c = r the c of M is D2 c over the pivots; RREF(M)[i][j] is
    d2[p_i] RREF(N)[i][j] / d2[j].  Every answer is read off in N's ints
    and stated in M's coordinates, so it does not depend on D1 and D2.
    """

    rows: tuple  # N in ints: M[i][j] is rows[i][j] / (d1[i] d2[j])
    d1: tuple  # positive rationals as (numerator, denominator), one per row
    d2: tuple  # and one per column
    pivots: tuple  # the pivot columns of M and of N
    b: tuple  # RREF(N), less its zero rows, is b / den in ints
    c: Optional[tuple]  # A_N c = cden r; None if r is not in the span
    den: int
    cden: int

    def in_m(self, rows, d: int, scales) -> tuple:
        """Int rows over d in N's columns, row k of them times scales[k] (a
        (numerator, denominator) pair), as M's Fraction rows: entry x
        becomes x scales[k] / (d d2[j])."""
        out = []
        for row, (sn, sd) in zip(rows, scales):
            sd *= d
            out.append(tuple([Fraction(x * sn * v, sd * u)
                              for x, (u, v) in zip(row, self.d2)]))
        return tuple(out)

    @cached_property
    def unmatched(self) -> Optional[NoCertificate]:
        """The CCGC of M = A B: None, or the certificate refuting it."""
        # A is injective and B onto, so either side's cone is pointed.
        a = [[row[j] for j in self.pivots] for row in self.rows]
        bt = list(zip(*self.b))
        side, _, rays = _cone_match(a, bt, len(self.pivots))
        if not rays:
            return None
        # Rays map to M's by positive diagonals, y_M = D2 y on the pivots and
        # z_M = z / D2 there, so the witness is the first in canonical order
        # in M's coordinates: x = A_M y_M = A_N y / D1 or z_M B_M = z B_N / D2.
        # M's columns are N's over D1 and its rows N's over D2, each up to a
        # positive scale, which leaves the separator as it is.
        piv = [self.d2[j] for j in self.pivots]
        if side == "column":
            to_m, f, w, gens = piv, a, self.d1, zip(*self.rows)
        else:
            to_m, f, w, gens = _inverses(piv), bt, self.d2, self.rows
        to_m, w = _over_lcm(to_m)[0], _over_lcm(_inverses(w))[0]
        y = min(rays, key=lambda y: canonical_ray(list(map(mul, to_m, y))))
        x = canonical_ray([wi * sum(map(mul, v, y)) for wi, v in zip(w, f)])
        gens = (list(map(mul, w, g)) for g in gens)
        return NoCertificate(UNMATCHED_RAY, side, x, _separator(gens, x))

    @cached_property
    def polytope_no(self) -> Optional[NoCertificate]:
        """M's polytope NO certificate, or None; the CCGC is decided last."""
        if len(self.pivots) < 2:
            return NoCertificate(RANK_TOO_SMALL)
        if self.c is None:
            # z A_N = 0 iff (z D1) A_M = 0.  The rows of A_N^T are N's pivot
            # columns; the kernel vector of free f, times D1 over d1[f], is
            # the one A_M^T's elimination gives, which is 1 at f.
            p = len(self.rows)
            at = [primitive([row[j] for row in self.rows]) for j in self.pivots]
            ech, piv = _echelon(at, p)
            free = (f for f in range(p) if f not in piv)
            z = next(z for z in (_times(v, self.d1, self.d1[f])
                                 for f, v in zip(free, _kernel_basis(ech, piv, p)))
                     if sum(z) != 0)
            return NoCertificate(ONES_NOT_IN_SPAN, witness=z)
        return self.unmatched


def _over_lcm(pairs) -> tuple[list[int], int]:
    """(ints, den) with n / d = ints / den for (n, d) pairs, d > 0."""
    den = lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _inverses(pairs) -> list[tuple[int, int]]:
    return [(d, n) for n, d in pairs]


def _times(v: Vec, pairs, over) -> Vec:
    """v with entry k times pairs[k] / over, rationals given as (n, d)."""
    u, w = over
    return tuple(x * Fraction(n * w, d * u) for x, (n, d) in zip(v, pairs))


def _cone_match(rows, cols, k: int) -> tuple[str, list, list]:
    """(side, lin, rays): cone(cols) = {y : rows.y >= 0} iff {x : x.cols >= 0}
    = cone(rows), so one DD runs on the side with fewer distinct nonzero
    primitive vectors, "column" on rows (on a tie) or "row" on cols; rays
    are its extreme rays that are no positive multiple of the other side's."""
    rows, cols = ({primitive(v): None for v in vs if any(v)} for vs in (rows, cols))
    side, rows, cols = (("column", rows, cols) if len(rows) <= len(cols)
                        else ("row", cols, rows))
    rays, lin = _dd(list(rows), k)
    return side, lin, [y for y, _ in rays if y not in cols]


def _eliminate(n, d1, d2) -> _Echelon:
    """The elimination of [N | r] for N = D1 M D2, given as int rows, and
    r = D1 1: the one column that takes D1's large entries."""
    q = len(d2)
    r, rden = _over_lcm(d1)
    ech, pivots = _echelon([primitive(row + (x,)) for row, x in zip(n, r)], q + 1)
    spans = q not in pivots
    pivots = pivots if spans else pivots[:-1]
    # Row i of RREF(N) is ech[i][:q] / ech[i][pivots[i]]: ints over the lcm,
    # each row made primitive first, so that b and den are N's alone.
    g = [gcd(*row[:q]) for row in ech[:len(pivots)]]
    den = lcm(*(row[pc] // gi for row, pc, gi in zip(ech, pivots, g)))
    lg = lcm(*g)
    b, c = [], []
    for row, pc, gi in zip(ech, pivots, g):
        f = den // (row[pc] // gi)
        b.append(tuple([x // gi * f for x in row[:q]]))
        c.append(row[q] * f * (lg // gi))
    return _Echelon(tuple(n), tuple(d1), tuple(d2), pivots, tuple(b),
                    tuple(c) if spans else None, den, den * lg * rden)


def _normal_form(m: Matrix) -> tuple[list, list, list]:
    """(N, d1, d2) with N = D1 M D2 in primitive int rows, for positive
    diagonals read off a BFS spanning forest of M's bipartite support graph:
    before its rows are cleared, N is 1 on every forest edge.  So N is the
    same for M and for any positive row and column scaling of M.  O(nonzeros)
    int arithmetic, with one rational per row and one per column, each a
    (numerator, denominator) pair."""
    p, q = m.rows, m.cols
    rows = [[(j, *x.as_integer_ratio()) for j, x in enumerate(r) if x]
            for r in m.data]
    cols = [[] for _ in range(q)]
    for i, r in enumerate(rows):
        for j, a, b in r:
            cols[j].append((i, a, b))
    # d1[i] d2[j] M[i][j] = 1 on each forest edge, as (numerator, denominator).
    d1, d2 = [None] * p, [None] * q
    for root in range(p):
        if d1[root] is None:
            d1[root], queue = (1, 1), [root]
            for i in queue:
                u, w = d1[i]
                for j, a, b in rows[i]:
                    if d2[j] is None:
                        d2[j] = s, t = _reduced(w * b, u * a)
                        for k, a, b in cols[j]:
                            if d1[k] is None:
                                d1[k] = _reduced(t * b, s * a)
                                queue.append(k)
    d2 = [(1, 1) if t is None else t for t in d2]
    # Row i of M D2 is row i of that N over d1[i]; it is cleared as it stands.
    n, scale = [], []
    for r in rows:
        nums = [0] * q
        dens = []
        for j, a, b in r:
            s, t = d2[j]
            x, y = a * s, b * t
            g = gcd(x, y)
            nums[j] = x // g
            dens.append(y // g)
        lr = lcm(*dens)
        for (j, _, _), y in zip(r, dens):
            nums[j] *= lr // y
        g = gcd(*nums) or 1
        n.append(tuple([x // g for x in nums]))
        scale.append(_reduced(lr, g))
    return n, scale, d2


def _reduced(x: int, y: int) -> tuple[int, int]:
    g = gcd(x, y)
    return x // g, y // g


def _separator(gens, x: Vec) -> Vec:
    """h = t - eps x, nonnegative on the generators and negative on x.

    t indicates the zero set of the unmatched extreme ray x; a nonzero
    generator g with t . g = 0 would be a multiple of x, so eps > 0 exists.
    """
    # With x = p / d and a generator scaled to ints C, t.g / x.g is
    # d (t.C) / (p.C), whatever the scale; eps = d en / ed is the least, or 1.
    p, d = integer_vec(x)
    least = None
    for c in gens:
        s = sum(map(mul, p, c))
        if s > 0:
            t = sum(y for y, pi in zip(c, p) if pi == 0)
            if least is None or t * least[1] < least[0] * s:
                least = (t, s)
    en, ed = least or (1, d)
    return tuple(Fraction(ed * (pi == 0) - en * pi, ed) for pi in p)
