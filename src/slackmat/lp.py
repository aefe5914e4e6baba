"""Exact rational linear programming via two-phase tableau simplex.

Bland's pivoting rule guarantees termination; all arithmetic stays in
`Fraction`, so optima and infeasibility certificates are exact.  Intended for
desk-scale systems (tens of variables), which is all the recognition
pipeline ever needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .matrix import Vec, dot, frac, vec

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE = "<="
GE = ">="
EQ = "=="


@dataclass(frozen=True)
class Constraint:
    """Linear constraint  coeffs . x  (rel)  rhs  over free variables."""

    coeffs: Vec
    rel: str
    rhs: Fraction

    def __post_init__(self):
        if self.rel not in (LE, GE, EQ):
            raise ValueError("bad relation %r" % (self.rel,))
        object.__setattr__(self, "coeffs", vec(self.coeffs))
        object.__setattr__(self, "rhs", frac(self.rhs))


@dataclass(frozen=True)
class LpOutcome:
    """Result of an exact LP solve.

    For OPTIMAL, `point` and `value` are exact.  For INFEASIBLE, `farkas`
    holds one multiplier per constraint: nonnegative on <= rows, nonpositive
    on >= rows, free on == rows, with  sum t_i a_i = 0  and  sum t_i b_i < 0.
    """

    status: str
    point: Optional[Vec] = None
    value: Optional[Fraction] = None
    farkas: Optional[Vec] = None


def check_farkas(constraints: Sequence[Constraint], t: Sequence[Fraction]) -> bool:
    """Verify an infeasibility certificate by pure arithmetic."""
    if len(t) != len(constraints):
        return False
    n = len(constraints[0].coeffs) if constraints else 0
    for ci, ti in zip(constraints, t):
        if ci.rel == LE and ti < 0:
            return False
        if ci.rel == GE and ti > 0:
            return False
    combo = [Fraction(0)] * n
    rhs = Fraction(0)
    for ci, ti in zip(constraints, t):
        for k in range(n):
            combo[k] += ti * ci.coeffs[k]
        rhs += ti * ci.rhs
    return all(x == 0 for x in combo) and rhs < 0


def _pivot(tab: list[list[Fraction]], obj: list[Fraction], r: int, j: int,
           basis: list[int]) -> None:
    # Every other row, and the objective, changes only on the pivot row's
    # nonzero columns: most of a row lies in the slack and artificial
    # identity blocks, where the pivot row is zero.
    pv = tab[r][j]
    prow = tab[r] = [x / pv for x in tab[r]]
    support = [k for k, y in enumerate(prow) if y]
    for row in (*tab, obj):
        f = row[j]
        if f and row is not prow:
            for k in support:
                row[k] -= f * prow[k]
    basis[r] = j


def _simplex(tab: list[list[Fraction]], obj: list[Fraction], basis: list[int]) -> str:
    """Minimize; `obj` is the reduced-cost row (last entry = -value)."""
    while True:
        enter = next((j for j, x in enumerate(obj[:-1]) if x < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i, row in enumerate(tab):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(tab, obj, leave, enter, basis)


def lp_solve(objective: Sequence, constraints: Sequence[Constraint],
             sense: str = "max") -> LpOutcome:
    """Exact optimum of a rational LP over free variables.

    Variables are unrestricted; bounds must be stated as constraints.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    c = vec(objective)
    n = len(c)
    m = len(constraints)
    for ci in constraints:
        if len(ci.coeffs) != n:
            raise ValueError("constraint arity mismatch")

    # Standard form: x = u - v with u, v >= 0, one slack per inequality.
    n_slack = sum(1 for ci in constraints if ci.rel != EQ)
    nstruct = 2 * n + n_slack
    ncols = nstruct + m  # artificials at the end
    sigma: list[int] = []
    tab: list[list[Fraction]] = []
    # Phase 1 minimizes the sum of artificials; its reduced costs are that
    # cost less the sum of the rows, each summed over its own nonzeros: x,
    # its slack and the rhs (an artificial's cost and entry cancel).
    obj = [Fraction(0)] * (ncols + 1)
    slack_pos = 0
    for i, ci in enumerate(constraints):
        s = -1 if ci.rhs < 0 else 1
        sigma.append(s)
        a = [s * x for x in ci.coeffs]
        rel = ci.rel if s == 1 else {LE: GE, GE: LE, EQ: EQ}[ci.rel]
        row = [Fraction(0)] * (ncols + 1)
        for k in range(n):
            row[k] = a[k]
            row[n + k] = -a[k]
        support = [*range(2 * n), ncols]
        if ci.rel != EQ:
            row[2 * n + slack_pos] = Fraction(1) if rel == LE else Fraction(-1)
            support.append(2 * n + slack_pos)
            slack_pos += 1
        row[nstruct + i] = Fraction(1)
        row[-1] = s * ci.rhs
        tab.append(row)
        for k in support:
            obj[k] -= row[k]
    basis = [nstruct + i for i in range(m)]

    _simplex(tab, obj, basis)
    if -obj[-1] > 0:
        # y_i = 1 - reduced cost of artificial i; map back to the input rows.
        y = [Fraction(1) - obj[nstruct + i] for i in range(m)]
        t = vec([-yi * si for yi, si in zip(y, sigma)])
        return LpOutcome(INFEASIBLE, farkas=t)

    # Drive leftover artificials out of the basis; redundant rows get dropped.
    drop: list[int] = []
    for r in range(m):
        if basis[r] >= nstruct:
            piv = next((j for j in range(nstruct) if tab[r][j] != 0), None)
            if piv is None:
                drop.append(r)
            else:
                _pivot(tab, obj, r, piv, basis)
    for r in reversed(drop):
        del tab[r]
        del basis[r]

    # Phase 2, on the structural columns: no artificial is basic any more.
    tab = [row[:nstruct] + row[-1:] for row in tab]
    sign = Fraction(-1) if sense == "max" else Fraction(1)
    cost2 = [Fraction(0)] * (nstruct + 1)
    for k in range(n):
        cost2[k] = sign * c[k]
        cost2[n + k] = -sign * c[k]
    obj = cost2[:]
    for r, bi in enumerate(basis):
        if cost2[bi] != 0:
            f = cost2[bi]
            obj = [x - f * y for x, y in zip(obj, tab[r])]
    if _simplex(tab, obj, basis) == UNBOUNDED:
        return LpOutcome(UNBOUNDED)
    z = [Fraction(0)] * nstruct
    for r, bi in enumerate(basis):
        z[bi] = tab[r][-1]
    point = vec([z[k] - z[n + k] for k in range(n)])
    value = dot(point, c)
    return LpOutcome(OPTIMAL, point=point, value=value)


def satisfies(constraints: Sequence[Constraint], x: Sequence[Fraction]) -> bool:
    for ci in constraints:
        lhs = dot(ci.coeffs, x)
        if ci.rel == LE and lhs > ci.rhs:
            return False
        if ci.rel == GE and lhs < ci.rhs:
            return False
        if ci.rel == EQ and lhs != ci.rhs:
            return False
    return True
