"""Independent brute-force oracles; deliberately dumber than the library."""

from fractions import Fraction as F
from itertools import combinations

import sympy

from slackmat import ConeRep, Matrix, canonical_ray, is_polytope_slack
from slackmat.lp import EQ, GE, OPTIMAL, con, lp_solve
from slackmat.matrix import (
    Vec,
    dot,
    is_zero_vec,
    rank,
    right_kernel_basis,
    unit,
    vscale,
    vsub,
)
from slackmat.polyhedra import _lineality_rref_basis, _project_off


def sympy_rank(m: Matrix) -> int:
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in m.data]).rank()


def brute_force_rays(normals, n):
    """Extreme rays of a pointed cone {x : b.x >= 0 for all b} by trying
    every (n-1)-subset of normals and keeping one-dimensional kernels whose
    sign-feasible direction satisfies everything."""
    rays = set()
    mats = [tuple(b) for b in normals]
    for subset in combinations(mats, n - 1):
        kern = right_kernel_basis(Matrix(subset, cols=n))
        if len(kern) != 1:
            continue
        for cand in (kern[0], tuple(-x for x in kern[0])):
            if all(dot(b, cand) >= 0 for b in mats):
                rays.add(canonical_ray(cand))
    # keep only extreme ones: tight normals must have rank n-1
    out = set()
    for r in rays:
        tight = [b for b in mats if dot(b, r) == 0]
        if sympy_rank(Matrix(tight, cols=n)) == n - 1:
            out.add(r)
    return out


def in_convex_hull(point, points):
    """Membership of a point in conv(points) by Caratheodory enumeration:
    the point is in the hull iff some affinely independent subset carries it
    with nonnegative barycentric coordinates (each a unique exact solve)."""
    n = len(point)
    pts = [tuple(F(x) for x in p) for p in points]
    target = sympy.Matrix([sympy.Rational(x) for x in point] + [1])
    for size in range(1, min(len(pts), n + 1) + 1):
        for subset in combinations(pts, size):
            a = sympy.Matrix(
                [[sympy.Rational(p[j]) for p in subset] for j in range(n)]
                + [[1] * size]
            )
            if a.rank() != size:
                continue  # affinely dependent
            sol = a.solve_least_squares(target)
            if a * sol == target and all(v >= 0 for v in sol):
                return True
    return False


def polar_scale_reference(m: Matrix):
    """Scale of the polar realization by the two-recognition route: None
    unless m and its transpose are both recognized as polytope slack
    matrices, else sum(y) for an LP solution y >= 0 of y m = 1."""
    if not (is_polytope_slack(m).verdict
            and is_polytope_slack(m.transpose()).verdict):
        return None
    p = m.rows
    constraints = [con(m.col(j), EQ, 1) for j in range(m.cols)]
    constraints += [con(unit(p, i), GE, 0) for i in range(p)]
    out = lp_solve([0] * p, constraints, sense="min")
    assert out.status == OPTIMAL
    return sum(out.point, F(0))


def dd_h_to_v_rank_reference(h: ConeRep) -> ConeRep:
    """Double description with the exact rank test for ray adjacency: a
    negative and a positive ray are adjacent iff the inserted rows tight on
    both have rank n - dim(lineality) - 2.  Same output contract as
    `dd_h_to_v`.

    Output rays are canonical, live in the orthogonal complement of the
    lineality space, and are sorted; the lineality basis is in RREF.
    """
    if h.form != "H":
        raise ValueError("expected H-form cone")
    n = h.ambient_dim
    lin: list[Vec] = [unit(n, i) for i in range(n)]
    rays: list[Vec] = []
    inserted: list[Vec] = []
    for b in h.vectors:
        vals = [dot(b, w) for w in lin]
        if any(x != 0 for x in vals):
            i0 = next(i for i, x in enumerate(vals) if x != 0)
            v0 = vscale(F(1) / vals[i0], lin[i0])  # b.v0 == 1
            lin = [
                vsub(w, vscale(dot(b, w), v0))
                for i, w in enumerate(lin)
                if i != i0
            ]
            rays = [vsub(r, vscale(dot(b, r), v0)) for r in rays]
            rays = [canonical_ray(r) for r in rays if not is_zero_vec(r)]
            rays.append(canonical_ray(v0))
        else:
            pos = [r for r in rays if dot(b, r) > 0]
            neg = [r for r in rays if dot(b, r) < 0]
            zero = [r for r in rays if dot(b, r) == 0]
            if neg:
                target = n - len(lin) - 2
                new_rays = pos + zero
                for rm in neg:
                    for rp in pos:
                        tight = [
                            a for a in inserted
                            if dot(a, rm) == 0 and dot(a, rp) == 0
                        ]
                        if rank(Matrix(tight, cols=n)) == target:
                            comb = vsub(
                                vscale(dot(b, rp), rm), vscale(dot(b, rm), rp)
                            )
                            new_rays.append(canonical_ray(comb))
                rays = new_rays
        inserted.append(b)
    lin_basis = _lineality_rref_basis(lin, n) if lin else ()
    out = []
    for r in rays:
        pr = _project_off(r, lin_basis)
        if not is_zero_vec(pr):
            out.append(canonical_ray(pr))
    out = sorted(set(out))
    return ConeRep("V", n, tuple(out), lin_basis)
