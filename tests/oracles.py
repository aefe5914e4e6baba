"""Independent brute-force oracles; deliberately dumber than the library."""

from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

import sympy

from slackmat import (
    ConeRep,
    Matrix,
    PolytopeRep,
    canonical_ray,
    is_polytope_slack,
    slack_of_polytope,
)
from slackmat.lp import EQ, GE, LE, OPTIMAL, Constraint, lp_solve
from slackmat.matrix import (
    Vec,
    dot,
    integer_vec,
    inverse,
    is_zero_vec,
    left_kernel_basis,
    ones,
    primitive,
    rank,
    rank_factorization,
    right_kernel_basis,
    rref,
    solve_linear,
    unit,
    vscale,
    vsub,
)
from slackmat.polyhedra import dd_h_to_v, dimension
from slackmat.recognition import (
    KIND_CONE,
    KIND_POLYTOPE,
    ONES_NOT_IN_SPAN,
    RANK_TOO_SMALL,
    UNMATCHED_RAY,
    NoCertificate,
    RecognitionResult,
    YesCertificate,
)
from slackmat.verification import (
    DIM_MISMATCH,
    EQUAL,
    NOT_POINTED,
    SLACK_REJECT,
    VerificationResult,
)


def dot_reference(u, v) -> F:
    """`dot` as one Fraction product per entry, summed from zero."""
    if len(u) != len(v):
        raise ValueError("dot: length mismatch %d vs %d" % (len(u), len(v)))
    return sum((a * b for a, b in zip(u, v)), F(0))


def matmul_reference(m: Matrix, other: Matrix) -> Matrix:
    """`Matrix.__mul__` with Fraction products, entry by entry."""
    if m.cols != other.rows:
        raise ValueError(
            "matmul: %dx%d by %dx%d" % (m.rows, m.cols, other.rows, other.cols)
        )
    cols = other.cols
    out = []
    for r in m.data:
        out.append([
            sum((r[k] * other.data[k][j] for k in range(m.cols)), F(0))
            for j in range(cols)
        ])
    return Matrix(out, cols=cols)


def matvec_reference(m: Matrix, x) -> Vec:
    if len(x) != m.cols:
        raise ValueError("matvec: length mismatch")
    return tuple(dot_reference(r, x) for r in m.data)


def vecmat_reference(m: Matrix, y) -> Vec:
    if len(y) != m.rows:
        raise ValueError("vecmat: length mismatch")
    return tuple(
        sum((y[i] * m.data[i][j] for i in range(m.rows)), F(0))
        for j in range(m.cols)
    )


def sympy_rank(m: Matrix) -> int:
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in m.data]).rank()


def sympy_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """(reduced, pivot_columns) from sympy's own elimination."""
    entries = [sympy.Rational(x.numerator, x.denominator) for row in m.data for x in row]
    r, pivots = sympy.Matrix(m.rows, m.cols, entries).rref()
    rows = [[F(int(x.p), int(x.q)) for x in r.row(i)] for i in range(r.rows)]
    return Matrix(rows, cols=m.cols), tuple(pivots)


def sympy_solve(m: Matrix, b) -> Vec | None:
    """The solution of m x = b with free variables zero, read off sympy's
    RREF of the augmented matrix; None if the system is inconsistent."""
    aug = Matrix([r + (F(x),) for r, x in zip(m.data, b)], cols=m.cols + 1)
    r, pivots = sympy_rref(aug)
    if m.cols in pivots:
        return None
    x = [F(0)] * m.cols
    for i, pc in enumerate(pivots):
        x[pc] = r.data[i][m.cols]
    return tuple(x)


def sympy_nullspace(m: Matrix) -> list[Vec]:
    """sympy's right kernel basis: one vector per free column."""
    entries = [sympy.Rational(x.numerator, x.denominator) for row in m.data for x in row]
    basis = sympy.Matrix(m.rows, m.cols, entries).nullspace()
    return [tuple(F(int(x.p), int(x.q)) for x in v) for v in basis]


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


def _unique_combination(generators, target):
    """The unique x with sum x_i g_i = target, by Fraction elimination; None
    when the generators are linearly dependent or miss the target."""
    k = len(generators)
    rows = [[F(g[j]) for g in generators] + [F(t)] for j, t in enumerate(target)]
    for c in range(k):
        piv = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        pv = rows[c][c]
        rows[c] = [x / pv for x in rows[c]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != c and f:
                rows[i] = [x - f * y for x, y in zip(row, rows[c])]
    if any(row[k] for row in rows[k:]):
        return None
    return [row[k] for row in rows[:k]]


def in_cone(vector, generators):
    """Membership of a vector in cone(generators) by Caratheodory
    enumeration: the vector is in the cone iff some linearly independent
    subset carries it with nonnegative coefficients (a unique exact solve)."""
    if not any(vector):
        return True
    for size in range(1, min(len(generators), len(vector)) + 1):
        for subset in combinations(generators, size):
            x = _unique_combination(subset, vector)
            if x is not None and all(v >= 0 for v in x):
                return True
    return False


def implicit_equalities_tangent_reference(q: PolytopeRep, p: PolytopeRep) -> list[Vec]:
    """Normals of the rows a.x <= beta of P, among the rows T tight at every
    point of Q (Q inside P), that are tight on all of P; no LP and no DD.

    Exactly the rows of T are tight at Q's centroid, so near it P is the
    centroid plus the tangent cone {d : a_T d <= 0}.  Row j of T is tight on
    all of P iff a_j.d >= 0 on that cone, that is, by Farkas, iff -a_j lies
    in cone{a_i : i in T}."""
    tight = [a for beta, a in p.inequalities()
             if all(dot_reference(a, x) == beta for x in q.points())]
    return [a for a in tight if in_cone(tuple(-x for x in a), tight)]


def origin_interior_lp_reference(p: PolytopeRep) -> bool:
    """0 in the interior of a V-polytope by the LP route: full affine rank,
    and a convex combination of the points hitting 0 with every weight at
    least some t > 0."""
    n, pts = p.ambient_dim, p.points()
    if dimension(p) != n:
        return False
    k = len(pts)
    # Variables: lambda_1..k and t; maximize t subject to lambda_i >= t.
    constraints = [Constraint([pt[j] for pt in pts] + [0], EQ, 0) for j in range(n)]
    constraints.append(Constraint([1] * k + [0], EQ, 1))
    for i in range(k):
        constraints.append(Constraint(unit(k + 1, i), GE, 0))
        constraints.append(Constraint(vsub(unit(k + 1, i), unit(k + 1, k)), GE, 0))
    out = lp_solve(unit(k + 1, k), constraints, sense="max")
    return out.status == OPTIMAL and out.value > 0


def polar_scale_reference(m: Matrix):
    """Scale of the polar realization by the two-recognition route: None
    unless m and its transpose are both recognized as polytope slack
    matrices, else sum(y) for an LP solution y >= 0 of y m = 1."""
    if not (is_polytope_slack(m).verdict
            and is_polytope_slack(m.transpose()).verdict):
        return None
    p = m.rows
    constraints = [Constraint(m.col(j), EQ, 1) for j in range(m.cols)]
    constraints += [Constraint(unit(p, i), GE, 0) for i in range(p)]
    out = lp_solve([0] * p, constraints, sense="min")
    assert out.status == OPTIMAL
    return sum(out.point, F(0))


def lineality_rref_reference(vectors, n: int) -> tuple[Vec, ...]:
    """The nonzero rows of the RREF of the vectors: a canonical basis of
    their span."""
    r, _, rk = rref(Matrix(vectors, cols=n))
    return tuple(r.data[i] for i in range(rk))


def project_off_reference(v: Vec, basis) -> Vec:
    """Orthogonal projection of v onto the complement of span(basis), by
    one solve of the Gram system."""
    if not basis:
        return v
    g = Matrix([[dot(a, b) for b in basis] for a in basis], cols=len(basis))
    coeff = solve_linear(g, [dot(a, v) for a in basis])
    out = v
    for c, b in zip(coeff, basis):
        out = vsub(out, vscale(c, b))
    return out


def dd_h_to_v_rank_reference(h: ConeRep) -> ConeRep:
    """Double description with the exact rank test for ray adjacency: a
    negative and a positive ray are adjacent iff the inserted rows tight on
    both have rank n - dim(lineality) - 2.  Same output contract as
    `dd_h_to_v`, met another way: the rays of the pointed quotient are
    projected off the lineality space by a Gram solve each.

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
    lin_basis = lineality_rref_reference(lin, n) if lin else ()
    out = []
    for r in rays:
        pr = project_off_reference(r, lin_basis)
        if not is_zero_vec(pr):
            out.append(canonical_ray(pr))
    out = sorted(set(out))
    return ConeRep("V", n, tuple(out), lin_basis)


def polytope_slack_wide_reference(m: Matrix) -> RecognitionResult:
    """`is_polytope_slack` by the wide route: m mu = 1 solved on m itself,
    the all-ones witness taken from the left kernel of m, the cone match of
    `cone_match_fraction_reference`, and the basis change done by an
    explicit inverse.  Same output contract."""
    if not m.is_nonnegative():
        raise ValueError("matrix has a negative entry")
    a, b = rank_factorization(m)
    if a.cols < 2:
        cert = NoCertificate(RANK_TOO_SMALL)
        return RecognitionResult(False, KIND_POLYTOPE, cert)
    mu = solve_linear(m, ones(m.rows))
    if mu is None:
        z = next(
            z for z in left_kernel_basis(m) if dot(z, ones(m.rows)) != 0
        )
        cert = NoCertificate(ONES_NOT_IN_SPAN, witness=z)
        return RecognitionResult(False, KIND_POLYTOPE, cert)
    base = cone_match_fraction_reference(m, a, b)
    if not base.verdict:
        return RecognitionResult(False, KIND_POLYTOPE, base.certificate)
    k = a.cols
    c = b.matvec(mu)  # the unique c with a c = all-ones
    i0 = next(i for i, x in enumerate(c) if x != 0)
    cols = [c] + [unit(k, j) for j in range(k) if j != i0]
    u = Matrix(zip(*cols), cols=k)
    a2 = a * u
    b2 = inverse(u) * b
    assert all(a2[i, 0] == 1 for i in range(a2.rows))
    pts = tuple(row[1:] for row in a2.data)
    hrows = tuple(
        (b2[0, j],) + tuple(-b2[i, j] for i in range(1, k))
        for j in range(b2.cols)
    )
    v = PolytopeRep("V", k - 1, pts)
    h = PolytopeRep("H", k - 1, hrows)
    if slack_of_polytope(v, h) != m:
        raise AssertionError("reconstruction failed to reproduce the matrix")
    cert = YesCertificate(a=a2, b=b2, mu=mu, polytope=(v, h))
    return RecognitionResult(True, KIND_POLYTOPE, cert)


def polar_realization_wide_reference(m: Matrix):
    """`polar_realization` by the wide route: nu m = 1 solved on the
    transpose of m, alpha = sum(nu), and a second rank factorization of
    alpha m - J.  Same output contract, same error messages."""
    if not polytope_slack_wide_reference(m).verdict:
        raise ValueError("matrix is not a polytope slack matrix")
    nu = solve_linear(m.transpose(), ones(m.cols))
    if nu is None:
        raise ValueError("transpose is not a polytope slack matrix")
    q = m.cols
    alpha = sum(nu, F(0))
    scaled = Matrix([[alpha * x for x in row] for row in m.data], cols=q)
    diff = Matrix([[x - 1 for x in row] for row in scaled.data], cols=q)
    a, b = rank_factorization(diff)
    d = a.cols
    v = PolytopeRep("V", d, tuple(a.data))
    h = PolytopeRep(
        "H", d, tuple((F(1),) + vscale(F(-1), b.col(j)) for j in range(q)),
    )
    if slack_of_polytope(v, h) != scaled:
        raise AssertionError("polar realization failed to reproduce the matrix")
    pv = PolytopeRep("V", d, tuple(vscale(F(-1), b.col(j)) for j in range(q)))
    ph = PolytopeRep("H", d, tuple((F(1),) + row for row in a.data))
    if slack_of_polytope(pv, ph) != scaled.transpose():
        raise AssertionError("polar slack mismatch")
    return v, alpha


# The Fraction route of recognition: canonical DD rays matched by their
# primitive int keys, a Fraction separator, and Fraction basis changes for
# the certificate and the polar.  Same output contracts as the library.

def _ray_key(v: Vec) -> tuple[int, ...]:
    return primitive(integer_vec(v)[0])


def separator_fraction_reference(m: Matrix, x: Vec) -> Vec:
    """h = t - eps x with t the zero set of x and eps the least t.c / x.c."""
    t = tuple(F(xi == 0) for xi in x)
    ratios = [dot(t, c) / dot(x, c) for c in m.columns() if dot(x, c) > 0]
    eps = min(ratios, default=F(1))
    return vsub(t, vscale(eps, x))


def ccgc_fraction_reference(m: Matrix, a: Matrix, b: Matrix) -> RecognitionResult:
    """The CCGC of m = a b by `dd_h_to_v`: the first canonical ray of
    {y : a y >= 0} that no column of b is a positive multiple of refutes."""
    k = dd_h_to_v(ConeRep("H", a.cols, a.data))
    columns = {_ray_key(c) for c in b.columns() if not is_zero_vec(c)}
    for y in k.vectors:
        if _ray_key(y) not in columns:
            x = canonical_ray(a.matvec(y))
            cert = NoCertificate(UNMATCHED_RAY, "column", x,
                                 separator_fraction_reference(m, x))
            return RecognitionResult(False, KIND_CONE, cert)
    return RecognitionResult(True, KIND_CONE, YesCertificate(a=a, b=b))


def cone_match_fraction_reference(m: Matrix, a: Matrix,
                                  b: Matrix) -> RecognitionResult:
    """`ccgc_fraction_reference` on the side with fewer distinct nonzero
    generators: when b's columns are strictly fewer than a's rows, the CCGC
    of m^T = b^T a^T, with its NO certificate restated in the row convention."""
    def distinct(vectors):
        return len({_ray_key(v) for v in vectors if not is_zero_vec(v)})

    if distinct(b.columns()) >= distinct(a.data):
        return ccgc_fraction_reference(m, a, b)
    res = ccgc_fraction_reference(m.transpose(), b.transpose(), a.transpose())
    if res.verdict:
        return RecognitionResult(True, KIND_CONE, YesCertificate(a=a, b=b))
    cert = replace(res.certificate, convention="row")
    return RecognitionResult(False, KIND_CONE, cert)


def reconstruct_fraction_reference(m: Matrix, a: Matrix, b: Matrix, c: Vec):
    """(V, H, a U, U^-1 b) for U = [c | e_j, j != i0], by Fraction rows."""
    k = a.cols
    i0 = next(i for i, x in enumerate(c) if x != 0)
    a2 = Matrix([(F(1),) + r[:i0] + r[i0 + 1:] for r in a.data], cols=k)
    b0 = vscale(F(1) / c[i0], b.row(i0))
    b2 = Matrix([b0] + [vsub(b.row(j), vscale(c[j], b0))
                        for j in range(k) if j != i0], cols=b.cols)
    pts = tuple(row[1:] for row in a2.data)
    hrows = tuple(
        (b2[0, j],) + tuple(-b2[i, j] for i in range(1, k))
        for j in range(b2.cols)
    )
    v = PolytopeRep("V", k - 1, pts)
    h = PolytopeRep("H", k - 1, hrows)
    if slack_of_polytope(v, h) != m:
        raise AssertionError("reconstruction failed to reproduce the matrix")
    return v, h, a2, b2


def polytope_slack_fraction_reference(m: Matrix) -> RecognitionResult:
    """`is_polytope_slack` by the Fraction route."""
    if not m.is_nonnegative():
        raise ValueError("matrix has a negative entry")
    a, b = rank_factorization(m)
    if a.cols < 2:
        return RecognitionResult(False, KIND_POLYTOPE, NoCertificate(RANK_TOO_SMALL))
    c = solve_linear(a, ones(m.rows))
    if c is None:
        z = next(z for z in left_kernel_basis(a) if dot(z, ones(m.rows)) != 0)
        cert = NoCertificate(ONES_NOT_IN_SPAN, witness=z)
        return RecognitionResult(False, KIND_POLYTOPE, cert)
    base = cone_match_fraction_reference(m, a, b)
    if not base.verdict:
        return RecognitionResult(False, KIND_POLYTOPE, base.certificate)
    mu = [F(0)] * m.cols
    for ci, row in zip(c, b.data):
        mu[next(j for j, x in enumerate(row) if x != 0)] = ci
    v, h, a2, b2 = reconstruct_fraction_reference(m, a, b, c)
    cert = YesCertificate(a=a2, b=b2, mu=tuple(mu), polytope=(v, h))
    return RecognitionResult(True, KIND_POLYTOPE, cert)


def polar_realization_fraction_reference(m: Matrix):
    """`polar_realization` from the Fraction certificate: w = (sum mu, 1,
    .., 1) checked by one product, and B3 = alpha b2 - e0 1^T by Fraction
    rows.  Same output contract, same error messages."""
    res = polytope_slack_fraction_reference(m)
    if not res.verdict:
        raise ValueError("matrix is not a polytope slack matrix")
    a2, b2 = res.certificate.a, res.certificate.b
    q = m.cols
    w = (sum(res.certificate.mu, F(0)),) + ones(a2.cols - 1)
    if b2.vecmat(w) != ones(q):
        raise ValueError("transpose is not a polytope slack matrix")
    alpha = w[0]
    b3 = Matrix([tuple(alpha * x - 1 for x in b2.row(0))]
                + [vscale(alpha, row) for row in b2.data[1:]], cols=q)
    a3, b = rank_factorization(b3)
    a = a2 * a3
    d = a.cols
    normals = tuple(vscale(F(-1), b.col(j)) for j in range(q))
    v = PolytopeRep("V", d, tuple(a.data))
    h = PolytopeRep("H", d, tuple((F(1),) + x for x in normals))
    scaled = Matrix([vscale(alpha, row) for row in m.data], cols=q)
    if slack_of_polytope(v, h) != scaled:
        raise AssertionError("polar realization failed to reproduce the matrix")
    pv = PolytopeRep("V", d, normals)
    ph = PolytopeRep("H", d, tuple((F(1),) + row for row in a.data))
    if slack_of_polytope(pv, ph) != scaled.transpose():
        raise AssertionError("polar slack mismatch")
    return v, alpha


def implicit_equalities_lp_reference(p: PolytopeRep, tight) -> list[Vec]:
    """Normals of the rows a.x <= beta of P, among those indexed by `tight`,
    that are tight on all of P: one LP per row maximizes its slack, capped
    at 1, and the row is an implicit equality iff the optimum is 0."""
    constraints = [Constraint(a, LE, beta) for beta, a in p.inequalities()]
    normals = []
    for ci in (constraints[i] for i in tight):
        slack_obj = vscale(F(-1), ci.coeffs)
        capped = constraints + [Constraint(slack_obj, LE, 1 - ci.rhs)]
        out = lp_solve(slack_obj, capped, sense="max")
        # A cap that cuts away all of P means the slack is above 1 there.
        if out.status == OPTIMAL and out.value + ci.rhs == 0:
            normals.append(ci.coeffs)
    return normals


def verify_equality_fraction_reference(q: PolytopeRep, p: PolytopeRep):
    """`verify_polytope_equality` with the Fraction route's recognition."""
    if q.form != "V" or p.form != "H":
        raise ValueError("need a V-polytope and an H-polyhedron")
    m = slack_of_polytope(q, p)
    n = p.ambient_dim
    dim_q = dimension(q)  # raises on an empty Q, whatever P is
    if rank(Matrix([a for _, a in p.inequalities()], cols=n)) < n:
        return VerificationResult(False, NOT_POINTED)
    tight = [j for j, (beta, a) in enumerate(p.inequalities())
             if all(dot(a, x) == beta for x in q.points())]
    eqs = implicit_equalities_lp_reference(p, tight)
    dim_p = n - rank(Matrix(eqs, cols=n))
    if dim_q != dim_p:
        return VerificationResult(False, DIM_MISMATCH, dims=(dim_q, dim_p))
    if dim_q == 0:
        return VerificationResult(True, EQUAL)
    res = polytope_slack_fraction_reference(m)
    if not res.verdict:
        return VerificationResult(False, SLACK_REJECT, witness=res.certificate)
    return VerificationResult(True, EQUAL)


def verify_no_dot_reference(m: Matrix, cert) -> bool:
    """`verify_no_certificate` with one Fraction dot product per column and
    sympy ranks: x is in the span iff rank [M | x] = rank M."""
    if cert.convention not in ("row", "column"):
        return False
    try:
        if cert.reason == RANK_TOO_SMALL:
            return sympy_rank(m) < 2
        z = tuple(F(x) for x in cert.witness)
        if cert.reason == ONES_NOT_IN_SPAN:
            return (len(z) == m.rows and all(x == 0 for x in vecmat_reference(m, z))
                    and sum(z, F(0)) != 0)
        if cert.reason != UNMATCHED_RAY:
            return False
        mm = m.transpose() if cert.convention == "row" else m
        h = tuple(F(x) for x in cert.separator)
        if len(z) != mm.rows or len(h) != mm.rows or is_zero_vec(z) or min(z) < 0:
            return False
        aug = Matrix([r + (x,) for r, x in zip(mm.data, z)], cols=mm.cols + 1)
        if sympy_rank(aug) != sympy_rank(mm):
            return False
        return (all(dot_reference(h, c) >= 0 for c in mm.columns())
                and dot_reference(h, z) < 0)
    except (ValueError, TypeError):
        return False
