"""Recognition of slack matrices of cones and polytopes, with certificates.

The core decision is the column cone generating condition (CCGC): the cone
spanned by the columns of a nonnegative matrix equals the nonnegative part
of its column span.  A matrix is a slack matrix of a polyhedral cone exactly
when this holds, and of a polytope when additionally its rank is at least
two and the all-ones vector lies in its column span.

The test runs in the coordinates of one rank factorization M = A B: the CCGC
holds iff every extreme ray of the pointed cone {y : A y >= 0} is a positive
multiple of a column of B.  An unmatched ray is refuted by a separator
written down in closed form, without a second cone conversion.  M itself is
eliminated only once: every later solve works on A (injective) or B (RREF).

Every verdict ships a certificate: an exact rank factorization on yes, a
point-and-separator witness (or a span/rank witness for the polytope-only
preconditions) on no.  Certificates are re-checkable by plain arithmetic,
independent of the decision path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .matrix import (
    Matrix,
    Vec,
    dot,
    integer_vec,
    is_zero_vec,
    left_kernel_basis,
    ones,
    primitive,
    rank,
    rank_factorization,
    right_kernel_basis,
    solve_linear,
    unit,
    vec,
    vscale,
    vsub,
)
from .polyhedra import (
    ConeRep,
    PolytopeRep,
    _dd,
    _slack_is_scaled,
    canonical_ray,
    dd_h_to_v,
)

KIND_CONE = "cone"
KIND_POLYTOPE = "polytope"

UNMATCHED_RAY = "unmatched_ray"
ONES_NOT_IN_SPAN = "ones_not_in_span"
RANK_TOO_SMALL = "rank_too_small"


@dataclass(frozen=True)
class YesCertificate:
    """Exact realization: a . b reproduces the matrix entrywise."""

    a: Matrix
    b: Matrix
    mu: Optional[Vec] = None
    polytope: Optional[tuple[PolytopeRep, PolytopeRep]] = None


@dataclass(frozen=True)
class NoCertificate:
    """Witness refuting the slack-matrix claim.

    reason UNMATCHED_RAY: `witness` lies in the relevant span intersected
    with the nonnegative orthant while `separator` is nonnegative on every
    generator of the claimed cone and negative on the witness.  The
    convention says whether rows or columns generate the claimed cone.

    reason ONES_NOT_IN_SPAN: `witness` annihilates the matrix from the left
    but not the all-ones vector, so no polytope realization exists.

    reason RANK_TOO_SMALL: rank below two never comes from a polytope.
    """

    reason: str
    convention: str = "column"
    witness: Optional[Vec] = None
    separator: Optional[Vec] = None


@dataclass(frozen=True)
class RecognitionResult:
    verdict: bool
    kind: str
    certificate: YesCertificate | NoCertificate


def _require_nonnegative(m: Matrix) -> None:
    if not m.is_nonnegative():
        raise ValueError("matrix has a negative entry")


def _separator(m: Matrix, x: Vec) -> Vec:
    """h = t - eps x, nonnegative on the columns and negative on x.

    t indicates the zero set of the unmatched extreme ray x; a nonzero column
    with t . M_j = 0 would be a multiple of x, so eps > 0 exists.
    """
    # With x = p / d and a column cleared to ints C, t.M_j / x.M_j is
    # d (t.C) / (p.C); eps = d en / ed is the least of these, or 1.
    p, d = integer_vec(x)
    least = None
    for col in zip(*m.data):
        c = integer_vec(col)[0]
        s = sum(map(mul, p, c))
        if s > 0:
            t = sum(y for y, pi in zip(c, p) if pi == 0)
            if least is None or t * least[1] < least[0] * s:
                least = (t, s)
    en, ed = least or (1, d)
    return tuple(Fraction(ed * (pi == 0) - en * pi, ed) for pi in p)


def _ccgc_with_factors(m: Matrix, a: Matrix, b: Matrix) -> RecognitionResult:
    # a is injective, so the cone is pointed and its extreme rays are _dd's
    # primitive int rays, each equal to a primitive column iff a positive
    # multiple of it.  The first unmatched ray in canonical order is refuted.
    rays, _ = _dd([primitive(integer_vec(r)[0]) for r in a.data], a.cols)
    columns = {primitive(integer_vec(c)[0]) for c in zip(*b.data) if any(c)}
    unmatched = [y for y, _ in rays if y not in columns]
    if unmatched:
        x = canonical_ray(a.matvec(min(unmatched, key=canonical_ray)))
        cert = NoCertificate(UNMATCHED_RAY, "column", x, _separator(m, x))
        return RecognitionResult(False, KIND_CONE, cert)
    return RecognitionResult(True, KIND_CONE, YesCertificate(a=a, b=b))


def ccgc_check(m: Matrix) -> RecognitionResult:
    """Decide the column cone generating condition with a certificate.

    With a rank factorization m = a b, run one double description of the
    pointed cone {y : a y >= 0} in dimension rank(m) and require each extreme
    ray to be a positive multiple of a column of b; a is injective, so this
    is the CCGC in R^p.  An unmatched ray y gives the witness x = a y.
    """
    _require_nonnegative(m)
    return _ccgc_with_factors(m, *rank_factorization(m))


def _transpose_certificate(cert: YesCertificate | NoCertificate):
    if isinstance(cert, YesCertificate):
        return YesCertificate(a=cert.b.transpose(), b=cert.a.transpose())
    conv = "row" if cert.convention == "column" else "column"
    return NoCertificate(cert.reason, conv, cert.witness, cert.separator)


def rcgc_check(m: Matrix) -> RecognitionResult:
    """Row cone generating condition; equivalent to the CCGC on the
    transpose, with the certificate restated in the row convention."""
    res = ccgc_check(m.transpose())
    return RecognitionResult(res.verdict, KIND_CONE,
                             _transpose_certificate(res.certificate))


def is_cone_slack(m: Matrix) -> RecognitionResult:
    """Is m a slack matrix of some polyhedral cone?"""
    return ccgc_check(m)


def _polytope_verdict(m: Matrix) -> RecognitionResult | tuple[Matrix, Matrix, Vec]:
    """The polytope verdict alone: the NO result, or the factors (a, b, c)
    of m = a b, b in RREF, with a c = 1."""
    _require_nonnegative(m)
    a, b = rank_factorization(m)
    if a.cols < 2:
        cert = NoCertificate(RANK_TOO_SMALL)
        return RecognitionResult(False, KIND_POLYTOPE, cert)
    # b is onto: a c = 1 is solvable iff m mu = 1 is, and z m = 0 iff z a = 0.
    c = solve_linear(a, ones(m.rows))
    if c is None:
        z = next(z for z in left_kernel_basis(a)
                 if dot(z, ones(m.rows)) != 0)
        cert = NoCertificate(ONES_NOT_IN_SPAN, witness=z)
        return RecognitionResult(False, KIND_POLYTOPE, cert)
    base = _ccgc_with_factors(m, a, b)
    if not base.verdict:
        return RecognitionResult(False, KIND_POLYTOPE, base.certificate)
    return a, b, c


def is_polytope_slack(m: Matrix) -> RecognitionResult:
    """Is m a slack matrix of some polytope?

    Requires rank at least two, the all-ones vector in the column span, and
    the CCGC; the yes-certificate carries a realized polytope.
    """
    verdict = _polytope_verdict(m)
    if isinstance(verdict, RecognitionResult):
        return verdict
    a, b, c = verdict
    # b is the RREF of m, so mu is c placed on its pivot columns.
    mu = [Fraction(0)] * m.cols
    for ci, row in zip(c, b.data):
        mu[next(j for j, x in enumerate(row) if x != 0)] = ci
    mu = tuple(mu)
    v, h, a2, b2 = _reconstruct_with_factors(m, a, b, c)
    cert = YesCertificate(a=a2, b=b2, mu=mu, polytope=(v, h))
    return RecognitionResult(True, KIND_POLYTOPE, cert)


def verify_no_certificate(m: Matrix, cert: NoCertificate) -> bool:
    """Re-check a rejection certificate by pure arithmetic.

    Independent of the recognition path: only kernels, signs and dot
    products.  Invalid or ill-shaped certificates return False.
    """
    if cert.convention not in ("row", "column"):
        return False
    try:
        if cert.reason == RANK_TOO_SMALL:
            return rank(m) < 2
        if cert.reason == ONES_NOT_IN_SPAN:
            z = vec(cert.witness)
            if len(z) != m.rows:
                return False
            return is_zero_vec(m.vecmat(z)) and dot(z, ones(m.rows)) != 0
        if cert.reason != UNMATCHED_RAY:
            return False
        mm = m.transpose() if cert.convention == "row" else m
        x = vec(cert.witness)
        h = vec(cert.separator)
        if len(x) != mm.rows or len(h) != mm.rows:
            return False
        if is_zero_vec(x) or any(xi < 0 for xi in x):
            return False
        if any(dot(z, x) != 0 for z in left_kernel_basis(mm)):
            return False
        if any(dot(h, c) < 0 for c in mm.columns()):
            return False
        return dot(h, x) < 0
    except (ValueError, TypeError):
        return False


def reconstruct_cone(m: Matrix) -> tuple[ConeRep, ConeRep]:
    """Realizing cone of a cone slack matrix: a rank factorization m = a b
    gives generators (rows of a) and inequality normals (columns of b)."""
    res = is_cone_slack(m)
    if not res.verdict:
        raise ValueError("not a slack matrix of a cone")
    a, b = res.certificate.a, res.certificate.b
    k = a.cols
    v = ConeRep("V", k, tuple(a.data))
    h = ConeRep("H", k, tuple(b.col(j) for j in range(b.cols)))
    return v, h


def _basis_change(a: Matrix, b: Matrix, c: Vec):
    """(a U, rows, d) for U = [c | e_j, j != i0], a c = 1: a U is [1 | a
    less column i0], and U^-1 b, with rows b_i0 / c_i0 and b_j - c_j b_i0 /
    c_i0, is rows / d in ints (f B_i0 and C_i0 B_j - C_j B_i0 over e C_i0,
    for b = B / e and c = C / f)."""
    q = b.cols
    cs, f = integer_vec(c)
    i0 = next(i for i, x in enumerate(cs) if x != 0)
    flat, e = integer_vec([x for row in b.data for x in row])
    top, ci = flat[i0 * q:(i0 + 1) * q], cs[i0]
    rows = [[f * x for x in top]] + [
        [ci * x - cj * y for x, y in zip(flat[j * q:(j + 1) * q], top)]
        for j, cj in enumerate(cs) if j != i0]
    one = Fraction(1)
    a2 = Matrix._of(tuple((one,) + r[:i0] + r[i0 + 1:] for r in a.data), a.cols)
    return a2, rows, e * ci


def _reconstruct_with_factors(m, a, b, c):
    a2, rows, d = _basis_change(a, b, c)
    k = a.cols
    b2 = Matrix._of(tuple(tuple(Fraction(x, d) for x in r) for r in rows), b.cols)
    pts = tuple(row[1:] for row in a2.data)
    hrows = tuple((col[0],) + tuple(-x for x in col[1:]) for col in zip(*b2.data))
    v = PolytopeRep("V", k - 1, pts)
    h = PolytopeRep("H", k - 1, hrows)
    if not _slack_is_scaled(v, h, m.data, Fraction(1)):
        raise AssertionError("reconstruction failed to reproduce the matrix")
    return v, h, a2, b2


def reconstruct_polytope(
    m: Matrix,
    factors: Optional[tuple[Matrix, Matrix]] = None,
) -> tuple[PolytopeRep, PolytopeRep]:
    """Realizing polytope of a polytope slack matrix.

    Change basis in a rank factorization m = a b so the first factor gains an
    all-ones first column: with m mu = 1 and c = b mu (so a c = 1), the basis
    matrix has first column c, completed by standard basis vectors away from
    the first nonzero coordinate of c, and is applied in closed form.  An
    explicit factorization may be supplied; the default is the certificate's.
    """
    res = is_polytope_slack(m)
    if not res.verdict:
        raise ValueError("not a slack matrix of a polytope")
    if factors is None:
        return res.certificate.polytope
    a, b = factors
    if a * b != m or a.cols != res.certificate.a.cols:
        raise ValueError("supplied factors are not a rank factorization")
    c = b.matvec(res.certificate.mu)
    v, h, _, _ = _reconstruct_with_factors(m, a, b, c)
    return v, h


def cone_check_via_polytope(m: Matrix) -> bool:
    """Independent route to the cone-slack verdict through the polytope
    test: strip zero rows, rescale rows to unit sums, and recognize the
    result as a polytope slack matrix (ranks below two are always cone
    slack matrices)."""
    _require_nonnegative(m)
    rows = [r for r in m.data if not is_zero_vec(r)]
    m0 = Matrix(rows, cols=m.cols)
    if rank(m0) <= 1:
        return True
    scaled = Matrix(
        [vscale(Fraction(1) / sum(r, Fraction(0)), r) for r in rows],
        cols=m.cols,
    )
    return is_polytope_slack(scaled).verdict


def affine_criterion_check(m: Matrix) -> bool:
    """Geometric polytope criterion: conv(rows) equals the intersection of
    the affine hull of the rows with the nonnegative orthant.

    Decided by enumerating the vertices and recession rays of that
    intersection through the homogenization cone; independent of
    is_polytope_slack and used as its cross-check oracle.
    """
    _require_nonnegative(m)
    if rank(m) < 2:
        raise ValueError("criterion needs rank at least two")
    q = m.cols
    r0 = m.row(0)
    diffs = Matrix([vsub(r, r0) for r in m.data[1:]], cols=q)
    normals: list[Vec] = []
    for z in right_kernel_basis(diffs):
        eq = (-dot(z, r0),) + z
        normals.append(vec(eq))
        normals.append(vscale(Fraction(-1), eq))
    normals.append(unit(q + 1, 0))  # homogenizing coordinate
    normals.extend(unit(q + 1, j + 1) for j in range(q))
    k = dd_h_to_v(ConeRep("H", q + 1, tuple(normals)))
    row_set = set(m.data)
    for ray in k.vectors:
        if ray[0] == 0:
            return False  # unbounded: a recession direction survives
        vertex = vscale(Fraction(1) / ray[0], ray[1:])
        if vertex not in row_set:
            return False
    return True


def polar_realization(m: Matrix) -> tuple[PolytopeRep, Fraction]:
    """Polytope P with 0 interior realizing a positive multiple of m, whose
    polar realizes the transpose.

    Requires both m and its transpose to be polytope slack matrices, decided
    by one recognition of m: the CCGC of m^T follows from that of m (the cone
    slack matrices of K and K* are transposes) and rank(m^T) = rank(m), so
    only the all-ones vector in the row span is left.  In the certificate's
    factors m = a2 b2, with a2 injective and its first column all ones,
    nu m = 1 iff w = nu a2 solves w b2 = 1.  The only candidate w is written
    in closed form and checked by one product, and alpha = sum(nu) = w[0] makes
    1 a convex combination of the rows of alpha m (y m = 1 gives sum(y) =
    1 . mu).  alpha m - J = a2 (alpha b2 - e0 1^T) is factorized on the right.
    """
    verdict = _polytope_verdict(m)
    if isinstance(verdict, RecognitionResult):
        raise ValueError("matrix is not a polytope slack matrix")
    a, b, c = verdict
    a2, rows, den = _basis_change(a, b, c)
    q = m.cols
    # b2 = U^-1 b with b in RREF, whose pivot columns are the identity; so
    # w b2 = 1 forces w U^-1 = 1 there, that is w = 1^T U = (sum mu, 1, ..).
    # With b2 = rows / den and alpha = s / t, w b2 = 1 is checked in ints.
    alpha = sum(c, Fraction(0))
    s, t = alpha.numerator, alpha.denominator
    td = t * den
    if any(s * x + t * sum(col) != td for x, *col in zip(*rows)):
        raise ValueError("transpose is not a polytope slack matrix")
    b3 = Matrix._of(  # alpha b2 - e0 1^T
        (tuple(Fraction(s * x - td, td) for x in rows[0]),)
        + tuple(tuple(Fraction(s * x, td) for x in row) for row in rows[1:]),
        q)
    a3, b = rank_factorization(b3)
    a = a2 * a3
    d = a.cols
    normals = tuple(tuple(-x for x in col) for col in zip(*b.data))
    v = PolytopeRep("V", d, tuple(a.data))
    h = PolytopeRep("H", d, tuple((Fraction(1),) + x for x in normals))
    if not _slack_is_scaled(v, h, m.data, alpha):
        raise AssertionError("polar realization failed to reproduce the matrix")
    # The polar pair: vertices are the facet normals of P, facets come from
    # the vertices of P; its slack matrix is the transpose of the scaled one.
    pv = PolytopeRep("V", d, normals)
    ph = PolytopeRep("H", d, tuple((Fraction(1),) + row for row in a.data))
    if not _slack_is_scaled(pv, ph, m.columns(), alpha):
        raise AssertionError("polar slack mismatch")
    return v, alpha
