"""Recognition of slack matrices of cones and polytopes, with certificates.

The core decision is the column cone generating condition (CCGC): the cone
spanned by the columns of a nonnegative matrix equals the nonnegative part
of its column span.  A matrix is a slack matrix of a polyhedral cone exactly
when this holds, and of a polytope when additionally its rank is at least
two and the all-ones vector lies in its column span.

The test runs in the coordinates of one rank factorization M = A B: the CCGC
holds iff every extreme ray of {y : A y >= 0} is a positive multiple of a
column of B, or dually iff every one of {z : z B >= 0} is one of a row of A;
one DD runs on the smaller side.  An unmatched ray is refuted by a separator
written down in closed form, without a second cone conversion.

Both questions are decided on one record (`echelon._Echelon`): one
fraction-free elimination of M's spanning-forest normal form, whose
integers do not grow with positive row and column scalings of M.  It gives
the rank, A, B and the c with A c = 1 (or shows 1 is not in the column
span), answers both questions at most once, on ints, and states every
answer in M's coordinates.

Every verdict ships a certificate: an exact rank factorization on yes, a
point-and-separator witness (or a span/rank witness for the polytope-only
preconditions) on no.  Certificates are re-checkable independently of the
decision path: a no by ranks, signs and dot products (x is in the span of
M iff rank [M | x] = rank M), a yes by one double description on its own
factors, through recognition's ray match (`_cone_match`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .echelon import (
    ONES_NOT_IN_SPAN,
    RANK_TOO_SMALL,
    UNMATCHED_RAY,
    NoCertificate,
    _cone_match,
    _Echelon,
    _eliminate,
    _normal_form,
)
from .matrix import (
    Matrix,
    Vec,
    _cleared,
    _echelon,
    dot,
    integer_vec,
    is_zero_vec,
    rank,
    right_kernel_basis,
    unit,
    vec,
    vscale,
    vsub,
)
from .polyhedra import (
    ConeRep,
    PolytopeRep,
    _table_is_scaled,
    vertices_of_h_polytope,
)

KIND_CONE = "cone"
KIND_POLYTOPE = "polytope"

@dataclass(frozen=True)
class YesCertificate:
    """Exact realization: a . b reproduces the matrix entrywise."""

    a: Matrix
    b: Matrix
    mu: Optional[Vec] = None
    polytope: Optional[tuple[PolytopeRep, PolytopeRep]] = None


@dataclass(frozen=True)
class RecognitionResult:
    verdict: bool
    kind: str
    certificate: YesCertificate | NoCertificate


def _require_nonnegative(m: Matrix) -> None:
    if not m.is_nonnegative():
        raise ValueError("matrix has a negative entry")


_last: Optional[tuple] = None


def _forget(ref) -> None:
    global _last
    if _last is not None and _last[0] is ref:
        _last = None


def _recognized(m: Matrix) -> _Echelon:
    """m's elimination, kept in one entry for the last Matrix recognized:
    (weakref, e, certificate or None), keyed by identity, replaced whole,
    dropped when m dies.  The entry keeps e's answers once they are decided."""
    global _last
    last = _last  # read once: the entry checked is the entry returned
    if last is None or last[0]() is not m:
        e = _eliminate(*_normal_form(m))
        last = _last = (weakref.ref(m, _forget), e, None)
    return last[1]


def _realized(m: Matrix, e: _Echelon) -> YesCertificate:
    """m's certificate, built and checked once per record e, kept beside it."""
    global _last
    last = _last  # read once, as in _recognized
    if last is None or last[1] is not e or last[2] is None:
        last = _last = (weakref.ref(m, _forget), e, _certificate(m, e))
    return last[2]


def ccgc_check(m: Matrix) -> RecognitionResult:
    """Decide the column cone generating condition with a certificate.

    With a rank factorization m = a b, one double description in dimension
    rank(m), on the side `_cone_match` picks, requires each extreme ray of
    {y : a y >= 0} to be a positive multiple of a column of b, or each of
    {z : z b >= 0} of a row of a.  An unmatched y or z gives x = a y or z b.
    A second question about the same Matrix object reuses both (_recognized).
    """
    e = _recognized(m)
    if e.unmatched:
        return RecognitionResult(False, KIND_CONE, e.unmatched)
    b = e.in_m(e.b, e.den, [e.d2[j] for j in e.pivots])
    cert = YesCertificate(a=m.submatrix(range(m.rows), e.pivots), b=Matrix._of(b, m.cols))
    return RecognitionResult(True, KIND_CONE, cert)


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


def is_polytope_slack(m: Matrix) -> RecognitionResult:
    """Is m a slack matrix of some polytope?

    Requires rank at least two, the all-ones vector in the column span, and
    the CCGC; the yes-certificate carries a realized polytope.
    """
    e = _recognized(m)
    no = e.polytope_no
    return RecognitionResult(no is None, KIND_POLYTOPE, no or _realized(m, e))


def verify_no_certificate(m: Matrix, cert: NoCertificate) -> bool:
    """Re-check a rejection certificate by pure arithmetic.

    Independent of the recognition path: only ranks, and the signs of dot
    products summed in ints.  Invalid or ill-shaped certificates return False.
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
            zi = integer_vec(z)[0]  # cleared once; each sum is a positive multiple
            return sum(zi) != 0 and not any(sum(map(mul, zi, integer_vec(c)[0]))
                                            for c in zip(*m.data))
        if cert.reason != UNMATCHED_RAY:
            return False
        mm = m.transpose() if cert.convention == "row" else m
        x = vec(cert.witness)
        h = vec(cert.separator)
        if len(x) != mm.rows or len(h) != mm.rows:
            return False
        if is_zero_vec(x) or any(xi < 0 for xi in x):
            return False
        rows = _cleared(r + (xi,) for r, xi in zip(mm.data, x))
        if mm.cols in _echelon(rows, mm.cols + 1)[1]:  # x is not in the span
            return False
        hi = integer_vec(h)[0]
        if any(sum(map(mul, hi, integer_vec(c)[0])) < 0 for c in zip(*mm.data)):
            return False
        return sum(map(mul, hi, integer_vec(x)[0])) < 0
    except (ValueError, TypeError):
        return False


def _cleared_product(m: Matrix, a: Matrix, b: Matrix):
    """(a's rows, b's columns) cleared once each to (ints, den) if a b = m,
    else None; entry (i, j) is sum(p q) y_den = y_num dp dq, in ints."""
    rows = [integer_vec(r) for r in a.data]
    cols = [integer_vec(c) for c in b.transpose().data]
    ok = (a.rows, a.cols, b.cols) == (m.rows, b.rows, m.cols) and all(
        sum(map(mul, p, q)) * x.denominator == x.numerator * dp * dq
        for (p, dp), y in zip(rows, m.data) for (q, dq), x in zip(cols, y))
    return (rows, cols) if ok else None


def verify_yes_certificate(m: Matrix, cert: YesCertificate) -> bool:
    """Re-check an acceptance certificate without recognition's elimination.

    With m >= 0 and a b = m, the CCGC of m holds iff cone(b) = {y : a y >= 0}:
    iff every extreme ray of that cone is a positive multiple of a column of
    b, or, dually, every one of {x : x b >= 0} of a row of a.  One DD decides
    it on the side `_cone_match` picks; a lineality space there (a factor of
    rank below k = a.cols) fails.  With mu it also needs m mu = 1 and
    rank(m) >= 2, on m's normal form N.  A V/H pair must be the one read off
    a = [1 | V] and b's columns (beta_j, -a_j), in R^(k-1), with rank [1 | V]
    = k tested as rank(N) = k: once the DD passes rank m = rank a, since on
    a's side ker a = 0 and a e_0 = 1 puts e_0 inside {y : a y >= 0} = cone(b),
    so b has rank k, and on b's side b has rank k.  Ill-shaped ones fail.
    """
    a, b, k, mu, pair = cert.a, cert.b, cert.a.cols, cert.mu, cert.polytope
    cleared = m.is_nonnegative() and _cleared_product(m, a, b)
    if not cleared or (mu is not None and len(mu) != m.cols):
        return False
    if mu is not None or pair is not None:
        n, d1, d2 = _normal_form(m)
        rk = len(_echelon(list(n), m.cols)[1])
        if mu is not None:  # m mu = 1 iff N (mu / d2) = d1 1
            w, dw = integer_vec([x * Fraction(v, u) for x, (u, v) in zip(mu, d2)])
            if rk < 2 or any(sum(map(mul, r, w)) * t != s * dw for r, (s, t) in zip(n, d1)):
                return False
        if pair is not None and (rk != k or any(r[:1] != (1,) for r in a.data) or pair != (
                PolytopeRep._of("V", k - 1, tuple(r[1:] for r in a.data)),
                PolytopeRep._of("H", k - 1, tuple(c[:1] + tuple(-x for x in c[1:])
                                                  for c in b.transpose().data)))):
            return False
    rows, cols = cleared
    _, lin, rays = _cone_match((p for p, _ in rows), (q for q, _ in cols), k)
    return not lin and not rays


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


def _basis_change(bs, e: int, cs, f: int, i0: int):
    """(rows, d) for U = [c | e_j, j != i0], c_i0 != 0: with b = bs / e and
    c = cs / f in ints, U^-1 b, with rows b_i0 / c_i0 and b_j - c_j b_i0 /
    c_i0, is rows / d (f B_i0 and C_i0 B_j - C_j B_i0 over e C_i0)."""
    top, ci = bs[i0], cs[i0]
    rows = [[f * x for x in top]] + [
        [ci * x - cj * y for x, y in zip(row, top)]
        for j, (row, cj) in enumerate(zip(bs, cs)) if j != i0]
    return rows, e * ci


def _certificate(m: Matrix, e: _Echelon, factors=None) -> YesCertificate:
    """mu, and the factors a U, U^-1 b with the polytope they realize, for
    the elimination's m = a b or for supplied factors."""
    # b is the RREF of m, so mu is c placed on its pivot columns, where M's
    # c is d2[p_i] c_i / cden.
    c = dict(zip(e.pivots, e.c))
    mu = tuple(Fraction(c[j] * u, v * e.cden) if j in c else Fraction(0)
               for j, (u, v) in enumerate(e.d2))
    if factors is None:
        a = tuple(tuple(row[j] for j in e.pivots) for row in m.data)
        bs, be, cs, ce = e.b, e.den, e.c, e.cden
    else:
        a, b = factors[0].data, factors[1]
        flat, be = integer_vec([x for row in b.data for x in row])
        bs = [flat[i * m.cols:(i + 1) * m.cols] for i in range(b.rows)]
        cs, ce = integer_vec(b.matvec(mu))
    i0 = next(i for i, x in enumerate(cs) if x != 0)
    rows, d = _basis_change(bs, be, cs, ce, i0)
    if factors is None:
        # U^-1 B_M is N's with row j != i0 times d2[p_j], column j over d2[j].
        piv = [e.d2[j] for j in e.pivots]
        b2 = e.in_m(rows, d, [(1, 1)] + piv[:i0] + piv[i0 + 1:])
    else:
        b2 = tuple(tuple(Fraction(x, d) for x in r) for r in rows)
    k, one = len(bs), Fraction(1)
    a2 = Matrix._of(tuple((one,) + r[:i0] + r[i0 + 1:] for r in a), k)
    b2 = Matrix._of(b2, m.cols)
    v = PolytopeRep._of("V", k - 1, tuple(row[1:] for row in a2.data))
    h = PolytopeRep._of("H", k - 1, tuple(
        (col[0],) + tuple(-x for x in col[1:]) for col in zip(*b2.data)))
    if not _table_is_scaled(v, h, m.data, one):
        raise AssertionError("reconstruction failed to reproduce the matrix")
    return YesCertificate(a=a2, b=b2, mu=mu, polytope=(v, h))


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
    e = _recognized(m)
    if e.polytope_no:
        raise ValueError("not a slack matrix of a polytope")
    if factors is not None:
        a, b = factors
        if a * b != m or a.cols != len(e.pivots):
            raise ValueError("supplied factors are not a rank factorization")
    return (_realized(m, e) if factors is None else _certificate(m, e, factors)).polytope


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

    That intersection is an H-polytope in R^q, x >= 0 with the affine hull
    as opposite pairs, whose vertices vertices_of_h_polytope enumerates; it
    must be bounded with every vertex a row.  Independent of
    is_polytope_slack and used as its cross-check oracle.
    """
    _require_nonnegative(m)
    if rank(m) < 2:
        raise ValueError("criterion needs rank at least two")
    q = m.cols
    r0 = m.row(0)
    diffs = Matrix([vsub(r, r0) for r in m.data[1:]], cols=q)
    rows = [(Fraction(0),) + vscale(Fraction(-1), unit(q, j)) for j in range(q)]
    for z in right_kernel_basis(diffs):
        beta = dot(z, r0)
        rows += [(beta,) + z, (-beta,) + vscale(Fraction(-1), z)]
    try:
        verts = vertices_of_h_polytope(PolytopeRep("H", q, tuple(rows)))
    except ValueError as e:
        # x >= 0 keeps the cone pointed, so only a recession ray is left.
        if str(e) != "H-polyhedron is unbounded":
            raise
        return False
    return set(verts) <= set(m.data)


def polar_realization(m: Matrix) -> tuple[PolytopeRep, Fraction]:
    """Polytope P with 0 interior realizing a positive multiple of m, whose
    polar realizes the transpose.

    Requires m and m^T to be polytope slack matrices.  The CCGC and the rank
    carry over to m^T (the cone slack matrices of K and K* are transposes),
    so only nu m = 1 is left, read off the realization is_polytope_slack
    builds and checks (beta_j - a_j . v_i = m_ij) once per Matrix object.
    Its chart is U = [c | e_t, t != i0] for m = A B, B the RREF, A c = 1 and
    i0 the first nonzero of c, so A U = [1 | V].  B's pivot columns are the
    identity, so nu m = 1 gives nu A = 1, nu [1 | V] = (alpha, 1, ..., 1)
    with alpha = 1 . c = 1 . mu, and nu exists iff every facet has alpha
    beta_j - sum_t a_jt = 1.  Then the points alpha v_i - 1 with facets
    a_j . x <= 1 have slack alpha m_ij.  Those returned, alpha m - J on the
    pivots less p_k (k the last nonzero of c), carry column p_i0 in place
    of p_k, which is -a_p_i0 . (alpha v - 1) by facet p_i0's slack and
    identity; a_p_i0 is c_k / c_i0 != 0 at p_k, so the map is invertible.
    """
    e = _recognized(m)
    if e.polytope_no:
        raise ValueError("matrix is not a polytope slack matrix")
    cert = _realized(m, e)
    alpha = sum(cert.mu)
    s, t = alpha.as_integer_ratio()
    h = cert.polytope[1].vectors
    if any(s * beta - t * sum(a) != t * d for (beta, *a), d in map(integer_vec, h)):
        raise ValueError("transpose is not a polytope slack matrix")
    nonzero = [i for i, x in enumerate(e.c) if x]
    i0, k = nonzero[0], nonzero[-1]
    if k != i0 and not h[e.pivots[i0]][k]:
        raise AssertionError("polar realization is not an image of the certificate's")
    piv = e.pivots[:k] + e.pivots[k + 1:]
    v = PolytopeRep._of("V", len(piv), tuple(
        tuple(Fraction(s * x - t * y, t * y)
              for x, y in (row[j].as_integer_ratio() for j in piv)) for row in m.data))
    return v, alpha
