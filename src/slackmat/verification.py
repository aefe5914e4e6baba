"""Polyhedral verification: does a V-polytope equal an H-polyhedron that
contains it?  Decided by slack-matrix recognition on the inputs cleared to ints."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .echelon import NoCertificate, _eliminate
from .matrix import Matrix, _echelon, integer_vec, primitive, rank
from .polyhedra import (
    PolytopeRep,
    _h_polytope_constraints,
    _implicit_equalities,
    _slack_ints,
    slack_of_polytope,
)

EQUAL = "equal"
NOT_POINTED = "not_pointed"
DIM_MISMATCH = "dim_mismatch"
SLACK_REJECT = "slack_reject"


@dataclass(frozen=True)
class VerificationResult:
    equal: bool
    reason: str
    witness: Optional[NoCertificate] = None
    dims: Optional[tuple[int, int]] = None


def containment_check(q: PolytopeRep, p: PolytopeRep) -> bool:
    """Every point of the V-polytope satisfies every inequality of the
    H-polyhedron."""
    if q.ambient_dim != p.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    try:
        slack_of_polytope(q, p)
    except ValueError:
        return False
    return True


def verify_polytope_equality(q: PolytopeRep, p: PolytopeRep) -> VerificationResult:
    """Decide P = Q for a V-polytope Q contained in an H-polyhedron P.

    Stages: P must be pointed (trivial right kernel of the inequality
    normals), dimensions must agree, and the matrix S of slacks of Q's points
    in P's inequalities must be a polytope slack matrix.  A failure at any
    stage proves P != Q.  All of it runs on P's rows and Q's points cleared
    to ints once; dim Q is one less than the rank of Q's lifted points.

    The elimination of [S | 1] comes first: S = [1 V] [beta -A]^T, so rank
    S = n + 1 for n >= 1 means P is pointed and dim Q = dim P = n.

    dim P is n minus the rank of P's implicit equalities, the inequalities
    tight on all of P.  Since Q lies in P, such an inequality is tight at
    every point of Q, so its column of the slack matrix is zero; every
    other column has slack at a point of P.  Only the zero columns get an
    LP, and Q's points already show that P is not empty.  When both
    dimensions are 0, P is the point Q; its slack matrix has rank below two
    and is never recognized, so that case is decided first.
    """
    if q.form != "V" or p.form != "H":
        raise ValueError("need a V-polytope and an H-polyhedron")
    if q.ambient_dim != p.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    pts, rows = [integer_vec(v) for v in q.vectors], [integer_vec(r) for r in p.vectors]
    slack = tuple(_slack_ints(pts, rows))  # raises when Q is not inside P
    if not pts:
        raise ValueError("empty V-polytope")
    n = p.ambient_dim
    e = _eliminate([r for r, _ in slack], [(d, 1) for _, d in slack],
                   [(1, 1)] * len(rows))
    if n == 0 or len(e.pivots) <= n:
        if len(_echelon([primitive(r[1:]) for r, _ in rows], n)[1]) < n:
            return VerificationResult(False, NOT_POINTED)
        dim_q = len(_echelon([primitive((d,) + r) for r, d in pts], n + 1)[1]) - 1
        zero = [j for j, col in enumerate(zip(*(r for r, _ in slack))) if not any(col)]
        eqs = _implicit_equalities(_h_polytope_constraints(p), zero) if zero else []
        dim_p = n - rank(Matrix(eqs, cols=n))
        if dim_q != dim_p:
            return VerificationResult(False, DIM_MISMATCH, dims=(dim_q, dim_p))
        if dim_q == 0:
            return VerificationResult(True, EQUAL)  # two single points, Q in P
    if e.polytope_no:
        return VerificationResult(False, SLACK_REJECT, witness=e.polytope_no)
    return VerificationResult(True, EQUAL)
