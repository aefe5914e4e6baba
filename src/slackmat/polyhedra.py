"""Cones, polytopes, and exact double-description conversion.

Conventions:
  * cone H-form rows are normals b meaning b.x >= 0; linear equations are
    encoded as opposite inequality pairs (b and -b),
  * polytope H-form rows are pairs (beta, a) meaning a.x <= beta,
  * V-forms list generators / points; cone V-forms may carry a separate
    lineality basis.

The double-description run inserts inequalities in input order, keeping a
basis of the current lineality space alongside the extreme rays of the
pointed quotient.  Rows, rays and lineality vectors are carried as primitive
integer vectors; rays become canonical Fractions only on output.  Each ray
carries its zero set, a bitmask of the inserted rows it is tight on, and ray
adjacency is the combinatorial test of Fukuda and Prodon on those sets, with
no rank computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .matrix import (
    Matrix,
    Vec,
    _cleared,
    _echelon,
    _kernel_basis,
    dot,
    integer_vec,
    primitive,
    rank,
    rref,
    unit,
    vec,
    vscale,
)
from . import lp
from .lp import Constraint


class EmptyPolyhedronError(ValueError):
    """Raised when an H-form system has no point at all."""


@dataclass(frozen=True)
class ConeRep:
    """A polyhedral cone, as generators ("V") or inequality normals ("H")."""

    form: str
    ambient_dim: int
    vectors: tuple[Vec, ...]
    lineality: tuple[Vec, ...] = ()

    def __post_init__(self):
        if self.form not in ("V", "H"):
            raise ValueError("form must be 'V' or 'H'")
        object.__setattr__(self, "vectors", tuple(vec(v) for v in self.vectors))
        object.__setattr__(self, "lineality", tuple(vec(v) for v in self.lineality))
        for v in self.vectors + self.lineality:
            if len(v) != self.ambient_dim:
                raise ValueError("vector length != ambient dimension")
        if self.form == "H" and self.lineality:
            raise ValueError("lineality basis only makes sense for V-form")


@dataclass(frozen=True)
class PolytopeRep:
    """A polytope, as points ("V") or inequalities a.x <= beta ("H").

    H-form rows are (beta, a) pairs stored as vectors of length n+1.
    """

    form: str
    ambient_dim: int
    vectors: tuple[Vec, ...]

    def __post_init__(self):
        if self.form not in ("V", "H"):
            raise ValueError("form must be 'V' or 'H'")
        object.__setattr__(self, "vectors", tuple(vec(v) for v in self.vectors))
        want = self.ambient_dim + (1 if self.form == "H" else 0)
        for v in self.vectors:
            if len(v) != want:
                raise ValueError("vector length != expected %d" % want)

    @classmethod
    def _of(cls, form: str, ambient_dim: int, vectors: tuple[Vec, ...]):
        """A polytope of trusted vectors: a tuple of Fraction tuples of the
        length the form asks for, taken as they are."""
        p = object.__new__(cls)
        p.__dict__.update(form=form, ambient_dim=ambient_dim, vectors=vectors)
        return p

    def points(self) -> tuple[Vec, ...]:
        if self.form != "V":
            raise ValueError("not a V-form polytope")
        return self.vectors

    def inequalities(self) -> list[tuple[Fraction, Vec]]:
        if self.form != "H":
            raise ValueError("not an H-form polytope")
        return [(row[0], row[1:]) for row in self.vectors]


def canonical_ray(v: Sequence[Fraction]) -> Vec:
    """Scale a nonzero vector positively so its 1-norm is one.

    Two vectors are positive multiples of each other iff their canonical
    forms coincide; this is the comparison form used throughout recognition.
    """
    p, _ = integer_vec(v)
    s = sum(map(abs, p))
    if s == 0:
        raise ValueError("cannot canonicalize the zero vector")
    return tuple(Fraction(x, s) for x in p)


def _lineality_rref_basis(vectors: Sequence[Vec], n: int) -> tuple[Vec, ...]:
    r, _, rk = rref(Matrix(vectors, cols=n))
    return tuple(r.data[i] for i in range(rk))


def _dd(rows: Sequence[tuple[int, ...]], n: int):
    """Double description of {x in R^n : b.x >= 0} over primitive int rows:
    (rays, lin), the extreme rays as (primitive int ray, zero set) pairs, bit
    k of a zero set set iff row k is tight, and int vectors spanning the
    lineality space.  Rays are unique only up to that space."""
    lin = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays: list[tuple[tuple[int, ...], int]] = []
    for k, b in enumerate(rows):
        bit = 1 << k
        vals = [sum(map(mul, b, w)) for w in lin]
        if any(vals):
            i0 = next(i for i, x in enumerate(vals) if x != 0)
            s, v0 = vals[i0], lin[i0]
            if s < 0:
                s, v0 = -s, tuple(-x for x in v0)  # b.v0 == s > 0

            def off(w):  # s w - (b.w) v0, which b is tight on
                x = sum(map(mul, b, w))
                return primitive([s * y - x * z for y, z in zip(w, v0)])

            lin = [off(w) for i, w in enumerate(lin) if i != i0]
            rays = [(off(r), z | bit) for r, z in rays]
            rays = [(r, z) for r, z in rays if any(r)]
            rays.append((v0, bit - 1))  # tight on every earlier row
        else:
            signed = [(sum(map(mul, b, r)), r, z) for r, z in rays]
            rays = [(r, z | bit if s == 0 else z) for s, r, z in signed if s >= 0]
            # Extreme rays have distinct zero sets, and two of them are
            # adjacent iff no third one's zero set contains their common one,
            # whose rows then have rank n - len(lin) - 2: at least that many.
            zs = [z for _, _, z in signed]
            pos = [t for t in signed if t[0] > 0]
            need = n - len(lin) - 2
            for sm, rm, zm in (t for t in signed if t[0] < 0):
                for sp, rp, zp in pos:
                    common = zm & zp
                    if common.bit_count() >= need and all(
                            z & common != common for z in zs if z != zm and z != zp):
                        comb = primitive([sp * x - sm * y for x, y in zip(rm, rp)])
                        rays.append((comb, common | bit))
    return rays, lin


def dd_h_to_v(h: ConeRep) -> ConeRep:
    """Minimal V-representation of an H-form cone via double description.

    The lineality space is the kernel of the rows, read off one elimination.
    The DD runs on the rows plus that kernel's equations (each basis vector
    and its negation), so its cone is the pointed part C cap L^perp, whose
    extreme rays are the output rays: canonical, orthogonal to the lineality
    space, and sorted.  The lineality basis is in RREF.
    """
    if h.form != "H":
        raise ValueError("expected H-form cone")
    n = h.ambient_dim
    rows = [primitive(integer_vec(b)[0]) for b in h.vectors]
    lin = _cleared(_kernel_basis(*_echelon(list(rows), n), n))
    rays, _ = _dd(rows + lin + [tuple(-x for x in v) for v in lin], n)
    out = sorted({canonical_ray(r) for r, _ in rays})
    return ConeRep("V", n, tuple(out), _lineality_rref_basis(lin, n))


def dd_v_to_h(v: ConeRep) -> ConeRep:
    """Minimal H-representation: facet normals plus opposite pairs spanning
    the orthogonal complement of the cone's linear span."""
    if v.form != "V":
        raise ValueError("expected V-form cone")
    n = v.ambient_dim
    dual_rows = list(v.vectors)
    for l in v.lineality:
        dual_rows.append(l)
        dual_rows.append(vscale(Fraction(-1), l))
    dual = dd_h_to_v(ConeRep("H", n, tuple(dual_rows)))
    normals = list(dual.vectors)
    for l in dual.lineality:
        normals.append(l)
        normals.append(vscale(Fraction(-1), l))
    return ConeRep("H", n, tuple(normals))


def minimal_vrep(v: ConeRep) -> ConeRep:
    """Canonical minimal V-form: extreme rays of the pointed quotient plus a
    lineality basis; duplicates, zero vectors and redundant generators go."""
    if v.form != "V":
        raise ValueError("expected V-form cone")
    return dd_h_to_v(dd_v_to_h(v))


def lineality_and_pointedness(c: ConeRep) -> tuple[int, bool]:
    """Lineality dimension, and whether it is zero.  The lineality space of
    {x : b.x >= 0} is the kernel of its normals, so a V-cone takes one DD to
    an H-form first."""
    h = c if c.form == "H" else dd_v_to_h(c)
    d = h.ambient_dim - rank(Matrix(h.vectors, cols=h.ambient_dim))
    return d, d == 0


def homogenize(p: PolytopeRep) -> ConeRep:
    """Cone over {1} x P; V points become (1, v), H rows (beta, a) become
    normals (beta, -a) under the b.x >= 0 convention."""
    n = p.ambient_dim
    if p.form == "V":
        gens = tuple((Fraction(1),) + pt for pt in p.vectors)
        return ConeRep("V", n + 1, gens)
    normals = tuple(
        (beta,) + vscale(Fraction(-1), a) for beta, a in p.inequalities()
    )
    return ConeRep("H", n + 1, normals)


def slack_of_cone(a: Matrix, b: Matrix) -> Matrix:
    """S = A B for a (V, H) representation pair; every entry must be >= 0."""
    s = a * b
    if not s.is_nonnegative():
        raise ValueError("not a representation pair: negative slack entry")
    return s


def _slack_numerators(v: PolytopeRep, h: PolytopeRep):
    """Per point, the slack row cleared to (ints, d) with d > 0."""
    if v.form != "V" or h.form != "H":
        raise ValueError("need a V-form polytope and an H-form polytope")
    if v.ambient_dim != h.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return _slack_ints(map(integer_vec, v.vectors), [integer_vec(r) for r in h.vectors])


def _slack_ints(points, rows):
    """`_slack_numerators` of points and H rows already cleared to (ints, d)."""
    # Over the lcm L of the rows' d, (beta, a) = (B, A) / L in integers, and
    # with v = P / dp the slack is (B, A).(dp, -P) / (L dp).
    big = lcm(*(d for _, d in rows))
    ineqs = [[x * (big // d) for x in row] for row, d in rows]
    for p, dp in points:
        w = (dp,) + tuple([-x for x in p])
        nums = tuple([sum(map(mul, row, w)) for row in ineqs])
        if any(x < 0 for x in nums):
            raise ValueError("points are not contained in the H-polytope")
        yield nums, big * dp


def slack_of_polytope(v: PolytopeRep, h: PolytopeRep) -> Matrix:
    """S_ij = beta_j - a_j . v_i; a negative entry means v is not inside h."""
    rows = [[Fraction(x, d) for x in nums] for nums, d in _slack_numerators(v, h)]
    return Matrix(rows, cols=len(h.vectors))


def _table_is_scaled(v: PolytopeRep, h: PolytopeRep, rows: Sequence[Vec],
                     scale: Fraction) -> bool:
    """Whether slack_of_polytope(v, h) is scale times the matrix with these
    Fraction rows, decided by cross-multiplying ints.  Each point and each
    H row is cleared over its own denominator, not one lcm over all H rows,
    so positive column scalings of the matrix do not add up in one integer."""
    s, t = scale.as_integer_ratio()
    ineqs = [integer_vec(r) for r in h.vectors]
    if len(v.vectors) != len(rows):
        return False
    for pt, row in zip(v.vectors, rows):
        if len(row) != len(ineqs):
            return False
        p, dp = integer_vec(pt)
        w, sdp = (dp,) + tuple([-x for x in p]), s * dp
        for (a, e), y in zip(ineqs, row):
            yn, yd = y.as_integer_ratio()
            if sum(map(mul, a, w)) * t * yd != yn * sdp * e:
                return False
    return True


def _h_polytope_constraints(h: PolytopeRep) -> list[Constraint]:
    return [Constraint(a, lp.LE, beta) for beta, a in h.inequalities()]


def _implicit_equalities(constraints: list[Constraint],
                         tight: Sequence[int]) -> list[Vec]:
    """Normals of the rows a.x <= beta that are tight on the whole feasible set.

    `tight` indexes the rows tight at some known feasible points; a row with
    slack at a feasible point is not tight on the whole set, so only these
    rows get an LP.  For the points of a V-polytope Q inside P, they are the
    zero columns of the slack matrix of Q in P.
    """
    normals = []
    for ci in (constraints[i] for i in tight):
        # Maximize the slack of row i; cap it at 1 to keep the LP bounded.
        slack_obj = vscale(Fraction(-1), ci.coeffs)
        capped = constraints + [Constraint(slack_obj, lp.LE, 1 - ci.rhs)]
        out = lp.lp_solve(slack_obj, capped, sense="max")
        # The cap can cut away the whole feasible set when the slack is
        # bounded below by more than one; such a row is certainly not tight.
        if out.status == lp.OPTIMAL and out.value + ci.rhs == 0:
            normals.append(ci.coeffs)
    return normals


def dimension(rep: ConeRep | PolytopeRep) -> int:
    """Linear (cone) or affine (polytope) dimension of the represented set."""
    n = rep.ambient_dim
    if isinstance(rep, ConeRep):
        if rep.form == "V":
            m = Matrix(rep.vectors + rep.lineality, cols=n)
            return rank(m)
        constraints = [Constraint(vscale(Fraction(-1), b), lp.LE, 0)
                       for b in rep.vectors]
    elif rep.form == "V":
        if not rep.vectors:
            raise ValueError("empty V-polytope")
        return rank(Matrix([(1,) + p for p in rep.vectors], cols=n + 1)) - 1
    else:
        constraints = _h_polytope_constraints(rep)
    # Maximize a common slack t <= 1 added to every row a.x <= beta: t* < 0
    # means no point, t* > 0 an interior point, and at t* = 0 the rows with
    # slack at the optimum are not implicit equalities.
    widened = [Constraint(ci.coeffs + (1,), lp.LE, ci.rhs) for ci in constraints]
    widened.append(Constraint(unit(n + 1, n), lp.LE, 1))
    out = lp.lp_solve(unit(n + 1, n), widened, sense="max")
    if out.value < 0:
        raise EmptyPolyhedronError("empty")
    if out.value > 0:
        return n
    x = out.point[:n]
    tight = [i for i, ci in enumerate(constraints) if dot(ci.coeffs, x) == ci.rhs]
    normals = _implicit_equalities(constraints, tight)
    return n - rank(Matrix(normals, cols=n))


def contains_origin_interior(p: PolytopeRep) -> bool:
    """Exact test for 0 being in the (full-dimensional) interior of a
    V-polytope, read off its facet offsets (`_interior_facets`)."""
    if p.form == "V" and not p.vectors:
        raise ValueError("empty V-polytope")
    return _interior_facets(p) is not None


def facet_inequalities(p: PolytopeRep) -> PolytopeRep:
    """Minimal H-form of a V-polytope, computed through the homogenization
    cone.  Facet rows come back as (beta, a) with a.x <= beta; implicit
    equalities appear as opposite pairs."""
    cone_h = dd_v_to_h(homogenize(p))
    rows = []
    for b in cone_h.vectors:
        beta, tail = b[0], b[1:]
        rows.append((beta,) + vscale(Fraction(-1), tail))
    return PolytopeRep("H", p.ambient_dim, tuple(rows))


def vertices_of_h_polytope(h: PolytopeRep) -> list[Vec]:
    """Vertices of a bounded H-polytope, none if it is empty; raises if a
    recession ray exists."""
    n = h.ambient_dim
    cone = homogenize(h)  # and t >= 0, so that t < 0 adds no ray
    cone_v = dd_h_to_v(ConeRep("H", n + 1, cone.vectors + (unit(n + 1, 0),)))
    # Lineality lies in t = 0, so the polyhedron is empty iff no ray has t > 0.
    if all(r[0] == 0 for r in cone_v.vectors):
        return []
    if cone_v.lineality:
        raise ValueError("H-polyhedron is not pointed")
    verts = []
    for r in cone_v.vectors:
        if r[0] == 0:
            raise ValueError("H-polyhedron is unbounded")
        verts.append(vscale(Fraction(1) / r[0], r[1:]))
    return verts


def _interior_facets(p: PolytopeRep) -> Optional[list[tuple[Fraction, Vec]]]:
    """The facets (beta, a) of a V-polytope when 0 is interior to it, else
    None.  0 is interior iff every facet offset is positive; an implicit
    equality comes as an opposite pair, and one row of it has beta <= 0."""
    if p.form != "V":
        raise ValueError("expected V-form polytope")
    facets = facet_inequalities(p).inequalities()
    return None if any(beta <= 0 for beta, _ in facets) else facets


def polar(p: PolytopeRep) -> PolytopeRep:
    """Polar dual of a V-polytope with 0 strictly interior: the facet
    normals scaled so each inequality reads a.x <= 1 become the points."""
    facets = _interior_facets(p)
    if facets is None:
        raise ValueError("0 is not interior to the polytope")
    verts = {vscale(Fraction(1) / beta, a) for beta, a in facets}
    return PolytopeRep("V", p.ambient_dim, tuple(sorted(verts)))
