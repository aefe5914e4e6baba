import itertools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from slackmat import (
    ConeRep,
    Matrix,
    lp,
    PolytopeRep,
    canonical_ray,
    dd_h_to_v,
    dd_v_to_h,
    dimension,
    homogenize,
    lineality_and_pointedness,
    minimal_vrep,
    polar,
    slack_of_cone,
    slack_of_polytope,
)
from slackmat import matrix
from slackmat.matrix import dot, integer_vec, primitive, rank, unit
from slackmat.polyhedra import (
    EmptyPolyhedronError,
    _dd,
    _slack_numerators,
    _table_is_scaled,
    contains_origin_interior,
    facet_inequalities,
    vertices_of_h_polytope,
)

from golden import (
    BISIMPLEX_VERTICES,
    PRISM_FACETS,
    PRISM_SCALED,
    PRISM_VERTICES,
    SQUARE_4GON,
    SQUARE_FACETS,
    SQUARE_HOMOG,
    SQUARE_HOMOG_A,
    SQUARE_HOMOG_B,
    SQUARE_VERTICES,
)
from oracles import (
    brute_force_rays,
    dd_h_to_v_rank_reference,
    lineality_rref_reference,
    origin_interior_lp_reference,
    project_off_reference,
)
from randgen import random_polytope, random_v_polytope_about_origin, rng

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


class TestCanonicalRay:
    def test_two_four(self):
        assert canonical_ray((2, 4)) == (F(1, 3), F(2, 3))

    def test_with_zero(self):
        assert canonical_ray((3, 0, 3)) == (F(1, 2), F(0), F(1, 2))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            canonical_ray((0, 0))

    def test_positive_multiples_collide(self):
        assert canonical_ray((1, -2)) == canonical_ray((F(1, 7), F(-2, 7)))


class TestDdHToV:
    def test_orthant(self):
        v = dd_h_to_v(ConeRep("H", 3, tuple(unit(3, i) for i in range(3))))
        assert v.lineality == ()
        assert set(v.vectors) == {unit(3, 0), unit(3, 1), unit(3, 2)}

    def test_halfplane(self):
        v = dd_h_to_v(ConeRep("H", 2, ((0, 1),)))
        assert len(v.lineality) == 1
        assert canonical_ray(v.lineality[0]) in (
            canonical_ray((1, 0)), canonical_ray((-1, 0))
        )
        assert v.vectors == ((F(0), F(1)),)

    def test_square_homogenization_normals(self):
        normals = ((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1))
        v = dd_h_to_v(ConeRep("H", 3, normals))
        want = {canonical_ray((1, sx, sy)) for sx in (1, -1) for sy in (1, -1)}
        assert set(v.vectors) == want
        assert v.lineality == ()

    def test_zero_cone(self):
        h = ConeRep("H", 2, ((1, 0), (-1, 0), (0, 1), (0, -1)))
        v = dd_h_to_v(h)
        assert v.vectors == () and v.lineality == ()


class TestDdVToH:
    def test_orthant(self):
        h = dd_v_to_h(ConeRep("V", 3, tuple(unit(3, i) for i in range(3))))
        assert {canonical_ray(b) for b in h.vectors} == {
            canonical_ray(unit(3, i)) for i in range(3)
        }

    def test_square_generators(self):
        gens = tuple((1, sx, sy) for sx in (1, -1) for sy in (1, -1))
        h = dd_v_to_h(ConeRep("V", 3, gens))
        want = {
            canonical_ray((1, 1, 0)), canonical_ray((1, -1, 0)),
            canonical_ray((1, 0, 1)), canonical_ray((1, 0, -1)),
        }
        assert {canonical_ray(b) for b in h.vectors} == want

    def test_prism_homogenization_facets(self):
        h = dd_v_to_h(homogenize(PRISM_VERTICES))
        want = {
            canonical_ray(b) for b in (
                (1, 0, 0, -1), (1, 0, 1, 0), (1, 1, -1, 0),
                (1, -1, -1, 0), (1, 0, 0, 1),
            )
        }
        assert {canonical_ray(b) for b in h.vectors} == want


class TestMinimalVrep:
    def test_detects_lineality(self):
        v = minimal_vrep(ConeRep("V", 2, ((0, 1), (0, 1), (1, 0), (-1, 0))))
        assert len(v.lineality) == 1
        assert v.vectors == ((F(0), F(1)),)

    def test_drops_interior_generator(self):
        v = minimal_vrep(ConeRep("V", 2, ((1, 0), (0, 1), (1, 1))))
        assert set(v.vectors) == {(F(1), F(0)), (F(0), F(1))}

    def test_identity_rows_unchanged(self):
        v = minimal_vrep(ConeRep("V", 3, tuple(unit(3, i) for i in range(3))))
        assert set(v.vectors) == {unit(3, i) for i in range(3)}


class TestLinealityAndPointedness:
    def test_orthant(self):
        h = ConeRep("H", 3, tuple(unit(3, i) for i in range(3)))
        assert lineality_and_pointedness(h) == (0, True)

    def test_halfplane(self):
        assert lineality_and_pointedness(ConeRep("H", 2, ((0, 1),))) == (1, False)

    def test_prism_homogenization(self):
        assert lineality_and_pointedness(dd_v_to_h(homogenize(PRISM_VERTICES))) == (0, True)

    def test_v_cone_matches_minimal_vrep(self):
        r = random.Random(5)
        for _ in range(60):
            n = r.randint(1, 4)
            gens = tuple(tuple(r.randint(-2, 2) for _ in range(n))
                         for _ in range(r.randint(0, 5)))
            c = ConeRep("V", n, gens)
            d = len(minimal_vrep(c).lineality)
            assert lineality_and_pointedness(c) == (d, d == 0)


E2 = ((1, 0), (-1, 0), (0, 1), (0, -1))


class TestDegenerateInputs:
    """Empty ambient spaces, no rows, zero rows, a pair of opposite rows and
    an entry far beyond float range, through each conversion: the vectors
    are read as H rows and as V generators."""

    @pytest.mark.parametrize("n, vectors, h_to_v, v_to_h, minimal, lin_h, lin_v", [
        (0, (), ((), ()), (), ((), ()), (0, True), (0, True)),
        (0, ((),), ((), ()), (), ((), ()), (0, True), (0, True)),
        (2, (), ((), ((1, 0), (0, 1))), E2, ((), ()), (2, False), (0, True)),
        (2, ((0, 0),), ((), ((1, 0), (0, 1))), E2, ((), ()), (2, False), (0, True)),
        (2, ((1, -1), (-1, 1)), ((), ((1, 1),)), ((1, 1), (-1, -1)),
         ((), ((1, -1),)), (1, False), (1, False)),
        (1, ((10**400,),), (((1,),), ()), ((1,),), (((1,),), ()), (0, True), (0, True)),
    ], ids=["R0-no-rows", "R0-empty-row", "R2-no-rows", "R2-zero-row",
            "opposite-pair", "R1-huge"])
    def test_outputs(self, n, vectors, h_to_v, v_to_h, minimal, lin_h, lin_v):
        h, v = ConeRep("H", n, vectors), ConeRep("V", n, vectors)
        assert dd_h_to_v(h) == ConeRep("V", n, *h_to_v)
        assert dd_v_to_h(v) == ConeRep("H", n, v_to_h)
        assert minimal_vrep(v) == ConeRep("V", n, *minimal)
        assert lineality_and_pointedness(h) == lin_h
        assert lineality_and_pointedness(v) == lin_v


class TestNoLinearSolve:
    """The lineality is cut by equations inside the one DD, so no ray is
    projected off it by a linear solve."""

    def test_conversions_solve_no_system(self, monkeypatch):
        calls, solve = [], matrix.solve_linear
        for name, mod in list(sys.modules.items()):
            if name == "slackmat" or name.startswith("slackmat."):
                for attr, value in list(vars(mod).items()):
                    if value is solve:
                        monkeypatch.setattr(mod, attr,
                                            lambda a, b: calls.append(a) or solve(a, b))
        # The points of C(12,4) in R^8, three coordinates free: lineality 3.
        cyclic = ConeRep("H", 8, tuple((1, t, t**2, t**3, t**4, 0, 0, 0)
                                       for t in range(1, 13)))
        v = dd_h_to_v(cyclic)
        assert len(v.lineality) == 3 and len(v.vectors) == 54
        assert len(dd_h_to_v(ConeRep("H", 3, ((1, 0, 0),))).lineality) == 2
        ray = ConeRep("V", 3, ((1, 0, 0),))  # its dual has a lineality of 2
        assert len(dd_v_to_h(ray).vectors) == 5
        assert minimal_vrep(ray) == ConeRep("V", 3, ((1, 0, 0),))
        assert calls == []


class TestHomogenize:
    def test_square_vertices(self):
        c = homogenize(SQUARE_VERTICES)
        assert set(c.vectors) == {
            (F(1), F(sx), F(sy)) for sx in (1, -1) for sy in (1, -1)
        }

    def test_triangle(self):
        tri = PolytopeRep("V", 2, ((1, 0), (0, 1), (0, 0)))
        assert homogenize(tri).vectors == (
            (F(1), F(1), F(0)), (F(1), F(0), F(1)), (F(1), F(0), F(0))
        )

    def test_h_form_sign_convention(self):
        seg = PolytopeRep("H", 1, ((1, 1), (0, -1)))  # x <= 1, -x <= 0
        c = homogenize(seg)
        assert c.vectors == ((F(1), F(-1)), (F(0), F(1)))


class TestSlackOfCone:
    def test_square_example_factors(self):
        assert slack_of_cone(SQUARE_HOMOG_A, SQUARE_HOMOG_B) == SQUARE_HOMOG

    def test_identity(self):
        assert slack_of_cone(Matrix.identity(3), Matrix.identity(3)) == Matrix.identity(3)

    def test_zero_row_passes_through(self):
        a = Matrix([[1, 0], [0, 0]])
        s = slack_of_cone(a, Matrix.identity(2))
        assert s.data[1] == (F(0), F(0))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            slack_of_cone(Matrix([[1, -1]]), Matrix([[0], [1]]))


class TestSlackOfPolytope:
    def test_prism_scaled_matrix(self):
        assert slack_of_polytope(PRISM_VERTICES, PRISM_FACETS) == PRISM_SCALED

    def test_square(self):
        assert slack_of_polytope(SQUARE_VERTICES, SQUARE_FACETS) == SQUARE_4GON

    def test_triangle_permuted_diagonal(self):
        v = PolytopeRep("V", 2, ((1, 0), (0, 1), (0, 0)))
        h = PolytopeRep("H", 2, ((0, -1, 0), (0, 0, -1), (1, 1, 1)))
        s = slack_of_polytope(v, h)
        for row in s.data:
            assert sum(1 for x in row if x == 0) == 2

    def test_outside_point_rejected(self):
        v = PolytopeRep("V", 2, ((2, 0),))
        with pytest.raises(ValueError):
            slack_of_polytope(v, SQUARE_FACETS)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_plain_formula(self, seed):
        r = rng(seed)
        for _ in range(20):
            v, h = random_polytope(r)
            n, pts = v.ambient_dim, v.points()
            centre = tuple(sum(p[j] for p in pts) / len(pts) for j in range(n))
            # Rows scaled by positive Fractions give mixed, large denominators.
            scales = [F(r.randint(1, 2**30), r.randint(1, 2**30)) for _ in h.vectors]
            h = PolytopeRep("H", n, tuple(
                tuple(c * x for x in row) for c, row in zip(scales, h.vectors)))
            v = PolytopeRep("V", n, pts + (centre,))
            want = Matrix([[beta - dot(a, p) for beta, a in h.inequalities()]
                           for p in v.points()], cols=len(h.vectors))
            assert slack_of_polytope(v, h) == want
            # A vertex pushed away from the centre leaves the polytope.
            out = PolytopeRep("V", n, (tuple(2 * x - c for x, c in zip(pts[0], centre)),))
            with pytest.raises(ValueError):
                slack_of_polytope(out, h)
            assert slack_of_polytope(PolytopeRep("V", n, ()), h) == Matrix(
                [], cols=len(h.vectors))
            assert slack_of_polytope(v, PolytopeRep("H", n, ())) == Matrix(
                [[]] * len(v.vectors), cols=0)


def _times(scale, m):
    return Matrix([[scale * x for x in row] for row in m.data], cols=m.cols)


class TestIntegerReproductionCheck:
    """`_table_is_scaled(v, h, rows, scale)`, with rows m's Fraction rows,
    decides slack_of_polytope(v, h) == scale * m without forming that
    matrix."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_fraction_comparison(self, seed):
        r = rng(seed)
        for _ in range(20):
            v, h = random_polytope(r)
            s = slack_of_polytope(v, h)
            scale = F(r.randint(1, 2**40), r.randint(1, 2**40))
            m = _times(1 / scale, s)
            i, j = r.randrange(s.rows), r.randrange(s.cols)
            changed = Matrix(
                [[x + F(1, 7) if (k, l) == (i, j) else x
                  for l, x in enumerate(row)] for k, row in enumerate(m.data)],
                cols=m.cols)
            cases = [(m, scale, True), (changed, scale, False),
                     (m, scale * F(8, 7), False),
                     (Matrix(m.data[1:], cols=m.cols), scale, False)]
            for mm, sc, want in cases:
                assert (slack_of_polytope(v, h) == _times(sc, mm)) == want
                assert _table_is_scaled(v, h, mm.data, sc) == want

    def test_outside_point_raises_like_slack_of_polytope(self):
        v = PolytopeRep("V", 2, ((2, 0),))
        with pytest.raises(ValueError, match="not contained"):
            list(_slack_numerators(v, SQUARE_FACETS))


class TestTrustedPolytopeRep:
    """`PolytopeRep._of` takes trusted Fraction rows as they are; the public
    constructor still converts and checks what it is given."""

    def test_same_value_as_public_construction(self):
        for form, rows in (("V", ((F(1), F(-2)), (F(1, 3), F(0)))),
                           ("H", ((F(1), F(2), F(-1, 2)),))):
            trusted = PolytopeRep._of(form, 2, rows)
            assert trusted == PolytopeRep(form, 2, rows)
            assert trusted.vectors is rows

    def test_public_construction_validates(self):
        assert PolytopeRep("V", 1, ((1,), (2,))).vectors == ((F(1),), (F(2),))
        with pytest.raises(ValueError, match="expected 2"):
            PolytopeRep("V", 2, ((1,),))
        with pytest.raises(ValueError, match="expected 3"):
            PolytopeRep("H", 2, ((1, 2),))
        with pytest.raises(ValueError, match="form"):
            PolytopeRep("Q", 2, ())


class TestDimension:
    def test_prism_v_form(self):
        assert dimension(PRISM_VERTICES) == 3

    def test_single_point(self):
        assert dimension(PolytopeRep("V", 3, ((1, 2, 3),))) == 0

    def test_square_h_form(self):
        assert dimension(SQUARE_FACETS) == 2

    def test_h_form_with_implicit_equality(self):
        h = PolytopeRep("H", 2, ((1, 1, 0), (-1, -1, 0), (1, 0, 1), (0, 0, -1)))
        assert dimension(h) == 1

    def test_empty_h_form_raises(self):
        h = PolytopeRep("H", 1, ((-1, 1), (0, -1)))  # x <= -1 and x >= 0
        with pytest.raises(EmptyPolyhedronError):
            dimension(h)

    def test_homogenization_adds_one(self):
        assert dimension(homogenize(PRISM_VERTICES)) == dimension(PRISM_VERTICES) + 1

    def test_cone_h_form_with_lineality(self):
        # x + y >= 0 and -x - y >= 0 in R^3: a plane.
        assert dimension(ConeRep("H", 3, ((1, 1, 0), (-1, -1, 0)))) == 2


def _cyclic(n, d):
    return PolytopeRep("V", d, tuple(tuple(F(t) ** k for k in range(1, d + 1))
                                     for t in range(1, n + 1)))


CUBE3_VERTICES = PolytopeRep("V", 3, tuple(itertools.product((0, 1), repeat=3)))


class TestDimensionLpCount:
    """A full-dimensional H-form takes one LP: the largest slack common to
    every inequality is positive."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        lp_solve = lp.lp_solve
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return lp_solve(*args, **kwargs)

        for n, mod in list(sys.modules.items()):
            if n == "slackmat" or n.startswith("slackmat."):
                for attr, value in list(vars(mod).items()):
                    if value is lp_solve:
                        monkeypatch.setattr(mod, attr, counting)
        return calls

    @pytest.mark.parametrize("v", [
        _cyclic(7, 4), _cyclic(6, 4), _cyclic(7, 3), CUBE3_VERTICES,
    ], ids=["cyclic7-4", "cyclic6-4", "cyclic7-3", "cube3"])
    def test_one_lp(self, lp_calls, v):
        h = facet_inequalities(v)
        lp_calls.clear()
        assert dimension(h) == v.ambient_dim
        assert len(lp_calls) == 1
        assert dimension(homogenize(h)) == v.ambient_dim + 1
        assert len(lp_calls) == 2


class TestPolar:
    def test_square_gives_diamond(self):
        p = polar(SQUARE_VERTICES)
        assert set(p.vectors) == {
            (F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))
        }

    def test_prism_gives_bisimplex(self):
        p = polar(PRISM_VERTICES)
        assert set(p.vectors) == BISIMPLEX_VERTICES

    def test_origin_outside_rejected(self):
        tri = PolytopeRep("V", 2, ((1, 1), (2, 1), (1, 2)))
        with pytest.raises(ValueError):
            polar(tri)

    def test_double_polar_recovers_square(self):
        p = polar(polar(SQUARE_VERTICES))
        assert set(p.vectors) == set(SQUARE_VERTICES.vectors)

    def test_lower_dimensional_rejected(self):
        segment = PolytopeRep("V", 2, ((-1, -1), (1, 1)))
        with pytest.raises(ValueError, match="not interior"):
            polar(segment)

    def test_point_in_r0_is_its_own_polar(self):
        assert polar(PolytopeRep("V", 0, ((),))).vectors == ((),)


class TestContainsOriginInterior:
    @pytest.mark.parametrize("p, want", [
        (SQUARE_VERTICES, True),
        (PolytopeRep("V", 2, ((1, 1), (2, 1), (1, 2))), False),
        (PolytopeRep("V", 2, ((-1, -1), (1, 1))), False),
        (PolytopeRep("V", 0, ((),)), True),
    ], ids=["square", "triangle-off-origin", "segment-through-0", "point-in-r0"])
    def test_cases(self, p, want):
        assert contains_origin_interior(p) == want

    def test_matches_lp_reference(self):
        # 1,000 seeded V-polytopes, lower-dimensional ones and 0 on the
        # boundary included, and the point of R^0: the facet offsets give
        # the LP route's answer, and polar raises exactly when it is False.
        r = rng(17)
        polys = [random_v_polytope_about_origin(r) for _ in range(1000)]
        answers = []
        for p in polys + [PolytopeRep("V", 0, ((),))]:
            want = origin_interior_lp_reference(p)
            assert contains_origin_interior(p) == want
            answers.append(want)
            if want:
                assert len(polar(p).vectors) >= 1
            else:
                with pytest.raises(ValueError, match="0 is not interior"):
                    polar(p)
        assert 200 < sum(answers) < 800

    def test_empty_polytope(self):
        empty = PolytopeRep("V", 2, ())
        with pytest.raises(ValueError, match="empty V-polytope"):
            contains_origin_interior(empty)
        with pytest.raises(ValueError, match="0 is not interior to the polytope"):
            polar(empty)


class TestVerticesOfHPolytope:
    """The homogenization cone is cut by t >= 0, so a polyhedron's vertices
    are read off rays with t > 0 and nothing comes from t < 0."""

    def test_point_in_r1(self):
        h = PolytopeRep("H", 1, ((0, 1), (0, -1)))
        assert vertices_of_h_polytope(h) == [(F(0),)]

    def test_empty_has_no_vertices(self):
        h = PolytopeRep("H", 1, ((0, 1), (-1, -1)))
        assert vertices_of_h_polytope(h) == []

    def test_empty_with_a_free_direction(self):
        # x <= 0 and x >= 1 with y free: the cone keeps the y axis as
        # lineality, and no ray has t > 0.
        h = PolytopeRep("H", 2, ((0, 1, 0), (-1, -1, 0)))
        assert vertices_of_h_polytope(h) == []

    def test_half_line_is_unbounded(self):
        h = PolytopeRep("H", 1, ((0, -1),))
        with pytest.raises(ValueError, match="unbounded"):
            vertices_of_h_polytope(h)

    def test_nonempty_strip_is_not_pointed(self):
        # -1 <= x <= 1 with y free: a ray has t > 0 and the y axis is lineality.
        h = PolytopeRep("H", 2, ((1, 1, 0), (1, -1, 0)))
        with pytest.raises(ValueError, match="^H-polyhedron is not pointed$"):
            vertices_of_h_polytope(h)


@st.composite
def h_cones(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    normals = draw(st.lists(
        st.lists(fracs, min_size=n, max_size=n), min_size=m, max_size=m,
    ))
    return ConeRep("H", n, tuple(tuple(x) for x in normals))


class TestDoubleDescriptionProperties:
    @given(h_cones())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_same_cone(self, h):
        v = dd_h_to_v(h)
        h2 = dd_v_to_h(v)
        for g in v.vectors:
            assert all(dot(b, g) >= 0 for b in h.vectors)
            assert all(dot(b, g) >= 0 for b in h2.vectors)
        for l in v.lineality:
            assert all(dot(b, l) == 0 for b in h.vectors)
        v2 = dd_h_to_v(h2)
        assert set(v2.vectors) == set(v.vectors)
        assert len(v2.lineality) == len(v.lineality)

    @given(h_cones())
    @settings(max_examples=80, deadline=None)
    def test_rays_are_extreme(self, h):
        v = dd_h_to_v(h)
        n = h.ambient_dim
        for r in v.vectors:
            tight = [b for b in h.vectors if dot(b, r) == 0]
            assert rank(Matrix(tight, cols=n)) == n - 1 - len(v.lineality)

    @given(h_cones())
    @settings(max_examples=40, deadline=None)
    def test_pointed_cones_match_brute_force(self, h):
        v = dd_h_to_v(h)
        if v.lineality:
            return
        assert set(v.vectors) == brute_force_rays(h.vectors, h.ambient_dim)


def check_dd_core(h, want):
    """`_dd` on the primitive int rows of h: every ray is a primitive int
    vector in the cone with its exact zero set, the lineality vectors span
    the reference's lineality space, and modulo that space the rays are the
    reference's extreme rays, each once."""
    n = h.ambient_dim
    rows = [primitive(integer_vec(b)[0]) for b in h.vectors]
    rays, lin = _dd(rows, n)
    for y, z in rays:
        assert any(y) and primitive(y) == y
        slacks = [sum(a * b for a, b in zip(row, y)) for row in rows]
        assert min(slacks, default=0) >= 0
        assert z == sum(1 << k for k, x in enumerate(slacks) if x == 0)
    assert (lineality_rref_reference(lin, n) if lin else ()) == want.lineality
    projected = [canonical_ray(project_off_reference(y, want.lineality))
                 for y, _ in rays]
    assert sorted(projected) == list(want.vectors)


def degenerate_h_cone(r):
    """Random H-cone in R^2..R^6 with up to 12 small-integer rows, plus
    duplicate, positively scaled and zero rows, so that many rays share
    tight rows and the cone is often not pointed."""
    n = r.randint(2, 6)
    rows = [tuple(r.randint(-2, 2) for _ in range(n)) for _ in range(r.randint(1, 12))]
    for _ in range(r.randint(0, 3)):
        kind = r.choice(("duplicate", "scaled", "zero"))
        if kind == "duplicate":
            row = r.choice(rows)
        elif kind == "scaled":
            c = F(r.randint(1, 3), r.randint(1, 3))
            row = tuple(c * x for x in r.choice(rows))
        else:
            row = (0,) * n
        rows.insert(r.randrange(len(rows) + 1), row)
    return ConeRep("H", n, tuple(rows))


def rational_rows(r, h):
    """The same cone up to a change of coordinates, with mixed denominators:
    column j is divided by its own d_j, and each row is scaled by a positive
    Fraction with numerator and denominator of up to 40 bits."""
    d = [r.randint(1, 12) for _ in range(h.ambient_dim)]
    rows = []
    for b in h.vectors:
        c = F(r.randint(1, 2**40), r.randint(1, 2**40))
        rows.append(tuple(c * x / dj for x, dj in zip(b, d)))
    return ConeRep("H", h.ambient_dim, tuple(rows))


class TestCombinatorialAdjacency:
    """Zero-set adjacency gives the same output as the rank test it
    replaced, on cones far more degenerate than the properties above."""

    @pytest.mark.parametrize("seed, rational", [
        *(pytest.param(seed, False, id=str(seed)) for seed in range(4)),
        *(pytest.param(seed, True, id="rational-%d" % seed) for seed in (4, 5)),
    ])
    def test_matches_rank_adjacency_reference(self, seed, rational):
        r = random.Random(seed)
        for _ in range(250):
            h = degenerate_h_cone(r)
            if rational:
                h = rational_rows(r, h)
            got, want = dd_h_to_v(h), dd_h_to_v_rank_reference(h)
            assert (got.vectors, got.lineality) == (want.vectors, want.lineality), h
            check_dd_core(h, want)

    @pytest.mark.parametrize("v", [
        PolytopeRep("V", 4, tuple(tuple(F(t) ** k for k in range(1, 5))
                                  for t in range(1, 11))),
        PolytopeRep("V", 4, tuple(itertools.product((F(0), F(1)), repeat=4))),
    ], ids=["C(10,4)", "cube4"])
    @pytest.mark.parametrize("side", ["points", "facets"])
    @pytest.mark.parametrize("drop", [0, 1], ids=["all-rows", "row-deleted"])
    def test_polytope_cones_match_rank_adjacency_reference(self, v, side, drop):
        # Cones whose DD skips pairs by the size of their common zero set:
        # up to 679 of 795 on C(10,4)'s facets, and 27 of 41 on the 4-cube's
        # points less one.
        rows = homogenize(v if side == "points" else facet_inequalities(v)).vectors
        h = ConeRep("H", 5, rows[drop:])
        got, want = dd_h_to_v(h), dd_h_to_v_rank_reference(h)
        assert (got.vectors, got.lineality) == (want.vectors, want.lineality)
        check_dd_core(h, want)
