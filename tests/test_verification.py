import itertools
import sys
from fractions import Fraction as F

import pytest

from slackmat import (
    Matrix,
    PolytopeRep,
    containment_check,
    dimension,
    lp,
    polar,
    rank,
    verify_no_certificate,
    verify_polytope_equality,
)
from slackmat import matrix, polyhedra, recognition, verification
from slackmat.polyhedra import (
    contains_origin_interior,
    facet_inequalities,
    slack_of_polytope,
    vertices_of_h_polytope,
)
from slackmat.verification import DIM_MISMATCH, EQUAL, NOT_POINTED, SLACK_REJECT

from golden import (
    BISIMPLEX_VERTICES,
    PRISM_FACETS,
    PRISM_VERTICES,
    SQUARE_FACETS,
    SQUARE_VERTICES,
)
from oracles import (
    implicit_equalities_tangent_reference,
    verify_equality_fraction_reference,
)
from randgen import (
    edge,
    embed,
    on_facet,
    random_polytope,
    rng,
    verification_edge_cases,
    verification_variants,
)


class TestContainment:
    def test_square_in_square(self):
        assert containment_check(SQUARE_VERTICES, SQUARE_FACETS)

    def test_outside_point(self):
        q = PolytopeRep("V", 2, ((2, 0),))
        assert not containment_check(q, SQUARE_FACETS)

    def test_prism(self):
        assert containment_check(PRISM_VERTICES, PRISM_FACETS)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            containment_check(PolytopeRep("V", 3, ((0, 0, 0),)), SQUARE_FACETS)


class TestVerifyEquality:
    def test_square_equal(self):
        res = verify_polytope_equality(SQUARE_VERTICES, SQUARE_FACETS)
        assert res.equal and res.reason == EQUAL

    def test_prism_equal(self):
        res = verify_polytope_equality(PRISM_VERTICES, PRISM_FACETS)
        assert res.equal and res.reason == EQUAL

    def test_missing_vertex_detected(self):
        q = PolytopeRep("V", 2, SQUARE_VERTICES.vectors[:3])
        res = verify_polytope_equality(q, SQUARE_FACETS)
        assert not res.equal
        assert res.reason == SLACK_REJECT
        m = slack_of_polytope(q, SQUARE_FACETS)
        assert verify_no_certificate(m, res.witness)

    def test_not_pointed_h_form(self):
        # A strip: only the y direction is constrained.
        strip = PolytopeRep("H", 2, ((1, 0, 1), (1, 0, -1)))
        q = PolytopeRep("V", 2, ((0, 0), (0, 1)))
        res = verify_polytope_equality(q, strip)
        assert not res.equal and res.reason == NOT_POINTED

    def test_dim_mismatch(self):
        q = PolytopeRep("V", 2, ((0, 0), (1, 0)))
        res = verify_polytope_equality(q, SQUARE_FACETS)
        assert not res.equal
        assert res.reason == DIM_MISMATCH
        assert res.dims == (1, 2)

    @pytest.mark.parametrize("q, p", [
        (PolytopeRep("V", 0, ((),)), PolytopeRep("H", 0, ())),
        (PolytopeRep("V", 1, ((0,),)), PolytopeRep("H", 1, ((0, 1), (0, -1)))),
        # (1, 2, 3) cut out by three equality pairs, and one slack row.
        (PolytopeRep("V", 3, ((1, 2, 3),)),
         PolytopeRep("H", 3, ((1, 1, 0, 0), (-1, -1, 0, 0), (2, 0, 1, 0),
                              (-2, 0, -1, 0), (3, 0, 0, 1), (-3, 0, 0, -1),
                              (7, 1, 1, 1)))),
    ], ids=["R0", "R1", "R3"])
    def test_single_point_equal(self, q, p):
        res = verify_polytope_equality(q, p)
        assert res.equal and res.reason == EQUAL

    def test_no_inequalities_in_r2_not_pointed(self):
        res = verify_polytope_equality(PolytopeRep("V", 2, ((0, 0),)),
                                       PolytopeRep("H", 2, ()))
        assert (res.equal, res.reason) == (False, NOT_POINTED)

    def test_ambient_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="^ambient dimension mismatch$"):
            verify_polytope_equality(PolytopeRep("V", 3, ((0, 0, 0),)), SQUARE_FACETS)

    def test_containment_violation_raises(self):
        q = PolytopeRep("V", 2, ((3, 0),))
        with pytest.raises(ValueError):
            verify_polytope_equality(q, SQUARE_FACETS)


class TestAgainstEnumerationOracle:
    def test_random_pairs_and_vertex_deletions(self):
        r = rng(23)
        for _ in range(8):
            v, h = random_polytope(r, max_dim=3)
            res = verify_polytope_equality(v, h)
            assert res.equal, (v, h, res.reason)
            if len(v.vectors) > v.ambient_dim + 1:
                trimmed = PolytopeRep("V", v.ambient_dim, v.vectors[1:])
                res2 = verify_polytope_equality(trimmed, h)
                # Deleting a vertex of a minimal V-form must flip the verdict.
                hull = {tuple(x) for x in facet_inequalities(trimmed).vectors}
                full = {tuple(x) for x in h.vectors}
                expect_equal = hull == full
                assert res2.equal == expect_equal

    def test_equal_matches_vertex_sets(self):
        r = rng(31)
        for _ in range(5):
            v, h = random_polytope(r, max_dim=3)
            assert set(vertices_of_h_polytope(h)) == set(v.vectors)


CUBE3_VERTICES = PolytopeRep("V", 3, tuple(itertools.product((-1, 1), repeat=3)))
CUBE3_FACETS = PolytopeRep("H", 3, tuple(
    (1,) + tuple(s if j == i else 0 for j in range(3))
    for i in range(3) for s in (1, -1)
))
SOLIDS = pytest.mark.parametrize("q, p", [
    (PRISM_VERTICES, PRISM_FACETS),
    (CUBE3_VERTICES, CUBE3_FACETS),
], ids=["prism", "cube3"])


class TestLpCount:
    """Only inequalities tight at every point of Q can be implicit
    equalities of P, so only those get an LP."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        lp_solve = lp.lp_solve
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return lp_solve(*args, **kwargs)

        mods = [m for n, m in sys.modules.items()
                if n == "slackmat" or n.startswith("slackmat.")]
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if value is lp_solve:
                    monkeypatch.setattr(mod, name, counting)
        return calls

    @SOLIDS
    def test_no_lp_without_zero_columns(self, lp_calls, q, p):
        cases = [
            (q, p, EQUAL),
            (PolytopeRep("V", 3, q.vectors[1:]), p, SLACK_REJECT),
            (q, PolytopeRep("H", 3, p.vectors[1:]), SLACK_REJECT),
        ]
        for qq, pp, reason in cases:
            assert verify_polytope_equality(qq, pp).reason == reason
        assert lp_calls == []

    @SOLIDS
    def test_one_facet_is_one_lp(self, lp_calls, q, p):
        res = verify_polytope_equality(on_facet(q, p, 0), p)
        assert not res.equal and res.reason == DIM_MISMATCH
        assert res.dims == (2, 3)
        assert len(lp_calls) == 1

    def test_explicit_equality_pair(self, lp_calls):
        res = verify_polytope_equality(*embed(SQUARE_VERTICES, SQUARE_FACETS))
        assert res.equal and res.reason == EQUAL
        assert len(lp_calls) == 2

    @pytest.mark.parametrize("v, want", [
        (SQUARE_VERTICES, {(1, 0), (-1, 0), (0, 1), (0, -1)}),
        (PRISM_VERTICES, BISIMPLEX_VERTICES),
    ], ids=["square", "prism"])
    def test_polar_runs_no_lp(self, lp_calls, v, want):
        assert set(polar(v).vectors) == want
        assert lp_calls == []

    @pytest.mark.parametrize("v, want", [
        (SQUARE_VERTICES, True),
        (PRISM_VERTICES, True),
        (PolytopeRep("V", 2, ((1, 1), (2, 1), (1, 2))), False),
        (PolytopeRep("V", 2, ((-1, -1), (1, 1))), False),
    ], ids=["square", "prism", "triangle-off-origin", "segment-through-0"])
    def test_contains_origin_interior_runs_no_lp(self, lp_calls, v, want):
        assert contains_origin_interior(v) == want
        assert lp_calls == []

    @pytest.fixture
    def tight_rows(self, monkeypatch):
        """The row indices verification passes to _implicit_equalities."""
        implicit, seen = verification._implicit_equalities, []

        def spy(constraints, tight):
            seen.append(list(tight))
            return implicit(constraints, tight)

        monkeypatch.setattr(verification, "_implicit_equalities", spy)
        return seen

    @pytest.mark.parametrize("q, p, want", [
        (on_facet(PRISM_VERTICES, PRISM_FACETS, 0), PRISM_FACETS, [0]),
        (*embed(SQUARE_VERTICES, SQUARE_FACETS), [4, 5]),
        (*embed(PRISM_VERTICES, PRISM_FACETS), [5, 6]),
        (*embed(on_facet(PRISM_VERTICES, PRISM_FACETS, 0), PRISM_FACETS),
         [0, 5, 6]),
    ], ids=["prism-one-facet", "square-embedded", "prism-embedded",
            "prism-one-facet-embedded"])
    def test_only_zero_columns_are_passed(self, tight_rows, q, p, want):
        s = slack_of_polytope(q, p)
        zero = [j for j in range(s.cols) if all(row[j] == 0 for row in s.data)]
        verify_polytope_equality(q, p)
        assert tight_rows == [zero] == [want]


class TestImplicitEqualities:
    """The LP route to P's implicit equalities against the tangent cone at
    Q's centroid, on the 1,000-pair parity inputs of each generator."""

    @pytest.mark.parametrize("generator, seed", [
        (verification_variants, 14), (verification_edge_cases, 15),
    ], ids=["variants", "edge-cases"])
    def test_identical_to_tangent_cone_route(self, generator, seed):
        r = rng(seed)
        pairs, kinds = 0, set()
        while pairs < 1000:
            for q, p in generator(r):
                pairs += 1
                s = slack_of_polytope(q, p)
                zero = [j for j in range(s.cols) if all(row[j] == 0 for row in s.data)]
                if zero:
                    got = polyhedra._implicit_equalities(
                        polyhedra._h_polytope_constraints(p), zero)
                    assert got == implicit_equalities_tangent_reference(q, p)
                    kinds.add("none" if not got else "all" if len(got) == len(zero)
                              else "some")
        assert kinds >= {"none", "all"}


class TestRankShortcut:
    """rank S = n + 1 proves P pointed and dim Q = dim P = n, so such a pair
    goes from the one elimination of [S | 1] straight to recognition."""

    @pytest.fixture
    def echelons(self, monkeypatch):
        """(rows, columns) of every _echelon call."""
        echelon, shapes = matrix._echelon, []

        def spy(a, ncols):
            shapes.append((len(a), ncols))
            return echelon(a, ncols)

        for name, mod in list(sys.modules.items()):
            if name == "slackmat" or name.startswith("slackmat."):
                for attr, value in list(vars(mod).items()):
                    if value is echelon:
                        monkeypatch.setattr(mod, attr, spy)
        return shapes

    @SOLIDS
    @pytest.mark.parametrize("case, reason", [
        ("equal", EQUAL), ("vertex-deleted", SLACK_REJECT),
        ("facet-deleted", SLACK_REJECT),
    ])
    def test_full_dimensional_pair_is_one_elimination(self, echelons, q, p,
                                                      case, reason):
        if case == "vertex-deleted":
            q = PolytopeRep("V", 3, q.vectors[1:])
        elif case == "facet-deleted":
            p = PolytopeRep("H", 3, p.vectors[1:])
        assert verify_polytope_equality(q, p).reason == reason
        # Only [S | 1]: none on P's normals (n columns) or Q's lifted points.
        assert echelons == [(len(q.vectors), len(p.vectors) + 1)]

    @pytest.mark.parametrize("q, p, reason", [
        (on_facet(PRISM_VERTICES, PRISM_FACETS, 0), PRISM_FACETS, DIM_MISMATCH),
        (*embed(SQUARE_VERTICES, SQUARE_FACETS), EQUAL),
        (PolytopeRep("V", 2, ((0, 0), (0, 1))),
         PolytopeRep("H", 2, ((1, 0, 1), (1, 0, -1))), NOT_POINTED),
        (PolytopeRep("V", 0, ((),)), PolytopeRep("H", 0, ()), EQUAL),
        # 0 <= 1 makes rank S = 1 = n + 1 in R^0, and the point is still P.
        (PolytopeRep("V", 0, ((),)), PolytopeRep("H", 0, ((1,), (0,))), EQUAL),
        (PolytopeRep("V", 1, ((0,),)), PolytopeRep("H", 1, ((0, 1), (0, -1))),
         EQUAL),
        (PolytopeRep("V", 3, ((1, 2, 3),)),
         PolytopeRep("H", 3, ((1, 1, 0, 0), (-1, -1, 0, 0), (2, 0, 1, 0),
                              (-2, 0, -1, 0), (3, 0, 0, 1), (-3, 0, 0, -1),
                              (7, 1, 1, 1))), EQUAL),
    ], ids=["prism-one-facet", "square-embedded", "strip", "point-R0",
            "point-R0-rows", "point-R1", "point-R3"])
    def test_lower_rank_pairs_run_the_stages(self, echelons, q, p, reason):
        assert verify_polytope_equality(q, p).reason == reason
        n = p.ambient_dim
        assert echelons[0] == (len(q.vectors), len(p.vectors) + 1)
        assert echelons[1] == (len(p.vectors), n)  # P's normals
        if reason != NOT_POINTED:
            assert echelons[2] == (len(q.vectors), n + 1)  # Q's lifted points


class TestIntegerRoute:
    """Verification clears P and Q to ints once: it forms no Fraction slack
    matrix, runs no dimension() and no Matrix-level elimination, and builds
    LP constraints only when the slack table has a zero column."""

    @pytest.fixture
    def calls(self, monkeypatch):
        targets = (polyhedra.slack_of_polytope, polyhedra.dimension,
                   recognition._recognized, polyhedra._h_polytope_constraints)
        counts = {f.__name__: 0 for f in targets}
        for target in targets:
            def counting(*args, _f=target, **kwargs):
                counts[_f.__name__] += 1
                return _f(*args, **kwargs)

            for name, mod in list(sys.modules.items()):
                if name == "slackmat" or name.startswith("slackmat."):
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            monkeypatch.setattr(mod, attr, counting)
        return counts

    @SOLIDS
    def test_no_zero_column(self, calls, q, p):
        for qq, pp in ((q, p), (PolytopeRep("V", 3, q.vectors[1:]), p),
                       (q, PolytopeRep("H", 3, p.vectors[1:]))):
            verify_polytope_equality(qq, pp)
        assert set(calls.values()) == {0}

    @pytest.mark.parametrize("q, p", [
        (on_facet(PRISM_VERTICES, PRISM_FACETS, 0), PRISM_FACETS),
        embed(SQUARE_VERTICES, SQUARE_FACETS),
        (PolytopeRep("V", 1, ((0,),)), PolytopeRep("H", 1, ((0, 1), (0, -1)))),
    ], ids=["prism-one-facet", "square-embedded", "point-R1"])
    def test_zero_columns_build_constraints_once(self, calls, q, p):
        verify_polytope_equality(q, p)
        assert calls == {"slack_of_polytope": 0, "dimension": 0,
                         "_recognized": 0, "_h_polytope_constraints": 1}


class TestMatchesGenericRoute:
    """Reading P's implicit equalities off the zero columns of the slack
    matrix gives the verdicts that dimension(q) and dimension(p) give."""

    def _subsets(self, v, h):
        n = v.ambient_dim
        yield v
        yield PolytopeRep("V", n, v.vectors[1:])
        yield on_facet(v, h, 0)
        yield edge(v, h)
        yield PolytopeRep("V", n, v.vectors[:1])

    def test_random_faces_and_embeddings(self):
        r = rng(41)
        for _ in range(6):
            v, h = random_polytope(r, max_dim=3, max_vertices=6)
            for q in self._subsets(v, h):
                for qq, pp in ((q, h), embed(q, h)):
                    res = verify_polytope_equality(qq, pp)
                    dq, dp = dimension(qq), dimension(pp)
                    # The LP-free vertex route agrees with dimension(p).
                    verts = PolytopeRep("V", pp.ambient_dim,
                                        tuple(vertices_of_h_polytope(pp)))
                    assert dimension(verts) == dp == v.ambient_dim
                    if dq != dp:
                        assert res.reason == DIM_MISMATCH
                        assert res.dims == (dq, dp)
                    else:
                        assert res.dims is None
                        assert res.reason in (EQUAL, SLACK_REJECT)
                        assert res.equal == (set(q.vectors) == set(v.vectors))

    def test_empty_q_raises(self):
        with pytest.raises(ValueError, match="^empty V-polytope$"):
            verify_polytope_equality(PolytopeRep("V", 2, ()), SQUARE_FACETS)

    def test_empty_q_raises_whatever_p(self):
        # P with no rows is not pointed; the empty Q is still an input error.
        q, p = PolytopeRep("V", 2, ()), PolytopeRep("H", 2, ())
        for verify in (verify_polytope_equality, verify_equality_fraction_reference):
            with pytest.raises(ValueError, match="^empty V-polytope$"):
                verify(q, p)
