"""Acceptance gate: ten exact criteria, one reported line each.

Everything here is zero-tolerance rational arithmetic; any entrywise or
verdict disagreement fails the criterion.  The per-criterion PASS/FAIL
lines are printed by the terminal-summary hook in conftest.py.
"""

from fractions import Fraction as F
from itertools import product

from slackmat import (
    Matrix,
    PolytopeRep,
    affine_criterion_check,
    ccgc_check,
    cone_check_via_polytope,
    dimension,
    incidence_matrix,
    is_cone_slack,
    is_polytope_slack,
    polar,
    polygon_slack_check,
    rcgc_check,
    reconstruct_polytope,
    slack_of_polytope,
    verify_no_certificate,
    verify_polytope_equality,
    verify_yes_certificate,
)
from slackmat.combinatorial import NOT_APPLICABLE
from slackmat.matrix import rank, vsub
from slackmat.polyhedra import facet_inequalities, vertices_of_h_polytope
from slackmat.recognition import YesCertificate, polar_realization

from golden import (
    COUNTEREXAMPLE,
    PRISM,
    PRISM_FACETS,
    PRISM_SCALED,
    PRISM_VERTICES,
    QUADRILATERAL_VERTICES,
    SQUARE_HOMOG,
    SQUARE_HOMOG_A,
    SQUARE_HOMOG_B,
)
from randgen import (
    random_lattice_polygon,
    random_nonneg_matrix,
    random_polytope,
    random_slack_like_matrix,
    rng,
)


def check_certificate(m, res):
    """Criterion-10 contract for a single recognition result."""
    if res.verdict:
        cert = res.certificate
        assert isinstance(cert, YesCertificate)
        assert cert.a * cert.b == m
        assert verify_yes_certificate(m, cert)
    else:
        assert verify_no_certificate(m, res.certificate)


def test_criterion_1_prism_golden():
    res = is_polytope_slack(PRISM)
    assert res.verdict
    assert rank(PRISM) == 4
    v, h = reconstruct_polytope(PRISM)
    assert dimension(v) == 3
    assert len(v.vectors) == 6
    assert len(h.vectors) == 5
    assert slack_of_polytope(v, h) == PRISM


def test_criterion_2_transpose_asymmetry():
    mt = PRISM.transpose()
    assert not is_polytope_slack(mt).verdict
    assert is_cone_slack(mt).verdict
    assert is_polytope_slack(PRISM_SCALED).verdict
    assert is_polytope_slack(PRISM_SCALED.transpose()).verdict
    p, scale = polar_realization(PRISM_SCALED)
    assert scale > 0
    assert len(polar(p).vectors) == 5


def test_criterion_3_square_golden():
    assert is_polytope_slack(SQUARE_HOMOG).verdict
    v, h = reconstruct_polytope(SQUARE_HOMOG)
    assert slack_of_polytope(v, h) == SQUARE_HOMOG
    v2, h2 = reconstruct_polytope(
        SQUARE_HOMOG, factors=(SQUARE_HOMOG_A, SQUARE_HOMOG_B)
    )
    assert v2.vectors == QUADRILATERAL_VERTICES
    assert slack_of_polytope(v2, h2) == SQUARE_HOMOG


def test_criterion_4_counterexample_golden():
    cone_res = is_cone_slack(COUNTEREXAMPLE)
    poly_res = is_polytope_slack(COUNTEREXAMPLE)
    assert not cone_res.verdict
    assert not poly_res.verdict
    assert verify_no_certificate(COUNTEREXAMPLE, cone_res.certificate)
    assert verify_no_certificate(COUNTEREXAMPLE, poly_res.certificate)
    assert incidence_matrix(COUNTEREXAMPLE) == Matrix(
        [[0, 0], [0, 0], [1, 1], [1, 1]]
    )


def test_criterion_5_equivalence_suite():
    r = rng(500)
    for i in range(200):
        m = (random_slack_like_matrix(r, max_dim=3, max_pts=6) if i % 2
             else random_nonneg_matrix(r))
        verdict = ccgc_check(m).verdict
        assert rcgc_check(m).verdict == verdict
        assert is_cone_slack(m).verdict == verdict
        assert cone_check_via_polytope(m) == verdict
        if rank(m) >= 2:
            assert is_polytope_slack(m).verdict == affine_criterion_check(m)


def test_criterion_6_invariance_suite():
    r = rng(600)
    for i in range(60):
        m = (random_slack_like_matrix(r, max_dim=3, max_pts=5) if i % 2
             else random_nonneg_matrix(r, max_rows=5, max_cols=5))
        verdict = is_cone_slack(m).verdict
        assert is_cone_slack(m.transpose()).verdict == verdict
        row_scaled = Matrix(
            [[F(i + 1, 2) * x for x in row] for i, row in enumerate(m.data)],
            cols=m.cols,
        )
        col_scaled = Matrix(
            [[F(j + 1, 3) * x for j, x in enumerate(row)] for row in m.data],
            cols=m.cols,
        )
        assert is_cone_slack(row_scaled).verdict == verdict
        assert is_cone_slack(col_scaled).verdict == verdict
        padded = m.vstack(Matrix.zero(2, m.cols))
        assert is_cone_slack(padded).verdict == verdict
        stripped = Matrix(
            [row for row in padded.data if any(x != 0 for x in row)],
            cols=m.cols,
        )
        assert is_cone_slack(stripped).verdict == verdict
        assert (is_polytope_slack(col_scaled).verdict
                == is_polytope_slack(m).verdict)


def test_criterion_7_round_trip_suite():
    r = rng(700)
    for _ in range(50):
        v, h = random_polytope(r, max_dim=4, max_vertices=8)
        s = slack_of_polytope(v, h)
        res = is_polytope_slack(s)
        assert res.verdict
        assert res.certificate.a.cols == dimension(v) + 1
        v2, h2 = res.certificate.polytope
        assert slack_of_polytope(v2, h2) == s


def test_criterion_8_verification_suite():
    cube = PolytopeRep(
        "V", 3, tuple(product((F(-1), F(1)), repeat=3))
    )
    simplex2 = PolytopeRep("V", 2, ((0, 0), (1, 0), (0, 1)))
    simplex3 = PolytopeRep("V", 3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    fixtures = [
        (cube, facet_inequalities(cube)),
        (PRISM_VERTICES, PRISM_FACETS),
        (simplex2, facet_inequalities(simplex2)),
        (simplex3, facet_inequalities(simplex3)),
    ]
    for v, h in fixtures:
        res = verify_polytope_equality(v, h)
        assert res.equal, res.reason
        # Brute-force enumeration cross-check.
        assert set(vertices_of_h_polytope(h)) == set(v.vectors)
        for i in range(len(v.vectors)):
            trimmed = PolytopeRep(
                "V", v.ambient_dim,
                v.vectors[:i] + v.vectors[i + 1:],
            )
            res2 = verify_polytope_equality(trimmed, h)
            assert not res2.equal
            assert set(vertices_of_h_polytope(h)) != set(trimmed.vectors)


def test_criterion_9_polygon_suite():
    r = rng(900)
    sizes = set()
    for _ in range(20):
        v, h = random_lattice_polygon(r)
        s = slack_of_polytope(v, h)
        assert polygon_slack_check(s)
        sizes.add(len(v.vectors))
    assert len(sizes) >= 3  # several different n-gon sizes were exercised
    try:
        polygon_slack_check(PRISM)
        raise AssertionError("non-square prism matrix must be not-applicable")
    except ValueError as e:
        assert str(e) == NOT_APPLICABLE
    for _ in range(5):
        while True:
            v, h = random_polytope(r, max_dim=3, max_vertices=6)
            if v.ambient_dim == 3 and dimension(v) == 3:
                break
        s = slack_of_polytope(v, h)
        try:
            assert not polygon_slack_check(s)
        except ValueError as e:
            assert str(e) == NOT_APPLICABLE
    # Agreement with the full polytope test on square affine-dimension-2 inputs.
    checked = 0
    for _ in range(40):
        v, h = random_lattice_polygon(r)
        s = slack_of_polytope(v, h)
        if s.rows != s.cols:
            continue
        diffs = Matrix([vsub(row, s.row(0)) for row in s.data[1:]], cols=s.cols)
        if rank(diffs) != 2:
            continue
        assert polygon_slack_check(s) == is_polytope_slack(s).verdict
        checked += 1
    assert checked >= 10


def test_criterion_10_certificate_soundness():
    check_certificate(COUNTEREXAMPLE, is_cone_slack(COUNTEREXAMPLE))
    check_certificate(COUNTEREXAMPLE, is_polytope_slack(COUNTEREXAMPLE))
    check_certificate(PRISM, is_polytope_slack(PRISM))
    check_certificate(PRISM.transpose(), is_polytope_slack(PRISM.transpose()))
    r = rng(1000)
    for i in range(120):
        m = (random_slack_like_matrix(r, max_dim=3, max_pts=6) if i % 2
             else random_nonneg_matrix(r))
        check_certificate(m, is_cone_slack(m))
        check_certificate(m, is_polytope_slack(m))
