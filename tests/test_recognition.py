import gc
import itertools
import sys
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from slackmat import (
    Matrix,
    PolytopeRep,
    affine_criterion_check,
    ccgc_check,
    cone_check_via_polytope,
    dimension,
    is_cone_slack,
    is_polytope_slack,
    polar,
    rcgc_check,
    reconstruct_cone,
    reconstruct_polytope,
    slack_of_cone,
    slack_of_polytope,
    verify_no_certificate,
    verify_yes_certificate,
)
from slackmat import echelon, lp, matrix, polyhedra, recognition
from slackmat.formats import document_for, serialize
from slackmat.matrix import integer_vec, primitive, rank, rank_factorization
from slackmat.polyhedra import facet_inequalities, minimal_vrep
from slackmat.recognition import (
    NoCertificate,
    ONES_NOT_IN_SPAN,
    RANK_TOO_SMALL,
    UNMATCHED_RAY,
    YesCertificate,
    polar_realization,
)
from slackmat.verification import verify_polytope_equality

from oracles import (
    cone_match_fraction_reference,
    polar_realization_fraction_reference,
    polar_realization_wide_reference,
    polar_scale_reference,
    polytope_slack_fraction_reference,
    polytope_slack_wide_reference,
    verify_equality_fraction_reference,
)
from randgen import (
    centred_slack,
    projectively_scaled,
    random_nonneg_matrix,
    random_polytope,
    random_slack_like_matrix,
    recognition_inputs,
    rng,
    verification_edge_cases,
    verification_inputs,
    verification_variants,
)
from golden import (
    COUNTEREXAMPLE,
    PRISM,
    PRISM_SCALED,
    QUADRILATERAL_VERTICES,
    SQUARE_HOMOG,
    SQUARE_HOMOG_A,
    SQUARE_HOMOG_B,
)

nonneg_fracs = st.fractions(min_value=0, max_value=4, max_denominator=3)


@st.composite
def nonneg_matrices(draw, max_rows=5, max_cols=5):
    p = draw(st.integers(1, max_rows))
    q = draw(st.integers(1, max_cols))
    data = draw(st.lists(
        st.lists(nonneg_fracs, min_size=q, max_size=q), min_size=p, max_size=p,
    ))
    return Matrix(data, cols=q)


class TestCcgcRcgc:
    def test_prism_accepted(self):
        assert ccgc_check(PRISM).verdict
        assert rcgc_check(PRISM).verdict

    def test_counterexample_rejected(self):
        assert not ccgc_check(COUNTEREXAMPLE).verdict
        assert not rcgc_check(COUNTEREXAMPLE).verdict

    def test_identity_accepted(self):
        assert ccgc_check(Matrix.identity(3)).verdict

    def test_zero_matrix_accepted(self):
        assert rcgc_check(Matrix.zero(2, 3)).verdict

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            ccgc_check(Matrix([[1, -1]]))


def cube_slack(k):
    """Slack matrix of [0,1]^k: vertices by the facets x_i >= 0, x_i <= 1."""
    return Matrix(
        [v + tuple(1 - x for x in v)
         for v in itertools.product((0, 1), repeat=k)],
        cols=2 * k,
    )


def cyclic_slack(n, d):
    """Slack matrix of the cyclic polytope C(n, d), points (t, .., t^d)."""
    v = PolytopeRep("V", d, tuple(tuple(F(t) ** k for k in range(1, d + 1))
                                  for t in range(1, n + 1)))
    return slack_of_polytope(v, facet_inequalities(v))


CUBE5 = cube_slack(5)
CUBE5_MINUS_FACET = CUBE5.submatrix(range(CUBE5.rows), range(1, CUBE5.cols))
C85 = cyclic_slack(8, 5)


def _cold():
    """Empty the recognition cache, so the next recognition of any Matrix
    eliminates it and runs its DD."""
    recognition._last = None


def _copy(m):
    """An equal Matrix that is a distinct object, so the cache misses."""
    return Matrix(m.data, cols=m.cols)


class TestRankCoordinates:
    """The CCGC is one DD in dimension rank(M), with no V-to-H conversion
    and no LP, on yes and no inputs alike."""

    @pytest.fixture
    def dd_dims(self, monkeypatch):
        _cold()
        dd, dd_v_to_h = polyhedra._dd, polyhedra.dd_v_to_h
        lp_solve = lp.lp_solve
        dims = []

        def recording(rows, n):
            dims.append(n)
            return dd(rows, n)

        def forbidden(*args, **kwargs):
            raise AssertionError("recognition called dd_v_to_h or lp_solve")

        mods = [m for n, m in sys.modules.items()
                if n == "slackmat" or n.startswith("slackmat.")]
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if value is dd:
                    monkeypatch.setattr(mod, name, recording)
                elif value is dd_v_to_h or value is lp_solve:
                    monkeypatch.setattr(mod, name, forbidden)
        return dims

    @pytest.mark.parametrize("m, verdict", [
        (COUNTEREXAMPLE, False),
        (PRISM, True),
        (CUBE5, True),
        (CUBE5_MINUS_FACET, False),
    ], ids=["counterexample", "prism", "cube5", "cube5-minus-facet"])
    def test_one_dd_in_rank_dimension(self, dd_dims, m, verdict):
        r = rank(m)
        for check in (ccgc_check, is_polytope_slack):
            dd_dims.clear()
            res = check(_copy(m))
            assert res.verdict == verdict
            # is_polytope_slack may reject on rank or span before the CCGC.
            reaches_ccgc = (check is ccgc_check or res.verdict
                            or res.certificate.reason == UNMATCHED_RAY)
            assert dd_dims == ([r] if reaches_ccgc else [])
            if not verdict:
                assert verify_no_certificate(m, res.certificate)


CUBE3 = cube_slack(3)
CUBE3_MINUS_FACET = CUBE3.submatrix(range(CUBE3.rows), range(1, CUBE3.cols))
PRISM_COLUMNS_TWICE = Matrix([r + r for r in PRISM.data], cols=2 * PRISM.cols)


class TestConeMatchSide:
    """ccgc_check runs its one DD on the factor with fewer distinct
    generators, as verify_yes_certificate does: B's columns when they are
    strictly fewer than A's rows.  A ray from B's side is refuted in the row
    convention."""

    @pytest.fixture
    def dd_rows(self, monkeypatch):
        _cold()
        seen, dd = [], echelon._dd
        monkeypatch.setattr(echelon, "_dd",
                            lambda rows, n: seen.append(len(rows)) or dd(rows, n))
        return seen

    @pytest.mark.parametrize("m, rows", [
        (CUBE3, 6),
        (cyclic_slack(10, 4).transpose(), 10),
        (PRISM_COLUMNS_TWICE, 5),
    ], ids=["cube3-8x6", "cyclic10-4-transpose-35x10", "prism-columns-twice-6x10"])
    def test_dd_on_the_smaller_side(self, dd_rows, m, rows):
        assert ccgc_check(m).verdict
        assert dd_rows == [rows]

    def test_b_side_certificate_is_row_convention(self, dd_rows):
        res = ccgc_check(CUBE3_MINUS_FACET)
        assert not res.verdict and dd_rows == [5]
        cert = res.certificate
        assert (cert.reason, cert.convention) == (UNMATCHED_RAY, "row")
        assert len(cert.witness) == CUBE3_MINUS_FACET.cols
        assert verify_no_certificate(CUBE3_MINUS_FACET, cert)


class TestCombinatorialAdjacency:
    """Ray adjacency inside the DD is decided on zero sets, not by rank."""

    @pytest.fixture
    def calls_in_dd(self, monkeypatch):
        _cold()
        dd, counted = polyhedra._dd, (matrix.rank, matrix.rref)
        depth, calls = [0], []

        def inside(rows, n):
            calls.append("_dd")
            depth[0] += 1
            try:
                return dd(rows, n)
            finally:
                depth[0] -= 1

        def counting(fn):
            def wrapper(*args, **kwargs):
                if depth[0]:
                    calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        mods = [m for n, m in sys.modules.items()
                if n == "slackmat" or n.startswith("slackmat.")]
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if value is dd:
                    monkeypatch.setattr(mod, name, inside)
                elif any(value is fn for fn in counted):
                    monkeypatch.setattr(mod, name, counting(value))
        return calls

    @pytest.mark.parametrize("m", [CUBE5, C85], ids=["cube5", "cyclic8-5"])
    def test_no_rank_or_rref_inside_dd(self, calls_in_dd, m):
        assert ccgc_check(m).verdict
        assert calls_in_dd == ["_dd"]


class TestIsConeSlack:
    def test_prism_with_exact_factors(self):
        res = is_cone_slack(PRISM)
        assert res.verdict
        assert res.certificate.a * res.certificate.b == PRISM

    def test_rank_one_ray(self):
        assert is_cone_slack(Matrix([[1], [2]])).verdict

    def test_counterexample_certificate_verifies(self):
        res = is_cone_slack(COUNTEREXAMPLE)
        assert not res.verdict
        cert = res.certificate
        assert cert.reason == UNMATCHED_RAY
        assert verify_no_certificate(COUNTEREXAMPLE, cert)


class TestIsPolytopeSlack:
    def test_prism(self):
        res = is_polytope_slack(PRISM)
        assert res.verdict
        assert res.certificate.mu is not None
        assert PRISM.matvec(res.certificate.mu) == tuple(F(1) for _ in range(6))

    def test_prism_transpose_ones_witness(self):
        res = is_polytope_slack(PRISM.transpose())
        assert not res.verdict
        assert res.certificate.reason == ONES_NOT_IN_SPAN
        assert verify_no_certificate(PRISM.transpose(), res.certificate)

    def test_square_example(self):
        assert is_polytope_slack(SQUARE_HOMOG).verdict

    def test_tall_ones_witness_builds_one_kernel_vector(self, monkeypatch):
        # 1 is not in the column span (row 3 would need 1 + 1 = 1), and the
        # first kernel vector of a^T, for free column 2, sums to -1.
        m = Matrix([[1, 0], [0, 1]] + [[1, 1]] * 250)
        read = set()

        class Row(tuple):  # records the columns a kernel vector reads
            def __getitem__(self, j):
                read.add(j)
                return tuple.__getitem__(self, j)

        kernel_basis = echelon._kernel_basis
        monkeypatch.setattr(echelon, "_kernel_basis",
                            lambda a, piv, n: kernel_basis([Row(r) for r in a], piv, n))
        res = is_polytope_slack(m)
        assert res.certificate.witness == (F(-1), F(-1), F(1)) + (F(0),) * 249
        assert verify_no_certificate(m, res.certificate)
        assert read - {0, 1} == {2}  # one free column of 250: one vector built

    def test_rank_one_rejected(self):
        res = is_polytope_slack(Matrix([[1, 2], [2, 4]]))
        assert not res.verdict
        assert res.certificate.reason == RANK_TOO_SMALL
        assert verify_no_certificate(Matrix([[1, 2], [2, 4]]), res.certificate)

    def test_implies_cone_slack(self):
        for m in (PRISM, PRISM_SCALED, SQUARE_HOMOG, Matrix.identity(4)):
            if is_polytope_slack(m).verdict:
                assert is_cone_slack(m).verdict


class TestAffineCriterion:
    def test_identity_simplex(self):
        assert affine_criterion_check(Matrix.identity(3))

    def test_prism(self):
        assert affine_criterion_check(PRISM)

    def test_counterexample(self):
        assert not affine_criterion_check(COUNTEREXAMPLE)

    def test_rank_below_two_rejected(self):
        with pytest.raises(ValueError):
            affine_criterion_check(Matrix([[1, 2], [2, 4]]))


class TestVerifyNoCertificate:
    def test_hand_built_counterexample_certificate(self):
        cert = NoCertificate(
            UNMATCHED_RAY, convention="row",
            witness=(F(1), F(0)), separator=(F(-1), F(2)),
        )
        assert verify_no_certificate(COUNTEREXAMPLE, cert)

    def test_negative_witness_rejected(self):
        cert = NoCertificate(
            UNMATCHED_RAY, convention="row",
            witness=(F(-1), F(0)), separator=(F(-1), F(2)),
        )
        assert not verify_no_certificate(COUNTEREXAMPLE, cert)

    def test_certificate_against_identity_rejected(self):
        cert = NoCertificate(
            UNMATCHED_RAY, convention="column",
            witness=(F(1), F(0), F(0)), separator=(F(-1), F(0), F(0)),
        )
        assert not verify_no_certificate(Matrix.identity(3), cert)

    def test_ill_shaped_certificate_rejected(self):
        cert = NoCertificate(UNMATCHED_RAY, witness=(F(1),), separator=(F(1),))
        assert not verify_no_certificate(COUNTEREXAMPLE, cert)

    def test_unknown_convention_rejected(self):
        cert = is_cone_slack(COUNTEREXAMPLE).certificate
        assert cert.convention == "column" and verify_no_certificate(COUNTEREXAMPLE, cert)
        for convention in ("diagonal", "Column", ""):
            odd = NoCertificate(cert.reason, convention, cert.witness, cert.separator)
            assert not verify_no_certificate(COUNTEREXAMPLE, odd)

    def test_witness_outside_column_span_rejected(self):
        # (0, 1) is nonnegative and the separator is nonnegative on the one
        # column and negative on it, but it is not in the column span.
        cert = NoCertificate(UNMATCHED_RAY, witness=(F(0), F(1)),
                             separator=(F(0), F(-1)))
        assert not verify_no_certificate(Matrix([[1], [0]]), cert)

    def test_span_test_builds_no_kernel(self, monkeypatch):
        calls, kernel = [], matrix.left_kernel_basis
        for n, mod in list(sys.modules.items()):
            if n == "slackmat" or n.startswith("slackmat."):
                for attr, value in list(vars(mod).items()):
                    if value is kernel:
                        monkeypatch.setattr(mod, attr,
                                            lambda m: calls.append(m) or kernel(m))
        tall = Matrix(CUBE5_MINUS_FACET.data * 8, cols=CUBE5_MINUS_FACET.cols)
        outside = NoCertificate(UNMATCHED_RAY, witness=(F(0), F(1)),
                                separator=(F(0), F(-1)))
        for m in (COUNTEREXAMPLE, tall, tall.transpose()):
            for res in (ccgc_check(m), rcgc_check(m)):
                assert res.verdict or verify_no_certificate(m, res.certificate)
        assert not verify_no_certificate(Matrix([[1], [0]]), outside)
        assert calls == []

    def test_ones_witness_of_wrong_length_rejected(self):
        m = Matrix([[1, 0], [0, 1], [1, 1]])
        good = NoCertificate(ONES_NOT_IN_SPAN, witness=(1, 1, -1))
        assert verify_no_certificate(m, good)
        short = NoCertificate(ONES_NOT_IN_SPAN, witness=(1, 1))
        assert not verify_no_certificate(m, short)

    def test_unknown_reason_rejected(self):
        cert = is_cone_slack(COUNTEREXAMPLE).certificate
        odd = NoCertificate("no_reason", cert.convention, cert.witness, cert.separator)
        assert not verify_no_certificate(COUNTEREXAMPLE, odd)

    def test_missing_witness_rejected(self):
        cert = is_cone_slack(COUNTEREXAMPLE).certificate
        for reason in (UNMATCHED_RAY, ONES_NOT_IN_SPAN):
            odd = NoCertificate(reason, cert.convention, None, cert.separator)
            assert not verify_no_certificate(COUNTEREXAMPLE, odd)


class TestVerifyYesCertificate:
    """A YES certificate holds iff m >= 0, a b = m and cone(b) = {y : a y >= 0},
    decided by one DD on the factor with fewer distinct generators, plus
    rank(m) >= 2 and m mu = 1 for a polytope claim."""

    def test_forged_counterexample_rejected(self):
        a, b = rank_factorization(COUNTEREXAMPLE)
        assert a * b == COUNTEREXAMPLE
        assert not verify_yes_certificate(COUNTEREXAMPLE, YesCertificate(a=a, b=b))

    def test_own_certificates_hold(self):
        r = rng(7)
        for _ in range(100):
            for m in recognition_inputs(r):
                poly = is_polytope_slack(m)
                for res in (ccgc_check(m), rcgc_check(m), poly):
                    if res.verdict:
                        assert verify_yes_certificate(m, res.certificate)
                if poly.verdict:  # mu without the V/H pair
                    c = poly.certificate
                    assert verify_yes_certificate(m, YesCertificate(c.a, c.b, c.mu))

    def test_rank_factorization_forgeries_rejected(self):
        r = rng(7)
        forged = 0
        while forged < 1000:
            m = random_slack_like_matrix(r) if forged % 2 else random_nonneg_matrix(r)
            if not ccgc_check(m).verdict:
                a, b = rank_factorization(m)
                assert not verify_yes_certificate(m, YesCertificate(a=a, b=b))
                forged += 1

    @pytest.mark.parametrize("m, side", [(PRISM, "b"), (PRISM.transpose(), "a")],
                             ids=["6x5-columns-of-b", "5x6-rows-of-a"])
    def test_dd_runs_on_the_side_with_fewer_generators(self, monkeypatch, m, side):
        cert = ccgc_check(m).certificate
        seen = []
        dd = echelon._dd
        monkeypatch.setattr(echelon, "_dd", lambda rows, n: seen.append(rows) or dd(rows, n))
        assert verify_yes_certificate(m, cert)
        vectors = cert.b.columns() if side == "b" else cert.a.data
        assert [list(rows) for rows in seen] == [
            [primitive(integer_vec(v)[0]) for v in vectors]]

    @pytest.mark.parametrize("m, a, b", [
        ([[1, 1]], [[1, 0]], [[1, 1], [0, 5]]),
        ([[1], [2]], [[1, 0], [2, 1]], [[1], [0]]),
    ], ids=["a-rank-below-k", "b-rank-below-k"])
    def test_rank_deficient_factor_rejected(self, m, a, b):
        # Both matrices are cone slack matrices; the factors are not a
        # certificate, because the DD side has a lineality space.
        m, a, b = Matrix(m), Matrix(a), Matrix(b)
        assert a * b == m and ccgc_check(m).verdict
        assert not verify_yes_certificate(m, YesCertificate(a=a, b=b))

    def test_mu_needs_rank_two(self):
        one = Matrix([[1]])
        assert verify_yes_certificate(one, YesCertificate(a=one, b=one))
        assert not verify_yes_certificate(one, YesCertificate(a=one, b=one, mu=(F(1),)))

    def test_realization_needs_full_affine_rank(self):
        # Two facets x <= 1 and -x <= 1 of the square give a 4x2 slack matrix
        # of rank two: the segment [-1, 1] realizes it, the square does not.
        m = Matrix([[0, 2], [0, 2], [2, 0], [2, 0]])
        a = Matrix([[1, 1], [1, 1], [1, -1], [1, -1]])
        b = Matrix([[1, 1], [-1, 1]])
        h = PolytopeRep("H", 1, ((1, 1), (1, -1)))
        square = PolytopeRep("V", 2, ((1, 1), (1, -1), (-1, 1), (-1, -1)))
        segment = PolytopeRep("V", 1, ((1,), (1,), (-1,), (-1,)))
        h2 = PolytopeRep("H", 2, ((1, 1, 0), (1, -1, 0)))
        mu = (F(1, 2), F(1, 2))
        assert slack_of_polytope(square, h2) == m == slack_of_polytope(segment, h)
        assert verify_yes_certificate(m, YesCertificate(a, b, mu, (segment, h)))
        assert not verify_yes_certificate(m, YesCertificate(a, b, mu, (square, h2)))


class TestReconstructCone:
    def test_identity_orthant(self):
        v, h = reconstruct_cone(Matrix.identity(3))
        assert set(v.vectors) == {
            (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))
        }
        a = Matrix(v.vectors, cols=3)
        b = Matrix(h.vectors, cols=3).transpose()
        assert slack_of_cone(a, b) == Matrix.identity(3)

    def test_square_example_three_dim_four_rays(self):
        v, h = reconstruct_cone(SQUARE_HOMOG)
        assert v.ambient_dim == 3
        mv = minimal_vrep(v)
        assert mv.lineality == ()
        assert len(mv.vectors) == 4

    def test_rank_one(self):
        v, h = reconstruct_cone(Matrix([[1], [2]]))
        a = Matrix(v.vectors, cols=1)
        b = Matrix(h.vectors, cols=1).transpose()
        assert slack_of_cone(a, b) == Matrix([[1], [2]])

    def test_rejects_non_slack(self):
        with pytest.raises(ValueError):
            reconstruct_cone(COUNTEREXAMPLE)


class TestReconstructPolytope:
    def test_square_example_displayed_vertices(self):
        v, h = reconstruct_polytope(
            SQUARE_HOMOG, factors=(SQUARE_HOMOG_A, SQUARE_HOMOG_B)
        )
        assert v.vectors == QUADRILATERAL_VERTICES
        assert slack_of_polytope(v, h) == SQUARE_HOMOG

    def test_square_example_default_factors_round_trip(self):
        v, h = reconstruct_polytope(SQUARE_HOMOG)
        assert slack_of_polytope(v, h) == SQUARE_HOMOG

    def test_identity_triangle(self):
        v, h = reconstruct_polytope(Matrix.identity(3))
        assert dimension(v) == 2
        assert len(v.vectors) == 3
        assert slack_of_polytope(v, h) == Matrix.identity(3)

    def test_prism_f_vector(self):
        v, h = reconstruct_polytope(PRISM)
        assert dimension(v) == 3
        assert len(v.vectors) == 6
        assert len(h.vectors) == 5
        assert slack_of_polytope(v, h) == PRISM

    def test_bad_factors_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_polytope(PRISM, factors=(Matrix.identity(6), PRISM))

    @pytest.fixture
    def checks(self, monkeypatch):
        """The number of reproduction checks, at every slackmat binding."""
        check, count = polyhedra._table_is_scaled, [0]

        def counting(*args):
            count[0] += 1
            return check(*args)

        for n, mod in list(sys.modules.items()):
            if n == "slackmat" or n.startswith("slackmat."):
                for attr, value in list(vars(mod).items()):
                    if value is check:
                        monkeypatch.setattr(mod, attr, counting)
        return count

    def test_one_realization_per_call(self, checks):
        a, b = rank_factorization(PRISM)
        t = Matrix([[1, 0, 0, 2], [0, 1, 0, 0], [3, 0, 1, 0], [0, 0, 0, 1]])
        for factors in (None, (a * t, matrix.inverse(t) * b)):
            checks[0] = 0
            v, h = reconstruct_polytope(PRISM, factors)
            assert slack_of_polytope(v, h) == PRISM
            assert checks[0] == 1


class TestConeCheckViaPolytope:
    def test_prism(self):
        assert cone_check_via_polytope(PRISM)

    def test_counterexample(self):
        assert not cone_check_via_polytope(COUNTEREXAMPLE)

    def test_prism_with_zero_rows(self):
        padded = PRISM.vstack(Matrix.zero(2, 5))
        assert cone_check_via_polytope(padded)
        assert is_cone_slack(padded).verdict


def _centred_slack(v, h):
    """Slack matrix of (v, h) with every facet scaled to slack one at the
    vertex centroid, so the rows average to the all-ones vector."""
    n = v.ambient_dim
    c = [sum(p[j] for p in v.vectors) / len(v.vectors) for j in range(n)]
    rows = []
    for row in h.vectors:
        s = row[0] - sum(a * x for a, x in zip(row[1:], c))
        rows.append(tuple(x / s for x in row))
    return slack_of_polytope(v, PolytopeRep("H", n, tuple(rows)))


def _column_scaled(r, m):
    d = [F(r.randint(1, 5), r.randint(1, 3)) for _ in range(m.cols)]
    return Matrix([[x * dj for x, dj in zip(row, d)] for row in m.data],
                  cols=m.cols)


# The 0/1 cube's facets scaled to slack one at its centre (1/2, 1/2, 1/2).
CUBE3_CENTRED = Matrix([[2 * x for x in row] for row in cube_slack(3).data],
                       cols=6)


class TestPolarRealization:
    def test_scaled_prism_polar_is_bisimplex(self):
        p, scale = polar_realization(PRISM_SCALED)
        assert scale > 0
        assert len(polar(p).vectors) == 5

    def test_identity_scale_three(self):
        p, scale = polar_realization(Matrix.identity(3))
        assert scale == 3
        assert dimension(p) == 2

    def test_unscaled_prism_rejected(self):
        with pytest.raises(ValueError):
            polar_realization(PRISM)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count the recognition record's lookups, the DD core and lp_solve
        calls at every slackmat module binding."""
        _cold()
        counts = {}
        for target in (recognition._recognized, polyhedra._dd,
                       lp.lp_solve):
            name = target.__name__
            counts[name] = 0

            def counting(*args, _f=target, _n=name, **kwargs):
                counts[_n] += 1
                return _f(*args, **kwargs)

            for n, mod in list(sys.modules.items()):
                if n == "slackmat" or n.startswith("slackmat."):
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            monkeypatch.setattr(mod, attr, counting)
        return counts

    @pytest.mark.parametrize("m", [
        PRISM_SCALED, Matrix.identity(3), CUBE3_CENTRED,
    ], ids=["prism-scaled", "identity3", "cube3-centred"])
    def test_one_recognition_one_dd_no_lp(self, calls, m):
        _, scale = polar_realization(m)
        assert scale > 0
        assert calls == {"_recognized": 1, "_dd": 1, "lp_solve": 0}

    def test_unscaled_prism_transpose_rejected(self, calls):
        with pytest.raises(ValueError, match="transpose"):
            polar_realization(PRISM)
        assert calls == {"_recognized": 1, "_dd": 1, "lp_solve": 0}

    def test_matches_two_recognition_route(self):
        r = rng(4)
        inputs = []
        for _ in range(12):
            v, h = random_polytope(r, max_dim=3, max_vertices=7)
            for m in (slack_of_polytope(v, h), _centred_slack(v, h)):
                inputs += [m, _column_scaled(r, m)]
        inputs += [random_nonneg_matrix(r) for _ in range(40)]
        realized = 0
        for m in inputs:
            alpha = polar_scale_reference(m)
            if alpha is None:
                with pytest.raises(ValueError):
                    polar_realization(m)
            else:
                _, scale = polar_realization(m)
                assert scale == alpha
                realized += 1
        assert 0 < realized < len(inputs)


CUBE4 = cube_slack(4)
CUBE4_CENTRED = Matrix([[2 * x for x in row] for row in CUBE4.data], cols=8)


def _row_scaled(r, m):
    d = [F(r.randint(1, 5), r.randint(1, 3)) for _ in range(m.rows)]
    return Matrix([[x * di for x in row] for row, di in zip(m.data, d)],
                  cols=m.cols)


def _polar_outcome(route, m):
    try:
        p, alpha = route(m)
    except ValueError as e:
        return str(e)
    return p.vectors, alpha


class TestRankCoordinateSolves:
    """After the one elimination of [M | 1], the polytope test and the polar
    realization solve no system and eliminate M no more, and give exactly
    what the wide route (solves on M and its transpose, an explicit
    inverse) gives."""

    def test_identical_to_wide_route(self):
        r = rng(6)
        inputs = [CUBE4, CUBE4_CENTRED, C85, CUBE3_MINUS_FACET,
                  CUBE3_MINUS_FACET.transpose()]
        while len(inputs) < 1000:
            v, h = random_polytope(r, max_dim=3, max_vertices=7)
            s = slack_of_polytope(v, h)
            inputs += [random_nonneg_matrix(r), random_slack_like_matrix(r),
                       s, _centred_slack(v, h), _row_scaled(r, s),
                       s.transpose()]
        outcomes = set()
        for m in inputs:
            res = is_polytope_slack(m)
            ref = polytope_slack_wide_reference(m)
            assert res.verdict == ref.verdict
            assert (serialize(document_for(res.certificate))
                    == serialize(document_for(ref.certificate)))
            polar = _polar_outcome(polar_realization, m)
            assert polar == _polar_outcome(polar_realization_wide_reference, m)
            outcomes.add(res.certificate.reason if not res.verdict else "yes")
            outcomes.add(polar if isinstance(polar, str) else "polar")
        assert outcomes == {
            "yes", "polar", ONES_NOT_IN_SPAN, UNMATCHED_RAY, RANK_TOO_SMALL,
            "matrix is not a polytope slack matrix",
            "transpose is not a polytope slack matrix",
        }

    @pytest.mark.parametrize("m", [PRISM, PRISM_SCALED, CUBE4, CUBE4_CENTRED],
                             ids=["prism", "prism-scaled", "cube4",
                                  "cube4-centred"])
    def test_one_wide_elimination(self, eliminations, m):
        r = rank(m)
        for route in (is_polytope_slack, polar_realization):
            _clear(eliminations)
            try:
                route(_copy(m))
            except ValueError:
                assert route is polar_realization and m in (PRISM, CUBE4)
            wide = [x for x in eliminations["rows"]
                    if len(x[0]) > r + 1 and x[1] > r + 1]
            # Only [D1 m D2 | D1 1] is eliminated wide, and no system is solved.
            assert [n for _, n in wide] == [m.cols + 1]
            assert _scaled_with_ones(wide[0][0], m)
            assert eliminations["solve_linear"] == []


@pytest.fixture
def eliminations(monkeypatch):
    """Every integer elimination's input, as (rows, width), and the row
    count of every solve_linear system, in call order; inverse is
    forbidden."""
    _cold()
    echelon, solve_linear = matrix._echelon, matrix.solve_linear
    seen = {"rows": [], "solve_linear": []}

    def eliminating(a, ncols):
        seen["rows"].append((list(a), ncols))  # _echelon works in place
        return echelon(a, ncols)

    def solving(a, b):
        seen["solve_linear"].append(a.rows)
        return solve_linear(a, b)

    def forbidden(*args, **kwargs):
        raise AssertionError("inverse called")

    swap = {id(echelon): eliminating, id(solve_linear): solving,
            id(matrix.inverse): forbidden}
    for n, mod in list(sys.modules.items()):
        if n == "slackmat" or n.startswith("slackmat."):
            for attr, value in list(vars(mod).items()):
                if id(value) in swap:
                    monkeypatch.setattr(mod, attr, swap[id(value)])
    return seen


def _clear(seen):
    for calls in seen.values():
        calls.clear()


def _scaled_with_ones(rows, m):
    """Whether rows, as the elimination takes them, are [D1 m D2 | D1 1] for
    positive diagonals D1 and D2: primitive int rows, each a positive
    multiple of the same row of [m D2 | 1]."""
    d2 = {}
    for row, mrow in zip(rows, m.data):
        if primitive(row) != tuple(row) or len(row) != m.cols + 1 or row[-1] <= 0:
            return False
        for j, (x, y) in enumerate(zip(row, mrow)):
            if (x == 0) != (y == 0) or (y and d2.setdefault(j, x / (row[-1] * y))
                                        != x / (row[-1] * y)):
                return False
    return len(rows) == m.rows and all(t > 0 for t in d2.values())


class TestClosedFormSolves:
    """c with a c = 1, mu, the polar scale and the polar's points and facet
    normals are read off in closed form: recognition eliminates [M | 1]
    once (p rows, q + 1 columns) and solves no system, and the polar
    realization adds no elimination and no system."""

    @pytest.mark.parametrize("m", [PRISM_SCALED, CUBE3_CENTRED, CUBE4_CENTRED],
                             ids=["prism-scaled", "cube3-centred",
                                  "cube4-centred"])
    def test_one_solve(self, eliminations, m):
        assert m.rows != m.cols
        _clear(eliminations)
        assert is_polytope_slack(_copy(m)).verdict
        assert [n for _, n in eliminations["rows"]] == [m.cols + 1]
        assert _scaled_with_ones(eliminations["rows"][0][0], m)
        assert eliminations["solve_linear"] == []
        _clear(eliminations)
        polar_realization(_copy(m))
        shapes = [(len(rows), n) for rows, n in eliminations["rows"]]
        assert shapes == [(m.rows, m.cols + 1)]
        assert _scaled_with_ones(eliminations["rows"][0][0], m)
        assert eliminations["solve_linear"] == []

    def test_transpose_rejected_without_a_solve(self, eliminations):
        with pytest.raises(ValueError, match="transpose"):
            polar_realization(PRISM)
        assert [n for _, n in eliminations["rows"]] == [PRISM.cols + 1]
        assert _scaled_with_ones(eliminations["rows"][0][0], PRISM)
        assert eliminations["solve_linear"] == []

    def test_no_fraction_elimination(self, monkeypatch):
        """Every elimination, on yes and on each no reason, runs on int rows
        recognition has formed itself: none clears Fraction rows."""
        def forbidden(rows):
            raise AssertionError("a Fraction matrix was eliminated")

        monkeypatch.setattr(matrix, "_cleared", forbidden)
        reasons = set()
        cube3 = cube_slack(3)
        for m in (PRISM, PRISM_SCALED, CUBE4_CENTRED, PRISM.transpose(),
                  cube3.submatrix(range(8), range(1, 6)),
                  Matrix([[1, 2], [2, 4]])):
            res = is_polytope_slack(m)
            reasons.add(res.verdict or res.certificate.reason)
            try:
                polar_realization(m)
            except ValueError:
                pass
        assert reasons == {True, UNMATCHED_RAY, ONES_NOT_IN_SPAN, RANK_TOO_SMALL}


def _round_60():
    """The 4x4 YES matrix of round 60 of recognition_inputs(rng(0)): of the
    306 polar inputs in its first 100 rounds, the only one whose c ends in
    zeros."""
    r = rng(0)
    for _ in range(60):
        recognition_inputs(r)
    return recognition_inputs(r)[4]


ROUND_60 = _round_60()


class TestClosedFormPolar:
    """The polar realization's points and facet normals, written down from
    the elimination of [M | 1], are alpha M - J on the pivots of its RREF
    and minus that RREF's columns, as an elimination of alpha M - J gives;
    the last nonzero entry of c need not be c's last entry."""

    @pytest.mark.parametrize("m", [PRISM_SCALED, CUBE4_CENTRED, ROUND_60],
                             ids=["prism-scaled", "cube4-centred", "round-60"])
    def test_rref_of_scaled_minus_ones(self, monkeypatch, m):
        seen = []

        def recording(v, h, rows, scale):
            seen.append(h)
            return table_is_scaled(v, h, rows, scale)

        table_is_scaled = recognition._table_is_scaled
        monkeypatch.setattr(recognition, "_table_is_scaled", recording)
        p, alpha = polar_realization(m)
        diff = Matrix([[alpha * x - 1 for x in row] for row in m.data],
                      cols=m.cols)
        b, piv, rk = matrix.rref(diff)
        assert rk == rank(m) - 1
        assert p.vectors == tuple(tuple(row[j] for j in piv)
                                  for row in diff.data)
        assert [h.vectors for h in seen] == [tuple(
            (F(1),) + tuple(-b[i, j] for i in range(rk))
            for j in range(m.cols))]
        outcome = _polar_outcome(polar_realization, m)
        assert outcome == _polar_outcome(polar_realization_wide_reference, m)
        assert outcome == _polar_outcome(polar_realization_fraction_reference, m)

    def test_round_60_c_ends_in_zero(self):
        e = recognition._recognized(ROUND_60)
        assert (e.polytope_no, len(e.pivots), e.c[-1]) == (None, 3, 0)


def _cert_text(res):
    return res.verdict, serialize(document_for(res.certificate))


class TestIntegerCore:
    """Int-ray matching, integer separators and integer basis changes give
    byte for byte what the Fraction route gives: canonical DD rays matched
    by key, Fraction separators, and Fraction rows for the certificate's
    B2 and the polar's B3."""

    def test_identical_to_fraction_route(self):
        r = rng(11)
        inputs = []
        while len(inputs) < 1000:
            inputs += recognition_inputs(r)
        outcomes = set()
        for m in inputs:
            res = is_polytope_slack(m)
            assert _cert_text(res) == _cert_text(polytope_slack_fraction_reference(m))
            cone = ccgc_check(m)
            ref = cone_match_fraction_reference(m, *rank_factorization(m))
            assert _cert_text(cone) == _cert_text(ref)
            polar = _polar_outcome(polar_realization, m)
            assert polar == _polar_outcome(polar_realization_fraction_reference, m)
            outcomes.add(res.certificate.reason if not res.verdict else "yes")
            outcomes.add(polar if isinstance(polar, str) else "polar")
        assert outcomes == {
            "yes", "polar", ONES_NOT_IN_SPAN, UNMATCHED_RAY, RANK_TOO_SMALL,
            "matrix is not a polytope slack matrix",
            "transpose is not a polytope slack matrix",
        }

    def test_verification_identical_to_fraction_route(self):
        r = rng(12)
        reasons = set()
        for _ in range(120):
            for q, p in verification_inputs(r):
                reasons.add(_same_verification(q, p))
        assert reasons == {"equal", "slack_reject", "dim_mismatch"}

    def test_verification_variants_identical_to_fraction_route(self):
        # Lower-dimensional and single-point Q, equality pairs, a free
        # direction, mixed denominators and redundant points and rows.
        r = rng(14)
        reasons, pairs = set(), 0
        while pairs < 1000:
            for q, p in verification_variants(r):
                reasons.add(_same_verification(q, p))
                pairs += 1
        assert reasons == {"equal", "slack_reject", "dim_mismatch", "not_pointed"}

    def test_verification_edge_cases_identical_to_fraction_route(self):
        # Zero rows in P, and P unbounded with rank S = n and with rank
        # S = n + 1: the rank of S alone must never skip a failing stage.
        r = rng(15)
        reasons, pairs = set(), 0
        while pairs < 1000:
            for q, p in verification_edge_cases(r):
                reasons.add(_same_verification(q, p))
                pairs += 1
        assert reasons == {"equal", "slack_reject", "dim_mismatch"}


def _same_verification(q, p):
    """verify_polytope_equality(q, p) equals the Fraction route's answer,
    witness text included; returns the reason."""
    got = verify_polytope_equality(q, p)
    want = verify_equality_fraction_reference(q, p)
    assert (got.equal, got.reason, got.dims) == (want.equal, want.reason, want.dims)
    if want.witness is None:
        assert got.witness is None
    else:
        assert (serialize(document_for(got.witness))
                == serialize(document_for(want.witness)))
    return got.reason


def _answers(m, questions):
    """Each question's outcome on m, as text or comparable tuples."""
    out = []
    for q in questions:
        try:
            res = q(m)
        except ValueError as e:
            out.append(str(e))
            continue
        out.append(_cert_text(res) if isinstance(res, recognition.RecognitionResult)
                   else res)
    return out


class TestRecognitionCache:
    """Several questions about one Matrix object eliminate it once and run
    its DD at most once; the cache holds one entry, keyed by identity, and
    keeps nothing alive."""

    @pytest.fixture
    def work(self, monkeypatch):
        """Calls of the integer elimination and of the DD core, at every
        slackmat binding, from an empty cache."""
        _cold()
        counts = {"_echelon": 0, "_dd": 0}
        for target in (matrix._echelon, polyhedra._dd):
            def counting(*args, _f=target, _n=target.__name__):
                counts[_n] += 1
                return _f(*args)

            for n, mod in list(sys.modules.items()):
                if n == "slackmat" or n.startswith("slackmat."):
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            monkeypatch.setattr(mod, attr, counting)
        return counts

    def test_warm_calls_run_no_elimination_and_no_dd(self, work):
        m = _copy(PRISM_SCALED)
        assert is_polytope_slack(m).verdict
        assert work == {"_echelon": 1, "_dd": 1}
        polar_realization(m)
        reconstruct_polytope(m)
        assert work == {"_echelon": 1, "_dd": 1}
        m = _copy(CUBE4_CENTRED)
        assert ccgc_check(m).verdict
        assert work == {"_echelon": 2, "_dd": 2}
        assert is_polytope_slack(m).verdict
        assert work == {"_echelon": 2, "_dd": 2}

    def test_shared_elimination_is_immutable(self):
        m = _copy(PRISM_SCALED)
        e = recognition._recognized(m)
        assert e.polytope_no is None
        for field in (e.rows, e.b, e.c):
            assert isinstance(field, tuple)
        for row in e.rows + e.b:
            assert isinstance(row, tuple)

    def test_equal_but_distinct_matrix_recomputes(self, work):
        m = _copy(PRISM)
        assert is_polytope_slack(m).verdict
        assert is_polytope_slack(_copy(m)).verdict
        assert work == {"_echelon": 2, "_dd": 2}

    def test_one_entry(self, work):
        m1, m2 = _copy(PRISM), _copy(CUBE4)
        for m in (m1, m2, m1):
            assert is_polytope_slack(m).verdict
        assert work == {"_echelon": 3, "_dd": 3}

    def test_entry_read_once(self):
        # The entry is replaced between its key check and its use: the
        # answer must still be the elimination of the entry that matched m.
        m, other = _copy(PRISM), _copy(CUBE4)
        e = recognition._recognized(m)
        other_entry = (weakref.ref(other), recognition._recognized(other))

        def swapping():
            recognition._last = other_entry
            return m

        recognition._last = (swapping, e)
        try:
            assert recognition._recognized(m) is e
        finally:
            _cold()

    def test_no_lifetime_extension(self):
        m = _copy(PRISM)
        res = is_polytope_slack(m)
        ref = weakref.ref(m)
        del m
        gc.collect()
        assert ref() is None
        assert recognition._last is None
        assert res.verdict

    @pytest.mark.parametrize("m, reason", [
        (Matrix([[1, 2], [2, 4]]), RANK_TOO_SMALL),
        (Matrix([[1, 0], [0, 1], [1, 1]]), ONES_NOT_IN_SPAN),
    ], ids=["rank", "ones-span"])
    def test_early_rejections_run_no_dd(self, work, m, reason):
        m = _copy(m)
        res = is_polytope_slack(m)
        assert res.certificate.reason == reason
        assert work["_dd"] == 0
        # The ones-span witness eliminates the narrow a^T; [m | 1] is kept.
        eliminations = work["_echelon"]
        assert ccgc_check(m).verdict
        assert work == {"_echelon": eliminations, "_dd": 1}

    def test_warm_answers_equal_cold_answers(self):
        questions = [ccgc_check, is_polytope_slack,
                     lambda m: _polar_outcome(polar_realization, m),
                     reconstruct_polytope]
        r = rng(13)
        for _ in range(12):
            for m in recognition_inputs(r):
                cold = [_answers(_copy(m), [q])[0] for q in questions]
                for order in (questions, questions[::-1]):
                    warm = _answers(_copy(m), order)
                    assert warm == [cold[questions.index(q)] for q in order]

    def test_polar_check_catches_wrong_normals(self, monkeypatch):
        basis_change = recognition._basis_change

        def corrupted(*args):
            # Halved normals keep every slack positive, so only the
            # reproduction check can tell.
            rows, d = basis_change(*args)
            return rows, 2 * d

        monkeypatch.setattr(recognition, "_basis_change", corrupted)
        with pytest.raises(AssertionError, match=(
                "polar realization failed to reproduce the matrix")):
            polar_realization(_copy(PRISM_SCALED))


def _diagonally_scaled(r, m, bits, rows=True):
    """D1 m D2 for random positive diagonals with entries of up to `bits`
    bits in numerator and denominator; D1 = I unless `rows`."""
    def draw():
        return F(r.randint(1, 2**bits), r.randint(1, 2**bits))

    d1 = [draw() if rows else 1 for _ in range(m.rows)]
    d2 = [draw() for _ in range(m.cols)]
    return Matrix([[a * x * b for x, b in zip(row, d2)]
                   for a, row in zip(d1, m.data)], cols=m.cols)


def _zero_line(m):
    return any(not any(v) for v in m.data + m.transpose().data)


def _normal_form_bits(m):
    """The largest integer of m's normal form in the recognition record:
    N's rows, B = RREF(N) and its denominator, in bits."""
    e = recognition._recognized(m)
    return max(abs(x).bit_length() for x in (e.den, *sum(e.rows + e.b, ())))


def _certificates_hold(m):
    """Every certificate recognition gives for m verifies against m."""
    for res in (ccgc_check(m), is_polytope_slack(m)):
        cert = res.certificate
        assert (verify_yes_certificate(m, cert) if res.verdict
                else verify_no_certificate(m, cert))


class TestForestNormalForm:
    """Recognition runs on M's spanning-forest normal form N = D1 M D2, so
    positive row and column scalings of M change no verdict and not the
    size of the integers it eliminates; every certificate, stated in M's
    coordinates, verifies and is the Fraction route's byte for byte."""

    def test_cone_verdict_and_size_invariant(self):
        r = rng(21)
        seen = set()
        for _ in range(25):
            for m in recognition_inputs(r):
                s = _diagonally_scaled(r, m, r.choice((12, 24, 40, 64)))
                verdict, bits = ccgc_check(m).verdict, _normal_form_bits(m)
                assert ccgc_check(s).verdict == verdict
                assert _normal_form_bits(s) == bits
                _certificates_hold(s)
                seen.add(verdict)
        assert seen == {True, False}

    def test_polytope_verdict_invariant_under_projective_scaling(self):
        r = rng(22)
        outcomes = set()
        for _ in range(25):
            for m in recognition_inputs(r):
                res = is_polytope_slack(m)
                if (not res.verdict and res.certificate.reason == ONES_NOT_IN_SPAN
                        or _zero_line(m)):
                    continue  # a projective scaling puts 1 in the span
                s = projectively_scaled(r, m, bits=r.choice((12, 32, 64)))
                got = is_polytope_slack(s)
                assert got.verdict == res.verdict
                assert _normal_form_bits(s) == _normal_form_bits(m)
                _certificates_hold(s)
                outcomes.add(res.verdict or res.certificate.reason)
        assert outcomes == {True, UNMATCHED_RAY, RANK_TOO_SMALL}

    def test_identical_to_fraction_route_on_scaled_inputs(self):
        r = rng(23)
        outcomes = set()
        for _ in range(60):
            v, h = random_polytope(r, max_dim=3, max_vertices=6)
            s = centred_slack(v, h)
            j = r.randrange(s.cols)
            deleted = s.submatrix(range(s.rows), [k for k in range(s.cols) if k != j])
            for m in (slack_of_polytope(v, h), s, deleted):
                scalings = [_diagonally_scaled(r, m, 16),
                            _diagonally_scaled(r, m, 16, rows=False)]
                if not _zero_line(m):
                    scalings.append(projectively_scaled(r, m, bits=24))
                for scaled in scalings:
                    res = is_polytope_slack(scaled)
                    ref = polytope_slack_fraction_reference(scaled)
                    assert _cert_text(res) == _cert_text(ref)
                    polar = _polar_outcome(polar_realization, scaled)
                    assert polar == _polar_outcome(
                        polar_realization_fraction_reference, scaled)
                    outcomes.add(res.verdict or res.certificate.reason)
                    outcomes.add(polar if isinstance(polar, str) else "polar")
        assert outcomes == {
            True, UNMATCHED_RAY, ONES_NOT_IN_SPAN, RANK_TOO_SMALL, "polar",
            "matrix is not a polytope slack matrix",
            "transpose is not a polytope slack matrix",
        }

    def test_normal_form_is_a_scaling_of_m(self):
        # N = D1 M D2 for positive diagonals, the same N for M and for a
        # scaled M.  The BFS starts at row 0 and takes all of its nonzero
        # entries into the forest, so they are all 1 in N.
        plain = PRISM.vstack(Matrix.zero(1, 5))
        m = _diagonally_scaled(rng(24), plain, 40)
        n, d1, d2 = echelon._normal_form(m)
        for row, mrow, a in zip(n, m.data, d1):
            assert row == tuple(F(*a) * x * F(*b) for x, b in zip(mrow, d2))
        assert n == echelon._normal_form(plain)[0]
        assert set(n[0]) == {0, 1} and n[-1] == (0,) * 5
        assert all(x > 0 for x in sum(d1 + d2, ()))


class TestProperties:
    @given(nonneg_matrices())
    @settings(max_examples=60, deadline=None)
    def test_cone_routes_agree(self, m):
        verdict = ccgc_check(m).verdict
        assert rcgc_check(m).verdict == verdict
        assert is_cone_slack(m).verdict == verdict
        assert cone_check_via_polytope(m) == verdict

    @given(nonneg_matrices())
    @settings(max_examples=60, deadline=None)
    def test_transpose_invariance(self, m):
        assert is_cone_slack(m).verdict == is_cone_slack(m.transpose()).verdict

    @given(nonneg_matrices())
    @settings(max_examples=60, deadline=None)
    def test_certificates_are_sound(self, m):
        for res in (is_cone_slack(m), is_polytope_slack(m)):
            if res.verdict:
                cert = res.certificate
                assert isinstance(cert, YesCertificate)
                assert cert.a * cert.b == m
            else:
                assert verify_no_certificate(m, res.certificate)
