from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from slackmat import (
    Matrix,
    incidence_matrix,
    is_polytope_slack,
    polygon_slack_check,
    reconstruct_polytope,
    slack_of_polytope,
)
from slackmat.combinatorial import NOT_APPLICABLE

from golden import COUNTEREXAMPLE, PRISM, SQUARE_4GON
from randgen import random_lattice_polygon, rng

pos_fracs = st.fractions(min_value=0, max_value=3, max_denominator=2)


class TestIncidenceMatrix:
    def test_prism_pattern(self):
        inc = incidence_matrix(PRISM)
        assert inc == Matrix([
            [0, 0, 1, 1, 1],
            [0, 1, 0, 1, 1],
            [0, 1, 1, 0, 1],
            [1, 0, 1, 1, 0],
            [1, 1, 0, 1, 0],
            [1, 1, 1, 0, 0],
        ])

    def test_counterexample_pattern(self):
        assert incidence_matrix(COUNTEREXAMPLE) == Matrix(
            [[0, 0], [0, 0], [1, 1], [1, 1]]
        )

    def test_positive_matrix_all_zero(self):
        assert incidence_matrix(Matrix([[1, 2], [3, F(1, 2)]])) == Matrix.zero(2, 2)

    def test_scaling_invariance(self):
        scaled = Matrix([[3 * x for x in row] for row in PRISM.data], cols=5)
        assert incidence_matrix(scaled) == incidence_matrix(PRISM)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            incidence_matrix(Matrix([[-1]]))


class TestPolygonSlackCheck:
    def test_square_matrix_accepted(self):
        assert polygon_slack_check(SQUARE_4GON)

    def test_prism_not_applicable(self):
        with pytest.raises(ValueError, match=NOT_APPLICABLE):
            polygon_slack_check(PRISM)

    def test_identity_rejected(self):
        assert not polygon_slack_check(Matrix.identity(4))

    def test_too_small_not_applicable(self):
        with pytest.raises(ValueError, match=NOT_APPLICABLE):
            polygon_slack_check(Matrix.identity(2))

    def test_affine_rank_three_rejected(self):
        # The rows span an affine space of dimension three, not two, so the
        # rank test rejects before any zero is counted.
        m = Matrix([
            [0, 0, 0, 1],
            [1, 0, 0, 1],
            [1, 1, 0, 0],
            [0, 1, 1, 0],
        ])
        assert not polygon_slack_check(m)

    def test_row_without_two_zeros_rejected(self):
        # The square [0, 2]^2 with the vertex (2, 2) moved to (1, 1): the rows
        # (x, y, 2 - x, 2 - y) keep affine rank 2, and row 2 has no zero.
        m = Matrix([[0, 0, 2, 2], [2, 0, 0, 2], [1, 1, 1, 1], [0, 2, 2, 0]])
        assert not polygon_slack_check(m)

    def test_column_without_two_zeros_rejected(self):
        # Rows (x, y, 4 - x - y, 0) of four points, each on one side of the
        # triangle x, y >= 0, x + y <= 4: every row has two zeros, the last
        # column four.
        m = Matrix([[2, 0, 2, 0], [0, 2, 2, 0], [2, 2, 0, 0], [1, 0, 3, 0]])
        assert not polygon_slack_check(m)

    def test_two_disjoint_cycles_rejected(self):
        # Affine dimension is forced to 2 first, so build a double band whose
        # zero graph splits into two 3-cycles.
        halves = Matrix([
            [0, 0, 1, 1, 1, 1],
            [1, 0, 0, 1, 1, 1],
            [0, 1, 0, 1, 1, 1],
            [1, 1, 1, 0, 0, 1],
            [1, 1, 1, 1, 0, 0],
            [1, 1, 1, 0, 1, 0],
        ])
        if polygon_slack_check(halves):
            pytest.fail("disjoint zero cycles must not be accepted")

    def test_random_lattice_polygons_pass(self):
        r = rng(11)
        for _ in range(5):
            v, h = random_lattice_polygon(r)
            assert polygon_slack_check(slack_of_polytope(v, h))

    def test_agrees_with_polytope_recognition_on_square_inputs(self):
        for m in (SQUARE_4GON, Matrix.identity(3), Matrix.identity(4)):
            from slackmat.matrix import rank, vsub
            diffs = Matrix([vsub(r, m.row(0)) for r in m.data[1:]], cols=m.cols)
            if rank(diffs) != 2:
                continue
            assert polygon_slack_check(m) == is_polytope_slack(m).verdict


class TestIncidenceCrossChecks:
    def test_reconstruction_preserves_zero_pattern(self):
        for m in (PRISM, SQUARE_4GON):
            v, h = reconstruct_polytope(m)
            s = slack_of_polytope(v, h)
            assert incidence_matrix(s) == incidence_matrix(m)

    @given(st.lists(st.lists(pos_fracs, min_size=3, max_size=3),
                    min_size=3, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_row_and_column_scaling_invariance(self, rows):
        m = Matrix(rows, cols=3)
        rscaled = Matrix(
            [[F(i + 1, 2) * x for x in row] for i, row in enumerate(m.data)],
            cols=3,
        )
        cscaled = Matrix(
            [[F(j + 2, 3) * x for j, x in enumerate(row)] for row in m.data],
            cols=3,
        )
        assert incidence_matrix(rscaled) == incidence_matrix(m)
        assert incidence_matrix(cscaled) == incidence_matrix(m)
