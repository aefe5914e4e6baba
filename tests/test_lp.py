from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from slackmat import lp_solve
from slackmat.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, Constraint, check_farkas, satisfies

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


class TestExamples:
    def test_bounded_maximum(self):
        out = lp_solve([1], [Constraint([1], "<=", 1)], sense="max")
        assert out.status == OPTIMAL
        assert out.value == 1
        assert out.point == (F(1),)

    def test_infeasible_with_farkas(self):
        cs = [Constraint([1], "<=", -1), Constraint([1], ">=", 0)]
        out = lp_solve([0], cs, sense="max")
        assert out.status == INFEASIBLE
        assert check_farkas(cs, out.farkas)

    def test_unbounded(self):
        out = lp_solve([1], [Constraint([1], ">=", 0)], sense="max")
        assert out.status == UNBOUNDED

    def test_equality_and_minimize(self):
        cs = [Constraint([1, 1], "==", 2), Constraint([1, 0], ">=", 0),
              Constraint([0, 1], ">=", 0)]
        out = lp_solve([1, 0], cs, sense="min")
        assert out.status == OPTIMAL
        assert out.value == 0

    def test_degenerate_redundant_rows(self):
        cs = [
            Constraint([1, 0], "<=", 1),
            Constraint([1, 0], "<=", 1),
            Constraint([2, 0], "<=", 2),
            Constraint([0, 1], "<=", 0),
            Constraint([0, -1], "<=", 0),
        ]
        out = lp_solve([1, 1], cs, sense="max")
        assert out.status == OPTIMAL
        assert out.value == 1


    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("sense", ["max", "min"])
    def test_no_constraints(self, n, sense):
        # The tableau has no rows: a zero objective is optimal at the origin
        # and any other is unbounded.
        out = lp_solve([0] * n, [], sense=sense)
        assert (out.status, out.point, out.value) == (OPTIMAL, (F(0),) * n, 0)
        if n:
            assert lp_solve([1, -1], [], sense=sense).status == UNBOUNDED

@st.composite
def random_systems(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    cs = []
    for _ in range(m):
        coeffs = draw(st.lists(fracs, min_size=n, max_size=n))
        rel = draw(st.sampled_from(["<=", ">=", "=="]))
        rhs = draw(fracs)
        cs.append(Constraint(coeffs, rel, rhs))
    obj = draw(st.lists(fracs, min_size=n, max_size=n))
    sense = draw(st.sampled_from(["max", "min"]))
    return obj, cs, sense


class TestProperties:
    @given(random_systems())
    @settings(max_examples=150, deadline=None)
    def test_outcome_is_certified(self, system):
        obj, cs, sense = system
        out = lp_solve(obj, cs, sense=sense)
        if out.status == OPTIMAL:
            assert satisfies(cs, out.point)
        elif out.status == INFEASIBLE:
            assert check_farkas(cs, out.farkas)

    @given(random_systems())
    @settings(max_examples=100, deadline=None)
    def test_optimum_dominates_feasible_origin(self, system):
        obj, cs, sense = system
        origin = tuple(F(0) for _ in obj)
        if not satisfies(cs, origin):
            return
        out = lp_solve(obj, cs, sense=sense)
        assert out.status in (OPTIMAL, UNBOUNDED)
        if out.status == OPTIMAL:
            zero_value = F(0)
            if sense == "max":
                assert out.value >= zero_value
            else:
                assert out.value <= zero_value
