import hashlib
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.solvers.simplex import UnboundedLPError, lpmax, lpmin

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


def _rational(x):
    return sympy.Rational(x.numerator, x.denominator)


def sympy_outcome(obj, cs, sense, x0):
    """(status, optimal value) from sympy's own simplex, which also treats
    every variable as free and raises when the system is unbounded, on the
    system moved by a feasible point x0 (x = x0 + y), so that y = 0 is
    feasible: sympy 1.14 gets feasibility wrong both ways on some systems."""
    ys = sympy.symbols("y0:%d" % len(obj))
    rels = {"<=": sympy.Le, ">=": sympy.Ge, "==": sympy.Eq}
    exprs = []
    for c in cs:
        lhs = sum((_rational(a) * y for a, y in zip(c.coeffs, ys)), sympy.S.Zero)
        e = rels[c.rel](lhs, _rational(c.rhs - sum(a * x for a, x in zip(c.coeffs, x0))))
        assert e is not sympy.false
        if e is not sympy.true:
            exprs.append(e)
    f = sum((_rational(F(a)) * y for a, y in zip(obj, ys)), sympy.S.Zero)
    try:
        value, _ = (lpmax if sense == "max" else lpmin)(f, exprs)
    except UnboundedLPError:
        return UNBOUNDED, None
    return OPTIMAL, F(int(value.p), int(value.q)) + sum(F(a) * x for a, x in zip(obj, x0))


def wide_system(r):
    """A seeded system with mostly zero coefficients: <=, >= and == rows,
    some of them positive multiples of earlier rows, and often a box."""
    n, m = r.randint(2, 7), r.randint(2, 9)
    cs = []
    for _ in range(m):
        coeffs = [F(r.randint(-3, 3), r.randint(1, 2)) if r.random() < 0.3 else 0
                  for _ in range(n)]
        coeffs[r.randrange(n)] = r.choice([-2, -1, 1, 2])
        cs.append(Constraint(coeffs, r.choice(["<=", "<=", "<=", ">=", "=="]),
                             F(r.randint(-1, 6), r.randint(1, 3))))
    for _ in range(r.randint(1, 3)):
        c, k = r.choice(cs), r.randint(1, 3)
        cs.append(Constraint([k * x for x in c.coeffs], c.rel, k * c.rhs))
    if r.random() < 0.6:
        for i in range(n):
            e = [int(i == k) for k in range(n)]
            cs.append(Constraint(e, "<=", r.randint(0, 3)))
            cs.append(Constraint(e, ">=", -r.randint(0, 3)))
    r.shuffle(cs)
    obj = [r.randint(-2, 2) if r.random() < 0.5 else 0 for _ in range(n)]
    return obj, cs, r.choice(["max", "min"])


def small_system(r):
    """A seeded dense system of random_systems' size."""
    n, m = r.randint(1, 3), r.randint(1, 5)
    cs = [Constraint([F(r.randint(-4, 4), r.randint(1, 3)) for _ in range(n)],
                     r.choice(["<=", ">=", "=="]), F(r.randint(-4, 4), r.randint(1, 3)))
          for _ in range(m)]
    return ([F(r.randint(-4, 4), r.randint(1, 3)) for _ in range(n)], cs,
            r.choice(["max", "min"]))


def checked_status(system):
    """lp_solve's status, after an independent check of its outcome: an
    infeasible system by its Farkas vector, any other by a feasible point
    and sympy's simplex started there."""
    obj, cs, sense = system
    out = lp_solve(obj, cs, sense)
    if out.status == INFEASIBLE:
        assert check_farkas(cs, out.farkas)
        return out.status
    x0 = out.point if out.status == OPTIMAL else lp_solve([0] * len(obj), cs).point
    assert satisfies(cs, x0)
    assert (out.status, out.value) == sympy_outcome(obj, cs, sense, x0)
    return out.status


class TestAgainstSympy:
    """Status and optimal value agree with sympy's independent simplex."""

    @given(random_systems())
    @settings(max_examples=40, deadline=None)
    def test_random_systems(self, system):
        checked_status(system)

    def test_wide_sparse_systems(self):
        r = random.Random(7)
        statuses = [checked_status(wide_system(r)) for _ in range(18)]
        assert {s: statuses.count(s) for s in set(statuses)} == {
            OPTIMAL: 7, INFEASIBLE: 9, UNBOUNDED: 2}


class TestPivotSequence:
    def test_outputs_digest(self):
        # Every output, point and Farkas vector included, on 300 seeded
        # systems: among several optima or certificates, the one returned
        # is fixed by the pivot sequence, so the digest pins that too.
        r = random.Random(25)
        h = hashlib.sha256()
        for _ in range(300):
            system = wide_system(r) if r.random() < 0.7 else small_system(r)
            out = lp_solve(*system)
            h.update(repr((out.status, out.point, out.value, out.farkas)).encode())
        assert h.hexdigest() == LP_DIGEST


# Taken from the simplex that updated every column of every row it touched.
LP_DIGEST = "fd9a601ceff13715045202c921926b8d7aa44a9b55ea1e83d15ffc98eef2ca12"
