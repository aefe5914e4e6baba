from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from slackmat import Matrix, left_kernel_basis, rank, rank_factorization, rref, solve_linear
from slackmat.matrix import dot, inverse, is_zero_vec, ones, right_kernel_basis, unit

from golden import COUNTEREXAMPLE, PRISM, SQUARE_HOMOG
from oracles import (
    dot_reference,
    matmul_reference,
    matvec_reference,
    sympy_nullspace,
    sympy_rank,
    sympy_rref,
    sympy_solve,
    vecmat_reference,
)

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    p = draw(st.integers(1, max_rows))
    q = draw(st.integers(1, max_cols))
    data = draw(st.lists(
        st.lists(fracs, min_size=q, max_size=q), min_size=p, max_size=p,
    ))
    return Matrix(data, cols=q)


# Mixed denominators, and numerators within 2^10 of +-2^80.
near_2_80 = st.builds(
    lambda sign, k, d: F(sign * (2**80 - k), d),
    st.sampled_from((1, -1)), st.integers(0, 2**10), st.integers(1, 2**20),
)
wide_fracs = st.one_of(fracs, near_2_80, st.fractions(max_denominator=10**6))


@st.composite
def rref_inputs(draw, max_rows=5, max_cols=5):
    """Matrices of any shape from 0x0 up, with zero and duplicate rows."""
    p = draw(st.integers(0, max_rows))
    q = draw(st.integers(0, max_cols))
    rows = []
    for _ in range(p):
        kind = draw(st.sampled_from(("new", "new", "zero", "duplicate")))
        if kind == "zero":
            rows.append([F(0)] * q)
        elif kind == "duplicate" and rows:
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(draw(st.lists(wide_fracs, min_size=q, max_size=q)))
    return Matrix(rows, cols=q)


def wide_matrix(draw, p, q):
    rows = draw(st.lists(st.lists(wide_fracs, min_size=q, max_size=q),
                         min_size=p, max_size=p))
    return Matrix(rows, cols=q)


@st.composite
def product_operands(draw, max_dim=4):
    """(a, b, x, y): a p x k, b k x q, x of length k, y of length p, with
    every dimension from 0 up."""
    p, k, q = (draw(st.integers(0, max_dim)) for _ in range(3))
    a, b = wide_matrix(draw, p, k), wide_matrix(draw, k, q)
    x = draw(st.lists(wide_fracs, min_size=k, max_size=k))
    y = draw(st.lists(wide_fracs, min_size=p, max_size=p))
    return a, b, tuple(x), tuple(y)


class TestIntegerProducts:
    """The integer products give exactly the Fraction loops' results."""

    @given(product_operands())
    @example((Matrix([[], []], cols=0), Matrix([], cols=3), (), (F(1), F(2))))
    @example((Matrix([], cols=0), Matrix([], cols=0), (), ()))
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_loops(self, operands):
        a, b, x, y = operands
        assert a * b == matmul_reference(a, b)
        assert a.matvec(x) == matvec_reference(a, x)
        assert a.vecmat(y) == vecmat_reference(a, y)
        assert dot(x, x) == dot_reference(x, x)
        assert all(type(v) is F for v in a.matvec(x) + a.vecmat(y))

    def test_empty_inner_dimension_gives_zeros(self):
        a, b = Matrix([[], []], cols=0), Matrix([], cols=3)
        assert a * b == Matrix.zero(2, 3)
        assert Matrix([], cols=3).vecmat(()) == (F(0),) * 3
        assert dot((), ()) == 0

    def test_length_mismatch_raises(self):
        for call in (lambda: Matrix.identity(2) * Matrix.identity(3),
                     lambda: Matrix.identity(2).matvec(ones(3)),
                     lambda: Matrix.identity(2).vecmat(ones(3)),
                     lambda: dot(ones(2), ones(3))):
            with pytest.raises(ValueError):
                call()


@st.composite
def systems(draw):
    """(m, b) with m from `rref_inputs`; b is in the column span of m or
    arbitrary."""
    m = draw(rref_inputs())
    if draw(st.booleans()):
        b = m.matvec(draw(st.lists(wide_fracs, min_size=m.cols, max_size=m.cols)))
    else:
        b = tuple(draw(st.lists(wide_fracs, min_size=m.rows, max_size=m.rows)))
    return m, b


class TestRref:
    def test_identity(self):
        r, pivots, rk = rref(Matrix.identity(3))
        assert r == Matrix.identity(3)
        assert pivots == (0, 1, 2)
        assert rk == 3

    def test_proportional_rows(self):
        r, pivots, rk = rref(Matrix([[1, 2], [2, 4]]))
        assert rk == 1
        assert pivots == (0,)
        assert r.data[0] == (F(1), F(2))

    def test_prism_rank_four(self):
        assert rank(PRISM) == 4

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, m):
        r, _, _ = rref(m)
        r2, _, _ = rref(r)
        assert r2 == r

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_rank_matches_independent_oracle(self, m):
        assert rank(m) == sympy_rank(m)

    @given(rref_inputs())
    @example(Matrix([], cols=3))
    @example(Matrix([[], [], []], cols=0))
    @settings(max_examples=200, deadline=None)
    def test_matches_sympy(self, m):
        r, pivots, rk = rref(m)
        assert (r, pivots) == sympy_rref(m)
        assert rk == len(pivots)

    @given(systems())
    @example((Matrix([], cols=3), ()))
    @example((Matrix([[], [], []], cols=0), (F(0), F(1), F(0))))
    @settings(max_examples=200, deadline=None)
    def test_echelon_reads_match_sympy(self, system):
        """rank, solve_linear and the right kernel read the integer echelon
        form without the Fraction RREF; each agrees with sympy."""
        m, b = system
        assert rank(m) == sympy_rank(m)
        assert right_kernel_basis(m) == sympy_nullspace(m)
        assert solve_linear(m, b) == sympy_solve(m, b)


class TestKernels:
    def test_identity_empty(self):
        assert left_kernel_basis(Matrix.identity(3)) == []

    def test_proportional_rows(self):
        basis = left_kernel_basis(Matrix([[1, 2], [2, 4]]))
        assert len(basis) == 1
        (y,) = basis
        assert y[0] * 1 + y[1] * 2 == 0

    def test_counterexample_zero_rows(self):
        basis = left_kernel_basis(COUNTEREXAMPLE)
        assert set(basis) == {unit(4, 2), unit(4, 3)}

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_annihilation_and_dimension(self, m):
        basis = left_kernel_basis(m)
        assert len(basis) == m.rows - rank(m)
        for y in basis:
            assert is_zero_vec(m.vecmat(y))


class TestSolveLinear:
    def test_identity(self):
        assert solve_linear(Matrix.identity(3), ones(3)) == ones(3)

    def test_prism_ones_solvable(self):
        mu = solve_linear(PRISM, ones(6))
        assert mu is not None
        assert PRISM.matvec(mu) == ones(6)

    def test_prism_transpose_ones_unsolvable(self):
        assert solve_linear(PRISM.transpose(), ones(5)) is None

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError):
            solve_linear(Matrix.identity(2), ones(3))

    @given(matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_solution_or_rank_jump(self, m, data):
        b = data.draw(st.lists(fracs, min_size=m.rows, max_size=m.rows))
        x = solve_linear(m, b)
        aug = Matrix([r + (v,) for r, v in zip(m.data, b)], cols=m.cols + 1)
        if x is None:
            assert rank(aug) > rank(m)
        else:
            assert m.matvec(x) == tuple(F(v) for v in b)
            assert rank(aug) == rank(m)


class TestRankFactorization:
    def test_identity(self):
        a, b = rank_factorization(Matrix.identity(3))
        assert a == Matrix.identity(3)
        assert b == Matrix.identity(3)

    def test_zero(self):
        a, b = rank_factorization(Matrix.zero(2, 2))
        assert a.cols == 0 and b.rows == 0
        assert a * b == Matrix.zero(2, 2)

    def test_square_example_inner_dimension(self):
        a, b = rank_factorization(SQUARE_HOMOG)
        assert a.cols == 3
        assert a * b == SQUARE_HOMOG

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_exact_reproduction_full_rank_factors(self, m):
        a, b = rank_factorization(m)
        k = rank(m)
        assert a.cols == k and b.rows == k
        assert a * b == m
        assert rank(a) == k and rank(b) == k


class TestInverse:
    def test_round_trip(self):
        m = Matrix([[2, 1], [1, 1]])
        assert m * inverse(m) == Matrix.identity(2)

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            inverse(Matrix([[1, 2], [2, 4]]))


class TestRightKernel:
    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_annihilation(self, m):
        for x in right_kernel_basis(m):
            assert is_zero_vec(m.matvec(x))
